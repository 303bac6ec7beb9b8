//! End-to-end lossy batch codec: DWT → (optional) denoise → quantize →
//! pack.
//!
//! This is the compression a PRESTO sensor applies to a batch before
//! transmission. The proxy decodes with the same parameters (which it
//! chose and pushed down during query–sensor matching). The quantizer
//! step is the precision knob: a query class tolerating ±0.5 °C lets the
//! proxy configure `quant_step ≈ 1.0`, shrinking payloads accordingly.

use crate::denoise::denoise_in_place;
use crate::haar::{
    haar_forward, haar_forward_in_place, haar_inverse, haar_inverse_in_place, haar_levels,
    pad_pow2, pad_pow2_into,
};
use crate::quant::{
    dequantize, pack_ints, packed_len, push_varint, quantize, quantize_into, read_varint,
    unpack_ints, varint_len,
};

/// Codec configuration. The transform always runs to the maximum depth
/// for the batch size, [`haar_levels`] of the padded length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecParams {
    /// Uniform quantizer step in the coefficient domain. Larger is
    /// coarser and cheaper. Must be positive.
    pub quant_step: f64,
    /// Soft-threshold denoising ([`denoise_in_place`]) before
    /// quantization.
    pub denoise: bool,
}

impl CodecParams {
    /// Lossless-leaning default: fine quantization, no denoising.
    pub fn fine() -> Self {
        CodecParams {
            quant_step: 0.01,
            denoise: false,
        }
    }

    /// The Figure 2 "wavelet denoising" configuration: soft-threshold
    /// denoising plus moderate quantization.
    pub fn denoising() -> Self {
        CodecParams {
            quant_step: 0.05,
            denoise: true,
        }
    }

    /// Derives a codec whose reconstruction error is empirically within a
    /// sample-domain tolerance: coefficient errors of `step/2` propagate
    /// to roughly `step/2` per sample through the orthonormal transform.
    pub fn for_tolerance(tolerance: f64) -> Self {
        CodecParams {
            quant_step: (tolerance.max(1e-6)) * 0.8,
            denoise: false,
        }
    }
}

/// A compressed batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Compressed {
    /// Self-describing payload (header + packed coefficients, the
    /// original sample count included); its length is the size on the
    /// wire.
    pub payload: Vec<u8>,
}

/// Reusable transform buffers for [`Codec::compress_reconstruct`].
///
/// A sensor flushes a batch every few minutes and serves pulls for the
/// lifetime of the deployment; holding one scratch per node means the
/// pad/transform/quantize pipeline touches no allocator once the
/// buffers have grown to the largest batch seen.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// Padded signal; becomes the coefficient vector in place.
    coeffs: Vec<f64>,
    /// Ping-pong buffer for the in-place transforms.
    tmp: Vec<f64>,
    /// Quantized coefficient stream.
    qs: Vec<i64>,
}

/// The batch codec.
#[derive(Clone, Debug)]
pub struct Codec {
    params: CodecParams,
}

impl Codec {
    /// Creates a codec; panics if the quantizer step is not positive.
    pub fn new(params: CodecParams) -> Self {
        assert!(
            params.quant_step > 0.0 && params.quant_step.is_finite(),
            "quant_step must be positive"
        );
        Codec { params }
    }

    /// Compresses a batch of samples.
    ///
    /// Payload layout: `varint(original_len) · varint(levels) ·
    /// f32(quant_step) · packed coefficients`.
    pub fn compress(&self, samples: &[f64]) -> Compressed {
        let padded = pad_pow2(samples);
        let levels = haar_levels(padded.len());
        let mut coeffs = haar_forward(&padded, levels);
        if self.params.denoise {
            denoise_in_place(&mut coeffs, levels);
        }
        let qs = quantize(&coeffs, self.params.quant_step);
        Compressed {
            payload: self.encode_payload(samples.len(), levels, &qs),
        }
    }

    /// Sizes a batch and reconstructs it in one pass, without building
    /// its payload. Pads `samples` into `scratch`, transforms and
    /// quantizes there, and counts the bytes [`Codec::compress`] would
    /// emit. The quantized coefficients are then snapped to the grid
    /// [`Codec::decompress`] uses and inverse-transformed. Returns the
    /// wire length, equal to `compress(..).payload.len()`, and the
    /// reconstruction the decoder would produce, borrowed from the
    /// scratch. A sensor's batches and pull replies carry only these
    /// two, so decoding its own payload would be pure waste.
    pub fn compress_reconstruct<'s>(
        &self,
        samples: impl IntoIterator<Item = f64>,
        scratch: &'s mut EncodeScratch,
    ) -> (usize, &'s [f64]) {
        let len = pad_pow2_into(samples, &mut scratch.coeffs);
        let levels = haar_levels(scratch.coeffs.len());
        haar_forward_in_place(&mut scratch.coeffs, levels, &mut scratch.tmp);
        if self.params.denoise {
            denoise_in_place(&mut scratch.coeffs, levels);
        }
        quantize_into(&scratch.coeffs, self.params.quant_step, &mut scratch.qs);
        // The header is `varint(len) · varint(levels) · f32(step)`.
        let byte_len =
            varint_len(len as u64) + varint_len(levels as u64) + 4 + packed_len(&scratch.qs);
        // Reconstruct with the f32-rounded step the header stores: the
        // grid the decoder snaps to.
        let wire_step = self.params.quant_step as f32 as f64;
        for (c, &q) in scratch.coeffs.iter_mut().zip(&scratch.qs) {
            *c = q as f64 * wire_step;
        }
        haar_inverse_in_place(&mut scratch.coeffs, levels, &mut scratch.tmp);
        (byte_len, &scratch.coeffs[..len])
    }

    fn encode_payload(&self, original_len: usize, levels: usize, qs: &[i64]) -> Vec<u8> {
        let mut payload = Vec::new();
        push_varint(&mut payload, original_len as u64);
        push_varint(&mut payload, levels as u64);
        payload.extend_from_slice(&(self.params.quant_step as f32).to_le_bytes());
        payload.extend_from_slice(&pack_ints(qs));
        payload
    }

    /// Decompresses a payload produced by [`Codec::compress`] (any codec
    /// instance can decode any payload — parameters ride in the header).
    ///
    /// Returns `None` on malformed input.
    pub fn decompress(compressed: &Compressed) -> Option<Vec<f64>> {
        let bytes = &compressed.payload;
        let mut pos = 0usize;
        let original_len = read_varint(bytes, &mut pos)? as usize;
        let levels = read_varint(bytes, &mut pos)? as usize;
        if pos + 4 > bytes.len() {
            return None;
        }
        let step = f32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?) as f64;
        if !step.is_finite() || step <= 0.0 {
            return None;
        }
        pos += 4;

        let qs = unpack_ints(&bytes[pos..])?;
        let padded_len = original_len.max(1).next_power_of_two();
        if qs.len() != padded_len || levels > haar_levels(padded_len) {
            return None;
        }
        let coeffs = dequantize(&qs, step);
        let mut samples = haar_inverse(&coeffs, levels);
        samples.truncate(original_len);
        Some(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diurnal(n: usize) -> Vec<f64> {
        // A smooth temperature-like batch with mild deterministic jitter.
        (0..n)
            .map(|i| {
                let t = i as f64;
                20.0 + 5.0 * (t * 0.01).sin() + 0.3 * (t * 1.7).sin()
            })
            .collect()
    }

    /// Compresses `xs` and returns the payload with the decoder's
    /// `(max_abs_error, rmse)` against the input.
    fn compress_with_errors(codec: &Codec, xs: &[f64]) -> (Compressed, f64, f64) {
        let c = codec.compress(xs);
        let back = Codec::decompress(&c).expect("own payload decodes");
        let max_err = xs
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let se: f64 = xs.iter().zip(&back).map(|(a, b)| (a - b) * (a - b)).sum();
        (c, max_err, (se / xs.len().max(1) as f64).sqrt())
    }

    #[test]
    fn roundtrip_within_quantizer_error() {
        let xs = diurnal(500);
        let codec = Codec::new(CodecParams::fine());
        let (c, max_err, rmse) = compress_with_errors(&codec, &xs);
        assert!(max_err < 0.05, "max_err {max_err}");
        assert!(rmse < 0.02, "rmse {rmse}");
        assert_eq!(Codec::decompress(&c).unwrap().len(), 500);
    }

    #[test]
    fn coarser_step_means_smaller_payload() {
        let xs = diurnal(1024);
        let fine = Codec::new(CodecParams {
            quant_step: 0.01,
            ..CodecParams::fine()
        });
        let coarse = Codec::new(CodecParams {
            quant_step: 1.0,
            ..CodecParams::fine()
        });
        assert!(coarse.compress(&xs).payload.len() < fine.compress(&xs).payload.len());
    }

    #[test]
    fn denoising_shrinks_payload_on_noisy_data() {
        // Deterministic noise via LCG.
        let mut state = 99u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.5
        };
        let xs: Vec<f64> = diurnal(2048).iter().map(|v| v + noise()).collect();
        let raw = Codec::new(CodecParams {
            denoise: false,
            quant_step: 0.05,
        });
        let den = Codec::new(CodecParams::denoising());
        let raw_len = raw.compress(&xs).payload.len();
        let den_len = den.compress(&xs).payload.len();
        assert!(
            (den_len as f64) < 0.7 * raw_len as f64,
            "denoised {den_len} vs raw {raw_len}"
        );
    }

    #[test]
    fn longer_batches_compress_better_per_sample() {
        // Figure 2's claim (b): more batching → better compression.
        let per_sample = |n: usize| {
            let xs = diurnal(n);
            let codec = Codec::new(CodecParams::denoising());
            codec.compress(&xs).payload.len() as f64 / n as f64
        };
        assert!(per_sample(2048) < per_sample(32));
    }

    #[test]
    fn decode_is_parameter_free() {
        let xs = diurnal(100);
        let c = Codec::new(CodecParams {
            quant_step: 0.2,
            denoise: true,
        })
        .compress(&xs);
        // Any decoder can decode: parameters are in the header.
        let back = Codec::decompress(&c).unwrap();
        assert_eq!(back.len(), 100);
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert_eq!(Codec::decompress(&Compressed { payload: vec![] }), None);
        let mut c = Codec::new(CodecParams::fine()).compress(&diurnal(64));
        c.payload.truncate(4);
        assert_eq!(Codec::decompress(&c), None);
        // Corrupt the coefficient count by appending garbage values.
        let mut c2 = Codec::new(CodecParams::fine()).compress(&diurnal(64));
        c2.payload.extend_from_slice(&[0x02, 0x02, 0x02, 0x02]);
        assert_eq!(Codec::decompress(&c2), None);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let codec = Codec::new(CodecParams::fine());
        let c = codec.compress(&[]);
        assert_eq!(Codec::decompress(&c).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn tolerance_constructor_meets_tolerance() {
        let xs = diurnal(512);
        for tol in [0.1, 0.5, 2.0] {
            let codec = Codec::new(CodecParams::for_tolerance(tol));
            let (_, max_err, _) = compress_with_errors(&codec, &xs);
            assert!(max_err <= tol, "tol {tol} err {max_err}");
        }
    }

    #[test]
    fn scratch_compress_matches_allocating_compress() {
        let mut scratch = EncodeScratch::default();
        for n in [0usize, 1, 5, 64, 130, 500] {
            let xs = diurnal(n);
            for params in [
                CodecParams::fine(),
                CodecParams::denoising(),
                CodecParams::for_tolerance(0.3),
            ] {
                let codec = Codec::new(params);
                let c = codec.compress(&xs);
                let (byte_len, recon) =
                    codec.compress_reconstruct(xs.iter().copied(), &mut scratch);
                assert_eq!(byte_len, c.payload.len(), "n={n} params={params:?}");
                let via_decode = Codec::decompress(&c).expect("own payload decodes");
                assert_eq!(recon, via_decode, "n={n} params={params:?}");
            }
        }
    }

    #[test]
    fn compress_reconstruct_matches_decompress_round_trip() {
        let mut scratch = EncodeScratch::default();
        for n in [1usize, 37, 128, 500] {
            let xs = diurnal(n);
            let codec = Codec::new(CodecParams::for_tolerance(0.2));
            let c = codec.compress(&xs);
            let (byte_len, recon) = codec.compress_reconstruct(xs.iter().copied(), &mut scratch);
            assert_eq!(byte_len, c.payload.len(), "n={n}");
            let via_decode = Codec::decompress(&c).expect("own payload decodes");
            assert_eq!(recon, via_decode, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "quant_step must be positive")]
    fn rejects_bad_step() {
        Codec::new(CodecParams {
            quant_step: -1.0,
            denoise: false,
        });
    }

    proptest! {
        #[test]
        fn roundtrip_any_signal(
            xs in proptest::collection::vec(-50.0f64..50.0, 0..300),
            step in 0.01f64..1.0,
        ) {
            let codec = Codec::new(CodecParams { quant_step: step, denoise: false });
            let c = codec.compress(&xs);
            let back = Codec::decompress(&c).unwrap();
            prop_assert_eq!(back.len(), xs.len());
            // Without denoising, error stays within a few quantizer steps
            // (coefficient errors accumulate logarithmically with depth).
            let depth = crate::haar::haar_levels(xs.len().max(1).next_power_of_two());
            let bound = step * (depth as f64 + 2.0);
            for (a, b) in xs.iter().zip(&back) {
                prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
            }
        }
    }
}
