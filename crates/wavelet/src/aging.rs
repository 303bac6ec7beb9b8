//! Multi-resolution graceful aging of archived batches.
//!
//! Paper §4: "If storage is constrained on each sensor, graceful aging of
//! archived data can be enabled using wavelet-based multi-resolution
//! techniques \[10\]." The ladder keeps only the Haar *approximation* band
//! of an old batch at increasing levels: each aging step halves the
//! stored footprint and coarsens the reconstruction by a factor of two in
//! time resolution.
//!
//! An [`AgedSummary`] is self-contained: it reconstructs without access
//! to the original data.

use crate::haar::{haar_forward, haar_inverse, haar_levels, pad_pow2};
use crate::quant::{dequantize, pack_ints, quantize, unpack_ints};

/// A batch aged to a given resolution level.
#[derive(Clone, Debug, PartialEq)]
pub struct AgedSummary {
    /// Aging level: the stored band is the level-`level` approximation.
    pub level: usize,
    /// Number of samples in the original batch.
    pub original_len: usize,
    /// Quantizer step used for the stored coefficients.
    pub quant_step: f64,
    /// Packed, quantized approximation coefficients.
    packed: Vec<u8>,
}

/// Builder/config for aging operations.
#[derive(Clone, Debug)]
pub struct AgingLadder {
    /// Quantizer step for stored approximation coefficients.
    pub quant_step: f64,
}

impl AgingLadder {
    /// Creates a ladder with the given coefficient quantizer step.
    pub fn new(quant_step: f64) -> Self {
        assert!(quant_step > 0.0 && quant_step.is_finite());
        AgingLadder { quant_step }
    }

    /// Summarizes a fresh batch at aging `level` (level 0 keeps full
    /// resolution, each +1 halves the footprint).
    pub fn summarize(&self, samples: &[f64], level: usize) -> AgedSummary {
        let padded = pad_pow2(samples);
        let max_level = haar_levels(padded.len());
        let level = level.min(max_level);
        let coeffs = haar_forward(&padded, level);
        let approx = &coeffs[..padded.len() >> level];
        let packed = pack_ints(&quantize(approx, self.quant_step));
        AgedSummary {
            level,
            original_len: samples.len(),
            quant_step: self.quant_step,
            packed,
        }
    }
}

impl AgedSummary {
    /// Decoded approximation coefficients.
    fn approx_coeffs(&self) -> Vec<f64> {
        let qs = unpack_ints(&self.packed).expect("summary packed by this module");
        dequantize(&qs, self.quant_step)
    }

    /// Reconstructs the batch at original length. Detail bands are gone,
    /// so the result is a level-`level` smoothing of the original.
    pub fn reconstruct(&self) -> Vec<f64> {
        let padded_len = self.original_len.max(1).next_power_of_two();
        let approx = self.approx_coeffs();
        let mut coeffs = vec![0.0; padded_len];
        coeffs[..approx.len()].copy_from_slice(&approx);
        let mut out = haar_inverse(&coeffs, self.level);
        out.truncate(self.original_len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root-mean-square reconstruction error of `s` against the original
    /// batch.
    fn rmse(s: &AgedSummary, original: &[f64]) -> f64 {
        let back = s.reconstruct();
        if original.is_empty() {
            return 0.0;
        }
        let se: f64 = original
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (se / original.len() as f64).sqrt()
    }

    fn trace(n: usize) -> Vec<f64> {
        // Diurnal-ish signal with a sharp event in the middle.
        (0..n)
            .map(|i| {
                let t = i as f64;
                let mut v = 18.0 + 6.0 * (t * 0.012).sin() + 0.2 * (t * 0.9).sin();
                if (n / 2..n / 2 + 5).contains(&i) {
                    v += 10.0;
                }
                v
            })
            .collect()
    }

    #[test]
    fn level_zero_is_near_lossless() {
        let xs = trace(256);
        let ladder = AgingLadder::new(0.01);
        let s = ladder.summarize(&xs, 0);
        assert!(rmse(&s, &xs) < 0.01);
    }

    #[test]
    fn footprint_halves_per_level() {
        let xs = trace(1024);
        let ladder = AgingLadder::new(0.05);
        let sizes: Vec<usize> = (0..6)
            .map(|l| ladder.summarize(&xs, l).packed.len())
            .collect();
        for w in sizes.windows(2) {
            assert!(
                (w[1] as f64) < 0.75 * w[0] as f64,
                "sizes not shrinking: {sizes:?}"
            );
        }
    }

    #[test]
    fn error_grows_monotonically_with_level() {
        let xs = trace(1024);
        let ladder = AgingLadder::new(0.05);
        let errs: Vec<f64> = (0..8)
            .map(|l| rmse(&ladder.summarize(&xs, l), &xs))
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "errors not monotone: {errs:?}");
        }
        // Coarse levels still capture the diurnal mean.
        assert!(errs[7] < 8.0, "coarse error unreasonable: {errs:?}");
    }

    #[test]
    fn aging_saturates_at_single_coefficient() {
        let xs = trace(64);
        let ladder = AgingLadder::new(0.05);
        let s = ladder.summarize(&xs, 20);
        // level is capped once a single coefficient remains (64 = 2^6).
        assert_eq!(s.level, 6);
        let rec = s.reconstruct();
        assert_eq!(rec.len(), 64);
        // The single surviving coefficient reconstructs the batch mean.
        let mean = xs.iter().sum::<f64>() / 64.0;
        assert!((rec[0] - mean).abs() < 0.5, "{} vs {mean}", rec[0]);
    }

    #[test]
    fn reconstruct_handles_non_pow2_lengths() {
        let xs = trace(300);
        let ladder = AgingLadder::new(0.05);
        let s = ladder.summarize(&xs, 2);
        assert_eq!(s.reconstruct().len(), 300);
    }

    #[test]
    fn empty_batch() {
        let ladder = AgingLadder::new(0.05);
        let s = ladder.summarize(&[], 3);
        assert_eq!(s.reconstruct().len(), 0);
        assert_eq!(rmse(&s, &[]), 0.0);
    }
}
