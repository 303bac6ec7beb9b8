//! Uniform quantization and byte packing of coefficient streams.
//!
//! The codec's wire format is deliberately simple enough for a mote to
//! encode: uniform quantization (error ≤ step/2 per coefficient), zigzag
//! varints for the surviving values, and run-length tokens for the zero
//! runs that denoising produces. No tables, no floating-point state.
//!
//! Wire grammar (byte-aligned):
//!
//! ```text
//! stream  := token*
//! token   := 0x00 varint(run_len)        ; run_len zeros
//!          | varint(zigzag(v)) (v ≠ 0)   ; one nonzero value
//! ```
//!
//! `zigzag(v)` for nonzero `v` is always ≥ 1, so the `0x00` prefix is
//! unambiguous.

/// Quantizes values with a uniform step; the reconstruction error of each
/// value is at most `step / 2`.
pub fn quantize(values: &[f64], step: f64) -> Vec<i64> {
    assert!(step > 0.0 && step.is_finite(), "step must be positive");
    values.iter().map(|v| (v / step).round() as i64).collect()
}

/// Inverse of [`quantize`].
pub fn dequantize(qs: &[i64], step: f64) -> Vec<f64> {
    qs.iter().map(|&q| q as f64 * step).collect()
}

/// [`quantize`] into a caller-owned buffer (cleared first), so repeated
/// encodes reuse one allocation.
pub fn quantize_into(values: &[f64], step: f64, out: &mut Vec<i64>) {
    assert!(step > 0.0 && step.is_finite(), "step must be positive");
    out.clear();
    out.extend(values.iter().map(|v| (v / step).round() as i64));
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Bytes of `u` as a varint.
pub(crate) fn varint_len(u: u64) -> usize {
    (u64::BITS - u.leading_zeros()).div_ceil(7).max(1) as usize
}

/// Appends `u` as a little-endian base-128 varint.
pub(crate) fn push_varint(out: &mut Vec<u8>, mut u: u64) {
    loop {
        let byte = (u & 0x7f) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint at `*pos`, advancing past it; `None` when truncated
/// or longer than 64 bits.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut u = 0u64;
    let mut shift = 0;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        u |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(u);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Packs a quantized integer stream into bytes (zigzag varints + zero RLE).
pub fn pack_ints(qs: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(qs.len());
    let mut i = 0;
    while i < qs.len() {
        if qs[i] == 0 {
            let mut run = 1usize;
            while i + run < qs.len() && qs[i + run] == 0 {
                run += 1;
            }
            out.push(0x00);
            push_varint(&mut out, run as u64);
            i += run;
        } else {
            push_varint(&mut out, zigzag(qs[i]));
            i += 1;
        }
    }
    out
}

/// Byte length of [`pack_ints`]'s output for `qs`, counted without
/// building it.
pub(crate) fn packed_len(qs: &[i64]) -> usize {
    let mut len = 0;
    let mut i = 0;
    while i < qs.len() {
        if qs[i] == 0 {
            let run = qs[i..].iter().take_while(|&&q| q == 0).count();
            len += 1 + varint_len(run as u64);
            i += run;
        } else {
            len += varint_len(zigzag(qs[i]));
            i += 1;
        }
    }
    len
}

/// Unpacks a byte stream produced by [`pack_ints`].
///
/// Returns `None` on malformed input (truncated varint, zero-length run).
pub fn unpack_ints(bytes: &[u8]) -> Option<Vec<i64>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let u = read_varint(bytes, &mut pos)?;
        if u == 0 {
            let run = read_varint(bytes, &mut pos)?;
            if run == 0 {
                return None;
            }
            out.extend(std::iter::repeat_n(0i64, run as usize));
        } else {
            out.push(unzigzag(u));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_error_bounded_by_half_step() {
        let xs = [1.24, -7.77, 0.0, 3.999, 1e4];
        let step = 0.5;
        let back = dequantize(&quantize(&xs, step), step);
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= step / 2.0 + 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN + 1, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zero_runs_compress_well() {
        let mut qs = vec![0i64; 1000];
        qs[0] = 5;
        qs[999] = -3;
        let packed = pack_ints(&qs);
        // 5, then 998 zeros (1 token + 2-byte varint), then −3: ≤ 6 bytes.
        assert!(packed.len() <= 6, "{} bytes", packed.len());
        assert_eq!(unpack_ints(&packed).unwrap(), qs);
    }

    #[test]
    fn dense_values_cost_about_a_varint_each() {
        let qs: Vec<i64> = (1..=100).collect();
        let packed = pack_ints(&qs);
        assert!(packed.len() <= 200);
        assert_eq!(unpack_ints(&packed).unwrap(), qs);
    }

    #[test]
    fn malformed_inputs_rejected() {
        // Truncated varint: continuation bit set on final byte.
        assert_eq!(unpack_ints(&[0x80]), None);
        // Zero-run token with zero length.
        assert_eq!(unpack_ints(&[0x00, 0x00]), None);
        // Truncated after run marker.
        assert_eq!(unpack_ints(&[0x00]), None);
    }

    #[test]
    fn empty_stream_roundtrips() {
        assert_eq!(pack_ints(&[]), Vec::<u8>::new());
        assert_eq!(unpack_ints(&[]).unwrap(), Vec::<i64>::new());
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn quantize_rejects_zero_step() {
        quantize(&[1.0], 0.0);
    }

    proptest! {
        #[test]
        fn pack_roundtrip(qs in proptest::collection::vec(-100_000i64..100_000, 0..512)) {
            let packed = pack_ints(&qs);
            prop_assert_eq!(packed_len(&qs), packed.len());
            prop_assert_eq!(unpack_ints(&packed).unwrap(), qs);
        }

        #[test]
        fn quantize_roundtrip_error_bound(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..128),
            step in 0.01f64..10.0,
        ) {
            let back = dequantize(&quantize(&xs, step), step);
            for (x, y) in xs.iter().zip(&back) {
                prop_assert!((x - y).abs() <= step / 2.0 + 1e-9);
            }
        }

        #[test]
        fn sparse_streams_beat_raw_encoding(zeros in 100usize..1000) {
            let mut qs = vec![0i64; zeros];
            qs[zeros / 2] = 7;
            let packed = pack_ints(&qs);
            prop_assert!(packed.len() < zeros / 10);
        }
    }
}
