//! Orthonormal Haar discrete wavelet transform.
//!
//! The Haar transform is the sensor-side workhorse: a full multi-level
//! decomposition of an `n`-sample batch takes ~2n additions and
//! multiplications, well within the paper's "cheap computation"
//! envelope, and it reconstructs exactly (up to floating-point rounding).
//!
//! Layout convention: for a length-`n` (power of two) signal decomposed
//! over `L` levels, the coefficient vector is
//! `[approx(L) | detail(L) | detail(L-1) | ... | detail(1)]`, i.e. the
//! coarsest approximation first, then details from coarsest to finest.
//! This ordering makes the aging ladder a simple prefix truncation.

use std::f64::consts::SQRT_2;

/// Maximum number of full decomposition levels for a length-`n` signal
/// (`n` need not be a power of two; levels apply to the padded length).
pub fn haar_levels(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (n.next_power_of_two()).trailing_zeros() as usize
    }
}

/// Pads a signal to the next power of two by repeating the final sample
/// (edge padding keeps detail coefficients near zero at the boundary).
pub fn pad_pow2(data: &[f64]) -> Vec<f64> {
    let n = data.len().max(1).next_power_of_two();
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(data);
    let last = data.last().copied().unwrap_or(0.0);
    out.resize(n, last);
    out
}

/// Forward multi-level Haar transform over `levels` levels.
///
/// `data.len()` must be a power of two and `levels` at most
/// `haar_levels(data.len())`. Returns the coefficient vector in the
/// layout documented at module level.
pub fn haar_forward(data: &[f64], levels: usize) -> Vec<f64> {
    let n = data.len();
    assert!(n.is_power_of_two(), "length {n} must be a power of two");
    assert!(levels <= haar_levels(n), "too many levels");

    let mut approx = data.to_vec();
    // details[k] holds the detail band produced at level k+1 (finest first).
    let mut details: Vec<Vec<f64>> = Vec::with_capacity(levels);
    for _ in 0..levels {
        let half = approx.len() / 2;
        let mut next = Vec::with_capacity(half);
        let mut det = Vec::with_capacity(half);
        for i in 0..half {
            let a = approx[2 * i];
            let b = approx[2 * i + 1];
            next.push((a + b) / SQRT_2);
            det.push((a - b) / SQRT_2);
        }
        details.push(det);
        approx = next;
    }

    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&approx);
    for det in details.iter().rev() {
        out.extend_from_slice(det);
    }
    out
}

/// Pads a signal to the next power of two into a caller-owned buffer
/// (cleared first), so repeated batch encodes reuse one allocation.
/// Returns the signal's own length.
pub fn pad_pow2_into(data: impl IntoIterator<Item = f64>, out: &mut Vec<f64>) -> usize {
    out.clear();
    out.extend(data);
    let len = out.len();
    let last = out.last().copied().unwrap_or(0.0);
    out.resize(len.max(1).next_power_of_two(), last);
    len
}

/// Forward multi-level Haar transform, in place over `buf`, using `tmp`
/// as scratch. Produces the same layout as [`haar_forward`] without any
/// per-level allocation: `tmp` grows once to `buf.len()` and is reused
/// across calls.
///
/// At each level the prefix of length `len` is rewritten as
/// `[approx | detail]`; the detail half is already in its final
/// position, so the recursion only ever touches a shrinking prefix.
pub fn haar_forward_in_place(buf: &mut [f64], levels: usize, tmp: &mut Vec<f64>) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "length {n} must be a power of two");
    assert!(levels <= haar_levels(n), "too many levels");
    tmp.resize(n, 0.0);
    let mut len = n;
    for _ in 0..levels {
        let half = len / 2;
        for i in 0..half {
            let a = buf[2 * i];
            let b = buf[2 * i + 1];
            tmp[i] = (a + b) / SQRT_2;
            tmp[half + i] = (a - b) / SQRT_2;
        }
        buf[..len].copy_from_slice(&tmp[..len]);
        len = half;
    }
}

/// Inverse multi-level Haar transform, in place over `buf`, using `tmp`
/// as scratch; exact inverse of [`haar_forward_in_place`] with the same
/// `levels`.
pub fn haar_inverse_in_place(buf: &mut [f64], levels: usize, tmp: &mut Vec<f64>) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "length {n} must be a power of two");
    assert!(levels <= haar_levels(n), "too many levels");
    tmp.resize(n, 0.0);
    let mut half = n >> levels;
    for _ in 0..levels {
        let len = half * 2;
        for i in 0..half {
            let a = buf[i];
            let d = buf[half + i];
            tmp[2 * i] = (a + d) / SQRT_2;
            tmp[2 * i + 1] = (a - d) / SQRT_2;
        }
        buf[..len].copy_from_slice(&tmp[..len]);
        half = len;
    }
}

/// Inverse multi-level Haar transform; exact inverse of [`haar_forward`]
/// with the same `levels`.
pub fn haar_inverse(coeffs: &[f64], levels: usize) -> Vec<f64> {
    let n = coeffs.len();
    assert!(n.is_power_of_two(), "length {n} must be a power of two");
    assert!(levels <= haar_levels(n), "too many levels");

    let approx_len = n >> levels;
    let mut approx = coeffs[..approx_len].to_vec();
    let mut offset = approx_len;
    for _ in 0..levels {
        let half = approx.len();
        let det = &coeffs[offset..offset + half];
        offset += half;
        let mut next = Vec::with_capacity(half * 2);
        for i in 0..half {
            let a = approx[i];
            let d = det[i];
            next.push((a + d) / SQRT_2);
            next.push((a - d) / SQRT_2);
        }
        approx = next;
    }
    approx
}

/// Splits a coefficient vector into `(approx, details_coarse_to_fine)`
/// views, given the decomposition depth.
pub fn band_ranges(
    n: usize,
    levels: usize,
) -> (std::ops::Range<usize>, Vec<std::ops::Range<usize>>) {
    assert!(n.is_power_of_two());
    let approx_len = n >> levels;
    let approx = 0..approx_len;
    let mut bands = Vec::with_capacity(levels);
    let mut offset = approx_len;
    let mut len = approx_len;
    for _ in 0..levels {
        bands.push(offset..offset + len);
        offset += len;
        len *= 2;
    }
    (approx, bands)
}

/// Number of CPU cycles a Mica2-class microcontroller spends on a full
/// `levels`-deep forward transform of `n` samples — used for CPU energy
/// charging. Roughly 2 multiply-accumulate pairs per sample pair per
/// level, at ~40 cycles per floating-point-emulated MAC.
pub fn forward_cycle_cost(n: usize, levels: usize) -> u64 {
    let mut cycles = 0u64;
    let mut len = n;
    for _ in 0..levels {
        cycles += (len as u64 / 2) * 2 * 40;
        len /= 2;
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn single_level_matches_hand_computation() {
        let x = [4.0, 2.0, 5.0, 5.0];
        let c = haar_forward(&x, 1);
        // Approx: (4+2)/√2, (5+5)/√2; detail: (4−2)/√2, 0.
        assert_close(&c, &[6.0 / SQRT_2, 10.0 / SQRT_2, 2.0 / SQRT_2, 0.0], 1e-12);
    }

    #[test]
    fn full_depth_constant_signal_concentrates_energy() {
        let x = vec![3.0; 8];
        let c = haar_forward(&x, 3);
        // All energy in the single approximation coefficient: 3·√8.
        assert!((c[0] - 3.0 * 8f64.sqrt()).abs() < 1e-12);
        for d in &c[1..] {
            assert!(d.abs() < 1e-12);
        }
    }

    #[test]
    fn transform_preserves_energy() {
        // Orthonormality: ‖x‖² = ‖c‖².
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 5.0).collect();
        let c = haar_forward(&x, 6);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-9);
    }

    #[test]
    fn band_ranges_partition_coefficients() {
        let (approx, bands) = band_ranges(32, 3);
        assert_eq!(approx, 0..4);
        assert_eq!(bands, vec![4..8, 8..16, 16..32]);
    }

    #[test]
    fn pad_pow2_repeats_last() {
        assert_eq!(pad_pow2(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0, 3.0]);
        assert_eq!(pad_pow2(&[]), vec![0.0]);
        assert_eq!(pad_pow2(&[7.0]), vec![7.0]);
    }

    #[test]
    fn levels_helper() {
        assert_eq!(haar_levels(1), 0);
        assert_eq!(haar_levels(2), 1);
        assert_eq!(haar_levels(1024), 10);
        assert_eq!(haar_levels(1000), 10); // padded to 1024
    }

    #[test]
    fn cycle_cost_grows_with_input() {
        assert!(forward_cycle_cost(1024, 10) > forward_cycle_cost(64, 6));
        assert_eq!(forward_cycle_cost(2, 0), 0);
    }

    #[test]
    fn in_place_forward_matches_allocating_forward() {
        let mut tmp = Vec::new();
        for n in [1usize, 2, 8, 64, 256] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 4.0 + 20.0).collect();
            let padded = pad_pow2(&x);
            for levels in 0..=haar_levels(padded.len()) {
                let reference = haar_forward(&padded, levels);
                let mut buf = padded.clone();
                haar_forward_in_place(&mut buf, levels, &mut tmp);
                assert_close(&buf, &reference, 1e-12);
                // And the in-place inverse restores the signal.
                haar_inverse_in_place(&mut buf, levels, &mut tmp);
                assert_close(&buf, &padded, 1e-9);
            }
        }
    }

    proptest! {
        #[test]
        fn perfect_reconstruction(
            raw in proptest::collection::vec(-1000.0f64..1000.0, 1..256),
            levels_frac in 0.0f64..1.0,
        ) {
            let x = pad_pow2(&raw);
            let max_l = haar_levels(x.len());
            let levels = ((max_l as f64) * levels_frac).round() as usize;
            let c = haar_forward(&x, levels);
            let y = haar_inverse(&c, levels);
            for (a, b) in x.iter().zip(&y) {
                prop_assert!((a - b).abs() < 1e-8, "{} vs {}", a, b);
            }
        }

        #[test]
        fn zero_levels_is_identity(raw in proptest::collection::vec(-10.0f64..10.0, 1..64)) {
            let x = pad_pow2(&raw);
            let c = haar_forward(&x, 0);
            prop_assert_eq!(c, x);
        }
    }
}
