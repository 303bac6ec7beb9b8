//! Wavelet denoising (VisuShrink-style universal thresholding).
//!
//! Figure 2's "Batched Push w/ Wavelet Denoising" series relies on this:
//! detail coefficients whose magnitude is consistent with sensor noise are
//! shrunk to zero before quantization, so the entropy coder's zero
//! run-length pass collapses them to almost nothing. The threshold is the
//! classical universal threshold `σ·√(2·ln n)`, with `σ` estimated from
//! the median absolute deviation of the finest detail band (robust to the
//! signal itself). Thresholding is soft: detail coefficients below the
//! threshold go to zero and the rest shrink toward zero by it.

use crate::haar::band_ranges;

/// Robust noise estimate: MAD of the finest detail band / 0.6745.
///
/// Returns 0.0 when the band is empty or perfectly regular.
pub fn noise_sigma(coeffs: &[f64], levels: usize) -> f64 {
    if levels == 0 {
        return 0.0;
    }
    let (_, bands) = band_ranges(coeffs.len(), levels);
    let finest = bands.last().expect("levels >= 1").clone();
    let mut mags: Vec<f64> = coeffs[finest].iter().map(|c| c.abs()).collect();
    if mags.is_empty() {
        return 0.0;
    }
    mags.sort_by(|a, b| a.partial_cmp(b).expect("finite coefficients"));
    let median = mags[mags.len() / 2];
    median / 0.6745
}

/// The universal threshold `σ·√(2·ln n)` for an `n`-coefficient signal.
pub fn universal_threshold(sigma: f64, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    sigma * (2.0 * (n as f64).ln()).sqrt()
}

/// Applies soft thresholding at the universal threshold to the detail
/// bands of a coefficient vector in place; the approximation band is
/// never touched.
///
/// Returns the number of detail coefficients zeroed.
pub fn denoise_in_place(coeffs: &mut [f64], levels: usize) -> usize {
    if levels == 0 {
        return 0;
    }
    let sigma = noise_sigma(coeffs, levels);
    let t = universal_threshold(sigma, coeffs.len());
    threshold_in_place(coeffs, levels, t)
}

/// Soft-thresholds the detail bands at an explicit threshold `t`.
pub fn threshold_in_place(coeffs: &mut [f64], levels: usize, t: f64) -> usize {
    if levels == 0 || t <= 0.0 {
        return 0;
    }
    let (_, bands) = band_ranges(coeffs.len(), levels);
    let mut zeroed = 0;
    for band in bands {
        for c in &mut coeffs[band] {
            if c.abs() <= t {
                if *c != 0.0 {
                    zeroed += 1;
                }
                *c = 0.0;
            } else {
                *c -= t * c.signum();
            }
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::{haar_forward, haar_levels};

    /// A deterministic noisy sinusoid: signal + pseudo-noise from a simple
    /// LCG so the test has no RNG dependency.
    fn noisy_signal(n: usize, noise_amp: f64) -> Vec<f64> {
        let mut state = 0x12345678u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 30) as f64 - 1.0) * noise_amp
        };
        (0..n)
            .map(|i| (i as f64 * 0.05).sin() * 10.0 + noise())
            .collect()
    }

    #[test]
    fn sigma_estimate_tracks_noise_level() {
        let noisy = noisy_signal(512, 1.0);
        let levels = haar_levels(512);
        let c = haar_forward(&noisy, levels);
        let sigma = noise_sigma(&c, levels);
        // Uniform(−1,1) noise has σ ≈ 0.577; MAD estimate is rough but
        // must be the right order.
        assert!((0.2..1.2).contains(&sigma), "{sigma}");
    }

    #[test]
    fn denoising_zeroes_most_details_of_noise_only_signal() {
        let noisy = noisy_signal(256, 1.0);
        let flat: Vec<f64> = noisy.iter().map(|x| x - 10.0 * (0.0f64).sin()).collect();
        let levels = haar_levels(256);
        let mut c = haar_forward(&flat, levels);
        let zeroed = denoise_in_place(&mut c, levels);
        // All but the approximation + a handful of outliers should go.
        assert!(zeroed as f64 > 0.8 * (256 - 1) as f64, "{zeroed}");
    }

    #[test]
    fn approximation_band_is_preserved() {
        let noisy = noisy_signal(128, 1.0);
        let levels = 3;
        let mut c = haar_forward(&noisy, levels);
        let approx_before = c[..128 >> 3].to_vec();
        denoise_in_place(&mut c, levels);
        assert_eq!(&c[..128 >> 3], &approx_before[..]);
    }

    #[test]
    fn zero_levels_is_noop() {
        let mut c = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(denoise_in_place(&mut c, 0), 0);
        assert_eq!(c, vec![1.0, -2.0, 3.0, -4.0]);
    }

    #[test]
    fn universal_threshold_grows_with_n() {
        assert_eq!(universal_threshold(1.0, 1), 0.0);
        assert!(universal_threshold(1.0, 4096) > universal_threshold(1.0, 64));
        assert_eq!(universal_threshold(0.0, 1024), 0.0);
    }

    #[test]
    fn soft_mode_shrinks_survivors() {
        let mut c = vec![0.0, 0.0, 10.0, 0.5]; // 4 coeffs, 2 levels.
        let survivors_before = c[2];
        threshold_in_place(&mut c, 2, 1.0);
        assert_eq!(c[3], 0.0);
        assert!((c[2] - (survivors_before - 1.0)).abs() < 1e-12);
    }
}
