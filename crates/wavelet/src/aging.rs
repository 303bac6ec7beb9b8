//! Multi-resolution graceful aging of archived batches.
//!
//! Paper §4: "If storage is constrained on each sensor, graceful aging of
//! archived data can be enabled using wavelet-based multi-resolution
//! techniques \[10\]." The ladder keeps only the Haar *approximation* band
//! of an old batch at increasing levels: each aging step halves the
//! stored footprint and coarsens the reconstruction by a factor of two in
//! time resolution.

use crate::haar::{haar_forward, haar_inverse, haar_levels, pad_pow2};
use crate::quant::{dequantize, quantize};

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

    /// Ages a batch to `level` (level 0 keeps full resolution, each +1
    /// halves the footprint): keeps the level-`level` approximation
    /// band, quantized, and reconstructs the batch at original length
    /// from it alone. The detail bands are gone, so the result is a
    /// level-`level` smoothing of the original. Returns the level used
    /// (capped once a single coefficient remains) and the
    /// reconstruction.
    pub fn summarize(&self, samples: &[f64], level: usize) -> (usize, Vec<f64>) {
        let padded = pad_pow2(samples);
        let level = level.min(haar_levels(padded.len()));
        let mut coeffs = haar_forward(&padded, level);
        let approx_len = padded.len() >> level;
        let approx = dequantize(
            &quantize(&coeffs[..approx_len], self.quant_step),
            self.quant_step,
        );
        coeffs[..approx_len].copy_from_slice(&approx);
        coeffs[approx_len..].fill(0.0);
        let mut out = haar_inverse(&coeffs, level);
        out.truncate(samples.len());
        (level, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root-mean-square error of a reconstruction against the original
    /// batch.
    fn rmse(back: &[f64], original: &[f64]) -> f64 {
        if original.is_empty() {
            return 0.0;
        }
        let se: f64 = original
            .iter()
            .zip(back)
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
        let (level, back) = ladder.summarize(&xs, 0);
        assert_eq!(level, 0);
        assert!(rmse(&back, &xs) < 0.01);
    }

    #[test]
    fn error_grows_monotonically_with_level() {
        let xs = trace(1024);
        let ladder = AgingLadder::new(0.05);
        let errs: Vec<f64> = (0..8)
            .map(|l| rmse(&ladder.summarize(&xs, l).1, &xs))
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
        let (level, rec) = ladder.summarize(&xs, 20);
        // level is capped once a single coefficient remains (64 = 2^6).
        assert_eq!(level, 6);
        assert_eq!(rec.len(), 64);
        // The single surviving coefficient reconstructs the batch mean.
        let mean = xs.iter().sum::<f64>() / 64.0;
        assert!((rec[0] - mean).abs() < 0.5, "{} vs {mean}", rec[0]);
    }

    #[test]
    fn reconstruct_handles_non_pow2_lengths() {
        let xs = trace(300);
        let ladder = AgingLadder::new(0.05);
        let (level, rec) = ladder.summarize(&xs, 2);
        assert_eq!(level, 2);
        assert_eq!(rec.len(), 300);
    }

    #[test]
    fn empty_batch() {
        let ladder = AgingLadder::new(0.05);
        let (_, rec) = ladder.summarize(&[], 3);
        assert_eq!(rec.len(), 0);
        assert_eq!(rmse(&rec, &[]), 0.0);
    }
}
