//! Lightweight metric collection for experiment drivers.
//!
//! [`Summary`] is a reservoir of observations supporting mean, standard
//! deviation, min/max, and exact quantiles (experiments are small enough
//! that storing all samples is cheaper than an approximate sketch and keeps
//! the figures exactly reproducible).

use std::fmt;

/// A collection of f64 observations with exact summary statistics.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation; non-finite values are rejected.
    pub fn record(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Population standard deviation, or 0.0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        var.sqrt()
    }

    /// Minimum observation, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite_or(0.0)
    }

    /// Maximum observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite_or(0.0)
    }

    /// Exact quantile via the nearest-rank method; `q` in `[0, 1]`.
    ///
    /// Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }
}

/// Internal helper: map ±infinity sentinels (empty fold) to a default.
trait FiniteOr {
    fn pipe_finite_or(self, default: f64) -> f64;
}
impl FiniteOr for f64 {
    fn pipe_finite_or(self, default: f64) -> f64 {
        if self.is_finite() {
            self
        } else {
            default
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p95={:.4} max={:.4}",
            self.count(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.median(),
            self.p95(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_quantiles() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn summary_empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn summary_rejects_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn single_sample_std_dev_is_zero() {
        let mut s = Summary::new();
        s.record(42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 42.0);
    }
}
