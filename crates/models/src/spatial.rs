//! Spatial multivariate Gaussian model (BBQ-style, paper §3).
//!
//! "Cached data from other nearby sensors … can be used for such
//! extrapolation": the proxy models the joint distribution of its
//! sensors' simultaneous readings as a multivariate Gaussian and answers
//! a query about a silent sensor by conditioning on whatever
//! contemporaneous readings it does have. This model never leaves the
//! proxy — it is a pure extrapolation device, so it has no sensor-side
//! replica and does not implement [`crate::traits::Predictor`].

use crate::linalg::Matrix;
use crate::traits::Prediction;

/// Joint Gaussian over the readings of `n` co-located sensors.
#[derive(Clone, Debug)]
pub struct SpatialGaussian {
    mean: Vec<f64>,
    cov: Matrix,
}

impl SpatialGaussian {
    /// Trains from simultaneous readings laid out row-major: `data` holds
    /// one row of `cols` values per epoch (`data[t * cols + s]` = sensor
    /// `s` at epoch `t`). A small ridge keeps the covariance SPD.
    ///
    /// Returns `None` for zero columns, a length that is not a multiple
    /// of `cols`, or fewer than two rows.
    pub fn train(data: &[f64], cols: usize) -> Option<Self> {
        if cols == 0 || !data.len().is_multiple_of(cols) {
            return None;
        }
        let (t, n) = (data.len() / cols, cols);
        if t < 2 {
            return None;
        }
        let mut mean = vec![0.0; n];
        for row in data.chunks_exact(n) {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= t as f64;
        }
        let mut cov = Matrix::zeros(n, n);
        for row in data.chunks_exact(n) {
            for i in 0..n {
                let di = row[i] - mean[i];
                for j in 0..n {
                    cov[(i, j)] += di * (row[j] - mean[j]);
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                cov[(i, j)] /= t as f64;
            }
            // Ridge for numerical SPD-ness.
            cov[(i, i)] += 1e-6;
        }
        Some(SpatialGaussian { mean, cov })
    }

    /// Number of sensors modelled.
    pub fn sensors(&self) -> usize {
        self.mean.len()
    }

    /// Marginal prediction for one sensor (no conditioning).
    pub fn marginal(&self, target: usize) -> Prediction {
        Prediction {
            value: self.mean[target],
            sigma: self.cov[(target, target)].sqrt(),
        }
    }

    /// Conditional prediction of `target` given simultaneous observations
    /// of other sensors: `x_A | x_B ~ N(µ_A + Σ_AB Σ_BB⁻¹ (x_B − µ_B),
    /// Σ_AA − Σ_AB Σ_BB⁻¹ Σ_BA)`.
    ///
    /// Observations of `target` itself are ignored. Falls back to the
    /// marginal when no usable observations remain or the solve fails.
    pub fn condition(&self, observed: &[(usize, f64)], target: usize) -> Prediction {
        let obs: Vec<(usize, f64)> = observed
            .iter()
            .copied()
            .filter(|&(i, _)| i != target && i < self.sensors())
            .collect();
        if obs.is_empty() {
            return self.marginal(target);
        }
        let b_idx: Vec<usize> = obs.iter().map(|&(i, _)| i).collect();
        let sigma_bb = self.cov.submatrix(&b_idx, &b_idx);
        let Some(l) = sigma_bb.cholesky() else {
            return self.marginal(target);
        };
        let resid: Vec<f64> = obs.iter().map(|&(i, v)| v - self.mean[i]).collect();
        // w = Σ_BB⁻¹ (x_B − µ_B).
        let w = l.solve_cholesky(&resid);
        let sigma_ab: Vec<f64> = b_idx.iter().map(|&j| self.cov[(target, j)]).collect();
        let value = self.mean[target] + sigma_ab.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
        // Conditional variance: Σ_AA − Σ_AB Σ_BB⁻¹ Σ_BA.
        let u = l.solve_cholesky(&sigma_ab);
        let var =
            self.cov[(target, target)] - sigma_ab.iter().zip(&u).map(|(a, b)| a * b).sum::<f64>();
        Prediction {
            value,
            sigma: var.max(0.0).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-major readings where sensors share a common field plus
    /// private noise: x_s = field + offset_s + noise_s.
    fn correlated_rows(t: usize, n: usize, noise_amp: f64) -> Vec<f64> {
        let mut state = 31337u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 30) as f64 - 1.0
        };
        (0..t)
            .flat_map(|k| {
                let field = 20.0 + 5.0 * ((k as f64) * 0.05).sin();
                (0..n)
                    .map(|s| field + s as f64 * 0.5 + rnd() * noise_amp)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn conditioning_sharpens_prediction() {
        let rows = correlated_rows(2000, 5, 0.3);
        let g = SpatialGaussian::train(&rows, 5).unwrap();
        let marginal = g.marginal(0);
        // Observe the other four sensors at a moment when the field is
        // high; conditional sigma must shrink dramatically.
        let obs: Vec<(usize, f64)> = (1..5).map(|s| (s, 25.0 + s as f64 * 0.5)).collect();
        let cond = g.condition(&obs, 0);
        assert!(
            cond.sigma < 0.5 * marginal.sigma,
            "{} vs {}",
            cond.sigma,
            marginal.sigma
        );
        // And the value should track the observed field level, not the mean.
        assert!((cond.value - 25.0).abs() < 1.0, "{}", cond.value);
    }

    #[test]
    fn marginal_matches_column_statistics() {
        let rows = correlated_rows(5000, 3, 0.2);
        let g = SpatialGaussian::train(&rows, 3).unwrap();
        let col0_mean = rows.iter().step_by(3).sum::<f64>() / 5000.0;
        assert!((g.marginal(0).value - col0_mean).abs() < 1e-9);
    }

    #[test]
    fn ignores_observation_of_target_itself() {
        let rows = correlated_rows(1000, 3, 0.2);
        let g = SpatialGaussian::train(&rows, 3).unwrap();
        let with_self = g.condition(&[(0, 99.0), (1, 21.0)], 0);
        let without = g.condition(&[(1, 21.0)], 0);
        assert!((with_self.value - without.value).abs() < 1e-12);
    }

    #[test]
    fn no_observations_falls_back_to_marginal() {
        let rows = correlated_rows(1000, 3, 0.2);
        let g = SpatialGaussian::train(&rows, 3).unwrap();
        let c = g.condition(&[], 1);
        let m = g.marginal(1);
        assert_eq!(c.value, m.value);
    }

    #[test]
    fn train_rejects_degenerate_input() {
        assert!(SpatialGaussian::train(&[], 1).is_none());
        assert!(SpatialGaussian::train(&[1.0], 1).is_none());
        // Ragged: three values do not make whole rows of two.
        assert!(SpatialGaussian::train(&[1.0, 2.0, 1.0], 2).is_none());
        assert!(SpatialGaussian::train(&[], 0).is_none());
        assert!(SpatialGaussian::train(&[1.0, 2.0], 0).is_none());
    }

    #[test]
    fn out_of_range_observations_ignored() {
        let rows = correlated_rows(500, 2, 0.2);
        let g = SpatialGaussian::train(&rows, 2).unwrap();
        let c = g.condition(&[(17, 5.0)], 0);
        assert_eq!(c.value, g.marginal(0).value);
    }

    #[test]
    fn uncorrelated_sensors_gain_nothing() {
        // Independent columns: conditioning barely moves the prediction.
        let mut state = 1u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 30) as f64 - 1.0
        };
        let rows: Vec<f64> = (0..3000 * 2).map(|_| rnd() * 5.0).collect();
        let g = SpatialGaussian::train(&rows, 2).unwrap();
        let m = g.marginal(0);
        let c = g.condition(&[(1, 4.0)], 0);
        assert!((c.sigma / m.sigma) > 0.95, "{} vs {}", c.sigma, m.sigma);
    }

    #[test]
    fn flat_training_keeps_the_row_accumulation_order() {
        // The statistics a nested-rows trainer accumulates, row by row
        // and column by column, must come out bit for bit.
        let flat = correlated_rows(777, 4, 0.4);
        let rows: Vec<&[f64]> = flat.chunks(4).collect();
        let mut mean = [0.0f64; 4];
        for row in &rows {
            for (m, v) in mean.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= rows.len() as f64;
        }
        let mut cov = [[0.0f64; 4]; 4];
        for row in &rows {
            for (i, cov_row) in cov.iter_mut().enumerate() {
                let di = row[i] - mean[i];
                for (j, c) in cov_row.iter_mut().enumerate() {
                    *c += di * (row[j] - mean[j]);
                }
            }
        }
        let g = SpatialGaussian::train(&flat, 4).unwrap();
        for (i, cov_row) in cov.iter().enumerate() {
            assert_eq!(g.mean[i].to_bits(), mean[i].to_bits());
            for (j, c) in cov_row.iter().enumerate() {
                let mut want = c / rows.len() as f64;
                if i == j {
                    want += 1e-6;
                }
                assert_eq!(g.cov[(i, j)].to_bits(), want.to_bits(), "cov[{i}][{j}]");
            }
        }
    }
}
