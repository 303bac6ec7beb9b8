//! Autoregressive AR(p) time-series model.
//!
//! The "time-series analysis techniques" option of paper §3. Training
//! solves the Yule–Walker equations with the Levinson–Durbin recursion
//! (O(n·p + p²) at the proxy); the sensor-side check is a p-term dot
//! product over the sensor's own recent samples — tiny state, tiny cost.
//!
//! The model assumes regularly spaced samples (PRESTO sensors sample on a
//! fixed epoch), so prediction conditions on the last `p` observations
//! rather than on wall-clock time.
//!
//! Training keeps a fixed accumulation order: the mean is a `sum()` in
//! sample order, and each lag's autocovariance adds its products in
//! increasing sample index from `-0.0`, the start value of `f64`'s
//! `Sum`, with the lags of one block of four folded in one pass over
//! the samples in registers.

use std::collections::VecDeque;

use presto_sim::SimTime;

use crate::traits::{ModelKind, Prediction, Predictor, TrainReport};

/// AR(p) model over mean-removed values.
#[derive(Clone, Debug)]
pub struct ArModel {
    mean: f64,
    /// φ₁…φₚ, most recent lag first.
    coeffs: Vec<f64>,
    /// Innovation standard deviation.
    sigma: f64,
    /// Last `p` observations, most recent at the front.
    recent: VecDeque<f64>,
}

/// Lags one pass over the samples folds, their accumulators held in
/// registers.
const LAGS: usize = 4;

/// Sample autocovariance at lags `0..=p`, folded [`LAGS`] lags per pass
/// over `xs`, so AR orders up to 3 take one pass. Each lag's
/// accumulator starts at `-0.0`, the start value of `f64`'s `Sum`, and
/// adds `(xs[i] - mean) * (xs[i + lag] - mean)` in increasing `i`, the
/// order a per-lag `sum()` adds them in; a lag with no pair is `0.0`.
fn autocovariance(xs: &[f64], mean: f64, p: usize) -> Vec<f64> {
    let n = xs.len();
    let mut acov = vec![0.0; p + 1];
    for (block, out) in acov.chunks_mut(LAGS).enumerate() {
        let first = block * LAGS;
        // Sample `i` pairs with `partners[i..i + LAGS]`, fewer near the
        // end: a full window for the first `full` samples.
        let partners = xs.get(first..).unwrap_or_default();
        let full = partners.len().saturating_sub(LAGS - 1);
        let mut acc = [-0.0; LAGS];
        let mut add = |x: f64, ys: &[f64]| {
            let d = x - mean;
            for (a, &y) in acc.iter_mut().zip(ys) {
                *a += d * (y - mean);
            }
        };
        for (&x, ys) in xs.iter().zip(partners.windows(LAGS)) {
            add(x, ys);
        }
        for (i, &x) in xs.iter().enumerate().skip(full) {
            add(x, partners.get(i..).unwrap_or_default());
        }
        for (lag, (value, sum)) in (first..).zip(out.iter_mut().zip(acc)) {
            *value = if n <= lag { 0.0 } else { sum / n as f64 };
        }
    }
    acov
}

/// Levinson–Durbin recursion: solves the Yule–Walker system for AR
/// coefficients, returning `(phi, innovation_variance)`.
fn levinson_durbin(acov: &[f64]) -> (Vec<f64>, f64) {
    let p = acov.len() - 1;
    if p == 0 || acov[0] <= 0.0 {
        return (vec![], acov.first().copied().unwrap_or(0.0).max(0.0));
    }
    let mut phi = vec![0.0; p];
    let mut prev = vec![0.0; p];
    let mut e = acov[0];
    for k in 0..p {
        let mut acc = acov[k + 1];
        for j in 0..k {
            acc -= prev[j] * acov[k - j];
        }
        let reflection = if e.abs() < 1e-12 { 0.0 } else { acc / e };
        phi[..k].copy_from_slice(&prev[..k]);
        phi[k] = reflection;
        for j in 0..k {
            phi[j] = prev[j] - reflection * prev[k - 1 - j];
        }
        e *= 1.0 - reflection * reflection;
        e = e.max(0.0);
        prev[..=k].copy_from_slice(&phi[..=k]);
    }
    (phi, e)
}

impl ArModel {
    /// Trains an AR(`order`) model from history values (timestamps are
    /// assumed regularly spaced; only the value sequence matters).
    pub fn train(history: &[(SimTime, f64)], order: usize) -> (Self, TrainReport) {
        let xs: Vec<f64> = history.iter().map(|&(_, v)| v).collect();
        Self::train_values(&xs, order)
    }

    /// Trains from a plain value sequence.
    pub fn train_values(xs: &[f64], order: usize) -> (Self, TrainReport) {
        let n = xs.len();
        let mean = if n == 0 {
            0.0
        } else {
            xs.iter().sum::<f64>() / n as f64
        };
        let p = order.min(n.saturating_sub(1));
        let acov = autocovariance(xs, mean, p);
        let (coeffs, var) = levinson_durbin(&acov);
        let sigma = var.sqrt().max(1e-6);

        // Seed the prediction context with the tail of the history.
        let mut recent = VecDeque::with_capacity(coeffs.len());
        for &v in xs.iter().rev().take(coeffs.len()) {
            recent.push_back(v);
        }

        // ~6 cycles per (sample × lag) for autocovariance plus ~20·p² for
        // the recursion.
        let train_cycles = (n as u64) * (p as u64 + 1) * 6 + 20 * (p as u64).pow(2);

        (
            ArModel {
                mean,
                coeffs,
                sigma,
                recent,
            },
            TrainReport {
                train_cycles,
                residual_sigma: sigma,
                samples: n,
            },
        )
    }

    /// Decodes a model from wire parameters.
    pub fn decode_params(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 9 {
            return None;
        }
        let p = bytes[0] as usize;
        if bytes.len() != 9 + p * 4 {
            return None;
        }
        let mean = f32::from_le_bytes(bytes[1..5].try_into().ok()?) as f64;
        let sigma = f32::from_le_bytes(bytes[5..9].try_into().ok()?) as f64;
        let mut coeffs = Vec::with_capacity(p);
        for k in 0..p {
            let off = 9 + k * 4;
            coeffs.push(f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?) as f64);
        }
        Some(ArModel {
            mean,
            coeffs,
            sigma,
            recent: VecDeque::new(),
        })
    }
}

impl Predictor for ArModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Ar
    }

    fn predict(&self, _t: SimTime) -> Prediction {
        if self.recent.len() < self.coeffs.len() || self.coeffs.is_empty() {
            return Prediction {
                value: self.mean,
                sigma: self.sigma.max(1e-6),
            };
        }
        let mut v = self.mean;
        for (k, phi) in self.coeffs.iter().enumerate() {
            v += phi * (self.recent[k] - self.mean);
        }
        Prediction {
            value: v,
            sigma: self.sigma,
        }
    }

    fn observe(&mut self, _t: SimTime, value: f64) {
        self.recent.push_front(value);
        while self.recent.len() > self.coeffs.len().max(1) {
            self.recent.pop_back();
        }
    }

    fn encode_params(&self) -> Vec<u8> {
        let p = self.coeffs.len().min(255);
        let mut out = Vec::with_capacity(9 + p * 4);
        out.push(p as u8);
        out.extend_from_slice(&(self.mean as f32).to_le_bytes());
        out.extend_from_slice(&(self.sigma as f32).to_le_bytes());
        for &c in self.coeffs.iter().take(p) {
            out.extend_from_slice(&(c as f32).to_le_bytes());
        }
        out
    }

    fn check_cycles(&self) -> u64 {
        // One MAC (~8 cycles) per lag plus compare and ring-buffer update.
        10 + 8 * self.coeffs.len() as u64
    }

    fn clone_replica(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Verdict;

    /// Generates a deterministic AR(1) sequence with the given φ.
    fn ar1_sequence(n: usize, phi: f64, noise_amp: f64) -> Vec<f64> {
        let mut state = 777u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64 - 1.0) * noise_amp
        };
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = phi * x + noise();
            xs.push(x + 20.0); // nonzero mean
        }
        xs
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let xs = ar1_sequence(5000, 0.8, 1.0);
        let (m, _) = ArModel::train_values(&xs, 1);
        assert_eq!(m.coeffs.len(), 1);
        assert!((m.coeffs[0] - 0.8).abs() < 0.05, "{}", m.coeffs[0]);
        assert!((m.mean - 20.0).abs() < 0.5, "{}", m.mean);
    }

    #[test]
    fn prediction_beats_mean_on_correlated_data() {
        let xs = ar1_sequence(3000, 0.9, 1.0);
        let (train, test) = xs.split_at(2500);
        let (mut m, _) = ArModel::train_values(train, 2);
        let mut se_model = 0.0;
        let mut se_mean = 0.0;
        for &v in test {
            let p = m.predict(SimTime::ZERO);
            se_model += (v - p.value) * (v - p.value);
            se_mean += (v - m.mean) * (v - m.mean);
            m.observe(SimTime::ZERO, v);
        }
        assert!(
            se_model < 0.5 * se_mean,
            "model {se_model} vs mean {se_mean}"
        );
    }

    #[test]
    fn innovation_sigma_close_to_noise_level() {
        // AR(1) with uniform(-1,1) noise: innovation σ ≈ 1/√3 ≈ 0.577.
        let xs = ar1_sequence(5000, 0.8, 1.0);
        let (m, report) = ArModel::train_values(&xs, 1);
        assert!((m.sigma - 0.577).abs() < 0.1, "{}", m.sigma);
        assert_eq!(report.residual_sigma, m.sigma);
    }

    #[test]
    fn params_roundtrip_and_replica_agrees() {
        let xs = ar1_sequence(2000, 0.7, 0.5);
        let (m, _) = ArModel::train_values(&xs, 3);
        let bytes = m.encode_params();
        assert_eq!(bytes.len(), 9 + 3 * 4);
        let mut replica = ArModel::decode_params(&bytes).unwrap();
        // Feed the replica the same context, then compare predictions.
        for &v in xs.iter().rev().take(3).collect::<Vec<_>>().iter().rev() {
            replica.observe(SimTime::ZERO, *v);
        }
        let a = m.predict(SimTime::ZERO).value;
        let b = replica.predict(SimTime::ZERO).value;
        assert!((a - b).abs() < 1e-2, "{a} vs {b}");
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ArModel::decode_params(&[]).is_none());
        assert!(ArModel::decode_params(&[3, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn cold_replica_falls_back_to_mean() {
        let xs = ar1_sequence(1000, 0.8, 1.0);
        let (m, _) = ArModel::train_values(&xs, 2);
        let replica = ArModel::decode_params(&m.encode_params()).unwrap();
        let p = replica.predict(SimTime::ZERO);
        assert!((p.value - m.mean).abs() < 1e-3);
    }

    #[test]
    fn check_detects_spikes() {
        let xs = ar1_sequence(2000, 0.8, 0.5);
        let (m, _) = ArModel::train_values(&xs, 1);
        let mut replica = m.clone_replica();
        let last = *xs.last().unwrap();
        // A continuation close to the AR prediction conforms.
        let pred = replica.predict(SimTime::ZERO).value;
        assert_eq!(
            replica.check(SimTime::ZERO, pred + 0.1, 2.0),
            Verdict::Conforms
        );
        // A spike far from any plausible continuation deviates.
        match replica.check(SimTime::ZERO, last + 50.0, 2.0) {
            Verdict::Deviates { residual } => assert!(residual > 10.0),
            v => panic!("expected deviation, got {v:?}"),
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (m, r) = ArModel::train_values(&[], 3);
        assert_eq!(m.coeffs.len(), 0);
        assert_eq!(r.samples, 0);
        let (m1, _) = ArModel::train_values(&[5.0], 3);
        assert_eq!(m1.coeffs.len(), 0);
        assert_eq!(m1.predict(SimTime::ZERO).value, 5.0);
        // Constant series: zero variance, order collapses gracefully.
        let (mc, _) = ArModel::train_values(&[7.0; 100], 2);
        let p = mc.predict(SimTime::ZERO);
        assert!((p.value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn training_dwarfs_checking() {
        let xs = ar1_sequence(5000, 0.8, 1.0);
        let (m, report) = ArModel::train_values(&xs, 4);
        assert!(report.train_cycles > 1000 * m.check_cycles());
    }

    #[test]
    fn levinson_handles_white_noise() {
        // White noise: all φ ≈ 0.
        let xs = ar1_sequence(5000, 0.0, 1.0);
        let (m, _) = ArModel::train_values(&xs, 3);
        for &c in &m.coeffs {
            assert!(c.abs() < 0.06, "{c}");
        }
    }

    /// One `sum()` per lag: the reference order the folded pass keeps.
    fn per_lag_autocovariance(xs: &[f64], mean: f64, p: usize) -> Vec<f64> {
        let n = xs.len();
        (0..=p)
            .map(|lag| {
                if n <= lag {
                    return 0.0;
                }
                (0..n - lag)
                    .map(|i| (xs[i] - mean) * (xs[i + lag] - mean))
                    .sum::<f64>()
                    / n as f64
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn folded_autocovariance_matches_per_lag_sums_bit_for_bit() {
        let long = ar1_sequence(3000, 0.9, 1.0);
        for p in 0..=4 {
            // Every length up to past `p` (so `n <= p` leaves lags with
            // no pair), then long runs through the full-window loop.
            for n in (0..=p + 6).chain([64, 1001, 3000]) {
                let xs = &long[..n];
                let mean = if n == 0 {
                    0.0
                } else {
                    xs.iter().sum::<f64>() / n as f64
                };
                assert_eq!(
                    bits(&autocovariance(xs, mean, p)),
                    bits(&per_lag_autocovariance(xs, mean, p)),
                    "p={p} n={n}"
                );
            }
        }
        // Every lag-1 term is `0 · −2 = −0.0`: the per-lag sum keeps the
        // sign only because its start value is `−0.0`.
        let xs = [5.0, 3.0, 5.0];
        let got = autocovariance(&xs, 5.0, 2);
        assert!(got[1] == 0.0 && got[1].is_sign_negative());
        assert_eq!(bits(&got), bits(&per_lag_autocovariance(&xs, 5.0, 2)));
    }
}
