//! Discretized Markov chain model ("Markov model for the temporal axis",
//! paper §3).
//!
//! Values are discretized into `K` states by equal-width bins over the
//! training range; a K×K transition matrix is estimated with Laplace
//! smoothing. Prediction conditions on the current state: the predicted
//! value is the expectation of the next state's bin centre, with the
//! conditional standard deviation as uncertainty. The sensor replica
//! carries `K²` bytes of quantized transition probabilities — still tiny
//! — and a check costs one row scan.

use presto_sim::SimTime;

use crate::traits::{ModelKind, Prediction, Predictor, TrainReport};

/// Discretized Markov chain over value states.
#[derive(Clone, Debug)]
pub struct MarkovModel {
    /// Bin lower edge.
    lo: f64,
    /// Bin width.
    width: f64,
    /// Number of states.
    k: usize,
    /// Row-major transition probabilities (from × to).
    trans: Vec<f64>,
    /// Current state (last observed), if any.
    current: Option<usize>,
    /// Marginal mean value (fallback when no state is known).
    mean: f64,
    sigma: f64,
}

impl MarkovModel {
    /// Trains a `k`-state chain from history.
    pub fn train(history: &[(SimTime, f64)], k: usize) -> (Self, TrainReport) {
        let xs: Vec<f64> = history.iter().map(|&(_, v)| v).collect();
        Self::train_values(&xs, k)
    }

    /// Trains from a plain value sequence.
    pub fn train_values(xs: &[f64], k: usize) -> (Self, TrainReport) {
        assert!(k >= 2, "need at least two states");
        let n = xs.len();
        let (lo, hi) = xs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let (lo, width) = if n == 0 || hi <= lo {
            (0.0, 1.0)
        } else {
            (lo, (hi - lo) / k as f64)
        };
        let mean = if n == 0 {
            0.0
        } else {
            xs.iter().sum::<f64>() / n as f64
        };
        let var = if n == 0 {
            0.0
        } else {
            xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64
        };

        let state_of = |v: f64| -> usize {
            if width <= 0.0 {
                return 0;
            }
            (((v - lo) / width) as usize).min(k - 1)
        };

        // Laplace-smoothed transition counts.
        let mut counts = vec![1.0f64; k * k];
        for w in xs.windows(2) {
            counts[state_of(w[0]) * k + state_of(w[1])] += 1.0;
        }
        let mut trans = vec![0.0; k * k];
        for i in 0..k {
            let row_sum: f64 = counts[i * k..(i + 1) * k].iter().sum();
            for j in 0..k {
                trans[i * k + j] = counts[i * k + j] / row_sum;
            }
        }

        let current = xs.last().map(|&v| state_of(v));
        // ~8 cycles per transition count, ~5k per row normalization.
        let train_cycles = n as u64 * 8 + (k as u64) * (k as u64) * 5;

        (
            MarkovModel {
                lo,
                width,
                k,
                trans,
                current,
                mean,
                sigma: var.sqrt().max(1e-6),
            },
            TrainReport {
                train_cycles,
                residual_sigma: var.sqrt(),
                samples: n,
            },
        )
    }

    fn state_of(&self, v: f64) -> usize {
        if self.width <= 0.0 {
            return 0;
        }
        (((v - self.lo) / self.width) as usize).min(self.k - 1)
    }

    /// Centre value of a state's bin.
    fn centre(&self, s: usize) -> f64 {
        self.lo + (s as f64 + 0.5) * self.width
    }

    /// Decodes wire parameters.
    pub fn decode_params(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 1 + 8 + 8 {
            return None;
        }
        let k = bytes[0] as usize;
        if k < 2 || bytes.len() != 17 + k * k {
            return None;
        }
        let lo = f32::from_le_bytes(bytes[1..5].try_into().ok()?) as f64;
        let width = f32::from_le_bytes(bytes[5..9].try_into().ok()?) as f64;
        let mean = f32::from_le_bytes(bytes[9..13].try_into().ok()?) as f64;
        let sigma = f32::from_le_bytes(bytes[13..17].try_into().ok()?) as f64;
        let mut trans = Vec::with_capacity(k * k);
        for &b in &bytes[17..] {
            trans.push(b as f64 / 255.0);
        }
        // Renormalize rows after quantization.
        for i in 0..k {
            let s: f64 = trans[i * k..(i + 1) * k].iter().sum();
            if s > 0.0 {
                for j in 0..k {
                    trans[i * k + j] /= s;
                }
            }
        }
        Some(MarkovModel {
            lo,
            width,
            k,
            trans,
            current: None,
            mean,
            sigma,
        })
    }
}

impl Predictor for MarkovModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Markov
    }

    fn predict(&self, _t: SimTime) -> Prediction {
        let Some(s) = self.current else {
            return Prediction {
                value: self.mean,
                sigma: self.sigma,
            };
        };
        let row = &self.trans[s * self.k..(s + 1) * self.k];
        let mut ev = 0.0;
        for (j, p) in row.iter().enumerate() {
            ev += p * self.centre(j);
        }
        let mut var = 0.0;
        for (j, p) in row.iter().enumerate() {
            let d = self.centre(j) - ev;
            var += p * d * d;
        }
        Prediction {
            value: ev,
            sigma: var.sqrt().max(1e-6),
        }
    }

    fn observe(&mut self, _t: SimTime, value: f64) {
        self.current = Some(self.state_of(value));
    }

    fn encode_params(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.k * self.k);
        out.push(self.k as u8);
        for v in [self.lo, self.width, self.mean, self.sigma] {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        for &p in &self.trans {
            out.push((p * 255.0).round().clamp(0.0, 255.0) as u8);
        }
        out
    }

    fn check_cycles(&self) -> u64 {
        // State lookup + expectation over one row (~4 cycles per state).
        15 + 4 * self.k as u64
    }

    fn clone_replica(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Verdict;

    /// A two-regime square wave: alternates between values near 10 and
    /// near 30 with long dwell times — strongly Markovian.
    fn square_wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if (i / 50) % 2 == 0 { 10.0 } else { 30.0 })
            .collect()
    }

    #[test]
    fn learns_dwell_behaviour() {
        let xs = square_wave(5000);
        let (m, _) = MarkovModel::train_values(&xs, 4);
        // From the lowest state, by far the most likely successor is
        // itself (dwell 50 samples).
        let low = m.state_of(10.0);
        assert!(
            m.trans[low * m.k + low] > 0.9,
            "{}",
            m.trans[low * m.k + low]
        );
    }

    #[test]
    fn prediction_follows_current_state() {
        let xs = square_wave(5000);
        let (mut m, _) = MarkovModel::train_values(&xs, 4);
        m.observe(SimTime::ZERO, 10.0);
        let p_low = m.predict(SimTime::ZERO);
        m.observe(SimTime::ZERO, 30.0);
        let p_high = m.predict(SimTime::ZERO);
        assert!(p_low.value < p_high.value);
        assert!((p_low.value - 10.0).abs() < 4.0, "{}", p_low.value);
        assert!((p_high.value - 30.0).abs() < 4.0, "{}", p_high.value);
    }

    #[test]
    fn params_roundtrip_preserves_structure() {
        let xs = square_wave(2000);
        let (m, _) = MarkovModel::train_values(&xs, 6);
        let bytes = m.encode_params();
        assert_eq!(bytes.len(), 17 + 36);
        let r = MarkovModel::decode_params(&bytes).unwrap();
        assert_eq!(r.k, 6);
        for (a, b) in r.trans.iter().zip(&m.trans) {
            assert!((a - b).abs() < 0.02);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(MarkovModel::decode_params(&[]).is_none());
        assert!(MarkovModel::decode_params(&[1; 17]).is_none()); // k < 2
        assert!(MarkovModel::decode_params(&[4; 18]).is_none()); // wrong len
    }

    #[test]
    fn check_flags_regime_breaks() {
        let xs = square_wave(5000);
        let (m, _) = MarkovModel::train_values(&xs, 4);
        let mut replica = m.clone_replica();
        replica.observe(SimTime::ZERO, 10.0);
        assert_eq!(replica.check(SimTime::ZERO, 10.0, 6.0), Verdict::Conforms);
        match replica.check(SimTime::ZERO, 80.0, 6.0) {
            Verdict::Deviates { .. } => {}
            v => panic!("expected deviation, got {v:?}"),
        }
    }

    #[test]
    fn constant_series_degenerates_safely() {
        let (m, _) = MarkovModel::train_values(&[5.0; 100], 4);
        let p = m.predict(SimTime::ZERO);
        assert!(p.value.is_finite() && p.sigma.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least two states")]
    fn rejects_single_state() {
        MarkovModel::train_values(&[1.0, 2.0], 1);
    }

    #[test]
    fn rows_are_stochastic() {
        let xs = square_wave(1000);
        let (m, _) = MarkovModel::train_values(&xs, 5);
        for i in 0..5 {
            let s: f64 = m.trans[i * 5..(i + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }
}
