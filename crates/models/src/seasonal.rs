//! Time-of-day seasonal model.
//!
//! "A model of temperature variations will capture time-of-day effects …
//! only deviations from the normal temperature for each hour of the day
//! are reported" (paper §3). The model is a table of per-bin mean and
//! standard deviation over a 24-hour period; prediction is one table
//! lookup, the cheapest possible sensor-side check.

use presto_sim::SimTime;

use crate::traits::{ModelKind, Prediction, Predictor, TrainReport};

/// Seasonal (diurnal) bin model.
#[derive(Clone, Debug)]
pub struct SeasonalModel {
    /// Per-bin means over a 24 h period.
    means: Vec<f64>,
    /// Per-bin standard deviations.
    sigmas: Vec<f64>,
    /// EWMA weight applied by [`Predictor::observe`] to adapt bins online.
    ewma_alpha: f64,
}

impl SeasonalModel {
    /// Trains a model with `bins` bins per day from timestamped history.
    ///
    /// Returns the model and its training cost report. With no data in a
    /// bin, the global mean is substituted.
    pub fn train(history: &[(SimTime, f64)], bins: usize) -> (Self, TrainReport) {
        Self::fit(history, bins, |_| {})
    }

    /// Trains like [`SeasonalModel::train`] and also returns each
    /// sample's residual `v - predict(t).value`, taken from the bin the
    /// fit already found for the sample rather than from a second
    /// [`SeasonalModel::bin_of`].
    pub(crate) fn train_with_residuals(
        history: &[(SimTime, f64)],
        bins: usize,
    ) -> (Self, TrainReport, Vec<f64>) {
        let mut sample_bins = Vec::with_capacity(history.len());
        let (model, report) = Self::fit(history, bins, |b| sample_bins.push(b));
        let residuals = history
            .iter()
            .zip(&sample_bins)
            .map(|(&(_, v), &b)| v - model.means[b])
            .collect();
        (model, report, residuals)
    }

    /// The fit behind both trainers; `each_bin` sees every sample's bin
    /// in history order.
    fn fit(
        history: &[(SimTime, f64)],
        bins: usize,
        mut each_bin: impl FnMut(usize),
    ) -> (Self, TrainReport) {
        assert!(bins > 0, "at least one bin");
        let mut sums = vec![0.0f64; bins];
        let mut sqs = vec![0.0f64; bins];
        let mut counts = vec![0u64; bins];
        for &(t, v) in history {
            let b = Self::bin_of(t, bins);
            each_bin(b);
            sums[b] += v;
            sqs[b] += v * v;
            counts[b] += 1;
        }
        let total: f64 = sums.iter().sum();
        let n: u64 = counts.iter().sum();
        let global_mean = if n == 0 { 0.0 } else { total / n as f64 };

        let mut means = Vec::with_capacity(bins);
        let mut sigmas = Vec::with_capacity(bins);
        let mut sse = 0.0;
        for b in 0..bins {
            if counts[b] == 0 {
                means.push(global_mean);
                sigmas.push(1.0);
            } else {
                let m = sums[b] / counts[b] as f64;
                let var = (sqs[b] / counts[b] as f64 - m * m).max(0.0);
                means.push(m);
                sigmas.push(var.sqrt().max(1e-6));
                sse += var * counts[b] as f64;
            }
        }
        let residual_sigma = if n == 0 { 0.0 } else { (sse / n as f64).sqrt() };

        // ~12 cycles per sample (bin index, three accumulations) plus
        // ~60 per bin for the final statistics.
        let train_cycles = history.len() as u64 * 12 + bins as u64 * 60;

        (
            SeasonalModel {
                means,
                sigmas,
                ewma_alpha: 0.02,
            },
            TrainReport {
                train_cycles,
                residual_sigma,
                samples: history.len(),
            },
        )
    }

    /// Decodes a model from its wire parameters.
    pub fn decode_params(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 2 || !(bytes.len() - 2).is_multiple_of(8) {
            return None;
        }
        let bins = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if bins == 0 || bytes.len() != 2 + bins * 8 {
            return None;
        }
        let mut means = Vec::with_capacity(bins);
        let mut sigmas = Vec::with_capacity(bins);
        for b in 0..bins {
            let off = 2 + b * 8;
            let m = f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?) as f64;
            let s = f32::from_le_bytes(bytes[off + 4..off + 8].try_into().ok()?) as f64;
            means.push(m);
            sigmas.push(s);
        }
        Some(SeasonalModel {
            means,
            sigmas,
            ewma_alpha: 0.02,
        })
    }

    fn bin_of(t: SimTime, bins: usize) -> usize {
        let frac = t.hour_of_day() / 24.0;
        ((frac * bins as f64) as usize).min(bins - 1)
    }
}

impl Predictor for SeasonalModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Seasonal
    }

    fn predict(&self, t: SimTime) -> Prediction {
        let b = Self::bin_of(t, self.means.len());
        Prediction {
            value: self.means[b],
            sigma: self.sigmas[b],
        }
    }

    fn observe(&mut self, t: SimTime, value: f64) {
        let b = Self::bin_of(t, self.means.len());
        let a = self.ewma_alpha;
        self.means[b] = (1.0 - a) * self.means[b] + a * value;
    }

    fn encode_params(&self) -> Vec<u8> {
        let bins = self.means.len();
        let mut out = Vec::with_capacity(2 + bins * 8);
        out.extend_from_slice(&(bins as u16).to_le_bytes());
        for b in 0..bins {
            out.extend_from_slice(&(self.means[b] as f32).to_le_bytes());
            out.extend_from_slice(&(self.sigmas[b] as f32).to_le_bytes());
        }
        out
    }

    fn check_cycles(&self) -> u64 {
        // Bin index (~10), table lookup + compare (~10), EWMA update (~15).
        35
    }

    fn clone_replica(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Verdict;
    use presto_sim::SimDuration;

    /// Synthesizes `days` days of diurnal data sampled every `step_mins`.
    fn diurnal_history(days: u64, step_mins: u64) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::from_days(days);
        while t < end {
            let h = t.hour_of_day();
            let v = 18.0 + 6.0 * ((h - 6.0) / 24.0 * std::f64::consts::TAU).sin();
            out.push((t, v));
            t += SimDuration::from_mins(step_mins);
        }
        out
    }

    #[test]
    fn learns_the_diurnal_cycle() {
        let hist = diurnal_history(7, 10);
        let (m, report) = SeasonalModel::train(&hist, 24);
        assert_eq!(report.samples, hist.len());
        // Noon on a later day should predict close to the true curve.
        let noon = SimTime::from_days(10) + SimDuration::from_hours(12);
        let truth = 18.0 + 6.0 * ((12.0 - 6.0) / 24.0 * std::f64::consts::TAU).sin();
        let p = m.predict(noon);
        assert!((p.value - truth).abs() < 0.5, "{} vs {truth}", p.value);
    }

    #[test]
    fn residual_sigma_reflects_within_bin_variation() {
        let hist = diurnal_history(7, 10);
        let (_, r24) = SeasonalModel::train(&hist, 24);
        let (_, r4) = SeasonalModel::train(&hist, 4);
        // Fewer bins ⇒ more within-bin variance.
        assert!(r4.residual_sigma > r24.residual_sigma);
    }

    #[test]
    fn params_roundtrip() {
        let hist = diurnal_history(3, 15);
        let (m, _) = SeasonalModel::train(&hist, 24);
        let bytes = m.encode_params();
        assert_eq!(bytes.len(), 2 + 24 * 8);
        let replica = SeasonalModel::decode_params(&bytes).unwrap();
        let t = SimTime::from_hours(100);
        assert!((replica.predict(t).value - m.predict(t).value).abs() < 1e-3);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(SeasonalModel::decode_params(&[]).is_none());
        assert!(SeasonalModel::decode_params(&[0, 0]).is_none());
        assert!(SeasonalModel::decode_params(&[1, 0, 0, 0]).is_none());
    }

    #[test]
    fn check_flags_anomalies_only() {
        let hist = diurnal_history(7, 10);
        let (m, _) = SeasonalModel::train(&hist, 24);
        let mut replica = m.clone_replica();
        let t = SimTime::from_days(8) + SimDuration::from_hours(12);
        let normal = m.predict(t).value + 0.3;
        assert_eq!(replica.check(t, normal, 1.0), Verdict::Conforms);
        match replica.check(t, normal + 10.0, 1.0) {
            Verdict::Deviates { residual } => assert!(residual > 8.0),
            v => panic!("expected deviation, got {v:?}"),
        }
    }

    #[test]
    fn observe_adapts_bin_mean() {
        let hist = diurnal_history(7, 10);
        let (mut m, _) = SeasonalModel::train(&hist, 24);
        let t = SimTime::from_days(9); // midnight bin
        let before = m.predict(t).value;
        for _ in 0..200 {
            m.observe(t, before + 5.0);
        }
        let after = m.predict(t).value;
        assert!(after > before + 4.0, "did not adapt: {before} -> {after}");
    }

    #[test]
    fn empty_history_trains_flat_model() {
        let (m, report) = SeasonalModel::train(&[], 24);
        assert_eq!(report.samples, 0);
        assert_eq!(m.predict(SimTime::from_hours(3)).value, 0.0);
    }

    #[test]
    fn check_is_cheap() {
        let (m, report) = SeasonalModel::train(&diurnal_history(7, 10), 24);
        // The asymmetry the paper demands: training costs orders of
        // magnitude more than a single check.
        assert!(report.train_cycles > 100 * m.check_cycles());
    }
}
