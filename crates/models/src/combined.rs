//! Seasonal + AR combined model — PRESTO's default.
//!
//! The seasonal table captures the predictable diurnal shape; an AR model
//! over the *seasonal residuals* captures short-term correlated weather.
//! This is the structure the paper sketches ("time-of-day effects …
//! simple regression and time-series analysis") and the one its authors
//! adopted for the full system. The sensor-side check remains O(1): one
//! table lookup plus a p-term dot product.
//!
//! Training finds each sample's bin once: the seasonal fit accumulates
//! its per-bin sums in history order, and each residual is the sample
//! minus the mean of the bin that fit found for it, the value
//! `seasonal.predict(t)` would look up again. The AR stage then sums
//! the residuals in history order (see [`crate::ar`]), so the fitted
//! model is the same bit for bit as with a second lookup per sample.

use presto_sim::SimTime;

use crate::ar::ArModel;
use crate::seasonal::SeasonalModel;
use crate::traits::{ModelKind, Prediction, Predictor, TrainReport};

/// Seasonal mean with AR(p) residual dynamics.
#[derive(Clone, Debug)]
pub struct SeasonalArModel {
    seasonal: SeasonalModel,
    residual_ar: ArModel,
}

impl SeasonalArModel {
    /// Trains both stages: seasonal bins, then AR over the residuals.
    pub fn train(history: &[(SimTime, f64)], bins: usize, ar_order: usize) -> (Self, TrainReport) {
        let (seasonal, seasonal_report, residuals) =
            SeasonalModel::train_with_residuals(history, bins);
        let (residual_ar, ar_report) = ArModel::train_values(&residuals, ar_order);
        let report = TrainReport {
            // Residual computation costs another pass over the history.
            train_cycles: seasonal_report.train_cycles
                + ar_report.train_cycles
                + history.len() as u64 * 40,
            residual_sigma: ar_report.residual_sigma,
            samples: history.len(),
        };
        (
            SeasonalArModel {
                seasonal,
                residual_ar,
            },
            report,
        )
    }

    /// Decodes wire parameters (`u16` seasonal length prefix, the
    /// seasonal stage, `u16` AR length prefix, the AR stage, then a
    /// 3-byte zero trailer).
    pub fn decode_params(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 2 {
            return None;
        }
        let slen = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if bytes.len() < 2 + slen + 2 {
            return None;
        }
        let seasonal = SeasonalModel::decode_params(&bytes[2..2 + slen])?;
        let aoff = 2 + slen;
        let alen = u16::from_le_bytes([bytes[aoff], bytes[aoff + 1]]) as usize;
        if bytes.len() != aoff + 2 + alen + 3 || bytes[aoff + 2 + alen..] != [0, 0, 0] {
            return None;
        }
        let residual_ar = ArModel::decode_params(&bytes[aoff + 2..aoff + 2 + alen])?;
        Some(SeasonalArModel {
            seasonal,
            residual_ar,
        })
    }
}

impl Predictor for SeasonalArModel {
    fn kind(&self) -> ModelKind {
        ModelKind::SeasonalAr
    }

    fn predict(&self, t: SimTime) -> Prediction {
        let base = self.seasonal.predict(t);
        let resid = self.residual_ar.predict(t);
        Prediction {
            value: base.value + resid.value,
            sigma: resid.sigma,
        }
    }

    fn observe(&mut self, t: SimTime, value: f64) {
        let base = self.seasonal.predict(t).value;
        self.residual_ar.observe(t, value - base);
        self.seasonal.observe(t, value);
    }

    fn encode_params(&self) -> Vec<u8> {
        let s = self.seasonal.encode_params();
        let a = self.residual_ar.encode_params();
        let mut out = Vec::with_capacity(2 + s.len() + 2 + a.len() + 3);
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(&s);
        out.extend_from_slice(&(a.len() as u16).to_le_bytes());
        out.extend_from_slice(&a);
        // A 3-byte zero trailer, kept so model pushes keep their wire
        // size.
        out.extend_from_slice(&[0, 0, 0]);
        out
    }

    fn check_cycles(&self) -> u64 {
        self.seasonal.check_cycles() + self.residual_ar.check_cycles()
    }

    fn clone_replica(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sim::SimDuration;

    /// Diurnal signal + AR(1) weather residual, deterministic.
    fn weather(days: u64, step_mins: u64) -> Vec<(SimTime, f64)> {
        let mut state = 4242u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64 - 1.0) * 0.4
        };
        let mut resid = 0.0;
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::from_days(days);
        while t < end {
            resid = 0.9 * resid + noise();
            let h = t.hour_of_day();
            let v = 18.0 + 6.0 * ((h - 6.0) / 24.0 * std::f64::consts::TAU).sin() + resid;
            out.push((t, v));
            t += SimDuration::from_mins(step_mins);
        }
        out
    }

    #[test]
    fn combined_beats_seasonal_at_one_step() {
        // With every sample observed, the AR stage soaks up the weather
        // residual the seasonal table cannot represent.
        let hist = weather(14, 10);
        let (train, test) = hist.split_at(hist.len() * 3 / 4);

        let (mut combined, _) = SeasonalArModel::train(train, 24, 2);
        let (mut seasonal, _) = SeasonalModel::train(train, 24);

        let (mut se_c, mut se_s) = (0.0f64, 0.0f64);
        for &(t, v) in test {
            let pc = combined.predict(t).value;
            let ps = seasonal.predict(t).value;
            se_c += (v - pc) * (v - pc);
            se_s += (v - ps) * (v - ps);
            combined.observe(t, v);
            seasonal.observe(t, v);
        }
        assert!(se_c < se_s, "combined {se_c} vs seasonal {se_s}");
    }

    #[test]
    fn combined_beats_plain_ar_over_long_horizons() {
        // With *no* observations during the test window (the situation a
        // proxy is in when a sensor goes quiet under model-driven push),
        // plain AR degenerates to persistence/mean while the seasonal
        // stage keeps tracking the diurnal swing.
        let hist = weather(14, 10);
        let (train, test) = hist.split_at(hist.len() * 3 / 4);

        let (combined, _) = SeasonalArModel::train(train, 24, 2);
        let (ar, _) = ArModel::train(train, 2);

        let (mut se_c, mut se_a) = (0.0f64, 0.0f64);
        for &(t, v) in test {
            let pc = combined.predict(t).value;
            let pa = ar.predict(t).value;
            se_c += (v - pc) * (v - pc);
            se_a += (v - pa) * (v - pa);
            // No observe(): the sensors are silent.
        }
        assert!(se_c < 0.5 * se_a, "combined {se_c} vs ar {se_a}");
    }

    #[test]
    fn params_roundtrip() {
        let hist = weather(7, 15);
        let (m, _) = SeasonalArModel::train(&hist, 24, 2);
        let bytes = m.encode_params();
        let replica = SeasonalArModel::decode_params(&bytes).unwrap();
        assert_eq!(
            replica.residual_ar.encode_params(),
            m.residual_ar.encode_params(),
            "the AR stage (order 2) survives the round trip"
        );
        let t = SimTime::from_days(8) + SimDuration::from_hours(15);
        // Cold replica: seasonal part matches; AR context differs until
        // the replica observes data.
        let a = m.seasonal.predict(t).value;
        let b = replica.seasonal.predict(t).value;
        assert!((a - b).abs() < 1e-2);
        assert!(SeasonalArModel::decode_params(&[5]).is_none());
        assert!(SeasonalArModel::decode_params(&[255, 255, 0]).is_none());
    }

    #[test]
    fn replica_tracks_after_warmup() {
        let hist = weather(10, 10);
        let (m, _) = SeasonalArModel::train(&hist, 24, 2);
        let mut replica = SeasonalArModel::decode_params(&m.encode_params()).unwrap();
        // Warm the replica with the last few true samples, then compare
        // next-step predictions against held-out truth.
        let (warm, test) = hist.split_at(hist.len() - 20);
        for &(t, v) in warm.iter().rev().take(10).collect::<Vec<_>>().iter().rev() {
            replica.observe(*t, *v);
        }
        let mut err = 0.0;
        for &(t, v) in test {
            err += (replica.predict(t).value - v).abs();
            replica.observe(t, v);
        }
        assert!(err / 20.0 < 1.0, "mean err {}", err / 20.0);
    }

    #[test]
    fn report_accounts_for_both_stages() {
        let hist = weather(7, 10);
        let (m, report) = SeasonalArModel::train(&hist, 24, 3);
        assert!(report.train_cycles > hist.len() as u64 * 40);
        assert!(report.train_cycles > 1000 * m.check_cycles());
        assert_eq!(report.samples, hist.len());
    }

    #[test]
    fn residual_sigma_below_raw_sigma() {
        let hist = weather(14, 10);
        let (_, combined) = SeasonalArModel::train(&hist, 24, 2);
        let (_, seasonal_only) = SeasonalModel::train(&hist, 24);
        assert!(combined.residual_sigma < seasonal_only.residual_sigma);
    }

    /// The reference trainer: the residuals come from
    /// `seasonal.predict(t)`, a second bin lookup per sample.
    fn predict_residuals_reference(
        history: &[(SimTime, f64)],
        bins: usize,
        ar_order: usize,
    ) -> SeasonalArModel {
        let (seasonal, _) = SeasonalModel::train(history, bins);
        let residuals: Vec<f64> = history
            .iter()
            .map(|&(t, v)| v - seasonal.predict(t).value)
            .collect();
        let (residual_ar, _) = ArModel::train_values(&residuals, ar_order);
        SeasonalArModel {
            seasonal,
            residual_ar,
        }
    }

    /// Two days at a 15-minute cadence from 21:00, so every sample sits
    /// on a bin edge at 24 and 96 bins and the history crosses midnight
    /// twice, then an hour at 31 s between edges; with two gaps and two
    /// unsorted stretches, around a large offset so that any change in
    /// the order of the sums shows in the low bits.
    fn awkward_history() -> Vec<(SimTime, f64)> {
        let mut state = 99u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let start = SimTime::from_hours(21);
        let on_edges = (0..192u64).map(|k| start + SimDuration::from_mins(15 * k));
        let end = start + SimDuration::from_hours(48);
        let between = (0..116u64).map(|k| end + SimDuration::from_secs(31 * k));
        let mut hist: Vec<(SimTime, f64)> = on_edges
            .chain(between)
            .enumerate()
            .filter(|&(k, _)| !(40..70).contains(&k) && !(150..153).contains(&k))
            .map(|(_, t)| {
                let h = t.hour_of_day();
                let v = 1000.0 + 6.0 * (h / 24.0 * std::f64::consts::TAU).sin() + noise();
                (t, v)
            })
            .collect();
        hist[60..90].reverse();
        for pair in hist[200..220].chunks_exact_mut(2) {
            pair.swap(0, 1);
        }
        hist
    }

    fn same_bits(got: &SeasonalArModel, want: &SeasonalArModel, t: SimTime, what: &str) {
        let (g, w) = (got.predict(t), want.predict(t));
        assert_eq!(
            g.value.to_bits(),
            w.value.to_bits(),
            "{what}: value at {t:?}"
        );
        assert_eq!(
            g.sigma.to_bits(),
            w.sigma.to_bits(),
            "{what}: sigma at {t:?}"
        );
    }

    #[test]
    fn residuals_from_the_fit_bins_match_predict_residuals_bit_for_bit() {
        let hist = awkward_history();
        let probes: Vec<SimTime> = [0u64, 15, 59 * 60 + 59, 3600, 21 * 3600, 23 * 3600 + 1800]
            .iter()
            .map(|&s| SimTime::from_days(3) + SimDuration::from_secs(s))
            .collect();
        for bins in [1, 24, 96] {
            for ar_order in [0, 2, 4] {
                let what = format!("bins={bins} ar_order={ar_order}");
                let (mut got, _) = SeasonalArModel::train(&hist, bins, ar_order);
                let mut want = predict_residuals_reference(&hist, bins, ar_order);
                assert_eq!(got.encode_params(), want.encode_params(), "{what}");
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
                for &t in &probes {
                    same_bits(&got, &want, t, &what);
                }
                for (k, &t) in probes.iter().enumerate() {
                    let v = 1000.0 + k as f64 * 0.37;
                    got.observe(t, v);
                    want.observe(t, v);
                }
                for &t in &probes {
                    same_bits(&got, &want, t, &what);
                }
            }
        }
    }
}
