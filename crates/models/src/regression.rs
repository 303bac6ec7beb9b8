//! Sliding-window linear trend model ("simple regression techniques",
//! paper §3).
//!
//! The model fits `value = a + b·t` by least squares over a training
//! window and extrapolates the line. The sensor-side replica maintains
//! the same fit incrementally over its own recent window using running
//! sums, so a check is O(1).

use std::collections::VecDeque;

use presto_sim::SimTime;

use crate::traits::{ModelKind, Prediction, Predictor, TrainReport};

/// Linear trend `value ≈ intercept + slope · (t − t0)` with `t` in hours.
#[derive(Clone, Debug)]
pub struct LinearTrendModel {
    intercept: f64,
    slope: f64,
    /// Reference time for the fit, in hours.
    t0_hours: f64,
    sigma: f64,
    /// Recent (hours, value) pairs for online refits at the sensor.
    window: VecDeque<(f64, f64)>,
    /// Maximum window length maintained online.
    window_cap: usize,
}

/// Least-squares line fit; returns `(intercept, slope, residual_sigma)`
/// relative to the first timestamp.
fn fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    if points.len() == 1 {
        return (points[0].1, 0.0, 0.0);
    }
    let t0 = points[0].0;
    let (mut st, mut sv, mut stt, mut stv) = (0.0, 0.0, 0.0, 0.0);
    for &(t, v) in points {
        let x = t - t0;
        st += x;
        sv += v;
        stt += x * x;
        stv += x * v;
    }
    let denom = n * stt - st * st;
    let slope = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * stv - st * sv) / denom
    };
    let intercept = (sv - slope * st) / n;
    let sse: f64 = points
        .iter()
        .map(|&(t, v)| {
            let e = v - (intercept + slope * (t - t0));
            e * e
        })
        .sum();
    (intercept, slope, (sse / n).sqrt())
}

impl LinearTrendModel {
    /// Trains a trend model from timestamped history.
    pub fn train(history: &[(SimTime, f64)]) -> (Self, TrainReport) {
        let points: Vec<(f64, f64)> = history
            .iter()
            .map(|&(t, v)| (t.as_hours_f64(), v))
            .collect();
        let (intercept, slope, sigma) = fit(&points);
        let t0_hours = points.first().map(|p| p.0).unwrap_or(0.0);
        let window_cap = 64;
        let mut window = VecDeque::with_capacity(window_cap);
        for &p in points.iter().rev().take(window_cap) {
            window.push_front(p);
        }
        // ~10 cycles per sample for the running sums, ~100 for the solve.
        let train_cycles = history.len() as u64 * 10 + 100;
        (
            LinearTrendModel {
                intercept,
                slope,
                t0_hours,
                sigma: sigma.max(1e-6),
                window,
                window_cap,
            },
            TrainReport {
                train_cycles,
                residual_sigma: sigma,
                samples: history.len(),
            },
        )
    }

    /// Decodes wire parameters.
    pub fn decode_params(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 {
            return None;
        }
        let f = |o: usize| -> Option<f64> {
            Some(f32::from_le_bytes(bytes[o..o + 4].try_into().ok()?) as f64)
        };
        Some(LinearTrendModel {
            intercept: f(0)?,
            slope: f(4)?,
            t0_hours: f(8)?,
            sigma: f(12)?,
            window: VecDeque::new(),
            window_cap: 64,
        })
    }
}

impl Predictor for LinearTrendModel {
    fn kind(&self) -> ModelKind {
        ModelKind::LinearTrend
    }

    fn predict(&self, t: SimTime) -> Prediction {
        Prediction {
            value: self.intercept + self.slope * (t.as_hours_f64() - self.t0_hours),
            sigma: self.sigma,
        }
    }

    fn observe(&mut self, t: SimTime, value: f64) {
        self.window.push_back((t.as_hours_f64(), value));
        while self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        // Refit over the window once it has enough points; keeps the
        // sensor replica tracking local drift.
        if self.window.len() >= 8 {
            let pts: Vec<(f64, f64)> = self.window.iter().copied().collect();
            let (i, s, sg) = fit(&pts);
            self.intercept = i;
            self.slope = s;
            self.t0_hours = pts[0].0;
            self.sigma = sg.max(1e-6);
        }
    }

    fn encode_params(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        for v in [self.intercept, self.slope, self.t0_hours, self.sigma] {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
        out
    }

    fn check_cycles(&self) -> u64 {
        // Line evaluation + compare + running-sum update.
        45
    }

    fn clone_replica(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sim::SimDuration;

    fn ramp_history(hours: u64, slope: f64, base: f64) -> Vec<(SimTime, f64)> {
        (0..hours * 4)
            .map(|i| {
                let t = SimTime::from_mins(i * 15);
                (t, base + slope * t.as_hours_f64())
            })
            .collect()
    }

    #[test]
    fn fits_exact_line() {
        let hist = ramp_history(24, 0.5, 10.0);
        let (m, report) = LinearTrendModel::train(&hist);
        assert!((m.slope - 0.5).abs() < 1e-9);
        assert!(report.residual_sigma < 1e-9);
        let t = SimTime::from_hours(30);
        assert!((m.predict(t).value - (10.0 + 0.5 * 30.0)).abs() < 1e-6);
    }

    #[test]
    fn params_roundtrip() {
        let hist = ramp_history(12, -0.25, 30.0);
        let (m, _) = LinearTrendModel::train(&hist);
        let replica = LinearTrendModel::decode_params(&m.encode_params()).unwrap();
        let t = SimTime::from_hours(14);
        assert!((replica.predict(t).value - m.predict(t).value).abs() < 1e-2);
        assert!(LinearTrendModel::decode_params(&[0; 3]).is_none());
    }

    #[test]
    fn online_refit_tracks_new_trend() {
        let hist = ramp_history(24, 0.5, 10.0);
        let (mut m, _) = LinearTrendModel::train(&hist);
        // Trend reverses; after observing a window of the new regime the
        // model should follow it.
        let start = SimTime::from_hours(24);
        for i in 0..64u64 {
            let t = start + SimDuration::from_mins(i * 15);
            let v = 22.0 - 0.5 * (t.as_hours_f64() - 24.0);
            m.observe(t, v);
        }
        assert!(m.slope < -0.4, "{}", m.slope);
    }

    #[test]
    fn degenerate_histories() {
        let (m0, _) = LinearTrendModel::train(&[]);
        assert_eq!(m0.predict(SimTime::from_hours(1)).value, 0.0);
        let (m1, _) = LinearTrendModel::train(&[(SimTime::ZERO, 42.0)]);
        assert_eq!(m1.predict(SimTime::from_hours(5)).value, 42.0);
        // Identical timestamps: slope collapses to zero, no NaN.
        let (m2, _) = LinearTrendModel::train(&[(SimTime::ZERO, 1.0), (SimTime::ZERO, 3.0)]);
        assert!(m2.predict(SimTime::from_hours(1)).value.is_finite());
        assert_eq!(m2.slope, 0.0);
    }

    #[test]
    fn sigma_reflects_scatter() {
        let mut hist = ramp_history(24, 0.0, 20.0);
        for (i, p) in hist.iter_mut().enumerate() {
            p.1 += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let (m, _) = LinearTrendModel::train(&hist);
        assert!((m.sigma - 1.0).abs() < 0.05, "{}", m.sigma);
    }
}
