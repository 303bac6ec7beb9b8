//! The prediction engine: model lifecycle and extrapolation.
//!
//! The engine trains a model per sensor from the cached history, keeps
//! the proxy-side replica observing incoming data, and re-trains when
//! either a retrain interval elapses or the recent push rate suggests
//! model drift. Proxies are tethered, so training charges no energy
//! account; each model's [`presto_models::TrainReport`] counts its
//! training cycles, and the build/check asymmetry claim (E7) reads it
//! straight from the model's `train`, so a slot keeps only the model.

use presto_models::{Prediction, Predictor, SeasonalArModel};
use presto_sim::{SimDuration, SimTime};

/// Seasonal bins of the trained model.
const SEASONAL_BINS: usize = 24;

/// AR order of the trained model.
const AR_ORDER: usize = 2;

/// Re-train at least this often.
const RETRAIN_INTERVAL: SimDuration = SimDuration::from_days(1);

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Minimum history before the first model is trained.
    pub min_history: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { min_history: 500 }
    }
}

/// Per-sensor model state.
pub struct ModelSlot {
    /// The proxy's own replica (observes everything the proxy hears).
    pub model: Box<dyn Predictor>,
    /// Version, bumped on each retrain.
    pub version: u32,
    /// When this version was trained.
    pub trained_at: SimTime,
}

/// The prediction engine.
pub struct PredictionEngine {
    config: EngineConfig,
}

impl PredictionEngine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Self {
        PredictionEngine { config }
    }

    /// True when a (re)train is warranted.
    pub fn should_train(&self, slot: Option<&ModelSlot>, history_len: usize, now: SimTime) -> bool {
        if history_len < self.config.min_history {
            return false;
        }
        match slot {
            None => true,
            Some(s) => now - s.trained_at >= RETRAIN_INTERVAL,
        }
    }

    /// Trains the seasonal AR model the system runs from history.
    pub fn train(&self, history: &[(SimTime, f64)], now: SimTime, prev_version: u32) -> ModelSlot {
        ModelSlot {
            model: Box::new(SeasonalArModel::train(history, SEASONAL_BINS, AR_ORDER).0),
            version: prev_version + 1,
            trained_at: now,
        }
    }

    /// Extrapolates a value at `t` from a model slot, with the
    /// model-driven-push guarantee folded into the confidence: while the
    /// sensor is silent, the true value provably lies within
    /// `push_tolerance` of the replica's prediction (modulo lost pushes).
    pub fn extrapolate(slot: &ModelSlot, t: SimTime, push_tolerance: f64) -> Prediction {
        let p = slot.model.predict(t);
        Prediction {
            value: p.value,
            sigma: p.sigma.max(push_tolerance / 2.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_history(days: u64) -> Vec<(SimTime, f64)> {
        (0..days * 24 * 4)
            .map(|i| {
                let t = SimTime::from_mins(i * 15);
                let v =
                    21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos();
                (t, v)
            })
            .collect()
    }

    #[test]
    fn trains_after_min_history_and_on_schedule() {
        let e = PredictionEngine::new(EngineConfig { min_history: 100 });
        let hist = diurnal_history(3);
        assert!(!e.should_train(None, 50, SimTime::ZERO));
        assert!(e.should_train(None, 150, SimTime::ZERO));

        let slot = e.train(&hist, SimTime::from_days(3), 0);
        assert_eq!(slot.version, 1);
        assert!(!e.should_train(Some(&slot), 1000, SimTime::from_days(3)));
        assert!(!e.should_train(
            Some(&slot),
            1000,
            SimTime::from_days(3) + SimDuration::from_hours(23)
        ));
        assert!(e.should_train(Some(&slot), 1000, SimTime::from_days(4)));
    }

    #[test]
    fn trained_model_predicts_diurnal_shape() {
        let e = PredictionEngine::new(EngineConfig::default());
        let slot = e.train(&diurnal_history(7), SimTime::from_days(7), 0);
        let t = SimTime::from_days(8) + SimDuration::from_hours(14);
        let p = slot.model.predict(t);
        assert!((p.value - 25.0).abs() < 1.0, "{}", p.value);
    }

    #[test]
    fn extrapolation_folds_in_push_tolerance() {
        let e = PredictionEngine::new(EngineConfig::default());
        let slot = e.train(&diurnal_history(7), SimTime::from_days(7), 0);
        let p = PredictionEngine::extrapolate(&slot, SimTime::from_days(8), 2.0);
        assert!(p.sigma >= 1.0);
    }
}
