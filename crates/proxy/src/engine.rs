//! The prediction engine: model lifecycle and extrapolation.
//!
//! The engine trains a model per sensor from the cached history, keeps
//! the proxy-side replica observing incoming data, and re-trains when
//! either a retrain interval elapses or the recent push rate suggests
//! model drift. Proxies are tethered, so training charges no energy
//! account; each model's [`presto_models::TrainReport`] counts its
//! training cycles, and the build/check asymmetry claim (E7) reads it
//! straight from the model's `train`, so a slot keeps only the model.

use presto_models::{
    ArModel, LinearTrendModel, MarkovModel, ModelKind, Prediction, Predictor, SeasonalArModel,
    SeasonalModel,
};
use presto_sim::{SimDuration, SimTime};

/// Seasonal bins (when applicable).
const SEASONAL_BINS: usize = 24;

/// AR order (when applicable).
const AR_ORDER: usize = 2;

/// Markov states (when applicable).
const MARKOV_STATES: usize = 8;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Model class to train.
    pub kind: ModelKind,
    /// Minimum history before the first model is trained.
    pub min_history: usize,
    /// Re-train at least this often.
    pub retrain_interval: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kind: ModelKind::SeasonalAr,
            min_history: 500,
            retrain_interval: SimDuration::from_days(1),
        }
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
            Some(s) => now - s.trained_at >= self.config.retrain_interval,
        }
    }

    /// Trains a model of the configured class from history.
    pub fn train(&self, history: &[(SimTime, f64)], now: SimTime, prev_version: u32) -> ModelSlot {
        let model: Box<dyn Predictor> = match self.config.kind {
            ModelKind::Seasonal => Box::new(SeasonalModel::train(history, SEASONAL_BINS).0),
            ModelKind::Ar => Box::new(ArModel::train(history, AR_ORDER).0),
            ModelKind::SeasonalAr => {
                Box::new(SeasonalArModel::train(history, SEASONAL_BINS, AR_ORDER).0)
            }
            ModelKind::LinearTrend => Box::new(LinearTrendModel::train(history).0),
            ModelKind::Markov => Box::new(MarkovModel::train(history, MARKOV_STATES).0),
        };
        ModelSlot {
            model,
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
        let e = PredictionEngine::new(EngineConfig {
            min_history: 100,
            retrain_interval: SimDuration::from_hours(6),
            ..EngineConfig::default()
        });
        let hist = diurnal_history(3);
        assert!(!e.should_train(None, 50, SimTime::ZERO));
        assert!(e.should_train(None, 150, SimTime::ZERO));

        let slot = e.train(&hist, SimTime::from_days(3), 0);
        assert_eq!(slot.version, 1);
        assert!(!e.should_train(Some(&slot), 1000, SimTime::from_days(3)));
        assert!(e.should_train(
            Some(&slot),
            1000,
            SimTime::from_days(3) + SimDuration::from_hours(7)
        ));
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
    fn every_model_kind_trains() {
        let hist = diurnal_history(3);
        for kind in [
            ModelKind::Seasonal,
            ModelKind::Ar,
            ModelKind::SeasonalAr,
            ModelKind::LinearTrend,
            ModelKind::Markov,
        ] {
            let e = PredictionEngine::new(EngineConfig {
                kind,
                ..EngineConfig::default()
            });
            let slot = e.train(&hist, SimTime::from_days(3), 0);
            assert_eq!(slot.model.kind(), kind);
            // Replica parameters must be shippable.
            assert!(!slot.model.encode_params().is_empty());
        }
    }

    #[test]
    fn extrapolation_folds_in_push_tolerance() {
        let e = PredictionEngine::new(EngineConfig::default());
        let slot = e.train(&diurnal_history(7), SimTime::from_days(7), 0);
        let p = PredictionEngine::extrapolate(&slot, SimTime::from_days(8), 2.0);
        assert!(p.sigma >= 1.0);
    }
}
