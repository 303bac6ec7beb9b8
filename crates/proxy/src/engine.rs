//! The prediction engine: model lifecycle and extrapolation.
//!
//! The engine trains a model per sensor from the cached history, keeps
//! the proxy-side replica observing incoming data, and re-trains when
//! either a retrain interval elapses or the recent push rate suggests
//! model drift. Training cost is charged to the proxy's CPU ledger —
//! proxies are powered, but the cost is *measured* so the build/check
//! asymmetry claim (E7) is demonstrable.

use presto_models::{
    ArModel, LinearTrendModel, MarkovModel, ModelKind, Prediction, Predictor, SeasonalArModel,
    SeasonalModel, SpatialGaussian, TrainReport,
};
use presto_net::CpuModel;
use presto_sim::{EnergyCategory, EnergyLedger, SimDuration, SimTime};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Model class to train.
    pub kind: ModelKind,
    /// Seasonal bins (when applicable).
    pub seasonal_bins: usize,
    /// AR order (when applicable).
    pub ar_order: usize,
    /// Markov states (when applicable).
    pub markov_states: usize,
    /// Minimum history before the first model is trained.
    pub min_history: usize,
    /// Re-train at least this often.
    pub retrain_interval: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kind: ModelKind::SeasonalAr,
            seasonal_bins: 24,
            ar_order: 2,
            markov_states: 8,
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
    /// Training cost report.
    pub report: TrainReport,
}

/// The prediction engine.
pub struct PredictionEngine {
    config: EngineConfig,
    cpu: CpuModel,
    /// Cumulative training cycles (for E7).
    pub total_train_cycles: u64,
}

impl PredictionEngine {
    /// Creates an engine. The proxy CPU is modelled as a Stargate-class
    /// part; we reuse the mote CPU model scaled up via cycles (the cycle
    /// *count* is the asymmetry metric, the joules are charged at proxy
    /// rates).
    pub fn new(config: EngineConfig) -> Self {
        PredictionEngine {
            config,
            cpu: CpuModel {
                freq_hz: 400e6, // Stargate PXA255
                active_power_w: 0.4,
            },
            total_train_cycles: 0,
        }
    }

    /// The configured model kind.
    pub fn kind(&self) -> ModelKind {
        self.config.kind
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
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

    /// Trains a model of the configured class from history, charging the
    /// proxy's CPU ledger.
    pub fn train(
        &mut self,
        history: &[(SimTime, f64)],
        now: SimTime,
        prev_version: u32,
        ledger: &mut EnergyLedger,
    ) -> ModelSlot {
        let (model, report): (Box<dyn Predictor>, TrainReport) = match self.config.kind {
            ModelKind::Seasonal => {
                let (m, r) = SeasonalModel::train(history, self.config.seasonal_bins);
                (Box::new(m), r)
            }
            ModelKind::Ar => {
                let (m, r) = ArModel::train(history, self.config.ar_order);
                (Box::new(m), r)
            }
            ModelKind::SeasonalAr => {
                let (m, r) = SeasonalArModel::train(
                    history,
                    self.config.seasonal_bins,
                    self.config.ar_order,
                );
                (Box::new(m), r)
            }
            ModelKind::LinearTrend => {
                let (m, r) = LinearTrendModel::train(history);
                (Box::new(m), r)
            }
            ModelKind::Markov => {
                let (m, r) = MarkovModel::train(history, self.config.markov_states);
                (Box::new(m), r)
            }
        };
        ledger.charge(EnergyCategory::Cpu, self.cpu.op_energy(report.train_cycles));
        self.total_train_cycles += report.train_cycles;
        ModelSlot {
            model,
            version: prev_version + 1,
            trained_at: now,
            report,
        }
    }

    /// Trains the spatial Gaussian over aligned sensor values, row-major
    /// in `data`: one row per epoch, `cols` values (one per sensor) each.
    pub fn train_spatial(
        &mut self,
        data: &[f64],
        cols: usize,
        ledger: &mut EnergyLedger,
    ) -> Option<SpatialGaussian> {
        let g = SpatialGaussian::train(data, cols)?;
        ledger.charge(EnergyCategory::Cpu, self.cpu.op_energy(g.train_cycles));
        self.total_train_cycles += g.train_cycles;
        Some(g)
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

    /// The guaranteed absolute error bound for extrapolation under
    /// model-driven push with the given sensor tolerance.
    pub fn extrapolation_bound(push_tolerance: f64) -> f64 {
        push_tolerance
    }

    /// Decodes a context-free replica from pushed parameters — the
    /// exact state a sensor holds right after installing a model push.
    /// The replica-resync path replays cached history through this to
    /// reconstruct the sensor's current replica without retraining.
    pub fn decode_replica(kind: ModelKind, params: &[u8]) -> Option<Box<dyn Predictor>> {
        match kind {
            ModelKind::Seasonal => {
                SeasonalModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
            }
            ModelKind::Ar => {
                ArModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
            }
            ModelKind::SeasonalAr => {
                SeasonalArModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
            }
            ModelKind::LinearTrend => {
                LinearTrendModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
            }
            ModelKind::Markov => {
                MarkovModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
            }
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
        let mut e = PredictionEngine::new(EngineConfig {
            min_history: 100,
            retrain_interval: SimDuration::from_hours(6),
            ..EngineConfig::default()
        });
        let hist = diurnal_history(3);
        assert!(!e.should_train(None, 50, SimTime::ZERO));
        assert!(e.should_train(None, 150, SimTime::ZERO));

        let mut ledger = EnergyLedger::new();
        let slot = e.train(&hist, SimTime::from_days(3), 0, &mut ledger);
        assert_eq!(slot.version, 1);
        assert!(ledger.category(EnergyCategory::Cpu) > 0.0);
        assert!(!e.should_train(Some(&slot), 1000, SimTime::from_days(3)));
        assert!(e.should_train(
            Some(&slot),
            1000,
            SimTime::from_days(3) + SimDuration::from_hours(7)
        ));
    }

    #[test]
    fn trained_model_predicts_diurnal_shape() {
        let mut e = PredictionEngine::new(EngineConfig::default());
        let mut ledger = EnergyLedger::new();
        let slot = e.train(&diurnal_history(7), SimTime::from_days(7), 0, &mut ledger);
        let t = SimTime::from_days(8) + SimDuration::from_hours(14);
        let p = slot.model.predict(t);
        assert!((p.value - 25.0).abs() < 1.0, "{}", p.value);
    }

    #[test]
    fn every_model_kind_trains() {
        let hist = diurnal_history(3);
        let mut ledger = EnergyLedger::new();
        for kind in [
            ModelKind::Seasonal,
            ModelKind::Ar,
            ModelKind::SeasonalAr,
            ModelKind::LinearTrend,
            ModelKind::Markov,
        ] {
            let mut e = PredictionEngine::new(EngineConfig {
                kind,
                ..EngineConfig::default()
            });
            let slot = e.train(&hist, SimTime::from_days(3), 0, &mut ledger);
            assert_eq!(slot.model.kind(), kind);
            assert!(slot.report.train_cycles > 0);
            // Replica parameters must be shippable.
            assert!(!slot.model.encode_params().is_empty());
        }
    }

    #[test]
    fn extrapolation_folds_in_push_tolerance() {
        let mut e = PredictionEngine::new(EngineConfig::default());
        let mut ledger = EnergyLedger::new();
        let slot = e.train(&diurnal_history(7), SimTime::from_days(7), 0, &mut ledger);
        let p = PredictionEngine::extrapolate(&slot, SimTime::from_days(8), 2.0);
        assert!(p.sigma >= 1.0);
        assert_eq!(PredictionEngine::extrapolation_bound(0.5), 0.5);
    }

    #[test]
    fn spatial_training_charges_cpu() {
        let mut e = PredictionEngine::new(EngineConfig::default());
        let mut ledger = EnergyLedger::new();
        let data: Vec<f64> = (0..200)
            .flat_map(|k| {
                let f = (k as f64 * 0.1).sin();
                [20.0 + f, 20.5 + f, 21.0 + f]
            })
            .collect();
        let g = e.train_spatial(&data, 3, &mut ledger).unwrap();
        assert_eq!(g.sensors(), 3);
        assert!(ledger.category(EnergyCategory::Cpu) > 0.0);
        assert!(e.total_train_cycles > 0);
    }
}
