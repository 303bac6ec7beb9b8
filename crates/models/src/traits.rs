//! The model contract shared by proxy and sensor.

use presto_sim::SimTime;

/// A point prediction with an uncertainty estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted value.
    pub value: f64,
    /// One standard deviation of predictive uncertainty.
    pub sigma: f64,
}

impl Prediction {
    /// True if `observed` lies within `tolerance` of the prediction.
    pub fn within(&self, observed: f64, tolerance: f64) -> bool {
        (observed - self.value).abs() <= tolerance
    }
}

/// Outcome of a sensor-side model check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// The sample conforms to the model; nothing needs to be pushed.
    Conforms,
    /// The model failed; the residual (observed − predicted) must be
    /// pushed to the proxy.
    Deviates {
        /// Observed minus predicted value.
        residual: f64,
    },
}

/// Which model class an instance belongs to (used in reports and for
/// parameter dispatch on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Time-of-day/day-of-week bins.
    Seasonal,
    /// Autoregressive time series.
    Ar,
    /// Seasonal plus AR-of-residuals (the PRESTO default).
    SeasonalAr,
    /// Sliding-window linear trend.
    LinearTrend,
    /// Discretized Markov chain.
    Markov,
}

/// Cost report from training a model at the proxy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// CPU cycles consumed by training (charged to the proxy, but
    /// measured to demonstrate the build/check asymmetry).
    pub train_cycles: u64,
    /// Training-set residual standard deviation (model fit quality).
    pub residual_sigma: f64,
    /// Number of history samples used.
    pub samples: usize,
}

/// A trained model replica: the proxy keeps one for extrapolation, and
/// the sensor runs an identical replica (decoded from pushed parameters)
/// for model-driven push.
pub trait Predictor: Send {
    /// The model class.
    fn kind(&self) -> ModelKind;

    /// Predicts the value at `t` given everything observed so far.
    fn predict(&self, t: SimTime) -> Prediction;

    /// Feeds an observed sample; models with temporal state (AR, Markov)
    /// fold it into their prediction context.
    fn observe(&mut self, t: SimTime, value: f64);

    /// Serializes the parameters the proxy ships to the sensor.
    fn encode_params(&self) -> Vec<u8>;

    /// CPU cycles for one sensor-side check (predict + compare + state
    /// update). Must be O(1)-ish: this is the asymmetry requirement.
    fn check_cycles(&self) -> u64;

    /// Clones the model into a boxed replica (the "ship to sensor" step).
    fn clone_replica(&self) -> Box<dyn Predictor>;

    /// Runs the sensor-side check: observe the sample, compare with the
    /// prediction *before* folding the sample in, and report deviation.
    fn check(&mut self, t: SimTime, value: f64, tolerance: f64) -> Verdict {
        let pred = self.predict(t);
        let verdict = if pred.within(value, tolerance) {
            Verdict::Conforms
        } else {
            Verdict::Deviates {
                residual: value - pred.value,
            }
        };
        self.observe(t, value);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_within() {
        let p = Prediction {
            value: 20.0,
            sigma: 1.0,
        };
        assert!(p.within(20.5, 1.0));
        assert!(p.within(21.0, 1.0));
        assert!(!p.within(21.5, 1.0));
    }
}
