//! Push policies: what a sensor transmits, and when.
//!
//! Figure 2 compares value-driven push against batched push (with and
//! without wavelet denoising); the PRESTO architecture itself uses
//! model-driven push. All of them are expressible as a [`PushPolicy`],
//! so the same [`crate::node::SensorNode`] runs every experimental arm.

use presto_sim::SimDuration;
use presto_wavelet::CodecParams;

/// What a sensor transmits, and when.
#[derive(Clone, Debug)]
pub enum PushPolicy {
    /// PRESTO model-driven push: check each sample against the model
    /// replica; push the deviation immediately when the model fails.
    ModelDriven {
        /// Model-failure threshold (absolute error).
        tolerance: f64,
    },
    /// Value-driven push: push the sample when it differs from the last
    /// *pushed* value by more than `delta` (Figure 2's baseline).
    ValueDriven {
        /// Push threshold.
        delta: f64,
    },
    /// Batched push: transmit every sample, accumulated over
    /// `interval`, optionally compressed (Figure 2's other two arms).
    Batched {
        /// Batching interval.
        interval: SimDuration,
        /// Optional wavelet codec configuration.
        compression: Option<CodecParams>,
    },
    /// Model-driven push with batching of small deviations: deviations
    /// beyond `hard_tolerance` push immediately; others wait for the
    /// batch flush. An extension arm used in E6.
    ModelDrivenBatched {
        /// Batch-eligible deviation threshold.
        tolerance: f64,
        /// Immediate-push threshold (rare events).
        hard_tolerance: f64,
        /// Batching interval.
        interval: SimDuration,
    },
    /// Push nothing (direct-query baseline: the proxy always pulls).
    Silent,
}

impl PushPolicy {
    /// Stable label for experiment reports.
    pub fn label(&self) -> String {
        match self {
            PushPolicy::ModelDriven { tolerance } => format!("model-driven(tol={tolerance})"),
            PushPolicy::ValueDriven { delta } => format!("value-driven(delta={delta})"),
            PushPolicy::Batched {
                interval,
                compression,
            } => format!(
                "batched({:.1}min,{})",
                interval.as_mins_f64(),
                if compression.is_some() {
                    "wavelet"
                } else {
                    "raw"
                }
            ),
            PushPolicy::ModelDrivenBatched { interval, .. } => {
                format!("model-driven-batched({:.1}min)", interval.as_mins_f64())
            }
            PushPolicy::Silent => "silent".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_arms() {
        let a = PushPolicy::Batched {
            interval: SimDuration::from_mins_f64(16.5),
            compression: None,
        }
        .label();
        let b = PushPolicy::Batched {
            interval: SimDuration::from_mins_f64(16.5),
            compression: Some(presto_wavelet::CodecParams::denoising()),
        }
        .label();
        assert_ne!(a, b);
        assert!(a.contains("raw") && b.contains("wavelet"));
    }
}
