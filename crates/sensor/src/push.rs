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
    /// Push nothing (direct-query baseline: the proxy always pulls).
    Silent,
}
