//! Reliability under loss: the message fabric, failure detection, and
//! archive-backed recovery.
//!
//! ## The silence-ambiguity problem
//!
//! PRESTO's central energy trick is that a sensor carrying a model
//! replica stays *silent* while its readings conform to the shared
//! model: the proxy extrapolates, and silence provably means "within
//! tolerance". But that proof assumes the channel works. On a real
//! low-power radio network, silence is ambiguous three ways:
//!
//! 1. the sensor is conforming (the good case the paper optimizes for);
//! 2. the sensor is partitioned — it *is* pushing deviations and they
//!    are being lost, so the proxy's replica quietly diverges;
//! 3. the sensor is dead — nothing is being sampled at all.
//!
//! A proxy that cannot tell these apart will keep answering queries
//! from an extrapolation whose guarantee no longer holds, with full
//! confidence. This crate resolves the ambiguity with three cooperating
//! mechanisms, mirroring the paper's proxy-side liveness tracking plus
//! its use of the complete local archive as the recovery substrate:
//!
//! * [`fabric`] — every asynchronous sensor→proxy message rides a lossy,
//!   delayed channel (driven by `presto-net`'s [`presto_net::LossProcess`]
//!   and the sim clock) with sequence numbers, delayed delivery,
//!   ack/retransmit, and an energy-charged retry budget. Losses become
//!   *visible* as sequence gaps instead of silent divergence.
//! * [`liveness`] — low-rate heartbeat leases let the proxy grade each
//!   sensor [`Health::Live`] / [`Health::Suspect`] / [`Health::Dead`];
//!   query confidence bounds widen accordingly, so degraded answers are
//!   honestly labelled rather than silently wrong.
//! * [`recovery`] — sequence gaps and reconnects after an outage mark a
//!   missed span; the proxy then replays that span from the sensor's
//!   flash archive (the paper's "complete local archive", served by the
//!   indexed query path) and repairs its cache, turning the archive into
//!   the system's write-ahead log.
//!
//! The split of roles matters: retransmission covers *short* loss
//! bursts cheaply; anything longer falls through to archive replay,
//! which is exactly what the paper's always-archive design makes
//! possible.

pub mod downlink;
pub mod fabric;
pub mod liveness;
pub mod recovery;

pub use downlink::{
    AsyncRpcEvent, AttemptEvent, DownlinkChannel, DownlinkConfig, DownlinkStats, RpcOutcome,
    DOWNLINK_SEED, RETRY_BUDGET_J,
};
pub use fabric::{Fabric, FabricConfig, FabricStats, SequencedUplink};
pub use liveness::{Health, LivenessConfig, LivenessMonitor, LivenessStats};
pub use recovery::{GapTracker, Observation, PendingRecovery, RecoveryStats};

use presto_sim::SimDuration;

/// Fixed propagation + queueing delay of one delivered message, on the
/// fabric and the downlink alike.
const BASE_DELAY: SimDuration = SimDuration::from_millis(20);

/// One-way delay of a delivered message of `wire_bytes`: [`BASE_DELAY`]
/// plus 400 µs of serialization per wire byte.
fn channel_delay(wire_bytes: usize) -> SimDuration {
    BASE_DELAY + SimDuration::from_micros(400) * wire_bytes as u64
}

/// Everything the system driver needs to run reliably under loss.
#[derive(Clone, Debug)]
pub struct ReliabilityConfig {
    /// Message fabric parameters (channel loss, delays, retransmit).
    pub fabric: FabricConfig,
    /// Downlink channel parameters (proxy→sensor requests, replies).
    pub downlink: DownlinkConfig,
    /// Shared-fading chain near each proxy. When set, every channel of a
    /// proxy's sensors — fabric uplinks, their ack paths, and the
    /// downlink request/reply paths — samples one common
    /// [`presto_net::SharedLossState`] per proxy instead of its
    /// configured loss process, so bursts hit all of them together.
    pub shared_fading: Option<presto_net::GilbertElliott>,
    /// Liveness lease parameters.
    pub liveness: LivenessConfig,
    /// Heartbeat interval for silent sensors. Must be shorter than the
    /// liveness lease or healthy-but-quiet sensors will flap Suspect.
    pub heartbeat_every: SimDuration,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            fabric: FabricConfig::default(),
            downlink: DownlinkConfig::default(),
            shared_fading: None,
            liveness: LivenessConfig::default(),
            // Low-rate on purpose: ~19 B every 10 min is ~2.7 kB/day,
            // noise next to the model-driven push budget. Experiments
            // that need fast detection tighten this with the lease.
            heartbeat_every: SimDuration::from_mins(10),
        }
    }
}
