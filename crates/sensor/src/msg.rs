//! Messages between sensor and proxy.
//!
//! The simulator passes decoded content alongside the *wire size* each
//! message would occupy; the MAC charges energy from the wire size while
//! the receiving tier consumes the content directly. Lossy encodings are
//! genuinely applied: a compressed batch carries the values the proxy
//! would reconstruct, not the originals.

use std::sync::Arc;

use presto_archive::Quality;
use presto_models::ModelKind;
use presto_sim::{SimDuration, SimTime};

/// A sample carried in a pull reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplySample {
    /// Timestamp.
    pub t: SimTime,
    /// Value (after any lossy re-encoding).
    pub value: f64,
    /// Exact or aged provenance.
    pub quality: Quality,
}

/// Sensor → proxy message payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum UplinkPayload {
    /// A model failure: the observed value (the proxy knows the model, so
    /// the residual suffices on the wire; we carry the value for clarity).
    Deviation {
        /// Observed value.
        value: f64,
        /// The replica's prediction at check time (0.0 when no model
        /// is installed).
        predicted: f64,
    },
    /// A value-driven push (no model context).
    Value {
        /// Observed value.
        value: f64,
    },
    /// A batch of samples as the proxy will reconstruct them.
    Batch {
        /// Reconstructed samples (post-codec if compression was applied).
        samples: Vec<(SimTime, f64)>,
        /// True if a codec was applied.
        compressed: bool,
    },
    /// A semantic event report. The payload is shared, not copied: the
    /// proxy caches the same allocation the sensor produced instead of
    /// cloning every event blob on arrival.
    Event {
        /// Application event type.
        event_type: u16,
        /// Application payload.
        data: Arc<[u8]>,
    },
    /// Reply to a PAST-query pull. Like [`UplinkPayload::Event`]'s
    /// data, the samples are shared, not copied: the sensor's
    /// duplicate-request window keeps the same allocation it sent.
    PullReply {
        /// Correlates with [`DownlinkMsg::PullRequest`].
        query_id: u64,
        /// Samples as reconstructed at the proxy.
        samples: Arc<[ReplySample]>,
    },
    /// Reply to an aggregate request: a single value computed at the
    /// sensor over its own archive (paper §3: "the operation can be
    /// transmitted as a parameter to the sensor node, which uses the
    /// specified mode function on its local data before transmitting
    /// the final result").
    AggregateReply {
        /// Correlates with [`DownlinkMsg::AggregateRequest`].
        query_id: u64,
        /// The aggregate value (NaN when the range was empty).
        value: f64,
        /// Number of archived samples aggregated.
        count: u32,
        /// Error bound (one sigma) of the aggregate, derived from the
        /// codec/aging error of the archived rows it consumed: exact
        /// rows contribute nothing, wavelet-aged rows contribute their
        /// quantizer-ladder bound. An aggregate over a partly-aged
        /// range is *not* exact and must not claim to be.
        sigma: f64,
    },
    /// A low-rate liveness beacon. Under model-driven push a conforming
    /// sensor is silent, so silence alone cannot distinguish "all
    /// predictions hold" from "node is dead"; a tiny heartbeat renews
    /// the proxy's lease and carries the archive high-water mark so the
    /// proxy knows exactly what span a recovery pull could replay.
    Heartbeat {
        /// Latest instant the local archive covers.
        archived_through: SimTime,
    },
    /// A segment-seal notification: the local archive sealed a block
    /// covering `[start, end]`. On delivery the system registers the
    /// span in its time-range index under the serving proxy. It is the
    /// index's only feed: a lost notification stays unregistered.
    SegmentSeal {
        /// Covered start of the sealed segment.
        start: SimTime,
        /// Covered end of the sealed segment.
        end: SimTime,
    },
}

/// Aggregate operators a sensor can evaluate over its local archive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregateOp {
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Sample count.
    Count,
    /// Modal value after binning at the given width (the paper's
    /// building-health "mode of vibration" example).
    Mode {
        /// Histogram bin width.
        bin_width: f64,
    },
}

/// A sensor → proxy message with its wire accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct UplinkMsg {
    /// Sending sensor id.
    pub sensor: u16,
    /// Send time.
    pub sent_at: SimTime,
    /// Payload bytes on the wire (pre-fragmentation).
    pub wire_bytes: usize,
    /// Decoded content.
    pub payload: UplinkPayload,
}

/// Proxy → sensor messages.
#[derive(Clone, Debug)]
pub enum DownlinkMsg {
    /// Replace the sensor's model replica.
    ModelUpdate {
        /// Model class of the parameters.
        kind: ModelKind,
        /// Encoded parameters.
        params: Vec<u8>,
    },
    /// Retune operational parameters (query–sensor matching output).
    Retune {
        /// New push policy parameters, if changing.
        push_tolerance: Option<f64>,
        /// New batching interval, if changing.
        batching_interval: Option<SimDuration>,
        /// New LPL check interval, if changing.
        lpl_check_interval: Option<SimDuration>,
    },
    /// Request archived data for a PAST query.
    PullRequest {
        /// Query correlation id.
        query_id: u64,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// Query tolerance (drives lossy reply encoding).
        tolerance: f64,
    },
    /// Ask the sensor to evaluate an aggregate over its archive and
    /// reply with just the result — the cheapest possible PAST answer.
    AggregateRequest {
        /// Query correlation id.
        query_id: u64,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// The operator.
        op: AggregateOp,
    },
}

impl DownlinkMsg {
    /// Wire size of the downlink message.
    pub fn wire_bytes(&self) -> usize {
        match self {
            DownlinkMsg::ModelUpdate { params, .. } => 3 + params.len(),
            DownlinkMsg::Retune { .. } => 2 + 4 + 8 + 8,
            DownlinkMsg::PullRequest { .. } => 2 + 8 + 8 + 8 + 4,
            DownlinkMsg::AggregateRequest { .. } => 2 + 8 + 8 + 8 + 5,
        }
    }
}

/// Wire sizes of uplink payload variants.
pub mod wire {
    /// Sensor id + timestamp + kind byte.
    pub const UPLINK_HEADER: usize = 2 + 8 + 1;
    /// A deviation push: header + f32 value.
    pub const DEVIATION: usize = UPLINK_HEADER + 4;
    /// A value push: header + f32 value.
    pub const VALUE: usize = UPLINK_HEADER + 4;
    /// Event: header + type + payload.
    pub fn event(data_len: usize) -> usize {
        UPLINK_HEADER + 2 + data_len
    }
    /// Raw batch: header + count + first timestamp + epoch + f32 each.
    pub fn raw_batch(samples: usize) -> usize {
        UPLINK_HEADER + 2 + 8 + 4 + samples * 4
    }
    /// Compressed batch: header + count + first timestamp + epoch + codec
    /// payload.
    pub fn compressed_batch(codec_bytes: usize) -> usize {
        UPLINK_HEADER + 2 + 8 + 4 + codec_bytes
    }
    /// Pull reply: header + query id + count + per-sample (dt:u32 + f32).
    pub fn pull_reply_raw(samples: usize) -> usize {
        UPLINK_HEADER + 8 + 2 + samples * 8
    }
    /// Pull reply with codec payload.
    pub fn pull_reply_compressed(codec_bytes: usize, samples: usize) -> usize {
        // Timestamps still ride as (first, epoch) + codec payload.
        let _ = samples;
        UPLINK_HEADER + 8 + 2 + 8 + 4 + codec_bytes
    }
    /// Aggregate reply: header + query id + f32 value + u32 count +
    /// f32 error bound.
    pub const AGGREGATE_REPLY: usize = UPLINK_HEADER + 8 + 4 + 4 + 4;
    /// Heartbeat: header + archive high-water timestamp.
    pub const HEARTBEAT: usize = UPLINK_HEADER + 8;
    /// Segment-seal notification: header + two timestamps.
    pub const SEGMENT_SEAL: usize = UPLINK_HEADER + 8 + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_ordered_sensibly() {
        assert!(wire::DEVIATION < wire::raw_batch(2));
        assert!(wire::raw_batch(10) < wire::raw_batch(100));
        assert!(wire::event(0) < wire::event(32));
        // A compressed batch that codes 100 samples into 60 bytes beats
        // the raw encoding.
        assert!(wire::compressed_batch(60) < wire::raw_batch(100));
    }

    #[test]
    fn downlink_sizes() {
        let m = DownlinkMsg::ModelUpdate {
            kind: ModelKind::Seasonal,
            params: vec![0; 194],
        };
        assert_eq!(m.wire_bytes(), 197);
        let p = DownlinkMsg::PullRequest {
            query_id: 1,
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            tolerance: 0.5,
        };
        assert!(p.wire_bytes() < 40);
    }
}
