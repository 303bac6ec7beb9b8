//! The proxy-resident asynchronous query pipeline.
//!
//! [`crate::PrestoProxy::answer`] drives a miss's whole attempt/timeout
//! schedule inside one blocking call, so a caller using it serves one
//! precision miss at a time. The pipeline runs the same answer path —
//! the same fast paths, request builder and reply mapping — over a
//! queued transport, the tethered tier the paper says "absorbs queries"
//! for many users:
//!
//! * a query that misses the cache/model precision check is enqueued
//!   with its ticket, deadline and parts instead of spinning. A part is
//!   one unit of radio work, keyed by the `PullKey` of the window it
//!   pulls: a sliced PAST query has one per slice, and every other miss
//!   one for its whole pull window, stored inline. Parts with equal
//!   keys share one RPC, and a query completes at the fill that serves
//!   its last part;
//! * each epoch tick [`crate::PrestoProxy::pump_queries_view`] issues or
//!   retransmits downlink pulls for *all* outstanding parts through
//!   the per-sensor `DownlinkChannel`s — bounded by a per-epoch attempt
//!   budget that is spread round-robin across sensors for fairness —
//!   and matches arriving `PullReply`/`AggregateReply` messages back to
//!   the parts waiting on them;
//! * in front of the queue sits the **reply cache** ([`ReplyCache`]),
//!   one LRU of pulled archive ranges keyed by (sensor, window,
//!   tolerance): a PAST query's whole window and a slice's aligned
//!   window alike. Later PAST queries over an already-pulled window are
//!   served without touching the radio at all. Only a reply served once
//!   its window was fully archived is cached, so a cached reply never
//!   serves data it does not have. NOW replies stay out: a NOW pull's
//!   window ends at its own submission instant, which no later query
//!   asks for.
//!
//! One proxy therefore overlaps many in-flight pulls across epochs, and
//! downlink loss shows up as latency percentiles instead of serialized
//! stalls. Every query terminates: by its deadline it has either
//! completed with a real answer or failed honestly (`Failed`, sigma ∞).

use presto_sensor::AggregateOp;
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::QueryTracer;

use crate::proxy::{Answer, PastAnswer};
use crate::slice::{ReplyCache, SliceSpec, WindowKey};

/// Default query deadline: how long a query may stay pending before it
/// fails honestly, in the pipeline and at the fleet router alike. A
/// per-query deadline (from query–sensor matching's latency classes,
/// via [`crate::PrestoProxy::submit_query_with_deadline`]) overrides it
/// for that query.
pub const DEFAULT_DEADLINE: SimDuration = SimDuration::from_mins(10);

/// Pipeline parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Downlink transmission attempts (first tries plus retransmissions)
    /// the pump may issue per epoch, shared across all of the proxy's
    /// sensors. The round-robin pump start rotates each epoch so no
    /// sensor monopolizes the budget.
    pub epoch_attempt_budget: u32,
    /// Record a per-query trace span for every ticket (submit → fast
    /// path or RPC attempt log → terminal verdict). Off by default: the
    /// tracer then never allocates and the pump skips the attempt-log
    /// plumbing entirely.
    pub trace: bool,
    /// Sliced archive-range execution (see [`crate::slice`]): PAST
    /// windows spanning enough fixed time-aligned slices are fetched
    /// slice-by-slice and cached at slice granularity in the
    /// [`ReplyCache`]. Off (the default), every PAST window is one pull.
    pub slice: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epoch_attempt_budget: 16,
            trace: false,
            slice: false,
        }
    }
}

/// A query submitted to the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PipelineQuery {
    /// Current value of one sensor.
    Now {
        /// Sensor id.
        sensor: u16,
        /// Acceptable absolute error.
        tolerance: f64,
    },
    /// Historical series of one sensor.
    Past {
        /// Sensor id.
        sensor: u16,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// Acceptable absolute error.
        tolerance: f64,
    },
    /// An aggregate over one sensor's archive.
    Aggregate {
        /// Sensor id.
        sensor: u16,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// The operator.
        op: AggregateOp,
    },
}

impl PipelineQuery {
    /// The queried sensor.
    pub fn sensor(&self) -> u16 {
        match self {
            PipelineQuery::Now { sensor, .. }
            | PipelineQuery::Past { sensor, .. }
            | PipelineQuery::Aggregate { sensor, .. } => *sensor,
        }
    }
}

/// A completed query's answer: scalar (NOW, aggregate) or series (PAST).
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineAnswer {
    /// NOW and aggregate answers.
    Scalar(Answer),
    /// PAST answers.
    Series(PastAnswer),
}

impl PipelineAnswer {
    /// The answer's provenance.
    pub fn source(&self) -> crate::AnswerSource {
        match self {
            PipelineAnswer::Scalar(a) => a.source,
            PipelineAnswer::Series(a) => a.source,
        }
    }

    /// The answer's end-to-end latency.
    pub fn latency(&self) -> SimDuration {
        match self {
            PipelineAnswer::Scalar(a) => a.latency,
            PipelineAnswer::Series(a) => a.latency,
        }
    }

    /// The freshest underlying data instant this answer reflects, or
    /// `None` when it reflects nothing (failed answers, empty ranges).
    /// A series' provenance is its newest sample.
    pub fn data_through(&self) -> Option<SimTime> {
        match self {
            PipelineAnswer::Scalar(a) => a.data_through,
            PipelineAnswer::Series(a) => {
                if a.source == crate::AnswerSource::Failed {
                    None
                } else {
                    a.samples.last().map(|s| s.0)
                }
            }
        }
    }

    /// How stale the answer is at serve time `t`: the gap between `t`
    /// and the data instant the answer reflects. `None` when the answer
    /// carries no data to be stale about.
    pub fn age_at(&self, t: SimTime) -> Option<SimDuration> {
        self.data_through().map(|dt| {
            if t >= dt {
                t - dt
            } else {
                SimDuration::ZERO
            }
        })
    }
}

/// A query the pipeline has finished, successfully or honestly not.
#[derive(Clone, Debug)]
pub struct CompletedQuery {
    /// The ticket returned by `submit_query`.
    pub id: u64,
    /// The query as submitted.
    pub query: PipelineQuery,
    /// The answer.
    pub answer: PipelineAnswer,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time (equal to `submitted_at` for fast-path answers).
    pub completed_at: SimTime,
}

/// Identity of the radio work a pending query needs: queries with equal
/// keys coalesce into one RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum PullKey {
    /// An archive pull.
    Pull(WindowKey),
    /// A sensor-evaluated aggregate.
    Aggregate {
        sensor: u16,
        from: SimTime,
        to: SimTime,
        op: (u8, u64),
    },
}

/// Hashable encoding of an [`AggregateOp`].
pub(crate) fn op_key(op: AggregateOp) -> (u8, u64) {
    match op {
        AggregateOp::Mean => (0, 0),
        AggregateOp::Max => (1, 0),
        AggregateOp::Min => (2, 0),
        AggregateOp::Count => (3, 0),
        AggregateOp::Mode { bin_width } => (4, bin_width.to_bits()),
    }
}

/// The operator an [`op_key`] encodes.
pub(crate) fn key_op((tag, bits): (u8, u64)) -> AggregateOp {
    match tag {
        0 => AggregateOp::Mean,
        1 => AggregateOp::Max,
        2 => AggregateOp::Min,
        3 => AggregateOp::Count,
        _ => AggregateOp::Mode {
            bin_width: f64::from_bits(bits),
        },
    }
}

/// One unit of radio work a pending query needs: the RPC its key
/// names, and the fill that RPC's reply (or the reply cache) brings.
/// Parts with equal keys share one RPC and one reply, whichever query
/// or shape they belong to.
#[derive(Clone, Debug)]
pub(crate) struct Part {
    /// The radio work: the whole pull window of a query, or one slice's
    /// aligned window.
    pub key: PullKey,
    /// The slice this part fetches, for a part of a sliced PAST query.
    pub slice: Option<SliceSpec>,
    /// The in-flight RPC serving this part, once issued.
    pub rpc_qid: Option<u64>,
    /// Set by the fill that serves this part. A whole-window part is
    /// its query's only part, so a reply's fill completes the query at
    /// once and the reply becomes the answer; any other fill keeps its
    /// samples.
    pub served: bool,
    /// A served part's samples; a slice's are trimmed to its window.
    pub samples: Vec<(SimTime, f64)>,
    /// A served part's re-bounded sigma ([`crate::slice::slice_sigma`]).
    pub sigma: f64,
}

impl Part {
    /// A part pulling the whole window `key` names.
    pub fn whole(key: PullKey) -> Part {
        Part {
            key,
            slice: None,
            rpc_qid: None,
            served: false,
            samples: Vec::new(),
            sigma: 0.0,
        }
    }

    /// A part pulling one canonical slice at the slice's tolerance.
    pub fn of_slice(spec: SliceSpec) -> Part {
        Part {
            slice: Some(spec),
            ..Part::whole(PullKey::Pull(spec.key))
        }
    }

    /// Serves this part with a reply's or a cached reply's samples. A
    /// slice keeps only the samples inside its window: the
    /// freshest-sample fallback a sensor sends for an empty window lies
    /// outside the span and must not masquerade as content.
    pub fn fill(&mut self, samples: &[(SimTime, f64)], sigma: f64) {
        self.served = true;
        self.samples = match self.slice {
            Some(SliceSpec { key, .. }) => samples
                .iter()
                .filter(|&&(t, _)| t >= key.from && t <= key.to)
                .copied()
                .collect(),
            None => samples.to_vec(),
        };
        self.sigma = sigma;
    }

    /// Serves this part from `cache` when it holds the part's window.
    pub fn fill_from(&mut self, cache: &mut ReplyCache) -> bool {
        let PullKey::Pull(window) = self.key else {
            return false;
        };
        let Some((samples, sigma)) = cache.lookup(window) else {
            return false;
        };
        self.fill(samples, sigma);
        true
    }
}

/// A pending query's parts. Every miss but a sliced PAST query has one
/// part, its whole pull window, stored inline so that it allocates
/// nothing; a sliced query has one part per slice.
#[derive(Clone, Debug)]
pub(crate) enum Parts {
    /// One part, inline.
    One(Part),
    /// One part per slice, oldest first.
    Many(Vec<Part>),
}

impl std::ops::Deref for Parts {
    type Target = [Part];

    fn deref(&self) -> &[Part] {
        match self {
            Parts::One(p) => std::slice::from_ref(p),
            Parts::Many(v) => v,
        }
    }
}

impl std::ops::DerefMut for Parts {
    fn deref_mut(&mut self) -> &mut [Part] {
        match self {
            Parts::One(p) => std::slice::from_mut(p),
            Parts::Many(v) => v,
        }
    }
}

/// One enqueued query awaiting radio work.
#[derive(Clone, Debug)]
pub(crate) struct PendingQuery {
    /// Ticket id.
    pub id: u64,
    /// The query as submitted.
    pub query: PipelineQuery,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Honest-failure deadline.
    pub deadline: SimTime,
    /// The radio work it needs; it completes at the fill that serves
    /// the last of them.
    pub parts: Parts,
    /// Air latency of the most recent reply that filled one of this
    /// query's parts: the answer's latency reflects the reply that
    /// completed it.
    pub last_reply_latency: SimDuration,
}

impl PendingQuery {
    /// True when one of this query's parts waits on RPC `qid`.
    pub fn waits_on(&self, qid: u64) -> bool {
        self.parts.iter().any(|p| p.rpc_qid == Some(qid))
    }
}

/// Pipeline counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Queries submitted.
    pub submitted: u64,
    /// Completed immediately from cache/model/spatial fast paths.
    pub completed_fast: u64,
    /// Completed from a matched RPC reply.
    pub completed_pull: u64,
    /// Completed from the reply cache at submit (no radio work).
    pub completed_cached: u64,
    /// Honest failures (deadline reached, or unregistered sensor).
    pub failed: u64,
    /// Queries attached to an RPC another query already had in flight.
    pub coalesced: u64,
    /// RPCs issued into the downlink channels.
    pub rpcs_issued: u64,
    /// PAST queries that took the sliced path.
    pub sliced: u64,
    /// Sliced queries completed by assembly (radio or mixed cache/radio).
    pub completed_sliced: u64,
    /// Per-slice sub-RPCs issued (a subset of `rpcs_issued`).
    pub slice_rpcs: u64,
    /// Slice parts attached to a sub-RPC another query already had in
    /// flight.
    pub slice_coalesced: u64,
    /// Peak simultaneously outstanding pulls across the proxy's sensors.
    pub max_in_flight: u64,
}

presto_telemetry::observe_counters!(PipelineStats {
    submitted,
    completed_fast,
    completed_pull,
    completed_cached,
    failed,
    coalesced,
    rpcs_issued,
    sliced,
    completed_sliced,
    slice_rpcs,
    slice_coalesced,
} max { max_in_flight });

/// Reply cache capacity, in pulled windows.
const REPLY_CACHE_CAPACITY: usize = 128;

/// The pipeline state a proxy carries.
pub struct QueryPipeline {
    pub(crate) config: PipelineConfig,
    pub(crate) pending: Vec<PendingQuery>,
    pub(crate) completed: Vec<CompletedQuery>,
    pub(crate) reply_cache: ReplyCache,
    pub(crate) stats: PipelineStats,
    pub(crate) next_ticket: u64,
    /// Rotating pump start index for cross-sensor fairness.
    pub(crate) rr_cursor: usize,
    /// Attempts the most recent pump transmitted (pressure probe: a
    /// pump that used its whole per-epoch budget is saturated).
    pub(crate) last_pump_attempts: u32,
    /// Per-ticket trace spans (no-op unless [`PipelineConfig::trace`]).
    pub(crate) tracer: QueryTracer,
}

impl QueryPipeline {
    /// Creates an empty pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        let tracer = QueryTracer::new(config.trace);
        QueryPipeline {
            config,
            pending: Vec::new(),
            completed: Vec::new(),
            reply_cache: ReplyCache::new(REPLY_CACHE_CAPACITY),
            stats: PipelineStats::default(),
            next_ticket: 1,
            rr_cursor: 0,
            last_pump_attempts: 0,
            tracer,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Downlink transmission attempts the most recent
    /// [`crate::PrestoProxy::pump_queries_view`] pass spent. Equal to the
    /// per-epoch attempt budget when the pump is saturated — the
    /// admission-control pressure probe the fleet router reads.
    pub fn last_pump_attempts(&self) -> u32 {
        self.last_pump_attempts
    }

    /// Counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// The reply cache.
    pub fn reply_cache(&self) -> &ReplyCache {
        &self.reply_cache
    }

    /// Queries currently pending (enqueued, not yet completed).
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    /// Drains every completed query recorded since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedQuery> {
        std::mem::take(&mut self.completed)
    }

    /// The per-ticket trace collector.
    pub fn tracer(&self) -> &QueryTracer {
        &self.tracer
    }

    /// Mutable access to the trace collector (draining finished traces).
    pub fn tracer_mut(&mut self) -> &mut QueryTracer {
        &mut self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(from: SimTime, to: SimTime) -> WindowKey {
        WindowKey {
            sensor: 1,
            from,
            to,
            tol_bits: 0.5f64.to_bits(),
        }
    }

    fn secs(from_s: u64, to_s: u64) -> WindowKey {
        window(SimTime::from_secs(from_s), SimTime::from_secs(to_s))
    }

    #[test]
    fn reply_cache_serves_exact_key() {
        let mut c = ReplyCache::new(4);
        let t = SimTime::from_secs(100);
        c.insert(secs(0, 100), t, t, 0.25, vec![(SimTime::from_secs(50), 1.0)]);
        assert!(c.lookup(secs(0, 100)).is_some());
        assert!(c.lookup(secs(0, 101)).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reply_cache_freshness_rejects_stale_coverage() {
        // A reply served at t=100 for a window ending at t=200 (the
        // window's end was still in the future at serve time) must not
        // answer a later query demanding coverage through t=200, so it
        // is never cached.
        let mut c = ReplyCache::new(4);
        let key = secs(0, 200);
        c.insert(key, key.to, SimTime::from_secs(100), 0.25, vec![(SimTime::from_secs(90), 1.0)]);
        assert_eq!(c.stats().incomplete_skips, 1);
        assert_eq!(c.stats().inserts, 0);
        assert!(c.lookup(key).is_none(), "stale reply served past its coverage");
    }

    #[test]
    fn reply_cache_serves_at_exact_freshness_boundary() {
        // The freshness boundary is closed: a reply served exactly at
        // the closed window's end covers every row through that instant
        // and is cached. A window one tick past the serve instant is
        // uncovered and is not.
        let mut c = ReplyCache::new(4);
        let served = SimTime::from_secs(200);
        let key = secs(0, 200);
        c.insert(key, key.to, served, 0.25, vec![(SimTime::from_secs(150), 1.0)]);
        assert_eq!(c.stats().incomplete_skips, 0);
        assert!(
            c.lookup(key).is_some(),
            "served_at == window end is full coverage and must hit"
        );
        let longer = window(SimTime::ZERO, served + SimDuration::from_micros(1));
        c.insert(longer, longer.to, served, 0.25, vec![(SimTime::from_secs(150), 1.0)]);
        assert_eq!(c.stats().incomplete_skips, 1);
        assert!(c.lookup(longer).is_none(), "one tick past the serve instant is uncovered");
    }

    #[test]
    fn reply_cache_repull_replaces_entry() {
        // A whole window re-pulled after a later serving replaces the
        // older entry: in a one-reply cache the re-insert evicts
        // nothing, and the lookup returns the newer samples.
        let mut c = ReplyCache::new(1);
        let key = secs(0, 100);
        c.insert(key, key.to, SimTime::from_secs(100), 0.25, vec![(SimTime::from_secs(10), 1.0)]);
        c.insert(key, key.to, SimTime::from_secs(300), 0.25, vec![(SimTime::from_secs(10), 2.0)]);
        assert_eq!(c.stats().inserts, 2);
        assert_eq!(c.stats().evictions, 0);
        let (s, _) = c.lookup(key).expect("fresh entry");
        assert_eq!(s[0].1, 2.0, "newest serving wins");
    }
}
