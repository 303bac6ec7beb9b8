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
//!   with its ticket, window, deadline and retry state instead of
//!   spinning;
//! * each epoch tick [`crate::PrestoProxy::pump_queries_view`] issues or
//!   retransmits downlink pulls for *all* outstanding queries through
//!   the per-sensor `DownlinkChannel`s — bounded by a per-epoch attempt
//!   budget that is spread round-robin across sensors for fairness —
//!   and matches arriving `PullReply`/`AggregateReply` messages back to
//!   pending queries;
//! * in front of the queue sits a **shared pull-reply cache** keyed by
//!   (sensor, window, tolerance): concurrent queries over the same span
//!   coalesce into one radio pull, and later queries over an
//!   already-pulled span are served without touching the radio at all —
//!   guarded by an explicit freshness check so a cached reply never
//!   serves a query whose window extends past the reply's coverage.
//!
//! One proxy therefore overlaps many in-flight pulls across epochs, and
//! downlink loss shows up as latency percentiles instead of serialized
//! stalls. Every query terminates: by its deadline it has either
//! completed with a real answer or failed honestly (`Failed`, sigma ∞).

use std::collections::VecDeque;

use presto_sensor::AggregateOp;
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::QueryTracer;

use crate::proxy::{Answer, PastAnswer};
use crate::slice::{SliceConfig, SliceSpec, TieredSliceCache};

/// Pipeline parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Default deadline: how long a query may stay pending before it
    /// fails honestly. A per-query deadline (from query–sensor
    /// matching's latency classes, via
    /// [`crate::PrestoProxy::submit_query_with_deadline`]) overrides
    /// this for that query.
    pub deadline: SimDuration,
    /// Downlink transmission attempts (first tries plus retransmissions)
    /// the pump may issue per epoch, shared across all of the proxy's
    /// sensors. The round-robin pump start rotates each epoch so no
    /// sensor monopolizes the budget.
    pub epoch_attempt_budget: u32,
    /// Shared pull-reply cache capacity, in replies (oldest evict first).
    pub reply_cache_capacity: usize,
    /// Record a per-query trace span for every ticket (submit → fast
    /// path or RPC attempt log → terminal verdict). Off by default: the
    /// tracer then never allocates and the pump skips the attempt-log
    /// plumbing entirely.
    pub trace: bool,
    /// Bound on finished traces awaiting collection; evictions beyond
    /// it are counted (`finished_dropped`), never silent.
    pub trace_finished_cap: usize,
    /// Bound on the anomalous-outcome flight recorder; evictions are
    /// counted (`recorder_dropped`).
    pub trace_recorder_cap: usize,
    /// Sliced archive-range execution (see [`crate::slice`]): PAST
    /// windows spanning enough fixed time-aligned slices are fetched
    /// slice-by-slice and cached at slice granularity in a two-tier
    /// store. `None` (the default) keeps the monolithic pull path
    /// byte-identical to the pre-slice behavior.
    pub slice: Option<SliceConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            deadline: SimDuration::from_mins(10),
            epoch_attempt_budget: 16,
            reply_cache_capacity: 128,
            trace: false,
            trace_finished_cap: presto_telemetry::trace::FINISHED_CAP,
            trace_recorder_cap: presto_telemetry::trace::RECORDER_CAP,
            slice: None,
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
/// keys coalesce into one RPC and are served from one cached reply.
/// Exact equality (window *and* tolerance/operator) is deliberate:
/// serving a sub-window slice of a differently-encoded reply would
/// break value-identity with the synchronous reference path, because
/// the reply codec is applied per reply, not per sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum PullKey {
    /// An archive pull.
    Pull {
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tol_bits: u64,
    },
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

/// One slice of a sliced PAST query's window: the canonical slice spec,
/// the pull key its sub-RPC coalesces under, and its fill state.
#[derive(Clone, Debug)]
pub(crate) struct SlicePart {
    /// Canonical slice identity and pull window.
    pub spec: SliceSpec,
    /// The radio work this slice needs (a [`PullKey::Pull`] over the
    /// slice's aligned window) — slices shared across queries coalesce
    /// into one sub-RPC exactly like monolithic pulls do.
    pub key: PullKey,
    /// Samples once the slice is served (from cache or radio), trimmed
    /// to the slice span.
    pub samples: Option<Vec<(SimTime, f64)>>,
    /// Re-bounded per-slice sigma ([`crate::slice::slice_sigma`]).
    pub sigma: f64,
    /// The in-flight sub-RPC fetching this slice, once issued.
    pub rpc_qid: Option<u64>,
}

/// One enqueued query awaiting radio work.
#[derive(Clone, Debug)]
pub(crate) struct PendingQuery {
    /// Ticket id.
    pub id: u64,
    /// The query as submitted.
    pub query: PipelineQuery,
    /// The radio work it needs.
    pub key: PullKey,
    /// Reply tolerance derived from the query (slice sub-RPCs pull at
    /// it).
    pub pull_tolerance: f64,
    /// Submission time. The pull request is rebuilt from the query and
    /// this instant when the RPC is issued.
    pub submitted_at: SimTime,
    /// Honest-failure deadline.
    pub deadline: SimTime,
    /// The in-flight RPC serving this query, once issued. Several
    /// pending queries may share one (coalescing). Unused for sliced
    /// queries, whose radio state lives per-part.
    pub rpc_qid: Option<u64>,
    /// Sliced execution state: empty for monolithic queries; for a
    /// sliced PAST query, one entry per slice of its window.
    pub parts: Vec<SlicePart>,
    /// Air latency of the most recent reply that filled one of this
    /// query's parts — the assembled answer's latency reflects the
    /// slice that completed it.
    pub last_reply_latency: SimDuration,
}

impl PendingQuery {
    /// True when this query runs the sliced path.
    pub fn is_sliced(&self) -> bool {
        !self.parts.is_empty()
    }

    /// True when every slice of a sliced query has been served.
    pub fn parts_complete(&self) -> bool {
        self.is_sliced() && self.parts.iter().all(|p| p.samples.is_some())
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
    /// Completed from the shared pull-reply cache (no radio work).
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

impl PipelineStats {
    /// Folds another pipeline's counters into this one (additive except
    /// the peak, which takes the max) — the aggregation a multi-proxy
    /// snapshot needs.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.submitted += other.submitted;
        self.completed_fast += other.completed_fast;
        self.completed_pull += other.completed_pull;
        self.completed_cached += other.completed_cached;
        self.failed += other.failed;
        self.coalesced += other.coalesced;
        self.rpcs_issued += other.rpcs_issued;
        self.sliced += other.sliced;
        self.completed_sliced += other.completed_sliced;
        self.slice_rpcs += other.slice_rpcs;
        self.slice_coalesced += other.slice_coalesced;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
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

/// A reply kept in the shared pull-reply cache.
#[derive(Clone, Debug)]
struct CachedReply {
    key: PullKey,
    /// When the sensor served the reply: the archive span the samples
    /// cover ends here, whatever the window asked for.
    served_at: SimTime,
    samples: Vec<(SimTime, f64)>,
}

/// Shared pull-reply cache: one entry per (sensor, window, tolerance),
/// bounded FIFO. Repeat queries over a span any user already pulled are
/// served from proxy memory instead of the radio.
#[derive(Debug, Default)]
pub struct PullReplyCache {
    entries: VecDeque<CachedReply>,
    capacity: usize,
    hits: u64,
    misses: u64,
    stale_rejections: u64,
}

impl PullReplyCache {
    /// Creates a cache bounded to `capacity` replies.
    pub fn new(capacity: usize) -> Self {
        PullReplyCache {
            entries: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
            stale_rejections: 0,
        }
    }

    /// Inserts a served reply, evicting the oldest beyond capacity. A
    /// re-pull of the same key replaces the older entry (the newer
    /// serving covers at least as much of the window).
    pub(crate) fn insert(&mut self, key: PullKey, served_at: SimTime, samples: Vec<(SimTime, f64)>) {
        if self.capacity == 0 {
            return;
        }
        self.entries.retain(|e| e.key != key);
        self.entries.push_back(CachedReply {
            key,
            served_at,
            samples,
        });
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    /// Looks up a cached reply for `key`, applying the staleness
    /// boundary: the query's window may extend past the instant the
    /// cached reply was served (a window whose end was still in the
    /// future then), in which case the cached samples cannot cover the
    /// newest demanded data and the reply must NOT be served — the
    /// query takes a fresh pull instead.
    ///
    /// The boundary is **closed**: the queried window is inclusive of
    /// its endpoint, and the archive's serving instant covers every
    /// row through `served_at` itself, so a reply served *exactly* at
    /// `needed_through` covers the whole closed window and must serve
    /// (`served_at == needed_through` hits; only `served_at <
    /// needed_through` — an open gap of at least one tick — rejects).
    /// Pinned by `reply_cache_serves_at_exact_freshness_boundary`.
    pub(crate) fn lookup(&mut self, key: PullKey, needed_through: SimTime) -> Option<&[(SimTime, f64)]> {
        let Some(pos) = self.entries.iter().position(|e| e.key == key) else {
            self.misses += 1;
            return None;
        };
        if self.entries[pos].served_at < needed_through {
            self.stale_rejections += 1;
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        Some(&self.entries[pos].samples)
    }

    /// Cached replies currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went to the radio.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lookups rejected by the freshness check (cached reply too old
    /// for the query's window), a subset of `misses`.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections
    }

    /// Drops every cached reply. The hit/miss/stale counters are
    /// measurement instrumentation and survive, as the slice cache's
    /// do through [`TieredSliceCache::clear`].
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

presto_telemetry::observe_counters!(PullReplyCache {
    hits,
    misses,
    stale_rejections,
});

/// The pipeline state a proxy carries.
pub struct QueryPipeline {
    pub(crate) config: PipelineConfig,
    pub(crate) pending: Vec<PendingQuery>,
    pub(crate) completed: Vec<CompletedQuery>,
    pub(crate) reply_cache: PullReplyCache,
    /// Two-tier slice store (only populated when slicing is enabled).
    pub(crate) slice_cache: TieredSliceCache,
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
        let reply_cache = PullReplyCache::new(config.reply_cache_capacity);
        let slice_cache = config
            .slice
            .as_ref()
            .map(TieredSliceCache::for_config)
            .unwrap_or_else(|| TieredSliceCache::new(1, 0));
        let tracer = QueryTracer::with_caps(
            config.trace,
            config.trace_finished_cap,
            config.trace_recorder_cap,
        );
        QueryPipeline {
            config,
            pending: Vec::new(),
            completed: Vec::new(),
            reply_cache,
            slice_cache,
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

    /// The shared pull-reply cache.
    pub fn reply_cache(&self) -> &PullReplyCache {
        &self.reply_cache
    }

    /// The two-tier slice cache (empty and untouched unless
    /// [`PipelineConfig::slice`] is set).
    pub fn slice_cache(&self) -> &TieredSliceCache {
        &self.slice_cache
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

    fn key(from_s: u64, to_s: u64) -> PullKey {
        PullKey::Pull {
            sensor: 1,
            from: SimTime::from_secs(from_s),
            to: SimTime::from_secs(to_s),
            tol_bits: 0.5f64.to_bits(),
        }
    }

    #[test]
    fn reply_cache_serves_exact_key() {
        let mut c = PullReplyCache::new(4);
        c.insert(key(0, 100), SimTime::from_secs(100), vec![(SimTime::from_secs(50), 1.0)]);
        assert!(c.lookup(key(0, 100), SimTime::from_secs(100)).is_some());
        assert!(c.lookup(key(0, 101), SimTime::from_secs(100)).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reply_cache_freshness_rejects_stale_coverage() {
        // A reply served at t=100 for a window ending at t=200 (the
        // window's end was still in the future at serve time) must not
        // answer a later query demanding coverage through t=200.
        let mut c = PullReplyCache::new(4);
        c.insert(key(0, 200), SimTime::from_secs(100), vec![(SimTime::from_secs(90), 1.0)]);
        assert!(
            c.lookup(key(0, 200), SimTime::from_secs(200)).is_none(),
            "stale reply served past its coverage"
        );
        assert_eq!(c.stale_rejections(), 1);
        // The same entry is fine for a query content with coverage
        // through its serve time.
        assert!(c.lookup(key(0, 200), SimTime::from_secs(100)).is_some());
    }

    #[test]
    fn reply_cache_serves_at_exact_freshness_boundary() {
        // The freshness boundary is closed: a reply served exactly at
        // the closed window's end covers every row through that instant
        // and must serve. One tick of uncovered window must reject.
        let mut c = PullReplyCache::new(4);
        let served = SimTime::from_secs(200);
        c.insert(key(0, 200), served, vec![(SimTime::from_secs(150), 1.0)]);
        assert!(
            c.lookup(key(0, 200), served).is_some(),
            "served_at == needed_through is full coverage and must hit"
        );
        assert_eq!(c.stale_rejections(), 0);
        assert!(
            c.lookup(key(0, 200), served + SimDuration::from_micros(1)).is_none(),
            "one tick past the serve instant is uncovered and must reject"
        );
        assert_eq!(c.stale_rejections(), 1);
    }

    #[test]
    fn reply_cache_bounds_capacity_fifo() {
        let mut c = PullReplyCache::new(2);
        for i in 0..3u64 {
            c.insert(key(i, i + 10), SimTime::from_secs(i + 10), Vec::new());
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup(key(0, 10), SimTime::ZERO).is_none(), "oldest evicted");
        assert!(c.lookup(key(2, 12), SimTime::ZERO).is_some());
    }

    #[test]
    fn reply_cache_repull_replaces_entry() {
        let mut c = PullReplyCache::new(4);
        c.insert(key(0, 100), SimTime::from_secs(100), vec![(SimTime::from_secs(10), 1.0)]);
        c.insert(key(0, 100), SimTime::from_secs(300), vec![(SimTime::from_secs(10), 2.0)]);
        assert_eq!(c.len(), 1);
        let s = c.lookup(key(0, 100), SimTime::from_secs(200)).expect("fresh entry");
        assert_eq!(s[0].1, 2.0, "newest serving wins");
    }
}
