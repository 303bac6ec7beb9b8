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
use crate::slice::{SliceCache, SliceConfig, SliceSpec};

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
    /// slice-by-slice and cached at slice granularity in one LRU.
    /// `None` (the default) keeps the monolithic pull path
    /// byte-identical to the pre-slice behavior.
    pub slice: Option<SliceConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epoch_attempt_budget: 16,
            trace: false,
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
/// names, and the fill that RPC's reply (or, for a slice, the slice
/// cache) brings. Parts with equal keys share one RPC and one reply,
/// whichever query or shape they belong to.
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
    /// its query's only part, so its fill completes the query at once
    /// and the reply becomes the answer; a slice part keeps its fill.
    pub served: bool,
    /// A served slice's samples, trimmed to the slice span.
    pub samples: Vec<(SimTime, f64)>,
    /// A served slice's re-bounded sigma ([`crate::slice::slice_sigma`]).
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
            ..Part::whole(PullKey::Pull {
                sensor: spec.key.sensor,
                from: spec.from,
                to: spec.to,
                tol_bits: spec.key.tol_bits,
            })
        }
    }

    /// Serves this part: the fill a reply or the slice cache brings.
    pub fn fill(&mut self, samples: Vec<(SimTime, f64)>, sigma: f64) {
        self.served = true;
        self.samples = samples;
        self.sigma = sigma;
    }

    /// Serves a slice part from `cache` when it holds the slice.
    pub fn fill_from(&mut self, cache: &mut SliceCache) -> bool {
        let Some(spec) = self.slice else {
            return false;
        };
        let Some((samples, sigma)) = cache.lookup(spec.key) else {
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

/// Shared pull-reply cache capacity, in replies (oldest evict first).
const REPLY_CACHE_CAPACITY: usize = 128;

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

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went to the radio.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached reply. The hit/miss/stale counters are
    /// measurement instrumentation and survive, as the slice cache's
    /// do through [`SliceCache::clear`].
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
    /// Slice cache (only populated when slicing is enabled).
    pub(crate) slice_cache: SliceCache,
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
        let slice_cache = SliceCache::new(config.slice.as_ref().map_or(1, |c| c.capacity));
        let tracer = QueryTracer::new(config.trace);
        QueryPipeline {
            config,
            pending: Vec::new(),
            completed: Vec::new(),
            reply_cache: PullReplyCache::new(REPLY_CACHE_CAPACITY),
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

    /// The slice cache (empty and untouched unless
    /// [`PipelineConfig::slice`] is set).
    pub fn slice_cache(&self) -> &SliceCache {
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
        assert_eq!(c.stale_rejections, 1);
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
        assert_eq!(c.stale_rejections, 0);
        assert!(
            c.lookup(key(0, 200), served + SimDuration::from_micros(1)).is_none(),
            "one tick past the serve instant is uncovered and must reject"
        );
        assert_eq!(c.stale_rejections, 1);
    }

    #[test]
    fn reply_cache_bounds_capacity_fifo() {
        let mut c = PullReplyCache::new(2);
        for i in 0..3u64 {
            c.insert(key(i, i + 10), SimTime::from_secs(i + 10), Vec::new());
        }
        assert_eq!(c.entries.len(), 2);
        assert!(c.lookup(key(0, 10), SimTime::ZERO).is_none(), "oldest evicted");
        assert!(c.lookup(key(2, 12), SimTime::ZERO).is_some());
    }

    #[test]
    fn reply_cache_repull_replaces_entry() {
        let mut c = PullReplyCache::new(4);
        c.insert(key(0, 100), SimTime::from_secs(100), vec![(SimTime::from_secs(10), 1.0)]);
        c.insert(key(0, 100), SimTime::from_secs(300), vec![(SimTime::from_secs(10), 2.0)]);
        assert_eq!(c.entries.len(), 1);
        let s = c.lookup(key(0, 100), SimTime::from_secs(200)).expect("fresh entry");
        assert_eq!(s[0].1, 2.0, "newest serving wins");
    }
}
