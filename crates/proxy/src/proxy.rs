//! The proxy: uplink consumption, query answering, downlink control.
//!
//! Query path (paper §2): "When a new query arrives, the proxy examines
//! its cache … In the event of a hit, the query can be processed locally.
//! Cache misses are handled in one of two ways. The proxy first examines
//! other cached data to see if the requested data can be extrapolated …
//! If the spatio-temporal extrapolation does not yield sufficiently
//! accurate data to meet the query error tolerances, then the cache miss
//! is handled by fetching data from … the archive at remote sensors."
//!
//! That miss path is written once. Every query starts in `try_fast`
//! (cache hit → extrapolation → spatial conditioning, or dense coverage
//! for ranges); a miss names its radio work as a `PullKey`, `request`
//! turns a key into the downlink request, and `answer_from_reply` turns
//! the reply into the answer. Two entries drive that path over
//! different transports: [`PrestoProxy::answer`] blocks on one RPC, and
//! [`PrestoProxy::submit_query`] queues the miss for
//! [`PrestoProxy::pump_queries_view`], which overlaps many RPCs across
//! epochs (see [`crate::pipeline`]). A queued miss is a list of parts,
//! one per RPC it needs: its whole pull window, or one per slice of a
//! sliced PAST window. A PAST query's parts are first looked up in the
//! one reply cache ([`crate::ReplyCache`]), and a query the cache
//! serves whole completes at submit. The pump issues, coalesces,
//! expires and fills parts in one loop each, and a query completes at
//! the fill that serves its last part.
//!
//! Every proxy→sensor interaction — pulls, aggregate requests, model
//! pushes, retunes — is a fabric-routed RPC over a per-sensor
//! [`DownlinkChannel`]: sequenced, deduplicated at the sensor,
//! retransmitted on timeout from an energy-metered retry budget, with
//! replies matched through a pending-RPC table. There is no infallible
//! direct-call path; downlink loss surfaces as query latency and
//! [`AnswerSource::Failed`] answers.

use std::collections::BTreeMap;

use presto_models::SpatialGaussian;
use presto_net::Mac;
use presto_reliability::{AttemptEvent, DownlinkChannel, RpcOutcome};
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::{CompletionCause, SpanEvent};

use presto_sensor::{DownlinkMsg, SensorNode, UplinkMsg, UplinkPayload};

use crate::cache::{CacheSource, CachedEvent, CachedSample, EventCache, SensorCache};
use crate::engine::{EngineConfig, ModelSlot, PredictionEngine};
use crate::pipeline::{
    key_op, op_key, CompletedQuery, Part, Parts, PendingQuery, PipelineAnswer, PipelineConfig,
    PipelineQuery, PullKey, QueryPipeline, DEFAULT_DEADLINE,
};
use crate::slice::{self, WindowKey};

/// Age below which a cached sample answers a NOW query outright.
const FRESHNESS: SimDuration = SimDuration::from_secs(62);

/// Sensor sampling period (for coverage computations).
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(31);

/// Event cache capacity, in events (oldest evict first).
const EVENT_CAPACITY: usize = 100_000;

/// Proxy configuration.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// Prediction engine configuration.
    pub engine: EngineConfig,
    /// Cache capacity per sensor, in samples.
    pub cache_capacity: usize,
    /// The push tolerance configured at the sensors (the extrapolation
    /// error bound under model-driven push).
    pub push_tolerance: f64,
    /// The sensors' LPL check interval (downlink preamble length).
    pub sensor_lpl: SimDuration,
    /// Required cache coverage for a PAST-query cache hit.
    pub past_coverage_hit: f64,
    /// Asynchronous query pipeline parameters.
    pub pipeline: PipelineConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            engine: EngineConfig::default(),
            cache_capacity: 50_000,
            push_tolerance: 1.0,
            sensor_lpl: SimDuration::from_secs(1),
            past_coverage_hit: 0.9,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// How a query was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// Served from a fresh cached sample.
    CacheHit,
    /// Served from the prediction engine (temporal model).
    Extrapolated,
    /// Served by spatial conditioning on nearby sensors.
    SpatialExtrapolated,
    /// Served by a miss-triggered pull from the sensor archive.
    Pulled,
    /// Could not be answered (sensor unreachable and no model).
    Failed,
}

/// Answer to a NOW query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// The value.
    pub value: f64,
    /// Uncertainty (one sigma).
    pub sigma: f64,
    /// Provenance.
    pub source: AnswerSource,
    /// Time from arrival to answer.
    pub latency: SimDuration,
    /// The freshest underlying data instant this answer reflects — the
    /// cached/pulled sample's timestamp, the prediction instant for
    /// extrapolations (the push guarantee bounds the sensor *now*), or
    /// the window end for aggregates. `None` for failed answers: a
    /// sigma-∞ value has no staleness to reason about. Serve-time
    /// `answer_age` is derived from this, so clients read staleness
    /// directly instead of inferring it from sigma.
    pub data_through: Option<SimTime>,
}

/// Answer to a PAST query.
#[derive(Clone, Debug, PartialEq)]
pub struct PastAnswer {
    /// The series over the requested range.
    pub samples: Vec<(SimTime, f64)>,
    /// Provenance.
    pub source: AnswerSource,
    /// Time from arrival to answer.
    pub latency: SimDuration,
}

/// Proxy counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Uplink messages consumed.
    pub uplinks: u64,
    /// Samples added to caches.
    pub samples_cached: u64,
    /// Events cached.
    pub events_cached: u64,
    /// NOW queries answered.
    pub now_queries: u64,
    /// PAST queries answered.
    pub past_queries: u64,
    /// Cache hits (NOW + PAST).
    pub cache_hits: u64,
    /// Extrapolated answers.
    pub extrapolations: u64,
    /// Spatially extrapolated answers.
    pub spatial_extrapolations: u64,
    /// Miss-triggered pulls issued.
    pub pulls: u64,
    /// Pulls that failed after retries.
    pub pull_failures: u64,
    /// Model parameter pushes delivered.
    pub models_pushed: u64,
    /// Retunes delivered.
    pub retunes_pushed: u64,
    /// Archive-backed recovery pulls issued.
    pub recovery_pulls: u64,
    /// Model replicas resynchronized by replaying a repaired span
    /// through the replica check (kept, not dropped — no retrain
    /// needed).
    pub replica_resyncs: u64,
}

presto_telemetry::observe_counters!(ProxyStats {
    uplinks,
    samples_cached,
    events_cached,
    now_queries,
    past_queries,
    cache_hits,
    extrapolations,
    spatial_extrapolations,
    pulls,
    pull_failures,
    models_pushed,
    retunes_pushed,
    recovery_pulls,
    replica_resyncs,
});

/// One sensor's radio endpoints as seen by a pumping proxy: the node
/// and the downlink channel this proxy drives towards it. The pump
/// works over an arbitrary set of these — a proxy's own cluster, a
/// cluster adopted after a peer's crash, or a peer's sensor reached
/// through a dedicated cross-proxy channel for a shed query — so
/// nothing in the pipeline assumes sensor ids are contiguous.
pub struct PumpSensor<'a> {
    /// Global sensor id.
    pub gid: u16,
    /// The sensor node.
    pub node: &'a mut SensorNode,
    /// The downlink channel this proxy drives towards it.
    pub chan: &'a mut DownlinkChannel,
}

struct SensorSlot {
    cache: SensorCache,
    model: Option<ModelSlot>,
    /// When the current model was installed at the sensor (extrapolation
    /// guarantees only hold from here on).
    model_installed_at: Option<SimTime>,
}

/// A PRESTO proxy.
pub struct PrestoProxy {
    config: ProxyConfig,
    engine: PredictionEngine,
    sensors: BTreeMap<u16, SensorSlot>,
    /// Time-indexed, capacity-bounded semantic event cache.
    events: EventCache,
    /// `[min, max]` timestamp over *all* events ever cached (survives
    /// eviction). Cached events are not guaranteed to be archive-backed
    /// (a sensor's append can fail while its push succeeds), so range
    /// routing must consult this span in addition to archived segment
    /// intervals.
    events_span: Option<(SimTime, SimTime)>,
    spatial: Option<(SpatialGaussian, Vec<u16>)>,
    downlink: Mac,
    stats: ProxyStats,
    next_query_id: u64,
    /// The asynchronous query pipeline: pending queries, the shared
    /// pull-reply cache, and completed answers awaiting collection.
    pipeline: QueryPipeline,
    /// Reusable buffer for model-training history snapshots, so periodic
    /// retrain checks do not allocate a fresh vector per sensor pass.
    history_scratch: Vec<(SimTime, f64)>,
}

impl PrestoProxy {
    /// Creates a proxy.
    pub fn new(config: ProxyConfig) -> Self {
        let engine = PredictionEngine::new(config.engine.clone());
        let downlink = Mac::downlink(config.sensor_lpl);
        PrestoProxy {
            engine,
            downlink,
            sensors: BTreeMap::new(),
            events: EventCache::new(EVENT_CAPACITY),
            events_span: None,
            spatial: None,
            stats: ProxyStats::default(),
            next_query_id: 1,
            pipeline: QueryPipeline::new(config.pipeline.clone()),
            history_scratch: Vec::new(),
            config,
        }
    }

    /// Registers a sensor under this proxy.
    pub fn register_sensor(&mut self, id: u16) {
        self.sensors.entry(id).or_insert_with(|| SensorSlot {
            cache: SensorCache::new(self.config.cache_capacity),
            model: None,
            model_installed_at: None,
        });
    }

    /// Registered sensor ids, sorted.
    pub fn sensor_ids(&self) -> Vec<u16> {
        let mut ids: Vec<u16> = self.sensors.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Counters.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// The time-indexed event cache.
    pub fn events(&self) -> &EventCache {
        &self.events
    }

    /// `[min, max]` timestamp over cached events, `None` when empty.
    pub fn events_span(&self) -> Option<(SimTime, SimTime)> {
        self.events_span
    }

    /// Read access to a sensor's cache.
    pub fn cache(&self, sensor: u16) -> Option<&SensorCache> {
        self.sensors.get(&sensor).map(|s| &s.cache)
    }

    /// Consumes an uplink message, updating caches and model replicas.
    pub fn on_uplink(&mut self, msg: &UplinkMsg) {
        self.stats.uplinks += 1;
        let Some(slot) = self.sensors.get_mut(&msg.sensor) else {
            return;
        };
        match &msg.payload {
            UplinkPayload::Deviation { value, .. } => {
                slot.cache.insert(CachedSample {
                    t: msg.sent_at,
                    value: *value,
                    source: CacheSource::Pushed,
                });
                self.stats.samples_cached += 1;
                // Keep the proxy replica in lock-step with the sensor
                // replica: both observe exactly the pushed values.
                if let Some(m) = slot.model.as_mut() {
                    m.model.observe(msg.sent_at, *value);
                }
            }
            UplinkPayload::Value { value } => {
                slot.cache.insert(CachedSample {
                    t: msg.sent_at,
                    value: *value,
                    source: CacheSource::Pushed,
                });
                self.stats.samples_cached += 1;
            }
            UplinkPayload::Batch { samples, .. } => {
                slot.cache.insert_run(samples, |&(t, value)| CachedSample {
                    t,
                    value,
                    source: CacheSource::Batch,
                });
                self.stats.samples_cached += samples.len() as u64;
            }
            UplinkPayload::Event { event_type, .. } => {
                self.events.insert(CachedEvent {
                    t: msg.sent_at,
                    sensor: msg.sensor,
                    event_type: *event_type,
                });
                self.events_span = Some(match self.events_span {
                    None => (msg.sent_at, msg.sent_at),
                    Some((a, b)) => (a.min(msg.sent_at), b.max(msg.sent_at)),
                });
                self.stats.events_cached += 1;
            }
            UplinkPayload::PullReply { samples, .. } => {
                slot.cache.insert_run(samples, |s| CachedSample {
                    t: s.t,
                    value: s.value,
                    source: CacheSource::Pulled,
                });
                self.stats.samples_cached += samples.len() as u64;
            }
            UplinkPayload::AggregateReply { .. }
            | UplinkPayload::Heartbeat { .. }
            | UplinkPayload::SegmentSeal { .. } => {
                // Scalar reply, lease renewal or seal notice: record the
                // contact, cache nothing. The consuming query takes an
                // aggregate straight from its reply, and the system tier
                // registers seals in its range index.
                slot.cache.last_heard = Some(
                    slot.cache
                        .last_heard
                        .map_or(msg.sent_at, |h| h.max(msg.sent_at)),
                );
            }
        }
    }

    /// Runs a fabric-routed RPC towards a sensor: the request rides the
    /// sequenced, ack/retransmit [`DownlinkChannel`] (the sensor's
    /// ledger pays its first-hop reception, retransmissions are metered
    /// by the channel's retry budget), and any matched reply is folded into
    /// the proxy's cache before being returned. There is no infallible
    /// path: every proxy→sensor interaction goes through here and can
    /// time out, retry, and fail.
    pub fn rpc(
        &mut self,
        t: SimTime,
        msg: &DownlinkMsg,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> RpcOutcome {
        let outcome = chan.rpc(t, msg, node, &self.downlink);
        if let Some(r) = &outcome.reply {
            self.on_uplink(r);
        }
        outcome
    }

    /// Trains (if warranted) and pushes a model to a sensor. Returns true
    /// when a new model was installed.
    pub fn maybe_train_and_push(
        &mut self,
        t: SimTime,
        sensor: u16,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> bool {
        let Some(slot) = self.sensors.get(&sensor) else {
            return false;
        };
        if !self
            .engine
            .should_train(slot.model.as_ref(), slot.cache.len(), t)
        {
            return false;
        }
        let prev_version = slot.model.as_ref().map_or(0, |m| m.version);
        // Reuse one history buffer across training passes (taken out of
        // `self` so the cache borrow and the engine borrow don't clash).
        let mut history = std::mem::take(&mut self.history_scratch);
        slot.cache.history_into(&mut history);
        let trained = self.engine.train(&history, t, prev_version);
        self.history_scratch = history;
        let params = trained.model.encode_params();
        let kind = trained.model.kind();
        let msg = DownlinkMsg::ModelUpdate { kind, params };
        let delivered = self.rpc(t, &msg, node, chan).delivered;
        // Install only if the sensor acknowledged it; otherwise the
        // replicas would diverge.
        let Some(slot) = self.sensors.get_mut(&sensor) else {
            // Registration checked on entry, but an unregistered sensor
            // simply has no replica to update.
            return false;
        };
        if delivered && node.has_model() {
            slot.model = Some(trained);
            slot.model_installed_at = Some(t);
            self.stats.models_pushed += 1;
            true
        } else {
            // Unconfirmed push: the request may have been applied at the
            // sensor with only the ack lost, in which case the sensor is
            // now checking against the NEW model while our replica is
            // the OLD one — "silence means within tolerance" would be
            // silently false. We cannot tell the two cases apart, so
            // drop the replica: queries fall back to honest pulls until
            // a later confirmed push resynchronizes both ends.
            slot.model = None;
            slot.model_installed_at = None;
            false
        }
    }

    /// Pushes a retune (from query–sensor matching) to a sensor.
    // presto-lint: allow(unused, the proxy half of query–sensor matching; the ROADMAP.md matching-loop work either drives it from observed query classes or deletes it with derive_retune)
    pub fn push_retune(
        &mut self,
        t: SimTime,
        msg: &DownlinkMsg,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> bool {
        debug_assert!(matches!(msg, DownlinkMsg::Retune { .. }));
        if !self.rpc(t, msg, node, chan).delivered {
            return false;
        }
        // Track the sensor's tolerance for extrapolation bounds.
        if let DownlinkMsg::Retune {
            push_tolerance: Some(tol),
            ..
        } = msg
        {
            self.config.push_tolerance = *tol;
        }
        self.stats.retunes_pushed += 1;
        true
    }

    /// Trains the spatial model from aligned cached rows of all sensors:
    /// one row per sample of the first sensor's cache, to which each
    /// neighbour contributes the sample [`SensorCache::latest_at`]
    /// returns, if that is at most two sampling periods older; a row
    /// with any neighbour missing is skipped. The rows' timestamps
    /// increase, so one monotone cursor per neighbour walks its cache
    /// once, and the rows land in one flat row-major buffer.
    pub fn refresh_spatial_model(&mut self) {
        let ids = self.sensor_ids();
        if ids.len() < 2 {
            return;
        }
        let mut slots = self.sensors.values();
        let Some(first) = slots.next() else {
            return;
        };
        // Per neighbour: its samples not yet passed, and the newest one
        // passed (what `latest_at` returns at the current row's time).
        let mut cursors: Vec<_> = slots
            .map(|slot| (slot.cache.history_iter().peekable(), None))
            .collect();
        let max_lag = SAMPLE_PERIOD * 2;
        let mut data = Vec::with_capacity(first.cache.len() * ids.len());
        for (t, value) in first.cache.history_iter() {
            let row = data.len();
            data.push(value);
            for (ahead, latest) in &mut cursors {
                while let Some(s) = ahead.next_if(|&(st, _)| st <= t) {
                    *latest = Some(s);
                }
                match *latest {
                    Some((st, v)) if t - st <= max_lag => data.push(v),
                    _ => {
                        data.truncate(row);
                        break;
                    }
                }
            }
        }
        if data.len() / ids.len() >= 32 {
            self.spatial = SpatialGaussian::train(&data, ids.len()).map(|g| (g, ids));
        }
    }

    /// Estimated uplink latency for a reply of `bytes` payload bytes.
    fn reply_latency(&self, bytes: usize) -> SimDuration {
        let frames = self.downlink.frame.frames_for(bytes) as u64;
        let wire = self.downlink.frame.wire_bytes(bytes) + 6 * frames as usize;
        self.downlink.radio.airtime(wire) + SimDuration::from_millis(2) * frames
    }

    /// Books a query into `now_queries`/`past_queries`, then answers it
    /// without radio work if it can: an honest failure for a sensor this
    /// proxy does not serve, else the first radio-free fast path that
    /// fires. Both query entries start here; `None` means only the
    /// sensor's archive can answer.
    fn try_fast(&mut self, t: SimTime, query: &PipelineQuery) -> Option<PipelineAnswer> {
        match query {
            PipelineQuery::Now { .. } => self.stats.now_queries += 1,
            PipelineQuery::Past { .. } | PipelineQuery::Aggregate { .. } => {
                self.stats.past_queries += 1
            }
        }
        if !self.sensors.contains_key(&query.sensor()) {
            return Some(self.failed_answer(query, SimDuration::ZERO));
        }
        match *query {
            PipelineQuery::Now { sensor, tolerance } => self
                .try_now_fast(t, sensor, tolerance)
                .map(PipelineAnswer::Scalar),
            PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } => self
                .try_past_fast(sensor, from, to, tolerance)
                .map(PipelineAnswer::Series),
            PipelineQuery::Aggregate {
                sensor,
                from,
                to,
                op,
            } => self
                .try_aggregate_fast(sensor, from, to, op)
                .map(PipelineAnswer::Scalar),
        }
    }

    /// Radio-free NOW paths — cache hit → temporal extrapolation →
    /// spatial conditioning. `None` means only a pull can answer.
    fn try_now_fast(&mut self, t: SimTime, sensor: u16, tolerance: f64) -> Option<Answer> {
        let slot = self.sensors.get(&sensor)?;

        // 1. Fresh cached sample.
        if let Some(s) = slot.cache.latest() {
            if t - s.t <= FRESHNESS {
                self.stats.cache_hits += 1;
                return Some(Answer {
                    value: s.value,
                    sigma: 0.0,
                    source: AnswerSource::CacheHit,
                    latency: SimDuration::from_millis(1),
                    data_through: Some(s.t),
                });
            }
        }

        // 2. Temporal extrapolation: under model-driven push, silence
        // means the model is within the push tolerance.
        if let Some(m) = &slot.model {
            if self.config.push_tolerance <= tolerance {
                let p = PredictionEngine::extrapolate(m, t, self.config.push_tolerance);
                self.stats.extrapolations += 1;
                return Some(Answer {
                    value: p.value,
                    sigma: p.sigma,
                    source: AnswerSource::Extrapolated,
                    latency: SimDuration::from_millis(2),
                    // The push guarantee bounds the sensor's value *at
                    // the prediction instant*: knowledge through `t`.
                    data_through: Some(t),
                });
            }
        }

        // 3. Spatial extrapolation from co-located sensors.
        if let Some((g, ids)) = &self.spatial {
            if let Some(target_idx) = ids.iter().position(|&i| i == sensor) {
                let mut observed = Vec::new();
                let mut freshest = SimTime::ZERO;
                for (idx, &other) in ids.iter().enumerate() {
                    if other == sensor {
                        continue;
                    }
                    if let Some(cs) = self.sensors[&other].cache.latest_at(t) {
                        if t - cs.t <= FRESHNESS {
                            observed.push((idx, cs.value));
                            freshest = freshest.max(cs.t);
                        }
                    }
                }
                if !observed.is_empty() {
                    let p = g.condition(&observed, target_idx);
                    if p.sigma <= tolerance {
                        self.stats.spatial_extrapolations += 1;
                        return Some(Answer {
                            value: p.value,
                            sigma: p.sigma,
                            source: AnswerSource::SpatialExtrapolated,
                            latency: SimDuration::from_millis(2),
                            // Conditioned on neighbors' samples: the
                            // newest anchor bounds what it reflects.
                            data_through: Some(freshest),
                        });
                    }
                }
            }
        }
        None
    }

    /// Radio-free PAST paths — dense cache coverage → model-era
    /// extrapolation. `None` means only a pull can answer.
    fn try_past_fast(
        &mut self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
    ) -> Option<PastAnswer> {
        let slot = self.sensors.get(&sensor)?;

        // 1. Dense cache coverage.
        let coverage = slot.cache.coverage(from, to, SAMPLE_PERIOD);
        if coverage >= self.config.past_coverage_hit {
            self.stats.cache_hits += 1;
            return Some(PastAnswer {
                samples: slot.cache.range(from, to).map(|s| (s.t, s.value)).collect(),
                source: AnswerSource::CacheHit,
                latency: SimDuration::from_millis(2),
            });
        }

        // 2. Model extrapolation over the range, valid only for the span
        // the model guarantee covers.
        if let (Some(m), Some(installed)) = (&slot.model, slot.model_installed_at) {
            if self.config.push_tolerance <= tolerance && from >= installed {
                // Anchored extrapolation: the model's prediction at any
                // time carries the replica's *current* short-term context,
                // which is wrong for past instants. Anchoring on the
                // nearest cached push cancels the context (it is constant
                // across prediction times), leaving the seasonal shape
                // plus the true value at the anchor — which is exactly
                // the trajectory the push-tolerance guarantee bounds.
                let anchors: Vec<_> = slot.cache.range(installed, to).collect();
                let mut samples = Vec::new();
                let mut ts = from;
                let mut ai = 0usize;
                while ts <= to {
                    while ai + 1 < anchors.len() && anchors[ai + 1].t <= ts {
                        ai += 1;
                    }
                    let v = match anchors.get(ai) {
                        Some(a) if a.t <= ts => {
                            m.model.predict(ts).value - m.model.predict(a.t).value + a.value
                        }
                        _ => m.model.predict(ts).value,
                    };
                    samples.push((ts, v));
                    ts += SAMPLE_PERIOD;
                }
                self.stats.extrapolations += 1;
                return Some(PastAnswer {
                    samples,
                    source: AnswerSource::Extrapolated,
                    latency: SimDuration::from_millis(3),
                });
            }
        }
        None
    }

    /// Radio-free aggregate path (dense cache coverage).
    fn try_aggregate_fast(
        &mut self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        op: presto_sensor::AggregateOp,
    ) -> Option<Answer> {
        let slot = self.sensors.get(&sensor)?;
        let coverage = slot.cache.coverage(from, to, SAMPLE_PERIOD);
        if coverage >= self.config.past_coverage_hit {
            let values = slot.cache.range(from, to).map(|s| s.value);
            self.stats.cache_hits += 1;
            return Some(Answer {
                value: presto_sensor::evaluate_aggregate(op, values),
                sigma: 0.0,
                source: AnswerSource::CacheHit,
                latency: SimDuration::from_millis(2),
                data_through: Some(to),
            });
        }
        None
    }

    /// Answers a query synchronously, the proxy's one blocking query
    /// entry: the fast paths, else one [`PrestoProxy::rpc`] whose reply
    /// becomes the answer. The pipeline runs the same steps over the
    /// asynchronous transport. This entry blocks through every
    /// retransmission, so each timeout lands in the answer's latency,
    /// and the equivalence properties use it as the reference the
    /// pipeline must match.
    pub fn answer(
        &mut self,
        t: SimTime,
        query: PipelineQuery,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> PipelineAnswer {
        if let Some(answer) = self.try_fast(t, &query) {
            return answer;
        }
        let msg = self.request(self.pull_key(t, &query));
        self.stats.pulls += 1;
        let out = self.rpc(t, &msg, node, chan);
        match out.reply {
            Some(r) => {
                let latency = out.latency + self.reply_latency(r.wire_bytes);
                self.answer_from_reply(&query, &r.payload, latency)
            }
            None => {
                self.stats.pull_failures += 1;
                self.failed_answer(&query, out.latency)
            }
        }
    }

    /// Archive-backed recovery replay: pulls `[from, to]` from the
    /// sensor's flash archive (the indexed query path) and folds the
    /// reply into the cache, repairing a span whose pushed context was
    /// lost. Returns the number of samples replayed, or `None` when the
    /// pull failed after retries (the caller requeues the repair).
    #[allow(clippy::too_many_arguments)]
    pub fn recover_span(
        &mut self,
        t: SimTime,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> Option<usize> {
        // Recovery pulls are counted here and *only* here: `pulls` and
        // `pull_failures` stay query-path counters (recovery failures
        // are tracked by the gap tracker's `failed_attempts`).
        self.stats.recovery_pulls += 1;
        let msg = self.request(PullKey::Pull(WindowKey {
            sensor,
            from,
            to,
            tol_bits: tolerance.to_bits(),
        }));
        let reply = self.rpc(t, &msg, node, chan).reply?;
        let UplinkPayload::PullReply { samples, .. } = &reply.payload else {
            return None;
        };
        let samples: Vec<(SimTime, f64)> = samples.iter().map(|s| (s.t, s.value)).collect();
        // Replica-divergence repair: the repaired gap may have held
        // deviation pushes the sensor's replica observed and ours never
        // saw, after which "silence means within tolerance" would be
        // silently false. Instead of dropping the model and waiting for
        // the next train-and-push, resynchronize it from the replayed
        // samples themselves.
        self.resync_replica(sensor, &samples);
        Some(samples.len())
    }

    /// Resynchronizes a sensor's model replica after a gap repair by
    /// replaying the repaired span through the sensor's own
    /// model-driven push rule: both replicas were in lock-step when the
    /// gap opened, so simulating the check over the recovered samples
    /// (observe exactly the values that deviate) reconstructs the
    /// observations the sensor's replica made during the outage. The
    /// reconstruction is approximate at two known edges — recovered
    /// values carry the recovery codec tolerance, which can flip a
    /// decision sitting exactly on the push boundary, and any deviation
    /// delivered between gap detection and repair was observed out of
    /// order — both bounded by the push-tolerance scale the
    /// extrapolation sigma already advertises. The alternative (drop
    /// the replica, answer by pull until the next training pass) costs
    /// a retrain and a model push per gap; the resync costs one pass
    /// over the replayed span.
    fn resync_replica(&mut self, sensor: u16, samples: &[(SimTime, f64)]) {
        let tolerance = self.config.push_tolerance;
        let Some(slot) = self.sensors.get_mut(&sensor) else {
            return;
        };
        let Some(m) = slot.model.as_mut() else {
            return;
        };
        for &(ts, v) in samples {
            if !m.model.predict(ts).within(v, tolerance) {
                m.model.observe(ts, v);
            }
        }
        self.stats.replica_resyncs += 1;
    }

    // ──────────────── asynchronous query pipeline ────────────────

    /// The asynchronous query pipeline (stats, reply cache, queue
    /// depth).
    pub fn pipeline(&self) -> &QueryPipeline {
        &self.pipeline
    }

    /// Mutable pipeline access (tracer draining, trace enablement).
    pub fn pipeline_mut(&mut self) -> &mut QueryPipeline {
        &mut self.pipeline
    }

    /// Drains completed pipeline queries recorded since the last call.
    pub fn take_completed_queries(&mut self) -> Vec<CompletedQuery> {
        self.pipeline.take_completed()
    }

    /// Wipes the proxy's RAM-resident query state after a crash: every
    /// pending pipeline query, every completed-but-uncollected answer,
    /// and the reply cache die with the process. Per-sensor
    /// caches and model replicas die too — a rebooted or succeeding
    /// proxy rebuilds them from pushes, pulls, and recovery replays.
    /// Counters survive (they are measurement instrumentation, not
    /// system state). Returns the number of queries dropped.
    pub fn crash_reset(&mut self) -> usize {
        let dropped = self.pipeline.pending.len() + self.pipeline.completed.len();
        self.pipeline.pending.clear();
        self.pipeline.completed.clear();
        // Cached replies are RAM state and die with the crash; the
        // cache's counters are measurement instrumentation and survive.
        self.pipeline.reply_cache.clear();
        for slot in self.sensors.values_mut() {
            slot.cache = SensorCache::new(self.config.cache_capacity);
            slot.model = None;
            slot.model_installed_at = None;
        }
        self.events = EventCache::new(EVENT_CAPACITY);
        self.events_span = None;
        self.spatial = None;
        // RAM-resident trace state dies with the queue it described;
        // the fleet tier still closes its own traces honestly.
        self.pipeline.tracer.clear_open();
        dropped
    }

    /// Records a ticket's terminal answer: closes its trace (cause from
    /// provenance, staleness at `t`, the reported confidence width) and
    /// queues the completion for collection. A scalar reports its own
    /// sigma; a series reports `series_sigma` (the re-bounded assembly
    /// sigma of a sliced answer, 0 otherwise) unless it failed.
    fn complete(
        &mut self,
        id: u64,
        query: PipelineQuery,
        submitted_at: SimTime,
        t: SimTime,
        answer: PipelineAnswer,
        series_sigma: f64,
    ) {
        if self.pipeline.tracer.enabled() {
            let failed = answer.source() == AnswerSource::Failed;
            let cause = if failed {
                CompletionCause::Failed
            } else {
                CompletionCause::Ok
            };
            let sigma = match &answer {
                PipelineAnswer::Scalar(a) => a.sigma,
                PipelineAnswer::Series(_) if failed => 0.0,
                PipelineAnswer::Series(_) => series_sigma,
            };
            self.pipeline
                .tracer
                .finish(id, t, cause, answer.age_at(t), sigma);
        }
        self.pipeline.completed.push(CompletedQuery {
            id,
            query,
            answer,
            submitted_at,
            completed_at: t,
        });
    }

    /// Submits a query to the asynchronous pipeline. The radio-free
    /// fast paths (cache hit, model extrapolation, spatial
    /// conditioning, dense-coverage aggregation, the reply cache)
    /// complete immediately; a precision miss enqueues a pending
    /// query that [`PrestoProxy::pump_queries_view`] serves across
    /// epochs. Returns the ticket id under which the completion
    /// surfaces in [`PrestoProxy::take_completed_queries`]. Uses the
    /// default deadline ([`crate::DEFAULT_DEADLINE`]).
    pub fn submit_query(&mut self, t: SimTime, query: PipelineQuery) -> u64 {
        self.submit_query_with_deadline(t, query, None)
    }

    /// [`PrestoProxy::submit_query`] with a per-query deadline (from
    /// query–sensor matching's latency classes — see
    /// [`crate::QuerySensorMatcher::deadline_for`]); `None` falls back
    /// to [`crate::DEFAULT_DEADLINE`]. A tight deadline bounds how
    /// long the pump may spend retransmitting for this query before it
    /// fails honestly, so callers can trade deadline against retry
    /// budget per latency class.
    pub fn submit_query_with_deadline(
        &mut self,
        t: SimTime,
        query: PipelineQuery,
        deadline: Option<SimDuration>,
    ) -> u64 {
        let id = self.pipeline.next_ticket;
        self.pipeline.next_ticket += 1;
        self.pipeline.stats.submitted += 1;
        self.pipeline.tracer.record(id, t, SpanEvent::Submitted);
        if let Some(answer) = self.try_fast(t, &query) {
            if answer.source() == AnswerSource::Failed {
                self.pipeline.stats.failed += 1;
            } else {
                self.pipeline.stats.completed_fast += 1;
                self.pipeline
                    .tracer
                    .record(id, t, SpanEvent::CacheHit { path: "fast" });
            }
            self.complete(id, query, t, t, answer, 0.0);
            return id;
        }
        // The radio work: a PAST window spanning enough fixed
        // time-aligned slices decomposes into canonical slices, and
        // every other miss is one part for its whole pull window.
        let specs = match query {
            PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } if self.pipeline.config.slice => slice::plan(sensor, from, to, tolerance),
            _ => None,
        };
        let mut parts = match specs {
            Some(specs) => {
                self.pipeline.stats.sliced += 1;
                Parts::Many(specs.into_iter().map(Part::of_slice).collect())
            }
            None => Parts::One(Part::whole(self.pull_key(t, &query))),
        };
        // The reply cache: a PAST window, or every slice of one, that
        // an earlier pull left cached answers from proxy memory (so a
        // sub-window of a pulled span completes radio-free), and only
        // the missing parts need radio work. A NOW window ends at its
        // own submission instant, which no earlier pull covers, and an
        // aggregate is no pull, so neither looks up.
        if let PipelineQuery::Past { .. } = query {
            let mut all_hit = true;
            for p in parts.iter_mut() {
                all_hit &= p.fill_from(&mut self.pipeline.reply_cache);
            }
            if all_hit {
                let (answer, sigma) =
                    self.answer_from_parts(&query, &parts, SimDuration::from_millis(2));
                self.pipeline.stats.completed_cached += 1;
                if let Parts::Many(_) = parts {
                    self.pipeline.stats.completed_sliced += 1;
                }
                self.pipeline.tracer.record(
                    id,
                    t,
                    SpanEvent::CacheHit {
                        path: "reply_cache",
                    },
                );
                self.complete(id, query, t, t, answer, sigma);
                return id;
            }
        }
        let deadline = t + deadline.unwrap_or(DEFAULT_DEADLINE);
        self.pipeline.tracer.record(id, t, SpanEvent::CacheMiss);
        self.pipeline.pending.push(PendingQuery {
            id,
            query,
            submitted_at: t,
            deadline,
            parts,
            last_reply_latency: SimDuration::ZERO,
        });
        id
    }

    /// Builds a query's answer from its served parts. A whole window's
    /// samples map as a reply's do, with no re-bound sigma. A sliced
    /// query's slices are concatenated in slice order, trimmed to the
    /// queried window and re-bounded with the worst per-slice sigma.
    /// An empty result falls through to the honest failure answer.
    fn answer_from_parts(
        &self,
        query: &PipelineQuery,
        parts: &[Part],
        latency: SimDuration,
    ) -> (PipelineAnswer, f64) {
        if let [whole @ Part { slice: None, .. }] = parts {
            let answer = self.answer_from_samples(query, &whole.samples, latency);
            return (answer, 0.0);
        }
        let (from, to) = match *query {
            PipelineQuery::Past { from, to, .. } => (from, to),
            _ => (SimTime::ZERO, SimTime::MAX),
        };
        let samples = slice::assemble(parts.iter().map(|p| p.samples.as_slice()), from, to);
        let sigma = parts.iter().map(|p| p.sigma).fold(0.0f64, f64::max);
        (self.answer_from_samples(query, &samples, latency), sigma)
    }

    /// The radio work a query submitted at `t` needs on a precision
    /// miss: a pull of its window at its tolerance (for NOW, the last
    /// three sample periods), or its aggregate evaluated at the sensor.
    fn pull_key(&self, t: SimTime, query: &PipelineQuery) -> PullKey {
        match *query {
            PipelineQuery::Now { sensor, tolerance } => PullKey::Pull(WindowKey {
                sensor,
                from: t - SAMPLE_PERIOD * 3,
                to: t,
                tol_bits: tolerance.to_bits(),
            }),
            PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } => PullKey::Pull(WindowKey {
                sensor,
                from,
                to,
                tol_bits: tolerance.to_bits(),
            }),
            PipelineQuery::Aggregate {
                sensor,
                from,
                to,
                op,
            } => PullKey::Aggregate {
                sensor,
                from,
                to,
                op: op_key(op),
            },
        }
    }

    /// The one request builder: the downlink request for `key` under a
    /// fresh RPC id, a pull of the key's window at its tolerance or the
    /// aggregate operator shipped to the sensor so only the scalar
    /// crosses the radio (paper §3's "mode of vibration" example). The
    /// caller books the RPC when it issues it: in `pulls` on the query
    /// path, whether or not it succeeds, so `pulls` means
    /// attempts-per-RPC on both transports and stays disjoint from
    /// `recovery_pulls`.
    fn request(&mut self, key: PullKey) -> DownlinkMsg {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        match key {
            PullKey::Pull(WindowKey {
                from, to, tol_bits, ..
            }) => DownlinkMsg::PullRequest {
                query_id,
                from,
                to,
                tolerance: f64::from_bits(tol_bits),
            },
            PullKey::Aggregate { from, to, op, .. } => DownlinkMsg::AggregateRequest {
                query_id,
                from,
                to,
                op: key_op(op),
            },
        }
    }

    /// The honest failure answer for a query: the best effort the proxy
    /// still holds (stale cache value or partial cached range), always
    /// advertised with sigma ∞ / `Failed`.
    fn failed_answer(&self, query: &PipelineQuery, latency: SimDuration) -> PipelineAnswer {
        match *query {
            PipelineQuery::Now { sensor, .. } => {
                let (value, sigma) = self
                    .sensors
                    .get(&sensor)
                    .and_then(|s| s.cache.latest())
                    .map(|s| (s.value, f64::INFINITY))
                    .unwrap_or((0.0, f64::INFINITY));
                PipelineAnswer::Scalar(Answer {
                    value,
                    sigma,
                    source: AnswerSource::Failed,
                    latency,
                    data_through: None,
                })
            }
            PipelineQuery::Past {
                sensor, from, to, ..
            } => {
                let samples = self
                    .sensors
                    .get(&sensor)
                    .map(|s| s.cache.range(from, to).map(|cs| (cs.t, cs.value)).collect())
                    .unwrap_or_default();
                PipelineAnswer::Series(PastAnswer {
                    samples,
                    source: AnswerSource::Failed,
                    latency,
                })
            }
            PipelineQuery::Aggregate { .. } => PipelineAnswer::Scalar(Answer {
                value: f64::NAN,
                sigma: f64::INFINITY,
                source: AnswerSource::Failed,
                latency,
                data_through: None,
            }),
        }
    }

    /// Builds a NOW or PAST query's answer from pulled samples: the
    /// freshest sample for NOW, the series for PAST. No samples, or an
    /// aggregate (which completes from its scalar reply), is the honest
    /// failure answer.
    fn answer_from_samples(
        &self,
        query: &PipelineQuery,
        samples: &[(SimTime, f64)],
        latency: SimDuration,
    ) -> PipelineAnswer {
        match (*query, samples.last()) {
            (PipelineQuery::Now { tolerance, .. }, Some(&(st, v))) => {
                PipelineAnswer::Scalar(Answer {
                    value: v,
                    sigma: tolerance / 2.0,
                    source: AnswerSource::Pulled,
                    latency,
                    data_through: Some(st),
                })
            }
            (PipelineQuery::Past { .. }, Some(_)) => PipelineAnswer::Series(PastAnswer {
                samples: samples.to_vec(),
                source: AnswerSource::Pulled,
                latency,
            }),
            _ => self.failed_answer(query, latency),
        }
    }

    /// Maps a matched reply onto a query's answer, the one reply mapping
    /// both query entries share. A pull reply's samples go through
    /// [`PrestoProxy::answer_from_samples`]. An aggregate reply carries
    /// the sensor-evaluated scalar, with sigma derived from the
    /// codec/aging error of the rows it aggregated; over an empty range
    /// it carries no data and stays an honest failure, not an Ok answer
    /// with no age.
    fn answer_from_reply(
        &self,
        query: &PipelineQuery,
        reply: &UplinkPayload,
        latency: SimDuration,
    ) -> PipelineAnswer {
        match *reply {
            UplinkPayload::PullReply { ref samples, .. } => {
                let samples: Vec<(SimTime, f64)> = samples.iter().map(|s| (s.t, s.value)).collect();
                self.answer_from_samples(query, &samples, latency)
            }
            UplinkPayload::AggregateReply {
                value,
                count,
                sigma,
                ..
            } => PipelineAnswer::Scalar(match *query {
                PipelineQuery::Aggregate { to, .. } if count > 0 => Answer {
                    value,
                    sigma,
                    source: AnswerSource::Pulled,
                    latency,
                    data_through: Some(to),
                },
                _ => Answer {
                    value,
                    sigma: f64::INFINITY,
                    source: AnswerSource::Failed,
                    latency,
                    data_through: None,
                },
            }),
            // Channels match replies to requests by query id, and only
            // pull and aggregate replies carry one.
            _ => self.failed_answer(query, latency),
        }
    }

    /// Completes a pending query whose last part a fill just served. A
    /// whole-window part's fill hands over the answer its reply maps
    /// to; a sliced query's answer is assembled from its slices.
    fn complete_served(&mut self, t: SimTime, q: PendingQuery, whole: Option<PipelineAnswer>) {
        self.pipeline.stats.completed_pull += 1;
        let (answer, sigma) = match whole {
            Some(answer) => (answer, 0.0),
            None => {
                self.pipeline.stats.completed_sliced += 1;
                let latency = (t - q.submitted_at) + q.last_reply_latency;
                self.answer_from_parts(&q.query, &q.parts, latency)
            }
        };
        self.complete(q.id, q.query, q.submitted_at, t, answer, sigma);
    }

    /// Drives the pipeline one epoch tick: expires overdue queries
    /// honestly, issues RPCs for parts that have none (coalescing parts
    /// with equal keys into one RPC), pumps every listed sensor's
    /// downlink channel round-robin under the per-epoch attempt budget,
    /// and fills parts whose replies arrived. A query completes at the
    /// fill that serves its last part. `sensors` is whatever set this
    /// proxy currently serves — pending queries whose sensor is not in
    /// the view stay queued (and fail honestly at their deadline).
    pub fn pump_queries_view(&mut self, t: SimTime, sensors: &mut [PumpSensor<'_>]) {
        let pending = std::mem::take(&mut self.pipeline.pending);

        // 1. Honest expiry: overdue queries fail now. An RPC left with
        // no attached part is cancelled, so the pending-RPC table cannot
        // leak entries (sensor death included: its RPCs keep failing
        // attempts while the link is gated, then expire here).
        let (expired, mut live): (Vec<PendingQuery>, Vec<PendingQuery>) =
            pending.into_iter().partition(|q| q.deadline <= t);
        for q in expired {
            let gid = q.query.sensor();
            for qid in q.parts.iter().filter_map(|p| p.rpc_qid) {
                if live.iter().any(|l| l.waits_on(qid)) {
                    continue;
                }
                let cancelled = sensors
                    .iter_mut()
                    .find(|s| s.gid == gid)
                    .is_some_and(|s| s.chan.cancel_async(qid));
                if cancelled {
                    // The RPC was issued (booked in `pulls`) and
                    // produced nothing: a query-path pull failure.
                    self.stats.pull_failures += 1;
                }
            }
            let answer = self.failed_answer(&q.query, t - q.submitted_at);
            self.pipeline.stats.failed += 1;
            self.complete(q.id, q.query, q.submitted_at, t, answer, 0.0);
        }

        // 2. Issue radio work for parts that have none. A slice part
        // first re-checks the reply cache (a sibling query's reply may
        // have landed the slice since submit); a part whose key an
        // in-flight RPC already covers attaches to it; any other part
        // issues its own RPC.
        let mut in_flight_keys: BTreeMap<PullKey, u64> = BTreeMap::new();
        for p in live.iter().flat_map(|q| q.parts.iter()) {
            if let Some(qid) = p.rpc_qid {
                in_flight_keys.insert(p.key, qid);
            }
        }
        let mut i = 0;
        while i < live.len() {
            let q = &mut live[i];
            let gid = q.query.sensor();
            let mut traced_coalesce = false;
            for p in q.parts.iter_mut() {
                if p.served
                    || p.rpc_qid.is_some()
                    || (p.slice.is_some() && p.fill_from(&mut self.pipeline.reply_cache))
                {
                    continue;
                }
                if let Some(&qid) = in_flight_keys.get(&p.key) {
                    p.rpc_qid = Some(qid);
                    if p.slice.is_some() {
                        self.pipeline.stats.slice_coalesced += 1;
                    } else {
                        self.pipeline.stats.coalesced += 1;
                    }
                    if !traced_coalesce {
                        self.pipeline.tracer.record(q.id, t, SpanEvent::Coalesced);
                        traced_coalesce = true;
                    }
                    continue;
                }
                // No channel for this sensor in the pumped view; the
                // query fails honestly at its deadline.
                let Some(s) = sensors.iter_mut().find(|s| s.gid == gid) else {
                    break;
                };
                let qid = s.chan.submit_async(t, self.request(p.key), q.deadline);
                self.stats.pulls += 1;
                self.pipeline.stats.rpcs_issued += 1;
                if p.slice.is_some() {
                    self.pipeline.stats.slice_rpcs += 1;
                }
                p.rpc_qid = Some(qid);
                self.pipeline.tracer.record(q.id, t, SpanEvent::RpcIssued);
                in_flight_keys.insert(p.key, qid);
            }
            if q.parts.iter().all(|p| p.served) {
                let q = live.remove(i);
                self.complete_served(t, q, None);
            } else {
                i += 1;
            }
        }

        // Peak-concurrency high-water mark, measured after issuance.
        let in_flight: usize = sensors.iter().map(|s| s.chan.async_in_flight()).sum();
        self.pipeline.stats.max_in_flight =
            self.pipeline.stats.max_in_flight.max(in_flight as u64);

        // 3. Pump every channel, rotating the start index each epoch so
        // the shared attempt budget is spread fairly across sensors. A
        // traced pump has the channels log every first transmission,
        // retransmission and budget deferral by RPC id. Every part of a
        // query rides its sensor's one channel, so each query's attempts
        // keep their order.
        let budget_start = self.pipeline.config.epoch_attempt_budget;
        let mut budget = budget_start;
        let traced = self.pipeline.tracer.enabled();
        let mut attempts: Vec<(u64, AttemptEvent)> = Vec::new();
        let n = sensors.len().max(1);
        let start = self.pipeline.rr_cursor % n;
        self.pipeline.rr_cursor = self.pipeline.rr_cursor.wrapping_add(1);
        let mut events = Vec::new();
        for k in 0..sensors.len() {
            let i = (start + k) % n;
            let s = &mut sensors[i];
            if s.chan.async_in_flight() == 0 {
                continue;
            }
            let log = traced.then_some(&mut attempts);
            events.extend(
                s.chan
                    .pump_async(t, s.node, &self.downlink, &mut budget, log),
            );
        }
        // Pressure probe: a pump that spent its whole budget is
        // saturated — more queries than this epoch could serve.
        self.pipeline.last_pump_attempts = budget_start - budget;

        // Per-RPC attempt detail: map each logged attempt back onto
        // every pending query with a part on that RPC (coalesced
        // queries inherit the attempt history).
        if traced {
            for (qid, ev) in attempts {
                let span = match ev {
                    AttemptEvent::First => SpanEvent::RpcAttempt,
                    AttemptEvent::Retransmit => SpanEvent::RpcRetransmit,
                    AttemptEvent::Deferred => SpanEvent::RpcDeferred,
                };
                for q in live.iter().filter(|q| q.waits_on(qid)) {
                    self.pipeline.tracer.record(q.id, t, span.clone());
                }
            }
        }

        // 4. Match events back to the parts waiting on them.
        for ev in events {
            match ev {
                presto_reliability::AsyncRpcEvent::Completed {
                    query_id,
                    reply,
                    attempt_latency,
                    ..
                } => self.fill_from_reply(t, &mut live, query_id, &reply, attempt_latency),
                presto_reliability::AsyncRpcEvent::Expired { query_id, .. } => {
                    // The RPC's deadline (its issuing query's) passed in
                    // the channel. That issuing query was expired in
                    // phase 1; parts of other queries with time left
                    // re-issue a fresh RPC on the next pump.
                    self.stats.pull_failures += 1;
                    for q in live.iter_mut().filter(|q| q.waits_on(query_id)) {
                        for p in q.parts.iter_mut().filter(|p| p.rpc_qid == Some(query_id)) {
                            p.rpc_qid = None;
                        }
                        self.pipeline.tracer.record(q.id, t, SpanEvent::RpcExpired);
                    }
                }
            }
        }
        self.pipeline.pending = live;
    }

    /// Fills every part waiting on RPC `query_id` from its matched
    /// reply, and completes each query left with no unserved part, in
    /// queue order. A slice part keeps the reply's samples trimmed to
    /// its window. A pull reply a PAST query waited on lands once in
    /// the reply cache, under the RPC's window.
    fn fill_from_reply(
        &mut self,
        t: SimTime,
        live: &mut Vec<PendingQuery>,
        query_id: u64,
        reply: &UplinkMsg,
        attempt_latency: SimDuration,
    ) {
        // Fold the reply into the per-sensor cache exactly as the
        // blocking entry does.
        self.on_uplink(reply);
        let reply_latency = attempt_latency + self.reply_latency(reply.wire_bytes);
        let raw = match &reply.payload {
            UplinkPayload::PullReply { samples, .. } => Some(samples.as_slice()),
            _ => None,
        };
        // A pull reply is flattened once for every part it serves.
        let pulled: Option<Vec<(SimTime, f64)>> =
            raw.map(|r| r.iter().map(|s| (s.t, s.value)).collect());
        // The reply's re-bounded sigma at the RPC's tolerance (every
        // part on it carries the RPC's key), computed once if a slice
        // or the cache needs it.
        let mut sigma = None;
        let mut reply_sigma = |window: WindowKey| {
            *sigma.get_or_insert_with(|| {
                let tolerance = f64::from_bits(window.tol_bits);
                slice::slice_sigma(tolerance, raw.unwrap_or_default().iter().map(|s| s.quality))
            })
        };
        // The window the reply is cached under, and the instant that
        // window is complete: a slice's span end, a whole window's end.
        // Only a PAST query's part sets it; a NOW window ends at its own
        // submission instant, which no later query asks for.
        let mut cache_as = None;
        let mut i = 0;
        while i < live.len() {
            let q = &mut live[i];
            if !q.waits_on(query_id) {
                i += 1;
                continue;
            }
            q.last_reply_latency = reply_latency;
            let past = matches!(q.query, PipelineQuery::Past { .. });
            let mut whole = false;
            for p in q.parts.iter_mut().filter(|p| p.rpc_qid == Some(query_id)) {
                p.rpc_qid = None;
                if let (true, PullKey::Pull(window)) = (past, p.key) {
                    cache_as = Some((window, p.slice.map_or(window.to, |s| s.span_end)));
                }
                match p.slice {
                    Some(spec) => {
                        p.fill(pulled.as_deref().unwrap_or_default(), reply_sigma(spec.key))
                    }
                    None => {
                        whole = true;
                        p.served = true;
                    }
                }
            }
            if !q.parts.iter().all(|p| p.served) {
                i += 1;
                continue;
            }
            let q = live.remove(i);
            let answer = whole.then(|| {
                let latency = (t - q.submitted_at) + reply_latency;
                match &pulled {
                    Some(samples) => self.answer_from_samples(&q.query, samples, latency),
                    None => self.answer_from_reply(&q.query, &reply.payload, latency),
                }
            });
            self.complete_served(t, q, answer);
        }
        // `sent_at` is the sensor-side serving time: the instant the
        // samples' coverage ends.
        if let (Some((window, complete_at)), Some(samples)) = (cache_as, pulled) {
            let sigma = reply_sigma(window);
            self.pipeline
                .reply_cache
                .insert(window, complete_at, reply.sent_at, sigma, samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_net::LinkModel;
    use presto_sensor::{PushPolicy, SensorConfig};
    use presto_sim::SimRng;

    fn diurnal(t: SimTime) -> f64 {
        21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
    }

    /// A downlink channel whose first hop loses frames at `loss`.
    fn chan_with_loss(loss: f64, seed: u64) -> DownlinkChannel {
        if loss > 0.0 {
            DownlinkChannel::over(LinkModel::new(
                presto_net::LossProcess::Bernoulli(loss),
                SimRng::new(seed),
            ))
        } else {
            DownlinkChannel::perfect()
        }
    }

    fn scalar(a: PipelineAnswer) -> Answer {
        match a {
            PipelineAnswer::Scalar(a) => a,
            other => panic!("expected a scalar answer, got {other:?}"),
        }
    }

    fn series(a: PipelineAnswer) -> PastAnswer {
        match a {
            PipelineAnswer::Series(a) => a,
            other => panic!("expected a series answer, got {other:?}"),
        }
    }

    /// Answers `q` at `t` through both query entries and asserts they
    /// agree: the blocking answer equals the completion the pipeline
    /// records at submit time.
    fn both_entries(
        proxy: &mut PrestoProxy,
        t: SimTime,
        q: PipelineQuery,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> PipelineAnswer {
        let blocking = proxy.answer(t, q, node, chan);
        let ticket = proxy.submit_query(t, q);
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1, "{q:?} must complete at submit");
        assert_eq!(done[0].id, ticket);
        assert_eq!(done[0].completed_at, t);
        assert_eq!(done[0].answer, blocking, "the entries disagree on {q:?}");
        blocking
    }

    /// Runs `days` of samples through sensor + proxy with the given push
    /// policy and downlink loss, returning (proxy, node, channel).
    fn run_deployment(
        push: PushPolicy,
        days: u64,
        loss: f64,
    ) -> (PrestoProxy, SensorNode, DownlinkChannel) {
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        proxy.register_sensor(3);
        let mut node = SensorNode::new(
            3,
            SensorConfig {
                push,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut chan = chan_with_loss(loss, 9);
        let epochs = days * 86_400 / 31;
        for i in 0..epochs {
            let t = SimTime::from_secs(31 * i);
            for msg in node.on_sample(t, diurnal(t)) {
                proxy.on_uplink(&msg);
            }
            // Periodic training opportunity once per simulated hour.
            if i % 120 == 0 {
                proxy.maybe_train_and_push(t, 3, &mut node, &mut chan);
            }
        }
        (proxy, node, chan)
    }

    #[test]
    fn model_gets_trained_and_pushed() {
        let (proxy, node, _) = run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 2, 0.0);
        assert!(proxy.stats().models_pushed >= 1);
        assert!(node.has_model());
    }

    #[test]
    fn model_driven_push_quiets_the_uplink() {
        let (proxy_md, node_md, _) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 3, 0.0);
        let (_, node_stream, _) = run_deployment(
            PushPolicy::Batched {
                interval: SimDuration::from_mins(1),
                compression: None,
            },
            3,
            0.0,
        );
        // Once the model is installed the sensor barely talks; the
        // streaming sensor talks constantly.
        assert!(
            node_md.stats().bytes_sent < node_stream.stats().bytes_sent / 5,
            "model-driven {} vs streaming {}",
            node_md.stats().bytes_sent,
            node_stream.stats().bytes_sent
        );
        assert!(proxy_md.stats().samples_cached > 0);
    }

    #[test]
    fn now_query_cache_hit_on_fresh_data() {
        let (mut proxy, mut node, mut link) = run_deployment(
            PushPolicy::Batched {
                interval: SimDuration::from_secs(31),
                compression: None,
            },
            1,
            0.0,
        );
        let t = SimTime::from_days(1);
        let q = PipelineQuery::Now {
            sensor: 3,
            tolerance: 1.0,
        };
        let a = scalar(both_entries(&mut proxy, t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::CacheHit);
        assert!(a.latency < SimDuration::from_millis(5));
    }

    #[test]
    fn now_query_extrapolates_when_sensor_is_silent() {
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 3, 0.0);
        // Advance well past the last sample so the cache is stale.
        let t = SimTime::from_days(3) + SimDuration::from_mins(30);
        let q = PipelineQuery::Now {
            sensor: 3,
            tolerance: 1.5,
        };
        let a = scalar(both_entries(&mut proxy, t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::Extrapolated);
        // The answer must be within tolerance of the true diurnal value.
        assert!(
            (a.value - diurnal(t)).abs() < 1.5,
            "{} vs {}",
            a.value,
            diurnal(t)
        );
    }

    #[test]
    fn now_query_pulls_when_tolerance_is_tight() {
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 3, 0.0);
        let t = SimTime::from_days(3) + SimDuration::from_mins(30);
        // Tolerance tighter than the push tolerance: extrapolation is not
        // good enough, so the proxy must pull... but the archive has no
        // data this recent (sensor stopped sampling at day 3), so the
        // pull returns the freshest archived samples.
        let q = PipelineQuery::Now {
            sensor: 3,
            tolerance: 0.2,
        };
        let a = scalar(proxy.answer(t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::Pulled);
        assert!(proxy.stats().pulls >= 1);
        // Pull latency includes the downlink preamble (1 s LPL).
        assert!(a.latency >= SimDuration::from_secs(1));
    }

    #[test]
    fn past_query_cache_hit_under_streaming() {
        let (mut proxy, mut node, mut link) = run_deployment(
            PushPolicy::Batched {
                interval: SimDuration::from_secs(31),
                compression: None,
            },
            1,
            0.0,
        );
        let t = SimTime::from_days(1);
        let q = PipelineQuery::Past {
            sensor: 3,
            from: SimTime::from_hours(5),
            to: SimTime::from_hours(6),
            tolerance: 1.0,
        };
        let a = series(both_entries(&mut proxy, t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::CacheHit);
        assert!(a.samples.len() > 100);
    }

    #[test]
    fn past_query_pulls_from_archive_on_miss() {
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 2, 0.0);
        let t = SimTime::from_days(2);
        // Tight tolerance defeats extrapolation; the cache is sparse under
        // model-driven push, so the proxy must pull from the archive.
        let q = PipelineQuery::Past {
            sensor: 3,
            from: SimTime::from_hours(30),
            to: SimTime::from_hours(31),
            tolerance: 0.1,
        };
        let a = series(proxy.answer(t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::Pulled);
        assert!(!a.samples.is_empty());
        // Pulled values match the truth within the pull codec tolerance.
        for &(ts, v) in &a.samples {
            assert!((v - diurnal(ts)).abs() < 0.2, "{v} vs {}", diurnal(ts));
        }
    }

    #[test]
    fn past_extrapolation_covers_model_era_only() {
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 2, 0.0);
        let t = SimTime::from_days(2);
        // A range before any model was installed cannot be extrapolated.
        let q = PipelineQuery::Past {
            sensor: 3,
            from: SimTime::from_mins(10),
            to: SimTime::from_mins(40),
            tolerance: 1.5,
        };
        let a = series(proxy.answer(t, q, &mut node, &mut link));
        assert_ne!(a.source, AnswerSource::Extrapolated);
        // A later range can.
        let q = PipelineQuery::Past {
            sensor: 3,
            from: SimTime::from_hours(40),
            to: SimTime::from_hours(41),
            tolerance: 1.5,
        };
        let b = series(both_entries(&mut proxy, t, q, &mut node, &mut link));
        assert_eq!(b.source, AnswerSource::Extrapolated);
        for &(ts, v) in &b.samples {
            assert!((v - diurnal(ts)).abs() <= 1.5 + 1e-6);
        }
    }

    #[test]
    fn unregistered_sensor_fails_cleanly() {
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        let mut node = SensorNode::new(9, SensorConfig::default(), LinkModel::perfect());
        let mut chan = DownlinkChannel::perfect();
        let q = PipelineQuery::Now {
            sensor: 9,
            tolerance: 1.0,
        };
        let t = SimTime::ZERO;
        let a = scalar(both_entries(&mut proxy, t, q, &mut node, &mut chan));
        assert_eq!(a.source, AnswerSource::Failed);
    }

    #[test]
    fn lossy_downlink_retries_then_fails() {
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        proxy.register_sensor(1);
        let mut node = SensorNode::new(
            1,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut dead = chan_with_loss(1.0, 4);
        let q = PipelineQuery::Now {
            sensor: 1,
            tolerance: 0.5,
        };
        let a = scalar(proxy.answer(SimTime::from_hours(1), q, &mut node, &mut dead));
        assert_eq!(a.source, AnswerSource::Failed);
        assert_eq!(proxy.stats().pull_failures, 1);
        // The channel retried before giving up, and every timeout is in
        // the answer's latency.
        assert!(dead.stats().retransmits >= 1);
        assert!(a.latency >= SimDuration::from_secs(5));
    }

    #[test]
    fn spatial_extrapolation_answers_for_silent_sensor() {
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        for id in 0..3u16 {
            proxy.register_sensor(id);
        }
        // Feed correlated streams for sensors 0..2 via batch messages.
        let mut rng = SimRng::new(11);
        for i in 0..500u64 {
            let t = SimTime::from_secs(31 * i);
            let field = diurnal(t) + rng.gaussian_ms(0.0, 0.1);
            for id in 0..3u16 {
                let msg = UplinkMsg {
                    sensor: id,
                    sent_at: t,
                    wire_bytes: 15,
                    payload: UplinkPayload::Value {
                        value: field + id as f64 * 0.5,
                    },
                };
                proxy.on_uplink(&msg);
            }
        }
        proxy.refresh_spatial_model();
        // Sensor 2 goes silent; 0 and 1 keep reporting.
        let t = SimTime::from_secs(31 * 500);
        for id in 0..2u16 {
            proxy.on_uplink(&UplinkMsg {
                sensor: id,
                sent_at: t,
                wire_bytes: 15,
                payload: UplinkPayload::Value {
                    value: diurnal(t) + id as f64 * 0.5,
                },
            });
        }
        let mut node = SensorNode::new(
            2,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        // Kill the pull path so only spatial inference can answer. Query
        // at an instant where the target's cache is stale (93 s old,
        // beyond the 62 s freshness window) but the neighbours' entries
        // (62 s old) are still fresh.
        let mut dead = chan_with_loss(1.0, 5);
        let q = PipelineQuery::Now {
            sensor: 2,
            tolerance: 1.0,
        };
        let t_query = t + SimDuration::from_secs(62);
        let a = scalar(both_entries(&mut proxy, t_query, q, &mut node, &mut dead));
        assert_eq!(a.source, AnswerSource::SpatialExtrapolated);
        assert!((a.value - (diurnal(t) + 1.0)).abs() < 1.0, "{}", a.value);
    }

    /// A proxy whose sensor `i` has cached `streams[i]` (seconds, value),
    /// fed as value pushes.
    fn proxy_with_streams(streams: &[Vec<(u64, f64)>]) -> PrestoProxy {
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        for (id, stream) in (0u16..).zip(streams) {
            proxy.register_sensor(id);
            for &(secs, value) in stream {
                proxy.on_uplink(&UplinkMsg {
                    sensor: id,
                    sent_at: SimTime::from_secs(secs),
                    wire_bytes: 15,
                    payload: UplinkPayload::Value { value },
                });
            }
        }
        proxy
    }

    /// The reference alignment: a `latest_at` search per neighbour and
    /// one row `Vec` per aligned row. Returns the aligned row count and
    /// the model those rows train, laid out row after row for
    /// `SpatialGaussian::train`, whose own tests pin its accumulation
    /// order to a row-by-row one.
    fn reference_spatial(proxy: &PrestoProxy) -> (usize, Option<SpatialGaussian>) {
        let ids = proxy.sensor_ids();
        let max_lag = SAMPLE_PERIOD * 2;
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (t, v) in proxy.sensors[&ids[0]].cache.history_iter() {
            let mut row = vec![v];
            for &other in &ids[1..] {
                match proxy.sensors[&other].cache.latest_at(t) {
                    Some(cs) if t - cs.t <= max_lag => row.push(cs.value),
                    _ => break,
                }
            }
            if row.len() == ids.len() {
                rows.push(row);
            }
        }
        let model = if rows.len() >= 32 {
            SpatialGaussian::train(&rows.concat(), ids.len())
        } else {
            None
        };
        (rows.len(), model)
    }

    fn same_bits(got: presto_models::Prediction, want: presto_models::Prediction) {
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "value");
        assert_eq!(got.sigma.to_bits(), want.sigma.to_bits(), "sigma");
    }

    /// Refreshes a proxy over `streams` and checks its model against the
    /// reference bit for bit. Returns the aligned row count.
    fn refresh_matches_reference(streams: &[Vec<(u64, f64)>]) -> usize {
        let mut proxy = proxy_with_streams(streams);
        proxy.refresh_spatial_model();
        let (rows, want) = reference_spatial(&proxy);
        match (&proxy.spatial, &want) {
            (None, None) => {}
            (Some((got, ids)), Some(want)) => {
                assert_eq!(ids, &proxy.sensor_ids());
                let n = streams.len();
                for target in 0..n {
                    same_bits(got.marginal(target), want.marginal(target));
                    let observed: Vec<(usize, f64)> = (0..n)
                        .filter(|&i| i != target)
                        .map(|i| (i, 21.0 + 0.25 * i as f64))
                        .collect();
                    same_bits(
                        got.condition(&observed, target),
                        want.condition(&observed, target),
                    );
                    same_bits(
                        got.condition(&observed[..1], target),
                        want.condition(&observed[..1], target),
                    );
                }
            }
            (got, _) => panic!(
                "the refresh built a model: {}, the reference: {}",
                got.is_some(),
                want.is_some()
            ),
        }
        rows
    }

    #[test]
    fn spatial_refresh_matches_reference_alignment() {
        let mut rng = SimRng::new(23);
        let mut reading = |epoch: u64, sensor: u64| {
            diurnal(SimTime::from_secs(31 * epoch))
                + 0.5 * sensor as f64
                + rng.gaussian_ms(0.0, 0.2)
        };

        // Two sensors of unequal length on one 31 s grid. Sensor 1 starts
        // 5 epochs late, stops 40 early, misses 100..104 (rows 102 and
        // 103 go: 93 s and 124 s back) and 120..122 (row 121 stays: its
        // neighbour is exactly two periods back, as are rows 101 and 261).
        let s0: Vec<(u64, f64)> = (0..300)
            .filter(|e| !(50..60).contains(e))
            .map(|e| (31 * e, reading(e, 0)))
            .collect();
        let s1: Vec<(u64, f64)> = (5..260)
            .filter(|e| !(100..104).contains(e) && !(120..122).contains(e))
            .map(|e| (31 * e, reading(e, 1)))
            .collect();
        assert_eq!(
            refresh_matches_reference(&[s0.clone(), s1]),
            290 - 5 - 2 - 38
        );

        // Eight sensors, each off the grid by its own offset, starting
        // and stopping at different epochs, with random dropouts and a
        // few gaps longer than two periods.
        let mut gaps = SimRng::new(7);
        let streams: Vec<Vec<(u64, f64)>> = (0..8u64)
            .map(|s| {
                let offset = if s == 0 { 0 } else { (s * 5) % 31 };
                // Neighbours also miss `s % 4 + 1` epochs every 97.
                let in_gap = |e: u64| s > 0 && e % 97 <= s % 4;
                (3 * s..400 - 7 * s)
                    .filter(|&e| !(in_gap(e) || gaps.chance(0.1)))
                    .map(|e| (31 * e + offset, reading(e, s)))
                    .collect()
            })
            .collect();
        let rows = refresh_matches_reference(&streams);
        assert!(rows >= 32 && rows < streams[0].len(), "{rows} aligned rows");

        // Fewer than 32 aligned rows: no model is built.
        let short: Vec<(u64, f64)> = (0..20).map(|e| (31 * e, reading(e, 1))).collect();
        let rows = refresh_matches_reference(&[s0, short]);
        assert!(rows > 0 && rows < 32, "{rows} aligned rows");
    }

    #[test]
    fn pull_counters_are_disjoint_and_count_rpcs() {
        // One query pull, one aggregate pull, one recovery pull, one
        // failed query pull: `pulls` counts exactly one per query-path
        // RPC issued (success or not), `pull_failures` only the failed
        // query RPC, `recovery_pulls` only the recovery replay.
        let (mut proxy, mut node, mut chan) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 1, 0.0);
        let t = SimTime::from_days(1);
        let q = PipelineQuery::Past {
            sensor: 3,
            from: SimTime::from_hours(6),
            to: SimTime::from_hours(7),
            tolerance: 0.1,
        };
        let a = series(proxy.answer(t, q, &mut node, &mut chan));
        assert_eq!(a.source, AnswerSource::Pulled);
        assert_eq!(proxy.stats().pulls, 1);
        assert_eq!(proxy.stats().pull_failures, 0);
        assert_eq!(proxy.stats().recovery_pulls, 0);

        let q = PipelineQuery::Aggregate {
            sensor: 3,
            from: SimTime::from_hours(6),
            to: SimTime::from_hours(8),
            op: presto_sensor::AggregateOp::Mean,
        };
        let ag = scalar(proxy.answer(t, q, &mut node, &mut chan));
        assert_eq!(ag.source, AnswerSource::Pulled);
        assert_eq!(proxy.stats().pulls, 2, "aggregate RPC counts once");

        let replayed = proxy.recover_span(
            t,
            3,
            SimTime::from_hours(2),
            SimTime::from_hours(3),
            0.05,
            &mut node,
            &mut chan,
        );
        assert!(replayed.is_some());
        assert_eq!(proxy.stats().recovery_pulls, 1);
        assert_eq!(
            proxy.stats().pulls,
            2,
            "recovery must not double-count into query pulls"
        );
        assert_eq!(proxy.stats().pull_failures, 0);

        let mut dead = chan_with_loss(1.0, 77);
        let q = PipelineQuery::Past {
            sensor: 3,
            from: t - SimDuration::from_mins(30),
            to: t,
            tolerance: 0.01,
        };
        let failed = series(proxy.answer(t, q, &mut node, &mut dead));
        assert_eq!(failed.source, AnswerSource::Failed);
        assert_eq!(proxy.stats().pulls, 3, "failed RPC still counts as issued");
        assert_eq!(proxy.stats().pull_failures, 1);
        assert_eq!(proxy.stats().recovery_pulls, 1);
    }

    #[test]
    fn failed_recovery_does_not_book_query_pull_failures() {
        let (mut proxy, mut node, _) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 1, 0.0);
        let mut dead = chan_with_loss(1.0, 78);
        let out = proxy.recover_span(
            SimTime::from_days(1),
            3,
            SimTime::from_hours(2),
            SimTime::from_hours(3),
            0.05,
            &mut node,
            &mut dead,
        );
        assert!(out.is_none());
        assert_eq!(proxy.stats().recovery_pulls, 1);
        assert_eq!(proxy.stats().pulls, 0);
        assert_eq!(proxy.stats().pull_failures, 0);
    }

    #[test]
    fn aggregate_over_aged_rows_reports_honest_sigma() {
        // Tiny archive so early data ages into wavelet summaries, then
        // aggregate over the aged span: the answer must not claim
        // sigma = 0.
        let mut node = SensorNode::new(
            3,
            SensorConfig {
                push: PushPolicy::Silent,
                archive: presto_archive::ArchiveConfig {
                    capacity_bytes: 8 * 1024,
                    ..presto_archive::ArchiveConfig::default()
                },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        proxy.register_sensor(3);
        let mut chan = DownlinkChannel::perfect();
        let mut t = SimTime::ZERO;
        for i in 0..4000u64 {
            t = SimTime::from_secs(31 * i);
            node.on_sample(t, diurnal(t));
        }
        let q = PipelineQuery::Aggregate {
            sensor: 3,
            from: SimTime::ZERO,
            to: SimTime::from_hours(2),
            op: presto_sensor::AggregateOp::Mean,
        };
        let a = scalar(proxy.answer(t, q, &mut node, &mut chan));
        assert_eq!(a.source, AnswerSource::Pulled);
        assert!(
            a.sigma > 0.0 && a.sigma.is_finite(),
            "aged aggregate claimed sigma {}",
            a.sigma
        );
    }

    #[test]
    fn aggregate_cache_hit_under_streaming() {
        let (mut proxy, mut node, mut link) = run_deployment(
            PushPolicy::Batched {
                interval: SimDuration::from_secs(31),
                compression: None,
            },
            1,
            0.0,
        );
        let t = SimTime::from_days(1);
        let q = PipelineQuery::Aggregate {
            sensor: 3,
            from: SimTime::from_hours(10),
            to: SimTime::from_hours(12),
            op: presto_sensor::AggregateOp::Mean,
        };
        let a = scalar(both_entries(&mut proxy, t, q, &mut node, &mut link));
        assert_eq!(a.source, AnswerSource::CacheHit);
        // Mean of the diurnal curve over 10:00–12:00 sits between the
        // curve endpoints.
        let lo = diurnal(SimTime::from_hours(10));
        let hi = diurnal(SimTime::from_hours(12));
        assert!(
            a.value >= lo.min(hi) - 0.1 && a.value <= lo.max(hi) + 0.1,
            "mean {} outside [{lo}, {hi}]",
            a.value
        );
    }

    /// A silent sensor with ~200 archived samples plus a proxy whose
    /// radio-free fast paths are disabled (empty cache, no model,
    /// impossible coverage threshold), so every pipeline query takes
    /// the pull path.
    fn pipeline_rig(loss: f64, seed: u64) -> (PrestoProxy, SensorNode, DownlinkChannel) {
        let mut proxy = PrestoProxy::new(ProxyConfig {
            past_coverage_hit: f64::INFINITY,
            ..ProxyConfig::default()
        });
        proxy.register_sensor(0);
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        for i in 0..200u64 {
            node.on_sample(SimTime::from_secs(31 * i), diurnal(SimTime::from_secs(31 * i)));
        }
        (proxy, node, chan_with_loss(loss, seed))
    }

    /// One pipeline tick over a rig's single sensor (gid 0).
    fn pump(
        proxy: &mut PrestoProxy,
        t: SimTime,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) {
        proxy.pump_queries_view(t, &mut [PumpSensor { gid: 0, node, chan }]);
    }

    fn past(from_s: u64, to_s: u64, tolerance: f64) -> PipelineQuery {
        PipelineQuery::Past {
            sensor: 0,
            from: SimTime::from_secs(from_s),
            to: SimTime::from_secs(to_s),
            tolerance,
        }
    }

    #[test]
    fn pipeline_coalesces_identical_windows_into_one_pull() {
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 1);
        let t = SimTime::from_secs(31 * 210);
        // Three users ask the same window, two ask another.
        for _ in 0..3 {
            proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        }
        for _ in 0..2 {
            proxy.submit_query(t, past(31 * 100, 31 * 150, 0.3));
        }
        assert_eq!(proxy.pipeline().pending_queries(), 5);
        pump(&mut proxy, t, &mut node, &mut chan);
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 5, "all coalesced queries complete from one reply");
        for c in &done {
            assert_eq!(c.answer.source(), AnswerSource::Pulled);
        }
        // Identical windows shared one RPC: two pulls on the wire, two
        // flash serves at the sensor, three coalesced riders.
        assert_eq!(proxy.stats().pulls, 2);
        assert_eq!(node.stats().pulls_served, 2);
        let ps = proxy.pipeline().stats();
        assert_eq!(ps.rpcs_issued, 2);
        assert_eq!(ps.coalesced, 3);
        assert_eq!(ps.max_in_flight, 2, "both RPCs overlapped in flight");
        // Bookkeeping: nothing leaks after completion.
        assert_eq!(proxy.pipeline().pending_queries(), 0);
        assert_eq!(chan.async_in_flight(), 0);
        // Coalesced answers are identical to each other.
        let a0 = &done[0].answer;
        let a1 = &done[1].answer;
        match (a0, a1) {
            (PipelineAnswer::Series(x), PipelineAnswer::Series(y)) => {
                assert_eq!(x.samples, y.samples);
            }
            _ => panic!("past queries produce series"),
        }
    }

    #[test]
    fn pipeline_reply_cache_serves_repeat_window_without_radio() {
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 2);
        let t = SimTime::from_secs(31 * 210);
        proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        pump(&mut proxy, t, &mut node, &mut chan);
        let first = proxy.take_completed_queries().remove(0);
        let pulls_after_first = proxy.stats().pulls;
        // A later user asks the same window: served from the shared
        // reply cache, zero radio work.
        let t2 = t + SimDuration::from_mins(5);
        proxy.submit_query(t2, past(31 * 10, 31 * 60, 0.3));
        let second = proxy.take_completed_queries().remove(0);
        assert_eq!(proxy.stats().pulls, pulls_after_first, "no new RPC");
        assert_eq!(proxy.pipeline().stats().completed_cached, 1);
        assert_eq!(proxy.pipeline().reply_cache().hits(), 1);
        match (&first.answer, &second.answer) {
            (PipelineAnswer::Series(x), PipelineAnswer::Series(y)) => {
                assert_eq!(x.samples, y.samples, "cache serves the identical reply");
            }
            _ => panic!("past queries produce series"),
        }
    }

    #[test]
    fn now_pulls_leave_the_reply_cache_alone() {
        // A NOW pull's window ends at its own submission instant, which
        // no later query asks for: the query neither looks the cache up
        // nor leaves its reply there.
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 6);
        let t = SimTime::from_secs(31 * 210);
        let now = PipelineQuery::Now {
            sensor: 0,
            tolerance: 0.3,
        };
        proxy.submit_query(t, now);
        assert_eq!(proxy.pipeline().pending_queries(), 1, "the NOW query pulls");
        pump(&mut proxy, t, &mut node, &mut chan);
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].answer.source(), AnswerSource::Pulled);
        let s = proxy.pipeline().reply_cache().stats();
        assert_eq!((s.lookups, s.inserts), (0, 0));
    }

    #[test]
    fn pipeline_reply_cache_rejects_stale_coverage_regression() {
        // Regression for the staleness boundary: a cached reply must
        // not serve a query whose window extends past the reply's
        // coverage. Window [3100 s, 12400 s] is pulled while its end is
        // still in the future (t = 6200 s): the reply covers only what
        // was archived by then, so it is never cached. After the sensor
        // archives through the window's end, a repeat query over the
        // same window must take a fresh pull — serving the first reply
        // would silently drop the newer half.
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 3);
        let open_window = past(3_100, 12_400, 0.3);
        let t1 = SimTime::from_secs(6_200);
        proxy.submit_query(t1, open_window);
        pump(&mut proxy, t1, &mut node, &mut chan);
        let first = proxy.take_completed_queries().remove(0);
        let first_n = match &first.answer {
            PipelineAnswer::Series(a) => {
                assert_eq!(a.source, AnswerSource::Pulled);
                a.samples.len()
            }
            _ => panic!("past query produces a series"),
        };
        // The sensor keeps sampling through the window's end.
        for i in 200..500u64 {
            let ts = SimTime::from_secs(31 * i);
            node.on_sample(ts, diurnal(ts));
        }
        let t2 = SimTime::from_secs(31 * 500);
        proxy.submit_query(t2, open_window);
        assert_eq!(
            proxy.pipeline().pending_queries(),
            1,
            "stale cached reply must not serve the repeat query"
        );
        assert_eq!(proxy.pipeline().reply_cache().stats().incomplete_skips, 1);
        pump(&mut proxy, t2, &mut node, &mut chan);
        let second = proxy.take_completed_queries().remove(0);
        match &second.answer {
            PipelineAnswer::Series(a) => {
                assert_eq!(a.source, AnswerSource::Pulled);
                assert!(
                    a.samples.len() > first_n,
                    "fresh pull must cover the newer span: {} vs {first_n}",
                    a.samples.len()
                );
                let last = a.samples.last().expect("non-empty").0;
                assert!(last > SimTime::from_secs(6_200), "newer half missing");
            }
            _ => panic!("past query produces a series"),
        }
    }

    #[test]
    fn pipeline_deadline_fails_honestly_and_leaves_no_leaks() {
        let (mut proxy, mut node, mut chan) = pipeline_rig(1.0, 4);
        let t0 = SimTime::from_secs(31 * 210);
        let deadline = DEFAULT_DEADLINE;
        for i in 0..4u64 {
            proxy.submit_query(t0, past(31 * 10 * (i + 1), 31 * 10 * (i + 2), 0.3));
        }
        // Pump epoch by epoch until past the deadline.
        let epochs = deadline.div_duration(SimDuration::from_secs(31)) + 2;
        for e in 0..epochs {
            let t = t0 + SimDuration::from_secs(31) * e;
            pump(&mut proxy, t, &mut node, &mut chan);
        }
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 4, "every query terminates by its deadline");
        for c in &done {
            match &c.answer {
                PipelineAnswer::Series(a) => assert_eq!(a.source, AnswerSource::Failed),
                PipelineAnswer::Scalar(a) => {
                    assert_eq!(a.source, AnswerSource::Failed);
                    assert!(a.sigma.is_infinite());
                }
            }
            assert!(c.completed_at <= c.submitted_at + deadline + SimDuration::from_secs(31));
        }
        // Bookkeeping: no leaked PendingQuery or pending-RPC entries.
        assert_eq!(proxy.pipeline().pending_queries(), 0);
        assert_eq!(chan.async_in_flight(), 0);
        assert!(proxy.stats().pull_failures >= 4);
    }

    #[test]
    fn pipeline_pull_counters_stay_disjoint_under_concurrency() {
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 5);
        let t = SimTime::from_secs(31 * 210);
        // Two pipeline pulls in flight plus a recovery replay.
        proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        proxy.submit_query(
            t,
            PipelineQuery::Aggregate {
                sensor: 0,
                from: SimTime::from_secs(31 * 10),
                to: SimTime::from_secs(31 * 120),
                op: presto_sensor::AggregateOp::Mean,
            },
        );
        pump(&mut proxy, t, &mut node, &mut chan);
        let replayed = proxy.recover_span(
            t,
            0,
            SimTime::from_secs(31 * 100),
            SimTime::from_secs(31 * 150),
            0.05,
            &mut node,
            &mut chan,
        );
        assert!(replayed.is_some());
        assert_eq!(proxy.stats().pulls, 2, "one per pipeline RPC issued");
        assert_eq!(proxy.stats().recovery_pulls, 1);
        assert_eq!(proxy.stats().pull_failures, 0);
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.answer.source() == AnswerSource::Pulled));
    }

    #[test]
    fn recovery_resyncs_the_replica_instead_of_dropping_it() {
        // Two days of model-driven push: a model is trained and pushed.
        let (mut proxy, mut node, mut chan) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 2, 0.0);
        assert!(proxy.stats().models_pushed >= 1);
        let t = SimTime::from_days(2);
        // Repair a span (as the gap tracker would after lost pushes).
        let replayed = proxy.recover_span(
            t,
            3,
            t - SimDuration::from_hours(2),
            t,
            0.05,
            &mut node,
            &mut chan,
        );
        assert!(replayed.expect("repair succeeds") > 100);
        assert_eq!(proxy.stats().replica_resyncs, 1, "replica resynced");
        // The model survived: a NOW query past cache freshness is still
        // answered by extrapolation (the old fence dropped the replica
        // and forced a pull here), and stays within the push tolerance.
        let t2 = t + SimDuration::from_mins(5);
        let q = PipelineQuery::Now {
            sensor: 3,
            tolerance: 1.0,
        };
        let a = scalar(proxy.answer(t2, q, &mut node, &mut chan));
        assert_eq!(a.source, AnswerSource::Extrapolated, "model kept");
        assert!((a.value - diurnal(t2)).abs() < 1.5, "{} vs {}", a.value, diurnal(t2));
    }

    #[test]
    fn per_query_deadline_overrides_the_pipeline_default() {
        // Total loss: nothing can complete, so deadlines decide.
        let (mut proxy, mut node, mut chan) = pipeline_rig(1.0, 11);
        let t0 = SimTime::from_secs(31 * 210);
        let tight = proxy.submit_query_with_deadline(
            t0,
            past(31 * 10, 31 * 60, 0.3),
            Some(SimDuration::from_secs(60)),
        );
        let loose = proxy.submit_query(t0, past(31 * 70, 31 * 120, 0.3));
        // Two epochs (~62 s) later the tight query has failed honestly;
        // the default-deadline query is still pending.
        for e in 0..3u64 {
            let t = t0 + SimDuration::from_secs(31) * e;
            pump(&mut proxy, t, &mut node, &mut chan);
        }
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, tight);
        assert_eq!(done[0].answer.source(), AnswerSource::Failed);
        assert!(done[0].completed_at <= t0 + SimDuration::from_secs(93));
        assert_eq!(proxy.pipeline().pending_queries(), 1);
        // The loose query runs to the default deadline, then fails too.
        let deadline = DEFAULT_DEADLINE;
        let epochs = deadline.div_duration(SimDuration::from_secs(31)) + 2;
        for e in 0..epochs {
            let t = t0 + SimDuration::from_secs(31) * e;
            pump(&mut proxy, t, &mut node, &mut chan);
        }
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, loose);
        assert_eq!(proxy.pipeline().pending_queries(), 0);
        assert_eq!(chan.async_in_flight(), 0);
    }

    #[test]
    fn pump_view_serves_non_contiguous_sensor_ids() {
        // A proxy serving an arbitrary sensor set (as after adopting a
        // crashed peer's cluster): gid 9 with no gid 0..8 anywhere.
        let mut proxy = PrestoProxy::new(ProxyConfig {
            past_coverage_hit: f64::INFINITY,
            ..ProxyConfig::default()
        });
        proxy.register_sensor(9);
        let mut node = SensorNode::new(
            9,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        for i in 0..200u64 {
            node.on_sample(SimTime::from_secs(31 * i), diurnal(SimTime::from_secs(31 * i)));
        }
        let mut chan = DownlinkChannel::perfect();
        let t = SimTime::from_secs(31 * 210);
        proxy.submit_query(
            t,
            PipelineQuery::Past {
                sensor: 9,
                from: SimTime::from_secs(31 * 10),
                to: SimTime::from_secs(31 * 60),
                tolerance: 0.3,
            },
        );
        let mut view = [PumpSensor {
            gid: 9,
            node: &mut node,
            chan: &mut chan,
        }];
        proxy.pump_queries_view(t, &mut view);
        let done = proxy.take_completed_queries();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].answer.source(), AnswerSource::Pulled);
        assert_eq!(proxy.pipeline().last_pump_attempts, 1);
    }

    #[test]
    fn crash_reset_wipes_query_state_and_caches() {
        let (mut proxy, mut node, mut chan) = pipeline_rig(0.0, 12);
        let t = SimTime::from_secs(31 * 210);
        proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        pump(&mut proxy, t, &mut node, &mut chan);
        // A repeat of the pulled window hits the reply cache.
        proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        // Two answers completed (uncollected), one fresh query pending.
        proxy.submit_query(t, past(31 * 70, 31 * 120, 0.3));
        assert_eq!(proxy.pipeline().pending_queries(), 1);
        assert!(!proxy.cache(0).expect("registered").is_empty());
        let counters = proxy.pipeline().reply_cache().stats();
        assert_eq!(counters.hits, 1, "repeat window must hit before the crash");
        let dropped = proxy.crash_reset();
        assert_eq!(dropped, 3);
        assert_eq!(proxy.pipeline().pending_queries(), 0);
        assert!(proxy.take_completed_queries().is_empty());
        assert!(proxy.cache(0).expect("registered").is_empty());
        // Counters are instrumentation, not process state: they survive.
        assert_eq!(proxy.pipeline().reply_cache().stats(), counters);
        // The channel's proxy half is cleared by its own reset (the
        // only RPC here completed before the crash, so nothing to drop).
        assert_eq!(chan.reset_proxy_state(), 0);
        assert_eq!(chan.async_in_flight(), 0);
        // The cached reply died with the crash: the repeat window that
        // hit it before now queues for the radio.
        proxy.submit_query(t, past(31 * 10, 31 * 60, 0.3));
        assert_eq!(proxy.pipeline().pending_queries(), 1);
    }

    #[test]
    fn aggregate_ships_operator_on_cache_miss() {
        // Model-driven push leaves the cache sparse, so the operator is
        // evaluated at the sensor and only a scalar returns.
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 1, 0.0);
        let t = SimTime::from_days(1);
        let before = node.stats().bytes_sent;
        let q = PipelineQuery::Aggregate {
            sensor: 3,
            from: SimTime::from_hours(6),
            to: SimTime::from_hours(12),
            op: presto_sensor::AggregateOp::Max,
        };
        let a = scalar(proxy.answer(t, q, &mut node, &mut link));
        let reply_bytes = node.stats().bytes_sent - before;
        assert_eq!(a.source, AnswerSource::Pulled);
        assert!(a.value.is_finite());
        // Six hours of data (≈700 samples) crossed the radio as ~23 B.
        assert!(reply_bytes < 40, "{reply_bytes} bytes");
        // Truth check against the generator.
        let mut truth = f64::NEG_INFINITY;
        let mut ts = SimTime::from_hours(6);
        while ts <= SimTime::from_hours(12) {
            truth = truth.max(diurnal(ts));
            ts += SimDuration::from_secs(31);
        }
        assert!((a.value - truth).abs() < 0.05, "{} vs {truth}", a.value);
    }
}
