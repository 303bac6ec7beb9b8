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
use presto_sim::{EnergyLedger, SimDuration, SimTime};
use presto_telemetry::{CompletionCause, SpanEvent};

use presto_sensor::{DownlinkMsg, SensorNode, UplinkMsg, UplinkPayload};

use crate::cache::{CacheSource, CachedEvent, CachedSample, EventCache, SensorCache};
use crate::engine::{EngineConfig, ModelSlot, PredictionEngine};
use crate::pipeline::{
    op_key, CompletedQuery, PendingQuery, PipelineAnswer, PipelineConfig, PipelineQuery,
    PullKey, QueryPipeline, SlicePart,
};
use crate::slice;

/// Proxy configuration.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// Proxy id (for multi-proxy deployments).
    pub id: usize,
    /// Prediction engine configuration.
    pub engine: EngineConfig,
    /// Cache capacity per sensor, in samples.
    pub cache_capacity: usize,
    /// Age below which a cached sample answers a NOW query outright.
    pub freshness: SimDuration,
    /// Sensor sampling period (for coverage computations).
    pub sample_period: SimDuration,
    /// The push tolerance configured at the sensors (the extrapolation
    /// error bound under model-driven push).
    pub push_tolerance: f64,
    /// Radio model for the downlink MAC.
    pub radio: presto_net::RadioModel,
    /// Frame format for the downlink MAC.
    pub frame: presto_net::FrameFormat,
    /// The sensors' LPL check interval (downlink preamble length).
    pub sensor_lpl: SimDuration,
    /// Required cache coverage for a PAST-query cache hit.
    pub past_coverage_hit: f64,
    /// Event cache capacity, in events (oldest evict first).
    pub event_capacity: usize,
    /// Asynchronous query pipeline parameters.
    pub pipeline: PipelineConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            id: 0,
            engine: EngineConfig::default(),
            cache_capacity: 50_000,
            freshness: SimDuration::from_secs(62),
            sample_period: SimDuration::from_secs(31),
            push_tolerance: 1.0,
            radio: presto_net::RadioModel::mica2(),
            frame: presto_net::FrameFormat::tinyos_mica2(),
            sensor_lpl: SimDuration::from_secs(1),
            past_coverage_hit: 0.9,
            event_capacity: 100_000,
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

impl ProxyStats {
    /// Accumulates another proxy's counters (fleet aggregation).
    pub fn merge(&mut self, other: &ProxyStats) {
        self.uplinks += other.uplinks;
        self.samples_cached += other.samples_cached;
        self.events_cached += other.events_cached;
        self.now_queries += other.now_queries;
        self.past_queries += other.past_queries;
        self.cache_hits += other.cache_hits;
        self.extrapolations += other.extrapolations;
        self.spatial_extrapolations += other.spatial_extrapolations;
        self.pulls += other.pulls;
        self.pull_failures += other.pull_failures;
        self.models_pushed += other.models_pushed;
        self.retunes_pushed += other.retunes_pushed;
        self.recovery_pulls += other.recovery_pulls;
        self.replica_resyncs += other.replica_resyncs;
    }
}

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
    /// Sealed-segment spans reported by sensors, awaiting registration
    /// in the deployment's time-range index (drained by the system
    /// tier, which owns that index).
    sealed_spans: Vec<(u16, SimTime, SimTime)>,
    spatial: Option<(SpatialGaussian, Vec<u16>)>,
    ledger: EnergyLedger,
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
        let downlink = Mac::downlink(
            config.radio.clone(),
            config.frame.clone(),
            config.sensor_lpl,
        );
        PrestoProxy {
            engine,
            downlink,
            sensors: BTreeMap::new(),
            events: EventCache::new(config.event_capacity),
            events_span: None,
            sealed_spans: Vec::new(),
            spatial: None,
            ledger: EnergyLedger::new(),
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

    /// The proxy's energy ledger (tethered, but still tracked).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Mutable ledger access, used by sensor uplink MACs to charge the
    /// proxy's reception energy.
    pub fn ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.ledger
    }

    /// Counters.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// The prediction engine (e.g. for E7 cycle accounting).
    pub fn engine(&self) -> &PredictionEngine {
        &self.engine
    }

    /// The time-indexed event cache.
    pub fn events(&self) -> &EventCache {
        &self.events
    }

    /// `[min, max]` timestamp over cached events, `None` when empty.
    pub fn events_span(&self) -> Option<(SimTime, SimTime)> {
        self.events_span
    }

    /// Drains sealed-segment spans reported by sensors since the last
    /// call, for registration in the deployment time-range index.
    pub fn take_sealed_spans(&mut self) -> Vec<(u16, SimTime, SimTime)> {
        std::mem::take(&mut self.sealed_spans)
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
                for &(t, v) in samples {
                    slot.cache.insert(CachedSample {
                        t,
                        value: v,
                        source: CacheSource::Batch,
                    });
                }
                self.stats.samples_cached += samples.len() as u64;
            }
            UplinkPayload::Event { event_type, data } => {
                self.events.insert(CachedEvent {
                    t: msg.sent_at,
                    sensor: msg.sensor,
                    event_type: *event_type,
                    // Arc bump, not a byte copy: the cache shares the
                    // uplink's allocation.
                    data: std::sync::Arc::clone(data),
                });
                self.events_span = Some(match self.events_span {
                    None => (msg.sent_at, msg.sent_at),
                    Some((a, b)) => (a.min(msg.sent_at), b.max(msg.sent_at)),
                });
                self.stats.events_cached += 1;
            }
            UplinkPayload::PullReply { samples, .. } => {
                for s in samples {
                    slot.cache.insert(CachedSample {
                        t: s.t,
                        value: s.value,
                        source: CacheSource::Pulled,
                    });
                }
                self.stats.samples_cached += samples.len() as u64;
            }
            UplinkPayload::AggregateReply { .. } => {
                // Scalar result; nothing to cache (the consuming query
                // takes it straight from the reply).
                slot.cache.last_heard = Some(
                    slot.cache
                        .last_heard
                        .map_or(msg.sent_at, |h| h.max(msg.sent_at)),
                );
            }
            UplinkPayload::Heartbeat { .. } => {
                // Pure lease renewal: record the contact, cache nothing.
                slot.cache.last_heard = Some(
                    slot.cache
                        .last_heard
                        .map_or(msg.sent_at, |h| h.max(msg.sent_at)),
                );
            }
            UplinkPayload::SegmentSeal { start, end } => {
                slot.cache.last_heard = Some(
                    slot.cache
                        .last_heard
                        .map_or(msg.sent_at, |h| h.max(msg.sent_at)),
                );
                self.sealed_spans.push((msg.sensor, *start, *end));
            }
        }
    }

    /// Runs a fabric-routed RPC towards a sensor: the request rides the
    /// sequenced, ack/retransmit [`DownlinkChannel`] (first-hop MAC
    /// energy billed to this proxy's ledger, retransmissions metered by
    /// the channel's retry budget), and any matched reply is folded into
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
        let outcome = chan.rpc(t, msg, node, &self.downlink, &mut self.ledger);
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
        let trained = self
            .engine
            .train(&history, t, prev_version, &mut self.ledger);
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

    /// Trains the spatial model from aligned cached rows of all sensors.
    pub fn refresh_spatial_model(&mut self) {
        let ids = self.sensor_ids();
        if ids.len() < 2 {
            return;
        }
        // Align on the timestamps of the first sensor's cache.
        let Some(first) = self.sensors.get(&ids[0]) else {
            return;
        };
        let mut rows = Vec::new();
        for s in first.cache.history_iter() {
            let mut row = Vec::with_capacity(ids.len());
            row.push(s.1);
            let mut complete = true;
            for &other in &ids[1..] {
                let slot = &self.sensors[&other];
                match slot.cache.latest_at(s.0) {
                    Some(cs) if s.0 - cs.t <= self.config.sample_period * 2 => {
                        row.push(cs.value);
                    }
                    _ => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                rows.push(row);
            }
        }
        if rows.len() >= 32 {
            self.spatial = self
                .engine
                .train_spatial(&rows, &mut self.ledger)
                .map(|g| (g, ids));
        }
    }

    /// Estimated uplink latency for a reply of `bytes` payload bytes.
    fn reply_latency(&self, bytes: usize) -> SimDuration {
        let frames = self.config.frame.frames_for(bytes) as u64;
        let wire = self.config.frame.wire_bytes(bytes) + 6 * frames as usize;
        self.config.radio.airtime(wire) + SimDuration::from_millis(2) * frames
    }

    /// Fast, radio-free NOW paths — cache hit → temporal extrapolation
    /// → spatial conditioning — shared by the blocking query path and
    /// the asynchronous pipeline. `None` means only a pull can answer.
    fn try_now_fast(&mut self, t: SimTime, sensor: u16, tolerance: f64) -> Option<Answer> {
        let slot = self.sensors.get(&sensor)?;

        // 1. Fresh cached sample.
        if let Some(s) = slot.cache.latest() {
            if t - s.t <= self.config.freshness {
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
                        if t - cs.t <= self.config.freshness {
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

    /// Answers a NOW query for one sensor: cache hit → extrapolation →
    /// spatial → pull.
    pub fn answer_now(
        &mut self,
        t: SimTime,
        sensor: u16,
        tolerance: f64,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> Answer {
        self.stats.now_queries += 1;
        if !self.sensors.contains_key(&sensor) {
            return Answer {
                value: 0.0,
                sigma: f64::INFINITY,
                source: AnswerSource::Failed,
                latency: SimDuration::ZERO,
                data_through: None,
            };
        }
        if let Some(a) = self.try_now_fast(t, sensor, tolerance) {
            return a;
        }

        // 4. Miss-triggered pull of the most recent archive contents.
        let (reply, latency) = self.pull(
            t,
            sensor,
            t - self.config.sample_period * 3,
            t,
            tolerance,
            node,
            chan,
        );
        match reply.as_deref().and_then(<[_]>::last) {
            Some(&(stamp, value)) => Answer {
                value,
                sigma: tolerance / 2.0,
                source: AnswerSource::Pulled,
                latency,
                data_through: Some(stamp),
            },
            _ => {
                // Best effort: stale cache or model, flagged as failed.
                let slot = &self.sensors[&sensor];
                let (value, sigma) = slot
                    .cache
                    .latest()
                    .map(|s| (s.value, f64::INFINITY))
                    .unwrap_or((0.0, f64::INFINITY));
                Answer {
                    value,
                    sigma,
                    source: AnswerSource::Failed,
                    latency,
                    data_through: None,
                }
            }
        }
    }

    /// Fast, radio-free PAST paths — dense cache coverage → model-era
    /// extrapolation — shared by the blocking query path and the
    /// asynchronous pipeline. `None` means only a pull can answer.
    fn try_past_fast(
        &mut self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
    ) -> Option<PastAnswer> {
        let slot = self.sensors.get(&sensor)?;

        // 1. Dense cache coverage.
        let coverage = slot.cache.coverage(from, to, self.config.sample_period);
        if coverage >= self.config.past_coverage_hit {
            self.stats.cache_hits += 1;
            return Some(PastAnswer {
                samples: slot
                    .cache
                    .range(from, to)
                    .into_iter()
                    .map(|s| (s.t, s.value))
                    .collect(),
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
                let anchors = slot.cache.range(installed, to);
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
                    ts += self.config.sample_period;
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

    /// Answers a PAST query: cache coverage → extrapolation (model
    /// guarantee over the range) → archive pull.
    #[allow(clippy::too_many_arguments)]
    pub fn answer_past(
        &mut self,
        t: SimTime,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> PastAnswer {
        self.stats.past_queries += 1;
        if !self.sensors.contains_key(&sensor) {
            return PastAnswer {
                samples: Vec::new(),
                source: AnswerSource::Failed,
                latency: SimDuration::ZERO,
            };
        }
        if let Some(a) = self.try_past_fast(sensor, from, to, tolerance) {
            return a;
        }

        // 3. Pull from the sensor's archive.
        let (reply, latency) = self.pull(t, sensor, from, to, tolerance, node, chan);
        match reply {
            Some(samples) if !samples.is_empty() => PastAnswer {
                samples,
                source: AnswerSource::Pulled,
                latency,
            },
            _ => PastAnswer {
                samples: self.sensors[&sensor]
                    .cache
                    .range(from, to)
                    .into_iter()
                    .map(|s| (s.t, s.value))
                    .collect(),
                source: AnswerSource::Failed,
                latency,
            },
        }
    }

    /// Fast, radio-free aggregate path (dense cache coverage), shared
    /// by the blocking query path and the asynchronous pipeline.
    fn try_aggregate_fast(
        &mut self,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        op: presto_sensor::AggregateOp,
    ) -> Option<Answer> {
        let slot = self.sensors.get(&sensor)?;
        let coverage = slot.cache.coverage(from, to, self.config.sample_period);
        if coverage >= self.config.past_coverage_hit {
            let values: Vec<f64> = slot
                .cache
                .range(from, to)
                .into_iter()
                .map(|s| s.value)
                .collect();
            self.stats.cache_hits += 1;
            return Some(Answer {
                value: presto_sensor::evaluate_aggregate(op, &values),
                sigma: 0.0,
                source: AnswerSource::CacheHit,
                latency: SimDuration::from_millis(2),
                data_through: Some(to),
            });
        }
        None
    }

    /// Answers an aggregate PAST query: computed from the cache when
    /// coverage allows, otherwise evaluated *at the sensor* over its
    /// archive so only the scalar result crosses the radio (paper §3's
    /// "mode of vibration" example).
    #[allow(clippy::too_many_arguments)]
    pub fn answer_aggregate(
        &mut self,
        t: SimTime,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        op: presto_sensor::AggregateOp,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> Answer {
        self.stats.past_queries += 1;
        if !self.sensors.contains_key(&sensor) {
            return Answer {
                value: f64::NAN,
                sigma: f64::INFINITY,
                source: AnswerSource::Failed,
                latency: SimDuration::ZERO,
                data_through: None,
            };
        }
        // Dense cache coverage: aggregate locally.
        if let Some(a) = self.try_aggregate_fast(sensor, from, to, op) {
            return a;
        }

        // Ship the operator to the sensor. One RPC — the downlink
        // channel owns retransmission — counted when issued, not when it
        // happens to succeed, so `pulls` means attempts-per-RPC on every
        // path.
        self.stats.pulls += 1;
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        let msg = DownlinkMsg::AggregateRequest {
            query_id,
            from,
            to,
            op,
        };
        let out = self.rpc(t, &msg, node, chan);
        let mut latency = out.latency;
        if let Some(r) = out.reply {
            if let UplinkPayload::AggregateReply {
                value,
                count,
                sigma,
                ..
            } = &r.payload
            {
                latency += self.reply_latency(r.wire_bytes);
                if *count == 0 {
                    // The sensor aggregated nothing: the reply carries
                    // no information, and an answer that carries no
                    // data is a failure, not an Ok with no age — the
                    // Ok set and the has-age set must coincide.
                    return Answer {
                        value: *value,
                        sigma: f64::INFINITY,
                        source: AnswerSource::Failed,
                        latency,
                        data_through: None,
                    };
                }
                return Answer {
                    value: *value,
                    // The sensor derives the bound from the codec/aging
                    // error of the rows it aggregated.
                    sigma: *sigma,
                    source: AnswerSource::Pulled,
                    latency,
                    data_through: Some(to),
                };
            }
        }
        self.stats.pull_failures += 1;
        Answer {
            value: f64::NAN,
            sigma: f64::INFINITY,
            source: AnswerSource::Failed,
            latency,
            data_through: None,
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
        let (reply, _) = self.pull_inner(t, sensor, from, to, tolerance, node, chan, false);
        if let Some(samples) = &reply {
            // Replica-divergence repair: the repaired gap may have held
            // deviation pushes the sensor's replica observed and ours
            // never saw, after which "silence means within tolerance"
            // would be silently false. Instead of dropping the model
            // and waiting for the next train-and-push, resynchronize it
            // from the replayed samples themselves.
            self.resync_replica(sensor, samples);
        }
        reply.map(|samples| samples.len())
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

    /// Issues a query-path pull; integrates the reply into the cache.
    #[allow(clippy::too_many_arguments)]
    fn pull(
        &mut self,
        t: SimTime,
        sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
    ) -> (Option<Vec<(SimTime, f64)>>, SimDuration) {
        self.pull_inner(t, sensor, from, to, tolerance, node, chan, true)
    }

    /// One fabric-routed pull RPC. Retransmission lives in the downlink
    /// channel, so this issues exactly one RPC; `count_as_query` selects
    /// whether it books into the query-path `pulls`/`pull_failures`
    /// counters (recovery replays keep their own disjoint counter).
    #[allow(clippy::too_many_arguments)]
    fn pull_inner(
        &mut self,
        t: SimTime,
        _sensor: u16,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
        node: &mut SensorNode,
        chan: &mut DownlinkChannel,
        count_as_query: bool,
    ) -> (Option<Vec<(SimTime, f64)>>, SimDuration) {
        if count_as_query {
            self.stats.pulls += 1;
        }
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        let msg = DownlinkMsg::PullRequest {
            query_id,
            from,
            to,
            tolerance,
        };
        let out = self.rpc(t, &msg, node, chan);
        let mut latency = out.latency;
        if let Some(r) = out.reply {
            if let UplinkPayload::PullReply { samples, .. } = &r.payload {
                latency += self.reply_latency(r.wire_bytes);
                return (
                    Some(samples.iter().map(|s| (s.t, s.value)).collect()),
                    latency,
                );
            }
        }
        if count_as_query {
            self.stats.pull_failures += 1;
        }
        (None, latency)
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
    /// and the shared pull-reply cache die with the process. Per-sensor
    /// caches and model replicas die too — a rebooted or succeeding
    /// proxy rebuilds them from pushes, pulls, and recovery replays.
    /// Counters survive (they are measurement instrumentation, not
    /// system state). Returns the number of queries dropped.
    pub fn crash_reset(&mut self) -> usize {
        let dropped = self.pipeline.pending.len() + self.pipeline.completed.len();
        self.pipeline.pending.clear();
        self.pipeline.completed.clear();
        // Cached replies and slices are RAM state and die with the
        // crash; both caches' counters are measurement instrumentation
        // and survive.
        self.pipeline.reply_cache.clear();
        self.pipeline.slice_cache.clear();
        for slot in self.sensors.values_mut() {
            slot.cache = SensorCache::new(self.config.cache_capacity);
            slot.model = None;
            slot.model_installed_at = None;
        }
        self.events = EventCache::new(self.config.event_capacity);
        self.events_span = None;
        self.sealed_spans.clear();
        self.spatial = None;
        // RAM-resident trace state dies with the queue it described;
        // the fleet tier still closes its own traces honestly.
        self.pipeline.tracer.clear_open();
        dropped
    }

    /// Closes a ticket's trace from its answer: cause from provenance,
    /// staleness at completion time, the reported confidence width
    /// (series answers carry per-sample tolerances, reported as 0 here).
    fn finish_trace(&mut self, id: u64, t: SimTime, answer: &PipelineAnswer) {
        self.finish_trace_with(id, t, answer, None);
    }

    /// [`PrestoProxy::finish_trace`] with an explicit confidence width —
    /// sliced series answers report their re-bounded assembly sigma
    /// (worst per-slice codec/aging bound) instead of the 0 a series
    /// defaults to.
    fn finish_trace_with(
        &mut self,
        id: u64,
        t: SimTime,
        answer: &PipelineAnswer,
        sigma_override: Option<f64>,
    ) {
        if !self.pipeline.tracer.enabled() {
            return;
        }
        let cause = if answer.source() == AnswerSource::Failed {
            CompletionCause::Failed
        } else {
            CompletionCause::Ok
        };
        let sigma = sigma_override.unwrap_or(match answer {
            PipelineAnswer::Scalar(a) => a.sigma,
            PipelineAnswer::Series(_) => 0.0,
        });
        self.pipeline
            .tracer
            .finish(id, t, cause, answer.age_at(t), sigma);
    }

    /// Submits a query to the asynchronous pipeline. The radio-free
    /// fast paths (cache hit, model extrapolation, spatial
    /// conditioning, dense-coverage aggregation, the shared pull-reply
    /// cache) complete immediately; a precision miss enqueues a
    /// `PendingQuery` that [`PrestoProxy::pump_queries_view`] serves across
    /// epochs. Returns the ticket id under which the completion
    /// surfaces in [`PrestoProxy::take_completed_queries`]. Uses the
    /// pipeline's default deadline.
    pub fn submit_query(&mut self, t: SimTime, query: PipelineQuery) -> u64 {
        self.submit_query_with_deadline(t, query, None)
    }

    /// [`PrestoProxy::submit_query`] with a per-query deadline (from
    /// query–sensor matching's latency classes — see
    /// [`crate::QuerySensorMatcher::deadline_for`]); `None` falls back
    /// to [`PipelineConfig::deadline`]. A tight deadline bounds how
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
        match query {
            PipelineQuery::Now { .. } => self.stats.now_queries += 1,
            PipelineQuery::Past { .. } | PipelineQuery::Aggregate { .. } => {
                self.stats.past_queries += 1
            }
        }
        if !self.sensors.contains_key(&query.sensor()) {
            let answer = self.failed_answer(&query, SimDuration::ZERO);
            self.pipeline.stats.failed += 1;
            self.finish_trace(id, t, &answer);
            self.pipeline.completed.push(CompletedQuery {
                id,
                query,
                answer,
                submitted_at: t,
                completed_at: t,
            });
            return id;
        }
        let fast = match query {
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
        };
        if let Some(answer) = fast {
            self.pipeline.stats.completed_fast += 1;
            self.pipeline
                .tracer
                .record(id, t, SpanEvent::CacheHit { path: "fast" });
            self.finish_trace(id, t, &answer);
            self.pipeline.completed.push(CompletedQuery {
                id,
                query,
                answer,
                submitted_at: t,
                completed_at: t,
            });
            return id;
        }
        // Sliced archive-range execution: a PAST window spanning enough
        // fixed time-aligned slices decomposes into canonical slices —
        // slices any earlier query pulled serve from the two-tier slice
        // cache (a sub-window of a previously pulled span completes
        // radio-free), and only the missing slices become sub-RPCs.
        if let PipelineQuery::Past {
            sensor,
            from,
            to,
            tolerance,
        } = query
        {
            if let Some(specs) = self
                .pipeline
                .config
                .slice
                .as_ref()
                .and_then(|cfg| slice::plan(sensor, from, to, tolerance, cfg))
            {
                self.pipeline.stats.sliced += 1;
                let mut parts: Vec<SlicePart> = specs
                    .into_iter()
                    .map(|spec| SlicePart {
                        key: PullKey::Pull {
                            sensor,
                            from: spec.from,
                            to: spec.to,
                            tol_bits: tolerance.to_bits(),
                        },
                        spec,
                        samples: None,
                        sigma: tolerance / 2.0,
                        rpc_qid: None,
                    })
                    .collect();
                let mut all_hit = true;
                for p in parts.iter_mut() {
                    match self.pipeline.slice_cache.lookup(p.spec.key) {
                        Some((samples, sigma)) => {
                            p.samples = Some(samples);
                            p.sigma = sigma;
                        }
                        None => all_hit = false,
                    }
                }
                if all_hit {
                    let (answer, sigma) =
                        self.assemble_sliced(&query, &parts, SimDuration::from_millis(2));
                    self.pipeline.stats.completed_cached += 1;
                    self.pipeline.stats.completed_sliced += 1;
                    self.pipeline.tracer.record(
                        id,
                        t,
                        SpanEvent::CacheHit {
                            path: "slice_cache",
                        },
                    );
                    let sig = (answer.source() != AnswerSource::Failed).then_some(sigma);
                    self.finish_trace_with(id, t, &answer, sig);
                    self.pipeline.completed.push(CompletedQuery {
                        id,
                        query,
                        answer,
                        submitted_at: t,
                        completed_at: t,
                    });
                    return id;
                }
                let deadline = t + deadline.unwrap_or(self.pipeline.config.deadline);
                self.pipeline.tracer.record(id, t, SpanEvent::CacheMiss);
                self.pipeline.pending.push(PendingQuery {
                    id,
                    query,
                    key: PullKey::Pull {
                        sensor,
                        from,
                        to,
                        tol_bits: tolerance.to_bits(),
                    },
                    pull_from: from,
                    pull_to: to,
                    pull_tolerance: tolerance,
                    submitted_at: t,
                    deadline,
                    rpc_qid: None,
                    parts,
                    last_reply_latency: SimDuration::ZERO,
                });
                return id;
            }
        }
        let (key, pull_from, pull_to, pull_tolerance) = self.pull_plan(t, &query);
        // Shared pull-reply cache: a span any user already pulled at
        // this tolerance answers from proxy memory — unless the window
        // extends past the cached reply's coverage (freshness check),
        // in which case a fresh pull is the only honest answer.
        if matches!(key, PullKey::Pull { .. }) {
            if let Some(samples) = self.pipeline.reply_cache.lookup(key, pull_to) {
                let samples = samples.to_vec();
                let answer =
                    self.answer_from_samples(&query, &samples, SimDuration::from_millis(2));
                self.pipeline.stats.completed_cached += 1;
                self.pipeline.tracer.record(
                    id,
                    t,
                    SpanEvent::CacheHit {
                        path: "reply_cache",
                    },
                );
                self.finish_trace(id, t, &answer);
                self.pipeline.completed.push(CompletedQuery {
                    id,
                    query,
                    answer,
                    submitted_at: t,
                    completed_at: t,
                });
                return id;
            }
        }
        let deadline = t + deadline.unwrap_or(self.pipeline.config.deadline);
        self.pipeline.tracer.record(id, t, SpanEvent::CacheMiss);
        self.pipeline.pending.push(PendingQuery {
            id,
            query,
            key,
            pull_from,
            pull_to,
            pull_tolerance,
            submitted_at: t,
            deadline,
            rpc_qid: None,
            parts: Vec::new(),
            last_reply_latency: SimDuration::ZERO,
        });
        id
    }

    /// Joins a sliced query's served parts into its answer: concatenate
    /// in slice order, trim to the queried window, re-bound with the
    /// worst per-slice sigma. An empty assembly falls through to the
    /// honest failure answer.
    fn assemble_sliced(
        &self,
        query: &PipelineQuery,
        parts: &[SlicePart],
        latency: SimDuration,
    ) -> (PipelineAnswer, f64) {
        let (from, to) = match *query {
            PipelineQuery::Past { from, to, .. } => (from, to),
            _ => (SimTime::ZERO, SimTime::MAX),
        };
        let runs: Vec<Vec<(SimTime, f64)>> = parts
            .iter()
            .map(|p| p.samples.clone().unwrap_or_default())
            .collect();
        let samples = slice::assemble(&runs, from, to);
        let sigma = parts.iter().map(|p| p.sigma).fold(0.0f64, f64::max);
        (self.answer_from_samples(query, &samples, latency), sigma)
    }

    /// The radio work a precision-missed query needs: its pull window,
    /// reply tolerance, and coalescing key.
    fn pull_plan(&self, t: SimTime, query: &PipelineQuery) -> (PullKey, SimTime, SimTime, f64) {
        match *query {
            PipelineQuery::Now { sensor, tolerance } => {
                let from = t - self.config.sample_period * 3;
                (
                    PullKey::Pull {
                        sensor,
                        from,
                        to: t,
                        tol_bits: tolerance.to_bits(),
                    },
                    from,
                    t,
                    tolerance,
                )
            }
            PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } => (
                PullKey::Pull {
                    sensor,
                    from,
                    to,
                    tol_bits: tolerance.to_bits(),
                },
                from,
                to,
                tolerance,
            ),
            PipelineQuery::Aggregate {
                sensor,
                from,
                to,
                op,
            } => (
                PullKey::Aggregate {
                    sensor,
                    from,
                    to,
                    op: op_key(op),
                },
                from,
                to,
                0.0,
            ),
        }
    }

    /// The honest failure answer for a query, mirroring the blocking
    /// path's best-effort fallbacks (stale cache value or partial cached
    /// range, always advertised with sigma ∞ / `Failed`).
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
                    .map(|s| {
                        s.cache
                            .range(from, to)
                            .into_iter()
                            .map(|cs| (cs.t, cs.value))
                            .collect()
                    })
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

    /// Builds a query's answer from a pull reply's samples, mirroring
    /// the blocking path's value extraction exactly (value-identity is
    /// pinned by the pipeline-equivalence property test).
    fn answer_from_samples(
        &self,
        query: &PipelineQuery,
        samples: &[(SimTime, f64)],
        latency: SimDuration,
    ) -> PipelineAnswer {
        match *query {
            PipelineQuery::Now { tolerance, .. } => match samples.last() {
                Some(&(st, v)) => PipelineAnswer::Scalar(Answer {
                    value: v,
                    sigma: tolerance / 2.0,
                    source: AnswerSource::Pulled,
                    latency,
                    data_through: Some(st),
                }),
                None => self.failed_answer(query, latency),
            },
            PipelineQuery::Past { .. } => {
                if samples.is_empty() {
                    self.failed_answer(query, latency)
                } else {
                    PipelineAnswer::Series(PastAnswer {
                        samples: samples.to_vec(),
                        source: AnswerSource::Pulled,
                        latency,
                    })
                }
            }
            // Aggregates complete straight from their scalar reply, not
            // from samples.
            PipelineQuery::Aggregate { .. } => self.failed_answer(query, latency),
        }
    }

    /// Drives the pipeline one epoch tick: expires overdue queries
    /// honestly, issues RPCs for newly enqueued ones (coalescing
    /// identical (sensor, window, tolerance) needs into one pull),
    /// pumps every listed sensor's downlink channel round-robin under
    /// the per-epoch attempt budget, and completes queries whose
    /// replies arrived. `sensors` is whatever set this proxy currently
    /// serves — pending queries whose sensor is not in the view stay
    /// queued (and fail honestly at their deadline).
    pub fn pump_queries_view(&mut self, t: SimTime, sensors: &mut [PumpSensor<'_>]) {
        let pending = std::mem::take(&mut self.pipeline.pending);

        // 1. Honest expiry: overdue queries fail now. An RPC left with
        // no attached query is cancelled, so the pending-RPC table
        // cannot leak entries (sensor death included: its RPCs keep
        // failing attempts while the link is gated, then expire here).
        let (expired, mut live): (Vec<PendingQuery>, Vec<PendingQuery>) =
            pending.into_iter().partition(|q| q.deadline <= t);
        for q in expired {
            // Cancel this query's RPCs (the monolithic pull, or each
            // slice sub-RPC) unless another live query still shares
            // them — sliced or not, an RPC with no attached query must
            // not leak.
            let gid = q.query.sensor();
            let qids = q
                .rpc_qid
                .into_iter()
                .chain(q.parts.iter().filter_map(|p| p.rpc_qid));
            for qid in qids {
                let shared = live.iter().any(|p| {
                    p.rpc_qid == Some(qid)
                        || p.parts.iter().any(|pp| pp.rpc_qid == Some(qid))
                });
                if shared {
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
            self.finish_trace(q.id, t, &answer);
            self.pipeline.completed.push(CompletedQuery {
                id: q.id,
                query: q.query,
                answer,
                submitted_at: q.submitted_at,
                completed_at: t,
            });
        }

        // 2. Issue radio work for queries that have none. A query (or a
        // slice part) whose (sensor, window, tolerance) an in-flight RPC
        // already covers attaches to it instead of pulling again.
        let mut in_flight_keys: BTreeMap<PullKey, u64> = BTreeMap::new();
        for q in live.iter() {
            if let Some(qid) = q.rpc_qid {
                in_flight_keys.insert(q.key, qid);
            }
            for p in q.parts.iter() {
                if let Some(qid) = p.rpc_qid {
                    in_flight_keys.insert(p.key, qid);
                }
            }
        }
        for q in live.iter_mut() {
            if q.is_sliced() {
                // Per-slice radio work: each unserved part re-checks the
                // slice cache first (a sibling query's reply may have
                // landed the slice since submit), then coalesces onto an
                // in-flight sub-RPC, then issues its own.
                let mut traced_coalesce = false;
                for p in q.parts.iter_mut() {
                    if p.samples.is_some() || p.rpc_qid.is_some() {
                        continue;
                    }
                    if let Some((samples, sigma)) = self.pipeline.slice_cache.lookup(p.spec.key)
                    {
                        p.samples = Some(samples);
                        p.sigma = sigma;
                        continue;
                    }
                    if let Some(&qid) = in_flight_keys.get(&p.key) {
                        p.rpc_qid = Some(qid);
                        self.pipeline.stats.slice_coalesced += 1;
                        if !traced_coalesce {
                            self.pipeline.tracer.record(q.id, t, SpanEvent::Coalesced);
                            traced_coalesce = true;
                        }
                        continue;
                    }
                    let gid = q.query.sensor();
                    let Some(ch) = sensors
                        .iter_mut()
                        .find(|s| s.gid == gid)
                        .map(|s| &mut *s.chan)
                    else {
                        break;
                    };
                    let qid = self.next_query_id;
                    self.next_query_id += 1;
                    let msg = DownlinkMsg::PullRequest {
                        query_id: qid,
                        from: p.spec.from,
                        to: p.spec.to,
                        tolerance: q.pull_tolerance,
                    };
                    self.stats.pulls += 1;
                    self.pipeline.stats.rpcs_issued += 1;
                    self.pipeline.stats.slice_rpcs += 1;
                    ch.submit_async(t, msg, q.deadline);
                    p.rpc_qid = Some(qid);
                    self.pipeline.tracer.record(q.id, t, SpanEvent::RpcIssued);
                    in_flight_keys.insert(p.key, qid);
                }
                continue;
            }
            if q.rpc_qid.is_some() {
                continue;
            }
            if let Some(&qid) = in_flight_keys.get(&q.key) {
                q.rpc_qid = Some(qid);
                self.pipeline.stats.coalesced += 1;
                self.pipeline.tracer.record(q.id, t, SpanEvent::Coalesced);
                continue;
            }
            let gid = q.query.sensor();
            let Some(ch) = sensors
                .iter_mut()
                .find(|s| s.gid == gid)
                .map(|s| &mut *s.chan)
            else {
                // No channel for this sensor in the pumped view; the
                // query fails honestly at its deadline.
                continue;
            };
            let qid = self.next_query_id;
            self.next_query_id += 1;
            let msg = match q.query {
                PipelineQuery::Now { .. } | PipelineQuery::Past { .. } => {
                    DownlinkMsg::PullRequest {
                        query_id: qid,
                        from: q.pull_from,
                        to: q.pull_to,
                        tolerance: q.pull_tolerance,
                    }
                }
                PipelineQuery::Aggregate { from, to, op, .. } => {
                    DownlinkMsg::AggregateRequest {
                        query_id: qid,
                        from,
                        to,
                        op,
                    }
                }
            };
            // One RPC per coalesced group, counted when issued — the
            // same attempts-per-RPC meaning `pulls` has on the blocking
            // path, and still disjoint from `recovery_pulls`.
            self.stats.pulls += 1;
            self.pipeline.stats.rpcs_issued += 1;
            ch.submit_async(t, msg, q.deadline);
            q.rpc_qid = Some(qid);
            self.pipeline.tracer.record(q.id, t, SpanEvent::RpcIssued);
            in_flight_keys.insert(q.key, qid);
        }

        // Peak-concurrency high-water mark, measured after issuance.
        let in_flight: usize = sensors.iter().map(|s| s.chan.async_in_flight()).sum();
        self.pipeline.stats.max_in_flight =
            self.pipeline.stats.max_in_flight.max(in_flight as u64);

        // 3. Pump every channel, rotating the start index each epoch so
        // the shared attempt budget is spread fairly across sensors.
        let budget_start = self.pipeline.config.epoch_attempt_budget;
        let mut budget = budget_start;
        if self.pipeline.tracer.enabled() {
            // Opt the channels into per-RPC attempt logging so traces
            // carry transmission-level detail (idempotent each epoch).
            for s in sensors.iter_mut() {
                s.chan.set_trace_attempts(true);
            }
        }
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
            events.extend(s.chan.pump_async(
                t,
                s.node,
                &self.downlink,
                &mut self.ledger,
                &mut budget,
            ));
        }
        // Pressure probe: a pump that spent its whole budget is
        // saturated — more queries than this epoch could serve.
        self.pipeline.last_pump_attempts = budget_start - budget;

        // Per-RPC attempt detail: each channel logged first
        // transmissions, retransmissions, and budget deferrals by RPC
        // id; map them back onto every pending query sharing that RPC
        // (coalesced queries inherit the attempt history).
        if self.pipeline.tracer.enabled() {
            let mut attempts: Vec<(u64, AttemptEvent)> = Vec::new();
            for s in sensors.iter_mut() {
                attempts.extend(s.chan.take_attempt_log());
            }
            for (qid, ev) in attempts {
                let span = match ev {
                    AttemptEvent::First => SpanEvent::RpcAttempt,
                    AttemptEvent::Retransmit => SpanEvent::RpcRetransmit,
                    AttemptEvent::Deferred => SpanEvent::RpcDeferred,
                };
                for q in live.iter() {
                    if q.rpc_qid == Some(qid)
                        || q.parts.iter().any(|p| p.rpc_qid == Some(qid))
                    {
                        self.pipeline.tracer.record(q.id, t, span.clone());
                    }
                }
            }
        }

        // 4. Match events back to pending queries.
        for ev in events {
            match ev {
                presto_reliability::AsyncRpcEvent::Completed {
                    query_id,
                    reply,
                    attempt_latency,
                    ..
                } => {
                    // Fold the reply into the per-sensor cache exactly
                    // as the blocking path does.
                    self.on_uplink(&reply);
                    let reply_air = self.reply_latency(reply.wire_bytes);
                    let mut served = Vec::new();
                    let mut i = 0;
                    while i < live.len() {
                        if live[i].rpc_qid == Some(query_id) {
                            served.push(live.remove(i));
                        } else {
                            i += 1;
                        }
                    }
                    match &reply.payload {
                        UplinkPayload::PullReply {
                            samples: reply_samples,
                            ..
                        } => {
                            let samples: Vec<(SimTime, f64)> =
                                reply_samples.iter().map(|s| (s.t, s.value)).collect();
                            // Fill every live query's slice parts this
                            // reply serves, and cache the slice once.
                            // The samples are trimmed to the slice span:
                            // the freshest-sample fallback a sensor
                            // sends for an empty window lies outside the
                            // span and must not masquerade as content.
                            let quant = self
                                .pipeline
                                .config
                                .slice
                                .as_ref()
                                .map_or(0.05, |c| c.aging_quant_step);
                            let mut slice_insert = None;
                            for q in live.iter_mut() {
                                let mut filled = false;
                                for p in q.parts.iter_mut() {
                                    if p.rpc_qid != Some(query_id) {
                                        continue;
                                    }
                                    let trimmed: Vec<(SimTime, f64)> = samples
                                        .iter()
                                        .copied()
                                        .filter(|&(st, _)| {
                                            st >= p.spec.from && st <= p.spec.to
                                        })
                                        .collect();
                                    let sigma = slice::slice_sigma(
                                        q.pull_tolerance,
                                        reply_samples.iter().map(|s| s.quality),
                                        quant,
                                    );
                                    if slice_insert.is_none() {
                                        slice_insert = Some((
                                            p.spec.key,
                                            p.spec.span_end,
                                            sigma,
                                            trimmed.clone(),
                                        ));
                                    }
                                    p.sigma = sigma;
                                    p.samples = Some(trimmed);
                                    p.rpc_qid = None;
                                    filled = true;
                                }
                                if filled {
                                    q.last_reply_latency = attempt_latency + reply_air;
                                }
                            }
                            if let Some((key, span_end, sigma, trimmed)) = slice_insert {
                                self.pipeline.slice_cache.insert(
                                    key,
                                    span_end,
                                    reply.sent_at,
                                    sigma,
                                    trimmed,
                                );
                            }
                            if let Some(first) = served.first() {
                                // Share the reply: later queries over
                                // this span skip the radio. `sent_at`
                                // is the sensor-side serving time — the
                                // instant the samples' coverage ends.
                                self.pipeline.reply_cache.insert(
                                    first.key,
                                    reply.sent_at,
                                    samples.clone(),
                                );
                            }
                            for q in served {
                                let latency =
                                    (t - q.submitted_at) + attempt_latency + reply_air;
                                let answer =
                                    self.answer_from_samples(&q.query, &samples, latency);
                                self.pipeline.stats.completed_pull += 1;
                                self.finish_trace(q.id, t, &answer);
                                self.pipeline.completed.push(CompletedQuery {
                                    id: q.id,
                                    query: q.query,
                                    answer,
                                    submitted_at: q.submitted_at,
                                    completed_at: t,
                                });
                            }
                        }
                        UplinkPayload::AggregateReply {
                            value,
                            count,
                            sigma,
                            ..
                        } => {
                            for q in served {
                                let latency =
                                    (t - q.submitted_at) + attempt_latency + reply_air;
                                let to = match &q.query {
                                    PipelineQuery::Aggregate { to, .. } => Some(*to),
                                    _ => None,
                                };
                                // An empty range carries nothing: that
                                // is an honest failure, not an Ok
                                // answer with no age (mirrors the
                                // blocking path exactly).
                                let answer = PipelineAnswer::Scalar(Answer {
                                    value: *value,
                                    sigma: if *count == 0 {
                                        f64::INFINITY
                                    } else {
                                        *sigma
                                    },
                                    source: if *count == 0 {
                                        AnswerSource::Failed
                                    } else {
                                        AnswerSource::Pulled
                                    },
                                    latency,
                                    data_through: if *count == 0 { None } else { to },
                                });
                                self.pipeline.stats.completed_pull += 1;
                                self.finish_trace(q.id, t, &answer);
                                self.pipeline.completed.push(CompletedQuery {
                                    id: q.id,
                                    query: q.query,
                                    answer,
                                    submitted_at: q.submitted_at,
                                    completed_at: t,
                                });
                            }
                        }
                        _ => {}
                    }
                }
                presto_reliability::AsyncRpcEvent::Expired { query_id, .. } => {
                    // The RPC's deadline (its issuing query's) passed in
                    // the channel. That issuing query was expired in
                    // phase 1; coalesced queries with time left re-issue
                    // a fresh RPC on the next pump.
                    self.stats.pull_failures += 1;
                    for q in live.iter_mut() {
                        let mut hit = false;
                        if q.rpc_qid == Some(query_id) {
                            q.rpc_qid = None;
                            hit = true;
                        }
                        for p in q.parts.iter_mut() {
                            if p.rpc_qid == Some(query_id) {
                                p.rpc_qid = None;
                                hit = true;
                            }
                        }
                        if hit {
                            self.pipeline.tracer.record(q.id, t, SpanEvent::RpcExpired);
                        }
                    }
                }
            }
        }

        // 5. Assemble sliced queries whose every slice is now served
        // (from cache at issue time, from replies this epoch, or both).
        let mut i = 0;
        while i < live.len() {
            if !live[i].parts_complete() {
                i += 1;
                continue;
            }
            let q = live.remove(i);
            let latency = (t - q.submitted_at) + q.last_reply_latency;
            let (answer, sigma) = self.assemble_sliced(&q.query, &q.parts, latency);
            self.pipeline.stats.completed_pull += 1;
            self.pipeline.stats.completed_sliced += 1;
            let sig = (answer.source() != AnswerSource::Failed).then_some(sigma);
            self.finish_trace_with(q.id, t, &answer, sig);
            self.pipeline.completed.push(CompletedQuery {
                id: q.id,
                query: q.query,
                answer,
                submitted_at: q.submitted_at,
                completed_at: t,
            });
        }
        self.pipeline.pending = live;
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
            for msg in node.on_sample(t, diurnal(t), Some(proxy.ledger_mut())) {
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
        let a = proxy.answer_now(t, 3, 1.0, &mut node, &mut link);
        assert_eq!(a.source, AnswerSource::CacheHit);
        assert!(a.latency < SimDuration::from_millis(5));
    }

    #[test]
    fn now_query_extrapolates_when_sensor_is_silent() {
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 3, 0.0);
        // Advance well past the last sample so the cache is stale.
        let t = SimTime::from_days(3) + SimDuration::from_mins(30);
        let a = proxy.answer_now(t, 3, 1.5, &mut node, &mut link);
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
        let a = proxy.answer_now(t, 3, 0.2, &mut node, &mut link);
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
        let a = proxy.answer_past(
            t,
            3,
            SimTime::from_hours(5),
            SimTime::from_hours(6),
            1.0,
            &mut node,
            &mut link,
        );
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
        let a = proxy.answer_past(
            t,
            3,
            SimTime::from_hours(30),
            SimTime::from_hours(31),
            0.1,
            &mut node,
            &mut link,
        );
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
        let a = proxy.answer_past(
            t,
            3,
            SimTime::from_mins(10),
            SimTime::from_mins(40),
            1.5,
            &mut node,
            &mut link,
        );
        assert_ne!(a.source, AnswerSource::Extrapolated);
        // A later range can.
        let b = proxy.answer_past(
            t,
            3,
            SimTime::from_hours(40),
            SimTime::from_hours(41),
            1.5,
            &mut node,
            &mut link,
        );
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
        let a = proxy.answer_now(SimTime::ZERO, 9, 1.0, &mut node, &mut chan);
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
        let a = proxy.answer_now(SimTime::from_hours(1), 1, 0.5, &mut node, &mut dead);
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
        let a = proxy.answer_now(t + SimDuration::from_secs(62), 2, 1.0, &mut node, &mut dead);
        assert_eq!(a.source, AnswerSource::SpatialExtrapolated);
        assert!((a.value - (diurnal(t) + 1.0)).abs() < 1.0, "{}", a.value);
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
        let a = proxy.answer_past(
            t,
            3,
            SimTime::from_hours(6),
            SimTime::from_hours(7),
            0.1,
            &mut node,
            &mut chan,
        );
        assert_eq!(a.source, AnswerSource::Pulled);
        assert_eq!(proxy.stats().pulls, 1);
        assert_eq!(proxy.stats().pull_failures, 0);
        assert_eq!(proxy.stats().recovery_pulls, 0);

        let ag = proxy.answer_aggregate(
            t,
            3,
            SimTime::from_hours(6),
            SimTime::from_hours(8),
            presto_sensor::AggregateOp::Mean,
            &mut node,
            &mut chan,
        );
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
        let failed = proxy.answer_past(
            t,
            3,
            t - SimDuration::from_mins(30),
            t,
            0.01,
            &mut node,
            &mut dead,
        );
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
            node.on_sample(t, diurnal(t), None);
        }
        let a = proxy.answer_aggregate(
            t,
            3,
            SimTime::ZERO,
            SimTime::from_hours(2),
            presto_sensor::AggregateOp::Mean,
            &mut node,
            &mut chan,
        );
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
        let a = proxy.answer_aggregate(
            t,
            3,
            SimTime::from_hours(10),
            SimTime::from_hours(12),
            presto_sensor::AggregateOp::Mean,
            &mut node,
            &mut link,
        );
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
            node.on_sample(SimTime::from_secs(31 * i), diurnal(SimTime::from_secs(31 * i)), None);
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
        assert_eq!(chan.outstanding_rpcs(), 0);
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
    fn pipeline_reply_cache_rejects_stale_coverage_regression() {
        // Regression for the staleness boundary: a cached reply must
        // not serve a query whose window extends past the reply's
        // coverage. Window [3100 s, 12400 s] is pulled while its end is
        // still in the future (t = 6200 s): the reply covers only what
        // was archived by then. After the sensor archives through the
        // window's end, a repeat query over the same window must take a
        // fresh pull — serving the cached reply would silently drop the
        // newer half.
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
            node.on_sample(ts, diurnal(ts), None);
        }
        let t2 = SimTime::from_secs(31 * 500);
        proxy.submit_query(t2, open_window);
        assert_eq!(
            proxy.pipeline().pending_queries(),
            1,
            "stale cached reply must not serve the repeat query"
        );
        assert!(proxy.pipeline().reply_cache().stale_rejections() >= 1);
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
        let deadline = proxy.config().pipeline.deadline;
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
        assert_eq!(chan.outstanding_rpcs(), 0);
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
        let a = proxy.answer_now(t2, 3, 1.0, &mut node, &mut chan);
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
        let deadline = proxy.config().pipeline.deadline;
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
            node.on_sample(SimTime::from_secs(31 * i), diurnal(SimTime::from_secs(31 * i)), None);
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
        let cache = proxy.pipeline().reply_cache();
        let counters = (cache.hits(), cache.misses(), cache.stale_rejections());
        assert_eq!(counters.0, 1, "repeat window must hit before the crash");
        let dropped = proxy.crash_reset();
        assert_eq!(dropped, 3);
        assert_eq!(proxy.pipeline().pending_queries(), 0);
        assert!(proxy.take_completed_queries().is_empty());
        assert!(proxy.cache(0).expect("registered").is_empty());
        let cache = proxy.pipeline().reply_cache();
        assert!(cache.is_empty());
        // Counters are instrumentation, not process state: they survive.
        assert_eq!((cache.hits(), cache.misses(), cache.stale_rejections()), counters);
        // The channel's proxy half is cleared by its own reset (the
        // only RPC here completed before the crash, so nothing to drop).
        assert_eq!(chan.reset_proxy_state(), 0);
        assert_eq!(chan.async_in_flight(), 0);
        assert_eq!(chan.outstanding_rpcs(), 0);
    }

    #[test]
    fn aggregate_ships_operator_on_cache_miss() {
        // Model-driven push leaves the cache sparse, so the operator is
        // evaluated at the sensor and only a scalar returns.
        let (mut proxy, mut node, mut link) =
            run_deployment(PushPolicy::ModelDriven { tolerance: 1.0 }, 1, 0.0);
        let t = SimTime::from_days(1);
        let before = node.stats().bytes_sent;
        let a = proxy.answer_aggregate(
            t,
            3,
            SimTime::from_hours(6),
            SimTime::from_hours(12),
            presto_sensor::AggregateOp::Max,
            &mut node,
            &mut link,
        );
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
