//! The sensor node state machine.

use presto_archive::{ArchiveStore, ArchivedSample, Quality};
use presto_models::{
    ArModel, LinearTrendModel, MarkovModel, ModelKind, Predictor, SeasonalArModel, SeasonalModel,
};
use presto_net::{CpuModel, LinkModel, Mac};
use presto_sim::{EnergyCategory, EnergyLedger, SimTime};
use presto_wavelet::{Codec, CodecParams, EncodeScratch};

use crate::config::SensorConfig;
use crate::msg::{wire, DownlinkMsg, ReplySample, UplinkMsg, UplinkPayload};
use crate::push::PushPolicy;

/// Energy for one ADC acquisition (sensing transducer).
const SENSING_J: f64 = 5e-6;

/// Counters exposed to the experiment drivers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SensorStats {
    /// Samples acquired.
    pub samples: u64,
    /// Model checks run.
    pub model_checks: u64,
    /// Deviations pushed (model-driven).
    pub deviations_pushed: u64,
    /// Values pushed (value-driven).
    pub values_pushed: u64,
    /// Batches transmitted.
    pub batches_sent: u64,
    /// Samples carried by those batches.
    pub batch_samples_sent: u64,
    /// Events pushed.
    pub events_pushed: u64,
    /// Pull requests served.
    pub pulls_served: u64,
    /// Uplink sends that failed after all retries.
    pub push_failures: u64,
    /// Payload bytes offered to the MAC.
    pub bytes_sent: u64,
    /// Heartbeat beacons transmitted.
    pub heartbeats_sent: u64,
    /// Segment-seal notifications transmitted.
    pub seals_sent: u64,
    /// Reboots survived (RAM wiped, archive kept).
    pub reboots: u64,
    /// Duplicate downlink requests filtered by sequence number (a
    /// retransmitted request whose reply or ack was lost on the way
    /// back); the cached reply is re-sent instead of re-serving.
    pub duplicate_requests: u64,
}

presto_telemetry::observe_counters!(SensorStats {
    samples,
    model_checks,
    deviations_pushed,
    values_pushed,
    batches_sent,
    batch_samples_sent,
    events_pushed,
    pulls_served,
    push_failures,
    bytes_sent,
    heartbeats_sent,
    seals_sent,
    reboots,
    duplicate_requests,
});

/// A PRESTO sensor node.
pub struct SensorNode {
    id: u16,
    config: SensorConfig,
    model: Option<Box<dyn Predictor>>,
    archive: ArchiveStore,
    ledger: EnergyLedger,
    uplink: Mac,
    link: LinkModel,
    cpu: CpuModel,
    batch: Vec<(SimTime, f64)>,
    last_flush: SimTime,
    last_pushed: Option<f64>,
    last_sample: Option<(SimTime, f64)>,
    last_advance: SimTime,
    /// Last instant a transmission was MAC-acknowledged; paces the
    /// liveness heartbeat.
    last_delivered_tx: SimTime,
    /// Sealed-segment spans not yet successfully announced (a failed
    /// MAC send keeps the span here for the next attempt — losing it
    /// would leave the proxy tier's range index stale with no gap to
    /// reveal the omission).
    pending_seals: Vec<(SimTime, SimTime)>,
    /// Reusable transform buffers for batch/pull-reply encoding.
    codec_scratch: EncodeScratch,
    /// Archive rows of the pull or aggregate being served, reused
    /// across requests.
    rows: Vec<ArchivedSample>,
    /// Downlink sequence numbers already applied, with the reply each
    /// produced (bounded window). A retransmitted request — the proxy
    /// never saw the reply or ack — must not be re-applied or re-served
    /// from flash; the cached reply is re-transmitted instead. Lives in
    /// RAM: a reboot forgets it, which is safe (the archive-backed
    /// requests are idempotent) and realistic.
    seen_downlinks: std::collections::VecDeque<(u64, Option<UplinkMsg>)>,
    stats: SensorStats,
}

/// Bound on the sensor's duplicate-request window. Retransmissions
/// arrive within a few RPC timeouts of the original, so a small window
/// suffices; older duplicates re-serve (idempotent, just costlier).
const SEEN_DOWNLINK_WINDOW: usize = 64;

impl SensorNode {
    /// Creates a node with the given uplink loss process.
    ///
    /// The uplink MAC pays a wake-up preamble spanning the network's LPL
    /// check interval (the node's own `duty.check_interval`): in a B-MAC
    /// network every transmission — even one bound for the tethered proxy
    /// — must wake the duty-cycled next hop. This per-transmission fixed
    /// cost is exactly what batching amortizes in Figure 2.
    pub fn new(id: u16, config: SensorConfig, link: LinkModel) -> Self {
        let archive = ArchiveStore::new(config.archive.clone());
        let uplink = Mac::downlink(config.duty.check_interval);
        SensorNode {
            id,
            archive,
            uplink,
            link,
            cpu: CpuModel::atmega128(),
            model: None,
            ledger: EnergyLedger::new(),
            batch: Vec::new(),
            last_flush: SimTime::ZERO,
            last_pushed: None,
            last_sample: None,
            last_advance: SimTime::ZERO,
            last_delivered_tx: SimTime::ZERO,
            pending_seals: Vec::new(),
            codec_scratch: EncodeScratch::default(),
            rows: Vec::new(),
            seen_downlinks: std::collections::VecDeque::new(),
            config,
            stats: SensorStats::default(),
        }
    }

    /// Cumulative energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Mutable ledger access, used by the downlink MAC to charge this
    /// node's reception energy and by the fabric to bill its
    /// retransmissions.
    pub fn ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.ledger
    }

    /// Counters.
    pub fn stats(&self) -> SensorStats {
        self.stats
    }

    /// Read access to the local archive (e.g. for interval indexing).
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// The local archive (e.g. for test inspection).
    pub fn archive_mut(&mut self) -> &mut ArchiveStore {
        &mut self.archive
    }

    /// True if a model replica is installed.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Charges idle-listening energy up to `t`. Call before handing the
    /// node any timestamped work.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.last_advance {
            let window = t - self.last_advance;
            self.config
                .duty
                .charge_listening(&self.uplink.radio, window, &mut self.ledger);
            self.last_advance = t;
        }
    }

    fn charge_cpu(&mut self, cycles: u64) {
        self.ledger
            .charge(EnergyCategory::Cpu, self.cpu.op_energy(cycles));
    }

    /// Transmits a payload over the uplink; returns the message if every
    /// fragment was delivered.
    fn send(&mut self, t: SimTime, wire_bytes: usize, payload: UplinkPayload) -> Option<UplinkMsg> {
        let outcome = self
            .uplink
            .send(wire_bytes, &mut self.link, &mut self.ledger, true);
        self.stats.bytes_sent += wire_bytes as u64;
        if outcome.delivered {
            self.last_delivered_tx = self.last_delivered_tx.max(t);
            Some(UplinkMsg {
                sensor: self.id,
                sent_at: t,
                wire_bytes,
                payload,
            })
        } else {
            self.stats.push_failures += 1;
            None
        }
    }

    /// Wipes RAM state after a crash/reboot: the model replica, pending
    /// batch, and short-term context are gone, but the flash archive —
    /// the recovery substrate — survives. Idle-listening accrual resumes
    /// at `t` (a dead radio draws nothing).
    pub fn reboot(&mut self, t: SimTime) {
        self.model = None;
        self.batch.clear();
        self.last_pushed = None;
        self.last_sample = None;
        self.last_flush = t;
        self.last_advance = self.last_advance.max(t);
        // Un-announced seal spans die with RAM: the proxy tier's range
        // index never learns of them.
        self.pending_seals.clear();
        // So does the archive's unflushed page buffer: records not yet
        // programmed into flash never existed as far as recovery is
        // concerned.
        self.archive.discard_ram_buffer();
        // The duplicate-request window is RAM too: post-reboot
        // retransmissions re-serve, which is safe (idempotent requests).
        self.seen_downlinks.clear();
        self.stats.reboots += 1;
    }

    /// Emits a heartbeat when nothing has been MAC-acknowledged for
    /// `every`: the low-rate lease renewal that lets the proxy tell
    /// model-conforming silence from death. Carries the archive
    /// high-water mark so the proxy knows what a recovery pull can
    /// replay.
    pub fn maybe_heartbeat(
        &mut self,
        t: SimTime,
        every: presto_sim::SimDuration,
    ) -> Option<UplinkMsg> {
        if t - self.last_delivered_tx < every {
            return None;
        }
        self.advance_to(t);
        let archived_through = self.last_sample.map_or(SimTime::ZERO, |(ts, _)| ts);
        let msg = self.send(
            t,
            wire::HEARTBEAT,
            UplinkPayload::Heartbeat { archived_through },
        );
        if msg.is_some() {
            self.stats.heartbeats_sent += 1;
        } else {
            // Preamble + retries were paid but nothing got through; back
            // off a full interval rather than hammering a dead link.
            self.last_delivered_tx = t;
        }
        msg
    }

    /// Acquires one sample: archives it, runs the push policy, and
    /// returns any messages that reached the proxy.
    pub fn on_sample(&mut self, t: SimTime, value: f64) -> Vec<UplinkMsg> {
        self.advance_to(t);
        self.stats.samples += 1;
        self.ledger.charge(EnergyCategory::Sensing, SENSING_J);
        self.last_sample = Some((t, value));
        // Archival is unconditional: the paper's "complete local archive".
        let _ = self.archive.append_scalar(t, value, &mut self.ledger);

        let mut out = Vec::new();
        // Announce any segment seal the append caused, so the proxy
        // tier's range index follows the archive block-by-block. A
        // failed send keeps the span queued for the next sample. The
        // archive's queue drains on every sample, so a node that does
        // not announce keeps nothing.
        let sealed = self.archive.take_sealed_spans();
        if self.config.announce_seals {
            self.pending_seals.extend(sealed);
            while let Some(&(start, end)) = self.pending_seals.first() {
                match self.send(
                    t,
                    wire::SEGMENT_SEAL,
                    UplinkPayload::SegmentSeal { start, end },
                ) {
                    Some(m) => {
                        self.pending_seals.remove(0);
                        self.stats.seals_sent += 1;
                        out.push(m);
                    }
                    // MAC gave up: stop retrying this epoch, keep the
                    // backlog (in order) for the next.
                    None => break,
                }
            }
        }
        let policy = self.config.push.clone();
        match policy {
            PushPolicy::ModelDriven { tolerance } => {
                if let Some(predicted) = self.run_model_check(t, value, tolerance) {
                    if let Some(m) = self.send(
                        t,
                        wire::DEVIATION,
                        UplinkPayload::Deviation { value, predicted },
                    ) {
                        out.push(m);
                    }
                    self.stats.deviations_pushed += 1;
                }
            }
            PushPolicy::ValueDriven { delta } => {
                let trigger = match self.last_pushed {
                    None => true,
                    Some(prev) => (value - prev).abs() > delta,
                };
                if trigger {
                    self.last_pushed = Some(value);
                    self.stats.values_pushed += 1;
                    if let Some(m) = self.send(t, wire::VALUE, UplinkPayload::Value { value }) {
                        out.push(m);
                    }
                }
            }
            PushPolicy::Batched { interval, .. } => {
                self.batch.push((t, value));
                if t - self.last_flush >= interval {
                    if let Some(m) = self.flush_batch(t) {
                        out.push(m);
                    }
                }
            }
            PushPolicy::Silent => {}
        }
        out
    }

    /// Runs the model replica check. Returns `Some(prediction)` when the
    /// sample deviates from it and must be pushed; with no model
    /// installed every sample deviates, from a prediction of 0.0.
    fn run_model_check(&mut self, t: SimTime, value: f64, tolerance: f64) -> Option<f64> {
        let Some(model) = self.model.as_mut() else {
            return Some(0.0);
        };
        self.stats.model_checks += 1;
        let cycles = model.check_cycles();
        let pred = model.predict(t);
        // Replica-consistency rule: the model observes *only the values
        // that are pushed*, so the proxy's replica (which sees exactly
        // the pushed values) stays in lock-step and silence provably
        // means "within tolerance".
        let result = if pred.within(value, tolerance) {
            None
        } else {
            model.observe(t, value);
            Some(pred.value)
        };
        self.charge_cpu(cycles);
        result
    }

    /// Flushes the accumulated batch (used by the batched policy and by
    /// the end-of-run drain in experiments).
    pub fn flush_batch(&mut self, t: SimTime) -> Option<UplinkMsg> {
        self.last_flush = t;
        if self.batch.is_empty() {
            return None;
        }
        let mut samples = std::mem::take(&mut self.batch);
        let compression = match &self.config.push {
            PushPolicy::Batched { compression, .. } => *compression,
            _ => None,
        };
        let (payload, bytes) = match compression {
            Some(params) => {
                let codec = Codec::new(params);
                self.charge_cpu(presto_wavelet::haar::forward_cycle_cost(
                    samples.len().next_power_of_two(),
                    4,
                ));
                // One pass through the node's persistent scratch: size the
                // payload and reconstruct what the proxy will decode, then
                // carry the reconstruction in the batch itself.
                let (byte_len, recon) = codec
                    .compress_reconstruct(samples.iter().map(|&(_, v)| v), &mut self.codec_scratch);
                for (sample, &v) in samples.iter_mut().zip(recon) {
                    sample.1 = v;
                }
                (
                    UplinkPayload::Batch {
                        samples,
                        compressed: true,
                    },
                    wire::compressed_batch(byte_len),
                )
            }
            None => {
                let n = samples.len();
                (
                    UplinkPayload::Batch {
                        samples,
                        compressed: false,
                    },
                    wire::raw_batch(n),
                )
            }
        };
        self.stats.batches_sent += 1;
        if let UplinkPayload::Batch { samples, .. } = &payload {
            self.stats.batch_samples_sent += samples.len() as u64;
        }
        self.send(t, bytes, payload)
    }

    /// Reports a semantic event: archived locally, pushed immediately
    /// (rare events are never batched away).
    pub fn on_event(&mut self, t: SimTime, event_type: u16, data: Vec<u8>) -> Option<UplinkMsg> {
        self.advance_to(t);
        let _ = self
            .archive
            .append_event(t, event_type, &data, &mut self.ledger);
        if matches!(self.config.push, PushPolicy::Silent) {
            return None;
        }
        self.stats.events_pushed += 1;
        let wire_bytes = wire::event(data.len());
        self.send(
            t,
            wire_bytes,
            UplinkPayload::Event {
                event_type,
                data: data.into(),
            },
        )
    }

    /// Handles a *sequenced* proxy → sensor message from the downlink
    /// channel, deduplicating retransmitted requests by sequence number:
    /// a duplicate is never re-applied (model updates, retunes) or
    /// re-served from flash (pulls); its cached reply is re-transmitted
    /// instead, paying radio energy but not flash reads. Returns the
    /// reply (fresh or re-sent), if its uplink transmission succeeded.
    pub fn handle_sequenced_downlink(
        &mut self,
        t: SimTime,
        seq: u64,
        msg: &DownlinkMsg,
    ) -> Option<UplinkMsg> {
        if let Some(pos) = self.seen_downlinks.iter().position(|(s, _)| *s == seq) {
            self.stats.duplicate_requests += 1;
            let cached = self.seen_downlinks[pos].1.clone();
            let expects_reply = matches!(
                msg,
                DownlinkMsg::PullRequest { .. } | DownlinkMsg::AggregateRequest { .. }
            );
            return match cached {
                // Re-send the cached reply over the radio (a fresh
                // transmission: it costs energy and can fail again).
                Some(prev) => self
                    .send(t, prev.wire_bytes, prev.payload)
                    .map(|m| UplinkMsg {
                        // Keep the original send time: the reply content
                        // describes the state at first serving.
                        sent_at: prev.sent_at,
                        ..m
                    }),
                // The first serving's reply never left the MAC, so there
                // is nothing to re-send: serve again (archive reads are
                // idempotent). Ack-only requests (model update, retune)
                // were already applied — do NOT re-apply.
                None if expects_reply => {
                    let reply = self.handle_downlink(t, msg);
                    self.seen_downlinks[pos].1 = reply.clone();
                    reply
                }
                None => None,
            };
        }
        let reply = self.handle_downlink(t, msg);
        self.seen_downlinks.push_back((seq, reply.clone()));
        while self.seen_downlinks.len() > SEEN_DOWNLINK_WINDOW {
            self.seen_downlinks.pop_front();
        }
        reply
    }

    /// Handles a proxy → sensor message. The downlink MAC charges this
    /// node's reception of the request; this method performs the
    /// sensor's *reaction* (and any reply transmission).
    pub fn handle_downlink(&mut self, t: SimTime, msg: &DownlinkMsg) -> Option<UplinkMsg> {
        self.advance_to(t);
        match msg {
            DownlinkMsg::ModelUpdate { kind, params } => {
                // Decoding cost is proportional to the parameter size.
                self.charge_cpu(params.len() as u64 * 4);
                self.model = decode_model(*kind, params);
                None
            }
            DownlinkMsg::Retune {
                push_tolerance,
                batching_interval,
                lpl_check_interval,
            } => {
                if let Some(tol) = push_tolerance {
                    match &mut self.config.push {
                        PushPolicy::ModelDriven { tolerance } => *tolerance = *tol,
                        PushPolicy::ValueDriven { delta } => *delta = *tol,
                        _ => {}
                    }
                }
                if let (Some(interval), PushPolicy::Batched { interval: i, .. }) =
                    (batching_interval, &mut self.config.push)
                {
                    *i = *interval;
                }
                if let Some(check) = lpl_check_interval {
                    self.config.duty = presto_net::DutyCycle::lpl(*check);
                    // The network-wide check interval changed, so the
                    // uplink wake-up preamble changes with it.
                    self.uplink.dest_lpl_interval = *check;
                }
                None
            }
            DownlinkMsg::PullRequest {
                query_id,
                from,
                to,
                tolerance,
            } => self.serve_pull(t, *query_id, *from, *to, *tolerance),
            DownlinkMsg::AggregateRequest {
                query_id,
                from,
                to,
                op,
            } => self.serve_aggregate(t, *query_id, *from, *to, *op),
        }
    }

    /// Evaluates an aggregate over the local archive and replies with
    /// just the result: the radio carries ~23 bytes regardless of how
    /// much history the operator consumed.
    fn serve_aggregate(
        &mut self,
        t: SimTime,
        query_id: u64,
        from: SimTime,
        to: SimTime,
        op: crate::msg::AggregateOp,
    ) -> Option<UplinkMsg> {
        self.read_rows(from, to);
        self.stats.pulls_served += 1;
        // The evaluation itself costs CPU (~8 cycles per sample).
        self.charge_cpu(self.rows.len() as u64 * 8);
        let value = evaluate_aggregate(op, self.rows.iter().map(|r| r.value));
        let sigma = aggregate_sigma(op, self.rows.iter().map(|r| r.quality));
        self.send(
            t,
            wire::AGGREGATE_REPLY,
            UplinkPayload::AggregateReply {
                query_id,
                value,
                count: u32::try_from(self.rows.len()).unwrap_or(u32::MAX),
                sigma,
            },
        )
    }

    /// Reads the archived rows in `[from, to]` into the node's row
    /// buffer (empty if the archive read fails).
    fn read_rows(&mut self, from: SimTime, to: SimTime) {
        let _ = self
            .archive
            .query_range_into(from, to, &mut self.ledger, &mut self.rows);
    }

    /// Serves a PAST-query pull from the local archive.
    fn serve_pull(
        &mut self,
        t: SimTime,
        query_id: u64,
        from: SimTime,
        to: SimTime,
        tolerance: f64,
    ) -> Option<UplinkMsg> {
        self.read_rows(from, to);
        // A NOW-style pull whose range holds no archived record is
        // answered with the freshest reading the sensor has — the proxy
        // asked "what is it now", not "what was logged in this window".
        if self.rows.is_empty() {
            if let Some((ts, v)) = self.last_sample {
                self.rows.push(ArchivedSample {
                    timestamp: ts,
                    value: v,
                    quality: Quality::Exact,
                });
            }
        }
        self.stats.pulls_served += 1;

        // Lossy reply encoding to the query tolerance when the range is a
        // regular scalar run; otherwise raw.
        let regular = self.rows.len() >= 8 && self.rows.iter().all(|r| r.quality == Quality::Exact);
        let (samples, bytes) = if regular {
            let codec = Codec::new(CodecParams::for_tolerance(tolerance.max(0.01)));
            self.charge_cpu(presto_wavelet::haar::forward_cycle_cost(
                self.rows.len().next_power_of_two(),
                4,
            ));
            let (byte_len, recon) = codec
                .compress_reconstruct(self.rows.iter().map(|r| r.value), &mut self.codec_scratch);
            let samples: Vec<ReplySample> = self
                .rows
                .iter()
                .zip(recon)
                .map(|(r, &v)| ReplySample {
                    t: r.timestamp,
                    value: v,
                    quality: r.quality,
                })
                .collect();
            let n = samples.len();
            (samples, wire::pull_reply_compressed(byte_len, n))
        } else {
            let samples: Vec<ReplySample> = self
                .rows
                .iter()
                .map(|r| ReplySample {
                    t: r.timestamp,
                    value: r.value,
                    quality: r.quality,
                })
                .collect();
            let n = samples.len();
            (samples, wire::pull_reply_raw(n))
        };

        self.send(t, bytes, UplinkPayload::PullReply { query_id, samples })
    }
}

/// Error bound (one sigma) of an aggregate computed over archived rows
/// of the given qualities.
///
/// Each row's reconstruction error is bounded by its provenance
/// ([`Quality::error_bound`]): a raw record is exact, an aged summary
/// carries the aging ladder's bound. The operator then propagates the
/// per-row bounds: a mean averages them, an extremum is located to
/// within the worst row's bound, a mode adds the binning half-width on
/// top. `Count` is exact by construction; an empty range carries no
/// information at all.
pub fn aggregate_sigma(
    op: crate::msg::AggregateOp,
    qualities: impl Iterator<Item = Quality>,
) -> f64 {
    use crate::msg::AggregateOp;
    let (mut n, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
    for q in qualities {
        let b = q.error_bound();
        n += 1;
        sum += b;
        max = max.max(b);
    }
    match op {
        AggregateOp::Count => 0.0,
        _ if n == 0 => f64::INFINITY,
        AggregateOp::Mean => sum / n as f64,
        AggregateOp::Max | AggregateOp::Min => max,
        AggregateOp::Mode { bin_width } => {
            let w = if bin_width > 0.0 && bin_width.is_finite() {
                bin_width
            } else {
                1.0
            };
            w / 2.0 + max
        }
    }
}

/// Evaluates an aggregate operator over values, in order. Returns NaN
/// for value aggregates over no values (Count returns 0).
pub fn evaluate_aggregate(
    op: crate::msg::AggregateOp,
    values: impl IntoIterator<Item = f64>,
) -> f64 {
    use crate::msg::AggregateOp;
    let mut n = 0usize;
    let values = values.into_iter().inspect(|_| n += 1);
    let folded = match op {
        AggregateOp::Count => values.count() as f64,
        AggregateOp::Mean => values.sum::<f64>(),
        AggregateOp::Max => values.fold(f64::NEG_INFINITY, f64::max),
        AggregateOp::Min => values.fold(f64::INFINITY, f64::min),
        AggregateOp::Mode { bin_width } => {
            let w = if bin_width > 0.0 && bin_width.is_finite() {
                bin_width
            } else {
                1.0
            };
            let mut counts: std::collections::BTreeMap<i64, (u64, f64)> =
                std::collections::BTreeMap::new();
            for v in values {
                let bin = (v / w).floor() as i64;
                let e = counts.entry(bin).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += v;
            }
            // Deterministic tie-break: higher count, then lower bin. An
            // empty map is "no data", NaN, as below.
            counts
                .iter()
                .max_by_key(|(bin, (n, _))| (*n, std::cmp::Reverse(**bin)))
                .map_or(f64::NAN, |(_, &(n, sum))| sum / n as f64)
        }
    };
    match op {
        AggregateOp::Count => folded,
        _ if n == 0 => f64::NAN,
        AggregateOp::Mean => folded / n as f64,
        _ => folded,
    }
}

/// Decodes a model replica from pushed parameters.
fn decode_model(kind: ModelKind, params: &[u8]) -> Option<Box<dyn Predictor>> {
    match kind {
        ModelKind::Seasonal => {
            SeasonalModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
        }
        ModelKind::Ar => ArModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>),
        ModelKind::SeasonalAr => {
            SeasonalArModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
        }
        ModelKind::LinearTrend => {
            LinearTrendModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
        }
        ModelKind::Markov => {
            MarkovModel::decode_params(params).map(|m| Box::new(m) as Box<dyn Predictor>)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_models::SeasonalArModel;
    use presto_sim::SimDuration;

    fn diurnal_value(t: SimTime) -> f64 {
        21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
    }

    fn trained_model_update() -> DownlinkMsg {
        let hist: Vec<(SimTime, f64)> = (0..7 * 24 * 4)
            .map(|i| {
                let t = SimTime::from_mins(i * 15);
                (t, diurnal_value(t))
            })
            .collect();
        let (model, _) = SeasonalArModel::train(&hist, 24, 2);
        DownlinkMsg::ModelUpdate {
            kind: ModelKind::SeasonalAr,
            params: model.encode_params(),
        }
    }

    fn node(push: PushPolicy) -> SensorNode {
        let config = SensorConfig {
            push,
            ..SensorConfig::default()
        };
        SensorNode::new(7, config, LinkModel::perfect())
    }

    #[test]
    fn model_driven_stays_silent_on_predictable_data() {
        let mut n = node(PushPolicy::ModelDriven { tolerance: 1.0 });
        n.handle_downlink(SimTime::ZERO, &trained_model_update());
        assert!(n.has_model());
        let mut pushes = 0;
        for i in 0..2000u64 {
            let t = SimTime::from_days(8) + SimDuration::from_secs(31 * i);
            pushes += n.on_sample(t, diurnal_value(t)).len();
        }
        // Perfectly diurnal data: almost nothing should be pushed.
        assert!(pushes < 20, "{pushes} pushes on predictable data");
    }

    #[test]
    fn model_driven_pushes_rare_events() {
        let mut n = node(PushPolicy::ModelDriven { tolerance: 1.0 });
        n.handle_downlink(SimTime::ZERO, &trained_model_update());
        let t = SimTime::from_days(8);
        // Warm up with conforming samples.
        for i in 0..10u64 {
            n.on_sample(t + SimDuration::from_secs(31 * i), diurnal_value(t));
        }
        // Inject a spike.
        let spike_t = t + SimDuration::from_secs(31 * 11);
        let msgs = n.on_sample(spike_t, diurnal_value(spike_t) + 9.0);
        assert_eq!(msgs.len(), 1, "spike not pushed");
        match &msgs[0].payload {
            UplinkPayload::Deviation { value, predicted } => {
                assert!((value - predicted).abs() > 8.0);
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn without_model_everything_deviates() {
        let mut n = node(PushPolicy::ModelDriven { tolerance: 1.0 });
        let mut pushed = 0;
        for i in 0..50u64 {
            let t = SimTime::from_secs(31 * i);
            pushed += n.on_sample(t, 20.0).len();
        }
        assert_eq!(pushed, 50, "no-model sensor must push everything");
    }

    #[test]
    fn value_driven_thresholds() {
        let mut n = node(PushPolicy::ValueDriven { delta: 1.0 });
        let t = SimTime::ZERO;
        // First sample always pushes.
        assert_eq!(n.on_sample(t, 20.0).len(), 1);
        // Small moves do not.
        assert_eq!(n.on_sample(t + SimDuration::from_secs(31), 20.5).len(), 0);
        assert_eq!(n.on_sample(t + SimDuration::from_secs(62), 20.9).len(), 0);
        // Crossing delta from the last *pushed* value does.
        assert_eq!(n.on_sample(t + SimDuration::from_secs(93), 21.2).len(), 1);
    }

    #[test]
    fn batched_flushes_on_interval() {
        let mut n = node(PushPolicy::Batched {
            interval: SimDuration::from_mins(16),
            compression: None,
        });
        let mut msgs = Vec::new();
        for i in 0..64u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            msgs.extend(n.on_sample(t, 20.0 + i as f64 * 0.01));
        }
        assert_eq!(msgs.len(), 2, "expected two flushes in ~33 minutes");
        match &msgs[0].payload {
            UplinkPayload::Batch {
                samples,
                compressed,
            } => {
                assert!(!compressed);
                assert!(samples.len() >= 30);
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn compressed_batches_are_smaller_and_close() {
        let run = |compression| {
            let mut n = node(PushPolicy::Batched {
                interval: SimDuration::from_mins(60),
                compression,
            });
            let mut msgs = Vec::new();
            for i in 0..130u64 {
                let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
                msgs.extend(n.on_sample(t, diurnal_value(t)));
            }
            msgs
        };
        let raw = run(None);
        let comp = run(Some(CodecParams::for_tolerance(0.2)));
        assert_eq!(raw.len(), 1);
        assert_eq!(comp.len(), 1);
        assert!(comp[0].wire_bytes < raw[0].wire_bytes / 2);
        // Reconstructed values stay within tolerance.
        let (UplinkPayload::Batch { samples: rs, .. }, UplinkPayload::Batch { samples: cs, .. }) =
            (&raw[0].payload, &comp[0].payload)
        else {
            panic!("wrong payloads");
        };
        for ((_, a), (_, b)) in rs.iter().zip(cs) {
            assert!((a - b).abs() <= 0.2 + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn events_push_immediately_and_archive() {
        let mut n = node(PushPolicy::Batched {
            interval: SimDuration::from_hours(4),
            compression: None,
        });
        let t = SimTime::from_mins(5);
        let msg = n.on_event(t, 42, vec![1, 2, 3]).unwrap();
        assert!(matches!(
            msg.payload,
            UplinkPayload::Event { event_type: 42, .. }
        ));
        let mut l = EnergyLedger::new();
        let evs = n
            .archive_mut()
            .query_events(SimTime::ZERO, SimTime::from_hours(1), &mut l)
            .unwrap();
        assert_eq!(evs.len(), 1);
    }

    #[test]
    fn pull_serves_archived_range_within_tolerance() {
        let mut n = node(PushPolicy::Silent);
        let truth: Vec<(SimTime, f64)> = (0..200u64)
            .map(|i| {
                let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
                (t, diurnal_value(t))
            })
            .collect();
        for &(t, v) in &truth {
            n.on_sample(t, v);
        }
        let req = DownlinkMsg::PullRequest {
            query_id: 99,
            from: SimTime::from_secs(31 * 50),
            to: SimTime::from_secs(31 * 100),
            tolerance: 0.3,
        };
        let reply = n
            .handle_downlink(SimTime::from_secs(31 * 201), &req)
            .unwrap();
        let UplinkPayload::PullReply { query_id, samples } = &reply.payload else {
            panic!("wrong payload");
        };
        assert_eq!(*query_id, 99);
        assert_eq!(samples.len(), 51);
        for s in samples {
            let truth_v = diurnal_value(s.t);
            assert!((s.value - truth_v).abs() <= 0.3 + 1e-6);
        }
        assert_eq!(n.stats().pulls_served, 1);
    }

    #[test]
    fn retune_applies_parameters() {
        let mut n = node(PushPolicy::ModelDriven { tolerance: 1.0 });
        let retune = DownlinkMsg::Retune {
            push_tolerance: Some(2.5),
            batching_interval: None,
            lpl_check_interval: Some(SimDuration::from_secs(8)),
        };
        n.handle_downlink(SimTime::from_secs(10), &retune);
        match n.config.push {
            PushPolicy::ModelDriven { tolerance } => assert_eq!(tolerance, 2.5),
            _ => panic!("policy changed unexpectedly"),
        }
        assert_eq!(n.config.duty.check_interval, SimDuration::from_secs(8));
    }

    #[test]
    fn listening_energy_accrues_with_time() {
        let mut n = node(PushPolicy::Silent);
        n.advance_to(SimTime::from_hours(10));
        let listen = n.ledger().category(EnergyCategory::RadioListen);
        assert!(listen > 0.0);
        // 1 s LPL at ~93 µW over 10 h ≈ 3.3 J.
        assert!((2.0..5.0).contains(&listen), "{listen}");
    }

    #[test]
    fn lossy_uplink_counts_failures() {
        let config = SensorConfig::default();
        let mut n = SensorNode::new(
            1,
            SensorConfig {
                push: PushPolicy::ValueDriven { delta: 0.0 },
                ..config
            },
            LinkModel::new(
                presto_net::LossProcess::Bernoulli(1.0),
                presto_sim::SimRng::new(1),
            ),
        );
        let msgs = n.on_sample(SimTime::ZERO, 20.0);
        assert!(msgs.is_empty());
        assert_eq!(n.stats().push_failures, 1);
    }

    #[test]
    fn silent_policy_archives_but_never_transmits() {
        let mut n = node(PushPolicy::Silent);
        for i in 0..100u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            assert!(n.on_sample(t, 20.0).is_empty());
        }
        assert_eq!(n.stats().bytes_sent, 0);
        assert_eq!(n.ledger().category(EnergyCategory::RadioTx), 0.0);
        assert!(n.ledger().storage_total() > 0.0);
    }

    #[test]
    fn evaluate_aggregate_operators() {
        use crate::msg::AggregateOp;
        let xs = [1.0, 2.0, 2.0, 3.0, 10.0];
        let eval = |op| evaluate_aggregate(op, xs.iter().copied());
        assert_eq!(eval(AggregateOp::Mean), 3.6);
        assert_eq!(eval(AggregateOp::Max), 10.0);
        assert_eq!(eval(AggregateOp::Min), 1.0);
        assert_eq!(eval(AggregateOp::Count), 5.0);
        // Mode with unit bins: the 2.0 bin holds two samples.
        assert_eq!(eval(AggregateOp::Mode { bin_width: 1.0 }), 2.0);
        // Empty inputs: Count is 0, value aggregates are NaN.
        assert_eq!(evaluate_aggregate(AggregateOp::Count, []), 0.0);
        assert!(evaluate_aggregate(AggregateOp::Mean, []).is_nan());
        assert!(evaluate_aggregate(AggregateOp::Max, []).is_nan());
        // Degenerate bin width falls back to 1.0 rather than dividing
        // by zero.
        let m = eval(AggregateOp::Mode { bin_width: 0.0 });
        assert!(m.is_finite());
    }

    #[test]
    fn duplicate_sequenced_requests_resend_without_reserving() {
        let mut n = node(PushPolicy::Silent);
        for i in 0..100u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            n.on_sample(t, diurnal_value(t));
        }
        let req = DownlinkMsg::PullRequest {
            query_id: 7,
            from: SimTime::ZERO,
            to: SimTime::from_secs(31 * 50),
            tolerance: 0.3,
        };
        let t = SimTime::from_secs(31 * 101);
        let first = n.handle_sequenced_downlink(t, 0, &req).unwrap();
        assert_eq!(n.stats().pulls_served, 1);
        let tx_before = n.ledger().category(EnergyCategory::RadioTx);
        let radio_before = n.ledger().radio_total();
        let flash_before = n.ledger().category(EnergyCategory::FlashRead);
        // Retransmitted request (same seq): same reply, no second serve.
        let dup = n
            .handle_sequenced_downlink(t + SimDuration::from_secs(10), 0, &req)
            .unwrap();
        assert_eq!(n.stats().pulls_served, 1, "duplicate re-read the flash");
        assert_eq!(n.stats().duplicate_requests, 1);
        // The re-send pays a whole transmission again, and no flash read.
        assert!(n.ledger().category(EnergyCategory::RadioTx) > tx_before);
        let resend_j = n.ledger().radio_total() - radio_before;
        let expected = n.uplink.expected_send_energy(first.wire_bytes);
        assert!(
            (resend_j - expected).abs() < 1e-9,
            "{resend_j} vs {expected}"
        );
        assert_eq!(n.ledger().category(EnergyCategory::FlashRead), flash_before);
        assert_eq!(dup.payload, first.payload);
        assert_eq!(dup.sent_at, first.sent_at, "reply describes first serving");
        // A *new* sequence number is served fresh.
        n.handle_sequenced_downlink(t + SimDuration::from_secs(20), 1, &req)
            .unwrap();
        assert_eq!(n.stats().pulls_served, 2);
    }

    #[test]
    fn duplicate_model_update_is_not_reapplied() {
        let mut n = node(PushPolicy::ModelDriven { tolerance: 1.0 });
        let update = trained_model_update();
        assert!(n
            .handle_sequenced_downlink(SimTime::ZERO, 3, &update)
            .is_none());
        assert!(n.has_model());
        let checks_before = n.stats().model_checks;
        n.handle_sequenced_downlink(SimTime::from_secs(5), 3, &update);
        assert_eq!(n.stats().duplicate_requests, 1);
        assert_eq!(n.stats().model_checks, checks_before);
    }

    #[test]
    fn reply_lost_at_mac_is_reserved_on_retransmit() {
        // Scripted link: the first reply's opening fragment dies through
        // all 4 MAC attempts (4 slots), the retransmitted serving's
        // frames and acks all survive.
        let mut pattern = vec![false; 4];
        pattern.extend(std::iter::repeat_n(true, 64));
        let link = LinkModel::new(
            presto_net::LossProcess::Scripted(pattern.into()),
            presto_sim::SimRng::new(2),
        );
        let mut n = SensorNode::new(
            5,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            link,
        );
        for i in 0..50u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            n.on_sample(t, 20.0);
        }
        let req = DownlinkMsg::PullRequest {
            query_id: 9,
            from: SimTime::ZERO,
            to: SimTime::from_secs(31 * 40),
            tolerance: 0.5,
        };
        let t = SimTime::from_secs(31 * 51);
        assert!(
            n.handle_sequenced_downlink(t, 0, &req).is_none(),
            "first reply must die at the MAC"
        );
        // Retransmitted request: nothing was cached, so serve again.
        let retry = n.handle_sequenced_downlink(t + SimDuration::from_secs(10), 0, &req);
        assert!(retry.is_some(), "retransmit must recover the reply");
        assert_eq!(n.stats().duplicate_requests, 1);
    }

    #[test]
    fn aggregate_sigma_honest_about_aged_rows() {
        use crate::msg::AggregateOp;
        use presto_archive::Quality;
        let exact = [Quality::Exact; 4];
        assert_eq!(
            aggregate_sigma(AggregateOp::Mean, exact.iter().copied()),
            0.0
        );
        // Aged rows widen the bound; deeper aging widens it more.
        let aged1 = [Quality::Exact, Quality::Aged(1)];
        let aged3 = [Quality::Exact, Quality::Aged(3)];
        let s1 = aggregate_sigma(AggregateOp::Max, aged1.iter().copied());
        let s3 = aggregate_sigma(AggregateOp::Max, aged3.iter().copied());
        assert!(s1 > 0.0 && s3 > s1, "{s1} vs {s3}");
        // Mean averages bounds, so one aged row among many dilutes.
        let diluted = [
            Quality::Aged(1),
            Quality::Exact,
            Quality::Exact,
            Quality::Exact,
        ];
        let sm = aggregate_sigma(AggregateOp::Mean, diluted.iter().copied());
        assert!(sm < s1);
        // Count is exact regardless; empty ranges carry no information.
        assert_eq!(
            aggregate_sigma(AggregateOp::Count, aged3.iter().copied()),
            0.0
        );
        assert!(aggregate_sigma(AggregateOp::Mean, std::iter::empty()).is_infinite());
        // Mode adds the binning half-width.
        let sb = aggregate_sigma(AggregateOp::Mode { bin_width: 0.5 }, exact.iter().copied());
        assert_eq!(sb, 0.25);
    }

    #[test]
    fn aggregate_request_returns_scalar_over_tiny_wire() {
        use crate::msg::AggregateOp;
        let mut n = node(PushPolicy::Silent);
        for i in 0..500u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            n.on_sample(t, diurnal_value(t));
        }
        let req = DownlinkMsg::AggregateRequest {
            query_id: 5,
            from: SimTime::ZERO,
            to: SimTime::from_hours(4),
            op: AggregateOp::Max,
        };
        let reply = n
            .handle_downlink(SimTime::from_secs(31 * 501), &req)
            .unwrap();
        // The reply is a single scalar, far smaller than a pull of the
        // same range.
        assert!(reply.wire_bytes < 32, "{}", reply.wire_bytes);
        let UplinkPayload::AggregateReply { value, count, .. } = reply.payload else {
            panic!("wrong payload");
        };
        assert!(count > 400);
        // Truth: max of the diurnal curve over the first 4 hours.
        let truth = (0..=464u64)
            .map(|i| diurnal_value(SimTime::ZERO + SimDuration::from_secs(31) * i))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((value - truth).abs() < 0.01, "{value} vs {truth}");
    }

    #[test]
    fn bare_node_drains_the_archive_seal_queue() {
        // Two nodes archive the same samples; only one announces seals.
        let mut bare = node(PushPolicy::Silent);
        let mut announcing = SensorNode::new(
            7,
            SensorConfig {
                push: PushPolicy::Silent,
                announce_seals: true,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        for i in 0..4000u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            bare.on_sample(t, diurnal_value(t));
            announcing.on_sample(t, diurnal_value(t));
        }
        assert!(
            announcing.stats().seals_sent >= 2,
            "expected several sealed blocks, got {}",
            announcing.stats().seals_sent
        );
        // The bare node sealed as many blocks and kept none of them.
        assert!(bare.archive.take_sealed_spans().is_empty());
    }
}
