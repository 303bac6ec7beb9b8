//! The proxy→sensor half of the message fabric.
//!
//! Until this module existed, only sensor→proxy traffic rode the lossy
//! [`crate::fabric`]; every proxy-initiated interaction — archive pulls,
//! aggregate requests, model pushes, retunes, recovery replays — crossed
//! by an infallible direct call, so the entire pull path had never been
//! exercised under loss. The [`DownlinkChannel`] closes that asymmetry:
//! one sequenced, ack/retransmit channel per sensor, mirroring the
//! uplink machinery.
//!
//! * every request gets a **sequence number**; retransmissions reuse it,
//!   so the sensor can deduplicate (see
//!   [`presto_sensor::SensorNode::handle_sequenced_downlink`]) — a model
//!   update whose ack died is *not* applied twice, and a pull whose
//!   reply died is re-sent from the sensor's reply cache instead of
//!   re-read from flash;
//! * the request crosses the first-hop MAC (wake-up preamble, frame
//!   ARQ; the sensor's ledger pays its reception, the tethered proxy
//!   keeps no energy account) and then samples an end-to-end
//!   [`LossProcess`] for the multi-hop path, exactly like the uplink
//!   fabric — including [`LossProcess::Correlated`] shared-fading
//!   states, so a burst near the proxy degrades every sensor's pulls at
//!   once;
//! * replies and acks ride the (also lossy) reverse path; a lost reply
//!   triggers a timed-out retransmission, each timeout surfacing in the
//!   RPC's latency;
//! * retransmissions beyond the first attempt draw from an
//!   energy-charged **retry budget** that refills slowly (a token
//!   bucket): a proxy hammering a dead path exhausts it and the RPC
//!   fails honestly instead of retrying forever;
//! * a **pending-RPC table** holds the queued asynchronous RPCs and
//!   matches `PullReply`/`AggregateReply` uplinks to them by query id,
//!   consuming each reply exactly once with its entry; a blocking `rpc`
//!   call matches against the one id it holds for the length of the
//!   call. Sensor-side dedup pins a retransmitted request's reply to the
//!   same query id, so a mismatched id is a stray, counted in
//!   `duplicate_replies` and dropped.
//!
//! The channel offers two driving modes over the same attempt machinery:
//!
//! * **synchronous** — [`DownlinkChannel::rpc`] walks its own
//!   attempt/timeout schedule inside one call and returns the
//!   accumulated latency (the original mode, kept as the reference
//!   implementation for the pipeline-equivalence tests);
//! * **asynchronous** — [`DownlinkChannel::submit_async`] enqueues a
//!   reply-bearing RPC into a genuinely multi-outstanding pending-RPC
//!   table, and [`DownlinkChannel::pump_async`] — driven once per epoch
//!   by the proxy's query pipeline — issues or retransmits every due
//!   attempt (metered by a caller-held per-epoch attempt budget and the
//!   energy retry budget), matching arriving `PullReply`/
//!   `AggregateReply` messages back to their queries. Timeouts are real
//!   simulated time between pumps, so one proxy overlaps many in-flight
//!   pulls and downlink loss shows up as latency percentiles instead of
//!   serialized stalls.

use presto_net::{LinkModel, LossProcess, Mac};
use presto_sensor::{DownlinkMsg, SensorNode, UplinkMsg, UplinkPayload};
use presto_sim::{SimDuration, SimRng, SimTime};

/// How long the proxy waits on a request before retransmitting.
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Retransmissions allowed per synchronous RPC after the first attempt.
/// Matches the pre-fabric pull retry count, so a Perfect channel
/// reproduces the old failure behavior.
const MAX_RETRANSMITS: u32 = 2;

/// Retry-budget capacity, joules. Retransmissions beyond each RPC's
/// first attempt draw from it; the proxy is tethered, but unbounded
/// retries into a dead path would stall the query pipeline and
/// monopolize the shared medium, so the budget is real.
pub const RETRY_BUDGET_J: f64 = 50.0;

/// Budget refill rate, joules per hour (token bucket).
const BUDGET_REFILL_J_PER_HOUR: f64 = 20.0;

/// Downlink channel parameters.
#[derive(Clone, Debug)]
pub struct DownlinkConfig {
    /// End-to-end request loss beyond the first MAC hop.
    pub request_loss: LossProcess,
    /// Reply/ack-path loss beyond the sensor's first hop.
    pub reply_loss: LossProcess,
    /// RNG seed for the channel loss streams.
    pub seed: u64,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        DownlinkConfig {
            request_loss: LossProcess::Perfect,
            reply_loss: LossProcess::Perfect,
            seed: 0xD0_FA,
        }
    }
}

/// Downlink channel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DownlinkStats {
    /// RPCs issued.
    pub rpcs: u64,
    /// RPCs that completed (reply consumed or ack received).
    pub delivered: u64,
    /// Request retransmissions.
    pub retransmits: u64,
    /// Requests swallowed by the channel (first hop or multi-hop).
    pub requests_lost: u64,
    /// Replies or acks lost on the way back (each costs a timeout and
    /// usually produces a duplicate request at the sensor).
    pub replies_lost: u64,
    /// RPCs that failed after exhausting retransmissions.
    pub rpc_failures: u64,
    /// RPCs abandoned because the retry budget ran dry.
    pub dropped_budget: u64,
    /// Attempts blocked because the link was gated down.
    pub blocked_link_down: u64,
    /// Replies that matched no outstanding query id (duplicates or
    /// strays), dropped by the pending-RPC table.
    pub duplicate_replies: u64,
    /// Async RPCs submitted into the pending-RPC table.
    pub async_submitted: u64,
    /// Async RPCs that expired (deadline passed) before completing.
    pub async_expired: u64,
    /// Async attempts deferred because the energy retry budget was dry
    /// (the RPC waits for the bucket to refill instead of dying).
    pub deferred_budget: u64,
    /// High-water mark of simultaneously outstanding async RPCs.
    pub max_in_flight: u64,
}

presto_telemetry::observe_counters!(DownlinkStats {
    rpcs,
    delivered,
    retransmits,
    requests_lost,
    replies_lost,
    rpc_failures,
    dropped_budget,
    blocked_link_down,
    duplicate_replies,
    async_submitted,
    async_expired,
    deferred_budget,
} max { max_in_flight });

/// One transmission-scheduling event of an async RPC, logged per query
/// id when [`DownlinkChannel::set_trace_attempts`] is on — the radio-
/// level detail of a query's trace span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptEvent {
    /// First transmission of the RPC.
    First,
    /// A timeout-scheduled retransmission.
    Retransmit,
    /// An attempt deferred by the dry retry energy budget.
    Deferred,
}

/// Outcome of one fabric-routed RPC.
#[derive(Clone, Debug)]
pub struct RpcOutcome {
    /// The matched reply, for request kinds that produce one.
    pub reply: Option<UplinkMsg>,
    /// True when the request was applied at the sensor *and* the proxy
    /// learned so (reply or ack made it back).
    pub delivered: bool,
    /// End-to-end latency, including every timeout spent waiting on
    /// lost requests/replies.
    pub latency: SimDuration,
    /// Transmission attempts made (1 = first try succeeded).
    pub attempts: u32,
}

/// A queued asynchronous RPC: one entry of the multi-outstanding
/// pending-RPC table, alive across epoch pumps until its reply arrives,
/// its deadline passes, or it is cancelled.
#[derive(Clone, Debug)]
struct AsyncRpc {
    qid: u64,
    seq: u64,
    msg: DownlinkMsg,
    attempts: u32,
    next_attempt_at: SimTime,
    expires_at: SimTime,
}

/// What one `pump_async` pass observed for an outstanding RPC.
#[derive(Clone, Debug)]
pub enum AsyncRpcEvent {
    /// A reply arrived and was matched through the pending-RPC table.
    Completed {
        /// The RPC's query id.
        query_id: u64,
        /// The matched reply.
        reply: UplinkMsg,
        /// In-flight latency of the winning attempt (MAC + channel
        /// delays); the epochs spent waiting are real simulated time
        /// the caller already observes.
        attempt_latency: SimDuration,
        /// Transmission attempts made over the RPC's lifetime.
        attempts: u32,
    },
    /// The RPC's deadline passed without a matched reply.
    Expired {
        /// The RPC's query id.
        query_id: u64,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
}

/// Outcome of one transmission attempt (shared by the synchronous RPC
/// loop and the asynchronous pump).
enum Attempt {
    /// Reply-bearing request completed: the matched reply plus the
    /// attempt's in-flight latency.
    Reply(UplinkMsg, SimDuration),
    /// Ack-only request acknowledged.
    Acked(SimDuration),
    /// The attempt died somewhere (link gated, request lost, reply or
    /// ack lost, stray reply); the latency is what was spent on the air
    /// before the proxy started waiting.
    Lost(SimDuration),
}

/// A sequenced, ack/retransmit proxy→sensor channel for one sensor.
pub struct DownlinkChannel {
    /// First-hop radio link (the old per-sensor downlink `LinkModel`).
    first_hop: LinkModel,
    /// End-to-end request-path loss beyond the first hop.
    request: LinkModel,
    /// Reply/ack-path loss beyond the sensor's first hop.
    reply: LinkModel,
    /// Driver-maintained gate: false during blackouts or while the
    /// sensor is crashed.
    link_up: bool,
    next_seq: u64,
    /// The pending-RPC table: queued asynchronous RPCs awaiting their
    /// replies, in submission order (the pump serves them oldest-first,
    /// so one hot query cannot starve the rest of the channel). A
    /// blocking [`DownlinkChannel::rpc`] needs no entry: it matches
    /// replies against its one query id until the call returns.
    async_rpcs: Vec<AsyncRpc>,
    retry_spent_j: f64,
    last_refill: SimTime,
    stats: DownlinkStats,
    /// Opt-in per-RPC attempt tracing: when on, every pump-time
    /// scheduling decision is logged against its query id for the
    /// pipeline tracer to drain. Off (the default) nothing allocates.
    trace_attempts: bool,
    attempt_log: Vec<(u64, AttemptEvent)>,
}

impl DownlinkChannel {
    /// Creates a channel with the given end-to-end config over the given
    /// first-hop link.
    pub fn new(config: DownlinkConfig, first_hop: LinkModel) -> Self {
        let root = SimRng::new(config.seed);
        DownlinkChannel {
            request: LinkModel::new(config.request_loss.clone(), root.split("dl-req")),
            reply: LinkModel::new(config.reply_loss.clone(), root.split("dl-rep")),
            first_hop,
            link_up: true,
            next_seq: 0,
            async_rpcs: Vec::new(),
            retry_spent_j: 0.0,
            last_refill: SimTime::ZERO,
            stats: DownlinkStats::default(),
            trace_attempts: false,
            attempt_log: Vec::new(),
        }
    }

    /// Turns per-RPC attempt logging on or off (idempotent; the
    /// pipeline tracer enables it on the channels it pumps).
    pub fn set_trace_attempts(&mut self, on: bool) {
        self.trace_attempts = on;
        if !on {
            self.attempt_log.clear();
        }
    }

    /// Drains the attempt log recorded since the last call.
    pub fn take_attempt_log(&mut self) -> Vec<(u64, AttemptEvent)> {
        std::mem::take(&mut self.attempt_log)
    }

    /// A lossless channel over a lossless first hop (wired testbeds and
    /// unit tests).
    pub fn perfect() -> Self {
        DownlinkChannel::new(DownlinkConfig::default(), LinkModel::perfect())
    }

    /// Default end-to-end config over the given first-hop link — the
    /// drop-in replacement for call sites that used to pass a bare
    /// `LinkModel`.
    pub fn over(first_hop: LinkModel) -> Self {
        DownlinkChannel::new(DownlinkConfig::default(), first_hop)
    }

    /// Counters.
    pub fn stats(&self) -> DownlinkStats {
        self.stats
    }

    /// Gates the channel (blackout or crash). While down, every attempt
    /// dies in the channel.
    pub fn set_link_up(&mut self, up: bool) {
        self.link_up = up;
    }

    /// Remaining retry budget, joules.
    pub fn budget_remaining_j(&self) -> f64 {
        (RETRY_BUDGET_J - self.retry_spent_j).max(0.0)
    }

    /// Periodic maintenance, driven by the system tier each epoch:
    /// refills the retransmission token bucket.
    pub fn tick(&mut self, t: SimTime) {
        if t <= self.last_refill {
            return;
        }
        let dt_h = (t - self.last_refill).as_secs_f64() / 3600.0;
        self.retry_spent_j = (self.retry_spent_j - dt_h * BUDGET_REFILL_J_PER_HOUR).max(0.0);
        self.last_refill = t;
    }

    /// Runs one fabric-routed RPC: transmits `msg` towards `node` with
    /// retransmission on timeout, deduplicated at the sensor by sequence
    /// number, replies matched through the pending-RPC table. `mac`
    /// prices retransmissions against the retry budget and carries the
    /// first hop, charging the sensor's reception to its ledger.
    pub fn rpc(
        &mut self,
        t: SimTime,
        msg: &DownlinkMsg,
        node: &mut SensorNode,
        mac: &Mac,
    ) -> RpcOutcome {
        self.tick(t);
        self.stats.rpcs += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let rpc_qid = request_query_id(msg);
        let wire = msg.wire_bytes();
        let mut latency = SimDuration::ZERO;
        let mut attempts: u32 = 0;
        let mut outcome = None;

        while attempts <= MAX_RETRANSMITS {
            if attempts > 0 {
                // Retransmissions are budget-metered: the bucket empties
                // against a dead path and the RPC fails instead of
                // spinning.
                let cost = mac.expected_send_energy(wire);
                if self.retry_spent_j + cost > RETRY_BUDGET_J {
                    self.stats.dropped_budget += 1;
                    break;
                }
                self.retry_spent_j += cost;
                self.stats.retransmits += 1;
            }
            attempts += 1;

            match self.attempt_once(t, seq, msg, rpc_qid, latency, wire, node, mac) {
                Attempt::Reply(r, l) => {
                    latency += l;
                    self.stats.delivered += 1;
                    outcome = Some(RpcOutcome {
                        reply: Some(r),
                        delivered: true,
                        latency,
                        attempts,
                    });
                    break;
                }
                Attempt::Acked(l) => {
                    latency += l;
                    self.stats.delivered += 1;
                    outcome = Some(RpcOutcome {
                        reply: None,
                        delivered: true,
                        latency,
                        attempts,
                    });
                    break;
                }
                Attempt::Lost(l) => {
                    // In the synchronous mode the proxy blocks through
                    // the timeout, so it lands in the answer's latency.
                    latency += l + RPC_TIMEOUT;
                    continue;
                }
            }
        }
        outcome.unwrap_or_else(|| {
            self.stats.rpc_failures += 1;
            RpcOutcome {
                reply: None,
                delivered: false,
                latency,
                attempts,
            }
        })
    }

    /// One transmission attempt of a sequenced request: first-hop MAC,
    /// end-to-end request loss, sensor handling, reply/ack-path loss,
    /// and the pending-RPC match. `elapsed` is the latency already
    /// accumulated before this attempt starts (the synchronous loop's
    /// timeouts; zero under the async pump, where waiting is real
    /// simulated time).
    #[allow(clippy::too_many_arguments)]
    fn attempt_once(
        &mut self,
        t: SimTime,
        seq: u64,
        msg: &DownlinkMsg,
        rpc_qid: Option<u64>,
        elapsed: SimDuration,
        wire: usize,
        node: &mut SensorNode,
        mac: &Mac,
    ) -> Attempt {
        let expects_reply = rpc_qid.is_some();
        if !self.link_up {
            // The proxy cannot know the sensor is crashed or blacked
            // out, so the attempt goes out and dies; the crashed
            // sensor's radio is off and pays nothing.
            self.stats.blocked_link_down += 1;
            return Attempt::Lost(SimDuration::ZERO);
        }
        let mut latency = SimDuration::ZERO;
        let mac_out = mac.send(wire, &mut self.first_hop, node.ledger_mut(), false);
        latency += mac_out.latency;
        if !mac_out.delivered || !self.request.deliver() {
            self.stats.requests_lost += 1;
            return Attempt::Lost(latency);
        }
        latency += crate::channel_delay(wire);
        let arrive = t + elapsed + latency;
        let reply = node.handle_sequenced_downlink(arrive, seq, msg);
        match reply {
            Some(r) => {
                if !self.link_up || !self.reply.deliver() {
                    self.stats.replies_lost += 1;
                    return Attempt::Lost(latency);
                }
                latency += crate::channel_delay(r.wire_bytes);
                // Pending-RPC match: the reply must carry the id of the
                // request it answers, which is consumed with its entry.
                let consumed = match (rpc_qid, reply_query_id(&r)) {
                    (Some(want), Some(got)) => want == got,
                    (None, _) => true,
                    _ => false,
                };
                if !consumed {
                    self.stats.duplicate_replies += 1;
                    return Attempt::Lost(latency);
                }
                Attempt::Reply(r, latency)
            }
            None if expects_reply => {
                // The reply died at the sensor's own MAC; the request
                // was applied, but the proxy learns nothing — retry,
                // and the sensor's dedup serves it from cache.
                self.stats.replies_lost += 1;
                Attempt::Lost(latency)
            }
            None => {
                // Ack-only request (model update, retune): a tiny
                // link-layer ack rides the reply path.
                if !self.reply.deliver() {
                    self.stats.replies_lost += 1;
                    return Attempt::Lost(latency);
                }
                latency += crate::BASE_DELAY;
                Attempt::Acked(latency)
            }
        }
    }

    /// Enqueues a reply-bearing RPC (pull or aggregate request) into
    /// the multi-outstanding pending-RPC table without transmitting
    /// anything yet; the next [`DownlinkChannel::pump_async`] issues the
    /// first attempt. Returns the request's query id. The RPC stays
    /// outstanding across pumps until its reply is matched, `expires_at`
    /// passes, or it is cancelled.
    ///
    /// Panics if `msg` carries no query id (ack-only requests have no
    /// reply to match and keep using the synchronous path).
    pub fn submit_async(&mut self, t: SimTime, msg: DownlinkMsg, expires_at: SimTime) -> u64 {
        // presto-lint: allow(panic, documented contract: ack-only RPCs must use the sync path; a reply-less async RPC is a driver bug, not a lossy-path event)
        let qid = request_query_id(&msg).expect("async RPCs must expect a reply");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.rpcs += 1;
        self.stats.async_submitted += 1;
        self.async_rpcs.push(AsyncRpc {
            qid,
            seq,
            msg,
            attempts: 0,
            next_attempt_at: t,
            expires_at,
        });
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.async_rpcs.len() as u64);
        qid
    }

    /// Drives every outstanding async RPC that is due: expires the ones
    /// past their deadline, then issues or retransmits attempts
    /// oldest-first while `attempt_budget` lasts (the caller spreads one
    /// budget across its sensors for fairness). A lost attempt schedules
    /// its retransmission one RPC timeout (5 s) out; an attempt the energy
    /// retry budget cannot afford is deferred, not dropped — the RPC
    /// waits for the bucket to refill or its deadline, whichever first.
    pub fn pump_async(
        &mut self,
        t: SimTime,
        node: &mut SensorNode,
        mac: &Mac,
        attempt_budget: &mut u32,
    ) -> Vec<AsyncRpcEvent> {
        self.tick(t);
        let mut events = Vec::new();
        let mut i = 0;
        while i < self.async_rpcs.len() {
            if t >= self.async_rpcs[i].expires_at {
                let rpc = self.async_rpcs.remove(i);
                self.stats.async_expired += 1;
                self.stats.rpc_failures += 1;
                events.push(AsyncRpcEvent::Expired {
                    query_id: rpc.qid,
                    attempts: rpc.attempts,
                });
                continue;
            }
            if self.async_rpcs[i].next_attempt_at > t || *attempt_budget == 0 {
                i += 1;
                continue;
            }
            let wire = self.async_rpcs[i].msg.wire_bytes();
            if self.async_rpcs[i].attempts > 0 {
                let cost = mac.expected_send_energy(wire);
                if self.retry_spent_j + cost > RETRY_BUDGET_J {
                    self.stats.deferred_budget += 1;
                    if self.trace_attempts {
                        self.attempt_log
                            .push((self.async_rpcs[i].qid, AttemptEvent::Deferred));
                    }
                    self.async_rpcs[i].next_attempt_at = t + RPC_TIMEOUT;
                    i += 1;
                    continue;
                }
                self.retry_spent_j += cost;
                self.stats.retransmits += 1;
            }
            *attempt_budget -= 1;
            self.async_rpcs[i].attempts += 1;
            if self.trace_attempts {
                self.attempt_log.push((
                    self.async_rpcs[i].qid,
                    if self.async_rpcs[i].attempts == 1 {
                        AttemptEvent::First
                    } else {
                        AttemptEvent::Retransmit
                    },
                ));
            }
            let AsyncRpc {
                qid,
                seq,
                attempts,
                ..
            } = self.async_rpcs[i];
            let msg = self.async_rpcs[i].msg.clone();
            match self.attempt_once(
                t,
                seq,
                &msg,
                Some(qid),
                SimDuration::ZERO,
                wire,
                node,
                mac,
            ) {
                Attempt::Reply(r, l) => {
                    self.async_rpcs.remove(i);
                    self.stats.delivered += 1;
                    events.push(AsyncRpcEvent::Completed {
                        query_id: qid,
                        reply: r,
                        attempt_latency: l,
                        attempts,
                    });
                }
                // Unreachable: submit_async only admits reply-bearing
                // requests. Treat as lost if it ever happens.
                Attempt::Acked(_) | Attempt::Lost(_) => {
                    self.async_rpcs[i].next_attempt_at = t + RPC_TIMEOUT;
                    i += 1;
                }
            }
        }
        events
    }

    /// Re-bases the channel's request sequence numbers into a disjoint
    /// namespace. Sensor-side duplicate filtering keys on the bare
    /// sequence number across *every* channel that talks to the sensor,
    /// so two proxies driving independent channels towards one sensor
    /// (a shed query served by a peer while the owner keeps pulling)
    /// must draw their sequences from disjoint ranges or a fresh
    /// request could be mistaken for a retransmission of another
    /// proxy's. Only moves forward; call before first use.
    pub fn set_seq_namespace(&mut self, base: u64) {
        self.next_seq = self.next_seq.max(base);
    }

    /// Wipes the proxy-side half of the channel after a proxy crash:
    /// the pending-RPC table and queued async attempts are proxy RAM
    /// and die with it. The sensor-side association (sequence space,
    /// dedup window) is untouched — a successor proxy resuming the
    /// channel keeps sequencing from where the dead one stopped.
    /// Returns how many outstanding async RPCs were dropped.
    pub fn reset_proxy_state(&mut self) -> usize {
        let dropped = self.async_rpcs.len();
        self.async_rpcs.clear();
        self.attempt_log.clear();
        dropped
    }

    /// Cancels an outstanding async RPC (e.g. its last attached query
    /// expired at the pipeline tier), dropping its pending-table entry.
    /// Returns true when the RPC existed.
    pub fn cancel_async(&mut self, query_id: u64) -> bool {
        let before = self.async_rpcs.len();
        self.async_rpcs.retain(|r| r.qid != query_id);
        self.async_rpcs.len() != before
    }

    /// Outstanding async RPCs currently in flight on this channel.
    pub fn async_in_flight(&self) -> usize {
        self.async_rpcs.len()
    }
}

/// Query id carried by a request, for kinds that expect a reply.
fn request_query_id(msg: &DownlinkMsg) -> Option<u64> {
    match msg {
        DownlinkMsg::PullRequest { query_id, .. }
        | DownlinkMsg::AggregateRequest { query_id, .. } => Some(*query_id),
        DownlinkMsg::ModelUpdate { .. } | DownlinkMsg::Retune { .. } => None,
    }
}

/// Query id carried by a reply payload.
fn reply_query_id(msg: &UplinkMsg) -> Option<u64> {
    match &msg.payload {
        UplinkPayload::PullReply { query_id, .. }
        | UplinkPayload::AggregateReply { query_id, .. } => Some(*query_id),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sensor::{PushPolicy, SensorConfig};
    use presto_sim::EnergyCategory;

    fn mac() -> Mac {
        Mac::downlink(SimDuration::from_secs(1))
    }

    fn archived_node() -> SensorNode {
        let mut n = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        for i in 0..200u64 {
            n.on_sample(SimTime::from_secs(31 * i), 20.0 + (i % 7) as f64 * 0.1);
        }
        n
    }

    fn pull(qid: u64) -> DownlinkMsg {
        DownlinkMsg::PullRequest {
            query_id: qid,
            from: SimTime::ZERO,
            to: SimTime::from_secs(31 * 100),
            tolerance: 0.3,
        }
    }

    #[test]
    fn perfect_channel_completes_in_one_attempt() {
        let mut ch = DownlinkChannel::perfect();
        let mut node = archived_node();
        let rx_before = node.ledger().category(EnergyCategory::RadioRx);
        let t = SimTime::from_hours(2);
        let out = ch.rpc(t, &pull(1), &mut node, &mac());
        assert!(out.delivered);
        assert_eq!(out.attempts, 1);
        let r = out.reply.expect("pull produces a reply");
        assert!(matches!(r.payload, UplinkPayload::PullReply { query_id: 1, .. }));
        // Latency includes the LPL preamble plus channel delays.
        assert!(out.latency >= SimDuration::from_secs(1));
        assert_eq!(ch.stats().delivered, 1);
        assert!(
            node.ledger().category(EnergyCategory::RadioRx) > rx_before,
            "the sensor pays to hear the request"
        );
    }

    #[test]
    fn lost_request_retries_and_latency_carries_the_timeouts() {
        // First request dies end-to-end, second survives.
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Scripted(vec![false, true].into()),
            ..DownlinkConfig::default()
        };
        let mut ch = DownlinkChannel::new(cfg.clone(), LinkModel::perfect());
        let mut node = archived_node();
        let out = ch.rpc(SimTime::from_hours(2), &pull(2), &mut node, &mac());
        assert!(out.delivered);
        assert_eq!(out.attempts, 2);
        assert!(
            out.latency >= RPC_TIMEOUT,
            "the lost attempt's timeout must surface in latency"
        );
        assert_eq!(ch.stats().retransmits, 1);
        assert_eq!(ch.stats().requests_lost, 1);
    }

    #[test]
    fn lost_reply_is_recovered_from_sensor_cache_not_flash() {
        let cfg = DownlinkConfig {
            reply_loss: LossProcess::Scripted(vec![false, true].into()),
            ..DownlinkConfig::default()
        };
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let out = ch.rpc(SimTime::from_hours(2), &pull(3), &mut node, &mac());
        assert!(out.delivered);
        assert_eq!(out.attempts, 2);
        // The sensor served the flash read once and answered the
        // retransmission from its reply cache.
        assert_eq!(node.stats().pulls_served, 1);
        assert_eq!(node.stats().duplicate_requests, 1);
        assert_eq!(ch.stats().replies_lost, 1);
    }

    #[test]
    fn dead_channel_fails_honestly_after_retries() {
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Bernoulli(1.0),
            ..DownlinkConfig::default()
        };
        let max = MAX_RETRANSMITS;
        let timeout = RPC_TIMEOUT;
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let out = ch.rpc(SimTime::from_hours(2), &pull(4), &mut node, &mac());
        assert!(!out.delivered);
        assert!(out.reply.is_none());
        assert_eq!(out.attempts, max + 1);
        assert!(out.latency >= timeout * (max as u64 + 1));
        assert_eq!(ch.stats().rpc_failures, 1);
    }

    #[test]
    fn ack_only_requests_dedup_at_the_sensor() {
        // Ack path drops the first ack; the model update must be applied
        // exactly once and the retransmission acked from the dedup
        // window.
        let cfg = DownlinkConfig {
            reply_loss: LossProcess::Scripted(vec![false, true].into()),
            ..DownlinkConfig::default()
        };
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let retune = DownlinkMsg::Retune {
            push_tolerance: Some(2.0),
            batching_interval: None,
            lpl_check_interval: None,
        };
        let out = ch.rpc(SimTime::from_hours(2), &retune, &mut node, &mac());
        assert!(out.delivered);
        assert_eq!(out.attempts, 2);
        assert_eq!(node.stats().duplicate_requests, 1);
    }

    /// Spends `ch`'s retry budget at `t` until it cannot pay for one
    /// more retransmission of a pull: blocking RPCs on a gated link, each
    /// retransmitting until its count or the budget stops it. A gated
    /// attempt draws nothing from the loss processes. Returns the number
    /// of RPCs it took.
    fn drain_budget(ch: &mut DownlinkChannel, t: SimTime, node: &mut SensorNode) -> u64 {
        ch.set_link_up(false);
        let mut rpcs = 0;
        while ch.stats().dropped_budget == 0 {
            assert!(!ch.rpc(t, &pull(1), node, &mac()).delivered);
            rpcs += 1;
        }
        ch.set_link_up(true);
        rpcs
    }

    #[test]
    fn budget_bounds_retries_and_refills_over_time() {
        let mut ch = DownlinkChannel::perfect();
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        let cost = mac().expected_send_energy(pull(1).wire_bytes());
        let rpcs = drain_budget(&mut ch, t, &mut node);
        // Each failed RPC but the last spent its full retransmit count.
        assert_eq!(
            rpcs,
            (RETRY_BUDGET_J / (cost * f64::from(MAX_RETRANSMITS))) as u64 + 1
        );
        let drained = ch.budget_remaining_j();
        assert!(drained < cost, "budget must bound attempts");
        // An hour later the bucket has refilled.
        ch.tick(t + SimDuration::from_hours(1));
        assert!(ch.budget_remaining_j() > drained);
    }

    #[test]
    fn gated_link_fails_and_the_down_sensor_pays_nothing() {
        let mut ch = DownlinkChannel::perfect();
        ch.set_link_up(false);
        let mut node = archived_node();
        let rx_before = node.ledger().total();
        let out = ch.rpc(SimTime::from_hours(2), &pull(6), &mut node, &mac());
        assert!(!out.delivered);
        // The crashed sensor's radio is off: it pays nothing.
        assert_eq!(node.ledger().total(), rx_before);
        assert!(ch.stats().blocked_link_down >= 1);
        // Reopening restores service.
        ch.set_link_up(true);
        let out = ch.rpc(SimTime::from_hours(2), &pull(7), &mut node, &mac());
        assert!(out.delivered);
    }

    /// Pumps with an effectively unlimited attempt budget.
    fn pump_all(ch: &mut DownlinkChannel, t: SimTime, node: &mut SensorNode) -> Vec<AsyncRpcEvent> {
        let mut budget = u32::MAX;
        ch.pump_async(t, node, &mac(), &mut budget)
    }

    #[test]
    fn async_rpcs_are_multi_outstanding_and_drain() {
        let mut ch = DownlinkChannel::perfect();
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        let deadline = t + SimDuration::from_mins(10);
        for q in 0..5u64 {
            ch.submit_async(t, pull(q), deadline);
        }
        assert_eq!(ch.async_in_flight(), 5, "pending table holds all five");
        assert_eq!(ch.stats().max_in_flight, 5);
        let events = pump_all(&mut ch, t, &mut node);
        assert_eq!(events.len(), 5);
        let mut qids: Vec<u64> = events
            .iter()
            .map(|e| match e {
                AsyncRpcEvent::Completed { query_id, reply, .. } => {
                    assert!(matches!(reply.payload, UplinkPayload::PullReply { .. }));
                    *query_id
                }
                other => panic!("perfect channel must complete: {other:?}"),
            })
            .collect();
        qids.sort_unstable();
        assert_eq!(qids, vec![0, 1, 2, 3, 4]);
        // Bookkeeping invariant: nothing leaks after completion.
        assert_eq!(ch.async_in_flight(), 0);
    }

    #[test]
    fn async_lost_attempt_retransmits_on_a_later_pump() {
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Scripted(vec![false, true].into()),
            ..DownlinkConfig::default()
        };
        let timeout = RPC_TIMEOUT;
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        ch.submit_async(t, pull(1), t + SimDuration::from_mins(10));
        assert!(pump_all(&mut ch, t, &mut node).is_empty());
        assert_eq!(ch.async_in_flight(), 1, "lost RPC stays outstanding");
        // Not due yet: pumping again immediately does nothing.
        assert!(pump_all(&mut ch, t, &mut node).is_empty());
        assert_eq!(ch.stats().retransmits, 0);
        // After the timeout the retransmission goes out and completes.
        let events = pump_all(&mut ch, t + timeout, &mut node);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            AsyncRpcEvent::Completed { query_id: 1, attempts: 2, .. }
        ));
        assert_eq!(ch.stats().retransmits, 1);
        assert_eq!(ch.async_in_flight(), 0);
    }

    #[test]
    fn async_expiry_is_honest_and_leaves_no_entry() {
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Bernoulli(1.0),
            ..DownlinkConfig::default()
        };
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        let deadline = t + SimDuration::from_secs(20);
        ch.submit_async(t, pull(7), deadline);
        let mut now = t;
        let mut expired = None;
        for _ in 0..10 {
            for e in pump_all(&mut ch, now, &mut node) {
                expired = Some(e);
            }
            now += SimDuration::from_secs(10);
        }
        match expired.expect("dead channel must expire the RPC") {
            AsyncRpcEvent::Expired { query_id, attempts } => {
                assert_eq!(query_id, 7);
                assert!(attempts >= 1, "at least one attempt before expiry");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ch.async_in_flight(), 0, "expired RPCs leave no entry");
        assert_eq!(ch.stats().async_expired, 1);
    }

    #[test]
    fn async_cancel_removes_pending_entry() {
        let mut ch = DownlinkChannel::perfect();
        let t = SimTime::from_hours(2);
        ch.submit_async(t, pull(3), t + SimDuration::from_mins(5));
        assert!(ch.cancel_async(3));
        assert!(!ch.cancel_async(3), "double cancel is a no-op");
        assert_eq!(ch.async_in_flight(), 0);
    }

    #[test]
    fn async_attempt_budget_bounds_per_pump_work() {
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Bernoulli(1.0),
            ..DownlinkConfig::default()
        };
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        for q in 0..5u64 {
            ch.submit_async(t, pull(q), t + SimDuration::from_mins(10));
        }
        let mut budget = 2u32;
        ch.pump_async(t, &mut node, &mac(), &mut budget);
        assert_eq!(budget, 0);
        assert_eq!(
            ch.stats().requests_lost,
            2,
            "only the budgeted attempts were transmitted"
        );
        assert_eq!(ch.async_in_flight(), 5, "unattempted RPCs stay queued");
    }

    #[test]
    fn async_empty_retry_budget_defers_instead_of_dropping() {
        let cfg = DownlinkConfig {
            request_loss: LossProcess::Scripted(vec![false, true].into()),
            ..DownlinkConfig::default()
        };
        let timeout = RPC_TIMEOUT;
        let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
        let mut node = archived_node();
        let t = SimTime::from_hours(2);
        ch.submit_async(t, pull(2), t + SimDuration::from_hours(2));
        // Attempt 1 (free) lost; by the retry the bucket is drained, so
        // the retry defers.
        assert!(pump_all(&mut ch, t, &mut node).is_empty());
        drain_budget(&mut ch, t + timeout, &mut node);
        let retransmits = ch.stats().retransmits;
        assert!(pump_all(&mut ch, t + timeout, &mut node).is_empty());
        assert_eq!(ch.stats().deferred_budget, 1);
        assert_eq!(ch.stats().retransmits, retransmits, "nothing was resent");
        assert_eq!(ch.async_in_flight(), 1, "deferred RPC must survive");
        // An hour later the bucket refilled; the retry completes.
        let events = pump_all(&mut ch, t + SimDuration::from_hours(1), &mut node);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], AsyncRpcEvent::Completed { query_id: 2, .. }));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = DownlinkConfig {
                request_loss: LossProcess::Bernoulli(0.4),
                reply_loss: LossProcess::Bernoulli(0.2),
                seed,
            };
            let mut ch = DownlinkChannel::new(cfg, LinkModel::perfect());
            let mut node = archived_node();
            (0..32u64)
                .map(|i| {
                    let out = ch.rpc(
                        SimTime::from_hours(2) + SimDuration::from_secs(i),
                        &pull(i),
                        &mut node,
                        &mac(),
                    );
                    (out.delivered, out.attempts)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
