//! The lossy, delayed message fabric between sensors and their proxy.
//!
//! Before this layer existed, every MAC-delivered uplink reached the
//! proxy by direct method call that could not fail, so the loss models
//! in `presto-net` never shaped what the proxy actually saw. The fabric
//! interposes an end-to-end channel per sensor:
//!
//! * each offered message gets a **sequence number** and enters an
//!   unacked window;
//! * the channel samples a [`LossProcess`] per message (the multi-hop
//!   path beyond the first MAC hop — blacked out entirely during an
//!   injected outage);
//! * surviving messages are **delivered later**, at `offer time +
//!   base delay + per-byte serialization delay`, through a
//!   deterministic time-ordered queue;
//! * delivery triggers an **ack** over the (also lossy) reverse
//!   channel; unacked messages are **retransmitted** after a timeout,
//!   charging the sensor's energy ledger per attempt from a bounded
//!   **retry budget** — when the budget or retry count runs out the
//!   message is dropped for good and the loss surfaces as a sequence
//!   gap for [`crate::recovery`] to repair from the archive.
//!
//! Lost acks cause duplicate deliveries (at-least-once semantics); the
//! receiver side deduplicates by sequence number via
//! [`crate::recovery::GapTracker`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use presto_net::{LinkModel, LossProcess, Mac};
use presto_sensor::UplinkMsg;
use presto_sim::{SimDuration, SimRng, SimTime};

/// How long a message may sit unacked before retransmission.
const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Retransmissions allowed per message after the first attempt.
const MAX_RETRANSMITS: u32 = 4;

/// Per-sensor lifetime energy budget for retransmissions, joules.
/// Retrying into a dead link would otherwise burn the battery the
/// silent-sensor architecture exists to save.
const RETRY_BUDGET_J: f64 = 20.0;

/// Fabric parameters.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// End-to-end uplink message loss (beyond MAC-level frame loss).
    pub up_loss: LossProcess,
    /// Ack-path loss.
    pub down_loss: LossProcess,
    /// RNG seed for the channel loss streams.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            up_loss: LossProcess::Perfect,
            down_loss: LossProcess::Perfect,
            seed: 0x0F_AB,
        }
    }
}

/// An uplink message with its fabric sequence number.
#[derive(Clone, Debug)]
pub struct SequencedUplink {
    /// Per-sensor sequence number (0-based, gap-free at the sender).
    pub seq: u64,
    /// The message.
    pub msg: UplinkMsg,
}

/// Fabric counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages offered by sensors.
    pub offered: u64,
    /// Deliveries handed to the proxy (duplicates included).
    pub delivered: u64,
    /// Transmission attempts swallowed by the channel.
    pub lost_in_channel: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Acks lost on the reverse path (each causes a duplicate later).
    pub acks_lost: u64,
    /// Messages abandoned after exhausting retransmits.
    pub dropped_retries: u64,
    /// Messages abandoned because the retry energy budget ran out.
    pub dropped_budget: u64,
    /// Messages discarded because the link was down (blackout/crash).
    pub blocked_link_down: u64,
}

presto_telemetry::observe_counters!(FabricStats {
    offered,
    delivered,
    lost_in_channel,
    retransmits,
    acks_lost,
    dropped_retries,
    dropped_budget,
    blocked_link_down,
});

struct Pending {
    seq: u64,
    msg: UplinkMsg,
    last_attempt: SimTime,
    attempts: u32,
}

struct Channel {
    up: LinkModel,
    down: LinkModel,
    /// Driver-maintained gate: false during blackouts or while the
    /// sensor is crashed.
    link_up: bool,
    next_seq: u64,
    unacked: VecDeque<Pending>,
    retry_spent_j: f64,
}

struct InFlight {
    deliver_at: SimTime,
    order: u64,
    sensor: usize,
    seq: u64,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.order == other.order
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deliver_at
            .cmp(&other.deliver_at)
            .then_with(|| self.order.cmp(&other.order))
    }
}

/// The per-deployment message fabric.
pub struct Fabric {
    channels: Vec<Channel>,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    next_order: u64,
    retx_mac: Mac,
    stats: FabricStats,
}

impl Fabric {
    /// Creates a fabric with one channel per sensor, whose loss
    /// processes may be overridden — the hook correlated-loss
    /// deployments use to hand every channel near one proxy a clone of
    /// the same [`presto_net::SharedLossState`]. Returning `None` keeps
    /// the config's processes for that sensor.
    pub fn new_with_losses(
        config: FabricConfig,
        sensors: usize,
        mut losses: impl FnMut(usize) -> Option<(LossProcess, LossProcess)>,
    ) -> Self {
        let root = SimRng::new(config.seed);
        let channels = (0..sensors)
            .map(|i| {
                let (up_loss, down_loss) = losses(i)
                    .unwrap_or_else(|| (config.up_loss.clone(), config.down_loss.clone()));
                Channel {
                    up: LinkModel::new(up_loss, root.split(&format!("fab-up-{i}"))),
                    down: LinkModel::new(down_loss, root.split(&format!("fab-down-{i}"))),
                    link_up: true,
                    next_seq: 0,
                    unacked: VecDeque::new(),
                    retry_spent_j: 0.0,
                }
            })
            .collect();
        let retx_mac = Mac::uplink();
        Fabric {
            channels,
            in_flight: BinaryHeap::new(),
            next_order: 0,
            retx_mac,
            stats: FabricStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Gates one sensor's channel (blackout or crash). While down,
    /// every attempt dies in the channel and no delivery or ack occurs.
    pub fn set_link_up(&mut self, sensor: usize, up: bool) {
        self.channels[sensor].link_up = up;
    }

    /// Drops a sensor's pending retransmissions (RAM lost on crash).
    /// Their sequence numbers become a permanent gap — which is the
    /// point: recovery replays them from the flash archive instead.
    pub fn clear_pending(&mut self, sensor: usize) {
        self.channels[sensor].unacked.clear();
    }

    /// Accepts a MAC-delivered uplink from `sensor` at time `t`,
    /// assigning it the next sequence number and attempting first
    /// transmission. Returns the assigned sequence number.
    pub fn offer(&mut self, t: SimTime, sensor: usize, msg: UplinkMsg) -> u64 {
        self.stats.offered += 1;
        let ch = &mut self.channels[sensor];
        let seq = ch.next_seq;
        ch.next_seq += 1;
        let mut pending = Pending {
            seq,
            msg,
            last_attempt: t,
            attempts: 1,
        };
        Self::attempt(
            &mut self.stats,
            &mut self.in_flight,
            &mut self.next_order,
            sensor,
            ch,
            &mut pending,
            t,
        );
        ch.unacked.push_back(pending);
        seq
    }

    /// One transmission attempt of a pending message through the
    /// channel. On survival the message is scheduled for delivery.
    fn attempt(
        stats: &mut FabricStats,
        in_flight: &mut BinaryHeap<Reverse<InFlight>>,
        next_order: &mut u64,
        sensor: usize,
        ch: &mut Channel,
        pending: &mut Pending,
        t: SimTime,
    ) {
        if !ch.link_up {
            stats.blocked_link_down += 1;
            return;
        }
        if !ch.up.deliver() {
            stats.lost_in_channel += 1;
            return;
        }
        let deliver_at = t + crate::channel_delay(pending.msg.wire_bytes);
        let order = *next_order;
        *next_order += 1;
        in_flight.push(Reverse(InFlight {
            deliver_at,
            order,
            sensor,
            seq: pending.seq,
        }));
    }

    /// Hands over every delivery due by `t`, in delivery-time order.
    /// Each delivery samples the ack path: an acked message leaves the
    /// sender's unacked window; a lost ack leaves it there, producing a
    /// duplicate delivery after the next retransmission.
    pub fn poll(&mut self, t: SimTime) -> Vec<(usize, SequencedUplink)> {
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.deliver_at > t {
                break;
            }
            let Some(Reverse(flight)) = self.in_flight.pop() else {
                break;
            };
            let ch = &mut self.channels[flight.sensor];
            let Some(pos) = ch.unacked.iter().position(|p| p.seq == flight.seq) else {
                // Sender state is gone (crash cleared it, or an earlier
                // duplicate was acked and retired): deliver a copy only
                // if we still can — without sender state we cannot, so
                // the flight is dropped. Duplicates of *retired*
                // messages are rare (ack raced the retransmit) and
                // harmless to drop.
                continue;
            };
            self.stats.delivered += 1;
            let msg = ch.unacked[pos].msg.clone();
            // Ack over the reverse channel.
            if ch.link_up && ch.down.deliver() {
                ch.unacked.remove(pos);
            } else {
                self.stats.acks_lost += 1;
            }
            out.push((
                flight.sensor,
                SequencedUplink {
                    seq: flight.seq,
                    msg,
                },
            ));
        }
        out
    }

    /// Runs the retransmission machinery at time `t`. `charge` is called
    /// with `(sensor, joules)` for every retransmission attempt so the
    /// driver can bill the sensor's energy ledger (radio transmit).
    pub fn tick<F: FnMut(usize, f64)>(&mut self, t: SimTime, mut charge: F) {
        for sensor in 0..self.channels.len() {
            let ch = &mut self.channels[sensor];
            let mut i = 0;
            while i < ch.unacked.len() {
                let due = t - ch.unacked[i].last_attempt >= RETRANSMIT_TIMEOUT;
                if !due {
                    i += 1;
                    continue;
                }
                if ch.unacked[i].attempts > MAX_RETRANSMITS {
                    self.stats.dropped_retries += 1;
                    ch.unacked.remove(i);
                    continue;
                }
                let cost = self.retx_mac.expected_send_energy(ch.unacked[i].msg.wire_bytes);
                if ch.retry_spent_j + cost > RETRY_BUDGET_J {
                    self.stats.dropped_budget += 1;
                    ch.unacked.remove(i);
                    continue;
                }
                ch.retry_spent_j += cost;
                charge(sensor, cost);
                self.stats.retransmits += 1;
                let Some(mut pending) = ch.unacked.remove(i) else {
                    continue;
                };
                pending.attempts += 1;
                pending.last_attempt = t;
                Self::attempt(
                    &mut self.stats,
                    &mut self.in_flight,
                    &mut self.next_order,
                    sensor,
                    ch,
                    &mut pending,
                    t,
                );
                ch.unacked.insert(i, pending);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sensor::UplinkPayload;

    /// Messages awaiting ack across all channels.
    fn unacked_total(f: &Fabric) -> usize {
        f.channels.iter().map(|c| c.unacked.len()).sum()
    }

    fn msg(t: SimTime, v: f64) -> UplinkMsg {
        UplinkMsg {
            sensor: 0,
            sent_at: t,
            wire_bytes: 15,
            payload: UplinkPayload::Value { value: v },
        }
    }

    fn perfect_fabric() -> Fabric {
        Fabric::new_with_losses(FabricConfig::default(), 2, |_| None)
    }

    #[test]
    fn perfect_channel_delivers_in_order_with_delay() {
        let mut f = perfect_fabric();
        let t0 = SimTime::from_secs(10);
        for i in 0..5u64 {
            let s = f.offer(t0 + SimDuration::from_millis(i), 0, msg(t0, i as f64));
            assert_eq!(s, i);
        }
        // Nothing due immediately.
        assert!(f.poll(t0).is_empty());
        let got = f.poll(t0 + SimDuration::from_secs(1));
        assert_eq!(got.len(), 5);
        let seqs: Vec<u64> = got.iter().map(|(_, m)| m.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // All acked: nothing pending.
        assert_eq!(unacked_total(&f), 0);
        assert_eq!(f.stats().delivered, 5);
    }

    #[test]
    fn lossy_channel_recovers_via_retransmit() {
        // One attempt in five is lost, so `MAX_RETRANSMITS` (4) retries
        // lose a message with probability 0.2^5.
        let cfg = FabricConfig {
            up_loss: LossProcess::Bernoulli(0.2),
            ..FabricConfig::default()
        };
        let mut f = Fabric::new_with_losses(cfg, 1, |_| None);
        let t0 = SimTime::from_secs(1);
        for i in 0..50u64 {
            f.offer(t0 + SimDuration::from_millis(10 * i), 0, msg(t0, i as f64));
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut charged = 0.0;
        for k in 1..200u64 {
            let t = t0 + SimDuration::from_secs(10 * k);
            for (_, d) in f.poll(t) {
                seen.insert(d.seq);
            }
            f.tick(t, |_, j| charged += j);
            if seen.len() == 50 {
                break;
            }
        }
        assert_eq!(seen.len(), 50, "all messages eventually delivered");
        assert!(f.stats().retransmits > 0);
        assert!(charged > 0.0, "retransmissions must cost energy");
    }

    #[test]
    fn lost_acks_cause_duplicates_not_loss() {
        let cfg = FabricConfig {
            down_loss: LossProcess::Bernoulli(1.0), // every ack dies
            ..FabricConfig::default()
        };
        let mut f = Fabric::new_with_losses(cfg, 1, |_| None);
        let t0 = SimTime::from_secs(1);
        f.offer(t0, 0, msg(t0, 1.0));
        let mut deliveries = 0;
        for k in 1..20u64 {
            let t = t0 + SimDuration::from_secs(10 * k);
            deliveries += f.poll(t).len();
            f.tick(t, |_, _| {});
        }
        assert!(deliveries > 1, "duplicates expected with dead ack path");
        assert!(f.stats().acks_lost as usize >= deliveries);
        // Eventually abandoned after max retransmits.
        assert_eq!(unacked_total(&f), 0);
    }

    #[test]
    fn dead_link_drops_after_retry_budget_or_count() {
        let cfg = FabricConfig {
            up_loss: LossProcess::Bernoulli(1.0),
            ..FabricConfig::default()
        };
        let mut f = Fabric::new_with_losses(cfg, 2, |_| None);
        // Sensor 1's message is so large that `MAX_RETRANSMITS`
        // retransmissions of it would spend more than the budget.
        let big = 256 * 1024;
        let cost = Mac::uplink().expected_send_energy(big);
        assert!(cost * f64::from(MAX_RETRANSMITS) > RETRY_BUDGET_J);
        let t0 = SimTime::from_secs(1);
        f.offer(t0, 0, msg(t0, 1.0));
        f.offer(
            t0,
            1,
            UplinkMsg {
                wire_bytes: big,
                ..msg(t0, 2.0)
            },
        );
        let mut charged = [0.0; 2];
        for k in 1..50u64 {
            f.tick(t0 + SimDuration::from_secs(10 * k), |s, j| charged[s] += j);
        }
        assert_eq!(unacked_total(&f), 0, "count and budget must bound retries");
        assert_eq!(f.stats().dropped_retries, 1);
        assert_eq!(f.stats().dropped_budget, 1);
        assert_eq!(f.stats().retransmits, u64::from(MAX_RETRANSMITS) + 2);
        assert!(charged[1] <= RETRY_BUDGET_J);
        assert_eq!(f.stats().delivered, 0);
    }

    #[test]
    fn link_gate_blocks_and_reopens() {
        let mut f = perfect_fabric();
        let t0 = SimTime::from_secs(1);
        f.set_link_up(0, false);
        f.offer(t0, 0, msg(t0, 1.0));
        assert!(f.poll(t0 + SimDuration::from_secs(5)).is_empty());
        assert_eq!(f.stats().blocked_link_down, 1);
        // Reopen: the pending message retransmits through.
        f.set_link_up(0, true);
        f.tick(t0 + SimDuration::from_secs(30), |_, _| {});
        let got = f.poll(t0 + SimDuration::from_secs(31));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.seq, 0);
    }

    #[test]
    fn clear_pending_leaves_a_sequence_gap() {
        let mut f = perfect_fabric();
        let t0 = SimTime::from_secs(1);
        f.set_link_up(0, false);
        f.offer(t0, 0, msg(t0, 1.0)); // seq 0, stuck
        f.clear_pending(0);
        f.set_link_up(0, true);
        let s = f.offer(t0 + SimDuration::from_secs(5), 0, msg(t0, 2.0));
        assert_eq!(s, 1, "sequence numbering survives the crash");
        let got = f.poll(t0 + SimDuration::from_secs(6));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.seq, 1, "seq 0 is a permanent gap");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = FabricConfig {
                up_loss: LossProcess::Bernoulli(0.4),
                seed,
                ..FabricConfig::default()
            };
            let mut f = Fabric::new_with_losses(cfg, 1, |_| None);
            let t0 = SimTime::from_secs(1);
            for i in 0..64u64 {
                f.offer(t0 + SimDuration::from_secs(i), 0, msg(t0, i as f64));
            }
            let got = f.poll(t0 + SimDuration::from_secs(100));
            got.iter().map(|(_, d)| d.seq).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
