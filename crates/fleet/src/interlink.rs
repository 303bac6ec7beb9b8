//! The proxy↔proxy inter-link mesh.
//!
//! Proxies are tethered, but the paths between them are not free: a
//! deployment's cluster heads talk over the same congested backhaul or
//! long-haul radio their sensors fade on. The mesh reuses the channel
//! discipline of the sensor-tier fabric — per-pair sequence numbers,
//! receiver-side duplicate filtering, ack/retransmit driven once per
//! epoch, a bounded retransmission count — so a forwarded query is
//! either delivered exactly once or visibly dropped, never silently
//! duplicated into two adoptions.
//!
//! The default loss process is [`LossProcess::Mixed`]: each ordered
//! pair owns a private Gilbert–Elliott chain (its own path's fades)
//! composed with one mesh-wide [`SharedLossState`] (the common backhaul
//! segment), advanced by the deployment driver per epoch — so inter-link
//! bursts hit every forwarding decision at once, exactly when shedding
//! is most tempting.

use std::collections::{BTreeMap, BTreeSet};

use presto_net::{GilbertElliott, LinkModel, LossProcess, SharedLossState};
use presto_proxy::{PipelineAnswer, PipelineQuery};
use presto_sim::{SimRng, SimTime};

/// A message between proxies.
#[derive(Clone, Debug)]
pub enum FleetMsg {
    /// A shed (or re-routed) query forwarded for adoption.
    Forward {
        /// Fleet-level ticket (router-assigned, deployment-unique).
        ticket: u64,
        /// The query.
        query: PipelineQuery,
        /// Absolute per-query deadline; the adopter inherits it.
        deadline: SimTime,
        /// When the user submitted it (for end-to-end latency).
        submitted_at: SimTime,
    },
    /// A completed (or honestly failed) adopted query's answer heading
    /// back to the entry proxy.
    Completion {
        /// Fleet-level ticket.
        ticket: u64,
        /// The answer, verbatim from the adopter's pipeline.
        answer: PipelineAnswer,
    },
    /// A membership heartbeat lease renewal. Heartbeats are datagrams
    /// ([`InterLinkMesh::send_datagram`]): one attempt, no ack, no
    /// retransmission — the next epoch's beacon supersedes a lost one,
    /// and retransmitting stale liveness claims would only delay
    /// suspicion.
    Heartbeat {
        /// When the sender emitted it.
        sent_at: SimTime,
    },
}

/// Retransmissions allowed per message after the first attempt (one
/// attempt per epoch; a message that exhausts them is dropped and
/// counted, and the sender's deadline machinery fails the ticket
/// honestly).
const MAX_RETRANSMITS: u32 = 4;

/// Mesh parameters.
#[derive(Clone, Debug)]
pub struct InterLinkConfig {
    /// Per-pair private burst chain (composed with the shared state
    /// into [`LossProcess::Mixed`] when `shared_chain` is set).
    // presto-lint: allow(knob, small_fleet, the interlink tests and both fleet property tests: a lossless or dead mesh)
    pub link_chain: GilbertElliott,
    /// Mesh-wide shared fading chain; `None` leaves pairs independent.
    pub shared_chain: Option<GilbertElliott>,
}

impl Default for InterLinkConfig {
    fn default() -> Self {
        InterLinkConfig {
            // Mostly-clean backhaul with occasional multi-epoch fades.
            link_chain: GilbertElliott {
                p_gb: 0.01,
                p_bg: 0.3,
                loss_good: 0.02,
                loss_bad: 0.6,
            },
            shared_chain: Some(GilbertElliott {
                p_gb: 0.005,
                p_bg: 0.25,
                loss_good: 0.0,
                loss_bad: 0.8,
            }),
        }
    }
}

/// Mesh counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterLinkStats {
    /// Messages offered to the mesh.
    pub sent: u64,
    /// Messages delivered (first copies only).
    pub delivered: u64,
    /// Transmission attempts that died in the channel.
    pub lost: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Messages abandoned *undelivered* after exhausting
    /// retransmissions.
    pub dropped: u64,
    /// Messages that were delivered but whose acks never made it back
    /// before retransmissions ran out (the receiver has them; only the
    /// sender's bookkeeping gave up).
    pub ack_exhausted: u64,
    /// Duplicate deliveries filtered at the receiver (lost acks).
    pub duplicates: u64,
    /// Acks lost on the reverse path.
    pub acks_lost: u64,
}

presto_telemetry::observe_counters!(InterLinkStats {
    sent,
    delivered,
    lost,
    retransmits,
    dropped,
    ack_exhausted,
    duplicates,
    acks_lost,
});

/// One in-flight mesh message.
#[derive(Clone, Debug)]
struct PendingMsg {
    src: usize,
    dst: usize,
    seq: u64,
    msg: FleetMsg,
    attempts: u32,
    /// Reliable messages ack and retransmit; datagrams get exactly one
    /// attempt and are forgotten (heartbeats).
    reliable: bool,
}

/// The sequenced, lossy proxy↔proxy mesh.
pub struct InterLinkMesh {
    config: InterLinkConfig,
    proxies: usize,
    /// Forward-path loss per ordered pair, lazily built.
    links: BTreeMap<(usize, usize), LinkModel>,
    /// Next sequence number per ordered pair.
    next_seq: BTreeMap<(usize, usize), u64>,
    /// Receiver dedup per ordered pair: the sequence numbers of reliable
    /// messages delivered but not yet retired by their sender (acked or
    /// exhausted). Only those can still arrive again; datagrams never
    /// repeat, so they never enter.
    delivered: BTreeMap<(usize, usize), BTreeSet<u64>>,
    /// Mesh-wide shared fading state, advanced by the driver.
    shared: Option<SharedLossState>,
    /// Per-proxy gate: a down proxy neither sends nor receives.
    up: Vec<bool>,
    pending: Vec<PendingMsg>,
    rng: SimRng,
    stats: InterLinkStats,
}

impl InterLinkMesh {
    /// Creates a mesh over `proxies` proxies; `seed` roots its loss
    /// streams.
    pub fn new(config: InterLinkConfig, proxies: usize, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        let shared = config
            .shared_chain
            .map(|chain| SharedLossState::new(chain, rng.split("il-shared")));
        InterLinkMesh {
            proxies,
            links: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            delivered: BTreeMap::new(),
            shared,
            up: vec![true; proxies],
            pending: Vec::new(),
            rng,
            stats: InterLinkStats::default(),
        config,
        }
    }

    /// Counters.
    pub fn stats(&self) -> InterLinkStats {
        self.stats
    }

    /// Gates a proxy's mesh endpoints (blackout). While down, its
    /// outgoing attempts and incoming deliveries all die in the channel
    /// — attempts are still consumed, exactly as transmissions towards
    /// a dead receiver cost airtime on real hardware.
    pub fn set_up(&mut self, proxy: usize, up: bool) {
        self.up[proxy] = up;
    }

    /// Messages currently in flight (leak probe: bounded by retransmit
    /// exhaustion, zero once traffic stops and retries drain).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Offers a message from `src` to `dst`; the next [`step`] makes
    /// the first delivery attempt.
    ///
    /// [`step`]: InterLinkMesh::step
    pub fn send(&mut self, src: usize, dst: usize, msg: FleetMsg) {
        self.enqueue(src, dst, msg, true);
    }

    /// Offers an unreliable datagram from `src` to `dst`: the next
    /// [`step`] makes exactly one delivery attempt — no ack, no
    /// retransmission, the message is forgotten either way. Used for
    /// heartbeats, whose next beacon supersedes a lost one.
    ///
    /// [`step`]: InterLinkMesh::step
    pub fn send_datagram(&mut self, src: usize, dst: usize, msg: FleetMsg) {
        self.enqueue(src, dst, msg, false);
    }

    fn enqueue(&mut self, src: usize, dst: usize, msg: FleetMsg, reliable: bool) {
        assert!(src < self.proxies && dst < self.proxies && src != dst);
        let seq = self.next_seq.entry((src, dst)).or_insert(0);
        let s = *seq;
        *seq += 1;
        self.stats.sent += 1;
        self.pending.push(PendingMsg {
            src,
            dst,
            seq: s,
            msg,
            attempts: 0,
            reliable,
        });
    }

    /// Sets or heals the physical cut between proxies `a` and `b`
    /// (both directions): while cut, every frame — forwards, acks and
    /// heartbeats — dies on the wire. Reliable messages burn their
    /// retransmissions into the cut and are dropped honestly; the
    /// sender's deadline machinery fails their tickets.
    pub fn set_link_cut(&mut self, a: usize, b: usize, cut: bool) {
        self.link(a, b).set_blocked(cut);
        self.link(b, a).set_blocked(cut);
    }

    fn link(&mut self, src: usize, dst: usize) -> &mut LinkModel {
        let config = &self.config;
        let shared = self.shared.clone();
        let rng = &self.rng;
        self.links.entry((src, dst)).or_insert_with(|| {
            let process = match shared {
                Some(shared) => LossProcess::Mixed {
                    link: config.link_chain,
                    shared,
                },
                None => LossProcess::Gilbert(config.link_chain),
            };
            LinkModel::new(process, rng.split(&format!("il-{src}-{dst}")))
        })
    }

    /// Drives every pending message one attempt (one per epoch),
    /// advancing the shared fading state first. Returns the messages
    /// delivered this epoch as `(dst, src, msg)` triples, first copies
    /// only — duplicates created by lost acks are filtered here.
    pub fn step(&mut self, _t: SimTime) -> Vec<(usize, usize, FleetMsg)> {
        if let Some(shared) = &self.shared {
            shared.advance(1);
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            let (src, dst, seq) = {
                let p = &self.pending[i];
                (p.src, p.dst, p.seq)
            };
            if self.pending[i].attempts > MAX_RETRANSMITS {
                // A message the receiver already consumed (only its
                // acks kept dying) is not a lost forward — count it
                // apart so `dropped` means what it says. Retiring it
                // also retires its dedup entry.
                let was_delivered = self
                    .delivered
                    .get_mut(&(src, dst))
                    .is_some_and(|seen| seen.remove(&seq));
                if was_delivered {
                    self.stats.ack_exhausted += 1;
                } else {
                    self.stats.dropped += 1;
                }
                self.pending.remove(i);
                continue;
            }
            if self.pending[i].attempts > 0 {
                self.stats.retransmits += 1;
            }
            self.pending[i].attempts += 1;
            // A gated endpoint kills the frame regardless of the
            // channel draw (the draw still happens: the wire was used).
            let wire_ok = self.link(src, dst).deliver();
            if !wire_ok || !self.up[src] || !self.up[dst] {
                self.stats.lost += 1;
                if self.pending[i].reliable {
                    i += 1;
                } else {
                    // A lost datagram is simply gone.
                    self.pending.remove(i);
                }
                continue;
            }
            // Delivered: receiver dedups, then acks over the reverse
            // path. A lost ack keeps the message pending — the
            // retransmission will be filtered as a duplicate.
            let reliable = self.pending[i].reliable;
            let first_copy = !reliable || self.delivered.entry((src, dst)).or_default().insert(seq);
            if !first_copy {
                self.stats.duplicates += 1;
            }
            if first_copy {
                self.stats.delivered += 1;
                out.push((dst, src, self.pending[i].msg.clone()));
            }
            if !reliable {
                // Datagrams are fire-and-forget: no ack leg at all.
                self.pending.remove(i);
                continue;
            }
            let ack_ok = self.link(dst, src).deliver();
            if ack_ok {
                // Retired: no copy of it can arrive any more.
                if let Some(seen) = self.delivered.get_mut(&(src, dst)) {
                    seen.remove(&seq);
                }
                self.pending.remove(i);
            } else {
                self.stats.acks_lost += 1;
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loss-stream seed of the fixed-seed tests.
    const SEED: u64 = 0xF1EE7;
    use presto_sim::SimDuration;

    fn fwd(ticket: u64) -> FleetMsg {
        FleetMsg::Forward {
            ticket,
            query: PipelineQuery::Now {
                sensor: 0,
                tolerance: 0.5,
            },
            deadline: SimTime::from_mins(10),
            submitted_at: SimTime::ZERO,
        }
    }

    fn ticket_of(msg: &FleetMsg) -> u64 {
        match msg {
            FleetMsg::Forward { ticket, .. } | FleetMsg::Completion { ticket, .. } => *ticket,
            FleetMsg::Heartbeat { .. } => panic!("heartbeat has no ticket"),
        }
    }

    fn perfect_config() -> InterLinkConfig {
        InterLinkConfig {
            link_chain: GilbertElliott {
                p_gb: 0.0,
                p_bg: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            shared_chain: None,
        }
    }

    #[test]
    fn clean_mesh_delivers_in_one_step() {
        let mut mesh = InterLinkMesh::new(perfect_config(), 3, SEED);
        mesh.send(0, 2, fwd(7));
        mesh.send(2, 1, fwd(8));
        let got = mesh.step(SimTime::ZERO);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 2, "delivered to dst");
        assert_eq!(got[0].1, 0, "from src");
        assert_eq!(ticket_of(&got[0].2), 7);
        assert_eq!(mesh.in_flight(), 0);
        assert_eq!(mesh.stats().delivered, 2);
    }

    #[test]
    fn lossy_mesh_retransmits_and_gives_up_honestly() {
        // Total loss: every attempt dies; after MAX_RETRANSMITS + 1
        // attempts the message is dropped and counted.
        let cfg = InterLinkConfig {
            link_chain: GilbertElliott {
                p_gb: 1.0,
                p_bg: 0.0,
                loss_good: 1.0,
                loss_bad: 1.0,
            },
            shared_chain: None,
        };
        let mut mesh = InterLinkMesh::new(cfg, 2, SEED);
        mesh.send(0, 1, fwd(1));
        for e in 0..6u64 {
            let got = mesh.step(SimTime::ZERO + SimDuration::from_secs(31) * e);
            assert!(got.is_empty());
        }
        assert_eq!(mesh.in_flight(), 0, "exhausted message must not leak");
        assert_eq!(mesh.stats().dropped, 1);
        assert_eq!(mesh.stats().retransmits, u64::from(MAX_RETRANSMITS));
    }

    #[test]
    fn gated_destination_blocks_delivery_until_up() {
        let mut mesh = InterLinkMesh::new(perfect_config(), 2, SEED);
        mesh.set_up(1, false);
        mesh.send(0, 1, fwd(3));
        assert!(mesh.step(SimTime::ZERO).is_empty());
        assert!(mesh.in_flight() == 1, "retries continue while gated");
        mesh.set_up(1, true);
        let got = mesh.step(SimTime::from_secs(31));
        assert_eq!(got.len(), 1);
        assert_eq!(ticket_of(&got[0].2), 3);
    }

    #[test]
    fn shared_burst_fades_every_pair_together() {
        let cfg = InterLinkConfig {
            link_chain: GilbertElliott {
                p_gb: 0.0,
                p_bg: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            shared_chain: Some(GilbertElliott {
                p_gb: 0.0,
                p_bg: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
        };
        let mut mesh = InterLinkMesh::new(cfg, 3, SEED);
        mesh.shared.as_ref().expect("shared state").force(Some(true));
        mesh.send(0, 1, fwd(1));
        mesh.send(1, 2, fwd(2));
        assert!(mesh.step(SimTime::ZERO).is_empty(), "burst kills every pair");
        mesh.shared.as_ref().expect("shared state").force(Some(false));
        assert_eq!(mesh.step(SimTime::from_secs(31)).len(), 2);
    }

    #[test]
    fn lost_ack_duplicates_are_filtered() {
        // Forward path clean, ack path... same link object serves both
        // directions of the pair distinctly, so script it: make every
        // (1,0) reverse frame die by gating... simplest: total-loss ack
        // cannot be configured independently here, so exercise dedup
        // directly through two sends of the same seq — covered by the
        // mesh's own retransmission when acks fail under Mixed loss.
        // Deterministic variant: deliver, fail ack by gating the SOURCE
        // after the forward leg is sampled is not expressible; instead
        // assert the dedup set grows and a re-step never re-emits.
        let mut mesh = InterLinkMesh::new(perfect_config(), 2, SEED);
        mesh.send(0, 1, fwd(9));
        assert_eq!(mesh.step(SimTime::ZERO).len(), 1);
        // Nothing pending, stepping again emits nothing.
        assert!(mesh.step(SimTime::from_secs(31)).is_empty());
        assert_eq!(mesh.stats().duplicates, 0);
    }

    #[test]
    fn datagrams_get_one_attempt_and_never_linger() {
        // Total loss: a reliable message would retransmit; a datagram
        // dies on its single attempt and leaves nothing in flight.
        let cfg = InterLinkConfig {
            link_chain: GilbertElliott {
                p_gb: 1.0,
                p_bg: 0.0,
                loss_good: 1.0,
                loss_bad: 1.0,
            },
            shared_chain: None,
        };
        let mut mesh = InterLinkMesh::new(cfg, 2, SEED);
        mesh.send_datagram(0, 1, FleetMsg::Heartbeat { sent_at: SimTime::ZERO });
        assert!(mesh.step(SimTime::ZERO).is_empty());
        assert_eq!(mesh.in_flight(), 0, "lost datagram must not retry");
        assert_eq!(mesh.stats().retransmits, 0);
        assert_eq!(mesh.stats().dropped, 0, "datagram loss is not a drop");

        // Clean mesh: delivered in one step, still nothing in flight
        // (no ack leg to wait on).
        let mut mesh = InterLinkMesh::new(perfect_config(), 2, SEED);
        mesh.send_datagram(1, 0, FleetMsg::Heartbeat { sent_at: SimTime::ZERO });
        let got = mesh.step(SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].2, FleetMsg::Heartbeat { .. }));
        assert_eq!((got[0].0, got[0].1), (0, 1));
        assert_eq!(mesh.in_flight(), 0);
    }

    #[test]
    fn link_cut_severs_both_directions_until_healed() {
        let mut mesh = InterLinkMesh::new(perfect_config(), 3, SEED);
        mesh.set_link_cut(0, 2, true);
        mesh.send(0, 2, fwd(1));
        mesh.send(2, 0, fwd(2));
        mesh.send(0, 1, fwd(3));
        let got = mesh.step(SimTime::ZERO);
        assert_eq!(got.len(), 1, "only the uncut pair delivers");
        assert_eq!(ticket_of(&got[0].2), 3);
        assert_eq!(mesh.in_flight(), 2, "cut messages keep retrying");
        mesh.set_link_cut(0, 2, false);
        let got = mesh.step(SimTime::from_secs(31));
        let mut tickets: Vec<u64> = got.iter().map(|(_, _, m)| ticket_of(m)).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![1, 2], "healed link delivers the retries");
        assert_eq!(mesh.in_flight(), 0);
    }

    #[test]
    fn dedup_state_holds_only_unretired_reliable_messages() {
        // Four proxies on a lossy chain: heartbeats every step, reliable
        // sends on a rotating pair. Lost acks leave delivered messages
        // pending (their entries must stay until retired), and the set
        // must never outgrow the messages that can still repeat.
        let cfg = InterLinkConfig {
            link_chain: GilbertElliott {
                p_gb: 0.05,
                p_bg: 0.3,
                loss_good: 0.1,
                loss_bad: 0.7,
            },
            shared_chain: None,
        };
        let mut mesh = InterLinkMesh::new(cfg, 4, SEED);
        for e in 0..5_000u64 {
            for p in 0..4 {
                for q in (0..4).filter(|&q| q != p) {
                    mesh.send_datagram(
                        p,
                        q,
                        FleetMsg::Heartbeat {
                            sent_at: SimTime::ZERO,
                        },
                    );
                }
            }
            let src = (e % 4) as usize;
            mesh.send(src, (src + 1 + (e / 4 % 3) as usize) % 4, fwd(e));
            mesh.step(SimTime::ZERO + SimDuration::from_secs(31) * e);
            let held: usize = mesh.delivered.values().map(BTreeSet::len).sum();
            let unretired = mesh.pending.iter().filter(|m| m.reliable).count();
            assert!(
                held <= unretired,
                "step {e}: {held} dedup entries, {unretired} unretired"
            );
        }
        let s = mesh.stats();
        assert!(
            s.acks_lost > 0 && s.duplicates > 0,
            "lost acks never exercised dedup: {s:?}"
        );
        assert!(
            s.ack_exhausted + s.dropped > 0,
            "no message ever exhausted: {s:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut mesh = InterLinkMesh::new(InterLinkConfig::default(), 2, seed);
            let mut log = Vec::new();
            for e in 0..64u64 {
                mesh.send(0, 1, fwd(e));
                log.extend(
                    mesh.step(SimTime::ZERO + SimDuration::from_secs(31) * e)
                        .into_iter()
                        .map(|(_, _, m)| ticket_of(&m)),
                );
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
