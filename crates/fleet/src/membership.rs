//! Proxy-tier liveness: pairwise heartbeat leases with quorum death
//! declaration.
//!
//! The sensor tier grades every sensor Live/Suspect/Dead from heartbeat
//! leases ([`presto_reliability::LivenessMonitor`]); the fleet runs the
//! same monitor one tier up — but *per proxy*, not omnisciently. Every
//! epoch each physically-alive proxy beacons to every peer over the
//! forwarding mesh (unreliable datagrams: the next beacon supersedes a
//! lost one), and each proxy keeps its own lease table over the fleet.
//! Nothing sees the whole network: a proxy's evidence about a peer is
//! exactly the heartbeats that survived that pair's path.
//!
//! Death is declared by quorum, not by any single view: a proxy is
//! declared Dead — the trigger for sensor re-homing and query
//! resumption — only when a *majority* of its eligible peers have
//! independently graded it Dead. A single severed link therefore
//! suspects but never kills (the discriminating case pairwise suspicion
//! exists for), while a genuine crash or a minority-side partition is
//! still detected within the dead threshold. The converse edge is
//! guarded the same way: a declared proxy rejoins only when a majority
//! hears it again, so one stray heartbeat through a flapping link
//! cannot re-arm the death edge and double-declare one outage.
//!
//! Voter eligibility uses the driver's process-level knowledge (`up`):
//! a supervisor knows its own process died — what it cannot know, and
//! what this module never assumes, is the state of the *network*
//! between live proxies.

use presto_reliability::{Health, LivenessConfig, LivenessMonitor};
use presto_sim::{SimDuration, SimTime};

/// Pairwise proxy lease: silence past `lease` makes a peer Suspect in
/// one view, past `dead_after` Dead (re-homing fires when a majority of
/// views agree on Dead).
const PROXY_LEASE: LivenessConfig = LivenessConfig {
    lease: SimDuration::from_mins(3),
    dead_after: SimDuration::from_mins(8),
};

/// Membership counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Heartbeat datagrams offered to the mesh by live proxies.
    pub heartbeats_offered: u64,
    /// Heartbeats that survived a pair's path and renewed a lease.
    pub heartbeats_heard: u64,
    /// Quorum death declarations.
    pub deaths_declared: u64,
    /// Quorum-confirmed rebirths after a declaration (reboot or
    /// partition healing heard by a majority).
    pub rejoins: u64,
}

presto_telemetry::observe_counters!(MembershipStats {
    heartbeats_offered,
    heartbeats_heard,
    deaths_declared,
    rejoins,
});

/// The fleet's proxy-liveness views: one lease table per proxy plus the
/// quorum declarations derived from them.
pub struct FleetMembership {
    proxies: usize,
    /// `views[p]` is proxy `p`'s local lease table over the whole fleet
    /// (including itself — a live proxy always hears itself).
    views: Vec<LivenessMonitor>,
    /// Proxies declared dead by quorum (edge detection for re-homing).
    declared_dead: Vec<bool>,
    stats: MembershipStats,
}

impl FleetMembership {
    /// Creates the views over `proxies` proxies, all initially Live
    /// everywhere, each under the fixed proxy lease.
    pub fn new(proxies: usize) -> Self {
        FleetMembership {
            views: (0..proxies)
                .map(|_| LivenessMonitor::new(PROXY_LEASE, proxies))
                .collect(),
            proxies,
            declared_dead: vec![false; proxies],
            stats: MembershipStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> MembershipStats {
        self.stats
    }

    /// Records heartbeat datagrams offered to the mesh (accounting only;
    /// delivery is the mesh's business).
    pub fn record_offered(&mut self, n: u64) {
        self.stats.heartbeats_offered += n;
    }

    /// A heartbeat from `peer` was delivered at `observer` at `t`:
    /// renews `observer`'s lease on `peer`.
    pub fn heard(&mut self, observer: usize, peer: usize, t: SimTime) {
        self.stats.heartbeats_heard += 1;
        self.views[observer].heard(peer, t);
    }

    /// `observer`'s current grade of `peer` (that view's evidence only).
    pub fn view(&self, observer: usize, peer: usize) -> Health {
        self.views[observer].health(peer)
    }

    /// True when `proxy` has been declared dead by quorum and not yet
    /// reborn.
    pub fn is_declared_dead(&self, proxy: usize) -> bool {
        self.declared_dead[proxy]
    }

    /// True when `proxy` can prove membership from its own view: it
    /// holds fresh (Live) leases on a strict majority of the fleet,
    /// itself included. A minority-side proxy in a split brain loses
    /// this the moment its leases on the far side lapse — *before* the
    /// far side's dead threshold declares it — which is what makes
    /// self-fencing safe: ownership is provably released before anyone
    /// could re-home it away.
    pub fn in_quorum(&self, proxy: usize) -> bool {
        let live = (0..self.proxies)
            .filter(|&q| self.views[proxy].health(q) == Health::Live)
            .count();
        2 * live > self.proxies
    }

    /// The fleet-aggregate health of `proxy`: Dead once declared by
    /// quorum, Live while a majority of non-declared peers hold a fresh
    /// lease on it, Suspect in between. (A single-proxy fleet is Live
    /// by definition.)
    pub fn health(&self, proxy: usize) -> Health {
        if self.declared_dead[proxy] {
            return Health::Dead;
        }
        let (mut peers, mut live) = (0usize, 0usize);
        for p in (0..self.proxies).filter(|&p| p != proxy && !self.declared_dead[p]) {
            peers += 1;
            live += usize::from(self.views[p].health(proxy) == Health::Live);
        }
        if peers == 0 {
            return Health::Live;
        }
        if 2 * live > peers {
            Health::Live
        } else {
            Health::Suspect
        }
    }

    /// One epoch of lease maintenance: every physically-up proxy renews
    /// its self-lease and re-grades its view of every peer; then quorum
    /// declarations are re-evaluated. Returns the proxies *newly*
    /// declared Dead this epoch — the re-homing edge.
    ///
    /// Heartbeat deliveries must already have been fed through
    /// [`FleetMembership::heard`] for this epoch (the deployment steps
    /// the mesh first).
    pub fn step(&mut self, t: SimTime, up: &[bool]) -> Vec<usize> {
        for (p, view) in self.views.iter_mut().enumerate() {
            if up.get(p).copied().unwrap_or(false) {
                view.heard(p, t);
                for q in 0..self.proxies {
                    view.check(q, t);
                }
            }
            // A down proxy's view is frozen: it re-grades nothing and
            // its votes are ignored below.
        }

        let mut newly_dead = Vec::new();
        for q in 0..self.proxies {
            // Eligible voters about q: live processes, not themselves
            // declared dead, and not q itself.
            let voters: Vec<usize> = (0..self.proxies)
                .filter(|&p| p != q && up.get(p).copied().unwrap_or(false) && !self.declared_dead[p])
                .collect();
            if voters.is_empty() {
                continue;
            }
            let grades = |want: Health, views: &[LivenessMonitor]| {
                voters
                    .iter()
                    .filter(|&&p| views[p].health(q) == want)
                    .count()
            };
            if !self.declared_dead[q] {
                let suspects = grades(Health::Dead, &self.views);
                if 2 * suspects > voters.len() {
                    self.declared_dead[q] = true;
                    self.stats.deaths_declared += 1;
                    newly_dead.push(q);
                }
            } else {
                // Quorum-confirmed rebirth: one stray heartbeat through
                // a flapping link renews one lease in one view — it
                // must not re-arm the death edge for the same outage.
                let live = grades(Health::Live, &self.views);
                if 2 * live > voters.len() {
                    self.declared_dead[q] = false;
                    self.stats.rejoins += 1;
                }
            }
        }
        newly_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sim::SimDuration;

    const EPOCH: SimDuration = SimDuration::from_secs(31);

    fn t_at(e: u64) -> SimTime {
        SimTime::ZERO + EPOCH * e
    }

    /// Drives one epoch of a clean mesh: every up proxy's beacon reaches
    /// every up peer, except pairs listed in `cut` (either direction's
    /// entry severs that delivery).
    fn epoch(m: &mut FleetMembership, e: u64, up: &[bool], cut: &[(usize, usize)]) -> Vec<usize> {
        let t = t_at(e);
        for src in 0..up.len() {
            if !up[src] {
                continue;
            }
            for (dst, &dst_up) in up.iter().enumerate() {
                if dst == src || !dst_up {
                    continue;
                }
                m.record_offered(1);
                let severed = cut
                    .iter()
                    .any(|&(a, b)| (a, b) == (src, dst) || (a, b) == (dst, src));
                if !severed {
                    m.heard(dst, src, t);
                }
            }
        }
        m.step(t, up)
    }

    #[test]
    fn dead_proxy_is_declared_once_within_the_threshold() {
        let dead_after = PROXY_LEASE.dead_after;
        let mut m = FleetMembership::new(3);
        let mut up = vec![true, true, true];
        let mut declared_at = None;
        for e in 0..40u64 {
            let t = t_at(e);
            if t >= SimTime::from_mins(2) {
                up[1] = false; // proxy 1 dies two minutes in
            }
            let dead = epoch(&mut m, e, &up, &[]);
            if !dead.is_empty() {
                assert_eq!(dead, vec![1]);
                assert!(declared_at.is_none(), "declared exactly once");
                declared_at = Some(t);
            }
        }
        let declared = declared_at.expect("death must be declared");
        assert!(
            declared <= SimTime::from_mins(2) + dead_after + EPOCH,
            "detection must be bounded by the dead threshold: {declared:?}"
        );
        assert_eq!(m.health(1), Health::Dead);
        assert_eq!(m.health(0), Health::Live);
    }

    #[test]
    fn partition_then_crash_is_one_outage_one_declaration() {
        // Proxy 1 is partitioned from everyone, declared dead by
        // quorum; a single stray heartbeat then leaks through to peer 0
        // only (a flapping link, not a heal); then the proxy genuinely
        // crashes. The old single-observer membership re-armed its
        // death edge on that stray heartbeat and declared the same
        // outage twice; quorum rebirth must not.
        let mut m = FleetMembership::new(3);
        let mut up = vec![true, true, true];
        let full_cut = [(1, 0), (1, 2)];
        let mut declarations = 0u64;
        for e in 0..80u64 {
            let t = t_at(e);
            let cut: &[(usize, usize)] = if e >= 10 { &full_cut } else { &[] };
            // One stray beacon leaks through the flapping link to peer
            // 0 only — a minority of the quorum.
            if e == 40 {
                m.record_offered(1);
                m.heard(0, 1, t);
            }
            if e >= 42 {
                up[1] = false; // now it crashes for real
            }
            declarations += epoch(&mut m, e, &up, cut).len() as u64;
        }
        assert_eq!(
            declarations, 1,
            "one outage must yield exactly one declaration"
        );
        assert_eq!(m.stats().deaths_declared, 1);
        assert_eq!(m.stats().rejoins, 0, "a minority heartbeat is not a rebirth");
        assert_eq!(m.health(1), Health::Dead);
    }

    #[test]
    fn single_link_cut_never_declares_anyone() {
        // Sever only the 0↔2 pair: each side keeps a majority of fresh
        // leases through proxy 1, so quorum must keep everyone alive —
        // the case a single omniscient observer cannot express and a
        // single pairwise view would get wrong.
        let mut m = FleetMembership::new(3);
        let up = vec![true, true, true];
        for e in 0..120u64 {
            let dead = epoch(&mut m, e, &up, &[(0, 2)]);
            assert!(dead.is_empty(), "asymmetric cut declared a death at epoch {e}");
        }
        assert_eq!(m.stats().deaths_declared, 0);
        // The severed pair suspects each other locally...
        assert_eq!(m.view(0, 2), Health::Dead);
        assert_eq!(m.view(2, 0), Health::Dead);
        // ...but both stay in quorum and fleet-Live via proxy 1.
        assert!(m.in_quorum(0));
        assert!(m.in_quorum(2));
        assert_ne!(m.health(0), Health::Dead);
        assert_ne!(m.health(2), Health::Dead);
    }

    #[test]
    fn minority_side_loses_quorum_before_declaration() {
        // Split {0,1} | {2}: proxy 2 must drop out of quorum (at lease
        // expiry) strictly before the majority declares it dead (at the
        // dead threshold) — the fencing-precedes-re-homing guarantee.
        let mut m = FleetMembership::new(3);
        let up = vec![true, true, true];
        let cut = [(0, 2), (1, 2)];
        let mut lost_quorum_at = None;
        let mut declared_at = None;
        for e in 0..60u64 {
            let dead = epoch(&mut m, e, &up, &cut);
            if lost_quorum_at.is_none() && !m.in_quorum(2) {
                lost_quorum_at = Some(e);
            }
            if !dead.is_empty() {
                assert_eq!(dead, vec![2]);
                declared_at = Some(e);
                break;
            }
        }
        let fenced = lost_quorum_at.expect("minority proxy must lose quorum");
        let declared = declared_at.expect("majority must declare the minority dead");
        assert!(
            fenced < declared,
            "fencing (epoch {fenced}) must precede declaration (epoch {declared})"
        );
        // The majority side never loses quorum.
        assert!(m.in_quorum(0) && m.in_quorum(1));
    }

    #[test]
    fn rebooted_proxy_rejoins_on_majority_evidence() {
        let mut m = FleetMembership::new(2);
        let mut up = vec![true, true];
        let mut died = false;
        for e in 0..60u64 {
            let t = t_at(e);
            up[1] = !(SimTime::from_mins(2)..SimTime::from_mins(15)).contains(&t);
            died |= !epoch(&mut m, e, &up, &[]).is_empty();
        }
        assert!(died);
        assert_eq!(m.health(1), Health::Live, "rejoined after reboot");
        assert_eq!(m.stats().rejoins, 1);
    }

    #[test]
    fn lossy_heartbeats_do_not_flap_a_live_proxy() {
        // Bursty loss on every pair: a live proxy's lease survives (the
        // lease spans several beacon epochs), so nothing is declared.
        let mut m = FleetMembership::new(2);
        let up = vec![true, true];
        let mut rng = presto_sim::SimRng::new(0xBEA7);
        for e in 0..600u64 {
            let t = t_at(e);
            for (src, dst) in [(0usize, 1usize), (1, 0)] {
                m.record_offered(1);
                // ~30% independent loss — well inside the ~6-epoch lease.
                if !rng.chance(0.3) {
                    m.heard(dst, src, t);
                }
            }
            let dead = m.step(t, &up);
            assert!(dead.is_empty(), "live proxy declared dead at epoch {e}");
        }
        assert!(m.stats().heartbeats_heard > m.stats().heartbeats_offered / 2);
    }
}
