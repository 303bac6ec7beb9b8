//! Deterministic fault injection: node crashes, link blackouts,
//! shared-fading bursts, proxy crashes and mesh partitions, each over a
//! time window.
//!
//! A fault plan is pure data — one list of windowed faults queried by
//! the system driver each epoch — so the same plan replays identically
//! under any seed and composes with the stochastic frame-loss models in
//! `presto-net` (a blackout suppresses a link *entirely*, on top of
//! whatever the loss process would have done). Crash semantics follow
//! the PRESTO hardware model: a crashed node stops sampling,
//! transmitting, and receiving; on reboot its RAM state (model replica,
//! pending batch) is gone but its flash archive survives, which is
//! exactly why archive-backed recovery works.

use crate::time::SimTime;

/// One injected fault over its window `[from, to)`. The plan stores
/// these, and observability incidents carry them as blame, so an alarm
/// raised during a fault is *blamed* on it (and an alarm outside every
/// window is an unexplained regression).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// A sensor node is crashed: it stops sampling, transmitting and
    /// receiving, and reboots at `to` with its RAM state wiped.
    NodeCrash {
        /// The crashed node (global sensor id in system drivers).
        node: usize,
        /// First instant the node is down.
        from: SimTime,
        /// First instant the node is back up (reboot completes).
        to: SimTime,
    },
    /// The links of `nodes` deliver nothing.
    LinkBlackout {
        /// Nodes whose links are blacked out.
        nodes: Vec<usize>,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// The common loss state near every proxy is pinned *bad*. Only
    /// meaningful when the deployment runs correlated loss (a shared
    /// Gilbert–Elliott state); drivers without one ignore it.
    SharedBurst {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// A proxy process is down: it consumes no uplinks, pumps no
    /// queries, trains nothing, and its RAM-resident query state dies;
    /// its sensors keep archiving and become reachable again when they
    /// re-home to a survivor or the proxy reboots.
    ProxyCrash {
        /// The crashed proxy.
        proxy: usize,
        /// Window start.
        from: SimTime,
        /// Window end (first instant back up).
        to: SimTime,
    },
    /// Split brain: every proxy↔proxy mesh link crossing the `group`
    /// boundary is cut (both directions), while sensor downlinks stay
    /// up. Proxies on each side keep talking among themselves and keep
    /// serving their sensors, but heartbeats and forwards across the
    /// boundary die — exactly the failure a single omniscient
    /// membership observer cannot distinguish from a crash.
    MeshPartition {
        /// Proxies on one side of the cut (the complement is the other).
        group: Vec<usize>,
        /// Window start.
        from: SimTime,
        /// Window end (heal).
        to: SimTime,
    },
}

impl Fault {
    /// The fault's injection window `[from, to)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        match self {
            Fault::NodeCrash { from, to, .. }
            | Fault::LinkBlackout { from, to, .. }
            | Fault::SharedBurst { from, to }
            | Fault::ProxyCrash { from, to, .. }
            | Fault::MeshPartition { from, to, .. } => (*from, *to),
        }
    }
}

/// A deterministic schedule of faults, in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Appends one fault; its window must not be inverted.
    fn with(mut self, fault: Fault) -> Self {
        let (from, to) = fault.window();
        assert!(from <= to, "fault window must not be inverted: {fault:?}");
        self.faults.push(fault);
        self
    }

    /// The faults whose window contains `t`.
    fn active_at(&self, t: SimTime) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |f| {
            let (from, to) = f.window();
            from <= t && t < to
        })
    }

    /// Adds a crash/reboot window for one node (builder style).
    pub fn with_crash(self, node: usize, down_from: SimTime, up_at: SimTime) -> Self {
        self.with(Fault::NodeCrash {
            node,
            from: down_from,
            to: up_at,
        })
    }

    /// Adds a blackout of specific nodes' links (builder style).
    // presto-lint: allow(unused, sole way to inject the blackouts `is_unreachable` gates on; presto-core's blackout_is_detected_and_replayed_from_the_archive and tests/reliability_recovery.rs drive the live recovery path through it)
    pub fn with_blackout_of(self, nodes: Vec<usize>, from: SimTime, to: SimTime) -> Self {
        self.with(Fault::LinkBlackout { nodes, from, to })
    }

    /// Adds a shared-fading burst window (builder style): while active,
    /// a correlated-loss deployment pins its common channel state bad,
    /// so every channel near the proxy fades at once.
    pub fn with_shared_burst(self, from: SimTime, to: SimTime) -> Self {
        self.with(Fault::SharedBurst { from, to })
    }

    /// Adds a proxy blackout window (builder style): the proxy process
    /// is dead in `[down_from, up_at)`.
    pub fn with_proxy_crash(self, proxy: usize, down_from: SimTime, up_at: SimTime) -> Self {
        self.with(Fault::ProxyCrash {
            proxy,
            from: down_from,
            to: up_at,
        })
    }

    /// Adds a split-brain window (builder style): every mesh link
    /// between `group` and its complement is cut in `[from, to)`.
    pub fn with_mesh_partition(self, group: Vec<usize>, from: SimTime, to: SimTime) -> Self {
        self.with(Fault::MeshPartition { group, from, to })
    }

    /// True while a shared-fading burst is active at `t`.
    pub fn shared_burst_active(&self, t: SimTime) -> bool {
        self.active_at(t)
            .any(|f| matches!(f, Fault::SharedBurst { .. }))
    }

    /// True when `node` is crashed at `t`.
    pub fn is_down(&self, node: usize, t: SimTime) -> bool {
        self.active_at(t)
            .any(|f| matches!(f, Fault::NodeCrash { node: n, .. } if *n == node))
    }

    /// True when `node`'s link is blacked out at `t`.
    pub fn in_blackout(&self, node: usize, t: SimTime) -> bool {
        self.active_at(t)
            .any(|f| matches!(f, Fault::LinkBlackout { nodes, .. } if nodes.contains(&node)))
    }

    /// True when `node` can neither transmit nor receive at `t`
    /// (crashed, or its link is blacked out).
    pub fn is_unreachable(&self, node: usize, t: SimTime) -> bool {
        self.is_down(node, t) || self.in_blackout(node, t)
    }

    /// True when a reboot of `node` completed in the half-open interval
    /// `(since, until]` — the driver's cue to wipe the node's RAM state.
    pub fn rebooted_within(&self, node: usize, since: SimTime, until: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::NodeCrash { node: n, to, .. }
                if *n == node && since < *to && *to <= until)
        })
    }

    /// True when `proxy` is down at `t`.
    pub fn proxy_down(&self, proxy: usize, t: SimTime) -> bool {
        self.active_at(t)
            .any(|f| matches!(f, Fault::ProxyCrash { proxy: p, .. } if *p == proxy))
    }

    /// True when the mesh link between proxies `a` and `b` is cut at
    /// `t`: a split-brain window puts `a` and `b` on opposite sides of
    /// the boundary. The cut is symmetric:
    /// `mesh_link_cut(a, b, t) == mesh_link_cut(b, a, t)`.
    pub fn mesh_link_cut(&self, a: usize, b: usize, t: SimTime) -> bool {
        self.active_at(t).any(|f| {
            matches!(f, Fault::MeshPartition { group, .. }
                if group.contains(&a) != group.contains(&b))
        })
    }

    /// Every scheduled fault whose window `[from, to)` overlaps the
    /// query interval `[lo, hi]`, in plan order — the attribution set
    /// an observability incident in that interval carries.
    pub fn active_in(&self, lo: SimTime, hi: SimTime) -> Vec<Fault> {
        self.faults
            .iter()
            .filter(|f| {
                let (from, to) = f.window();
                from <= hi && lo < to
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.is_down(0, t(100)));
        assert!(!p.in_blackout(0, t(100)));
        assert!(!p.is_unreachable(3, t(0)));
        assert!(p.active_in(SimTime::ZERO, SimTime::MAX).is_empty());
    }

    #[test]
    fn crash_windows_are_half_open() {
        let p = FaultPlan::none().with_crash(2, t(10), t(20));
        assert!(!p.is_down(2, t(9)));
        assert!(p.is_down(2, t(10)));
        assert!(p.is_down(2, t(19)));
        assert!(!p.is_down(2, t(20)));
        // Other nodes untouched.
        assert!(!p.is_down(1, t(15)));
    }

    #[test]
    fn blackouts_scope_to_nodes() {
        let p = FaultPlan::none().with_blackout_of(vec![1, 3], t(200), t(210));
        assert!(!p.in_blackout(7, t(205)));
        assert!(!p.in_blackout(1, t(199)));
        assert!(p.in_blackout(1, t(205)));
        assert!(p.in_blackout(3, t(209)));
        assert!(!p.in_blackout(3, t(210)));
    }

    #[test]
    fn reboot_detection_is_edge_triggered() {
        let p = FaultPlan::none().with_crash(0, t(10), t(20));
        assert!(p.rebooted_within(0, t(15), t(20)));
        assert!(p.rebooted_within(0, t(19), t(25)));
        assert!(!p.rebooted_within(0, t(20), t(30)), "already up at `since`");
        assert!(!p.rebooted_within(0, t(5), t(15)), "still down");
        assert!(!p.rebooted_within(1, t(15), t(25)), "different node");
    }

    #[test]
    fn shared_bursts_are_half_open_windows() {
        let p = FaultPlan::none().with_shared_burst(t(50), t(60));
        assert!(!p.shared_burst_active(t(49)));
        assert!(p.shared_burst_active(t(50)));
        assert!(p.shared_burst_active(t(59)));
        assert!(!p.shared_burst_active(t(60)));
        // Bursts alone make no node unreachable.
        assert!(!p.is_unreachable(0, t(55)));
    }

    #[test]
    fn proxy_crash_windows_are_half_open_and_scoped() {
        let p = FaultPlan::none().with_proxy_crash(1, t(100), t(200));
        assert!(!p.proxy_down(1, t(99)));
        assert!(p.proxy_down(1, t(100)));
        assert!(p.proxy_down(1, t(199)));
        assert!(!p.proxy_down(1, t(200)));
        assert!(!p.proxy_down(0, t(150)), "other proxies untouched");
        // A proxy blackout alone makes no *sensor* unreachable (the
        // driver derives sensor reachability from its serving proxy).
        assert!(!p.is_unreachable(1, t(150)));
    }

    #[test]
    fn mesh_partition_cuts_exactly_the_boundary_links() {
        let p = FaultPlan::none().with_mesh_partition(vec![2], t(100), t(200));
        // Boundary links are cut, symmetrically, only inside the window.
        assert!(p.mesh_link_cut(0, 2, t(100)));
        assert!(p.mesh_link_cut(2, 0, t(150)));
        assert!(p.mesh_link_cut(1, 2, t(199)));
        assert!(!p.mesh_link_cut(0, 2, t(99)));
        assert!(!p.mesh_link_cut(0, 2, t(200)), "healed at `to`");
        // Same-side links stay up — downlinks are untouched by design.
        assert!(!p.mesh_link_cut(0, 1, t(150)));
        assert!(!p.is_unreachable(2, t(150)), "partitioned proxy is alive");
    }

    #[test]
    fn active_in_names_exactly_the_overlapping_faults() {
        let p = FaultPlan::none()
            .with_mesh_partition(vec![2], t(150), t(250))
            .with_crash(3, t(10), t(20))
            .with_shared_burst(t(50), t(60))
            .with_proxy_crash(1, t(100), t(200));
        assert!(p.active_in(t(25), t(45)).is_empty(), "gap between faults");
        assert_eq!(
            p.active_in(t(15), t(15)),
            vec![Fault::NodeCrash {
                node: 3,
                from: t(10),
                to: t(20),
            }]
        );
        // A query spanning the partition and the proxy crash names
        // both, in plan order.
        assert_eq!(
            p.active_in(t(190), t(210)),
            vec![
                Fault::MeshPartition {
                    group: vec![2],
                    from: t(150),
                    to: t(250),
                },
                Fault::ProxyCrash {
                    proxy: 1,
                    from: t(100),
                    to: t(200),
                },
            ]
        );
        // Half-open windows: the heal instant is out, the start is in.
        assert!(p.active_in(t(250), t(250)).is_empty());
        assert_eq!(p.active_in(t(150), t(150)).len(), 2);
    }

    #[test]
    fn unreachable_merges_crash_and_blackout() {
        let p = FaultPlan::none()
            .with_crash(0, t(10), t(20))
            .with_blackout_of(vec![0], t(30), t(40));
        assert!(p.is_unreachable(0, t(15)));
        assert!(p.is_unreachable(0, t(35)));
        assert!(!p.is_unreachable(0, t(25)));
    }
}
