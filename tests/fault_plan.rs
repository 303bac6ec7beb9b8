//! Fault-plan property: whatever faults a plan holds, every question
//! the system driver, the fleet and the scope ask of it has the answer
//! a brute-force reading of those faults gives.
//!
//! Plans of zero to six faults of all five kinds are built through the
//! public builders only, with overlapping windows, repeated node ids,
//! empty node sets and zero-length windows. At random instants each
//! predicate is compared with the generated list, and `active_in` with
//! the overlapping faults as a multiset (its order is a separate
//! contract, checked by the plan's unit tests).

use proptest::prelude::*;

use presto::sim::{FaultPlan, SimTime};

/// Node and proxy ids are drawn below this, so ids repeat across faults;
/// the predicates are also asked about `IDS` itself, which no fault names.
const IDS: usize = 4;

/// One generated fault in the test's own terms: the brute-force side of
/// every comparison reads these, never the plan. Times are seconds.
#[derive(Clone, Debug)]
enum Spec {
    Crash {
        node: usize,
        from: u64,
        to: u64,
    },
    Blackout {
        nodes: Vec<usize>,
        from: u64,
        to: u64,
    },
    Burst {
        from: u64,
        to: u64,
    },
    ProxyCrash {
        proxy: usize,
        from: u64,
        to: u64,
    },
    Partition {
        group: Vec<usize>,
        from: u64,
        to: u64,
    },
}

/// Raw draw: (kind, id, start, length, id set).
type Draw = (u8, usize, u64, u64, Vec<usize>);

impl Spec {
    fn from_draw((kind, id, from, len, set): Draw) -> Spec {
        let to = from + len;
        match kind {
            0 => Spec::Crash { node: id, from, to },
            1 => Spec::Blackout {
                nodes: set,
                from,
                to,
            },
            2 => Spec::Burst { from, to },
            3 => Spec::ProxyCrash {
                proxy: id,
                from,
                to,
            },
            _ => Spec::Partition {
                group: set,
                from,
                to,
            },
        }
    }

    fn window(&self) -> (u64, u64) {
        match self {
            Spec::Crash { from, to, .. }
            | Spec::Blackout { from, to, .. }
            | Spec::Burst { from, to }
            | Spec::ProxyCrash { from, to, .. }
            | Spec::Partition { from, to, .. } => (*from, *to),
        }
    }

    fn active(&self, at: u64) -> bool {
        let (from, to) = self.window();
        from <= at && at < to
    }

    fn add_to(&self, plan: FaultPlan) -> FaultPlan {
        match self {
            Spec::Crash { node, from, to } => plan.with_crash(*node, t(*from), t(*to)),
            Spec::Blackout { nodes, from, to } => {
                plan.with_blackout_of(nodes.clone(), t(*from), t(*to))
            }
            Spec::Burst { from, to } => plan.with_shared_burst(t(*from), t(*to)),
            Spec::ProxyCrash { proxy, from, to } => plan.with_proxy_crash(*proxy, t(*from), t(*to)),
            Spec::Partition { group, from, to } => {
                plan.with_mesh_partition(group.clone(), t(*from), t(*to))
            }
        }
    }
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every predicate and `active_in` agree with the generated faults.
    #[test]
    fn plan_answers_match_the_generated_faults(
        draws in collection::vec(
            (0u8..5, 0usize..IDS, 1u64..100, 0u64..40, collection::vec(0usize..IDS, 0usize..4)),
            0usize..7,
        ),
        instants in collection::vec((0u64..150, 0u64..150), 1usize..24),
    ) {
        let specs: Vec<Spec> = draws.into_iter().map(Spec::from_draw).collect();
        let plan = specs.iter().fold(FaultPlan::none(), |p, s| s.add_to(p));
        // The plan's own value for one spec: a plan holding only that
        // fault names it over all time (every window starts after 0).
        let named = |s: &Spec| {
            let mut one = s.add_to(FaultPlan::none()).active_in(SimTime::ZERO, SimTime::MAX);
            assert_eq!(one.len(), 1, "a one-fault plan names one fault: {s:?}");
            let fault = one.remove(0);
            let (from, to) = s.window();
            assert_eq!(fault.window(), (t(from), t(to)), "{s:?}");
            fault
        };
        for &(a, b) in &instants {
            let at = t(a);
            let (lo, hi) = (a.min(b), a.max(b));
            let burst = specs.iter().any(|s| matches!(s, Spec::Burst { .. }) && s.active(a));
            prop_assert_eq!(plan.shared_burst_active(at), burst, "t={}", a);
            for id in 0..=IDS {
                let crashed = specs
                    .iter()
                    .any(|s| matches!(s, Spec::Crash { node, .. } if *node == id) && s.active(a));
                let blacked = specs.iter().any(|s| {
                    matches!(s, Spec::Blackout { nodes, .. } if nodes.contains(&id)) && s.active(a)
                });
                let proxy_down = specs.iter().any(|s| {
                    matches!(s, Spec::ProxyCrash { proxy, .. } if *proxy == id) && s.active(a)
                });
                let rebooted = specs.iter().any(|s| {
                    matches!(s, Spec::Crash { node, to, .. } if *node == id && lo < *to && *to <= hi)
                });
                prop_assert_eq!(plan.is_down(id, at), crashed, "node {} t={}", id, a);
                prop_assert_eq!(plan.in_blackout(id, at), blacked, "node {} t={}", id, a);
                prop_assert_eq!(plan.is_unreachable(id, at), crashed || blacked, "node {}", id);
                prop_assert_eq!(plan.proxy_down(id, at), proxy_down, "proxy {} t={}", id, a);
                prop_assert_eq!(
                    plan.rebooted_within(id, t(lo), t(hi)),
                    rebooted,
                    "node {} in ({}, {}]", id, lo, hi
                );
                for other in 0..=IDS {
                    let cut = specs.iter().any(|s| {
                        matches!(s, Spec::Partition { group, .. }
                            if group.contains(&id) != group.contains(&other))
                            && s.active(a)
                    });
                    prop_assert_eq!(plan.mesh_link_cut(id, other, at), cut, "{}-{} t={}", id, other, a);
                }
            }
            let mut got = plan.active_in(t(lo), t(hi));
            let mut want: Vec<_> = specs
                .iter()
                .filter(|s| {
                    let (from, to) = s.window();
                    from <= hi && lo < to
                })
                .map(named)
                .collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "active_in({}, {})", lo, hi);
        }
    }
}
