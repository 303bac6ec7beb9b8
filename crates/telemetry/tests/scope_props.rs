//! Property tests for presto-scope: the ring sampler's 2:1 downsampling
//! must preserve min/max/last over any stream, the watchdogs must stay
//! silent on any clean run, and a violation inside an injected fault
//! window must surface as an *attributed* incident for every fault
//! kind the plan can express. Each tick observes a hand-built
//! `Snapshot` through the scope's slot sink, the same path a
//! deployment's tick takes.

use presto_sim::{FaultPlan, SimDuration, SimTime};
use presto_telemetry::scope::WD_STALE_CONFIDENT;
use presto_telemetry::{
    Observe, PrestoScope, RingSeries, ScopeConfig, SeriesSpec, Snapshot, WatchdogRule,
};
use proptest::prelude::*;

fn minute(i: usize) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(i as u64)
}

/// One scope tick over `snap`, the way a deployment's epoch runs it.
fn tick(scope: &mut PrestoScope, t: SimTime, snap: &Snapshot, faults: &FaultPlan) {
    let mut readings = scope.begin_tick();
    snap.observe(&mut scope.sink(&mut readings));
    scope.end_tick(t, readings, faults);
}

proptest! {
    /// Downsampling is lossy on shape but exact on extrema: for any
    /// stream and any ring capacity, the folded bins still report the
    /// stream's true min, max, last value, and total sample count.
    #[test]
    fn downsampling_preserves_min_max_last(
        vals in collection::vec(-1.0e6f64..1.0e6, 1usize..400),
        cap in 4usize..48,
    ) {
        let mut ring = RingSeries::new(cap);
        for (i, &v) in vals.iter().enumerate() {
            ring.push(minute(i), v);
        }
        let bins = ring.bins();
        // `new` rounds odd capacities up to even so pair-folding is exact.
        let eff_cap = cap + (cap & 1);
        prop_assert!(bins.len() <= eff_cap, "ring exceeded its capacity");
        let true_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let true_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let got_min = bins.iter().map(|b| b.min).fold(f64::INFINITY, f64::min);
        let got_max = bins.iter().map(|b| b.max).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(got_min, true_min);
        prop_assert_eq!(got_max, true_max);
        prop_assert_eq!(bins.last().unwrap().last, *vals.last().unwrap());
        let samples: u64 = bins.iter().map(|b| b.samples).sum();
        prop_assert_eq!(samples, vals.len() as u64);
    }

    /// Clean runs raise zero incidents: with no faults injected and
    /// every reading inside its bound, no seed or trajectory may trip
    /// a watchdog.
    #[test]
    fn clean_runs_raise_zero_incidents(
        load in collection::vec(0.0f64..99.0, 1usize..200),
        stale in 0u64..1_000_000,
    ) {
        let mut scope = PrestoScope::new(ScopeConfig {
            enabled: true,
            series: vec![SeriesSpec::level("probe.load")],
            rules: vec![
                WatchdogRule::below("load_watermark", "probe.load", 100.0),
                WatchdogRule::still(WD_STALE_CONFIDENT, "probe.stale"),
            ],
            ..ScopeConfig::default()
        });
        let snap = Snapshot::new();
        let faults = FaultPlan::none();
        // The stale counter may start anywhere; it must merely not grow.
        scope.feed("probe.stale", stale as f64);
        for (i, &v) in load.iter().enumerate() {
            scope.feed("probe.load", v);
            tick(&mut scope, minute(i), &snap, &faults);
        }
        prop_assert!(
            scope.incidents().is_empty(),
            "clean run tripped: {:?}",
            scope.incidents()
        );
        prop_assert_eq!(scope.unattributed_incidents(), 0);
    }

    /// A rule violated inside an injected fault window yields at least
    /// one incident, and every incident is blamed on that fault —
    /// whichever fault kind (mesh partition, proxy crash, radio burst)
    /// the plan expresses.
    #[test]
    fn fault_window_violations_are_attributed(
        start in 10usize..60,
        width in 1usize..30,
        kind in 0u8..3,
    ) {
        let from = minute(start);
        let to = minute(start + width);
        let faults = match kind {
            0 => FaultPlan::none().with_mesh_partition(vec![1], from, to),
            1 => FaultPlan::none().with_proxy_crash(1, from, to),
            _ => FaultPlan::none().with_shared_burst(from, to),
        };
        let mut scope = PrestoScope::new(ScopeConfig {
            enabled: true,
            rules: vec![WatchdogRule::still(WD_STALE_CONFIDENT, "probe.stale")],
            attribution_pad: SimDuration::from_mins(2),
            ..ScopeConfig::default()
        });
        let snap = Snapshot::new();
        let mut stale = 0u64;
        for i in 0..(start + width + 20) {
            let t = minute(i);
            // The probe regresses only while the fault is active.
            if i > start && i <= start + width {
                stale += 1;
            }
            scope.feed("probe.stale", stale as f64);
            tick(&mut scope, t, &snap, &faults);
        }
        prop_assert!(
            !scope.incidents().is_empty(),
            "violation inside the fault window raised no incident"
        );
        prop_assert_eq!(
            scope.unattributed_incidents(),
            0,
            "incident escaped blame: {:?}",
            scope.incidents()
        );
        prop_assert!(scope.incidents().iter().all(|i| !i.faults.is_empty()));
    }
}
