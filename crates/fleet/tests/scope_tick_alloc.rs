//! A presto-scope tick over a fleet must not allocate: every followed
//! path resolves to a slot when the scope is built, and each epoch's
//! observe pass writes straight into those slots. This binary installs
//! the counting allocator and holds a single test, so the profiler's
//! per-phase allocation count sees only the fleet's own work.

use presto_core::SystemConfig;
use presto_fleet::{
    fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds, FEED_STALE_CONFIDENT,
};
use presto_proxy::PipelineQuery;
use presto_sim::SimDuration;
use presto_telemetry::alloc::{allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// First epoch of the measured window. By then the default 256-bin ring
/// has folded once; the window then holds the fold at tick 512.
const FROM: u64 = 300;
const TO: u64 = 900;

fn scope_allocs(fleet: &FleetDeployment) -> u64 {
    let phase = fleet.system.profiler().phase("fleet_scope");
    phase.map_or(0, |p| p.allocs)
}

/// The widest bin of the first followed series, in raw readings.
fn widest_bin(fleet: &FleetDeployment) -> u64 {
    let (_, ring) = &fleet.system.scope().series()[0];
    ring.bins().iter().map(|b| b.samples).max().unwrap_or(0)
}

#[test]
fn fleet_scope_tick_does_not_allocate() {
    let mut system = SystemConfig {
        proxies: 4,
        sensors_per_proxy: 8,
        profile: true,
        ..SystemConfig::default()
    };
    system.scope = fleet_scope_config(&FleetScopeBounds::default());
    let mut fleet = FleetDeployment::new(FleetConfig {
        system,
        ..FleetConfig::default()
    });
    let mut allocs_at_from = 0;
    let mut widest_at_from = 0;
    let mut feed_allocs = 0;
    for e in 0..TO {
        if e == FROM {
            allocs_at_from = scope_allocs(&fleet);
            widest_at_from = widest_bin(&fleet);
        }
        // Light traffic, so the router's histograms hold real buckets:
        // a NOW and a recent PAST window every ten epochs.
        if e >= 60 && e % 10 == 5 {
            let sensor = (e / 10 % 32) as u16;
            let now = fleet.system.now();
            let to = now - SimDuration::from_mins(5);
            let past = PipelineQuery::Past {
                sensor,
                from: to - SimDuration::from_mins(20),
                to,
                tolerance: 0.5,
            };
            fleet.submit((e / 10 % 4) as usize, past, 0.5);
            let now_q = PipelineQuery::Now {
                sensor,
                tolerance: 0.5,
            };
            fleet.submit((e / 10 % 4) as usize, now_q, 0.5);
        }
        let before = allocation_count();
        fleet.system.scope_mut().feed(FEED_STALE_CONFIDENT, 0.0);
        if e >= FROM {
            feed_allocs += allocation_count() - before;
        }
        fleet.step_epoch();
        let _ = fleet.take_completed();
    }

    assert!(
        widest_bin(&fleet) > widest_at_from,
        "the window must contain a 2:1 ring fold"
    );
    assert!(
        fleet.system.scope().incidents().is_empty(),
        "no incident may open: {:?}",
        fleet.system.scope().incidents()
    );
    assert_eq!(feed_allocs, 0, "feed allocated");
    let ticks = fleet.system.profiler().phase("fleet_scope").map_or(0, |p| p.calls);
    assert_eq!(ticks, TO);
    assert_eq!(
        scope_allocs(&fleet) - allocs_at_from,
        0,
        "the scope tick allocated over epochs {FROM}..{TO}"
    );
}
