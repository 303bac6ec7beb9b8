//! Quickstart: build a small PRESTO deployment, run it for a day, and
//! issue NOW / PAST / event queries against the unified logical store.
//!
//! Run with: `cargo run --release --example quickstart`

use presto::core::{PrestoSystem, StoreQuery, SystemConfig};
use presto::sim::{SimDuration, SimTime};

fn main() {
    // Two proxies, three sensors each, default Intel-Lab-style workload
    // with occasional rare events.
    let mut system = PrestoSystem::new(SystemConfig {
        proxies: 2,
        sensors_per_proxy: 3,
        ..SystemConfig::default()
    });

    println!("running 1 simulated day of the deployment...");
    system.run(SimDuration::from_days(1));

    let snap = system.telemetry_snapshot();
    let sensor_j: f64 = system
        .nodes
        .iter()
        .map(|n| n.ledger().total())
        .sum();
    println!(
        "sensors: {}  |  mean sensor energy: {:.2} J/day  |  uplink messages: {}  |  models pushed: {}",
        system.total_sensors(),
        sensor_j / system.total_sensors() as f64,
        snap.get("proxy.uplinks").unwrap_or(0.0),
        snap.get("proxy.models_pushed").unwrap_or(0.0)
    );

    let truth = system.truth.clone();
    // NOW query: answered from cache, extrapolation, or a pull.
    for sensor in [0u16, 4] {
        let r = system.query(StoreQuery::Now {
            sensor,
            tolerance: 1.0,
        });
        println!(
            "NOW sensor {sensor}: {:.2} degC (truth {:.2}, source {:?}, latency {}, {} index hops)",
            r.value.unwrap_or(f64::NAN),
            truth[sensor as usize],
            r.source,
            r.latency,
            r.index_hops
        );
    }

    // PAST query: an hour of history from earlier in the day.
    let r = system.query(StoreQuery::Past {
        sensor: 1,
        from: SimTime::from_hours(6),
        to: SimTime::from_hours(7),
        tolerance: 1.0,
    });
    println!(
        "PAST sensor 1, 06:00-07:00: {} samples (source {:?})",
        r.series.len(),
        r.source
    );

    // Unified event view across all proxies.
    let r = system.query(StoreQuery::Events {
        from: SimTime::ZERO,
        to: SimTime::from_days(1),
    });
    println!("events across the deployment today: {}", r.events.len());
    for (t, sensor, ty) in r.events.iter().take(5) {
        println!("  {t}  sensor {sensor}  type {ty}");
    }
}
