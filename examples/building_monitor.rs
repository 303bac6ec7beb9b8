//! Building monitoring: the paper's surveillance / building-health
//! motivation. One proxy per floor, temperature sensors per floor, rare
//! events (equipment faults, doors) reported as semantic events, and a
//! retroactive "go back" query reconstructing the minutes before an
//! incident from the mote archives — the paper's intruder postmortem.
//!
//! Run with: `cargo run --release --example building_monitor`

use presto::core::{PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
use presto::sim::{SimDuration, SimTime};
use presto::workloads::LabParams;

fn main() {
    // Four floors, four sensors each; elevated event rate so the
    // postmortem has something to investigate.
    let mut system = PrestoSystem::new(SystemConfig {
        proxies: 4,
        sensors_per_proxy: 4,
        lab: LabParams {
            events_per_day: 4.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    });

    println!("monitoring the building for 2 simulated days...");
    system.run(SimDuration::from_days(2));
    let sensor_j: f64 = system
        .nodes
        .iter()
        .flatten()
        .map(|n| n.ledger().total())
        .sum();
    println!(
        "{} sensors, {:.2} J/day/sensor, {} semantic events logged",
        system.total_sensors(),
        sensor_j / system.total_sensors() as f64 / 2.0,
        system
            .telemetry_snapshot()
            .get("proxy.events_cached")
            .unwrap_or(0.0)
    );

    let mut store = UnifiedStore::new(&mut system);

    // Security review: list every event, in corrected time order.
    let events = store.query(StoreQuery::Events {
        from: SimTime::ZERO,
        to: SimTime::from_days(2),
    });
    println!("\nincident log ({} entries):", events.events.len());
    for (t, sensor, ty) in events.events.iter().take(8) {
        println!("  {t}  floor {}  sensor {sensor}  type {ty}", sensor / 4);
    }

    // Postmortem: for the first incident, "go back" and reconstruct the
    // 30 minutes around it from the distributed store (the cache may not
    // hold it, in which case the proxy pulls from the mote's archive).
    if let Some(&(t, sensor, _)) = events.events.first() {
        let from = t - SimDuration::from_mins(15);
        let to = t + SimDuration::from_mins(15);
        let r = store.query(StoreQuery::Past {
            sensor,
            from,
            to,
            tolerance: 0.5,
        });
        println!(
            "\npostmortem around {t} (sensor {sensor}): {} samples via {:?}",
            r.series.len(),
            r.source
        );
        if let (Some(first), Some(max)) = (
            r.series.first(),
            r.series
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values")),
        ) {
            println!(
                "  baseline {:.2} degC -> peak {:.2} degC at {}",
                first.1, max.1, max.0
            );
        }
    } else {
        println!("\nno incidents in this run — try another seed");
    }
}
