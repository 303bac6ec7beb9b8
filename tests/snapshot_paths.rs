//! `Snapshot::get` walks the telemetry tree instead of flattening it,
//! so the per-epoch scope sampler can read a handful of paths cheaply.
//! It must resolve every key `flatten()` emits to the same value, or
//! the sampled time series would disagree with the exported metrics.

use presto::core::SystemConfig;
use presto::fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto::proxy::PipelineQuery;
use presto::sim::SimTime;

#[test]
fn get_resolves_every_flattened_key_of_a_fleet_snapshot() {
    let mut system = SystemConfig {
        proxies: 2,
        sensors_per_proxy: 3,
        ..SystemConfig::default()
    };
    // Tracing and the scope add the trace, profiler and scope subtrees.
    system.proxy.pipeline.trace = true;
    system.scope = fleet_scope_config(&FleetScopeBounds::default());
    let mut fleet = FleetDeployment::new(FleetConfig {
        system,
        ..FleetConfig::default()
    });
    for e in 0..240u64 {
        if e % 20 == 10 {
            let sensor = (e / 20 % 6) as u16;
            let past = PipelineQuery::Past {
                sensor,
                from: SimTime::from_mins(10),
                to: SimTime::from_mins(40),
                tolerance: 0.2,
            };
            let now = PipelineQuery::Now {
                sensor,
                tolerance: 0.5,
            };
            fleet.submit(0, past, 0.2);
            fleet.submit(1, now, 0.5);
        }
        fleet.step_epoch();
    }
    let snap = fleet.telemetry_snapshot();
    let flat = snap.flatten();
    assert!(!flat.is_empty());
    for (key, value) in &flat {
        let got = snap.get(key);
        assert_eq!(
            got.map(f64::to_bits),
            Some(value.to_bits()),
            "{key}: get returned {got:?}, flatten {value}"
        );
    }
}
