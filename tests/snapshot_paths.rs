//! The export and the scope tick read one registry. `Snapshot::get`
//! must resolve every key `flatten()` emits to the same value, and a
//! scope following any exported key through its slots must read, at
//! the end of an epoch, exactly what the export reports for that key —
//! or the sampled time series would disagree with the exported metrics.

use presto::core::SystemConfig;
use presto::fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto::proxy::PipelineQuery;
use presto::sim::SimTime;
use presto::telemetry::{ScopeConfig, SeriesSpec};

/// The traced 2×3 fleet both tests drive, watched by `scope`.
fn traced_fleet(scope: ScopeConfig) -> FleetDeployment {
    let mut system = SystemConfig {
        proxies: 2,
        sensors_per_proxy: 3,
        ..SystemConfig::default()
    };
    // Tracing and the scope add the trace, profiler and scope subtrees.
    system.proxy.pipeline.trace = true;
    system.scope = scope;
    FleetDeployment::new(FleetConfig {
        system,
        ..FleetConfig::default()
    })
}

/// 240 epochs with a PAST and a NOW query every 20.
fn drive(fleet: &mut FleetDeployment) {
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
}

#[test]
fn get_resolves_every_flattened_key_of_a_fleet_snapshot() {
    let mut fleet = traced_fleet(fleet_scope_config(&FleetScopeBounds::default()));
    drive(&mut fleet);
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

/// Every exported key outside the host-timed `profiler.*` and the
/// scope's own `scope.*`, followed as a Level series by a second run
/// of the same fleet, ends on the exported value bit for bit.
#[test]
fn scope_slots_read_what_the_export_reports() {
    let mut first = traced_fleet(fleet_scope_config(&FleetScopeBounds::default()));
    drive(&mut first);
    let keys: Vec<String> = first
        .telemetry_snapshot()
        .flatten()
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| !k.starts_with("profiler.") && !k.starts_with("scope."))
        .collect();
    assert!(keys.len() > 100, "only {} keys exported", keys.len());

    let mut second = traced_fleet(ScopeConfig {
        series: keys.iter().map(|k| SeriesSpec::level(k)).collect(),
        ..ScopeConfig::default()
    });
    drive(&mut second);
    let snap = second.telemetry_snapshot();
    let series = second.system.scope().series();
    assert_eq!(series.len(), keys.len());
    for (key, (path, ring)) in keys.iter().zip(series) {
        assert_eq!(path, key);
        let exported = snap.get(key);
        assert!(exported.is_some(), "{key} missing from the second export");
        let last = ring.bins().last().map(|b| b.last);
        assert_eq!(
            last.map(f64::to_bits),
            exported.map(f64::to_bits),
            "{key}: scope read {last:?}, export {exported:?}"
        );
    }
}
