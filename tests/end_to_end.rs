//! End-to-end integration: the full three-tier system answering queries
//! through the unified store, with accuracy checked against ground truth
//! and the paper's energy hierarchy verified on the aggregate ledgers.

use presto::core::{PrestoSystem, StoreQuery, SystemConfig};
use presto::proxy::AnswerSource;
use presto::sim::{EnergyCategory, SimDuration, SimTime};

fn trained_system(days: u64) -> PrestoSystem {
    let mut sys = PrestoSystem::new(SystemConfig {
        proxies: 2,
        sensors_per_proxy: 3,
        ..SystemConfig::default()
    });
    sys.run(SimDuration::from_days(days));
    sys
}

#[test]
fn now_queries_are_answered_within_tolerance_for_every_sensor() {
    let mut sys = trained_system(1);
    let truth = sys.truth.clone();
    for sensor in 0..6u16 {
        let r = sys.query(StoreQuery::Now {
            sensor,
            tolerance: 1.0,
        });
        assert_ne!(r.source, AnswerSource::Failed, "sensor {sensor} failed");
        let err = (r.value.expect("value present") - truth[sensor as usize]).abs();
        // Tolerance plus slack for in-flight epoch and lossy links.
        assert!(err < 2.0, "sensor {sensor} error {err}");
    }
}

#[test]
fn past_queries_reconstruct_history_across_the_day() {
    let mut sys = trained_system(1);
    for (from_h, to_h) in [(2u64, 3u64), (12, 13), (20, 21)] {
        let r = sys.query(StoreQuery::Past {
            sensor: 2,
            from: SimTime::from_hours(from_h),
            to: SimTime::from_hours(to_h),
            tolerance: 1.0,
        });
        assert_ne!(r.source, AnswerSource::Failed);
        assert!(
            r.series.len() > 50,
            "window {from_h}-{to_h}: only {} samples",
            r.series.len()
        );
        // Temporally ordered.
        assert!(r.series.windows(2).all(|w| w[0].0 <= w[1].0));
        // Plausible indoor temperatures.
        assert!(r.series.iter().all(|&(_, v)| (0.0..45.0).contains(&v)));
    }
}

#[test]
fn model_driven_push_beats_streaming_by_bytes() {
    let mut sys = trained_system(2);
    // After two days, total pushed bytes per sensor per day should be a
    // small fraction of what streaming every 15-byte sample would cost
    // (2787 samples/day ≈ 42 kB/day).
    let bytes: u64 = sys
        .nodes
        .iter_mut()
        .map(|n| n.stats().bytes_sent)
        .sum();
    let per_sensor_day = bytes as f64 / 6.0 / 2.0;
    assert!(
        per_sensor_day < 20_000.0,
        "model-driven push too chatty: {per_sensor_day} B/day"
    );
}

#[test]
fn energy_hierarchy_radio_over_flash_over_cpu() {
    let sys = trained_system(1);
    let total = sys.sensor_ledger_total();
    let radio = total.radio_total();
    let flash = total.storage_total();
    let cpu = total.category(EnergyCategory::Cpu);
    assert!(radio > flash, "radio {radio} <= flash {flash}");
    assert!(flash > cpu, "flash {flash} <= cpu {cpu}");
    // The paper's orders-of-magnitude: radio dominates CPU by >= 10^3.
    assert!(radio / cpu > 1e3, "radio/cpu ratio {}", radio / cpu);
}

#[test]
fn rare_events_surface_in_the_unified_view() {
    let mut sys = PrestoSystem::new(SystemConfig {
        proxies: 2,
        sensors_per_proxy: 3,
        lab: presto::workloads::LabParams {
            events_per_day: 8.0,
            ..presto::workloads::LabParams::default()
        },
        ..SystemConfig::default()
    });
    sys.run(SimDuration::from_days(2));
    let r = sys.query(StoreQuery::Events {
        from: SimTime::ZERO,
        to: SimTime::from_days(2),
    });
    assert!(!r.events.is_empty(), "no rare events delivered");
    assert!(r.events.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn deterministic_end_to_end() {
    let energy = |seed: u64| {
        let mut sys = PrestoSystem::new(SystemConfig {
            proxies: 2,
            sensors_per_proxy: 2,
            seed,
            ..SystemConfig::default()
        });
        sys.run(SimDuration::from_hours(8));
        sys.sensor_ledger_total().total()
    };
    assert_eq!(energy(3), energy(3));
    assert_ne!(energy(3), energy(4));
}
