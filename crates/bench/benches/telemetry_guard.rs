//! Zero-overhead guard for the telemetry layer.
//!
//! Runs the same seeded single-proxy query workload twice — every
//! telemetry surface off (no epoch profiler, no pipeline tracer, no
//! presto-scope) vs everything on (scope sampler + watchdogs included),
//! draining traces each epoch like a real consumer — and fails unless
//! the enabled arm stays within `GUARD_RATIO`× the disabled arm's
//! wall-clock. Each arm is timed `REPS` times
//! interleaved and the minimum kept, so scheduler noise can't trip
//! the guard on a loaded CI box.
//!
//! A fleet arm then prices observation where it is densest: the
//! `fleet_scenario --quick` shedding arm without its proxy crash, under
//! the standard fleet scope. Within that one run the scope must raise
//! no incident, its tick must not allocate, and it must cost less wall
//! time than the fleet pump it watches.
//!
//! Run with `cargo bench -p presto-bench --bench telemetry_guard`.

use std::time::Instant;

use presto_bench::driver::lossy_downlink;
use presto_bench::fleet::{archive_reach_bounds, watched_arm, FleetScenarioConfig};
use presto_core::{PrestoSystem, StoreQuery, SystemConfig};
use presto_sim::{QueryArrival, QueryKind, QueryLoad, QueryLoadConfig, SimDuration};
use presto_workloads::LabParams;

// Counting allocator: the fleet arm's profiler reads per-phase
// allocation counts from it.
#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

/// Enabled telemetry may cost at most this multiple of disabled.
const GUARD_RATIO: f64 = 3.0;
const WARMUP_HOURS: u64 = 2;
const QUERY_EPOCHS: u64 = 2000;
const REPS: usize = 3;

fn to_store_query(a: &QueryArrival) -> StoreQuery {
    let sensor = a.sensor_slot as u16;
    match a.kind {
        QueryKind::Now => StoreQuery::Now {
            sensor,
            tolerance: a.tolerance,
        },
        QueryKind::Past => StoreQuery::Past {
            sensor,
            from: a.from,
            to: a.to,
            tolerance: a.tolerance,
        },
        QueryKind::Aggregate => StoreQuery::Aggregate {
            sensor,
            from: a.from,
            to: a.to,
            op: presto_sensor::AggregateOp::Mean,
        },
    }
}

/// One timed run: warm up untimed, then pump `QUERY_EPOCHS` epochs of
/// query traffic. Returns (timed seconds, queries completed).
fn run_arm(telemetry: bool) -> (f64, u64) {
    let mut sys_cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 4,
        seed: 2005,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    lossy_downlink(&mut sys_cfg, 0.2);
    sys_cfg.profile = telemetry;
    sys_cfg.proxy.pipeline.trace = telemetry;
    if telemetry {
        // The full scope: per-epoch snapshot sampling into ring series
        // plus a live watchdog rule, so the guard prices the whole
        // presto-scope pipeline, not just the legacy counters.
        sys_cfg.scope = presto_telemetry::ScopeConfig {
            series: vec![
                presto_telemetry::SeriesSpec::delta("pipeline.rpcs_issued"),
                presto_telemetry::SeriesSpec::delta("pipeline.submitted"),
                presto_telemetry::SeriesSpec::level("trace.recorder_len"),
            ],
            rules: vec![presto_telemetry::WatchdogRule::still(
                presto_telemetry::scope::WD_STALE_CONFIDENT,
                "probe.stale_confident",
            )],
        };
    }
    let epoch = sys_cfg.lab.epoch;
    let mut sys = PrestoSystem::new(sys_cfg);
    sys.run(SimDuration::from_hours(WARMUP_HOURS));
    let mut gen = QueryLoad::new(
        QueryLoadConfig {
            users: 10,
            queries_per_user_per_hour: 60.0,
            max_age: SimDuration::from_hours(WARMUP_HOURS),
            tolerances: vec![0.05],
            seed: 2005 ^ 0x51_0AD,
            ..QueryLoadConfig::default()
        },
        4,
    );
    let mut completed = 0u64;
    let start = Instant::now();
    for _ in 0..QUERY_EPOCHS {
        let t = sys.now();
        for a in gen.step(t, epoch) {
            sys.submit_query(to_store_query(&a));
        }
        sys.step_epoch();
        completed += sys.take_completed_queries().len() as u64;
        if telemetry {
            // Drain like a real consumer so the enabled arm pays the
            // full cost of producing the traces, not just buffering.
            let _ = sys.proxies[0].pipeline_mut().tracer_mut().take_finished();
        }
    }
    (start.elapsed().as_secs_f64(), completed)
}

fn main() {
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let (mut off_done, mut on_done) = (0u64, 0u64);
    for _ in 0..REPS {
        let (t, n) = run_arm(false);
        off = off.min(t);
        off_done = n;
        let (t, n) = run_arm(true);
        on = on.min(t);
        on_done = n;
    }
    let ratio = on / off;
    println!(
        "telemetry_guard: disabled {:.3} s, enabled {:.3} s, ratio {:.2}x \
         ({} / {} queries completed)",
        off, on, ratio, off_done, on_done
    );
    assert_eq!(
        off_done, on_done,
        "telemetry changed the simulation: {off_done} vs {on_done} completions"
    );
    assert!(
        ratio < GUARD_RATIO,
        "enabled telemetry cost {ratio:.2}x the disabled pump (guard {GUARD_RATIO}x)"
    );
    fleet_arm();
    println!("telemetry_guard OK");
}

/// The fleet arm: the scope observes a whole deployment every epoch, so
/// it must stay allocation-free and cheaper than the pump.
fn fleet_arm() {
    let cfg = FleetScenarioConfig {
        crash_hours: None,
        ..FleetScenarioConfig::quick()
    };
    // The quick workload serves PAST windows up to eight hours old, so
    // the answer-age bound is sized to the archive reach, as in the
    // partition scenario.
    let run = watched_arm(&cfg, &archive_reach_bounds(&cfg));
    let profiler = run.deployment.system().profiler();
    let phase = |name: &str| profiler.phase(name).copied().unwrap_or_default();
    let (scope, pump) = (phase("fleet_scope"), phase("fleet_pump"));
    println!(
        "telemetry_guard fleet: scope {} µs / {} allocs over {} ticks, pump {} µs",
        scope.micros, scope.allocs, scope.calls, pump.micros
    );
    let incidents = run.scope().incidents();
    assert!(
        incidents.is_empty(),
        "fleet scope raised incidents: {incidents:?}"
    );
    assert!(scope.calls > 0, "the fleet scope never ticked");
    assert_eq!(scope.allocs, 0, "the fleet scope tick allocated");
    assert!(
        scope.micros < pump.micros,
        "scope {} µs is not below the pump's {} µs",
        scope.micros,
        pump.micros
    );
}
