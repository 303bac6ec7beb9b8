//! Cross-proxy fleet under Zipf-skewed load: shedding on vs off.
//!
//! `fleet_scenario [hours]` — the full experiment (default 4 h query
//! phase over a 12 h warmup, 4 proxies × 3 sensors, Zipf 1.6 skew,
//! 30% downlink loss, a permanent proxy crash one hour in).
//! `fleet_scenario --quick` runs the small fixed-seed CI smoke
//! (2 h query phase / 16 h warmup, 3 proxies × 2 sensors, 28 users at
//! 100 q/h) and exits non-zero
//! unless, under one-hot-proxy skew: shedding-on beats shedding-off on
//! answered-query throughput AND p99 terminal latency, per-proxy
//! completion fairness improves, zero stale-confident answers appear
//! in either arm, and every leak probe reads zero after the proxy
//! crash + re-home cycle.
//! `fleet_scenario --determinism` runs the quick arm twice with the
//! same seed and exits non-zero unless the full telemetry snapshot and
//! the completion set are byte-identical across the two runs.

use presto_bench::driver::conclude;
use presto_bench::driver::SCENARIO_LOSS;
use presto_bench::fleet::{determinism_fingerprint, fleet_scenario, FleetScenarioConfig, ZIPF_S};
use presto_bench::report::{publish, BenchJson};

// Counting allocator: BENCH_fleet.json carries allocations/epoch and the
// peak-RSS proxy as `alloc.` rows, never folded into the telemetry
// snapshot the determinism audit compares.
#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--determinism") {
        determinism_audit();
        return;
    }
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        FleetScenarioConfig::quick()
    } else {
        FleetScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(4),
            ..FleetScenarioConfig::default()
        }
    };
    println!(
        "fleet scenario — {} proxies × {} sensors, Zipf {:.1}, {} users, {:.0}% loss",
        cfg.proxies,
        cfg.sensors_per_proxy,
        ZIPF_S,
        cfg.users,
        SCENARIO_LOSS * 100.0
    );
    let r = fleet_scenario(&cfg);
    let bench = BenchJson::from_arms("fleet", &r.shed_on.run, &r.shed_off.run);
    let mut failures = r.failures(&cfg);
    publish("BENCH_fleet.json", &bench, &mut failures);
    conclude(
        "fleet-scenario",
        quick,
        &failures,
        &format!(
            "{:.2}× throughput, {:.2}× p99, fairness {:.2} vs {:.2}, {} shed answered",
            r.throughput_gain,
            r.p99_gain,
            r.shed_on.fairness,
            r.shed_off.fairness,
            r.shed_on.forwarded_ok
        ),
    );
}

/// Same-seed double run of the quick shedding arm: the telemetry
/// snapshot and completion set must match byte for byte.
fn determinism_audit() {
    let cfg = FleetScenarioConfig::quick();
    let a = determinism_fingerprint(&cfg, true);
    let b = determinism_fingerprint(&cfg, true);
    let snap_ok = a.snapshot == b.snapshot;
    let comp_ok = a.completions == b.completions;
    println!(
        "determinism audit: snapshot {} bytes ({}), completions {} lines ({})",
        a.snapshot.len(),
        if snap_ok { "identical" } else { "DIVERGED" },
        a.completions.lines().count(),
        if comp_ok { "identical" } else { "DIVERGED" },
    );
    if !snap_ok {
        for (la, lb) in a.snapshot.lines().zip(b.snapshot.lines()) {
            if la != lb {
                eprintln!("snapshot diff:\n  run1: {la}\n  run2: {lb}");
            }
        }
    }
    if !comp_ok {
        let diverged = a
            .completions
            .lines()
            .zip(b.completions.lines())
            .enumerate()
            .find(|(_, (la, lb))| la != lb);
        if let Some((i, (la, lb))) = diverged {
            eprintln!("completion diff at line {i}:\n  run1: {la}\n  run2: {lb}");
        } else {
            eprintln!(
                "completion count diff: {} vs {} lines",
                a.completions.lines().count(),
                b.completions.lines().count()
            );
        }
    }
    if !(snap_ok && comp_ok) {
        eprintln!("fleet determinism audit FAILED");
        std::process::exit(1);
    }
    println!("fleet determinism audit passed");
}
