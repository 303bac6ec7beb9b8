//! Sliced range-query execution vs monolithic pulls under loss.
//!
//! `slice_scenario [hours]` — the full experiment (default 6 h query
//! phase over a 24 h warmup, 8 sensors, 16 users sharing staggered hot
//! windows, 30% downlink loss). `slice_scenario --quick` runs the
//! small fixed-seed CI smoke (2 h / 8 h warmup, 4 sensors, 8 users,
//! same loss) and exits non-zero if the slice cache fails to absorb
//! shared reads (hit rate must beat the monolithic arm's reply cache),
//! answered throughput drops below the monolithic arm, any answer is
//! stale-confident, or anything leaks.

use presto_bench::driver::conclude;
use presto_bench::report::{publish, BenchJson};
use presto_bench::slice_scenario::{slice_scenario, SliceScenarioConfig};

#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        SliceScenarioConfig::quick()
    } else {
        SliceScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(6),
            ..SliceScenarioConfig::default()
        }
    };
    println!(
        "sliced execution — {} h × {} users over {} sensors, {:.0}% downlink loss",
        cfg.query_hours,
        cfg.users,
        cfg.sensors,
        cfg.loss * 100.0
    );
    let r = slice_scenario(&cfg);
    let bench = BenchJson::from_arms("slice", &r.sliced, &r.monolithic);
    let mut failures = r.failures();
    publish("BENCH_slice.json", &bench, &mut failures);
    conclude(
        "slice",
        quick,
        &failures,
        &format!(
            "hit rate gain {:.3}, throughput ratio {:.2}×",
            r.hit_rate_gain, r.throughput_ratio
        ),
    );
}
