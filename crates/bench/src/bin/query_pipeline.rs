//! Query pipeline vs serialized baseline under downlink loss.
//!
//! `query_pipeline [hours]` — the full experiment (default 6 h query
//! phase over a 24 h warmup, 8 sensors, 16 users, 30% downlink loss),
//! additionally requiring ≥ 8 simultaneously in-flight pulls and
//! pipeline throughput strictly above the serialized-RPC baseline.
//! `query_pipeline --quick` runs the small fixed-seed CI smoke
//! (2 h / 6 h warmup, 4 sensors, 10 users, same 30% loss) and exits
//! non-zero if concurrency (≥ 4 in-flight), termination (p99 finite,
//! zero leaked pending entries), or the throughput win fails.

use presto_bench::driver::conclude;
use presto_bench::query_pipeline::{query_pipeline, QueryPipelineConfig};
use presto_bench::report::{publish, BenchJson};

#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        QueryPipelineConfig::quick()
    } else {
        QueryPipelineConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(6),
            ..QueryPipelineConfig::default()
        }
    };
    let min_in_flight = if quick { 4 } else { 8 };
    println!(
        "query pipeline — {} h × {} users over {} sensors, {:.0}% downlink loss",
        cfg.query_hours,
        cfg.users,
        cfg.sensors,
        cfg.loss * 100.0
    );
    let r = query_pipeline(&cfg);
    let bench = BenchJson::from_arms("query_pipeline", &r.pipeline, &r.baseline);
    let mut failures = r.failures(min_in_flight);
    publish("BENCH_query_pipeline.json", &bench, &mut failures);
    conclude(
        "query-pipeline",
        quick,
        &failures,
        &format!(
            "peak {} in-flight, speedup {:.2}×, {} baseline arrivals unserved",
            r.pipeline.metric("pipeline.max_in_flight"),
            r.speedup,
            r.baseline_unserved
        ),
    );
}
