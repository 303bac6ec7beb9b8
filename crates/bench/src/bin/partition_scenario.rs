//! Split-brain partition over the fleet mesh: honesty under a
//! healed network cut.
//!
//! `partition_scenario [hours]` — the full experiment (default 2 h
//! query phase over a 16 h warmup, 3 proxies × 2 sensors, 30% downlink
//! loss, the last proxy cut from the mesh 30 min in for 40 min, then
//! healed). `partition_scenario --quick` runs the same fixed-seed
//! configuration as the CI smoke and exits non-zero unless, across the
//! cut + heal cycle: no sensor's home uplink is ever driven by two
//! proxies in one epoch, zero stale-confident answers appear, every
//! real answer carries an explicit serve-time age, the minority proxy
//! fences and is later re-admitted through a quorum-confirmed rebirth,
//! the partitioned arm keeps at least half the no-partition arm's
//! answered throughput, and every leak probe reads zero after drain.

use presto_bench::driver::conclude;
use presto_bench::partition::{partition_scenario, PartitionScenarioConfig};
use presto_bench::report::{publish, BenchJson};

#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;

fn main() {
    let arg = std::env::args().nth(1);
    let quick = arg.as_deref() == Some("--quick");
    let cfg = if quick {
        PartitionScenarioConfig::quick()
    } else {
        PartitionScenarioConfig {
            query_hours: arg.and_then(|a| a.parse().ok()).unwrap_or(2),
            ..PartitionScenarioConfig::default()
        }
    };
    println!(
        "partition scenario — {} proxies × {} sensors, {:.0}% loss, proxy {} cut {}–{} min \
         into the phase",
        cfg.proxies,
        cfg.sensors_per_proxy,
        cfg.loss * 100.0,
        cfg.proxies - 1,
        cfg.cut_minutes.0,
        cfg.cut_minutes.0 + cfg.cut_minutes.1
    );
    let r = partition_scenario(&cfg);
    let (w, clean) = (&r.with_partition, &r.without_partition);
    let bench = BenchJson::from_arms("partition", &w.run, &clean.run);
    let mut failures = r.failures(&cfg);
    publish("BENCH_partition.json", &bench, &mut failures);
    conclude(
        "partition-scenario",
        quick,
        &failures,
        &format!(
            "fenced {} epochs, {} recorder chains, {:.2}× throughput, {} incidents \
             ({} mesh-attributed)",
            w.fenced_epochs,
            w.recorder_chains_ok,
            r.throughput_ratio,
            w.run.scope().incidents().len(),
            w.incidents_mesh_attributed
        ),
    );
}
