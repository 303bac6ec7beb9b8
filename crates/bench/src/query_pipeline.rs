//! The query-pipeline experiment: one proxy absorbing heavy multi-user
//! query traffic under downlink loss.
//!
//! Two identically seeded deployments run the same seeded multi-user
//! workload (NOW / PAST / aggregate arrivals with shared hot windows):
//!
//! * **pipeline** — queries enter the proxy's asynchronous pipeline;
//!   precision misses enqueue and overlap across epochs, identical
//!   windows coalesce into one pull, repeat spans come from the shared
//!   pull-reply cache, and every completion (or honest deadline
//!   failure) is recorded with its per-query latency;
//! * **serialized baseline** — the same arrivals served through the
//!   blocking `UnifiedStore` path one at a time: each RPC's entire
//!   attempt/timeout schedule occupies the proxy, so later queries
//!   queue behind it (the pre-pipeline behavior).
//!
//! Both drivers run the same horizon plus the same drain window, so
//! throughput compares answered-query counts over equal wall-clock.
//! The report carries p50/p95/p99 latency for both, the pipeline's
//! peak in-flight pull count, coalescing and reply-cache counters, and
//! the leak probes the CI smoke asserts on.

use std::collections::VecDeque;

use crate::driver::{
    arm_failures, lossy_downlink, run_arm as drive, single_system_scope, throughput_ratio,
    ArmCounters, ArmPlan, ArmRun, Arrival, Deployment, SCENARIO_LOSS, SCENARIO_SEED,
};
use presto_core::{PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
use presto_proxy::{AnswerSource, DEFAULT_DEADLINE};
use presto_sim::{QueryArrival, QueryKind, QueryLoad, QueryLoadConfig, SimDuration, SimTime};
use presto_telemetry::alloc;

/// Mean queries per user per hour.
const QUERIES_PER_USER_PER_HOUR: f64 = 60.0;

/// Query tolerance (tight, so precision misses force pulls).
const TOLERANCE: f64 = 0.05;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct QueryPipelineConfig {
    /// Warmup (archive + model build) before the query phase, hours.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Sensors under the single proxy.
    pub sensors: usize,
    /// Concurrent users.
    pub users: usize,
}

impl Default for QueryPipelineConfig {
    fn default() -> Self {
        QueryPipelineConfig {
            warmup_hours: 24,
            query_hours: 6,
            sensors: 8,
            users: 16,
        }
    }
}

impl QueryPipelineConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        QueryPipelineConfig {
            warmup_hours: 6,
            query_hours: 2,
            sensors: 4,
            users: 10,
        }
    }
}

/// Experiment result.
pub struct QueryPipelineReport {
    /// The pipeline arm, through the scenario driver.
    pub pipeline: ArmRun,
    /// The serialized baseline over the same arrivals.
    pub baseline: ArmRun,
    /// Baseline arrivals still queued when the phase ended (counted
    /// among its failures).
    pub baseline_unserved: u64,
    /// `pipeline / baseline` answered throughput.
    pub speedup: f64,
}

fn system(cfg: &QueryPipelineConfig) -> PrestoSystem {
    let mut sys_cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: cfg.sensors,
        seed: SCENARIO_SEED,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
            ..presto_workloads::LabParams::default()
        },
        ..SystemConfig::default()
    };
    lossy_downlink(&mut sys_cfg, SCENARIO_LOSS);
    // Traced and scoped like every driver arm, so the trace audit and
    // the stale-confident watchdog cover the pipeline too.
    sys_cfg.proxy.pipeline.trace = true;
    sys_cfg.scope = single_system_scope();
    PrestoSystem::new(sys_cfg)
}

fn load(cfg: &QueryPipelineConfig) -> QueryLoad {
    QueryLoad::new(
        QueryLoadConfig {
            users: cfg.users,
            queries_per_user_per_hour: QUERIES_PER_USER_PER_HOUR,
            max_age: SimDuration::from_hours(cfg.warmup_hours.min(12)),
            tolerances: vec![TOLERANCE],
            seed: SCENARIO_SEED ^ 0x51_0AD,
            ..QueryLoadConfig::default()
        },
        cfg.sensors,
    )
}

fn to_store_query(a: &QueryArrival) -> StoreQuery {
    let sensor = a.sensor_slot as u16;
    match a.kind {
        QueryKind::Now => StoreQuery::Now {
            sensor,
            tolerance: TOLERANCE,
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

/// Runs the experiment.
pub fn query_pipeline(cfg: &QueryPipelineConfig) -> QueryPipelineReport {
    let epoch = SystemConfig::default().lab.epoch;
    // Drain: one pipeline deadline past the last arrival, plus slack.
    let plan = ArmPlan::new(cfg.warmup_hours, cfg.query_hours, DEFAULT_DEADLINE);

    // ── pipeline arm ────────────────────────────────────────────────
    let mut gen = load(cfg);
    let mut source = |t| {
        gen.step(t, epoch)
            .iter()
            .map(|a| Arrival::Store(to_store_query(a)))
            .collect()
    };
    let deployment = Deployment::Single(Box::new(system(cfg)));
    let pipeline = drive("pipeline", deployment, &plan, &mut source, None);

    // ── serialized baseline ─────────────────────────────────────────
    // Identical deployment and workload; each query's blocking RPC
    // occupies the proxy for its full latency, so later arrivals queue.
    let allocs_before = alloc::allocation_count();
    let mut base = system(cfg);
    base.run(epoch * plan.warmup);
    let mut base_gen = load(cfg);
    let mut fifo: VecDeque<(SimTime, StoreQuery)> = VecDeque::new();
    let mut c = ArmCounters::default();
    let mut server_free_at = base.now();
    for e in 0..plan.measured() {
        let t = base.now();
        if e < plan.query {
            for a in base_gen.step(t, epoch) {
                c.submitted += 1;
                fifo.push_back((t, to_store_query(&a)));
            }
        }
        while let Some(&(arrived, q)) = fifo.front() {
            if server_free_at > t {
                break;
            }
            fifo.pop_front();
            let r = UnifiedStore::new(&mut base).query(q);
            let done_at = server_free_at.max(t) + r.latency;
            server_free_at = done_at;
            c.latencies.record((done_at - arrived).as_secs_f64());
            c.completed += 1;
            if r.source == AnswerSource::Failed {
                c.failed += 1;
            } else {
                c.answered_ok += 1;
            }
        }
        base.step_epoch();
    }
    // Arrivals still queued at the phase end were never answered.
    let baseline_unserved = fifo.len() as u64;
    c.failed += baseline_unserved;
    let baseline = ArmRun::finish(
        "serialized-baseline",
        Deployment::Single(Box::new(base)),
        c,
        &plan,
        allocs_before,
    );
    QueryPipelineReport {
        speedup: throughput_ratio(&pipeline, &baseline),
        pipeline,
        baseline,
        baseline_unserved,
    }
}

impl QueryPipelineReport {
    /// Every failed acceptance check: the driver invariants on the
    /// pipeline arm, `min_in_flight` overlapping pulls, a finite p99,
    /// and a throughput win over the serialized baseline.
    pub fn failures(&self, min_in_flight: u64) -> Vec<String> {
        let mut out = arm_failures(&self.pipeline);
        let peak = self.pipeline.metric("pipeline.max_in_flight");
        if peak < min_in_flight as f64 {
            out.push(format!("peak in-flight pulls {peak} < required {min_in_flight}"));
        }
        let p99 = self.pipeline.counters.latencies.quantile(0.99);
        if !p99.is_finite() || p99 <= 0.0 {
            out.push(format!("p99 latency not finite/real: {p99}"));
        }
        if self.speedup <= 1.0 {
            out.push(format!(
                "pipeline did not beat the serialized baseline ({:.3}×)",
                self.speedup
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_beats_serialized_baseline_under_loss() {
        let r = query_pipeline(&QueryPipelineConfig::quick());
        let failures = r.failures(4);
        assert!(failures.is_empty(), "{failures:#?}");
        assert!(r.pipeline.counters.submitted > 50, "workload too small");
        assert_eq!(r.baseline.counters.submitted, r.pipeline.counters.submitted);
        assert_eq!(
            r.baseline.counters.completed + r.baseline_unserved,
            r.baseline.counters.submitted,
            "every baseline arrival is served or counted unserved"
        );
        assert!(r.pipeline.metric("pipeline.coalesced") > 0.0, "hot windows never coalesced");
    }
}
