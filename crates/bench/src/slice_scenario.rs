//! The sliced-execution experiment: many users hammering a shared hot
//! archive window through one proxy under downlink loss.
//!
//! Two identically seeded deployments run the same seeded multi-user
//! workload (PAST windows drawn from a small set of staggered,
//! overlapping hot windows, plus background NOW traffic):
//!
//! * **sliced** — archive-range queries split into time-aligned slices
//!   served through the slice cache; overlapping windows from
//!   different users share slices, so most radio work is absorbed by
//!   the cache and a narrower window completes radio-free;
//! * **monolithic** — the same arrivals with slicing off: the exact
//!   match reply cache only absorbs byte-identical repeat windows, so
//!   overlapping-but-unequal windows each pay their own pull.
//!
//! Both arms run the same horizon plus the same drain window. The
//! report carries each arm's cache hit rate (slice cache vs reply
//! cache), answered throughput, the stale-confident probe (an Ok
//! answer contradicted by its own window — must be zero), and the
//! trace/age coverage counters the CI smoke asserts on.

use crate::driver::{
    arm_failures, lossy_downlink, run_arm as drive, single_system_scope, throughput_ratio, ArmPlan,
    ArmRun, Arrival, Deployment, SCENARIO_LOSS, SCENARIO_SEED,
};
use crate::report::ArmSummary;
use presto_core::{PrestoSystem, StoreQuery, SystemConfig};
use presto_proxy::DEFAULT_DEADLINE;
use presto_sim::{SimDuration, SimTime};

/// Mean queries per user per hour.
const QUERIES_PER_USER_PER_HOUR: f64 = 60.0;

/// PAST-query tolerance (shared across users, so overlapping windows
/// share slice keys).
const TOLERANCE: f64 = 0.2;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct SliceScenarioConfig {
    /// Warmup (archive build) before the query phase, hours. The hot
    /// windows all lie inside this archived span, so every slice they
    /// touch is complete (cacheable) from the first pull.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Sensors under the single proxy.
    pub sensors: usize,
    /// Concurrent users.
    pub users: usize,
}

impl Default for SliceScenarioConfig {
    fn default() -> Self {
        SliceScenarioConfig {
            warmup_hours: 24,
            query_hours: 6,
            sensors: 8,
            users: 16,
        }
    }
}

impl SliceScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        SliceScenarioConfig {
            warmup_hours: 8,
            query_hours: 2,
            sensors: 4,
            users: 8,
        }
    }
}

/// Scenario result: both arms plus the headline comparisons.
pub struct SliceScenarioReport {
    /// Sliced execution on.
    pub sliced: ArmRun,
    /// Same seed, slicing off.
    pub monolithic: ArmRun,
    /// `sliced.throughput / monolithic.throughput` (must be ≥ 1: slice
    /// reuse cannot cost answered throughput).
    pub throughput_ratio: f64,
    /// `sliced.cache_hit_rate - monolithic.cache_hit_rate` (must be
    /// positive: slice sharing absorbs reads exact-match never could).
    pub hit_rate_gain: f64,
}

/// Deterministic splitmix64 step, the workload's only randomness.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared hot windows: 2 h 4 min spans (three 1-hour slices each)
/// staggered 30 min apart, all inside the archived warmup. Adjacent
/// stagger positions overlap by over 1.5 h, so different windows share
/// slices without sharing reply-cache keys.
fn hot_window(slot: u64) -> (SimTime, SimTime) {
    let from = SimTime::from_hours(1) + SimDuration::from_mins(30) * slot;
    (from, from + SimDuration::from_mins(124))
}

fn system(cfg: &SliceScenarioConfig, sliced: bool) -> PrestoSystem {
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
    // Force the pull path so the comparison measures the caches, not
    // the coverage fast path, and trace so age coverage is auditable.
    sys_cfg.proxy.past_coverage_hit = f64::INFINITY;
    sys_cfg.proxy.pipeline.trace = true;
    sys_cfg.scope = single_system_scope();
    if sliced {
        sys_cfg.proxy.pipeline.slice = true;
    }
    lossy_downlink(&mut sys_cfg, SCENARIO_LOSS);
    PrestoSystem::new(sys_cfg)
}

/// The seeded multi-user workload: PAST queries over the staggered hot
/// windows plus background NOW traffic.
fn arrivals(cfg: &SliceScenarioConfig) -> impl FnMut(SimTime) -> Vec<Arrival> + '_ {
    let epoch = SystemConfig::default().lab.epoch;
    // Per-epoch arrival probability for one user.
    let p_arrival = QUERIES_PER_USER_PER_HOUR * epoch.as_secs_f64() / 3600.0;
    let stagger_slots = 4u64;
    let mut rng = SCENARIO_SEED ^ 0x5711CE;
    move |_| {
        let mut batch = Vec::new();
        for _user in 0..cfg.users {
            let r = mix(&mut rng);
            if (r % 10_000) as f64 >= p_arrival * 10_000.0 {
                continue;
            }
            let sensor = (mix(&mut rng) % cfg.sensors as u64) as u16;
            let q = if mix(&mut rng).is_multiple_of(5) {
                StoreQuery::Now {
                    sensor,
                    tolerance: TOLERANCE,
                }
            } else {
                let (from, to) = hot_window(mix(&mut rng) % stagger_slots);
                StoreQuery::Past {
                    sensor,
                    from,
                    to,
                    tolerance: TOLERANCE,
                }
            };
            batch.push(Arrival::Store(q));
        }
        batch
    }
}

/// Runs one arm through the driver.
pub fn run_arm(cfg: &SliceScenarioConfig, sliced: bool) -> ArmRun {
    let plan = ArmPlan::new(cfg.warmup_hours, cfg.query_hours, DEFAULT_DEADLINE);
    let label = if sliced { "sliced" } else { "monolithic" };
    let deployment = Deployment::Single(Box::new(system(cfg, sliced)));
    drive(label, deployment, &plan, &mut arrivals(cfg), None)
}

/// Runs both arms over the identical seeded workload.
pub fn slice_scenario(cfg: &SliceScenarioConfig) -> SliceScenarioReport {
    let sliced = run_arm(cfg, true);
    let monolithic = run_arm(cfg, false);
    SliceScenarioReport {
        throughput_ratio: throughput_ratio(&sliced, &monolithic),
        hit_rate_gain: ArmSummary::new(&sliced).cache_hit_rate
            - ArmSummary::new(&monolithic).cache_hit_rate,
        sliced,
        monolithic,
    }
}

impl SliceScenarioReport {
    /// Every failed acceptance check: the driver invariants on both
    /// arms, zero incidents on these fault-free runs, the slice cache's
    /// accounting, and the sharing win.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for arm in [&self.sliced, &self.monolithic] {
            out.extend(arm_failures(arm));
            let incidents = arm.scope().incidents().len();
            if incidents > 0 {
                out.push(format!("{}: clean run logged {incidents} watchdog incidents", arm.label));
            }
        }
        let m = |k: &str| self.sliced.metric(k);
        if m("pipeline.sliced") == 0.0 {
            out.push("no query took the sliced path".into());
        }
        if m("slice.lookups") == 0.0 {
            out.push("slice cache counters absent".into());
        }
        if m("slice.lookups") != m("slice.hits") + m("slice.misses") {
            out.push(format!(
                "slice cache accounting does not balance: {} lookups vs {} hits + {} misses",
                m("slice.lookups"),
                m("slice.hits"),
                m("slice.misses")
            ));
        }
        if ArmSummary::new(&self.sliced).cache_hit_rate <= 0.0 {
            out.push("slice cache never hit".into());
        }
        if self.hit_rate_gain <= 0.0 {
            out.push(format!(
                "slice hit rate did not beat the monolithic reply cache (gain {:.3})",
                self.hit_rate_gain
            ));
        }
        if self.throughput_ratio < 1.0 {
            out.push(format!(
                "sliced throughput fell below monolithic ({:.3}×)",
                self.throughput_ratio
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_slice_cache_absorbs_shared_hot_reads() {
        let r = slice_scenario(&SliceScenarioConfig::quick());
        let failures = r.failures();
        assert!(failures.is_empty(), "{failures:#?}");
        for arm in [&r.sliced, &r.monolithic] {
            assert!(arm.counters.submitted > 50, "{}: workload too small", arm.label);
            assert!(
                arm.scope().series().iter().any(|(path, _)| path == "slice.lookups"
                    || path == "pipeline.rpcs_issued"),
                "{}: timeline missing the work-rate series",
                arm.label
            );
        }
    }
}
