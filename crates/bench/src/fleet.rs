//! The fleet-scenario experiment: skewed multi-proxy load, query
//! shedding on vs off, and a proxy crash + re-home cycle.
//!
//! Two identically seeded fleets run the same Zipf-skewed multi-user
//! workload (one hot proxy absorbing most of the traffic) through the
//! same lossy downlinks, inter-link mesh, and proxy-crash schedule.
//! The only difference is the router's shed switch:
//!
//! * **shedding off** — every query is served where it enters; the hot
//!   proxy's per-epoch attempt budget saturates, its queue grows, and
//!   late queries fail honestly at their deadlines;
//! * **shedding on** — the admission controller reads per-proxy
//!   pressure and forwards archive-range queries from the hot proxy to
//!   cool peers, which pull the sensors over cross-proxy channels.
//!
//! The report compares answered-query throughput, p99 terminal
//! latency (honest failures included at deadline + grace — the latency
//! a user actually experiences), per-proxy completion fairness, and
//! the stale-confident count (answers claiming tight sigma while far
//! from the live truth — must be zero: shedding may slow an answer,
//! never silently wrong one). Leak probes must read clean after the
//! drain window, across the crash + re-home cycle included.

use std::fmt::Write as _;

use crate::driver::{
    arm_failures, lossy_downlink, ratio_or_inf, run_arm as drive, throughput_ratio, ArmPlan,
    ArmRun, Arrival, Deployment, Terminal, SCENARIO_LOSS, SCENARIO_SEED,
};
use crate::report::ArmSummary;
use presto_core::SystemConfig;
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto_proxy::{QueryClass, DEFAULT_DEADLINE};
use presto_sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};

/// Zipf skew over proxies (proxy 0 hottest).
pub const ZIPF_S: f64 = 1.6;

/// Query tolerance (tight, so precision misses force pulls).
const TOLERANCE: f64 = 0.05;

/// Scenario parameters (shared with [`crate::partition`]).
#[derive(Clone, Debug)]
pub struct FleetScenarioConfig {
    /// Warmup (archive + model build) before the query phase, hours.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Proxies in the fleet.
    pub proxies: usize,
    /// Sensors per proxy.
    pub sensors_per_proxy: usize,
    /// Concurrent users.
    pub users: usize,
    /// Mean queries per user per hour.
    pub queries_per_user_per_hour: f64,
    /// Crash window for the last proxy, hours into the query phase
    /// (`None` disables; the sensors re-home and stay re-homed).
    pub crash_hours: Option<(u64, u64)>,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            warmup_hours: 12,
            query_hours: 4,
            proxies: 4,
            sensors_per_proxy: 3,
            users: 32,
            queries_per_user_per_hour: 120.0,
            crash_hours: Some((1, 1000)),
        }
    }
}

impl FleetScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        FleetScenarioConfig {
            warmup_hours: 16,
            query_hours: 2,
            proxies: 3,
            sensors_per_proxy: 2,
            users: 28,
            queries_per_user_per_hour: 100.0,
            ..FleetScenarioConfig::default()
        }
    }
}

/// One arm's (shedding on or off) driver run plus the fleet-only
/// readings its per-epoch hook collects.
pub struct FleetArm {
    /// The driver run.
    pub run: ArmRun,
    /// Shed/resumed queries that completed with a real answer.
    pub forwarded_ok: u64,
    /// min / max over surviving entry proxies of the answered fraction
    /// of the queries entering there (1.0 = perfectly fair).
    pub fairness: f64,
}

/// Scenario result: both arms plus the headline comparisons.
pub struct FleetScenarioReport {
    /// Shedding on.
    pub shed_on: FleetArm,
    /// Shedding off.
    pub shed_off: FleetArm,
    /// `shed_on.throughput / shed_off.throughput`.
    pub throughput_gain: f64,
    /// `shed_off.p99 / shed_on.p99`.
    pub p99_gain: f64,
}

/// The fleet both fleet scenarios deploy (this one and
/// [`crate::partition`]). `faults`, the scope `bounds` and the router's
/// `shed` switch are each arm's own.
pub(crate) fn deploy(
    cfg: &FleetScenarioConfig,
    faults: FaultPlan,
    bounds: &FleetScopeBounds,
    shed: bool,
) -> Deployment {
    let mut sys_cfg = SystemConfig {
        proxies: cfg.proxies,
        sensors_per_proxy: cfg.sensors_per_proxy,
        seed: SCENARIO_SEED,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
            // The quiet regime where model-driven silence actually
            // holds: with the default heavy-tailed jitter the sensors
            // push nearly every epoch, the proxy caches densify, and
            // every query completes radio-free — no pipeline pressure,
            // nothing to shed. Quiet sensors keep the caches sparse so
            // tight-tolerance queries genuinely pull.
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..presto_workloads::LabParams::default()
        },
        faults,
        ..SystemConfig::default()
    };
    lossy_downlink(&mut sys_cfg, SCENARIO_LOSS);
    // A tight per-epoch attempt budget is the contended resource the
    // deployment tier arbitrates: one proxy can push ~4 lossy pulls
    // per epoch through it, so the Zipf-hot proxy saturates while its
    // peers idle — exactly the imbalance shedding exists to absorb.
    sys_cfg.proxy.pipeline.epoch_attempt_budget = 8;
    // Full trace spans: the router traces by default; turning the
    // pipeline tracer on too gets per-RPC attempt/retransmit/defer
    // events spliced into every fleet trace for the BENCH artifact.
    sys_cfg.proxy.pipeline.trace = true;
    // The standard fleet scope: epoch time-series sampling plus the
    // SLO watchdogs, so every run exports a trajectory and any
    // violation lands in the incident log with the faults to blame.
    sys_cfg.scope = fleet_scope_config(bounds);
    // A bounded summary cache (the paper's "cache of summary
    // information"): the queryable age band below is deliberately
    // larger than this, so the workload's working set does not fit and
    // distinct archive windows genuinely pull instead of re-reading
    // spans earlier pulls densified. Large enough for model training
    // (min_history 500).
    sys_cfg.proxy.cache_capacity = 700;
    let mut fc = FleetConfig {
        system: sys_cfg,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = shed;
    // Latency classes: the tight-tolerance archive class gets the full
    // default deadline; a loose NOW class trades deadline for budget.
    fc.router.latency_classes = vec![
        QueryClass {
            rate_per_hour: cfg.users as f64 * cfg.queries_per_user_per_hour,
            latency_bound: DEFAULT_DEADLINE,
            tolerance: TOLERANCE,
        },
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(4),
            tolerance: 1.5,
        },
    ];
    Deployment::Fleet(Box::new(FleetDeployment::new(fc)))
}

/// This scenario's deployment: the shared fleet with the last proxy
/// down over `crash_hours`.
fn deployment(cfg: &FleetScenarioConfig, bounds: &FleetScopeBounds, shed: bool) -> Deployment {
    let faults = match cfg.crash_hours {
        Some((from_h, to_h)) => FaultPlan::none().with_proxy_crash(
            cfg.proxies - 1,
            SimTime::from_hours(cfg.warmup_hours + from_h),
            SimTime::from_hours(cfg.warmup_hours + to_h),
        ),
        None => FaultPlan::none(),
    };
    deploy(cfg, faults, bounds, shed)
}

/// Scope bounds sized to the workload's archive reach: PAST windows up
/// to eight hours old legitimately carry hours of age, so the answer-age
/// p99 bound only has to catch data older than the archive itself.
pub fn archive_reach_bounds(cfg: &FleetScenarioConfig) -> FleetScopeBounds {
    FleetScopeBounds {
        answer_age_p99_us: (cfg.warmup_hours + cfg.query_hours + 8) as f64 * 3600.0 * 1e6,
    }
}

fn load(cfg: &FleetScenarioConfig) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: cfg.users,
                queries_per_user_per_hour: cfg.queries_per_user_per_hour,
                // Windows stay inside the model-era (quiet) span: the
                // pre-model warmup hours pushed every sample, so
                // windows reaching that far back would hit dense cache
                // instead of pulling.
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(cfg.warmup_hours.saturating_sub(8).max(2)),
                // Mostly-distinct windows: dashboard-style hot windows
                // coalesce into one pull and carry no load, so the
                // skew stress comes from the uniform draws.
                hot_fraction: 0.1,
                tolerances: vec![TOLERANCE],
                seed: SCENARIO_SEED ^ 0xF1_EE7,
                ..QueryLoadConfig::default()
            },
            groups: cfg.proxies,
            zipf_s: ZIPF_S,
        },
        cfg.sensors_per_proxy,
    )
}

/// The scenario's phases: drain is the longest per-query deadline plus
/// the router grace.
pub(crate) fn plan(cfg: &FleetScenarioConfig) -> ArmPlan {
    ArmPlan {
        now_oracle: true,
        ..ArmPlan::new(cfg.warmup_hours, cfg.query_hours, SimDuration::from_mins(14))
    }
}

/// The workload as driver arrivals.
pub(crate) fn arrivals(cfg: &FleetScenarioConfig) -> impl FnMut(SimTime) -> Vec<Arrival> {
    let mut gen = load(cfg);
    let epoch = SystemConfig::default().lab.epoch;
    move |t| gen.step(t, epoch).into_iter().map(Arrival::Fleet).collect()
}

/// Runs one arm through the driver.
pub fn run_arm(cfg: &FleetScenarioConfig, shed: bool) -> FleetArm {
    // Per entry proxy: terminals (every submitted query terminates) and
    // real answers among them.
    let mut terminals = vec![0u64; cfg.proxies];
    let mut ok = vec![0u64; cfg.proxies];
    let mut forwarded_ok = 0u64;
    let mut fairness_hook = |_: &Deployment, done: &[Terminal]| {
        for t in done {
            terminals[t.entry] += 1;
            if t.is_ok() {
                ok[t.entry] += 1;
                forwarded_ok += u64::from(t.forwarded);
            }
        }
    };
    let label = if shed { "shed-on" } else { "shed-off" };
    let deployment = deployment(cfg, &FleetScopeBounds::default(), shed);
    let run = drive(label, deployment, &plan(cfg), &mut arrivals(cfg), Some(&mut fairness_hook));
    // Fairness compares *surviving* entry proxies: a crashed proxy's
    // users lose their connection in both arms identically (honest
    // failures no router policy can serve), so including it would
    // only mask the hot-vs-cold imbalance shedding addresses.
    let crashed = cfg.crash_hours.map(|_| cfg.proxies - 1);
    let (lo, hi) = (0..cfg.proxies)
        .filter(|&p| Some(p) != crashed)
        .map(|p| match terminals[p] {
            0 => 1.0,
            n => ok[p] as f64 / n as f64,
        })
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), r| (lo.min(r), hi.max(r)));
    FleetArm {
        run,
        forwarded_ok,
        fairness: if hi > 0.0 { lo / hi } else { 1.0 },
    }
}

/// The shedding arm alone, without the scenario's fairness hook, under
/// the standard fleet scope with `bounds`: the arm the telemetry guard
/// prices observation on.
pub fn watched_arm(cfg: &FleetScenarioConfig, bounds: &FleetScopeBounds) -> ArmRun {
    drive("watched", deployment(cfg, bounds, true), &plan(cfg), &mut arrivals(cfg), None)
}

/// One same-seed arm reduced to byte-comparable artifacts: the dynamic
/// half of the determinism story (the static half is `presto-lint`'s D1
/// pass — see ANALYSIS.md). Two runs with the same config must produce
/// identical strings, byte for byte; any divergence means something
/// outside the seeded RNGs (iteration order, wall-clock, uninitialized
/// state) leaked into behavior.
pub struct DeterminismFingerprint {
    /// `Snapshot::render()` of the final unified telemetry tree — every
    /// counter, gauge, and histogram bucket in sorted dotted-path order.
    pub snapshot: String,
    /// One `Debug` line per terminal, in completion order: ticket,
    /// query, routing (entry/served_by/forwarded), the full answer
    /// (values, sigma, provenance, data_through), both timestamps and
    /// the answer age.
    pub completions: String,
}

/// Drives one arm exactly like the scenario does and fingerprints it.
pub fn determinism_fingerprint(cfg: &FleetScenarioConfig, shed: bool) -> DeterminismFingerprint {
    let mut completions = String::new();
    let mut record = |_: &Deployment, terminals: &[Terminal]| {
        for t in terminals {
            let _ = writeln!(completions, "{t:?}");
        }
    };
    let deployment = deployment(cfg, &FleetScopeBounds::default(), shed);
    let run = drive("fingerprint", deployment, &plan(cfg), &mut arrivals(cfg), Some(&mut record));
    // The profiler section is host wall-clock phase timing — the same
    // telemetry-timer carve-out the static D2 allowlist grants
    // `crates/telemetry/src/profiler.rs` — so it is excluded from the
    // byte-identity check; everything else in the tree must match.
    let snapshot = run
        .snapshot
        .render()
        .lines()
        .filter(|l| !l.starts_with("profiler."))
        .fold(String::new(), |mut out, l| {
            out.push_str(l);
            out.push('\n');
            out
        });
    DeterminismFingerprint {
        snapshot,
        completions,
    }
}

/// Runs both arms.
pub fn fleet_scenario(cfg: &FleetScenarioConfig) -> FleetScenarioReport {
    let shed_on = run_arm(cfg, true);
    let shed_off = run_arm(cfg, false);
    let p99 = |arm: &FleetArm| arm.run.counters.latencies.quantile(0.99);
    FleetScenarioReport {
        throughput_gain: throughput_ratio(&shed_on.run, &shed_off.run),
        p99_gain: ratio_or_inf(p99(&shed_off), p99(&shed_on)),
        shed_on,
        shed_off,
    }
}

impl FleetScenarioReport {
    /// Every failed acceptance check: the driver invariants on both
    /// arms, the crash re-homing, and the shedding wins.
    pub fn failures(&self, cfg: &FleetScenarioConfig) -> Vec<String> {
        let mut out = Vec::new();
        for arm in [&self.shed_on, &self.shed_off] {
            out.extend(arm_failures(&arm.run));
            let rehomed = ArmSummary::new(&arm.run).rehomed;
            if cfg.crash_hours.is_some() && rehomed < cfg.sensors_per_proxy as u64 {
                out.push(format!("{}: proxy crash re-homed only {rehomed} sensors", arm.run.label));
            }
        }
        let (on, off) = (&self.shed_on, &self.shed_off);
        if on.run.metric("fleet_router.shed") == 0.0 {
            out.push("shedding never fired under skew".into());
        }
        if off.run.metric("fleet_router.shed") != 0.0 {
            out.push("the shed-off arm shed queries".into());
        }
        if on.forwarded_ok == 0 {
            out.push("no shed query completed with a real answer".into());
        }
        if self.throughput_gain <= 1.0 {
            out.push(format!(
                "shedding did not raise answered throughput ({:.3}×)",
                self.throughput_gain
            ));
        }
        if self.p99_gain <= 1.0 {
            out.push(format!("shedding did not cut p99 ({:.3}×)", self.p99_gain));
        }
        if on.fairness <= off.fairness {
            out.push(format!(
                "shedding did not improve per-proxy fairness: {:.3} vs {:.3}",
                on.fairness, off.fairness
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shedding_beats_no_shedding_under_skew() {
        let cfg = FleetScenarioConfig::quick();
        let r = fleet_scenario(&cfg);
        let failures = r.failures(&cfg);
        assert!(failures.is_empty(), "{failures:#?}");
        for arm in [&r.shed_on, &r.shed_off] {
            let c = &arm.run.counters;
            assert!(c.submitted > 200, "{}: workload too small", arm.run.label);
            assert!(c.ages.count() > 0, "{}: no answer carried an age", arm.run.label);
            assert!(arm.run.metric("pipeline.rpcs_issued") > 0.0, "{}", arm.run.label);
            assert!(
                arm.run
                    .scope()
                    .series()
                    .iter()
                    .any(|(path, ring)| path == "fleet.pressure_max" && !ring.bins().is_empty()),
                "{}: scope timeline missing the pressure trajectory",
                arm.run.label
            );
        }
    }
}
