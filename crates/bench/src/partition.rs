//! The partition-scenario experiment: split-brain fault injection over
//! the fleet, with and without the partition, on one seed.
//!
//! Mid-phase, the mesh links around one proxy are cut (its downlinks
//! stay up — the sensors keep talking to it) and later healed. The
//! quorum membership must fence the minority proxy (it stops accepting
//! queries and stops driving radio), the majority must declare it dead
//! once the threshold passes and re-home its sensors, and the heal
//! must re-admit it through a quorum-confirmed rebirth plus an
//! archive-backed re-sync — all without ever serving a sensor's home
//! uplink from two proxies in one epoch, without a single
//! stale-confident answer, and with an explicit `answer_age` stamped
//! on every real answer. The no-partition arm on the same seed bounds
//! the throughput cost: a split brain may slow the fleet, never
//! corrupt it.

use crate::driver::{
    arm_failures, run_arm as drive, throughput_ratio, ArmPlan, ArmRun, Arrival, Deployment,
    Terminal,
};
use crate::report::ArmSummary;
use presto_core::SystemConfig;
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto_net::LossProcess;
use presto_proxy::QueryClass;
use presto_sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};
use presto_telemetry::{CompletionCause, SpanEvent};

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct PartitionScenarioConfig {
    /// Warmup (archive + model build) before the query phase, hours.
    pub warmup_hours: u64,
    /// Query-phase length, hours.
    pub query_hours: u64,
    /// Master seed.
    pub seed: u64,
    /// Proxies in the fleet.
    pub proxies: usize,
    /// Sensors per proxy.
    pub sensors_per_proxy: usize,
    /// Downlink loss (Bernoulli, request and reply paths).
    pub loss: f64,
    /// Concurrent users.
    pub users: usize,
    /// Mean queries per user per hour.
    pub queries_per_user_per_hour: f64,
    /// Zipf skew over proxies (proxy 0 hottest).
    pub zipf_s: f64,
    /// Query tolerance.
    pub tolerance: f64,
    /// Partition window, minutes into the query phase: the last proxy
    /// is cut from the mesh over `[start, start + len)`.
    pub cut_minutes: (u64, u64),
}

impl Default for PartitionScenarioConfig {
    fn default() -> Self {
        PartitionScenarioConfig {
            warmup_hours: 16,
            query_hours: 2,
            seed: 2005,
            proxies: 3,
            sensors_per_proxy: 2,
            loss: 0.3,
            users: 28,
            queries_per_user_per_hour: 100.0,
            zipf_s: 1.6,
            tolerance: 0.05,
            cut_minutes: (30, 40),
        }
    }
}

impl PartitionScenarioConfig {
    /// The small fixed-seed configuration the CI smoke runs.
    pub fn quick() -> Self {
        PartitionScenarioConfig::default()
    }
}

/// One arm's (partition injected or not) driver run plus the
/// partition-only audits its per-epoch hook and post-mortem collect.
pub struct PartitionArm {
    /// The driver run.
    pub run: ArmRun,
    /// Epochs in which the minority proxy was fenced.
    pub fenced_epochs: u64,
    /// Epochs in which any sensor's home uplink was driven by two
    /// proxies, by a non-owner, or by a fenced/declared-dead proxy
    /// (must be zero — the single-owner invariant).
    pub double_served_epochs: u64,
    /// Failed / fenced terminals whose full cause chain the flight
    /// recorder reproduces (begins `Submitted`, exactly one terminal,
    /// non-Ok cause).
    pub recorder_chains_ok: u64,
    /// Failed terminals the recorder lost or retained malformed (must
    /// be 0 — the post-mortem guarantee).
    pub recorder_chains_bad: u64,
    /// Incidents whose blame window names the injected mesh partition
    /// (the partitioned arm must log at least one).
    pub incidents_mesh_attributed: u64,
}

/// Scenario result: both arms plus the headline comparison.
pub struct PartitionScenarioReport {
    /// Partition injected.
    pub with_partition: PartitionArm,
    /// Same seed, no partition.
    pub without_partition: PartitionArm,
    /// `with.throughput / without.throughput` — the availability cost
    /// of the split brain (bounded below by the CI smoke).
    pub throughput_ratio: f64,
}

fn fleet(cfg: &PartitionScenarioConfig, partition: bool) -> FleetDeployment {
    let minority = cfg.proxies - 1;
    let mut sys_cfg = SystemConfig {
        proxies: cfg.proxies,
        sensors_per_proxy: cfg.sensors_per_proxy,
        seed: cfg.seed,
        lab: presto_workloads::LabParams {
            events_per_day: 0.0,
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..presto_workloads::LabParams::default()
        },
        ..SystemConfig::default()
    };
    if cfg.loss > 0.0 {
        sys_cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(cfg.loss);
        sys_cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(cfg.loss);
    }
    sys_cfg.proxy.pipeline.epoch_attempt_budget = 8;
    sys_cfg.proxy.cache_capacity = 700;
    // The standard fleet scope: the fenced-admission watchdog is what
    // turns the injected cut into an attributed incident. This workload
    // serves PAST windows across the whole warmup archive, so answers
    // legitimately carry hours of age — the p99 bound only has to catch
    // serving data older than the archive itself.
    sys_cfg.scope = fleet_scope_config(&FleetScopeBounds {
        answer_age_p99_us: (cfg.warmup_hours + cfg.query_hours + 8) as f64 * 3600.0 * 1e6,
        ..FleetScopeBounds::default()
    });
    // Full trace spans: per-RPC pipeline events spliced into every
    // fleet trace, and the flight recorder retaining each failed /
    // fenced query's cause chain for the post-mortem checks below.
    sys_cfg.proxy.pipeline.trace = true;
    if partition {
        let (start_m, len_m) = cfg.cut_minutes;
        let from = SimTime::from_hours(cfg.warmup_hours) + SimDuration::from_mins(start_m);
        let to = from + SimDuration::from_mins(len_m);
        sys_cfg.faults = FaultPlan::none().with_mesh_partition(vec![minority], from, to);
    }
    let mut fc = FleetConfig {
        system: sys_cfg,
        ..FleetConfig::default()
    };
    fc.router.latency_classes = vec![
        QueryClass {
            rate_per_hour: cfg.users as f64 * cfg.queries_per_user_per_hour,
            latency_bound: SimDuration::from_mins(10),
            tolerance: cfg.tolerance,
        },
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(4),
            tolerance: 1.5,
        },
    ];
    FleetDeployment::new(fc)
}

fn load(cfg: &PartitionScenarioConfig) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: cfg.users,
                queries_per_user_per_hour: cfg.queries_per_user_per_hour,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(cfg.warmup_hours.saturating_sub(8).max(2)),
                hot_fraction: 0.1,
                tolerances: vec![cfg.tolerance],
                seed: cfg.seed ^ 0xF1_EE7,
                ..QueryLoadConfig::default()
            },
            groups: cfg.proxies,
            zipf_s: cfg.zipf_s,
        },
        cfg.sensors_per_proxy,
    )
}

/// Single-owner audit over the last epoch's pump log: one home driver
/// per sensor, always the current owner, never a fenced or
/// declared-dead proxy.
fn double_served(fleet: &FleetDeployment) -> bool {
    let assignment = fleet.system.assignment();
    let mut home_seen = vec![false; assignment.len()];
    let mut violated = false;
    for &(p, gid, via_foreign) in fleet.pump_log() {
        if fleet.is_fenced(p) || fleet.membership().is_declared_dead(p) {
            violated = true;
        }
        if !via_foreign {
            let gid = gid as usize;
            if assignment[gid] != p || home_seen[gid] {
                violated = true;
            }
            home_seen[gid] = true;
        }
    }
    violated
}

fn run_arm(cfg: &PartitionScenarioConfig, partition: bool) -> PartitionArm {
    let minority = cfg.proxies - 1;
    let plan = ArmPlan {
        now_oracle: true,
        ..ArmPlan::new(cfg.warmup_hours, cfg.query_hours, SimDuration::from_mins(14))
    };
    let epoch = SystemConfig::default().lab.epoch;
    let mut gen = load(cfg);
    let mut source = |t| gen.step(t, epoch).into_iter().map(Arrival::Fleet).collect();
    let (mut fenced_epochs, mut double_served_epochs) = (0u64, 0u64);
    let mut audit = |d: &Deployment, _: &[Terminal]| {
        if let Some(fleet) = d.fleet() {
            fenced_epochs += u64::from(fleet.is_fenced(minority));
            double_served_epochs += u64::from(double_served(fleet));
        }
    };
    let label = if partition { "with-partition" } else { "no-partition" };
    let deployment = Deployment::Fleet(Box::new(fleet(cfg, partition)));
    let run = drive(label, deployment, &plan, &mut source, Some(&mut audit));

    // Post-mortem guarantee: the flight recorder reproduces the full
    // cause chain — from `Submitted` to the one terminal — for every
    // failed or fenced query.
    let (mut recorder_chains_ok, mut recorder_chains_bad) = (0u64, 0u64);
    if let Some(fleet) = run.deployment.fleet() {
        let rec = fleet.router.tracer().recorder();
        for &ticket in &run.counters.failed_keys {
            let well_formed = rec.find(ticket).is_some_and(|tr| {
                tr.events.first().map(|e| &e.event) == Some(&SpanEvent::Submitted)
                    && tr.terminal_count() == 1
                    && tr.is_monotone()
                    && tr.cause().is_some_and(|c| c != CompletionCause::Ok)
            });
            if well_formed {
                recorder_chains_ok += 1;
            } else {
                recorder_chains_bad += 1;
            }
        }
    }
    let incidents_mesh_attributed = run
        .scope()
        .incidents()
        .iter()
        .filter(|i| i.faults.iter().any(|f| format!("{f:?}").contains("MeshPartition")))
        .count() as u64;
    PartitionArm {
        run,
        fenced_epochs,
        double_served_epochs,
        recorder_chains_ok,
        recorder_chains_bad,
        incidents_mesh_attributed,
    }
}

/// Runs both arms on one seed.
pub fn partition_scenario(cfg: &PartitionScenarioConfig) -> PartitionScenarioReport {
    let with_partition = run_arm(cfg, true);
    let without_partition = run_arm(cfg, false);
    PartitionScenarioReport {
        throughput_ratio: throughput_ratio(&with_partition.run, &without_partition.run),
        with_partition,
        without_partition,
    }
}

impl PartitionScenarioReport {
    /// Every failed acceptance check across the cut + heal cycle.
    pub fn failures(&self, cfg: &PartitionScenarioConfig) -> Vec<String> {
        let mut out = Vec::new();
        for arm in [&self.with_partition, &self.without_partition] {
            let label = &arm.run.label;
            out.extend(arm_failures(&arm.run));
            if arm.recorder_chains_bad > 0 || arm.recorder_chains_ok != arm.run.counters.failed {
                out.push(format!(
                    "{label}: flight recorder reproduced {} of {} failed-query cause chains",
                    arm.recorder_chains_ok, arm.run.counters.failed
                ));
            }
            if arm.double_served_epochs > 0 {
                out.push(format!(
                    "{label}: {} epochs with a double-served or mis-owned uplink",
                    arm.double_served_epochs
                ));
            }
        }
        let w = &self.with_partition;
        let deaths = w.run.metric("membership.deaths_declared");
        let rejoins = w.run.metric("membership.rejoins");
        if w.fenced_epochs == 0 {
            out.push("minority proxy never fenced during the cut".into());
        }
        if w.run.metric("fleet_router.failed_fenced") == 0.0 {
            out.push("no admission was fenced".into());
        }
        if deaths != 1.0 {
            out.push(format!("expected exactly one quorum death declaration, saw {deaths}"));
        }
        if rejoins != 1.0 {
            out.push(format!("heal did not re-admit the minority (rejoins {rejoins})"));
        }
        let rehomed = ArmSummary::new(&w.run).rehomed;
        if rehomed < cfg.sensors_per_proxy as u64 {
            out.push(format!("declaration re-homed only {rehomed} sensors"));
        }
        // presto-scope acceptance: the injected cut must surface as at
        // least one incident blaming the mesh partition, and the clean
        // arm must stay silent.
        if w.incidents_mesh_attributed == 0 {
            out.push(format!(
                "no watchdog incident attributed to the mesh cut ({} incidents total)",
                w.run.scope().incidents().len()
            ));
        }
        let clean = &self.without_partition;
        if clean.fenced_epochs > 0 || clean.run.metric("membership.deaths_declared") > 0.0 {
            out.push("clean arm fenced or declared a proxy".into());
        }
        if !clean.run.scope().incidents().is_empty() {
            out.push(format!(
                "clean arm logged {} watchdog incidents",
                clean.run.scope().incidents().len()
            ));
        }
        if self.throughput_ratio < 0.5 {
            out.push(format!(
                "split brain cost more than half the throughput ({:.2}×)",
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
    fn quick_split_brain_stays_honest_and_heals() {
        let cfg = PartitionScenarioConfig::quick();
        let r = partition_scenario(&cfg);
        let failures = r.failures(&cfg);
        assert!(failures.is_empty(), "{failures:#?}");
        for arm in [&r.with_partition, &r.without_partition] {
            assert!(arm.run.counters.submitted > 200, "{}: workload too small", arm.run.label);
        }
    }
}
