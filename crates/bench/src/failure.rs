//! The failure-scenario experiment: bursty loss + sensor crash/reboot.
//!
//! Runs the assembled three-tier system over a lossy fabric with an
//! injected sensor crash, probing queries throughout, and reports the
//! three numbers that summarize reliability:
//!
//! * **detection latency** — crash onset → proxy first grades the
//!   sensor non-Live (bounded by the heartbeat lease);
//! * **recovery latency** — gap detected → archive replay completed;
//! * **stale-answer rate** — fraction of probes answered *confidently
//!   but wrongly* (error above the query tolerance while the reported
//!   sigma claimed tolerance), the failure mode the liveness widening
//!   exists to eliminate.
//!
//! After the run, every archived sample in the affected window is
//! checked against the proxy's post-recovery PAST answer: a missing
//! sample is a silent gap, a large deviation a corrupted repair.

use presto_core::{PrestoSystem, StoreQuery, SystemConfig};
use presto_net::{GilbertElliott, LossProcess};
use presto_reliability::{Health, LivenessConfig, ReliabilityConfig};
use presto_sim::{EnergyLedger, FaultPlan, SimDuration, SimTime};

use crate::driver::SCENARIO_SEED;

/// Sensors under the single proxy.
const SENSORS: usize = 4;

/// NOW-probe interval.
const PROBE_EVERY: SimDuration = SimDuration::from_mins(5);

/// NOW-probe tolerance.
const PROBE_TOLERANCE: f64 = 1.0;

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct FailureScenarioConfig {
    /// Run length, hours.
    pub hours: u64,
    /// Long-run fabric loss rate (bursty Gilbert–Elliott); 0 disables.
    // presto-lint: allow(knob, lossless_scenario_is_quiet: a lossless fabric)
    pub loss: f64,
    /// Correlated loss: instead of independent per-channel chains, every
    /// channel near the proxy — uplinks, acks, downlink requests and
    /// replies — samples one shared Gilbert–Elliott fading state, and a
    /// deterministic burst window pins it bad mid-run.
    pub correlated: bool,
    /// Crash window of sensor 0, hours from start, `None` for no crash.
    pub crash_hours: Option<(u64, u64)>,
}

impl Default for FailureScenarioConfig {
    fn default() -> Self {
        FailureScenarioConfig {
            hours: 24,
            loss: 0.3,
            correlated: false,
            crash_hours: Some((8, 10)),
        }
    }
}

/// Scenario result.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Long-run loss the fabric channel was configured for.
    pub configured_loss: f64,
    /// Messages offered / delivered / permanently dropped by the fabric.
    pub offered: u64,
    /// Deliveries (duplicates included).
    pub delivered: u64,
    /// Messages permanently dropped.
    pub dropped: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Heartbeats transmitted.
    pub heartbeats: u64,
    /// Crash onset → first non-Live grade, seconds (NaN without crash).
    pub detection_latency_s: f64,
    /// Configured lease (the detection bound), seconds.
    pub lease_s: f64,
    /// Sequence gaps detected.
    pub gaps_detected: u64,
    /// Archive replays completed.
    pub recoveries: u64,
    /// Samples replayed from archives.
    pub samples_replayed: u64,
    /// Mean gap-detection → replay-complete latency, seconds.
    pub recovery_latency_s: f64,
    /// NOW probes issued.
    pub probes: u64,
    /// Probes answered confidently (sigma ≤ tolerance) but wrongly
    /// (error > tolerance).
    pub stale_confident: u64,
    /// `stale_confident / probes`.
    pub stale_answer_rate: f64,
    /// Probes during the outage window that honestly advertised
    /// degraded confidence (sigma > tolerance).
    pub outage_honest: u64,
    /// Query-path pull RPCs issued across proxies.
    pub pulls: u64,
    /// Query-path pull RPCs that failed after channel retries.
    pub pull_failures: u64,
    /// Downlink request retransmissions (loss on the pull path).
    pub downlink_retransmits: u64,
    /// Downlink RPCs that failed outright.
    pub downlink_rpc_failures: u64,
    /// Archived samples in the affected window.
    pub window_archived: u64,
    /// Archived samples missing from the post-recovery PAST answer.
    pub window_missing: u64,
    /// Max |proxy − archive| over matched samples in the window.
    pub window_max_err: f64,
}

crate::json_object!(FailureReport {
    configured_loss,
    offered,
    delivered,
    dropped,
    retransmits,
    heartbeats,
    detection_latency_s,
    lease_s,
    gaps_detected,
    recoveries,
    samples_replayed,
    recovery_latency_s,
    probes,
    stale_confident,
    stale_answer_rate,
    outage_honest,
    pulls,
    pull_failures,
    downlink_retransmits,
    downlink_rpc_failures,
    window_archived,
    window_missing,
    window_max_err,
});

/// A bursty chain with the requested stationary loss (bad-state dwell
/// ~15 frames, the burstiness of a typical indoor low-power link).
fn bursty(loss: f64) -> GilbertElliott {
    let loss_good = (loss * 0.15).min(0.05);
    let loss_bad = 0.9;
    // pi_bad solves loss = (1-pi)*lg + pi*lb.
    let pi_bad = ((loss - loss_good) / (loss_bad - loss_good)).clamp(0.01, 0.9);
    let p_bg = 1.0 / 15.0;
    let p_gb = p_bg * pi_bad / (1.0 - pi_bad);
    GilbertElliott {
        p_gb,
        p_bg,
        loss_good,
        loss_bad,
    }
}

/// Runs the scenario.
pub fn failure_scenario(cfg: &FailureScenarioConfig) -> FailureReport {
    let reliability = ReliabilityConfig {
        heartbeat_every: SimDuration::from_mins(2),
        liveness: LivenessConfig {
            lease: SimDuration::from_mins(5),
            dead_after: SimDuration::from_mins(15),
        },
        ..ReliabilityConfig::default()
    };
    let mut sys_cfg = SystemConfig {
        proxies: 1,
        sensors_per_proxy: SENSORS,
        seed: SCENARIO_SEED,
        reliability,
        lab: presto_workloads::LabParams {
            // Rare events excluded: the stale-answer metric measures
            // reliability under loss, not spike decay inside the
            // cache-freshness window.
            events_per_day: 0.0,
            ..presto_workloads::LabParams::default()
        },
        ..SystemConfig::default()
    };
    if cfg.loss > 0.0 {
        if cfg.correlated {
            // One shared fading state for the whole neighbourhood: the
            // same chain, but bursts now hit every channel (uplink and
            // downlink) at once.
            sys_cfg.reliability.shared_fading = Some(bursty(cfg.loss));
        } else {
            sys_cfg.reliability.fabric.up_loss = LossProcess::Gilbert(bursty(cfg.loss));
            sys_cfg.reliability.fabric.down_loss = LossProcess::Bernoulli(cfg.loss / 3.0);
        }
    }
    let crash = cfg
        .crash_hours
        .map(|(a, b)| (SimTime::from_hours(a), SimTime::from_hours(b)));
    if let Some((down, up)) = crash {
        sys_cfg.faults = FaultPlan::none().with_crash(0, down, up);
    }
    if cfg.correlated {
        // A deterministic 20-minute total-fade burst in the first half,
        // clear of the crash window, so the report always includes a
        // stretch where every pull rides a pinned-bad shared path.
        let burst_at = SimTime::from_hours((cfg.hours / 4).max(1));
        sys_cfg.faults = sys_cfg
            .faults
            .with_shared_burst(burst_at, burst_at + SimDuration::from_mins(20));
    }
    let lease = sys_cfg.reliability.liveness.lease;
    let mut sys = PrestoSystem::new(sys_cfg);

    let epoch = sys.config().lab.epoch;
    let epochs = SimDuration::from_hours(cfg.hours).div_duration(epoch);
    let probe_epochs = PROBE_EVERY.div_duration(epoch).max(1);

    let mut detection_at: Option<SimTime> = None;
    let mut probes = 0u64;
    let mut stale_confident = 0u64;
    let mut outage_honest = 0u64;

    for e in 0..epochs {
        sys.step_epoch();
        let t = sys.now();
        if let Some((down, _)) = crash {
            if detection_at.is_none() && t >= down && sys.health(0) != Health::Live {
                detection_at = Some(t);
            }
        }
        if e % probe_epochs == 0 && e > 0 {
            let truth = sys.truth[0];
            let in_outage = crash.is_some_and(|(down, up)| t >= down && t < up);
            let r = sys.query(StoreQuery::Now {
                sensor: 0,
                tolerance: PROBE_TOLERANCE,
            });
            probes += 1;
            let err = (r.value.unwrap_or(f64::NAN) - truth).abs();
            let confident = r.sigma <= PROBE_TOLERANCE;
            // "Stale" = confidently wrong: the sigma claimed tolerance
            // while the error exceeded twice it (the 2× slack absorbs
            // the workload's legitimate epoch-to-epoch volatility
            // inside the cache-freshness window).
            if confident && (err.is_nan() || err > PROBE_TOLERANCE * 2.0) {
                stale_confident += 1;
            }
            if in_outage && !confident {
                outage_honest += 1;
            }
        }
    }

    // Post-recovery ground-truth audit over the affected window.
    let (win_from, win_to) = match crash {
        Some((down, up)) => (down - SimDuration::from_hours(1), up + SimDuration::from_hours(1)),
        None => (
            SimTime::from_hours(cfg.hours / 2),
            SimTime::from_hours(cfg.hours / 2 + 2),
        ),
    };
    let mut ledger = EnergyLedger::new();
    let archived = sys.nodes[0]
        .archive_mut()
        .query_range_fullscan(win_from, win_to, &mut ledger)
        .expect("archive readable");
    let answer = sys.query(StoreQuery::Past {
        sensor: 0,
        from: win_from,
        to: win_to,
        tolerance: 0.2,
    });
    let mut missing = 0u64;
    let mut max_err = 0.0f64;
    // Answer timestamps pass through the clock corrector, which can
    // shift them by sub-second residuals; match to the nearest series
    // sample within a second rather than requiring exact equality.
    let near = SimDuration::from_secs(1);
    for a in &archived {
        let idx = answer
            .series
            .partition_point(|&(ts, _)| ts < a.timestamp);
        let hit = [idx.checked_sub(1), Some(idx)]
            .into_iter()
            .flatten()
            .filter_map(|i| answer.series.get(i))
            .filter(|&&(ts, _)| {
                let d = if ts >= a.timestamp {
                    ts - a.timestamp
                } else {
                    a.timestamp - ts
                };
                d <= near
            })
            .min_by_key(|&&(ts, _)| {
                if ts >= a.timestamp {
                    (ts - a.timestamp).as_micros()
                } else {
                    (a.timestamp - ts).as_micros()
                }
            });
        match hit {
            Some(&(_, v)) => max_err = max_err.max((v - a.value).abs()),
            None => missing += 1,
        }
    }

    // Every counter comes from the one telemetry registry; a missing path
    // is a wiring bug, not a zero.
    let snap = sys.telemetry_snapshot();
    let count = |path: &str| {
        snap.get(path)
            .unwrap_or_else(|| panic!("{path} missing from the telemetry snapshot")) as u64
    };
    FailureReport {
        configured_loss: cfg.loss,
        offered: count("fabric.offered"),
        delivered: count("fabric.delivered"),
        dropped: count("fabric.dropped_retries") + count("fabric.dropped_budget"),
        retransmits: count("fabric.retransmits"),
        heartbeats: count("sensor.heartbeats_sent"),
        detection_latency_s: match (crash, detection_at) {
            (Some((down, _)), Some(at)) => (at - down).as_secs_f64(),
            (Some(_), None) => f64::INFINITY,
            (None, _) => f64::NAN,
        },
        lease_s: lease.as_secs_f64(),
        gaps_detected: count("recovery.gaps_detected"),
        recoveries: count("recovery.recoveries"),
        samples_replayed: count("recovery.samples_replayed"),
        recovery_latency_s: sys.gaps.mean_recovery_latency_s(),
        probes,
        stale_confident,
        stale_answer_rate: if probes == 0 {
            0.0
        } else {
            stale_confident as f64 / probes as f64
        },
        outage_honest,
        pulls: count("proxy.pulls"),
        pull_failures: count("proxy.pull_failures"),
        downlink_retransmits: count("downlink.retransmits"),
        downlink_rpc_failures: count("downlink.rpc_failures"),
        window_archived: archived.len() as u64,
        window_missing: missing,
        window_max_err: max_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_chain_hits_requested_stationary_loss() {
        for target in [0.1, 0.3, 0.5] {
            let g = bursty(target);
            assert!(
                (g.stationary_loss() - target).abs() < 0.02,
                "target {target}: got {}",
                g.stationary_loss()
            );
        }
    }

    #[test]
    fn quick_scenario_detects_recovers_and_matches_ground_truth() {
        let report = failure_scenario(&FailureScenarioConfig {
            hours: 14,
            crash_hours: Some((6, 8)),
            ..FailureScenarioConfig::default()
        });
        // Failure detected within the lease.
        assert!(
            report.detection_latency_s <= report.lease_s + 31.0,
            "detection {}s exceeds lease {}s",
            report.detection_latency_s,
            report.lease_s
        );
        // The missed span was replayed from the archive.
        assert!(report.recoveries >= 1, "no recovery: {report:?}");
        assert!(report.samples_replayed > 0);
        // Post-recovery answers match the archive: no silent gaps, and
        // matched samples within the recovery codec tolerance class.
        assert_eq!(report.window_missing, 0, "silent gaps: {report:?}");
        assert!(
            report.window_max_err <= 0.25,
            "post-recovery error {}",
            report.window_max_err
        );
        // Confident-but-wrong answers are rare even at 30% bursty loss.
        assert!(
            report.stale_answer_rate < 0.05,
            "stale rate {}",
            report.stale_answer_rate
        );
    }

    #[test]
    fn correlated_scenario_stresses_the_pull_path_without_lying() {
        let report = failure_scenario(&FailureScenarioConfig {
            hours: 14,
            correlated: true,
            crash_hours: Some((6, 8)),
            ..FailureScenarioConfig::default()
        });
        // The shared fade reaches the downlink: pulls retried, and the
        // pinned-bad burst forced some to fail outright.
        assert!(
            report.downlink_retransmits > 0,
            "correlated loss never touched the pull path: {report:?}"
        );
        // Detection and recovery still hold under correlated bursts.
        assert!(
            report.detection_latency_s <= report.lease_s + 31.0,
            "detection {}s exceeds lease {}s",
            report.detection_latency_s,
            report.lease_s
        );
        assert!(report.recoveries >= 1, "no recovery: {report:?}");
        assert_eq!(report.window_missing, 0, "silent gaps: {report:?}");
        // Failures surface honestly rather than as stale confidence.
        assert!(
            report.stale_answer_rate < 0.05,
            "stale rate {}",
            report.stale_answer_rate
        );
    }

    #[test]
    fn lossless_scenario_is_quiet() {
        let report = failure_scenario(&FailureScenarioConfig {
            hours: 6,
            loss: 0.0,
            crash_hours: None,
            ..FailureScenarioConfig::default()
        });
        assert_eq!(report.dropped, 0);
        assert_eq!(report.stale_confident, 0);
        assert_eq!(report.window_missing, 0);
        assert!(report.detection_latency_s.is_nan());
    }
}
