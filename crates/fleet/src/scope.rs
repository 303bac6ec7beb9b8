//! Standard presto-scope configuration for a fleet deployment.
//!
//! [`FleetDeployment::telemetry_snapshot`](crate::FleetDeployment::telemetry_snapshot)
//! exports a stable tree of fleet-level paths (router counters, leak
//! gauges, pressure watermarks, answer-age histograms). This module
//! pins the canonical sampler/watchdog wiring over those paths so every
//! scenario watches the same health surface with the same names —
//! incidents from a partition run and a clean run are comparable
//! because both used [`fleet_scope_config`].

use presto_telemetry::{ScopeConfig, SeriesSpec, WatchdogRule};
use presto_telemetry::scope::{
    WD_ANSWER_AGE_P99, WD_FENCED_WHILE_SERVING, WD_LEAK_PROBE, WD_PRESSURE_WATERMARK,
    WD_SHED_EPISODE_WATERMARK, WD_STALE_CONFIDENT,
};

/// Feed path the scenario driver must push each epoch with the number
/// of confident-but-stale answers it observed (0 on a healthy epoch).
/// Drivers compute this from completions (they see ground truth); the
/// watchdog turns any growth into a [`WD_STALE_CONFIDENT`] incident.
pub const FEED_STALE_CONFIDENT: &str = "probe.stale_confident";

/// Upper bound on the worst per-proxy pressure score (pending queries
/// dominate the score, so this is a queue-growth watermark, not a
/// fraction).
const PRESSURE_MAX: f64 = 400.0;

/// Max shed-episode openings tolerated in a single epoch.
const SHED_EPISODES_PER_EPOCH: f64 = 8.0;

/// Epochs a nonzero leak gauge may sit frozen before it is an incident
/// (leaks drain or grow; a flat nonzero line is a leak).
const LEAK_STUCK_EPOCHS: u32 = 60;

/// Tunable bounds for the standard fleet watchdogs.
#[derive(Debug, Clone)]
pub struct FleetScopeBounds {
    /// Upper bound on `fleet_router.answer_age_us.p99` (microseconds).
    pub answer_age_p99_us: f64,
}

impl Default for FleetScopeBounds {
    fn default() -> Self {
        FleetScopeBounds {
            // 45 minutes: generous against the re-predict cadence, so
            // only genuinely stale-serving fleets trip it.
            answer_age_p99_us: 45.0 * 60.0 * 1_000_000.0,
        }
    }
}

/// The canonical scope wiring for [`crate::FleetDeployment`] runs.
///
/// Series cover the load/health trajectory (levels) and the work rate
/// (deltas over cumulative counters); rules encode the SLOs every PR so
/// far has promised: no stale-confident answers, bounded answer age,
/// no leaks, bounded pressure and shed flapping, and never pumping a
/// fenced proxy.
pub fn fleet_scope_config(bounds: &FleetScopeBounds) -> ScopeConfig {
    let series = vec![
        // Levels: the shape of the run.
        SeriesSpec::level("fleet.pressure_max"),
        SeriesSpec::level("fleet.fenced_count"),
        SeriesSpec::level("fleet.leak_router_open"),
        SeriesSpec::level("fleet.leak_pipeline_pending"),
        SeriesSpec::level("fleet.leak_rpcs_in_flight"),
        SeriesSpec::level("fleet.leak_mesh_in_flight"),
        SeriesSpec::level("fleet_router.latency_us.p99"),
        SeriesSpec::level("fleet_router.answer_age_us.p99"),
        SeriesSpec::level("trace.recorder_len"),
        // Deltas: per-epoch work and failure rates.
        SeriesSpec::delta("fleet_router.submitted"),
        SeriesSpec::delta("fleet_router.completed_local"),
        SeriesSpec::delta("fleet_router.completed_remote"),
        SeriesSpec::delta("fleet_router.shed"),
        SeriesSpec::delta("fleet_router.failed_deadline"),
        SeriesSpec::delta("fleet_router.failed_fenced"),
        SeriesSpec::delta("fleet_router.shed_episodes"),
        // Allocation pressure per phase (profiler.* is excluded from
        // the determinism fingerprint; the timeline is band-compared).
        SeriesSpec::delta("profiler.step_epoch_core.allocs"),
        SeriesSpec::delta("profiler.fleet_pump.allocs"),
        SeriesSpec::delta("profiler.fleet_collect.allocs"),
    ];
    let rules = vec![
        // The paper's core promise: confidence bounds are honest.
        WatchdogRule::still(WD_STALE_CONFIDENT, FEED_STALE_CONFIDENT),
        WatchdogRule::below(
            WD_ANSWER_AGE_P99,
            "fleet_router.answer_age_us.p99",
            bounds.answer_age_p99_us,
        ),
        // PR 6 invariant, as a live watchdog: a fenced proxy must never
        // pump (identically zero), and fenced admission failures only
        // accrete while a partition is actually fencing someone — the
        // Still rule is what attributes the mesh cut.
        WatchdogRule::below(WD_FENCED_WHILE_SERVING, "fleet.fenced_pumping", 0.0),
        WatchdogRule::still(WD_FENCED_WHILE_SERVING, "fleet_router.failed_fenced"),
        // Leak probes: a nonzero gauge frozen for an hour is a leak.
        WatchdogRule::stuck(
            WD_LEAK_PROBE,
            "fleet.leak_router_open",
            0.0,
            LEAK_STUCK_EPOCHS,
        ),
        WatchdogRule::stuck(
            WD_LEAK_PROBE,
            "fleet.leak_rpcs_in_flight",
            0.0,
            LEAK_STUCK_EPOCHS,
        ),
        WatchdogRule::stuck(
            WD_LEAK_PROBE,
            "fleet.leak_mesh_in_flight",
            0.0,
            LEAK_STUCK_EPOCHS,
        ),
        WatchdogRule::below(WD_PRESSURE_WATERMARK, "fleet.pressure_max", PRESSURE_MAX),
        WatchdogRule::rate_below(
            WD_SHED_EPISODE_WATERMARK,
            "fleet_router.shed_episodes",
            SHED_EPISODES_PER_EPOCH,
        ),
    ];
    ScopeConfig { series, rules }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_enabled_and_names_every_slo() {
        let cfg = fleet_scope_config(&FleetScopeBounds::default());
        assert!(presto_telemetry::PrestoScope::new(cfg.clone()).enabled());
        assert!(cfg.series.len() >= 15);
        let names: Vec<&str> = cfg.rules.iter().map(|r| r.name).collect();
        for wd in [
            WD_STALE_CONFIDENT,
            WD_ANSWER_AGE_P99,
            WD_FENCED_WHILE_SERVING,
            WD_LEAK_PROBE,
            WD_PRESSURE_WATERMARK,
            WD_SHED_EPISODE_WATERMARK,
        ] {
            assert!(names.contains(&wd), "missing standard rule {wd}");
        }
    }
}
