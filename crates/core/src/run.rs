//! The PRESTO arm of the architecture comparison (Table 1).
//!
//! Runs [`presto_baselines::driver::run_proxy_arm`], the loop the
//! streaming baselines use: same workload, same query stream, same
//! report row — but with model-driven push underneath, so the proxy's
//! cache → extrapolation → pull path has models to extrapolate from.

use presto_baselines::driver::{run_proxy_arm, ArchReport, DriverConfig};
use presto_proxy::ProxyConfig;
use presto_sensor::PushPolicy;
use presto_sim::SimDuration;

use crate::system::PUSH_TOLERANCE;

/// Runs PRESTO on the shared comparison workload.
pub fn run_presto(cfg: &DriverConfig) -> ArchReport {
    let lpl = SimDuration::from_secs(1);
    let proxy = ProxyConfig {
        push_tolerance: PUSH_TOLERANCE,
        sensor_lpl: lpl,
        ..ProxyConfig::default()
    };
    run_proxy_arm(
        cfg,
        PushPolicy::ModelDriven {
            tolerance: PUSH_TOLERANCE,
        },
        lpl,
        proxy,
        "PRESTO",
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_baselines::{direct, stream, valuepush};

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            sensors: 3,
            days: 2,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn presto_beats_streaming_on_energy() {
        // Three days so the no-model warm-up phase (during which every
        // sample is pushed) amortizes out.
        let cfg = DriverConfig {
            days: 3,
            ..quick_cfg()
        };
        let p = run_presto(&cfg);
        let s = stream::run(&cfg, true);
        assert!(
            p.radio_energy_per_day_j < s.radio_energy_per_day_j / 2.5,
            "PRESTO {} vs streaming {}",
            p.radio_energy_per_day_j,
            s.radio_energy_per_day_j
        );
    }

    #[test]
    fn presto_beats_direct_on_latency() {
        let p = run_presto(&quick_cfg());
        let d = direct::run(&quick_cfg());
        assert!(
            p.now_latency_mean_ms < d.now_latency_mean_ms / 5.0,
            "PRESTO {} vs direct {}",
            p.now_latency_mean_ms,
            d.now_latency_mean_ms
        );
    }

    #[test]
    fn presto_supports_past_queries_unlike_value_push() {
        let p = run_presto(&quick_cfg());
        let v = valuepush::run(&quick_cfg(), 1.0);
        assert!(p.supports_past && !v.supports_past);
        assert!(
            p.past_answered_fraction > 0.8,
            "{}",
            p.past_answered_fraction
        );
        assert!(p.uses_prediction);
    }

    #[test]
    fn presto_answers_are_within_tolerance_regime() {
        let p = run_presto(&quick_cfg());
        // Mean NOW error bounded by roughly the push tolerance.
        assert!(p.now_error_mean < 1.3, "{}", p.now_error_mean);
    }
}
