//! Stream-everything (TinyDB-feed / Aurora-archival style).
//!
//! Every sample is pushed to the tethered tier, which answers all queries
//! locally: minimal latency, maximal energy. "This model is less energy
//! efficient since it does not exploit the fact that only a subset of
//! sensor data may be actually queried" (paper §1).

use presto_proxy::ProxyConfig;
use presto_sensor::PushPolicy;
use presto_sim::SimDuration;

use crate::driver::{no_prediction, run_proxy_arm, ArchReport, DriverConfig};

/// Streaming motes keep a snappy LPL so the sink can be reached, though
/// the uplink dominates anyway.
const STREAM_LPL: SimDuration = SimDuration::from_secs(1);

/// Runs the streaming architecture. `per_sample` sends each sample in
/// its own packet (TinyDB-style); otherwise samples batch per minute
/// (a mild concession the authors' streaming comparators also made).
pub fn run(cfg: &DriverConfig, per_sample: bool) -> ArchReport {
    let interval = if per_sample {
        SimDuration::ZERO
    } else {
        SimDuration::from_mins(1)
    };
    let proxy = ProxyConfig {
        sensor_lpl: STREAM_LPL,
        // Streaming architectures do not predict.
        engine: no_prediction(),
        ..ProxyConfig::default()
    };
    let label = if per_sample {
        "stream-all (TinyDB)"
    } else {
        "stream-batched (Aurora)"
    };
    run_proxy_arm(
        cfg,
        PushPolicy::Batched {
            interval,
            compression: None,
        },
        STREAM_LPL,
        proxy,
        label,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            sensors: 3,
            days: 1,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn streaming_answers_fast_and_accurately() {
        let r = run(&quick_cfg(), true);
        // Proxy-local answers: milliseconds, not preamble-bound seconds.
        assert!(r.now_latency_mean_ms < 100.0, "{}", r.now_latency_mean_ms);
        assert!(r.now_error_mean < 1.0, "{}", r.now_error_mean);
        assert!(r.past_answered_fraction > 0.8);
    }

    #[test]
    fn per_sample_streaming_costs_more_than_minutely_batching() {
        let a = run(&quick_cfg(), true);
        let b = run(&quick_cfg(), false);
        assert!(
            a.radio_energy_per_day_j > b.radio_energy_per_day_j * 1.5,
            "per-sample {} vs batched {}",
            a.radio_energy_per_day_j,
            b.radio_energy_per_day_j
        );
    }

    #[test]
    fn streaming_moves_far_more_bytes_than_direct() {
        let s = run(&quick_cfg(), true);
        let d = crate::direct::run(&quick_cfg());
        assert!(
            s.bytes_per_sensor_per_day > 3.0 * d.bytes_per_sensor_per_day.max(1.0),
            "stream {} vs direct {}",
            s.bytes_per_sensor_per_day,
            d.bytes_per_sensor_per_day
        );
    }
}
