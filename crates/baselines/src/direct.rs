//! Direct sensor querying (Directed Diffusion / Cougar style).
//!
//! Queries are routed to the sensors themselves: no proxy cache, no
//! prediction, every query costs a radio round trip through a
//! duty-cycled mote. "Such querying renders the system unusable for
//! interactive use due to the high latency, low availability, and low
//! reliability inherent in duty-cycled, energy-limited wireless sensor
//! networks" (paper §1) — this arm measures exactly that trade.

use presto_proxy::ProxyConfig;
use presto_sensor::{DownlinkMsg, PushPolicy, UplinkPayload};
use presto_sim::SimDuration;
use presto_workloads::{LabParams, TimeScope};

use crate::driver::{no_prediction, run_arm, ArchReport, ArmAnswer, DriverConfig};

/// LPL check interval for direct-query motes: long, because the radio is
/// their dominant drain and no push traffic exists.
const DIRECT_LPL: SimDuration = SimDuration::from_secs(2);

/// Runs the direct-querying architecture.
pub fn run(cfg: &DriverConfig) -> ArchReport {
    // A thin proxy exists only as the querying sink — its cache is never
    // consulted and it never predicts; its fabric-routed `rpc` is reused
    // for the energy-metered, lossy downlink path.
    let sink = ProxyConfig {
        sensor_lpl: DIRECT_LPL,
        engine: no_prediction(),
        ..ProxyConfig::default()
    };
    let epoch = LabParams::default().epoch;
    let mut next_query_id = 1u64;
    let (rb, nodes) = run_arm(
        cfg,
        PushPolicy::Silent,
        DIRECT_LPL,
        sink,
        |sink, q, _, node, chan| {
            // A NOW query pulls the last few epochs and reads the newest.
            let (from, to) = match q.scope {
                TimeScope::Now => (q.arrival - epoch * 3, q.arrival),
                TimeScope::Past { from, to } => (from, to),
            };
            let msg = DownlinkMsg::PullRequest {
                query_id: next_query_id,
                from,
                to,
                tolerance: q.tolerance,
            };
            next_query_id += 1;
            let out = sink.rpc(q.arrival, &msg, node, chan);
            let samples = match out.reply.map(|r| r.payload) {
                Some(UplinkPayload::PullReply { samples, .. }) => samples,
                _ => Vec::new(),
            };
            match q.scope {
                TimeScope::Now => ArmAnswer::Now {
                    latency: out.latency,
                    value: samples.last().map(|s| s.value),
                },
                TimeScope::Past { .. } => ArmAnswer::Past(!samples.is_empty()),
            }
        },
    );
    rb.finish("direct-query (Diffusion)", &nodes, cfg.days, true, false)
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
    fn latency_dominated_by_wakeup_preamble() {
        let r = run(&quick_cfg());
        // Every NOW query pays at least the 2 s LPL preamble.
        assert!(r.now_latency_mean_ms >= 2000.0, "{}", r.now_latency_mean_ms);
    }

    #[test]
    fn answers_are_accurate_when_delivered() {
        let r = run(&quick_cfg());
        // Direct answers come from the archive: accurate to the reply codec.
        assert!(r.now_error_mean < 0.5, "{}", r.now_error_mean);
    }

    #[test]
    fn past_queries_are_served_from_mote_archive() {
        let r = run(&quick_cfg());
        assert!(r.supports_past);
        assert!(
            r.past_answered_fraction > 0.5,
            "{}",
            r.past_answered_fraction
        );
    }

    #[test]
    fn no_push_traffic_outside_queries() {
        let mut cfg = quick_cfg();
        // No queries → no sensor radio TX at all.
        cfg.queries_per_hour = 0.0;
        let r = run(&cfg);
        assert_eq!(r.bytes_per_sensor_per_day, 0.0);
        assert!(!r.uses_prediction);
    }
}
