//! Direct sensor querying (Directed Diffusion / Cougar style).
//!
//! Queries are routed to the sensors themselves: no proxy cache, no
//! prediction, every query costs a radio round trip through a
//! duty-cycled mote. "Such querying renders the system unusable for
//! interactive use due to the high latency, low availability, and low
//! reliability inherent in duty-cycled, energy-limited wireless sensor
//! networks" (paper §1) — this arm measures exactly that trade.

use presto_proxy::{PrestoProxy, ProxyConfig};
use presto_sensor::{DownlinkMsg, PushPolicy, UplinkPayload};
use presto_sim::{SimDuration, SimTime};
use presto_workloads::{QueryTarget, TimeScope};

use crate::driver::{build, ArchReport, DriverConfig, ReportBuilder};

/// LPL check interval for direct-query motes: long, because the radio is
/// their dominant drain and no push traffic exists.
const DIRECT_LPL: SimDuration = SimDuration::from_secs(2);

/// Runs the direct-querying architecture.
pub fn run(cfg: &DriverConfig) -> ArchReport {
    let mut dep = build(cfg, PushPolicy::Silent, DIRECT_LPL);
    // A thin proxy exists only as the querying sink — its cache is never
    // consulted; its fabric-routed `rpc` is reused for the energy-
    // metered, lossy downlink path.
    let mut sink = PrestoProxy::new(ProxyConfig {
        sensor_lpl: DIRECT_LPL,
        ..ProxyConfig::default()
    });
    for i in 0..cfg.sensors {
        sink.register_sensor(i as u16);
    }

    let mut rb = ReportBuilder::default();
    let epochs = SimDuration::from_days(cfg.days).div_duration(dep.epoch);
    let mut qi = 0usize;
    let mut truth_now = vec![0.0f64; cfg.sensors];
    let mut next_query_id = 1u64;

    for e in 0..epochs {
        let t = SimTime::ZERO + dep.epoch * e;
        let readings = dep.lab.step();
        for (s, r) in readings.iter().enumerate() {
            truth_now[s] = r.value;
            dep.nodes[s].on_sample(r.timestamp, r.value);
        }
        // Serve queries that arrived during this epoch.
        while qi < dep.queries.len() && dep.queries[qi].arrival <= t + dep.epoch {
            let q = dep.queries[qi];
            qi += 1;
            let sensor = match q.target {
                QueryTarget::Sensor(s) => s.min(cfg.sensors - 1),
                QueryTarget::ProxyGroup(_) => 0,
            };
            match q.scope {
                TimeScope::Now => {
                    let msg = DownlinkMsg::PullRequest {
                        query_id: next_query_id,
                        from: q.arrival - dep.epoch * 3,
                        to: q.arrival,
                        tolerance: q.tolerance,
                    };
                    next_query_id += 1;
                    let out = sink.rpc(
                        q.arrival,
                        &msg,
                        &mut dep.nodes[sensor],
                        &mut dep.downlinks[sensor],
                    );
                    rb.now_latency_ms.record(out.latency.as_millis_f64());
                    if let Some(r) = out.reply {
                        if let UplinkPayload::PullReply { samples, .. } = &r.payload {
                            if let Some(last) = samples.last() {
                                rb.now_error.record((last.value - truth_now[sensor]).abs());
                            }
                        }
                    }
                }
                TimeScope::Past { from, to } => {
                    rb.past_total += 1;
                    let msg = DownlinkMsg::PullRequest {
                        query_id: next_query_id,
                        from,
                        to,
                        tolerance: q.tolerance,
                    };
                    next_query_id += 1;
                    let out = sink.rpc(
                        q.arrival,
                        &msg,
                        &mut dep.nodes[sensor],
                        &mut dep.downlinks[sensor],
                    );
                    if let Some(r) = out.reply {
                        if let UplinkPayload::PullReply { samples, .. } = &r.payload {
                            if !samples.is_empty() {
                                rb.past_answered += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // Charge trailing idle listening.
    let end = SimTime::ZERO + dep.epoch * epochs;
    for n in &mut dep.nodes {
        n.advance_to(end);
    }
    rb.finish(
        "direct-query (Diffusion)",
        &dep.nodes,
        cfg.days,
        true,
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
        cfg.queries.rate_per_hour = 0.0;
        let r = run(&cfg);
        assert_eq!(r.bytes_per_sensor_per_day, 0.0);
        assert!(!r.uses_prediction);
    }
}
