//! Value-driven push (the Δ-threshold baseline of Figure 2).
//!
//! The sensor pushes a sample whenever it differs from the last pushed
//! value by more than Δ. The sink's view is then always within Δ of the
//! truth (modulo losses), with no model, no batching, and no archival
//! query path — PAST queries can only be answered from whatever happened
//! to be pushed.

use presto_net::LinkModel;
use presto_proxy::{PrestoProxy, ProxyConfig};
use presto_sensor::{PushPolicy, SensorConfig, SensorNode};
use presto_sim::{SimDuration, SimTime};
use presto_workloads::lab::LabReading;
use presto_workloads::{QueryTarget, TimeScope};

use crate::driver::{build, ArchReport, DriverConfig, ReportBuilder};

/// Runs the value-driven architecture for Table 1.
pub fn run(cfg: &DriverConfig, delta: f64) -> ArchReport {
    let mut dep = build(
        cfg,
        PushPolicy::ValueDriven { delta },
        SimDuration::from_secs(1),
    );
    let mut proxy = PrestoProxy::new(ProxyConfig {
        engine: presto_proxy::EngineConfig {
            min_history: usize::MAX,
            ..presto_proxy::EngineConfig::default()
        },
        ..ProxyConfig::default()
    });
    for i in 0..cfg.sensors {
        proxy.register_sensor(i as u16);
    }

    let mut rb = ReportBuilder::default();
    let epochs = SimDuration::from_days(cfg.days).div_duration(dep.epoch);
    let mut qi = 0usize;
    let mut truth_now = vec![0.0f64; cfg.sensors];

    for e in 0..epochs {
        let t = SimTime::ZERO + dep.epoch * e;
        let readings = dep.lab.step();
        for (s, r) in readings.iter().enumerate() {
            truth_now[s] = r.value;
            for msg in dep.nodes[s].on_sample(r.timestamp, r.value) {
                proxy.on_uplink(&msg);
            }
        }
        while qi < dep.queries.len() && dep.queries[qi].arrival <= t + dep.epoch {
            let q = dep.queries[qi];
            qi += 1;
            let sensor = match q.target {
                QueryTarget::Sensor(s) => (s.min(cfg.sensors - 1)) as u16,
                QueryTarget::ProxyGroup(_) => 0,
            };
            let cache = proxy.cache(sensor).expect("registered");
            match q.scope {
                TimeScope::Now => {
                    // Answer: the last pushed value; within Δ by design.
                    if let Some(s) = cache.latest() {
                        rb.now_error
                            .record((s.value - truth_now[sensor as usize]).abs());
                    }
                    rb.now_latency_ms.record(1.0);
                }
                TimeScope::Past { from: _, to } => {
                    rb.past_total += 1;
                    // Only incidentally pushed values cover the range; a
                    // push at-or-before the range also bounds it (the
                    // value did not move more than Δ since).
                    if cache.latest_at(to).is_some() {
                        rb.past_answered += 1;
                    }
                }
            }
        }
    }
    let end = SimTime::ZERO + dep.epoch * epochs;
    for n in &mut dep.nodes {
        n.advance_to(end);
    }
    rb.finish(
        &format!("value-push (delta={delta})"),
        &dep.nodes,
        cfg.days,
        false,
        false,
    )
}

/// Result of running one push policy over a single-sensor trace —
/// the quantum of the Figure 2 sweep.
#[derive(Clone, Debug)]
pub struct PolicyEnergy {
    /// Policy label.
    pub label: String,
    /// Push energy: radio TX + RX only (preambles, frames, ACKs), joules.
    /// This is the quantity Figure 2 plots — idle listening is identical
    /// across arms and reported separately.
    pub push_j: f64,
    /// Total sensor radio energy including idle listening, joules.
    pub radio_j: f64,
    /// Total sensor energy (radio + cpu + flash + sensing), joules.
    pub total_j: f64,
    /// Payload bytes offered to the MAC.
    pub bytes: u64,
    /// Messages that reached the proxy.
    pub delivered: u64,
}

/// Runs one push policy over a prepared single-sensor trace and returns
/// its energy account. Used by the Figure 2 harness for all four arms.
pub fn energy_of_policy(
    trace: &[LabReading],
    policy: PushPolicy,
    loss: f64,
    seed: u64,
) -> PolicyEnergy {
    let label = policy.label();
    let link = if loss > 0.0 {
        LinkModel::new(
            presto_net::LossProcess::Bernoulli(loss),
            presto_sim::SimRng::new(seed),
        )
    } else {
        LinkModel::perfect()
    };
    let mut node = SensorNode::new(
        0,
        SensorConfig {
            push: policy,
            ..SensorConfig::default()
        },
        link,
    );
    let mut delivered: u64 = 0;
    for r in trace {
        delivered += node.on_sample(r.timestamp, r.value).len() as u64;
    }
    // Drain any residual batch so arms are charged for all data.
    if let Some(t) = trace.last().map(|r| r.timestamp) {
        if node.flush_batch(t).is_some() {
            delivered += 1;
        }
    }
    let ledger = node.ledger();
    PolicyEnergy {
        label,
        push_j: ledger.category(presto_sim::EnergyCategory::RadioTx)
            + ledger.category(presto_sim::EnergyCategory::RadioRx),
        radio_j: ledger.radio_total(),
        total_j: ledger.total(),
        bytes: node.stats().bytes_sent,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_workloads::{LabDeployment, LabParams};

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            sensors: 3,
            days: 1,
            ..DriverConfig::default()
        }
    }

    fn week_trace(seed: u64) -> Vec<LabReading> {
        LabDeployment::single_sensor_trace(LabParams::default(), seed, SimDuration::from_days(3))
    }

    #[test]
    fn now_error_bounded_by_delta() {
        let r = run(&quick_cfg(), 1.0);
        // Mean error well under Δ (worst case Δ + loss effects).
        assert!(r.now_error_mean < 1.2, "{}", r.now_error_mean);
        assert!(!r.supports_past);
    }

    #[test]
    fn smaller_delta_costs_more_energy() {
        let r1 = run(&quick_cfg(), 1.0);
        let r2 = run(&quick_cfg(), 2.0);
        assert!(
            r1.radio_energy_per_day_j > r2.radio_energy_per_day_j,
            "delta=1 {} vs delta=2 {}",
            r1.radio_energy_per_day_j,
            r2.radio_energy_per_day_j
        );
    }

    #[test]
    fn figure2_arms_are_ordered_as_in_the_paper() {
        // On the same trace: value-driven Δ=1 > Δ=2, batched raw >
        // batched wavelet, and both batched arms decrease with interval.
        let trace = week_trace(7);
        let v1 = energy_of_policy(&trace, PushPolicy::ValueDriven { delta: 1.0 }, 0.0, 1);
        let v2 = energy_of_policy(&trace, PushPolicy::ValueDriven { delta: 2.0 }, 0.0, 1);
        assert!(
            v1.radio_j > v2.radio_j * 1.3,
            "{} vs {}",
            v1.radio_j,
            v2.radio_j
        );

        let batched = |mins: f64, comp: bool| {
            energy_of_policy(
                &trace,
                PushPolicy::Batched {
                    interval: SimDuration::from_mins_f64(mins),
                    compression: comp.then(presto_wavelet::CodecParams::denoising),
                },
                0.0,
                1,
            )
        };
        let raw_small = batched(16.5, false);
        let raw_big = batched(264.0, false);
        assert!(
            raw_small.radio_j > raw_big.radio_j,
            "{} vs {}",
            raw_small.radio_j,
            raw_big.radio_j
        );
        let wav_big = batched(264.0, true);
        assert!(
            wav_big.radio_j < raw_big.radio_j,
            "wavelet {} vs raw {}",
            wav_big.radio_j,
            raw_big.radio_j
        );
    }

    #[test]
    fn lossy_links_waste_energy_on_retries() {
        let trace = week_trace(9);
        let clean = energy_of_policy(&trace, PushPolicy::ValueDriven { delta: 1.0 }, 0.0, 2);
        let lossy = energy_of_policy(&trace, PushPolicy::ValueDriven { delta: 1.0 }, 0.3, 2);
        // Retransmissions cost extra frame energy (the wake-up preamble
        // is paid once per send either way), and some pushes are lost
        // outright.
        assert!(
            lossy.radio_j > clean.radio_j,
            "lossy {} vs clean {}",
            lossy.radio_j,
            clean.radio_j
        );
        assert!(lossy.delivered < clean.delivered);
    }
}
