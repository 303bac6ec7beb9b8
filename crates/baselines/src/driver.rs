//! Shared deployment driver for the architecture comparison.
//!
//! Every arm — the three baselines here and PRESTO in `presto-core` —
//! runs the same Intel-Lab-style workload and the same Poisson query
//! stream through one epoch/query loop, [`run_arm`], and reports the
//! same [`ArchReport`] row, so the regenerated Table 1 compares like
//! with like. Arms differ only in their push policy, their sink's
//! configuration and how they answer a query.

use presto_net::{LinkModel, LossProcess};
use presto_proxy::{EngineConfig, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig};
use presto_reliability::DownlinkChannel;
use presto_sensor::{PushPolicy, SensorConfig, SensorNode};
use presto_sim::metrics::Summary;
use presto_sim::{SimDuration, SimRng, SimTime};
use presto_workloads::{LabDeployment, LabParams, QueryGen, QuerySpec, TimeScope};

/// Uplink/downlink frame loss probability on every arm.
const LOSS: f64 = 0.05;

/// Master seed of every arm's workload, links and query stream.
const SEED: u64 = 42;

/// Configuration shared by every architecture arm. Every arm runs the
/// default [`LabParams`] workload over its `sensors`.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Number of sensors under the proxy.
    pub sensors: usize,
    /// Simulated duration in days.
    pub days: u64,
    /// Mean queries per hour across the deployment.
    // presto-lint: allow(knob, no_push_traffic_outside_queries: a run with no queries)
    pub queries_per_hour: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            sensors: 8,
            days: 2,
            queries_per_hour: 20.0,
        }
    }
}

/// One row of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct ArchReport {
    /// Architecture label.
    pub label: String,
    /// Mean sensor energy, joules per day (all categories).
    pub sensor_energy_per_day_j: f64,
    /// Mean sensor *radio* energy, joules per day.
    pub radio_energy_per_day_j: f64,
    /// Mean NOW-query latency, milliseconds.
    pub now_latency_mean_ms: f64,
    /// 95th-percentile NOW-query latency, milliseconds.
    pub now_latency_p95_ms: f64,
    /// Mean absolute NOW answer error vs ground truth.
    pub now_error_mean: f64,
    /// Fraction of PAST queries answered with data.
    pub past_answered_fraction: f64,
    /// Mean payload bytes offered to the MAC per sensor per day.
    pub bytes_per_sensor_per_day: f64,
    /// Whether the architecture supports historical queries at all.
    pub supports_past: bool,
    /// Whether prediction is used anywhere in the answer path.
    pub uses_prediction: bool,
}

/// A built deployment: nodes, their downlink links, the workload, and
/// the query stream (merged against epochs by [`run_arm`]).
struct Deployment {
    /// Sensor nodes.
    nodes: Vec<SensorNode>,
    /// Per-sensor downlink channels (fabric-routed proxy→sensor path).
    downlinks: Vec<DownlinkChannel>,
    /// The workload generator.
    lab: LabDeployment,
    /// The query stream, time-ordered.
    queries: Vec<QuerySpec>,
    /// Epoch length.
    epoch: SimDuration,
}

/// Builds a deployment with the given push policy applied to every node.
fn build(cfg: &DriverConfig, push: PushPolicy, lpl: SimDuration) -> Deployment {
    let params = LabParams::default();
    let epoch = params.epoch;
    let lab = LabDeployment::new(params, cfg.sensors, SEED);
    let rng = SimRng::new(SEED);
    let lossy = |r: SimRng| LinkModel::new(LossProcess::Bernoulli(LOSS), r);
    let nodes = (0..cfg.sensors)
        .map(|i| {
            let config = SensorConfig {
                push: push.clone(),
                duty: presto_net::DutyCycle::lpl(lpl),
                ..SensorConfig::default()
            };
            SensorNode::new(i as u16, config, lossy(rng.split(&format!("uplink-{i}"))))
        })
        .collect();
    let downlinks = (0..cfg.sensors)
        .map(|i| DownlinkChannel::over(lossy(rng.split(&format!("downlink-{i}")))))
        .collect();
    let queries = QueryGen::new(cfg.queries_per_hour, cfg.sensors, SEED ^ 0x51ab).generate(
        // Let queries start after a warm-up day (or half the horizon).
        SimTime::from_hours((cfg.days * 24 / 4).max(6)),
        SimDuration::from_days(cfg.days) - SimDuration::from_hours((cfg.days * 24 / 4).max(6)),
    );
    Deployment {
        nodes,
        downlinks,
        lab,
        queries,
        epoch,
    }
}

/// What an arm's answer rule returns for one query.
pub enum ArmAnswer {
    /// A NOW answer: its latency and its value, when one came back.
    Now {
        /// Time from arrival to answer.
        latency: SimDuration,
        /// The answered value.
        value: Option<f64>,
    },
    /// A PAST answer: whether the window came back with data.
    Past(bool),
}

/// The engine of a sink that never predicts: its training pass returns
/// before it touches anything.
pub fn no_prediction() -> EngineConfig {
    EngineConfig {
        min_history: usize::MAX,
    }
}

/// Runs one arm on the shared workload and returns its measurements
/// and its nodes, charged to the end of the run. Every sample feeds
/// one sink built from `proxy`; an hourly training pass offers each
/// sensor a model push (a sink with [`no_prediction`] never pushes);
/// and every query arriving within an epoch is answered by `answer`,
/// given the sink, the target sensor's id, node and channel. The loop
/// records the NOW latency and error against the truth, and whether a
/// PAST window came back with data.
pub fn run_arm(
    cfg: &DriverConfig,
    push: PushPolicy,
    lpl: SimDuration,
    proxy: ProxyConfig,
    mut answer: impl FnMut(
        &mut PrestoProxy,
        &QuerySpec,
        u16,
        &mut SensorNode,
        &mut DownlinkChannel,
    ) -> ArmAnswer,
) -> (ReportBuilder, Vec<SensorNode>) {
    let mut dep = build(cfg, push, lpl);
    let mut proxy = PrestoProxy::new(proxy);
    for i in 0..cfg.sensors {
        proxy.register_sensor(i as u16);
    }

    let mut rb = ReportBuilder::default();
    let epochs = SimDuration::from_days(cfg.days).div_duration(dep.epoch);
    let mut qi = 0usize;
    let mut truth_now = vec![0.0f64; cfg.sensors];
    let train_every = SimDuration::from_hours(1).div_duration(dep.epoch).max(1);

    for e in 0..epochs {
        let t = SimTime::ZERO + dep.epoch * e;
        let readings = dep.lab.step();
        for (s, r) in readings.iter().enumerate() {
            truth_now[s] = r.value;
            for msg in dep.nodes[s].on_sample(r.timestamp, r.value) {
                proxy.on_uplink(&msg);
            }
        }
        if e % train_every == 0 {
            for s in 0..cfg.sensors {
                proxy.maybe_train_and_push(t, s as u16, &mut dep.nodes[s], &mut dep.downlinks[s]);
            }
        }
        while qi < dep.queries.len() && dep.queries[qi].arrival <= t + dep.epoch {
            let q = dep.queries[qi];
            qi += 1;
            let s = q.target;
            let (node, chan) = (&mut dep.nodes[s], &mut dep.downlinks[s]);
            match answer(&mut proxy, &q, s as u16, node, chan) {
                ArmAnswer::Now { latency, value } => {
                    rb.now_latency_ms.record(latency.as_millis_f64());
                    if let Some(v) = value {
                        rb.now_error.record((v - truth_now[s]).abs());
                    }
                }
                ArmAnswer::Past(answered) => {
                    rb.past_total += 1;
                    rb.past_answered += u64::from(answered);
                }
            }
        }
    }
    let end = SimTime::ZERO + dep.epoch * epochs;
    for n in &mut dep.nodes {
        n.advance_to(end);
    }
    (rb, dep.nodes)
}

/// Runs one proxy-backed arm (PRESTO or a streaming baseline): every
/// query is answered through [`PrestoProxy::answer`]. The proxy's
/// engine decides whether training ever pushes: a streaming arm's
/// engine is [`no_prediction`].
pub fn run_proxy_arm(
    cfg: &DriverConfig,
    push: PushPolicy,
    lpl: SimDuration,
    proxy: ProxyConfig,
    label: &str,
    uses_prediction: bool,
) -> ArchReport {
    let (rb, nodes) = run_arm(cfg, push, lpl, proxy, |proxy, q, sensor, node, chan| {
        let tolerance = q.tolerance;
        let query = match q.scope {
            TimeScope::Now => PipelineQuery::Now { sensor, tolerance },
            TimeScope::Past { from, to } => PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            },
        };
        // A NOW query is answered by a scalar, a PAST query by a series.
        match proxy.answer(q.arrival, query, node, chan) {
            PipelineAnswer::Scalar(a) => ArmAnswer::Now {
                latency: a.latency,
                value: Some(a.value),
            },
            PipelineAnswer::Series(a) => ArmAnswer::Past(!a.samples.is_empty()),
        }
    });
    rb.finish(label, &nodes, cfg.days, true, uses_prediction)
}

/// Accumulates per-query measurements into an [`ArchReport`].
#[derive(Default)]
pub struct ReportBuilder {
    /// NOW latencies, ms.
    pub now_latency_ms: Summary,
    /// NOW absolute errors.
    pub now_error: Summary,
    /// PAST queries issued.
    pub past_total: u64,
    /// PAST queries answered with at least one sample.
    pub past_answered: u64,
}

impl ReportBuilder {
    /// Finalizes the report from the builder plus node ledgers.
    pub fn finish(
        self,
        label: &str,
        nodes: &[SensorNode],
        days: u64,
        supports_past: bool,
        uses_prediction: bool,
    ) -> ArchReport {
        let n = nodes.len().max(1) as f64;
        let d = days.max(1) as f64;
        let total: f64 = nodes.iter().map(|s| s.ledger().total()).sum();
        let radio: f64 = nodes.iter().map(|s| s.ledger().radio_total()).sum();
        let bytes: f64 = nodes.iter().map(|s| s.stats().bytes_sent as f64).sum();
        ArchReport {
            label: label.to_string(),
            sensor_energy_per_day_j: total / n / d,
            radio_energy_per_day_j: radio / n / d,
            now_latency_mean_ms: self.now_latency_ms.mean(),
            now_latency_p95_ms: self.now_latency_ms.p95(),
            now_error_mean: self.now_error.mean(),
            past_answered_fraction: if self.past_total == 0 {
                0.0
            } else {
                self.past_answered as f64 / self.past_total as f64
            },
            bytes_per_sensor_per_day: bytes / n / d,
            supports_past,
            uses_prediction,
        }
    }
}

/// Renders a collection of reports as the Table 1 text block.
pub fn render_table(reports: &[ArchReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12} {:>6} {:>6}\n",
        "architecture",
        "J/day/node",
        "radio J/day",
        "now ms",
        "now p95 ms",
        "now err",
        "past frac",
        "B/day/node",
        "past",
        "pred"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<28} {:>12.2} {:>12.2} {:>12.1} {:>12.1} {:>10.3} {:>10.2} {:>12.0} {:>6} {:>6}\n",
            r.label,
            r.sensor_energy_per_day_j,
            r.radio_energy_per_day_j,
            r.now_latency_mean_ms,
            r.now_latency_p95_ms,
            r.now_error_mean,
            r.past_answered_fraction,
            r.bytes_per_sensor_per_day,
            if r.supports_past { "yes" } else { "no" },
            if r.uses_prediction { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_matching_counts() {
        let cfg = DriverConfig::default();
        let d = build(&cfg, PushPolicy::Silent, SimDuration::from_secs(1));
        assert_eq!(d.nodes.len(), cfg.sensors);
        assert_eq!(d.downlinks.len(), cfg.sensors);
        assert!(!d.queries.is_empty());
        // Queries arrive after the warm-up period.
        assert!(d.queries[0].arrival >= SimTime::from_hours(6));
    }

    #[test]
    fn report_builder_aggregates() {
        let cfg = DriverConfig {
            sensors: 2,
            ..DriverConfig::default()
        };
        let d = build(&cfg, PushPolicy::Silent, SimDuration::from_secs(1));
        let mut rb = ReportBuilder::default();
        rb.now_latency_ms.record(10.0);
        rb.now_latency_ms.record(20.0);
        rb.now_error.record(0.5);
        rb.past_total = 4;
        rb.past_answered = 3;
        let r = rb.finish("test", &d.nodes, 2, true, false);
        assert_eq!(r.now_latency_mean_ms, 15.0);
        assert_eq!(r.past_answered_fraction, 0.75);
        assert!(r.supports_past);
        assert!(!r.uses_prediction);
        let table = render_table(&[r]);
        assert!(table.contains("test"));
        assert!(table.contains("architecture"));
    }

    #[test]
    fn deterministic_build() {
        let cfg = DriverConfig::default();
        let a = build(&cfg, PushPolicy::Silent, SimDuration::from_secs(1));
        let b = build(&cfg, PushPolicy::Silent, SimDuration::from_secs(1));
        assert_eq!(a.queries, b.queries);
    }
}
