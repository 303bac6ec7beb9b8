//! Failure injection across tiers: lossy links, unreachable sensors,
//! and model-update loss must degrade the system gracefully, never
//! silently corrupt answers.

use presto::net::{LinkModel, LossProcess};
use presto::proxy::{
    Answer, AnswerSource, PastAnswer, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig,
};
use presto::reliability::DownlinkChannel;
use presto::sensor::{PushPolicy, SensorConfig, SensorNode};
use presto::sim::{SimDuration, SimRng, SimTime};
use presto::workloads::{LabDeployment, LabParams};

fn now(tolerance: f64) -> PipelineQuery {
    PipelineQuery::Now {
        sensor: 0,
        tolerance,
    }
}

fn past(from: SimTime, to: SimTime, tolerance: f64) -> PipelineQuery {
    PipelineQuery::Past {
        sensor: 0,
        from,
        to,
        tolerance,
    }
}

fn scalar(a: PipelineAnswer) -> Answer {
    match a {
        PipelineAnswer::Scalar(a) => a,
        other => panic!("expected a scalar answer, got {other:?}"),
    }
}

fn series(a: PipelineAnswer) -> PastAnswer {
    match a {
        PipelineAnswer::Series(a) => a,
        other => panic!("expected a series answer, got {other:?}"),
    }
}

fn lab_trace(days: u64, seed: u64) -> Vec<presto::workloads::lab::LabReading> {
    LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    )
}

fn paired(push: PushPolicy, loss: f64, seed: u64) -> (PrestoProxy, SensorNode, DownlinkChannel) {
    let mut proxy = PrestoProxy::new(ProxyConfig::default());
    proxy.register_sensor(0);
    let uplink = if loss > 0.0 {
        LinkModel::new(LossProcess::Bernoulli(loss), SimRng::new(seed))
    } else {
        LinkModel::perfect()
    };
    let node = SensorNode::new(
        0,
        SensorConfig {
            push,
            ..SensorConfig::default()
        },
        uplink,
    );
    let downlink = if loss > 0.0 {
        DownlinkChannel::over(LinkModel::new(LossProcess::Bernoulli(loss), SimRng::new(seed ^ 1)))
    } else {
        DownlinkChannel::perfect()
    };
    (proxy, node, downlink)
}

#[test]
fn bursty_loss_degrades_but_does_not_corrupt() {
    let trace = lab_trace(2, 31);
    let (mut proxy, mut node, mut link) =
        paired(PushPolicy::ModelDriven { tolerance: 1.0 }, 0.25, 5);
    let mut trained = false;
    for (i, r) in trace.iter().enumerate() {
        for msg in node.on_sample(r.timestamp, r.value) {
            proxy.on_uplink(&msg);
        }
        if i % 240 == 0 {
            trained |= proxy.maybe_train_and_push(r.timestamp, 0, &mut node, &mut link);
        }
    }
    assert!(trained, "model never installed despite retries");
    // Queries still answer; errors stay bounded by tolerance-class slack.
    let last = trace.last().expect("non-empty trace");
    let a = scalar(proxy.answer(last.timestamp, now(1.5), &mut node, &mut link));
    assert_ne!(a.source, AnswerSource::Failed);
    assert!(
        (a.value - last.value).abs() < 3.0,
        "answer {} truth {}",
        a.value,
        last.value
    );
}

#[test]
fn dead_sensor_yields_failed_answers_not_garbage() {
    let (mut proxy, mut node, _) = paired(PushPolicy::Silent, 0.0, 6);
    // The sensor never reports and the downlink is completely dead.
    let mut dead = DownlinkChannel::over(LinkModel::new(LossProcess::Bernoulli(1.0), SimRng::new(9)));
    let a = scalar(proxy.answer(SimTime::from_hours(1), now(0.5), &mut node, &mut dead));
    assert_eq!(a.source, AnswerSource::Failed);
    assert!(
        a.sigma.is_infinite(),
        "failed answers must advertise no confidence"
    );
    assert!(proxy.stats().pull_failures >= 1);
}

#[test]
fn sensor_that_stops_midway_still_serves_its_past() {
    let trace = lab_trace(1, 32);
    let (mut proxy, mut node, mut link) =
        paired(PushPolicy::ModelDriven { tolerance: 1.0 }, 0.0, 7);
    // Sensor alive for the first half only.
    let half = trace.len() / 2;
    for (i, r) in trace[..half].iter().enumerate() {
        for msg in node.on_sample(r.timestamp, r.value) {
            proxy.on_uplink(&msg);
        }
        if i % 240 == 0 {
            proxy.maybe_train_and_push(r.timestamp, 0, &mut node, &mut link);
        }
    }
    // Hours later, a PAST query over the live period pulls the archive.
    let query_t = trace.last().expect("non-empty").timestamp;
    let q = past(SimTime::from_hours(3), SimTime::from_hours(4), 0.2);
    let a = series(proxy.answer(query_t, q, &mut node, &mut link));
    assert_ne!(a.source, AnswerSource::Failed);
    assert!(a.samples.len() > 80, "{} samples", a.samples.len());
}

#[test]
fn lost_model_update_never_installs_a_divergent_replica() {
    let trace = lab_trace(2, 33);
    let (mut proxy, mut node, _) = paired(PushPolicy::ModelDriven { tolerance: 1.0 }, 0.0, 8);
    let mut dead = DownlinkChannel::over(LinkModel::new(LossProcess::Bernoulli(1.0), SimRng::new(10)));
    for r in &trace[..3000] {
        for msg in node.on_sample(r.timestamp, r.value) {
            proxy.on_uplink(&msg);
        }
    }
    let t = trace[3000].timestamp;
    let installed = proxy.maybe_train_and_push(t, 0, &mut node, &mut dead);
    assert!(!installed, "claimed install over a dead downlink");
    assert!(!node.has_model());
    // The sensor keeps pushing everything (safe default).
    let r = &trace[3001];
    let msgs = node.on_sample(r.timestamp, r.value);
    assert_eq!(msgs.len(), 1);
}

#[test]
fn retries_recover_moderate_downlink_loss() {
    let trace = lab_trace(2, 34);
    let (mut proxy, mut node, _) = paired(PushPolicy::ModelDriven { tolerance: 1.0 }, 0.0, 11);
    for r in &trace[..3000] {
        for msg in node.on_sample(r.timestamp, r.value) {
            proxy.on_uplink(&msg);
        }
    }
    // 20% loss: ARQ + pull retries should still get a PAST answer.
    let mut lossy = DownlinkChannel::over(LinkModel::new(LossProcess::Bernoulli(0.2), SimRng::new(12)));
    let t = trace[3000].timestamp;
    let q = past(SimTime::from_hours(5), SimTime::from_hours(6), 0.2);
    let a = series(proxy.answer(t, q, &mut node, &mut lossy));
    assert_ne!(a.source, AnswerSource::Failed);
    assert!(!a.samples.is_empty());
}
