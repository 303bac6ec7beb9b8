//! Downlink-loss property: for ANY loss trace on the proxy→sensor
//! request path and the reply path — including 100% bursts — a
//! fabric-routed pull either returns exactly what the lossless
//! reference returns, or fails *honestly* (`AnswerSource::Failed`,
//! sigma = ∞ for scalar answers). There is no third outcome: loss can
//! cost latency or the answer, never silent wrongness.

use proptest::prelude::*;

use presto::net::{LinkModel, LossProcess};
use presto::proxy::{
    Answer, AnswerSource, PastAnswer, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig,
};
use presto::reliability::{DownlinkChannel, DownlinkConfig, DOWNLINK_SEED};
use presto::sensor::{PushPolicy, SensorConfig, SensorNode};
use presto::sim::{SimDuration, SimTime};

fn diurnal(t: SimTime) -> f64 {
    21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
}

/// A sensor with one day of archived samples, never pushing.
fn archived_node() -> SensorNode {
    let mut n = SensorNode::new(
        0,
        SensorConfig {
            push: PushPolicy::Silent,
            ..SensorConfig::default()
        },
        LinkModel::perfect(),
    );
    for i in 0..(86_400 / 31) {
        let t = SimTime::from_secs(31 * i);
        n.on_sample(t, diurnal(t));
    }
    n
}

fn proxy() -> PrestoProxy {
    let mut p = PrestoProxy::new(ProxyConfig::default());
    p.register_sensor(0);
    p
}

fn scripted_channel(request: Vec<bool>, reply: Vec<bool>) -> DownlinkChannel {
    DownlinkChannel::new(
        DownlinkConfig {
            request_loss: LossProcess::Scripted(request.into()),
            reply_loss: LossProcess::Scripted(reply.into()),
        },
        LinkModel::perfect(),
        DOWNLINK_SEED,
    )
}

/// Disjoint one-hour query windows inside the archived day.
fn window(k: u64) -> (SimTime, SimTime) {
    (
        SimTime::from_hours(2 * k + 1),
        SimTime::from_hours(2 * k + 2),
    )
}

/// A PAST query over `[from, to]` of sensor 0.
fn past_query(from: SimTime, to: SimTime, tolerance: f64) -> PipelineQuery {
    PipelineQuery::Past {
        sensor: 0,
        from,
        to,
        tolerance,
    }
}

fn series(a: PipelineAnswer) -> PastAnswer {
    match a {
        PipelineAnswer::Series(a) => a,
        other => panic!("expected a series answer, got {other:?}"),
    }
}

fn scalar(a: PipelineAnswer) -> Answer {
    match a {
        PipelineAnswer::Scalar(a) => a,
        other => panic!("expected a scalar answer, got {other:?}"),
    }
}

fn run_windows(chan: &mut DownlinkChannel) -> Vec<PastAnswer> {
    let mut p = proxy();
    let mut node = archived_node();
    let t = SimTime::from_days(2);
    (0..4u64)
        .map(|k| {
            let (from, to) = window(k);
            series(p.answer(t, past_query(from, to, 0.2), &mut node, chan))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any request/reply loss trace: every pulled answer equals the
    /// lossless reference sample-for-sample; everything else is an
    /// honest failure.
    #[test]
    fn pulls_match_reference_or_fail_honestly(
        request in proptest::collection::vec(any::<bool>(), 1..48),
        reply in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        let reference = run_windows(&mut DownlinkChannel::perfect());
        let mut chan = scripted_channel(request, reply);
        let lossy = run_windows(&mut chan);
        for (k, (a, r)) in lossy.iter().zip(&reference).enumerate() {
            prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
            match a.source {
                AnswerSource::Pulled => {
                    prop_assert_eq!(
                        &a.samples, &r.samples,
                        "window {} pulled different data than the reference", k
                    );
                }
                AnswerSource::Failed => {
                    // Honest: the failure is visible, and the RPC's
                    // timeouts surfaced in latency.
                    prop_assert!(a.latency >= SimDuration::from_secs(5));
                }
                other => prop_assert!(
                    false,
                    "window {} produced {:?} — neither reference-equal nor honest failure",
                    k, other
                ),
            }
        }
    }
}

/// The degenerate trace: a 100%-loss burst on the request path. Every
/// pull fails, the failures are booked, scalar answers advertise no
/// confidence, and the retry timeouts appear in latency.
#[test]
fn total_downlink_burst_fails_honestly_not_silently() {
    let mut chan = scripted_channel(vec![false], vec![true]);
    let mut p = proxy();
    let mut node = archived_node();
    let t = SimTime::from_days(2);

    let q = past_query(SimTime::from_hours(3), SimTime::from_hours(4), 0.2);
    let past = series(p.answer(t, q, &mut node, &mut chan));
    assert_eq!(past.source, AnswerSource::Failed);

    let q = PipelineQuery::Now {
        sensor: 0,
        tolerance: 0.5,
    };
    let now = scalar(p.answer(t, q, &mut node, &mut chan));
    assert_eq!(now.source, AnswerSource::Failed);
    assert!(
        now.sigma.is_infinite(),
        "a failed NOW answer must advertise sigma = ∞, got {}",
        now.sigma
    );
    // Each failed RPC waited out every retransmission.
    assert!(now.latency >= SimDuration::from_secs(15), "{:?}", now.latency);
    assert_eq!(p.stats().pull_failures, 2);
    assert_eq!(chan.stats().rpc_failures, 2);
    assert!(chan.stats().retransmits >= 4);
    // The sensor never heard a thing.
    assert_eq!(node.stats().pulls_served, 0);
}

/// The symmetric degenerate trace: requests arrive, every reply dies.
/// The sensor serves from flash once, answers duplicates from its reply
/// cache, and the proxy still fails honestly.
#[test]
fn total_reply_burst_fails_honestly_after_deduped_retries() {
    let mut chan = scripted_channel(vec![true], vec![false]);
    let mut p = proxy();
    let mut node = archived_node();
    let t = SimTime::from_days(2);

    let q = past_query(SimTime::from_hours(5), SimTime::from_hours(6), 0.2);
    let past = series(p.answer(t, q, &mut node, &mut chan));
    assert_eq!(past.source, AnswerSource::Failed);
    assert_eq!(
        node.stats().pulls_served,
        1,
        "retransmitted requests must be answered from the reply cache"
    );
    assert_eq!(node.stats().duplicate_requests, 2);
    assert_eq!(chan.stats().replies_lost, 3);
}
