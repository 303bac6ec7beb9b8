//! Deep-history behaviour: PAST queries that reach through the proxy
//! into mote archives, graceful aging under pressure, and the
//! lossy-reply precision contract.

use presto::archive::{ArchiveConfig, ArchiveStore, Quality};
use presto::net::LinkModel;
use presto::proxy::{
    AnswerSource, PastAnswer, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig,
};
use presto::reliability::DownlinkChannel;
use presto::sensor::{PushPolicy, SensorConfig, SensorNode};
use presto::sim::{EnergyLedger, SimDuration, SimTime};
use presto::workloads::{LabDeployment, LabParams};

/// A PAST query over sensor 0's `[from, to]`, answered by the blocking
/// entry.
fn past(
    proxy: &mut PrestoProxy,
    t: SimTime,
    (from, to): (SimTime, SimTime),
    tolerance: f64,
    node: &mut SensorNode,
    link: &mut DownlinkChannel,
) -> PastAnswer {
    let q = PipelineQuery::Past {
        sensor: 0,
        from,
        to,
        tolerance,
    };
    match proxy.answer(t, q, node, link) {
        PipelineAnswer::Series(a) => a,
        other => panic!("expected a series answer, got {other:?}"),
    }
}

fn lab_values(days: u64, seed: u64) -> Vec<(SimTime, f64)> {
    LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    )
    .into_iter()
    .map(|r| (r.timestamp, r.value))
    .collect()
}

#[test]
fn pull_reply_precision_tracks_query_tolerance() {
    let trace = lab_values(1, 41);
    let query_t = trace.last().expect("non-empty").0;

    // Fresh sensor/proxy per tolerance so every pull hits the same
    // (cold-cache) window and the byte counts are comparable.
    let run = |tolerance: f64| -> (u64, f64) {
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        for &(t, v) in &trace {
            node.on_sample(t, v);
        }
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        proxy.register_sensor(0);
        let mut link = DownlinkChannel::perfect();
        let before = node.stats().bytes_sent;
        let window = (SimTime::from_hours(8), SimTime::from_hours(10));
        let a = past(&mut proxy, query_t, window, tolerance, &mut node, &mut link);
        assert_eq!(a.source, AnswerSource::Pulled);
        let mut worst: f64 = 0.0;
        for &(ts, v) in &a.samples {
            let idx = (ts.as_secs_f64() / 31.0).round() as usize;
            worst = worst.max((v - trace[idx].1).abs());
        }
        (node.stats().bytes_sent - before, worst)
    };

    let (bytes_fine, err_fine) = run(0.1);
    let (bytes_mid, err_mid) = run(0.5);
    let (bytes_coarse, err_coarse) = run(2.0);
    // Accuracy within each tolerance.
    assert!(err_fine <= 0.1 + 1e-6, "{err_fine}");
    assert!(err_mid <= 0.5 + 1e-6, "{err_mid}");
    assert!(err_coarse <= 2.0 + 1e-6, "{err_coarse}");
    // Coarser tolerance → fewer bytes on the wire. The effect is step
    //-function-like (varints cost one byte for any small coefficient),
    // so 0.1 and 0.5 may tie; the meaningful comparison is fine vs
    // coarse, where the quantizer actually zeroes the detail bands.
    assert!(
        bytes_mid <= bytes_fine * 11 / 10,
        "{bytes_mid} vs {bytes_fine}"
    );
    assert!(
        (bytes_coarse as f64) < bytes_fine as f64 * 0.8,
        "{bytes_coarse} vs {bytes_fine}"
    );
}

#[test]
fn constrained_archive_ages_instead_of_forgetting() {
    let trace = lab_values(8, 42);
    let mut store = ArchiveStore::new(ArchiveConfig {
        capacity_bytes: 32 * 1024,
        ..ArchiveConfig::default()
    });
    let mut ledger = EnergyLedger::new();
    for &(t, v) in &trace {
        store.append_scalar(t, v, &mut ledger).expect("append");
    }
    assert!(
        store.stats().segments_reclaimed > 0,
        "no pressure exercised"
    );

    // Recent day: exact. First day: aged but still present and sane.
    let last_t = trace.last().expect("non-empty").0;
    let recent = store
        .query_range(last_t - SimDuration::from_hours(2), last_t, &mut ledger)
        .expect("query");
    assert!(recent.iter().all(|s| s.quality == Quality::Exact));
    assert!(recent.len() > 200);

    let old = store
        .query_range(SimTime::ZERO, SimTime::from_hours(12), &mut ledger)
        .expect("query");
    assert!(!old.is_empty(), "first day vanished");
    assert!(old.iter().any(|s| matches!(s.quality, Quality::Aged(_))));
    for s in &old {
        let idx = (s.timestamp.as_secs_f64() / 31.0).round() as usize;
        let truth = trace[idx.min(trace.len() - 1)].1;
        assert!(
            (s.value - truth).abs() < 8.0,
            "aged value wildly off: {} vs {truth}",
            s.value
        );
    }
}

#[test]
fn proxy_extrapolated_past_answers_respect_the_guarantee() {
    let trace = lab_values(3, 43);
    let mut node = SensorNode::new(
        0,
        SensorConfig {
            push: PushPolicy::ModelDriven { tolerance: 1.0 },
            ..SensorConfig::default()
        },
        LinkModel::perfect(),
    );
    let mut proxy = PrestoProxy::new(ProxyConfig {
        push_tolerance: 1.0,
        ..ProxyConfig::default()
    });
    proxy.register_sensor(0);
    let mut link = DownlinkChannel::perfect();
    for (i, &(t, v)) in trace.iter().enumerate() {
        for msg in node.on_sample(t, v) {
            proxy.on_uplink(&msg);
        }
        if i % 240 == 0 {
            proxy.maybe_train_and_push(t, 0, &mut node, &mut link);
        }
    }
    let query_t = trace.last().expect("non-empty").0;
    let window = (SimTime::from_hours(60), SimTime::from_hours(61));
    let a = past(&mut proxy, query_t, window, 1.5, &mut node, &mut link);
    assert_eq!(a.source, AnswerSource::Extrapolated);
    let mut worst: f64 = 0.0;
    for &(ts, v) in &a.samples {
        let idx = (ts.as_secs_f64() / 31.0).round() as usize;
        worst = worst.max((v - trace[idx].1).abs());
    }
    // Anchored extrapolation holds within a small multiple of the push
    // tolerance: the guarantee bounds the *sensor replica's* trajectory,
    // and the proxy's anchored reconstruction re-creates it up to the
    // AR-context mismatch at the anchor.
    assert!(worst <= 3.5, "worst extrapolation error {worst}");
}
