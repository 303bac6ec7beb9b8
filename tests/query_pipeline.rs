//! Pipeline-equivalence property: for ANY seeded multi-query workload
//! and ANY downlink loss trace — including 100% bursts — every answer
//! the asynchronous query pipeline completes is **value-identical** to
//! what the synchronous `PrestoProxy` reference path produces on the
//! same state, and every other query terminates honestly
//! (`AnswerSource::Failed`, sigma = ∞ for scalars) by its deadline.
//! No hangs, no silent drops, no leaked pending entries: overlap and
//! coalescing may only change *when* an answer arrives, never *what*
//! it says.

use proptest::prelude::*;

use presto::proxy::{
    AnswerSource, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig, PumpSensor,
    DEFAULT_DEADLINE,
};
use presto::reliability::{DownlinkChannel, DownlinkConfig, DOWNLINK_SEED};
use presto::net::{LinkModel, LossProcess};
use presto::sensor::{AggregateOp, PushPolicy, SensorConfig, SensorNode};
use presto::sim::{SimDuration, SimTime};

const EPOCH: SimDuration = SimDuration::from_secs(31);

fn diurnal(t: SimTime) -> f64 {
    21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
}

/// A sensor with one day of archived samples, never pushing. Both the
/// pipeline run and the reference run build identical copies.
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

/// A proxy whose radio-free fast paths cannot fire (empty cache at
/// phase start, no model, impossible coverage threshold), so every
/// query exercises the pull path — the path the pipeline reworks.
fn proxy() -> PrestoProxy {
    let mut p = PrestoProxy::new(ProxyConfig {
        past_coverage_hit: f64::INFINITY,
        ..ProxyConfig::default()
    });
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

/// Disjoint one-hour windows inside the archived day.
fn window(k: u64) -> (SimTime, SimTime) {
    (
        SimTime::from_hours(2 * k + 1),
        SimTime::from_hours(2 * k + 2),
    )
}

/// Workload atom: (submit epoch, query). Codes 0..6 are PAST windows,
/// 6..8 aggregates, 8..10 NOW.
fn decode(code: u8) -> PipelineQuery {
    match code % 10 {
        k @ 0..=5 => {
            let (from, to) = window(k as u64);
            PipelineQuery::Past {
                sensor: 0,
                from,
                to,
                tolerance: 0.2,
            }
        }
        k @ 6..=7 => {
            let (from, to) = window((k - 6) as u64);
            PipelineQuery::Aggregate {
                sensor: 0,
                from,
                to,
                op: AggregateOp::Mean,
            }
        }
        _ => PipelineQuery::Now {
            sensor: 0,
            tolerance: 0.2,
        },
    }
}

/// The synchronous reference: a persistent, identically built
/// (proxy, sensor, perfect channel) trio serving each query through
/// `PrestoProxy::answer`, the blocking entry, at the same submission
/// instant. The trio stays alive across queries so the channel's
/// sequence numbers keep advancing (a fresh channel per query would
/// collide with the sensor's dedup window); its fast paths are disabled
/// exactly like the pipeline proxy's, so every reference answer is a
/// real pull.
fn reference_answer(
    q: PipelineQuery,
    t: SimTime,
    p: &mut PrestoProxy,
    chan: &mut DownlinkChannel,
    ref_node: &mut SensorNode,
) -> PipelineAnswer {
    p.answer(t, q, ref_node, chan)
}

/// Runs the pipeline over the workload under the given loss traces and
/// checks every completion against the reference. Returns
/// (completed-pulled, honestly-failed).
fn run_and_check(
    workload: &[(u8, u8)],
    request: Vec<bool>,
    reply: Vec<bool>,
) -> (usize, usize) {
    let base = SimTime::from_days(2);
    let mut p = proxy();
    let mut node = archived_node();
    let mut chan = scripted_channel(request, reply);
    let mut ref_node = archived_node();
    let mut ref_proxy = proxy();
    let mut ref_chan = DownlinkChannel::perfect();

    // Submission schedule: epoch → queries.
    let horizon: u64 = 24;
    let deadline = DEFAULT_DEADLINE;
    let drain = deadline.div_duration(EPOCH) + 2;
    let mut expectations = std::collections::HashMap::new();
    let mut submitted = 0usize;
    for e in 0..horizon + drain {
        let t = base + EPOCH * e;
        if e < horizon {
            for &(ep, code) in workload.iter().filter(|&&(ep, _)| ep as u64 % horizon == e) {
                let _ = ep;
                let q = decode(code);
                let ticket = p.submit_query(t, q);
                expectations.insert(ticket, (q, t));
                submitted += 1;
            }
        }
        p.pump_queries_view(t, &mut [PumpSensor { gid: 0, node: &mut node, chan: &mut chan }]);
    }

    let done = p.take_completed_queries();
    prop_assert_eq!(done.len(), submitted, "every query must terminate — no hangs, no drops");
    // Bookkeeping invariants: nothing pending, nothing leaked in the
    // pending-RPC table.
    prop_assert_eq!(p.pipeline().pending_queries(), 0);
    prop_assert_eq!(chan.async_in_flight(), 0);

    let mut pulled = 0usize;
    let mut failed = 0usize;
    for c in done {
        let (q, t_sub) = expectations.remove(&c.id).expect("unknown ticket");
        prop_assert!(
            c.completed_at <= t_sub + deadline + EPOCH,
            "query completed after its deadline: {:?} vs {:?}",
            c.completed_at,
            t_sub + deadline
        );
        match c.answer.source() {
            AnswerSource::Failed => {
                failed += 1;
                if let PipelineAnswer::Scalar(a) = &c.answer {
                    prop_assert!(a.sigma.is_infinite(), "failed scalar must advertise sigma ∞");
                }
            }
            AnswerSource::Pulled => {
                pulled += 1;
                let reference =
                    reference_answer(q, t_sub, &mut ref_proxy, &mut ref_chan, &mut ref_node);
                match (&c.answer, &reference) {
                    (PipelineAnswer::Series(a), PipelineAnswer::Series(r)) => {
                        prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
                        prop_assert_eq!(
                            &a.samples, &r.samples,
                            "pipeline pulled different data than the reference"
                        );
                    }
                    (PipelineAnswer::Scalar(a), PipelineAnswer::Scalar(r)) => {
                        prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
                        prop_assert_eq!(a.value, r.value, "scalar value diverged");
                        prop_assert_eq!(a.sigma, r.sigma, "scalar sigma diverged");
                    }
                    _ => prop_assert!(false, "answer shape diverged from reference"),
                }
            }
            other => prop_assert!(
                false,
                "pipeline produced {:?} — pull-path queries complete Pulled or Failed only",
                other
            ),
        }
    }
    (pulled, failed)
}

/// Runs the workload through a trace-enabled pipeline and checks the
/// span log is complete: one finished trace per submitted query, each
/// starting `Submitted` with exactly one terminal whose cause matches
/// the answer's honesty, timestamps monotone, and no open (orphaned)
/// tickets left in the tracer after the drain window.
fn run_traced(workload: &[(u8, u8)], request: Vec<bool>, reply: Vec<bool>) {
    use presto::telemetry::{CompletionCause, SpanEvent};

    let base = SimTime::from_days(2);
    let mut cfg = ProxyConfig {
        past_coverage_hit: f64::INFINITY,
        ..ProxyConfig::default()
    };
    cfg.pipeline.trace = true;
    let mut p = PrestoProxy::new(cfg);
    p.register_sensor(0);
    let mut node = archived_node();
    let mut chan = scripted_channel(request, reply);

    let horizon: u64 = 24;
    let deadline = DEFAULT_DEADLINE;
    let drain = deadline.div_duration(EPOCH) + 2;
    let mut submitted = 0usize;
    for e in 0..horizon + drain {
        let t = base + EPOCH * e;
        if e < horizon {
            for &(_, code) in workload.iter().filter(|&&(ep, _)| ep as u64 % horizon == e) {
                p.submit_query(t, decode(code));
                submitted += 1;
            }
        }
        p.pump_queries_view(t, &mut [PumpSensor { gid: 0, node: &mut node, chan: &mut chan }]);
    }

    let done = p.take_completed_queries();
    prop_assert_eq!(done.len(), submitted);
    let failed_ids: std::collections::HashSet<u64> = done
        .iter()
        .filter(|c| c.answer.source() == AnswerSource::Failed)
        .map(|c| c.id)
        .collect();

    let traces = p.pipeline_mut().tracer_mut().take_finished();
    prop_assert_eq!(
        traces.len(),
        submitted,
        "every query must leave exactly one finished trace"
    );
    prop_assert_eq!(p.pipeline().tracer().finished_dropped(), 0);
    let mut seen = std::collections::HashSet::new();
    for tr in &traces {
        prop_assert!(seen.insert(tr.ticket), "duplicate trace for ticket {}", tr.ticket);
        prop_assert_eq!(
            tr.events.first().map(|e| &e.event),
            Some(&SpanEvent::Submitted),
            "trace must open with Submitted"
        );
        prop_assert_eq!(tr.terminal_count(), 1, "exactly one terminal per trace");
        prop_assert!(tr.is_monotone(), "span timestamps must be monotone");
        let want = if failed_ids.contains(&tr.ticket) {
            CompletionCause::Failed
        } else {
            CompletionCause::Ok
        };
        prop_assert_eq!(tr.cause(), Some(want), "terminal cause must match the answer");
        // Age coverage is exactly the Ok set: an Ok terminal reflects
        // real data and must carry its staleness; a failed terminal
        // reflects nothing and must not pretend otherwise.
        let aged = matches!(
            tr.terminal().map(|e| &e.event),
            Some(SpanEvent::Terminal {
                answer_age: Some(_),
                ..
            })
        );
        prop_assert_eq!(
            aged,
            want == CompletionCause::Ok,
            "answer age must be present iff the completion is Ok (ticket {})",
            tr.ticket
        );
    }
    prop_assert_eq!(
        p.pipeline().tracer().open_count(),
        0,
        "no orphaned open traces after the drain window"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Any workload × any loss trace: completed answers are
    /// value-identical to the synchronous reference; the rest fail
    /// honestly by their deadline.
    #[test]
    fn pipeline_matches_reference_or_fails_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..32),
        request in proptest::collection::vec(any::<bool>(), 1..64),
        reply in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        run_and_check(&workload, request, reply);
    }

    /// Any workload × any loss trace, tracer on: the span log accounts
    /// for every query — exactly one terminal each, monotone
    /// timestamps, zero orphans after drain.
    #[test]
    fn pipeline_traces_are_complete(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..32),
        request in proptest::collection::vec(any::<bool>(), 1..64),
        reply in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        run_traced(&workload, request, reply);
    }

    /// A 100% request-loss burst: nothing completes, everything fails
    /// honestly by its deadline, nothing leaks.
    #[test]
    fn pipeline_total_burst_fails_everything_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![false], vec![true]);
        prop_assert_eq!(pulled, 0, "nothing can complete through a dead channel");
        prop_assert_eq!(failed, workload.len());
    }

    /// A lossless channel: everything completes and matches the
    /// reference; nothing fails.
    #[test]
    fn pipeline_lossless_completes_everything(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![true], vec![true]);
        // Every query completes: PAST and aggregate windows are inside
        // the archived day, and NOW pulls return the freshest archived
        // samples (the sensor serves the nearest span it has).
        prop_assert_eq!(pulled, workload.len());
        prop_assert_eq!(failed, 0);
    }
}

/// NOW queries inside the archived span complete through the pipeline
/// with the exact reference value (the freshest archived sample).
#[test]
fn pipeline_now_query_matches_reference_inside_archive() {
    let t = SimTime::from_secs(86_000);
    let mut p = proxy();
    let mut node = archived_node();
    let mut chan = DownlinkChannel::perfect();
    let ticket = p.submit_query(
        t,
        PipelineQuery::Now {
            sensor: 0,
            tolerance: 0.2,
        },
    );
    p.pump_queries_view(t, &mut [PumpSensor { gid: 0, node: &mut node, chan: &mut chan }]);
    let done = p.take_completed_queries();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, ticket);
    let mut ref_node = archived_node();
    let mut ref_proxy = proxy();
    let mut ref_chan = DownlinkChannel::perfect();
    let reference = reference_answer(
        PipelineQuery::Now {
            sensor: 0,
            tolerance: 0.2,
        },
        t,
        &mut ref_proxy,
        &mut ref_chan,
        &mut ref_node,
    );
    match (&done[0].answer, &reference) {
        (PipelineAnswer::Scalar(a), PipelineAnswer::Scalar(r)) => {
            assert_eq!(r.source, AnswerSource::Pulled);
            assert_eq!(a.source, AnswerSource::Pulled);
            assert_eq!(a.value, r.value);
            assert_eq!(a.sigma, r.sigma);
        }
        _ => panic!("NOW answers are scalars"),
    }
}
