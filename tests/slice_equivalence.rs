//! Slice-equivalence property: for ANY seeded workload and ANY downlink
//! loss trace, every answer the **sliced** pipeline completes is
//! value-identical to the blocking reference executing the same slice
//! plan (per-slice pulls, assembled and trimmed the same way — the
//! reply codec is applied per reply, so the blocking reference must
//! pull the same canonical slice windows). Every other query fails
//! honestly by its deadline, no slice sub-RPC leaks from the channel,
//! and the reply cache's accounting balances: `lookups == hits +
//! misses`. The reply cache itself is checked step by step against a
//! reference LRU written here (`slice_cache_is_an_lru`).

use proptest::prelude::*;

use presto::proxy::slice::{assemble, plan};
use presto::proxy::{
    AnswerSource, PastAnswer, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig, PumpSensor,
    ReplyCache, WindowKey, DEFAULT_DEADLINE,
};
use presto::reliability::{DownlinkChannel, DownlinkConfig, DOWNLINK_SEED};
use presto::net::{LinkModel, LossProcess};
use presto::sensor::{PushPolicy, SensorConfig, SensorNode};
use presto::sim::{SimDuration, SimTime};

const EPOCH: SimDuration = SimDuration::from_secs(31);

fn diurnal(t: SimTime) -> f64 {
    21.0 + 4.0 * ((t.hour_of_day() - 14.0) / 24.0 * std::f64::consts::TAU).cos()
}

/// A sensor with one day of archived samples, never pushing. Every
/// queried slice span lies inside the archived day, so cached slices
/// are complete (immutable) by construction.
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

/// A proxy with sliced execution on and every radio-free fast path off,
/// so queries exercise the slice/pull machinery.
fn sliced_proxy() -> PrestoProxy {
    let mut cfg = ProxyConfig {
        past_coverage_hit: f64::INFINITY,
        ..ProxyConfig::default()
    };
    cfg.pipeline.slice = true;
    let mut p = PrestoProxy::new(cfg);
    p.register_sensor(0);
    p
}

/// The blocking reference's proxy: identical, fast paths off. Slicing
/// is irrelevant to it — the blocking entry `PrestoProxy::answer`
/// always pulls the window it is given in one RPC.
fn ref_proxy() -> PrestoProxy {
    let mut p = PrestoProxy::new(ProxyConfig {
        past_coverage_hit: f64::INFINITY,
        ..ProxyConfig::default()
    });
    p.register_sensor(0);
    p
}

/// A PAST query answered by the blocking entry, `PrestoProxy::answer`.
fn blocking_past(
    p: &mut PrestoProxy,
    t: SimTime,
    q: PipelineQuery,
    node: &mut SensorNode,
    chan: &mut DownlinkChannel,
) -> PastAnswer {
    match p.answer(t, q, node, chan) {
        PipelineAnswer::Series(a) => a,
        other => panic!("PAST answers are series, got {other:?}"),
    }
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

/// Workload atom. Codes 0..=4 are overlapping multi-slice PAST windows
/// (the sliced path), 5..=6 single-slice PAST windows (monolithic even
/// with slicing on), the rest NOW. Tolerance alternates so slice keys
/// are exercised across distinct tolerances.
fn decode(code: u8) -> PipelineQuery {
    let tolerance = if code.is_multiple_of(2) { 0.2 } else { 0.4 };
    match code % 8 {
        k @ 0..=4 => {
            // [k+1 h + 7 min, k+3 h + 11 min]: spans three 1-hour
            // slices, overlapping the neighboring codes' windows so
            // queries share slices without sharing windows.
            let from = SimTime::from_hours(k as u64 + 1) + SimDuration::from_mins(7);
            let to = SimTime::from_hours(k as u64 + 3) + SimDuration::from_mins(11);
            PipelineQuery::Past {
                sensor: 0,
                from,
                to,
                tolerance,
            }
        }
        k @ 5..=6 => {
            // 40 minutes inside one slice: stays monolithic.
            let from = SimTime::from_hours(2 * k as u64) + SimDuration::from_mins(10);
            let to = from + SimDuration::from_mins(40);
            PipelineQuery::Past {
                sensor: 0,
                from,
                to,
                tolerance,
            }
        }
        _ => PipelineQuery::Now {
            sensor: 0,
            tolerance: 0.2,
        },
    }
}

/// The blocking reference for a PAST query under sliced execution: run
/// the same slice plan through the synchronous path (one blocking pull
/// per canonical slice window), assemble, trim. A window the calculator
/// keeps monolithic is referenced by one blocking pull of the window
/// itself. Panics if any reference pull fails (the channel is perfect).
fn reference_past(
    q: PipelineQuery,
    t: SimTime,
    p: &mut PrestoProxy,
    chan: &mut DownlinkChannel,
    node: &mut SensorNode,
) -> Vec<(SimTime, f64)> {
    let PipelineQuery::Past {
        sensor,
        from,
        to,
        tolerance,
    } = q
    else {
        panic!("reference_past wants a PAST query");
    };
    match plan(sensor, from, to, tolerance) {
        Some(specs) => {
            let runs: Vec<Vec<(SimTime, f64)>> = specs
                .iter()
                .map(|spec| {
                    let slice = PipelineQuery::Past {
                        sensor,
                        from: spec.key.from,
                        to: spec.key.to,
                        tolerance,
                    };
                    let a = blocking_past(p, t, slice, node, chan);
                    assert_eq!(a.source, AnswerSource::Pulled, "reference slice pull failed");
                    a.samples
                })
                .collect();
            assemble(runs.iter().map(Vec::as_slice), from, to)
        }
        None => {
            let a = blocking_past(p, t, q, node, chan);
            assert_eq!(a.source, AnswerSource::Pulled, "reference pull failed");
            a.samples
        }
    }
}

/// Runs the sliced pipeline over the workload under the given loss
/// traces and checks every completion. Returns (pulled, failed).
fn run_and_check(
    workload: &[(u8, u8)],
    request: Vec<bool>,
    reply: Vec<bool>,
) -> (usize, usize) {
    let base = SimTime::from_days(2);
    let mut p = sliced_proxy();
    let mut node = archived_node();
    let mut chan = scripted_channel(request, reply);
    let mut rp = ref_proxy();
    let mut ref_node = archived_node();
    let mut ref_chan = DownlinkChannel::perfect();

    let horizon: u64 = 24;
    let deadline = DEFAULT_DEADLINE;
    let drain = deadline.div_duration(EPOCH) + 2;
    let mut expectations = std::collections::HashMap::new();
    let mut submitted = 0usize;
    let mut multi_slice = 0u64;
    for e in 0..horizon + drain {
        let t = base + EPOCH * e;
        if e < horizon {
            for &(ep, code) in workload.iter().filter(|&&(ep, _)| ep as u64 % horizon == e) {
                let _ = ep;
                let q = decode(code);
                if code % 8 <= 4 {
                    multi_slice += 1;
                }
                let ticket = p.submit_query(t, q);
                expectations.insert(ticket, (q, t));
                submitted += 1;
            }
        }
        p.pump_queries_view(t, &mut [PumpSensor { gid: 0, node: &mut node, chan: &mut chan }]);
    }

    let done = p.take_completed_queries();
    prop_assert_eq!(done.len(), submitted, "every query must terminate");
    // Zero leaked slice sub-requests: nothing pending, nothing left in
    // the channel's pending-RPC table.
    prop_assert_eq!(p.pipeline().pending_queries(), 0);
    prop_assert_eq!(chan.async_in_flight(), 0);

    // Every multi-slice PAST submission took the sliced path.
    prop_assert_eq!(p.pipeline().stats().sliced, multi_slice);

    // Reply cache accounting balances.
    let s = p.pipeline().reply_cache().stats();
    prop_assert_eq!(s.lookups, s.hits + s.misses);
    prop_assert_eq!(s.incomplete_skips, 0, "all queried slice spans are fully archived");

    let mut pulled = 0usize;
    let mut failed = 0usize;
    for c in done {
        let (q, t_sub) = expectations.remove(&c.id).expect("unknown ticket");
        prop_assert!(
            c.completed_at <= t_sub + deadline + EPOCH,
            "query completed after its deadline"
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
                match (&c.answer, q) {
                    (PipelineAnswer::Series(a), PipelineQuery::Past { .. }) => {
                        let reference =
                            reference_past(q, t_sub, &mut rp, &mut ref_chan, &mut ref_node);
                        prop_assert_eq!(
                            &a.samples, &reference,
                            "slice-assembled answer diverged from the blocking reference"
                        );
                    }
                    (PipelineAnswer::Scalar(a), PipelineQuery::Now { .. }) => {
                        let PipelineAnswer::Scalar(r) =
                            rp.answer(t_sub, q, &mut ref_node, &mut ref_chan)
                        else {
                            panic!("NOW answers are scalar");
                        };
                        prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
                        prop_assert_eq!(a.value, r.value, "NOW value diverged");
                        prop_assert_eq!(a.sigma, r.sigma, "NOW sigma diverged");
                    }
                    _ => prop_assert!(false, "answer shape diverged from the query"),
                }
            }
            other => prop_assert!(false, "unexpected completion source {:?}", other),
        }
    }
    (pulled, failed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Any workload × any loss trace: slice-assembled answers are
    /// value-identical to the blocking per-slice reference; the rest
    /// fail honestly; nothing leaks; cache accounting balances.
    #[test]
    fn sliced_pipeline_matches_reference_or_fails_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..32),
        request in proptest::collection::vec(any::<bool>(), 1..64),
        reply in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        run_and_check(&workload, request, reply);
    }

    /// A lossless channel: everything completes and matches.
    #[test]
    fn sliced_lossless_completes_everything(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![true], vec![true]);
        prop_assert_eq!(pulled, workload.len());
        prop_assert_eq!(failed, 0);
    }

    /// A 100% request-loss burst: nothing completes (no slice can be
    /// fetched, so no partial assembly can masquerade as an answer),
    /// everything fails honestly, nothing leaks.
    #[test]
    fn sliced_total_burst_fails_everything_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![false], vec![true]);
        prop_assert_eq!(pulled, 0);
        prop_assert_eq!(failed, workload.len());
    }
}

/// One cached slice of the reference LRU: key index, samples, sigma.
type RefEntry = (u64, Vec<(SimTime, f64)>, f64);

/// The reference the reply cache must match: entries in recency order
/// (front coldest), moved to the back on a hit or a re-insert; an
/// insert into a full reference first drops the front.
struct RefLru {
    capacity: usize,
    entries: Vec<RefEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    incomplete_skips: u64,
}

impl RefLru {
    fn new(capacity: usize) -> Self {
        RefLru {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            incomplete_skips: 0,
        }
    }

    fn insert(&mut self, index: u64, complete: bool, samples: Vec<(SimTime, f64)>, sigma: f64) {
        if !complete {
            self.incomplete_skips += 1;
            return;
        }
        self.entries.retain(|e| e.0 != index);
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push((index, samples, sigma));
    }

    fn lookup(&mut self, index: u64) -> Option<(Vec<(SimTime, f64)>, f64)> {
        let Some(pos) = self.entries.iter().position(|e| e.0 == index) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let entry = self.entries.remove(pos);
        let out = (entry.1.clone(), entry.2);
        self.entries.push(entry);
        Some(out)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// The reply cache is one LRU: over any capacity and any trace of
    /// complete inserts (op 0), still-filling inserts (op 1) and
    /// lookups (op 2) over six slice windows, every lookup hits or
    /// misses with the same samples and sigma as the reference LRU of
    /// the same capacity, and the counters agree after every step.
    #[test]
    fn slice_cache_is_an_lru(
        capacity in 0usize..16,
        trace in proptest::collection::vec((0u8..3, 0u64..6), 1..200),
    ) {
        let mut cache = ReplyCache::new(capacity);
        let mut reference = RefLru::new(capacity.max(1));
        for (step, &(op, index)) in trace.iter().enumerate() {
            let span_end = SimTime::from_hours(index + 1);
            let key = WindowKey {
                sensor: 0,
                from: SimTime::from_hours(index),
                to: span_end - SimDuration::from_micros(1),
                tol_bits: 0.2f64.to_bits(),
            };
            if op == 2 {
                let hit = cache.lookup(key).map(|(samples, sigma)| (samples.to_vec(), sigma));
                prop_assert_eq!(hit, reference.lookup(index), "lookup at step {}", step);
            } else {
                // Every insert carries its own samples and sigma, so an
                // entry a re-insert should have replaced would show.
                let served_at = if op == 0 {
                    span_end
                } else {
                    span_end - SimDuration::from_micros(1)
                };
                let samples = vec![(SimTime::from_hours(index), step as f64)];
                let sigma = 0.1 + step as f64;
                cache.insert(key, span_end, served_at, sigma, samples.clone());
                reference.insert(index, op == 0, samples, sigma);
            }
            let s = cache.stats();
            prop_assert_eq!(
                (s.hits, s.misses, s.evictions, s.incomplete_skips),
                (reference.hits, reference.misses, reference.evictions, reference.incomplete_skips),
                "counters at step {}",
                step
            );
            prop_assert_eq!(s.lookups, s.hits + s.misses);
        }
    }
}

/// Containment serving falls out of slice assembly: once one window has
/// been pulled, a *different, narrower* window covered by the same
/// slices completes radio-free from the cached slices — the behavior
/// exact-match whole-window caching could never provide.
#[test]
fn sub_window_of_pulled_span_completes_radio_free() {
    let base = SimTime::from_days(2);
    let mut p = sliced_proxy();
    let mut node = archived_node();
    let mut chan = DownlinkChannel::perfect();

    let wide = PipelineQuery::Past {
        sensor: 0,
        from: SimTime::from_hours(1) + SimDuration::from_mins(7),
        to: SimTime::from_hours(3) + SimDuration::from_mins(11),
        tolerance: 0.2,
    };
    let t1 = p.submit_query(base, wide);
    for e in 0..20u64 {
        let t = base + EPOCH * e;
        p.pump_queries_view(t, &mut [PumpSensor { gid: 0, node: &mut node, chan: &mut chan }]);
        if p.pipeline().pending_queries() == 0 {
            break;
        }
    }
    let done = p.take_completed_queries();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, t1);
    assert_eq!(done[0].answer.source(), AnswerSource::Pulled);
    let rpcs_after_wide = p.pipeline().stats().rpcs_issued;
    assert_eq!(p.pipeline().stats().slice_rpcs, 3, "three slices pulled");

    // A narrower window over the same slices: radio-free, at submit.
    let narrow = PipelineQuery::Past {
        sensor: 0,
        from: SimTime::from_hours(1) + SimDuration::from_mins(37),
        to: SimTime::from_hours(2) + SimDuration::from_mins(41),
        tolerance: 0.2,
    };
    let t2 = p.submit_query(base + SimDuration::from_hours(1), narrow);
    let done = p.take_completed_queries();
    assert_eq!(done.len(), 1, "all-cached slices complete at submit");
    assert_eq!(done[0].id, t2);
    assert_eq!(done[0].answer.source(), AnswerSource::Pulled);
    assert_eq!(
        p.pipeline().stats().rpcs_issued,
        rpcs_after_wide,
        "no radio work for a contained window"
    );
    assert!(p.pipeline().stats().completed_cached >= 1);

    // And the radio-free answer is value-identical to the blocking
    // per-slice reference.
    let mut rp = ref_proxy();
    let mut ref_node = archived_node();
    let mut ref_chan = DownlinkChannel::perfect();
    let reference = reference_past(
        narrow,
        base + SimDuration::from_hours(1),
        &mut rp,
        &mut ref_chan,
        &mut ref_node,
    );
    match &done[0].answer {
        PipelineAnswer::Series(a) => assert_eq!(a.samples, reference),
        _ => panic!("PAST answers are series"),
    }
}

/// Parts with equal keys share one RPC whatever shape they belong to. A
/// PAST window that is exactly one slice's pull window spans fewer than
/// two slices, so it stays one whole-window part, and its key
/// equals that slice's part of a wider sliced query. In either submit
/// order the two coalesce: three slices cost three RPCs, both queries
/// complete in the same pump, and each answer equals its blocking
/// reference.
#[test]
fn aligned_window_coalesces_with_its_slice() {
    let base = SimTime::from_days(2);
    let tolerance = 0.2;
    // Slice 2's pull window, [2 h, 3 h − 1 µs].
    let aligned = PipelineQuery::Past {
        sensor: 0,
        from: SimTime::from_hours(2),
        to: SimTime::from_hours(3) - SimDuration::from_micros(1),
        tolerance,
    };
    // Spans slices 1, 2 and 3.
    let wide = PipelineQuery::Past {
        sensor: 0,
        from: SimTime::from_hours(1) + SimDuration::from_mins(7),
        to: SimTime::from_hours(3) + SimDuration::from_mins(11),
        tolerance,
    };
    for order in [[aligned, wide], [wide, aligned]] {
        let mut p = sliced_proxy();
        let mut node = archived_node();
        let mut chan = DownlinkChannel::perfect();
        let tickets = order.map(|q| p.submit_query(base, q));
        p.pump_queries_view(
            base,
            &mut [PumpSensor {
                gid: 0,
                node: &mut node,
                chan: &mut chan,
            }],
        );

        let stats = p.pipeline().stats();
        assert_eq!(stats.sliced, 1, "only the wide window is sliced");
        assert_eq!(stats.rpcs_issued, 3, "one RPC per slice");
        assert_eq!(
            stats.coalesced + stats.slice_coalesced,
            1,
            "the aligned window and its slice share one RPC"
        );
        let done = p.take_completed_queries();
        assert_eq!(done.len(), 2, "both queries complete in the first pump");
        assert_eq!(p.pipeline().pending_queries(), 0);
        assert_eq!(chan.async_in_flight(), 0);

        let mut rp = ref_proxy();
        let mut ref_node = archived_node();
        let mut ref_chan = DownlinkChannel::perfect();
        for (q, ticket) in order.into_iter().zip(tickets) {
            let c = done
                .iter()
                .find(|c| c.id == ticket)
                .expect("ticket completed");
            assert_eq!(c.completed_at, base);
            let reference = reference_past(q, base, &mut rp, &mut ref_chan, &mut ref_node);
            match &c.answer {
                PipelineAnswer::Series(a) => {
                    assert_eq!(a.source, AnswerSource::Pulled);
                    assert_eq!(
                        a.samples, reference,
                        "{q:?} diverged from its blocking reference"
                    );
                }
                other => panic!("PAST answers are series, got {other:?}"),
            }
        }
    }
}
