//! Per-query trace spans and the anomalous-outcome flight recorder.
//!
//! Every query, identified by its ticket, accumulates a time-stamped
//! event log: submit → cache hit/miss → coalesce → per-RPC
//! attempt/retransmit/defer → shed/forward/re-home → exactly one
//! terminal event carrying the completion cause, `answer_age`, and
//! sigma. Two tracers cooperate:
//!
//! * the **pipeline tracer** (one per proxy) records the radio-level
//!   life of a pipeline ticket — fast paths, coalescing, per-RPC
//!   attempts from the downlink channel's attempt log;
//! * the **router tracer** (one per fleet) records the deployment-level
//!   life of a fleet ticket — admission, shedding, forwarding,
//!   re-homing, fencing, and the terminal verdict. The deployment
//!   splices each finished pipeline trace into its fleet trace (minus
//!   the pipeline's own terminal event) before the router closes it.
//!
//! Finished traces with a non-`Ok` cause are retained whole in a
//! bounded [`FlightRecorder`] for post-mortem dumps; everything else
//! drains through a bounded FIFO the harness reads each epoch. All of
//! it is free when disabled: a tracer built with `enabled = false`
//! never allocates or records.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use presto_sim::{SimDuration, SimTime};

/// Why a query terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompletionCause {
    /// Completed with a real answer.
    Ok,
    /// Honest failure (deadline expiry, dead entry proxy, unreachable
    /// sensor, late drop).
    Failed,
    /// Rejected by a self-fenced minority proxy during a partition.
    FailedFenced,
}

/// One step in a query's life.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanEvent {
    /// The query entered the system.
    Submitted,
    /// Served without radio work; `path` names the fast path
    /// (`"fast"`, `"reply_cache"`).
    CacheHit {
        /// Which radio-free path served it.
        path: &'static str,
    },
    /// Missed every radio-free path and enqueued for a pull.
    CacheMiss,
    /// Attached to an RPC another query already had in flight.
    Coalesced,
    /// A new pull RPC was issued for this query's need.
    RpcIssued,
    /// First transmission of the RPC.
    RpcAttempt,
    /// A timeout-scheduled retransmission.
    RpcRetransmit,
    /// An attempt deferred by the retry energy budget.
    RpcDeferred,
    /// The RPC expired without a reply.
    RpcExpired,
    /// Shed from a hot home proxy to a cool peer.
    Shed {
        /// Home proxy.
        from: usize,
        /// Adopting proxy.
        to: usize,
    },
    /// Forwarded over the inter-proxy mesh.
    Forwarded {
        /// Sender.
        from: usize,
        /// Adopter.
        to: usize,
    },
    /// Re-homed to a survivor after the serving proxy died.
    Rerouted {
        /// The new serving proxy.
        to: usize,
    },
    /// Rejected at admission by a self-fenced proxy.
    FencedReject,
    /// Rejected at admission: the home proxy was down.
    Unreachable,
    /// The pipeline-level completion verdict, spliced into fleet traces
    /// in place of the pipeline's terminal event.
    PipelineDone {
        /// The pipeline's verdict.
        cause: CompletionCause,
    },
    /// The query's one terminal event.
    Terminal {
        /// The verdict.
        cause: CompletionCause,
        /// Serve-time staleness of the answer (`None` for answers
        /// carrying no data).
        answer_age: Option<SimDuration>,
        /// The answer's reported confidence width.
        sigma: f64,
    },
}

impl SpanEvent {
    /// True for the terminal variant.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SpanEvent::Terminal { .. })
    }
}

/// A time-stamped [`SpanEvent`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: SpanEvent,
}

/// A finished query's full event log, sorted by time (stably, so
/// same-instant events keep recording order).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The query ticket.
    pub ticket: u64,
    /// The events, time-sorted, ending in exactly one terminal.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// The terminal event, if the trace closed properly.
    pub fn terminal(&self) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.event.is_terminal())
    }

    /// The completion cause.
    pub fn cause(&self) -> Option<CompletionCause> {
        self.terminal().and_then(|e| match e.event {
            SpanEvent::Terminal { cause, .. } => Some(cause),
            _ => None,
        })
    }

    /// Number of terminal events (well-formed traces have exactly one).
    pub fn terminal_count(&self) -> usize {
        self.events.iter().filter(|e| e.event.is_terminal()).count()
    }

    /// True when event timestamps never decrease.
    pub fn is_monotone(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at <= w[1].at)
    }
}

/// Bounded retention of full traces for anomalous outcomes (honest
/// failures, fenced rejections) — the post-mortem record scenario bins
/// and tests dump when an assertion trips.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    traces: VecDeque<QueryTrace>,
    cap: usize,
    /// Traces evicted by the bound (visible so a smoke can tell
    /// "recorder empty" from "recorder overflowed").
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder bounded to `cap` traces.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            traces: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// Retains a trace, evicting the oldest beyond capacity.
    pub fn retain(&mut self, trace: QueryTrace) {
        self.traces.push_back(trace);
        while self.traces.len() > self.cap {
            self.traces.pop_front();
            self.dropped += 1;
        }
    }

    /// The retained trace for one ticket.
    pub fn find(&self, ticket: u64) -> Option<&QueryTrace> {
        self.traces.iter().find(|t| t.ticket == ticket)
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Traces evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Bound on finished traces awaiting collection.
pub const FINISHED_CAP: usize = 4096;
/// Flight-recorder bound.
pub const RECORDER_CAP: usize = 4096;

/// The per-tier trace collector: open event logs keyed by ticket, a
/// bounded FIFO of finished traces for the harness to drain, and the
/// flight recorder for anomalous outcomes.
#[derive(Clone, Debug)]
pub struct QueryTracer {
    enabled: bool,
    open: BTreeMap<u64, Vec<TraceEvent>>,
    finished: VecDeque<QueryTrace>,
    finished_cap: usize,
    /// Finished traces evicted before collection.
    finished_dropped: u64,
    recorder: FlightRecorder,
}

impl QueryTracer {
    /// Creates a tracer holding up to [`FINISHED_CAP`] finished traces
    /// and [`RECORDER_CAP`] flight-recorder entries. Evictions beyond
    /// either bound are counted ([`QueryTracer::finished_dropped`],
    /// [`FlightRecorder::dropped`]) rather than silent. When `enabled`
    /// is false every method is a no-op and nothing ever allocates.
    pub fn new(enabled: bool) -> Self {
        Self::with_caps(enabled, FINISHED_CAP, RECORDER_CAP)
    }

    /// Creates a tracer with explicit bounds on the finished-trace FIFO
    /// and the flight recorder.
    fn with_caps(enabled: bool, finished_cap: usize, recorder_cap: usize) -> Self {
        QueryTracer {
            enabled,
            open: BTreeMap::new(),
            finished: VecDeque::new(),
            finished_cap,
            finished_dropped: 0,
            recorder: FlightRecorder::new(recorder_cap),
        }
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event against `ticket`, opening its log on first use.
    pub fn record(&mut self, ticket: u64, at: SimTime, event: SpanEvent) {
        if !self.enabled {
            return;
        }
        self.open
            .entry(ticket)
            .or_default()
            .push(TraceEvent { at, event });
    }

    /// Splices externally collected events (a finished pipeline trace)
    /// into `ticket`'s open log. Terminal events are demoted to
    /// [`SpanEvent::PipelineDone`] so the merged trace still has exactly
    /// one terminal — the one this tracer's [`QueryTracer::finish`]
    /// appends. Unknown tickets are ignored (the fleet-level trace was
    /// disabled or already closed).
    pub fn absorb(&mut self, ticket: u64, events: Vec<TraceEvent>) {
        if !self.enabled {
            return;
        }
        let Some(log) = self.open.get_mut(&ticket) else {
            return;
        };
        log.extend(events.into_iter().map(|e| match e.event {
            SpanEvent::Terminal { cause, .. } => TraceEvent {
                at: e.at,
                event: SpanEvent::PipelineDone { cause },
            },
            _ => e,
        }));
    }

    /// Closes `ticket`'s trace with its terminal event, stably
    /// time-sorts the log, retains it in the flight recorder when the
    /// cause is anomalous, and queues it for collection.
    pub fn finish(
        &mut self,
        ticket: u64,
        at: SimTime,
        cause: CompletionCause,
        answer_age: Option<SimDuration>,
        sigma: f64,
    ) {
        if !self.enabled {
            return;
        }
        let mut events = self.open.remove(&ticket).unwrap_or_default();
        events.push(TraceEvent {
            at,
            event: SpanEvent::Terminal {
                cause,
                answer_age,
                sigma,
            },
        });
        events.sort_by_key(|e| e.at);
        let trace = QueryTrace { ticket, events };
        if cause != CompletionCause::Ok {
            self.recorder.retain(trace.clone());
        }
        self.finished.push_back(trace);
        while self.finished.len() > self.finished_cap {
            self.finished.pop_front();
            self.finished_dropped += 1;
        }
    }

    /// Drains every finished trace recorded since the last call.
    pub fn take_finished(&mut self) -> Vec<QueryTrace> {
        self.finished.drain(..).collect()
    }

    /// Open (un-terminated) logs — the orphan probe: zero after a full
    /// drain.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Drops every open log (proxy crash: RAM-resident trace state dies
    /// with the pipeline queue; the fleet tier still closes its own
    /// trace honestly).
    pub fn clear_open(&mut self) {
        self.open.clear();
    }

    /// Finished traces evicted before collection.
    pub fn finished_dropped(&self) -> u64 {
        self.finished_dropped
    }

    /// The anomalous-outcome recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = QueryTracer::new(false);
        tr.record(1, t(0), SpanEvent::Submitted);
        tr.finish(1, t(1), CompletionCause::Failed, None, f64::INFINITY);
        assert_eq!(tr.open_count(), 0);
        assert!(tr.take_finished().is_empty());
        assert!(tr.recorder().is_empty());
    }

    #[test]
    fn trace_closes_with_one_terminal_and_sorts() {
        let mut tr = QueryTracer::new(true);
        tr.record(7, t(5), SpanEvent::CacheMiss);
        tr.record(7, t(1), SpanEvent::Submitted);
        tr.finish(7, t(9), CompletionCause::Ok, Some(SimDuration::from_secs(2)), 0.1);
        let done = tr.take_finished();
        assert_eq!(done.len(), 1);
        let trace = &done[0];
        assert!(trace.is_monotone());
        assert_eq!(trace.terminal_count(), 1);
        assert_eq!(trace.cause(), Some(CompletionCause::Ok));
        assert_eq!(trace.events[0].event, SpanEvent::Submitted);
        assert_eq!(tr.open_count(), 0);
        assert!(tr.recorder().is_empty(), "Ok outcomes are not retained");
    }

    #[test]
    fn failed_outcomes_reach_the_recorder() {
        let mut tr = QueryTracer::new(true);
        tr.record(3, t(0), SpanEvent::Submitted);
        tr.record(3, t(0), SpanEvent::FencedReject);
        tr.finish(3, t(0), CompletionCause::FailedFenced, None, f64::INFINITY);
        let rec = tr.recorder().find(3).expect("retained");
        assert_eq!(rec.cause(), Some(CompletionCause::FailedFenced));
        assert_eq!(
            rec.events[1].event,
            SpanEvent::FencedReject,
            "cause chain preserved in order"
        );
    }

    #[test]
    fn absorb_demotes_inner_terminal() {
        let mut tr = QueryTracer::new(true);
        tr.record(1, t(0), SpanEvent::Submitted);
        tr.absorb(
            1,
            vec![
                TraceEvent { at: t(2), event: SpanEvent::RpcIssued },
                TraceEvent {
                    at: t(4),
                    event: SpanEvent::Terminal {
                        cause: CompletionCause::Ok,
                        answer_age: None,
                        sigma: 0.0,
                    },
                },
            ],
        );
        tr.finish(1, t(4), CompletionCause::Ok, None, 0.0);
        let done = tr.take_finished().remove(0);
        assert_eq!(done.terminal_count(), 1, "absorbed terminal demoted");
        assert!(done
            .events
            .iter()
            .any(|e| e.event == SpanEvent::PipelineDone { cause: CompletionCause::Ok }));
    }

    #[test]
    fn recorder_bounds_and_counts_drops() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..3 {
            rec.retain(QueryTrace { ticket: i, events: Vec::new() });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        assert!(rec.find(0).is_none(), "oldest evicted");
        assert!(rec.find(2).is_some());
    }

    #[test]
    fn configured_caps_bound_both_queues_and_count_evictions() {
        // Tiny caps so both eviction paths trip: 2 finished, 1 recorded.
        let mut tr = QueryTracer::with_caps(true, 2, 1);
        for i in 0..4u64 {
            tr.record(i, t(i), SpanEvent::Submitted);
            tr.finish(i, t(i + 1), CompletionCause::Failed, None, f64::INFINITY);
        }
        // Finished FIFO: 4 closed, cap 2 → 2 dropped, newest retained.
        assert_eq!(tr.finished_dropped(), 2);
        let kept: Vec<u64> = tr.take_finished().iter().map(|q| q.ticket).collect();
        assert_eq!(kept, vec![2, 3]);
        // Recorder: every Failed trace was offered, cap 1 → 3 dropped,
        // and the drop count is exported rather than silent.
        assert_eq!(tr.recorder().len(), 1);
        assert_eq!(tr.recorder().dropped(), 3);
        assert!(tr.recorder().find(3).is_some(), "newest survives");
        assert!(tr.recorder().find(0).is_none(), "oldest evicted");
    }

    #[test]
    fn clear_open_drops_orphans() {
        let mut tr = QueryTracer::new(true);
        tr.record(1, t(0), SpanEvent::Submitted);
        assert_eq!(tr.open_count(), 1);
        tr.clear_open();
        assert_eq!(tr.open_count(), 0);
    }
}
