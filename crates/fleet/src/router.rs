//! The fleet router: admission control, shedding, and honest
//! termination for cross-proxy query traffic.
//!
//! Every user query enters the fleet at its **entry proxy** (where the
//! user is attached) and is *served* by whichever proxy currently owns
//! the work — normally the same proxy, a peer when the entry proxy is
//! hot enough to shed, an adopter after a failover. The router is a
//! pure state machine: the deployment feeds it per-proxy pressure
//! readings and pipeline completions, and it decides routing, tracks
//! one ticket per query, and guarantees exactly one terminal outcome —
//! a real answer, or an honest `Failed` (sigma ∞) by the query's
//! deadline plus a small collection grace. Late answers (a completion
//! crossing the mesh after the deadline fired) are dropped, never
//! double-reported.
//!
//! Shedding policy: a proxy is **hot** when its pressure score —
//! outstanding pipeline queries, plus weighted attempt-budget
//! saturation and downlink retry-budget depletion — exceeds the shed
//! threshold. Only archive-range queries (PAST, aggregate) shed: their
//! answers come from the sensor's flash archive, identical no matter
//! which proxy pulls them. NOW queries stay home, where the cache,
//! model replica, and freshness semantics live. A query sheds to the
//! least-pressured Live peer, and only when that peer is cooler by a
//! margin and enough deadline remains to pay the mesh round trip —
//! the deadline-versus-retry-budget trade from query–sensor matching.
//!
//! Hot is a *latched episode*, not an instantaneous comparison. The
//! deployment feeds an epoch-level pressure reading into
//! [`FleetRouter::observe_pressures`], which smooths each proxy's score
//! with an EWMA (weight 0.4); a proxy leaves the hot state only when the
//! smoothed score falls a hysteresis margin (3 score units) below the
//! shed threshold, and may start a *new* episode only after a refractory
//! window (2 minutes) since the last one began. A raw intra-epoch burst can still open an episode at
//! routing time (queues build faster than epochs tick), but a proxy
//! oscillating around the threshold cannot flap the shedding decision
//! every submission.

use std::collections::BTreeMap;

use presto_proxy::{
    Answer, AnswerSource, CompletedQuery, PastAnswer, PipelineAnswer, PipelineQuery, QueryClass,
    QuerySensorMatcher, DEFAULT_DEADLINE,
};
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::{CompletionCause, LogHistogram, QueryTracer, SpanEvent};

/// Minimum remaining deadline for a forward to be worth the mesh round
/// trip; queries with less stay home.
const FORWARD_SLACK: SimDuration = SimDuration::from_mins(2);

/// Collection grace past the deadline before the router fails a ticket
/// itself (covers pipeline completion + mesh return time).
const EXPIRY_GRACE: SimDuration = SimDuration::from_mins(3);

/// EWMA weight for the epoch-level pressure smoothing (1.0 = no
/// smoothing, track the raw score exactly).
const EWMA_ALPHA: f64 = 0.4;

/// Hysteresis: a hot proxy cools only when its smoothed score drops this
/// far *below* the shed threshold.
const SHED_EXIT_MARGIN: f64 = 3.0;

/// Refractory window: minimum spacing between the starts of two shed
/// episodes on the same proxy (anti-flap).
const SHED_EPISODE_WINDOW: SimDuration = SimDuration::from_mins(2);

/// Router parameters. The router always records a fleet-level trace
/// span per ticket (admission, shed, forward, re-home, fencing, terminal
/// verdict): the fleet tier is deployment-scale, not hot-path, and the
/// flight recorder is the partition post-mortem record.
#[derive(Clone, Debug)]
pub struct FleetRouterConfig {
    /// Master switch: off reproduces the pre-fleet behavior (every
    /// query served where it enters), for A/B experiments.
    pub shed_enabled: bool,
    /// Pressure score above which a proxy sheds range queries.
    // presto-lint: allow(knob, tests/fleet_equivalence.rs and tests/fleet_partition.rs: shedding at test load)
    pub shed_threshold: f64,
    /// How much cooler (score units) a peer must be to receive a shed.
    // presto-lint: allow(knob, tests/fleet_equivalence.rs and tests/fleet_partition.rs: shedding at test load)
    pub shed_margin: f64,
    /// Latency classes for per-query deadlines (query–sensor
    /// matching); empty falls back to [`DEFAULT_DEADLINE`] for every
    /// query.
    pub latency_classes: Vec<QueryClass>,
}

impl Default for FleetRouterConfig {
    fn default() -> Self {
        FleetRouterConfig {
            shed_enabled: true,
            shed_threshold: 12.0,
            shed_margin: 4.0,
            latency_classes: Vec::new(),
        }
    }
}

/// One proxy's admission-control reading, computed by the deployment
/// each submission from live pipeline state.
#[derive(Clone, Copy, Debug)]
pub struct ProxyPressure {
    /// Outstanding pipeline queries.
    pub pending: usize,
    /// Fraction of the per-epoch attempt budget the last pump spent
    /// (1.0 = saturated).
    pub saturation: f64,
    /// Downlink retry-budget depletion across the channels the proxy
    /// drives (0 = full buckets, 1 = dry).
    pub depletion: f64,
    /// Membership grade is Live.
    pub live: bool,
}

impl ProxyPressure {
    /// Scalar pressure score. Pending queries dominate; saturation and
    /// budget depletion break ties and catch a proxy whose queue is
    /// short only because everything is stuck in retransmission.
    pub fn score(&self) -> f64 {
        self.pending as f64 + 8.0 * self.saturation + 4.0 * self.depletion
    }
}

/// Where the router sent a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteAction {
    /// Submit into this proxy's pipeline directly (it is the entry
    /// proxy).
    Local {
        /// The serving proxy.
        proxy: usize,
    },
    /// Forward over the mesh to this proxy (shed, or re-homed owner).
    Forward {
        /// The serving proxy.
        proxy: usize,
    },
}

/// A routed query's terminal record.
#[derive(Clone, Debug)]
pub struct FleetCompletion {
    /// The fleet ticket.
    pub ticket: u64,
    /// The query as submitted.
    pub query: PipelineQuery,
    /// Entry proxy (where the user attached).
    pub entry: usize,
    /// Proxy that produced the terminal answer (== entry for router
    /// expiry failures).
    pub served_by: usize,
    /// True when the query crossed the mesh (shed or failover resume).
    pub forwarded: bool,
    /// The answer.
    pub answer: PipelineAnswer,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Terminal time at the router.
    pub completed_at: SimTime,
    /// How stale the answer's underlying data is at the terminal:
    /// `completed_at` minus the freshest data instant the answer
    /// reflects. `None` for failures and empty aggregates — an honest
    /// "no data" rather than a fabricated age.
    pub answer_age: Option<SimDuration>,
}

/// Router counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetRouterStats {
    /// Queries routed.
    pub submitted: u64,
    /// Queries shed from a hot entry proxy to a peer.
    pub shed: u64,
    /// Forwards issued because the serving proxy differed from entry
    /// (re-homed sensors, failover resumes).
    pub rerouted: u64,
    /// Terminals answered by the entry proxy's own pipeline.
    pub completed_local: u64,
    /// Terminals whose answer crossed the mesh back.
    pub completed_remote: u64,
    /// Tickets the router failed honestly at deadline + grace.
    pub failed_deadline: u64,
    /// Tickets failed because their entry proxy died (no one left to
    /// deliver the answer to).
    pub failed_entry_dead: u64,
    /// Outstanding queries re-submitted to an adopter after their
    /// serving proxy died.
    pub resumed: u64,
    /// Late completions dropped after a terminal was already recorded.
    pub late_dropped: u64,
    /// Shed episodes opened (a proxy newly latched hot).
    pub shed_episodes: u64,
    /// Tickets failed because their entry or serving proxy was fenced
    /// (up but outside the membership quorum).
    pub failed_fenced: u64,
    /// Sheddable (PAST or aggregate) submissions whose padded window no
    /// time-range index entry covers: the shed gate keeps them home.
    pub unarchived: u64,
}

presto_telemetry::observe_counters!(FleetRouterStats {
    submitted,
    shed,
    rerouted,
    completed_local,
    completed_remote,
    failed_deadline,
    failed_entry_dead,
    resumed,
    late_dropped,
    shed_episodes,
    failed_fenced,
    unarchived,
});

#[derive(Clone, Debug)]
struct Ticket {
    query: PipelineQuery,
    entry: usize,
    serving: usize,
    forwarded: bool,
    submitted_at: SimTime,
    deadline: SimTime,
}

/// The fleet router.
pub struct FleetRouter {
    config: FleetRouterConfig,
    matcher: QuerySensorMatcher,
    next_ticket: u64,
    open: BTreeMap<u64, Ticket>,
    /// (serving proxy, its pipeline ticket) → fleet ticket.
    by_proxy_ticket: BTreeMap<(usize, u64), u64>,
    completed: Vec<FleetCompletion>,
    /// EWMA-smoothed pressure score per proxy (grown on demand).
    smoothed: Vec<f64>,
    /// Latched shed state per proxy.
    hot: Vec<bool>,
    /// When each proxy's most recent shed episode opened.
    last_episode: Vec<Option<SimTime>>,
    stats: FleetRouterStats,
    /// Fleet-level trace spans.
    tracer: QueryTracer,
    /// End-to-end latency of every terminal, in microseconds.
    latency: LogHistogram,
    /// Serve-time data staleness of answers that carried data.
    answer_age: LogHistogram,
}

impl FleetRouter {
    /// Creates a router.
    pub fn new(config: FleetRouterConfig) -> Self {
        let mut matcher = QuerySensorMatcher::new();
        for class in &config.latency_classes {
            matcher.register(*class);
        }
        let tracer = QueryTracer::new(true);
        FleetRouter {
            matcher,
            next_ticket: 1,
            open: BTreeMap::new(),
            by_proxy_ticket: BTreeMap::new(),
            completed: Vec::new(),
            smoothed: Vec::new(),
            hot: Vec::new(),
            last_episode: Vec::new(),
            stats: FleetRouterStats::default(),
            tracer,
            latency: LogHistogram::new(),
            answer_age: LogHistogram::new(),
            config,
        }
    }

    fn ensure_proxy(&mut self, proxy: usize) {
        if self.smoothed.len() <= proxy {
            self.smoothed.resize(proxy + 1, 0.0);
            self.hot.resize(proxy + 1, false);
            self.last_episode.resize(proxy + 1, None);
        }
    }

    /// Opens a shed episode for `proxy` if it is not already hot, its
    /// score clears the threshold, and the refractory window since the
    /// last episode has passed.
    fn try_enter_hot(&mut self, t: SimTime, proxy: usize, score: f64) {
        self.ensure_proxy(proxy);
        if self.hot[proxy] || score < self.config.shed_threshold {
            return;
        }
        if let Some(opened) = self.last_episode[proxy] {
            if t < opened + SHED_EPISODE_WINDOW {
                return;
            }
        }
        self.hot[proxy] = true;
        self.last_episode[proxy] = Some(t);
        self.stats.shed_episodes += 1;
    }

    /// Feeds one epoch's pressure readings: updates every proxy's EWMA,
    /// cools proxies whose smoothed score fell below the exit band
    /// (threshold minus hysteresis margin), and opens episodes for
    /// proxies whose *smoothed* score clears the threshold. Call once
    /// per epoch from the deployment.
    pub fn observe_pressures(&mut self, t: SimTime, pressures: &[ProxyPressure]) {
        self.ensure_proxy(pressures.len().saturating_sub(1));
        let alpha = EWMA_ALPHA;
        for (p, reading) in pressures.iter().enumerate() {
            let s = alpha * reading.score() + (1.0 - alpha) * self.smoothed[p];
            self.smoothed[p] = s;
            if self.hot[p] {
                if s <= self.config.shed_threshold - SHED_EXIT_MARGIN {
                    self.hot[p] = false;
                }
            } else {
                self.try_enter_hot(t, p, s);
            }
        }
    }

    /// Whether `proxy` is currently inside a shed episode.
    pub fn is_hot(&self, proxy: usize) -> bool {
        self.hot.get(proxy).copied().unwrap_or(false)
    }

    /// Counters.
    pub fn stats(&self) -> FleetRouterStats {
        self.stats
    }

    /// The fleet-level trace collector.
    pub fn tracer(&self) -> &QueryTracer {
        &self.tracer
    }

    /// Mutable access to the trace collector (draining finished traces).
    pub fn tracer_mut(&mut self) -> &mut QueryTracer {
        &mut self.tracer
    }

    /// The fleet ticket currently bound to `(proxy, proxy_ticket)`, if
    /// any — the splice lookup the deployment uses to merge a finished
    /// pipeline trace into its fleet trace *before* the binding is
    /// consumed by [`FleetRouter::on_pipeline_completion`].
    pub fn fleet_ticket(&self, proxy: usize, proxy_ticket: u64) -> Option<u64> {
        self.by_proxy_ticket.get(&(proxy, proxy_ticket)).copied()
    }

    /// End-to-end latency of every terminal (microsecond histogram).
    pub fn latency_hist(&self) -> &LogHistogram {
        &self.latency
    }

    /// Serve-time data staleness of answers that carried data
    /// (microsecond histogram).
    pub fn answer_age_hist(&self) -> &LogHistogram {
        &self.answer_age
    }

    /// Closes a ticket's trace and feeds the fleet histograms: every
    /// terminal records its end-to-end latency; answers carrying data
    /// record their serve-time staleness too.
    fn close_trace(
        &mut self,
        ticket: u64,
        t: SimTime,
        cause: CompletionCause,
        latency: SimDuration,
        answer_age: Option<SimDuration>,
        sigma: f64,
    ) {
        // Age coverage is exactly the Ok set: a `Failed` or
        // `FailedFenced` terminal reflects no data and carries no age,
        // whatever an upstream completion site stamped (normalized here
        // so every failure path — expiry, fencing, unreachable, dead
        // proxy, failed pipeline answer — is consistent by
        // construction).
        let answer_age = if cause == CompletionCause::Ok {
            answer_age
        } else {
            None
        };
        self.latency.record_duration(latency);
        if let Some(age) = answer_age {
            self.answer_age.record_duration(age);
        }
        self.tracer.finish(ticket, t, cause, answer_age, sigma);
    }

    /// Tickets awaiting a terminal (leak probe: zero once every
    /// submitted query completed or expired).
    pub fn open_tickets(&self) -> usize {
        self.open.len()
    }

    /// The per-query deadline for a tolerance, from the latency
    /// classes (falls back to [`DEFAULT_DEADLINE`]).
    pub fn deadline_for(&self, tolerance: f64) -> SimDuration {
        self.matcher
            .deadline_for(tolerance)
            .unwrap_or(DEFAULT_DEADLINE)
    }

    /// Opens and immediately fails a ticket whose entry proxy is
    /// unreachable at submission (the user's connection has nowhere to
    /// land — real deployments refuse the connection; the fleet
    /// records the honest failure so workload accounting stays exact).
    pub fn fail_unreachable(&mut self, t: SimTime, entry: usize, query: PipelineQuery) -> u64 {
        self.stats.failed_entry_dead += 1;
        self.refuse(
            t,
            entry,
            query,
            SpanEvent::Unreachable,
            CompletionCause::Failed,
        )
    }

    /// Opens and immediately fails a ticket whose entry or serving
    /// proxy is fenced — up, but on the minority side of a mesh
    /// partition. A fenced proxy must not accept new work it could
    /// answer divergently from the quorum side, so the fleet refuses
    /// honestly at admission instead of leaking a ticket into a
    /// pipeline nobody trusts.
    pub fn fail_fenced(&mut self, t: SimTime, entry: usize, query: PipelineQuery) -> u64 {
        self.stats.failed_fenced += 1;
        self.refuse(
            t,
            entry,
            query,
            SpanEvent::FencedReject,
            CompletionCause::FailedFenced,
        )
    }

    /// Opens a ticket at `t` and fails it on the spot: the admission
    /// refusal behind [`FleetRouter::fail_unreachable`] and
    /// [`FleetRouter::fail_fenced`], traced with `event`.
    fn refuse(
        &mut self,
        t: SimTime,
        entry: usize,
        query: PipelineQuery,
        event: SpanEvent,
        cause: CompletionCause,
    ) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.stats.submitted += 1;
        self.tracer.record(ticket, t, SpanEvent::Submitted);
        self.tracer.record(ticket, t, event);
        let tk = Ticket {
            query,
            entry,
            serving: entry,
            forwarded: false,
            submitted_at: t,
            deadline: t,
        };
        self.fail(t, ticket, tk, cause);
        ticket
    }

    /// The one failure terminal: closes `ticket`'s trace with no age and
    /// sigma ∞, and queues the honest failure answer as its completion,
    /// attributed to its entry proxy.
    fn fail(&mut self, t: SimTime, ticket: u64, tk: Ticket, cause: CompletionCause) {
        self.close_trace(ticket, t, cause, t - tk.submitted_at, None, f64::INFINITY);
        self.completed.push(FleetCompletion {
            ticket,
            query: tk.query,
            entry: tk.entry,
            served_by: tk.entry,
            forwarded: tk.forwarded,
            answer: Self::failed_answer(&tk.query),
            submitted_at: tk.submitted_at,
            completed_at: t,
            answer_age: None,
        });
    }

    /// Routes one query: opens a ticket and decides where it runs.
    /// `pressures[p]` is proxy `p`'s current reading; `serving` is the
    /// sensor's current owner per the assignment; `range_archived`
    /// gates shedding on the time-range index saying *some* proxy
    /// holds data overlapping the window (a range nobody archived is
    /// not worth a mesh round trip; [`FleetRouterStats::unarchived`]
    /// counts the sheddable queries it gates). Returns `(ticket, deadline,
    /// action)`; the caller performs the submit or mesh send and then
    /// calls [`FleetRouter::bind`] when a pipeline ticket exists.
    #[allow(clippy::too_many_arguments)]
    pub fn route(
        &mut self,
        t: SimTime,
        entry: usize,
        serving: usize,
        query: PipelineQuery,
        tolerance: f64,
        pressures: &[ProxyPressure],
        range_archived: bool,
    ) -> (u64, SimTime, RouteAction) {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.stats.submitted += 1;
        self.tracer.record(ticket, t, SpanEvent::Submitted);
        let deadline = t + self.deadline_for(tolerance);

        let sheddable = matches!(
            query,
            PipelineQuery::Past { .. } | PipelineQuery::Aggregate { .. }
        );
        if sheddable && !range_archived {
            self.stats.unarchived += 1;
        }
        let may_shed =
            self.config.shed_enabled && sheddable && range_archived && deadline - t > FORWARD_SLACK;
        let mut target = serving;
        let mut shed = false;
        if may_shed {
            // A raw intra-epoch burst may open an episode right here —
            // queues can outrun the epoch-level smoothing — but the
            // *decision* reads the latched state, so a score jittering
            // around the threshold cannot flap it per submission.
            if let Some(reading) = pressures.get(serving) {
                self.try_enter_hot(t, serving, reading.score());
            }
        }
        if may_shed && self.is_hot(serving) && serving < pressures.len() {
            let coolest = pressures
                .iter()
                .enumerate()
                .filter(|&(p, r)| p != serving && r.live)
                .min_by(|a, b| a.1.score().total_cmp(&b.1.score()));
            if let Some((peer, reading)) = coolest {
                if reading.score() + self.config.shed_margin <= pressures[serving].score() {
                    target = peer;
                    shed = true;
                    self.stats.shed += 1;
                    self.tracer.record(
                        ticket,
                        t,
                        SpanEvent::Shed {
                            from: serving,
                            to: peer,
                        },
                    );
                }
            }
        }

        let forwarded = target != entry;
        if forwarded && !shed {
            self.stats.rerouted += 1;
        }
        if forwarded {
            self.tracer.record(
                ticket,
                t,
                SpanEvent::Forwarded {
                    from: entry,
                    to: target,
                },
            );
        }
        self.open.insert(
            ticket,
            Ticket {
                query,
                entry,
                serving: target,
                forwarded,
                submitted_at: t,
                deadline,
            },
        );
        let action = if forwarded {
            RouteAction::Forward { proxy: target }
        } else {
            RouteAction::Local { proxy: target }
        };
        (ticket, deadline, action)
    }

    /// Records the pipeline ticket a fleet ticket runs under at its
    /// serving proxy (on local submission, or when a Forward is
    /// adopted).
    pub fn bind(&mut self, ticket: u64, proxy: usize, proxy_ticket: u64) {
        if let Some(tk) = self.open.get_mut(&ticket) {
            tk.serving = proxy;
            self.by_proxy_ticket.insert((proxy, proxy_ticket), ticket);
        }
    }

    /// Feeds one pipeline completion from `proxy`. When the completion
    /// belongs to a fleet ticket served where it entered, the terminal
    /// is recorded here and `None` returns; when the answer must cross
    /// the mesh home, the `(ticket, entry)` pair returns and the
    /// caller sends a [`crate::FleetMsg::Completion`].
    pub fn on_pipeline_completion(
        &mut self,
        t: SimTime,
        proxy: usize,
        completion: &CompletedQuery,
    ) -> Option<(u64, usize)> {
        let Some(ticket) = self.by_proxy_ticket.remove(&(proxy, completion.id)) else {
            // No binding: the router already expired the ticket (and
            // dropped its binding), or the proxy's pipeline was reset
            // since. Either way this answer has no one waiting.
            self.stats.late_dropped += 1;
            return None;
        };
        let Some(tk) = self.open.get(&ticket) else {
            // The router already expired this ticket (late completion).
            self.stats.late_dropped += 1;
            return None;
        };
        if tk.entry == proxy {
            self.terminal(t, ticket, proxy, completion.answer.clone());
            None
        } else {
            Some((ticket, tk.entry))
        }
    }

    /// Feeds a Completion message that arrived back at the entry proxy.
    pub fn on_completion_msg(&mut self, t: SimTime, ticket: u64, answer: PipelineAnswer) {
        if !self.open.contains_key(&ticket) {
            self.stats.late_dropped += 1;
            return;
        }
        let serving = self.open[&ticket].serving;
        self.terminal(t, ticket, serving, answer);
    }

    fn terminal(&mut self, t: SimTime, ticket: u64, served_by: usize, answer: PipelineAnswer) {
        let Some(tk) = self.open.remove(&ticket) else {
            // Callers check membership, but a double completion must not
            // crash the router: count it as a late arrival and move on.
            self.stats.late_dropped += 1;
            return;
        };
        if tk.forwarded {
            self.stats.completed_remote += 1;
        } else {
            self.stats.completed_local += 1;
        }
        let answer_age = answer.age_at(t);
        let cause = if answer.source() == AnswerSource::Failed {
            CompletionCause::Failed
        } else {
            CompletionCause::Ok
        };
        self.close_trace(
            ticket,
            t,
            cause,
            t - tk.submitted_at,
            answer_age,
            answer_sigma(&answer),
        );
        self.completed.push(FleetCompletion {
            ticket,
            query: tk.query,
            entry: tk.entry,
            served_by,
            forwarded: tk.forwarded,
            answer,
            submitted_at: tk.submitted_at,
            completed_at: t,
            answer_age,
        });
    }

    /// The honest failure answer for a ticket the router fails itself:
    /// a NaN scalar with sigma ∞, or an empty Failed series. Unlike the
    /// pipeline's failure answer, which still carries the proxy's last
    /// cached value (NOW) or the cached part of the window (PAST), the
    /// router holds no cache to fill it from.
    fn failed_answer(query: &PipelineQuery) -> PipelineAnswer {
        match query {
            PipelineQuery::Now { .. } | PipelineQuery::Aggregate { .. } => {
                PipelineAnswer::Scalar(Answer {
                    value: f64::NAN,
                    sigma: f64::INFINITY,
                    source: AnswerSource::Failed,
                    latency: SimDuration::ZERO,
                    data_through: None,
                })
            }
            PipelineQuery::Past { .. } => PipelineAnswer::Series(PastAnswer {
                samples: Vec::new(),
                source: AnswerSource::Failed,
                latency: SimDuration::ZERO,
            }),
        }
    }

    /// Fails every ticket past its deadline plus the collection grace:
    /// queries whose forward the mesh dropped, whose completion died on
    /// the way home, or whose serving proxy silently vanished all
    /// terminate honestly here.
    pub fn expire(&mut self, t: SimTime) {
        let grace = EXPIRY_GRACE;
        let overdue: Vec<u64> = self
            .open
            .iter()
            .filter(|(_, tk)| t >= tk.deadline + grace)
            .map(|(&id, _)| id)
            .collect();
        for ticket in overdue {
            let Some(tk) = self.open.remove(&ticket) else { continue };
            self.by_proxy_ticket.retain(|_, &mut v| v != ticket);
            self.stats.failed_deadline += 1;
            self.fail(t, ticket, tk, CompletionCause::Failed);
        }
    }

    /// Handles a proxy death declaration: tickets whose *entry* died
    /// fail honestly (no one is attached to receive the answer);
    /// tickets whose *serving* proxy died with deadline remaining are
    /// returned for resumption at the sensor's new owner — the caller
    /// re-submits or re-forwards and then [`FleetRouter::bind`]s. The
    /// dead proxy's pipeline-ticket bindings are dropped either way
    /// (its pipeline RAM is gone).
    pub fn on_proxy_dead(
        &mut self,
        t: SimTime,
        dead: usize,
    ) -> Vec<(u64, PipelineQuery, SimTime, usize)> {
        self.by_proxy_ticket.retain(|&(p, _), _| p != dead);
        let affected: Vec<u64> = self
            .open
            .iter()
            .filter(|(_, tk)| tk.entry == dead || tk.serving == dead)
            .map(|(&id, _)| id)
            .collect();
        let mut resume = Vec::new();
        for ticket in affected {
            let Some(tk) = self.open.get(&ticket).cloned() else { continue };
            if tk.entry == dead {
                self.open.remove(&ticket);
                self.stats.failed_entry_dead += 1;
                self.fail(t, ticket, tk, CompletionCause::Failed);
            } else if tk.deadline > t {
                // `resumed` is counted when the caller actually
                // re-routes ([`FleetRouter::mark_rerouted`]) — a ticket
                // with no adopter available expires instead.
                resume.push((ticket, tk.query, tk.deadline, tk.entry));
            }
            // Serving died with no deadline left: expire() fails it.
        }
        resume
    }

    /// Marks a resumed ticket as re-forwarded to a new serving proxy
    /// (mesh path; [`FleetRouter::bind`] fires on adoption).
    pub fn mark_rerouted(&mut self, t: SimTime, ticket: u64, proxy: usize) {
        if let Some(tk) = self.open.get_mut(&ticket) {
            tk.serving = proxy;
            tk.forwarded = true;
            self.stats.resumed += 1;
            self.tracer
                .record(ticket, t, SpanEvent::Rerouted { to: proxy });
        }
    }

    /// Drains terminals recorded since the last call.
    pub fn take_completed(&mut self) -> Vec<FleetCompletion> {
        std::mem::take(&mut self.completed)
    }
}

/// The confidence a trace records for an answer: the scalar's sigma,
/// zero for a series (raw samples carry no model error).
fn answer_sigma(answer: &PipelineAnswer) -> f64 {
    match answer {
        PipelineAnswer::Scalar(a) => a.sigma,
        PipelineAnswer::Series(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn past(sensor: u16) -> PipelineQuery {
        PipelineQuery::Past {
            sensor,
            from: SimTime::from_hours(1),
            to: SimTime::from_hours(2),
            tolerance: 0.2,
        }
    }

    fn cool() -> ProxyPressure {
        ProxyPressure {
            pending: 0,
            saturation: 0.0,
            depletion: 0.0,
            live: true,
        }
    }

    fn hot(pending: usize) -> ProxyPressure {
        ProxyPressure {
            pending,
            saturation: 1.0,
            depletion: 0.5,
            live: true,
        }
    }

    #[test]
    fn cool_proxy_serves_locally() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let (ticket, _, action) =
            r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[cool(), cool()], true);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
        assert_eq!(r.open_tickets(), 1);
        r.bind(ticket, 0, 77);
        let done = CompletedQuery {
            id: 77,
            query: past(1),
            answer: FleetRouter::failed_answer(&past(1)),
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(31),
        };
        assert!(r.on_pipeline_completion(SimTime::from_secs(31), 0, &done).is_none());
        assert_eq!(r.take_completed().len(), 1);
        assert_eq!(r.open_tickets(), 0);
        assert_eq!(r.stats().completed_local, 1);
    }

    #[test]
    fn hot_proxy_sheds_range_queries_to_the_coolest_live_peer() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let pressures = [hot(20), hot(9), cool()];
        let (_, _, action) = r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &pressures, true);
        assert_eq!(action, RouteAction::Forward { proxy: 2 });
        assert_eq!(r.stats().shed, 1);
        // NOW queries never shed.
        let now_q = PipelineQuery::Now {
            sensor: 1,
            tolerance: 0.2,
        };
        let (_, _, action) = r.route(SimTime::ZERO, 0, 0, now_q, 0.2, &pressures, true);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
        // Nor does anything shed when the range is archived nowhere.
        let (_, _, action) = r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &pressures, false);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
        assert_eq!(r.stats().shed, 1);
    }

    #[test]
    fn unarchived_range_stays_home_and_is_counted() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let pressures = [hot(20), cool()];
        let (_, _, action) = r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &pressures, false);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
        assert_eq!(r.stats().shed, 0);
        assert_eq!(r.stats().unarchived, 1);
    }

    #[test]
    fn dead_peers_and_thin_margins_block_shedding() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        // Only peer is not Live: stay home.
        let dead_peer = ProxyPressure {
            live: false,
            ..cool()
        };
        let (_, _, action) = r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[hot(20), dead_peer], true);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
        // Peer barely cooler than the margin: stay home.
        let (_, _, action) =
            r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[hot(20), hot(19)], true);
        assert_eq!(action, RouteAction::Local { proxy: 0 });
    }

    #[test]
    fn expiry_fails_honestly_and_drops_late_completions() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let (ticket, deadline, _) =
            r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[cool()], true);
        r.bind(ticket, 0, 5);
        let grace = EXPIRY_GRACE;
        r.expire(deadline + grace);
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].answer.source(), AnswerSource::Failed);
        match &done[0].answer {
            PipelineAnswer::Series(a) => assert!(a.samples.is_empty()),
            PipelineAnswer::Scalar(a) => assert!(a.sigma.is_infinite()),
        }
        assert_eq!(r.open_tickets(), 0);
        // The pipeline's own completion arrives later: dropped.
        let late = CompletedQuery {
            id: 5,
            query: past(1),
            answer: FleetRouter::failed_answer(&past(1)),
            submitted_at: SimTime::ZERO,
            completed_at: deadline + grace + SimDuration::from_secs(31),
        };
        assert!(r
            .on_pipeline_completion(deadline + grace + SimDuration::from_secs(31), 0, &late)
            .is_none());
        assert_eq!(r.stats().late_dropped, 1);
        assert_eq!(r.take_completed().len(), 0, "no double terminal");
    }

    #[test]
    fn remote_completion_round_trip() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let (ticket, _, action) =
            r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[hot(20), cool()], true);
        assert_eq!(action, RouteAction::Forward { proxy: 1 });
        r.bind(ticket, 1, 3);
        // The adopter completes: the answer must cross home.
        let done = CompletedQuery {
            id: 3,
            query: past(1),
            answer: FleetRouter::failed_answer(&past(1)),
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(62),
        };
        let back = r.on_pipeline_completion(SimTime::from_secs(62), 1, &done);
        assert_eq!(back, Some((ticket, 0)));
        assert_eq!(r.open_tickets(), 1, "terminal waits for the mesh return");
        r.on_completion_msg(SimTime::from_secs(93), ticket, done.answer.clone());
        let out = r.take_completed();
        assert_eq!(out.len(), 1);
        assert!(out[0].forwarded);
        assert_eq!(out[0].served_by, 1);
        assert_eq!(r.stats().completed_remote, 1);
    }

    #[test]
    fn proxy_death_fails_entry_tickets_and_resumes_serving_tickets() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        // Ticket A: entered and served at 1 (will die with it).
        let (a, _, _) = r.route(SimTime::ZERO, 1, 1, past(3), 0.2, &[cool(), cool()], true);
        r.bind(a, 1, 10);
        // Ticket B: entered at 0, shed to 1 (resumes elsewhere).
        let (b, _, action) =
            r.route(SimTime::ZERO, 0, 0, past(1), 0.2, &[hot(20), cool()], true);
        assert_eq!(action, RouteAction::Forward { proxy: 1 });
        r.bind(b, 1, 11);
        let resume = r.on_proxy_dead(SimTime::from_secs(31), 1);
        assert_eq!(resume.len(), 1);
        assert_eq!(resume[0].0, b);
        assert_eq!(r.stats().failed_entry_dead, 1);
        assert_eq!(r.stats().resumed, 0, "counted only when actually re-routed");
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ticket, a);
        assert_eq!(done[0].answer.source(), AnswerSource::Failed);
        // B re-binds at its adopter and completes normally.
        r.mark_rerouted(SimTime::from_secs(31), b, 0);
        assert_eq!(r.stats().resumed, 1);
        r.bind(b, 0, 12);
        let done2 = CompletedQuery {
            id: 12,
            query: past(1),
            answer: FleetRouter::failed_answer(&past(1)),
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(93),
        };
        assert!(r.on_pipeline_completion(SimTime::from_secs(93), 0, &done2).is_none());
        assert_eq!(r.take_completed().len(), 1);
        assert_eq!(r.open_tickets(), 0);
    }

    fn pressure(pending: usize) -> ProxyPressure {
        ProxyPressure {
            pending,
            saturation: 0.0,
            depletion: 0.0,
            live: true,
        }
    }

    #[test]
    fn oscillating_pressure_sheds_at_most_once_per_episode_window() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let epoch = SimDuration::from_secs(31);
        // Raw score flips between well above and well below the
        // threshold every epoch — the worst flapping input.
        let mut episode_opens = Vec::new();
        let mut last_count = 0;
        for e in 0..40u64 {
            let t = SimTime::ZERO + epoch * e;
            let raw = if e % 2 == 0 { 30 } else { 0 };
            r.observe_pressures(t, &[pressure(raw), pressure(0)]);
            if r.stats().shed_episodes > last_count {
                last_count = r.stats().shed_episodes;
                episode_opens.push(t);
            }
        }
        assert!(
            episode_opens.len() >= 2,
            "the input must actually open episodes for the bound to mean anything"
        );
        for pair in episode_opens.windows(2) {
            assert!(
                pair[1] - pair[0] >= SHED_EPISODE_WINDOW,
                "episodes opened {:?} apart, inside the {:?} refractory window",
                pair[1] - pair[0],
                SHED_EPISODE_WINDOW
            );
        }
    }

    #[test]
    fn sustained_heat_latches_within_bounded_epochs_and_cools_with_hysteresis() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let epoch = SimDuration::from_secs(31);
        // Sustained raw 30 (alpha 0.4): smoothed hits 12 on the first
        // observation and must latch within a couple of epochs.
        let mut latched_at = None;
        for e in 0..4u64 {
            let t = SimTime::ZERO + epoch * e;
            r.observe_pressures(t, &[pressure(30)]);
            if latched_at.is_none() && r.is_hot(0) {
                latched_at = Some(e);
            }
        }
        assert!(
            latched_at.is_some_and(|e| e <= 3),
            "a genuinely hot proxy must latch within 4 epochs"
        );
        // Dropping just under the threshold does NOT cool it: exit
        // needs the full hysteresis margin below the threshold.
        let t = SimTime::ZERO + epoch * 4u64;
        r.observe_pressures(t, &[pressure(11)]);
        assert!(r.is_hot(0), "inside the hysteresis band the episode holds");
        // Sustained cold eventually crosses threshold - exit_margin.
        let mut cooled_at = None;
        for e in 5..20u64 {
            let t = SimTime::ZERO + epoch * e;
            r.observe_pressures(t, &[pressure(0)]);
            if cooled_at.is_none() && !r.is_hot(0) {
                cooled_at = Some(e);
            }
        }
        assert!(cooled_at.is_some(), "sustained cold must close the episode");
    }

    #[test]
    fn fenced_submission_fails_honestly_with_no_age() {
        let mut r = FleetRouter::new(FleetRouterConfig::default());
        let t = SimTime::from_hours(1);
        r.fail_fenced(t, 1, past(4));
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].answer.source(), AnswerSource::Failed);
        assert_eq!(done[0].answer_age, None);
        assert_eq!(r.stats().failed_fenced, 1);
        assert_eq!(r.open_tickets(), 0, "fenced refusals never leak a ticket");
    }

    #[test]
    fn latency_classes_assign_per_query_deadlines() {
        let cfg = FleetRouterConfig {
            latency_classes: vec![
                QueryClass {
                    rate_per_hour: 10.0,
                    latency_bound: SimDuration::from_mins(2),
                    tolerance: 0.1,
                },
                QueryClass {
                    rate_per_hour: 10.0,
                    latency_bound: SimDuration::from_mins(20),
                    tolerance: 1.0,
                },
            ],
            ..FleetRouterConfig::default()
        };
        let r = FleetRouter::new(cfg);
        assert_eq!(r.deadline_for(0.1), SimDuration::from_mins(2));
        assert_eq!(r.deadline_for(0.9), SimDuration::from_mins(20));
        let bare = FleetRouter::new(FleetRouterConfig::default());
        assert_eq!(bare.deadline_for(0.1), SimDuration::from_mins(10));
    }
}
