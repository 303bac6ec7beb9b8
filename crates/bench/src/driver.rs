//! The one scenario arm driver, and everything derived from its runs.
//!
//! Every scenario arm — fleet, partition, slice, the query-pipeline
//! arm, and the determinism fingerprint — runs through [`run_arm`]:
//! warmup, then a query phase that submits the scenario's arrivals each
//! epoch, then a drain long enough for every deadline to pass. The
//! driver owns the measurement, so no scenario can forget a piece of it:
//!
//! * the per-epoch stale-confident feed into presto-scope;
//! * the per-terminal oracles (a confident answer its own window
//!   contradicts, and — opt-in — a NOW answer far from the truth at
//!   submission);
//! * the answer-age coverage count and the terminal latency, defined
//!   once as `max(completed_at − submitted_at, answer.latency())`;
//! * the per-epoch trace audit, and after the drain the leak probes
//!   and open-trace counts.
//!
//! From a finished [`ArmRun`] come the artifact row
//! ([`ArmSummary::new`], every field derived from the driver's
//! counters, the final telemetry snapshot and the sensor ledger), the
//! artifact itself ([`BenchJson::from_arms`]) and the one failure list
//! every scenario bin checks ([`arm_failures`]).

use std::collections::BTreeMap;

use presto_core::{PipelineAnswer, PipelineQuery, PrestoSystem, StoreQuery, SystemConfig};
use presto_fleet::{FleetDeployment, FleetLeaks, FEED_STALE_CONFIDENT};
use presto_net::LossProcess;
use presto_proxy::AnswerSource;
use presto_sim::metrics::Summary;
use presto_sim::{FleetArrival, QueryKind, SimDuration, SimTime};
use presto_telemetry::scope::WD_STALE_CONFIDENT;
use presto_telemetry::{alloc, QueryTrace, ScopeConfig, SeriesSpec, Snapshot, WatchdogRule};

use crate::report::{
    scope_incidents, scope_timeline, snapshot_metrics, ArmSummary, BenchJson, MetricLine,
};

/// What an arm runs on: a proxy fleet behind the router, or one
/// system's proxies directly.
pub enum Deployment {
    /// A `FleetDeployment` (router, mesh, membership).
    Fleet(Box<FleetDeployment>),
    /// A bare `PrestoSystem`.
    Single(Box<PrestoSystem>),
}

/// One workload arrival, in the shape its deployment accepts.
pub enum Arrival {
    /// A `(group, slot)` arrival for the fleet router.
    Fleet(FleetArrival),
    /// A store query for a single system.
    Store(StoreQuery),
}

/// A query's terminal, in the one shape both deployments produce.
#[derive(Clone, Debug)]
pub struct Terminal {
    /// Fleet ticket, or `proxy << 48 | pipeline ticket`.
    pub key: u64,
    /// The query as submitted.
    pub query: PipelineQuery,
    /// Proxy the query entered at.
    pub entry: usize,
    /// Proxy that produced the answer.
    pub served_by: usize,
    /// True when the query crossed the mesh.
    pub forwarded: bool,
    /// The answer.
    pub answer: PipelineAnswer,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Terminal time.
    pub completed_at: SimTime,
    /// Serve-time age of the answer's data (`None` when it carries none).
    pub age: Option<SimDuration>,
}

impl Terminal {
    /// Submit-to-answer latency: the later of the terminal instant and
    /// the answer's own radio-resolved latency.
    fn latency_s(&self) -> f64 {
        (self.completed_at - self.submitted_at)
            .as_secs_f64()
            .max(self.answer.latency().as_secs_f64())
    }

    /// A real (non-Failed) answer.
    pub fn is_ok(&self) -> bool {
        self.answer.source() != AnswerSource::Failed
    }

    /// An aggregate over an empty range: honestly carries no age.
    fn is_empty_aggregate(&self) -> bool {
        matches!(
            (&self.query, &self.answer),
            (PipelineQuery::Aggregate { .. }, PipelineAnswer::Scalar(a)) if a.sigma.is_infinite()
        )
    }

    /// An Ok answer its own query contradicts: a PAST series empty or
    /// reaching outside its window, or a scalar whose data is from
    /// after the terminal.
    fn contradicts_window(&self) -> bool {
        match (&self.query, &self.answer) {
            (PipelineQuery::Past { from, to, .. }, PipelineAnswer::Series(a)) => {
                a.samples.is_empty() || a.samples.iter().any(|&(t, _)| t < *from || t > *to)
            }
            (_, PipelineAnswer::Scalar(a)) => a.data_through.is_some_and(|d| d > self.completed_at),
            _ => false,
        }
    }

    /// A NOW answer claiming sigma within its tolerance while far from
    /// the truth at submission (slack 0.5 for the sampling gap between
    /// the serving sample and the submission reading: the oracle hunts
    /// confidently-wrong answers, which err at the signal scale).
    fn contradicts_truth(&self, truth_at_submit: f64) -> bool {
        match (&self.query, &self.answer) {
            (PipelineQuery::Now { tolerance, .. }, PipelineAnswer::Scalar(a)) => {
                a.sigma <= *tolerance && (a.value - truth_at_submit).abs() > tolerance + 0.5
            }
            _ => false,
        }
    }
}

impl Deployment {
    /// The underlying system.
    pub fn system(&self) -> &PrestoSystem {
        match self {
            Deployment::Fleet(f) => &f.system,
            Deployment::Single(s) => s,
        }
    }

    fn system_mut(&mut self) -> &mut PrestoSystem {
        match self {
            Deployment::Fleet(f) => &mut f.system,
            Deployment::Single(s) => s,
        }
    }

    /// The fleet, when this is one.
    pub fn fleet(&self) -> Option<&FleetDeployment> {
        match self {
            Deployment::Fleet(f) => Some(f),
            Deployment::Single(_) => None,
        }
    }

    fn step_epoch(&mut self) {
        match self {
            Deployment::Fleet(f) => f.step_epoch(),
            Deployment::Single(s) => s.step_epoch(),
        }
    }

    fn warmup(&mut self, epochs: u64) {
        match self {
            Deployment::Fleet(f) => (0..epochs).for_each(|_| f.step_epoch()),
            Deployment::Single(s) => {
                let epoch = s.config().lab.epoch;
                s.run(epoch * epochs);
            }
        }
    }

    /// Submits one arrival; `None` when nothing accepted it (a dead
    /// serving proxy).
    fn submit(&mut self, a: &Arrival) -> Option<u64> {
        match (self, a) {
            (Deployment::Fleet(f), Arrival::Fleet(a)) => Some(f.submit_arrival(a)),
            (Deployment::Single(s), Arrival::Store(q)) => s
                .submit_query(*q)
                .map(|(p, ticket)| ((p as u64) << 48) | ticket),
            _ => unreachable!("arrival kind does not match deployment"),
        }
    }

    /// The live truth a NOW arrival's sensor reads right now.
    fn now_truth(&self, a: &Arrival) -> Option<f64> {
        let gid = match (self, a) {
            (Deployment::Fleet(f), Arrival::Fleet(a)) if a.arrival.kind == QueryKind::Now => {
                f.arrival_gid(a) as usize
            }
            (Deployment::Single(_), Arrival::Store(StoreQuery::Now { sensor, .. })) => {
                *sensor as usize
            }
            _ => return None,
        };
        self.system().truth.get(gid).copied()
    }

    fn take_terminals(&mut self) -> Vec<Terminal> {
        match self {
            Deployment::Fleet(f) => f
                .take_completed()
                .into_iter()
                .map(|c| Terminal {
                    key: c.ticket,
                    query: c.query,
                    entry: c.entry,
                    served_by: c.served_by,
                    forwarded: c.forwarded,
                    answer: c.answer,
                    submitted_at: c.submitted_at,
                    completed_at: c.completed_at,
                    age: c.answer_age,
                })
                .collect(),
            Deployment::Single(s) => s
                .take_completed_queries()
                .into_iter()
                .map(|(p, c)| Terminal {
                    key: ((p as u64) << 48) | c.id,
                    query: c.query,
                    entry: p,
                    served_by: p,
                    forwarded: false,
                    age: c.answer.age_at(c.completed_at),
                    answer: c.answer,
                    submitted_at: c.submitted_at,
                    completed_at: c.completed_at,
                })
                .collect(),
        }
    }

    fn take_finished_traces(&mut self) -> Vec<QueryTrace> {
        match self {
            Deployment::Fleet(f) => f.router.tracer_mut().take_finished(),
            Deployment::Single(s) => s
                .proxies
                .iter_mut()
                .flat_map(|p| p.pipeline_mut().tracer_mut().take_finished())
                .collect(),
        }
    }

    fn open_traces(&self) -> u64 {
        let pipelines: usize = self
            .system()
            .proxies
            .iter()
            .map(|p| p.pipeline().tracer().open_count())
            .sum();
        let router = self.fleet().map_or(0, |f| f.router.tracer().open_count());
        (pipelines + router) as u64
    }

    /// Entries left in any router, pipeline, RPC or mesh table.
    fn leaks(&self) -> FleetLeaks {
        match self {
            Deployment::Fleet(f) => f.leaks(),
            Deployment::Single(s) => FleetLeaks {
                router_open: 0,
                pipeline_pending: s.pipeline_pending_total(),
                rpcs_in_flight: s.async_in_flight_total(),
                mesh_in_flight: 0,
            },
        }
    }

    /// The unified telemetry snapshot across every tier.
    fn telemetry_snapshot(&self) -> Snapshot {
        match self {
            Deployment::Fleet(f) => f.telemetry_snapshot(),
            Deployment::Single(s) => s.telemetry_snapshot(),
        }
    }

    fn rehomed(&self) -> u64 {
        self.fleet().map_or(0, FleetDeployment::rehomed_sensors)
    }
}

/// An arm's phase lengths, in epochs, and its oracle selection.
#[derive(Clone, Copy, Debug)]
pub struct ArmPlan {
    /// Warmup (archive and model build), no queries.
    pub warmup: u64,
    /// Query phase: arrivals are submitted each epoch.
    pub query: u64,
    /// Drain: no new arrivals, every open query reaches a terminal.
    pub drain: u64,
    /// Check NOW answers against the truth at submission. Only for
    /// quiet signals: on a noisy one the 0.5 slack flags legitimate
    /// cache hits (see ROADMAP).
    pub now_oracle: bool,
}

impl ArmPlan {
    /// Phases from hours of warmup and queries plus a drain window,
    /// with the simulator's default epoch.
    pub fn new(warmup_hours: u64, query_hours: u64, drain: SimDuration) -> Self {
        let epoch = presto_core::SystemConfig::default().lab.epoch;
        ArmPlan {
            warmup: SimDuration::from_hours(warmup_hours).div_duration(epoch),
            query: SimDuration::from_hours(query_hours).div_duration(epoch),
            drain: drain.div_duration(epoch) + 4,
            now_oracle: false,
        }
    }

    /// Epochs after warmup.
    pub fn measured(&self) -> u64 {
        self.query + self.drain
    }
}

/// What the driver counts over the measured phase. The one place these
/// numbers are accumulated; the serialized query-pipeline baseline,
/// which is not a pipeline arm, fills the subset it can measure.
#[derive(Clone, Debug, Default)]
pub struct ArmCounters {
    /// Queries offered to the deployment.
    pub submitted: u64,
    /// Offered queries nothing accepted (counted as failed).
    pub refused: u64,
    /// Terminals observed.
    pub completed: u64,
    /// Terminals with a real answer.
    pub answered_ok: u64,
    /// Honest failures, refusals included.
    pub failed: u64,
    /// Ok answers an oracle contradicts.
    pub stale_confident: u64,
    /// Terminal latencies, seconds (failed terminals included; refusals
    /// have no terminal and are left out).
    pub latencies: Summary,
    /// Serve-time ages of Ok answers, seconds.
    pub ages: Summary,
    /// Ok data-carrying answers without an age.
    pub answer_age_missing: u64,
    /// Finished traces collected.
    pub trace_terminals: u64,
    /// Finished traces with ≠1 terminal or non-monotone timestamps.
    pub trace_bad: u64,
    /// Keys of failed terminals, in completion order.
    pub failed_keys: Vec<u64>,
}

impl ArmCounters {
    fn record(&mut self, t: &Terminal, truth_at_submit: Option<f64>) {
        self.completed += 1;
        self.latencies.record(t.latency_s());
        if !t.is_ok() {
            self.failed += 1;
            self.failed_keys.push(t.key);
            return;
        }
        self.answered_ok += 1;
        match t.age {
            Some(age) => self.ages.record(age.as_secs_f64()),
            None if !t.is_empty_aggregate() => self.answer_age_missing += 1,
            None => {}
        }
        if t.contradicts_window() || truth_at_submit.is_some_and(|v| t.contradicts_truth(v)) {
            self.stale_confident += 1;
        }
    }
}

/// A finished arm: the deployment after its drain, the driver's
/// counters, and the readings taken at the end.
pub struct ArmRun {
    /// Arm label.
    pub label: String,
    /// The deployment, drained.
    pub deployment: Deployment,
    /// Measured-phase counters.
    pub counters: ArmCounters,
    /// Measured phase (query + drain), simulated seconds.
    pub phase_s: f64,
    /// Every epoch stepped, warmup included.
    pub epochs: u64,
    /// The final unified telemetry snapshot.
    pub snapshot: Snapshot,
    /// Total sensor-tier energy at the end, joules.
    pub sensor_energy_j: f64,
    /// Leak probes after the drain.
    pub leaks: FleetLeaks,
    /// Open trace logs after the drain.
    pub trace_orphans: u64,
    /// Heap allocations over the arm (0 unless the counting allocator
    /// is installed).
    pub allocs: u64,
    /// The process's live-heap high-water mark at the end, bytes.
    pub peak_bytes: u64,
}

impl ArmRun {
    /// Takes the end-of-arm readings off a drained deployment.
    pub fn finish(
        label: &str,
        deployment: Deployment,
        counters: ArmCounters,
        plan: &ArmPlan,
        allocs_before: u64,
    ) -> Self {
        let allocs = alloc::allocation_count() - allocs_before;
        let epoch_s = deployment.system().config().lab.epoch.as_secs_f64();
        ArmRun {
            label: label.to_string(),
            counters,
            phase_s: plan.measured() as f64 * epoch_s,
            epochs: plan.warmup + plan.measured(),
            snapshot: deployment.telemetry_snapshot(),
            sensor_energy_j: deployment.system().sensor_ledger_total().total(),
            leaks: deployment.leaks(),
            trace_orphans: deployment.open_traces(),
            allocs,
            peak_bytes: alloc::peak_bytes(),
            deployment,
        }
    }

    /// Answered queries per simulated second of the measured phase.
    pub fn queries_per_sec(&self) -> f64 {
        self.counters.answered_ok as f64 / self.phase_s
    }

    /// A final snapshot reading, 0 when absent.
    pub fn metric(&self, key: &str) -> f64 {
        self.snapshot.get(key).unwrap_or(0.0)
    }

    /// The arm's presto-scope.
    pub fn scope(&self) -> &presto_telemetry::PrestoScope {
        self.deployment.system().scope()
    }
}

/// Per-epoch scenario hook: sees the deployment after each measured
/// epoch's step, with that epoch's terminals.
pub type EpochHook<'a> = &'a mut dyn FnMut(&Deployment, &[Terminal]);

/// Runs one arm: warmup, the query phase with `arrivals` submitted at
/// the start of each epoch, and the drain.
pub fn run_arm(
    label: &str,
    mut d: Deployment,
    plan: &ArmPlan,
    arrivals: &mut dyn FnMut(SimTime) -> Vec<Arrival>,
    mut on_epoch: Option<EpochHook<'_>>,
) -> ArmRun {
    let allocs_before = alloc::allocation_count();
    d.warmup(plan.warmup);
    let mut c = ArmCounters::default();
    // NOW queries answer "the value when you asked": the oracle's truth
    // is read at submission, and dropped at the ticket's terminal.
    let mut truth_at_submit: BTreeMap<u64, f64> = BTreeMap::new();
    for e in 0..plan.measured() {
        if e < plan.query {
            for a in arrivals(d.system().now()) {
                c.submitted += 1;
                let truth = plan.now_oracle.then(|| d.now_truth(&a)).flatten();
                match d.submit(&a) {
                    Some(key) => {
                        if let Some(v) = truth {
                            truth_at_submit.insert(key, v);
                        }
                    }
                    // Refused at the door: an honest failure at submit,
                    // with no terminal and so no latency.
                    None => {
                        c.refused += 1;
                        c.failed += 1;
                    }
                }
            }
        }
        // The oracles are driver-side knowledge (they need ground
        // truth), so they reach the watchdog as a feed; growth in the
        // cumulative count is a violation.
        let stale = c.stale_confident as f64;
        d.system_mut().scope_mut().feed(FEED_STALE_CONFIDENT, stale);
        d.step_epoch();
        let terminals = d.take_terminals();
        for t in &terminals {
            c.record(t, truth_at_submit.remove(&t.key));
        }
        for tr in d.take_finished_traces() {
            c.trace_terminals += 1;
            if tr.terminal_count() != 1 || !tr.is_monotone() {
                c.trace_bad += 1;
            }
        }
        if let Some(hook) = on_epoch.as_deref_mut() {
            hook(&d, &terminals);
        }
    }
    ArmRun::finish(label, d, c, plan, allocs_before)
}

/// `a / b`, infinite when `b` is zero.
pub fn ratio_or_inf(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// The headline cross-arm ratio: `primary / secondary` answered
/// throughput.
pub fn throughput_ratio(primary: &ArmRun, secondary: &ArmRun) -> f64 {
    ratio_or_inf(primary.queries_per_sec(), secondary.queries_per_sec())
}

/// Downlink loss of every scenario (Bernoulli, request and reply
/// paths).
pub const SCENARIO_LOSS: f64 = 0.3;

/// Master seed of every scenario (and of the failure scenario).
pub(crate) const SCENARIO_SEED: u64 = 2005;

/// Bernoulli `loss` on both downlink paths, so retries and the retry
/// budget do real work.
pub fn lossy_downlink(sys: &mut SystemConfig, loss: f64) {
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(loss);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(loss);
}

/// A single-system scope: fleet paths don't exist there, so the
/// timeline watches the pipeline/slice work rates and the recorder, and
/// the one watchdog is the driver-fed stale-confident probe.
pub fn single_system_scope() -> ScopeConfig {
    ScopeConfig {
        enabled: true,
        series: vec![
            SeriesSpec::delta("pipeline.rpcs_issued"),
            SeriesSpec::delta("pipeline.sliced"),
            SeriesSpec::delta("slice.lookups"),
            SeriesSpec::level("trace.recorder_len"),
        ],
        rules: vec![WatchdogRule::still(
            WD_STALE_CONFIDENT,
            FEED_STALE_CONFIDENT,
        )],
        ..ScopeConfig::default()
    }
}

impl ArmSummary {
    /// The arm's artifact row: counts and percentiles from the driver,
    /// radio, retransmit, shed and cache readings from the final
    /// snapshot, energy from the sensor ledger.
    pub fn new(run: &ArmRun) -> Self {
        let c = &run.counters;
        let m = |k: &str| run.metric(k);
        let slice_lookups = m("slice.lookups");
        let cache_hit_rate = if slice_lookups > 0.0 {
            m("slice.hits") / slice_lookups
        } else {
            let hits = m("reply_cache.hits");
            let lookups = hits + m("reply_cache.misses");
            if lookups > 0.0 {
                hits / lookups
            } else {
                0.0
            }
        };
        ArmSummary {
            arm: run.label.clone(),
            submitted: c.submitted,
            answered_ok: c.answered_ok,
            failed: c.failed,
            queries_per_sec: run.queries_per_sec(),
            latency_p50_s: c.latencies.median(),
            latency_p90_s: c.latencies.quantile(0.90),
            latency_p99_s: c.latencies.quantile(0.99),
            answer_age_count: c.ages.count() as u64,
            answer_age_missing: c.answer_age_missing,
            answer_age_p50_s: c.ages.median(),
            shed: m("fleet_router.shed") as u64,
            rehomed: run.deployment.rehomed(),
            retransmits: m("downlink.retransmits") as u64,
            radio_bytes: m("sensor.bytes_sent") as u64,
            sensor_energy_j: run.sensor_energy_j,
            cache_hit_rate,
            stale_confident: c.stale_confident,
            trace_terminals: c.trace_terminals,
            trace_bad: c.trace_bad,
            trace_orphans: run.trace_orphans,
        }
    }
}

/// The allocation-pressure rows (host-dependent, so `bench_diff` leaves
/// the `alloc.` prefix ungated; [`arm_failures`] only requires them
/// non-zero).
pub fn alloc_rows(run: &ArmRun) -> Vec<MetricLine> {
    [
        ("alloc.allocations_total", run.allocs as f64),
        (
            "alloc.allocations_per_epoch",
            run.allocs as f64 / run.epochs.max(1) as f64,
        ),
        ("alloc.peak_bytes", run.peak_bytes as f64),
    ]
    .into_iter()
    .map(|(key, value)| MetricLine {
        key: key.into(),
        value,
    })
    .collect()
}

impl BenchJson {
    /// A two-arm scenario's artifact: both rows, the headline
    /// [`throughput_ratio`], and the primary arm's metrics, allocation
    /// rows, timeline and incidents.
    pub fn from_arms(scenario: &str, primary: &ArmRun, secondary: &ArmRun) -> Self {
        let mut metrics = snapshot_metrics(&primary.snapshot);
        metrics.extend(alloc_rows(primary));
        BenchJson {
            scenario: scenario.to_string(),
            throughput_ratio: throughput_ratio(primary, secondary),
            arms: vec![ArmSummary::new(primary), ArmSummary::new(secondary)],
            metrics,
            timeline: scope_timeline(primary.scope()),
            incidents: scope_incidents(primary.scope()),
        }
    }
}

/// The invariants every driver arm must hold, as failure lines (empty
/// when the arm is clean): a non-empty workload, termination, the trace
/// audit, answer-age coverage, zero stale-confident answers, zero
/// leaks, no incident outside a fault window, a timeline with points in
/// every series, and a counted allocator.
pub fn arm_failures(run: &ArmRun) -> Vec<String> {
    let c = &run.counters;
    let label = &run.label;
    let accepted = c.submitted - c.refused;
    let mut out = Vec::new();
    if c.submitted == 0 {
        out.push(format!("{label}: no queries submitted"));
    }
    if c.completed != accepted {
        out.push(format!(
            "{label}: {} of {accepted} accepted queries never terminated",
            accepted.saturating_sub(c.completed)
        ));
    }
    if c.trace_terminals != accepted || c.trace_bad > 0 || run.trace_orphans > 0 {
        out.push(format!(
            "{label}: trace audit failed ({} terminals for {accepted} accepted, {} malformed, \
             {} orphans)",
            c.trace_terminals, c.trace_bad, run.trace_orphans
        ));
    }
    if c.answer_age_missing > 0 {
        out.push(format!(
            "{label}: {} real answers missing answer_age",
            c.answer_age_missing
        ));
    }
    if c.stale_confident > 0 {
        out.push(format!(
            "{label}: {} stale-confident answers",
            c.stale_confident
        ));
    }
    let l = &run.leaks;
    if !l.is_clean() {
        out.push(format!(
            "{label}: leaked entries after drain (router {}, pipeline {}, rpcs {}, mesh {})",
            l.router_open, l.pipeline_pending, l.rpcs_in_flight, l.mesh_in_flight
        ));
    }
    let unattributed = run.scope().unattributed_incidents();
    if unattributed > 0 {
        out.push(format!(
            "{label}: {unattributed} watchdog incidents outside any fault window"
        ));
    }
    let series = run.scope().series();
    if series.is_empty() || series.iter().any(|(_, ring)| ring.bins().is_empty()) {
        out.push(format!(
            "{label}: presto-scope timeline is empty or has a pointless series"
        ));
    }
    if run.allocs == 0 || run.peak_bytes == 0 {
        out.push(format!(
            "{label}: counting allocator reported zero activity"
        ));
    }
    out
}

/// Ends a scenario bin: prints the failure list and exits non-zero, or
/// prints the OK line.
pub fn conclude(what: &str, quick: bool, failures: &[String], ok: &str) {
    let mode = if quick { "smoke" } else { "run" };
    if failures.is_empty() {
        eprintln!("{what} {mode} OK — {ok}");
        return;
    }
    eprintln!("{what} {mode} FAILED:");
    for f in failures {
        eprintln!("  - {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{self, FleetScenarioConfig};
    use crate::slice_scenario::{self, SliceScenarioConfig};

    /// The silent-zero class: every derived row field equals the
    /// snapshot reading it comes from.
    fn assert_derived_from_snapshot(run: &ArmRun) {
        let s = ArmSummary::new(run);
        let snap = &run.snapshot;
        let reading = |k: &str| {
            snap.get(k)
                .unwrap_or_else(|| panic!("{k} missing from snapshot"))
        };
        assert_eq!(
            s.radio_bytes as f64,
            reading("sensor.bytes_sent"),
            "{}",
            run.label
        );
        assert!(s.radio_bytes > 0, "{}: no radio traffic", run.label);
        assert_eq!(
            s.retransmits as f64,
            reading("downlink.retransmits"),
            "{}",
            run.label
        );
        let (hits, lookups) = if reading("slice.lookups") > 0.0 {
            (reading("slice.hits"), reading("slice.lookups"))
        } else {
            let hits = reading("reply_cache.hits");
            (hits, hits + reading("reply_cache.misses"))
        };
        let expected = if lookups > 0.0 { hits / lookups } else { 0.0 };
        assert_eq!(s.cache_hit_rate, expected, "{}", run.label);
        assert!(s.sensor_energy_j > 0.0, "{}: no sensor energy", run.label);
    }

    #[test]
    fn summary_fields_derive_from_the_snapshot_on_both_deployments() {
        let slice = SliceScenarioConfig {
            warmup_hours: 4,
            query_hours: 1,
            ..SliceScenarioConfig::quick()
        };
        let single = slice_scenario::run_arm(&slice, true);
        assert!(matches!(single.deployment, Deployment::Single(_)));
        assert_derived_from_snapshot(&single);
        assert!(
            ArmSummary::new(&single).cache_hit_rate > 0.0,
            "slice cache never hit"
        );

        let cfg = FleetScenarioConfig {
            warmup_hours: 3,
            query_hours: 1,
            ..FleetScenarioConfig::quick()
        };
        let arm = fleet::run_arm(&cfg, true);
        assert!(matches!(arm.run.deployment, Deployment::Fleet(_)));
        assert_derived_from_snapshot(&arm.run);
        assert_eq!(
            ArmSummary::new(&arm.run).shed as f64,
            arm.run.metric("fleet_router.shed")
        );
    }
}
