//! One repetition of a workload: set-up, the measured phase with its
//! drain, and every correctness check. A traced repetition also records
//! a span around each public call it makes into the program.

use std::collections::BTreeMap;
use std::time::Instant;

use presto_core::StoreQuery;
use presto_fleet::FEED_STALE_CONFIDENT;
use presto_proxy::{AnswerSource, PipelineAnswer, PipelineQuery};
use presto_sensor::AggregateOp;
use presto_sim::{EnergyCategory, EnergyLedger, FleetArrival, QueryKind, SimDuration, SimTime};
use presto_telemetry::{alloc, PhaseStat, QueryTrace, Snapshot};

use crate::workload::{Deployment, Name, Workload};

/// Profiler phases the per-layer report reads.
pub const PHASES: [&str; 8] = [
    "step_epoch_core",
    "pump_pipelines",
    "fleet_mesh",
    "fleet_membership",
    "fleet_deliver",
    "fleet_pump",
    "fleet_collect",
    "fleet_scope",
];

/// A query's terminal, in the one shape both tiers produce.
struct Terminal {
    key: u64,
    query: PipelineQuery,
    answer: PipelineAnswer,
    submitted_at: SimTime,
    completed_at: SimTime,
    age: Option<SimDuration>,
}

impl Deployment {
    /// Submits one arrival; `None` when no proxy accepted it.
    fn submit(&mut self, a: &FleetArrival) -> Option<u64> {
        match self {
            Deployment::Fleet(f) => Some(f.submit_arrival(a)),
            Deployment::Single(s) => {
                let sensor = presto_core::gid16(a.arrival.sensor_slot);
                let (from, to, tolerance) = (a.arrival.from, a.arrival.to, a.arrival.tolerance);
                let q = match a.arrival.kind {
                    QueryKind::Now => StoreQuery::Now { sensor, tolerance },
                    QueryKind::Past => StoreQuery::Past {
                        sensor,
                        from,
                        to,
                        tolerance,
                    },
                    QueryKind::Aggregate => StoreQuery::Aggregate {
                        sensor,
                        from,
                        to,
                        op: AggregateOp::Mean,
                    },
                };
                s.submit_query(q)
                    .map(|(p, ticket)| ((p as u64) << 48) | ticket)
            }
        }
    }

    /// The global sensor an arrival targets.
    fn gid(&self, a: &FleetArrival) -> usize {
        match self {
            Deployment::Fleet(f) => f.arrival_gid(a) as usize,
            Deployment::Single(_) => a.arrival.sensor_slot,
        }
    }

    fn take_terminals(&mut self) -> Vec<Terminal> {
        match self {
            Deployment::Fleet(f) => f
                .take_completed()
                .into_iter()
                .map(|c| Terminal {
                    key: c.ticket,
                    query: c.query,
                    age: c.answer_age,
                    answer: c.answer,
                    submitted_at: c.submitted_at,
                    completed_at: c.completed_at,
                })
                .collect(),
            Deployment::Single(s) => s
                .take_completed_queries()
                .into_iter()
                .map(|(p, c)| Terminal {
                    key: ((p as u64) << 48) | c.id,
                    query: c.query,
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

    fn open_traces(&self) -> usize {
        let pipelines: usize = self
            .system()
            .proxies
            .iter()
            .map(|p| p.pipeline().tracer().open_count())
            .sum();
        match self {
            Deployment::Fleet(f) => f.router.tracer().open_count() + pipelines,
            Deployment::Single(_) => pipelines,
        }
    }

    /// Entries left in any router, pipeline, RPC or mesh table.
    fn leaks(&self) -> usize {
        match self {
            Deployment::Fleet(f) => {
                let l = f.leaks();
                l.router_open + l.pipeline_pending + l.rpcs_in_flight + l.mesh_in_flight
            }
            Deployment::Single(s) => s.pipeline_pending_total() + s.async_in_flight_total(),
        }
    }

    fn telemetry_snapshot(&self) -> Snapshot {
        match self {
            Deployment::Fleet(f) => f.telemetry_snapshot(),
            Deployment::Single(s) => s.telemetry_snapshot(),
        }
    }
}

/// Spans a traced repetition records, kept in memory until the run ends.
#[derive(Default)]
pub struct Spans {
    /// `step_epoch` durations over the measured phase, µs, in epoch order.
    pub step_us: Vec<f64>,
    /// `submit_arrival` / `submit_query` durations, µs.
    pub submit_us: Vec<f64>,
    /// Total time inside the arrival generator, µs.
    pub gen_us: f64,
    /// The end-of-run `telemetry_snapshot`, µs.
    pub snapshot_us: f64,
}

/// What one repetition measured.
pub struct Rep {
    /// Construction plus warmup, wall seconds.
    pub setup_s: f64,
    /// Measured phase (arrivals plus drain), wall seconds.
    pub phase_wall_s: f64,
    /// Reference-kernel time around this repetition ÷ its nominal time.
    pub host_slowdown: f64,
    /// Measured phase, simulated seconds.
    pub phase_sim_s: f64,
    /// Epochs in the measured phase.
    pub epochs: u64,
    /// Queries submitted.
    pub submitted: u64,
    /// Queries without a correct Ok answer.
    pub failed: u64,
    /// Sample counts behind the percentiles: (latency, NOW age).
    pub samples: (usize, usize),
    /// Simulated-time outcomes, identical for a given seed.
    pub sim: Vec<(&'static str, f64)>,
    /// Deterministic per-layer counts and ratios.
    pub layers: Vec<(&'static str, f64)>,
    /// Profiler phase totals over the measured phase.
    pub profiler: BTreeMap<&'static str, PhaseStat>,
    /// Heap allocations over the measured phase, whole process.
    pub allocs: u64,
    /// Present on traced repetitions.
    pub spans: Option<Spans>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Rep {
    /// Everything that must repeat exactly under the same seed.
    pub fn fingerprint(&self) -> String {
        format!("{:?} {:?} {:?}", self.sim, self.layers, self.samples)
    }
}

/// Times `f` into `slot` when tracing.
fn span<T>(slot: Option<&mut Vec<f64>>, f: impl FnOnce() -> T) -> T {
    match slot {
        Some(v) => {
            let t = Instant::now();
            let out = f();
            v.push(t.elapsed().as_secs_f64() * 1e6);
            out
        }
        None => f(),
    }
}

/// The mid-distribution quantile of `v` (sorted in place); 0 when empty.
///
/// The quantile function is interpolated linearly through the mid-CDF
/// points of the distinct values (Ma, Genton and Parzen, 2011). Simulated
/// times come in ties (the 31 s epoch, fixed radio timings), and this
/// estimate moves with the share of each tie instead of sticking on one.
/// On distinct values it is the Hazen quantile.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let mut mids: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < v.len() {
        let j = i + v[i..].partition_point(|x| *x == v[i]);
        mids.push((v[i], (i + j) as f64 / 2.0 / n));
        i = j;
    }
    let k = mids.partition_point(|&(_, f)| f < q);
    if k == 0 {
        return mids[0].0;
    }
    let Some(&(x1, f1)) = mids.get(k) else {
        return mids[k - 1].0;
    };
    let (x0, f0) = mids[k - 1];
    x0 + (x1 - x0) * (q - f0) / (f1 - f0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// An Ok answer that claims confidence the oracle contradicts. NOW is
/// checked against the truth at submission: a query asked at a sampling
/// instant may be answered with the reading before it (all the proxy can
/// know) or the reading at it (what a pull fetches), so the answer must
/// sit near one of the two, with 0.5 of slack as in the fleet scenario.
/// PAST is checked against its own window, aggregates against the
/// completion instant.
fn stale_confident(t: &Terminal, truth_at_submit: Option<(f64, f64)>) -> bool {
    match (&t.query, &t.answer) {
        (PipelineQuery::Now { tolerance, .. }, PipelineAnswer::Scalar(a)) => truth_at_submit
            .is_some_and(|(before, at)| {
                let err = (a.value - before).abs().min((a.value - at).abs());
                a.sigma <= *tolerance && err > tolerance + 0.5
            }),
        (PipelineQuery::Past { from, to, .. }, PipelineAnswer::Series(a)) => {
            a.samples.is_empty() || a.samples.iter().any(|&(ts, _)| ts < *from || ts > *to)
        }
        (_, PipelineAnswer::Scalar(a)) => a.data_through.is_some_and(|d| d > t.completed_at),
        _ => false,
    }
}

fn energy_delta(end: &EnergyLedger, start: &EnergyLedger, c: EnergyCategory) -> f64 {
    end.category(c) - start.category(c)
}

/// Wall seconds the reference kernel takes on the nominal host: about its
/// median on the 2-vCPU x86-64 machine the benchmark was defined on.
const REFERENCE_NOMINAL_S: f64 = 0.012;

/// Times a fixed kernel that does not depend on the program: seeded
/// ordered-map inserts and lookups and a sort, the mix of allocation,
/// pointer chasing and comparisons the simulator itself does. Host
/// timings are divided by its slowdown against the nominal host, so a
/// shared machine getting slower for a while does not read as the
/// program getting slower.
fn reference_s() -> f64 {
    const N: u64 = 50_000;
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map = BTreeMap::new();
    let mut v = Vec::with_capacity(N as usize);
    for i in 0..N {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
        v.push((x >> 11) as f64);
    }
    let hits: u64 = (0..N).filter_map(|i| map.get(&(i * 331)).copied()).sum();
    v.sort_by(f64::total_cmp);
    std::hint::black_box((hits, v[v.len() / 2]));
    start.elapsed().as_secs_f64()
}

/// Runs `w` once.
pub fn run(w: &Workload, traced: bool) -> Rep {
    let reference_before = reference_s();
    let setup = Instant::now();
    let mut d = w.build();
    for _ in 0..w.phases.warmup {
        d.step_epoch();
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let start_snap = d.telemetry_snapshot();
    let start_ledger = d.system().sensor_ledger_total();
    let start_prof: Vec<(&'static str, PhaseStat)> = d.system().profiler().phases().to_vec();
    let mut gen = w.generator(&d);
    let epochs = w.phases.measured();
    let mut spans = traced.then(|| Spans {
        step_us: Vec::with_capacity(epochs as usize),
        submit_us: Vec::with_capacity(1 << 16),
        ..Spans::default()
    });

    // Open tickets, with the bracketing readings for NOW queries.
    let mut open: BTreeMap<u64, Option<(f64, f64)>> = BTreeMap::new();
    let (mut submitted, mut ok, mut failed, mut stale, mut unknown) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut trace_terminals, mut trace_bad) = (0u64, 0u64);
    let mut latencies: Vec<f64> = Vec::new();
    let mut now_ages: Vec<f64> = Vec::new();
    let mut now_submitted: Vec<(u64, usize, f64)> = Vec::new();
    let t_start = d.system().now();
    let allocs_before = alloc::allocation_count();
    let phase = Instant::now();
    for e in 0..epochs {
        if e < w.phases.query {
            let now = d.system().now();
            let gen_start = traced.then(Instant::now);
            let arrivals = gen.step(now);
            if let (Some(s), Some(g)) = (spans.as_mut(), gen_start) {
                s.gen_us += g.elapsed().as_secs_f64() * 1e6;
            }
            for a in &arrivals {
                submitted += 1;
                match span(spans.as_mut().map(|s| &mut s.submit_us), || d.submit(a)) {
                    Some(key) => {
                        if open.insert(key, None).is_some() {
                            unknown += 1;
                        }
                        if a.arrival.kind == QueryKind::Now {
                            let gid = d.gid(a);
                            now_submitted.push((key, gid, d.system().truth[gid]));
                        }
                    }
                    // Refused at the door: an honest failure at submit time.
                    None => {
                        failed += 1;
                        latencies.push(0.0);
                    }
                }
            }
        }
        if d.system().scope().enabled() {
            d.system_mut()
                .scope_mut()
                .feed(FEED_STALE_CONFIDENT, stale as f64);
        }
        span(spans.as_mut().map(|s| &mut s.step_us), || d.step_epoch());
        // The step samples every sensor at the epoch's start, which is
        // the instant this epoch's arrivals were submitted.
        for (key, gid, before) in now_submitted.drain(..) {
            open.insert(key, Some((before, d.system().truth[gid])));
        }
        for t in d.take_terminals() {
            let Some(truth) = open.remove(&t.key) else {
                unknown += 1;
                continue;
            };
            // Submit to terminal: the later of the terminal instant and
            // the answer's own radio-resolved latency.
            let latency = (t.completed_at - t.submitted_at)
                .as_secs_f64()
                .max(t.answer.latency().as_secs_f64());
            latencies.push(latency);
            if t.answer.source() == AnswerSource::Failed {
                failed += 1;
            } else if stale_confident(&t, truth) {
                stale += 1;
                failed += 1;
            } else {
                ok += 1;
                if let (PipelineQuery::Now { .. }, Some(age)) = (&t.query, t.age) {
                    now_ages.push(age.as_secs_f64());
                }
            }
        }
        for tr in d.take_finished_traces() {
            trace_terminals += 1;
            if tr.terminal_count() != 1 || !tr.is_monotone() {
                trace_bad += 1;
            }
        }
    }
    let phase_wall_s = phase.elapsed().as_secs_f64();
    let host_slowdown = (reference_before + reference_s()) / 2.0 / REFERENCE_NOMINAL_S;
    let allocs = alloc::allocation_count() - allocs_before;
    let phase_sim_s = (d.system().now() - t_start).as_secs_f64();

    let snap_start = traced.then(Instant::now);
    let snap = d.telemetry_snapshot();
    if let (Some(s), Some(t)) = (spans.as_mut(), snap_start) {
        s.snapshot_us = t.elapsed().as_secs_f64() * 1e6;
    }
    let ledger = d.system().sensor_ledger_total();
    let sys = d.system();
    let profiler: BTreeMap<&'static str, PhaseStat> = PHASES
        .iter()
        .map(|&name| {
            let end = sys.profiler().phase(name).copied().unwrap_or_default();
            let begin = start_prof
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, p)| *p)
                .unwrap_or_default();
            let delta = PhaseStat {
                calls: end.calls - begin.calls,
                micros: end.micros - begin.micros,
                items: end.items - begin.items,
                allocs: end.allocs - begin.allocs,
            };
            (name, delta)
        })
        .collect();

    // Correctness checks: any of these fails the run.
    let mut problems = Vec::new();
    let never = open.len() as u64;
    failed += never;
    if never > 0 {
        problems.push(format!("{never} queries never terminated"));
    }
    if unknown > 0 {
        problems.push(format!("{unknown} duplicate or unknown terminals"));
    }
    if stale > 0 {
        problems.push(format!("{stale} stale-confident answers"));
    }
    let leaks = d.leaks();
    if leaks > 0 {
        problems.push(format!(
            "{leaks} router/pipeline/RPC/mesh entries leaked after drain"
        ));
    }
    let orphans = d.open_traces();
    if trace_terminals != submitted || trace_bad > 0 || orphans > 0 {
        problems.push(format!(
            "trace audit: {trace_terminals} terminals for {submitted} submitted, \
             {trace_bad} malformed, {orphans} orphans"
        ));
    }
    let unattributed = sys.scope().unattributed_incidents();
    if unattributed > 0 {
        problems.push(format!("{unattributed} scope incidents no fault explains"));
    }

    let delta = |k: &str| snap.get(k).unwrap_or(0.0) - start_snap.get(k).unwrap_or(0.0);
    let end = |k: &str| snap.get(k).unwrap_or(0.0);
    let sensor_days = sys.total_sensors() as f64 * phase_sim_s / 86_400.0;
    let joules = |c: EnergyCategory| ratio(energy_delta(&ledger, &start_ledger, c), sensor_days);
    let total_j: f64 = EnergyCategory::ALL.iter().map(|&c| joules(c)).sum();
    let radio_bytes = delta("sensor.bytes_sent");
    let (n_lat, n_age) = (latencies.len(), now_ages.len());
    let sim = vec![
        ("answered_frac", ratio(ok as f64, submitted as f64)),
        ("latency_p50_s", quantile(&mut latencies, 0.50)),
        ("latency_p99_s", quantile(&mut latencies, 0.99)),
        ("now_age_mean_s", ratio(now_ages.iter().sum(), n_age as f64)),
        ("radio_bytes_per_answer", ratio(radio_bytes, ok as f64)),
        ("sensor_j_per_sensor_day", total_j),
    ];

    let (cache_hits, cache_lookups) = sys.proxies.iter().fold((0u64, 0u64), |(h, n), p| {
        let c = p.pipeline().reply_cache();
        (h + c.hits(), n + c.hits() + c.misses())
    });
    let pulls_served = delta("sensor.pulls_served");
    let layers = vec![
        (
            "pipeline.fast_frac",
            ratio(
                delta("pipeline.completed_fast"),
                delta("pipeline.submitted"),
            ),
        ),
        (
            "pipeline.coalesce_frac",
            ratio(delta("pipeline.coalesced"), delta("pipeline.submitted")),
        ),
        (
            "pipeline.rpcs_per_pull",
            ratio(
                delta("pipeline.rpcs_issued"),
                delta("pipeline.completed_pull"),
            ),
        ),
        (
            "pipeline.reply_cache_hit_rate",
            ratio(cache_hits as f64, cache_lookups as f64),
        ),
        (
            "slice.hit_rate",
            ratio(
                delta("slice.l1_hits") + delta("slice.l2_hits"),
                delta("slice.lookups"),
            ),
        ),
        ("pipeline.max_in_flight", end("pipeline.max_in_flight")),
        (
            "downlink.attempts_per_rpc",
            ratio(
                delta("downlink.rpcs") + delta("downlink.retransmits"),
                delta("downlink.rpcs"),
            ),
        ),
        (
            "downlink.rpc_fail_frac",
            ratio(delta("downlink.rpc_failures"), delta("downlink.rpcs")),
        ),
        (
            "fabric.delivered_frac",
            ratio(delta("fabric.delivered"), delta("fabric.offered")),
        ),
        (
            "recovery.samples_replayed",
            delta("recovery.samples_replayed"),
        ),
        (
            "sensor.push_frac",
            ratio(delta("sensor.deviations_pushed"), delta("sensor.samples")),
        ),
        ("sensor.j.radio_tx", joules(EnergyCategory::RadioTx)),
        ("sensor.j.radio_rx", joules(EnergyCategory::RadioRx)),
        ("sensor.j.listen", joules(EnergyCategory::RadioListen)),
        ("sensor.j.cpu", joules(EnergyCategory::Cpu)),
        ("sensor.j.flash_read", joules(EnergyCategory::FlashRead)),
        ("sensor.j.flash_write", joules(EnergyCategory::FlashWrite)),
        ("sensor.j.sensing", joules(EnergyCategory::Sensing)),
        (
            "archive.page_cache_hit_rate",
            ratio(
                delta("archive.page_cache_hits"),
                delta("archive.page_cache_hits") + delta("archive.page_cache_misses"),
            ),
        ),
        (
            "flash.reads_per_pull",
            ratio(delta("flash.reads"), pulls_served),
        ),
        (
            "flash.bytes_per_sample",
            ratio(delta("flash.bytes_written"), delta("sensor.samples")),
        ),
        (
            "archive.pages_pruned_per_read",
            ratio(delta("archive.pages_pruned"), pulls_served),
        ),
        ("archive.samples_aged", delta("archive.samples_aged")),
        (
            "archive.segments_reclaimed",
            delta("archive.segments_reclaimed"),
        ),
        ("trace.recorder_dropped", end("trace.recorder_dropped")),
        ("fleet_router.shed", end("fleet_router.shed")),
        (
            "fleet_router.failed_deadline",
            end("fleet_router.failed_deadline"),
        ),
        (
            "fleet_router.failed_entry_dead",
            end("fleet_router.failed_entry_dead"),
        ),
        ("interlink.dropped", end("interlink.dropped")),
        (
            "membership.deaths_declared",
            end("membership.deaths_declared"),
        ),
    ];

    // No silent zeros: every number this workload must produce is read
    // from the snapshot, the ledger or the allocator, and zero fails.
    let mut required: Vec<(&str, f64)> = vec![
        ("answered queries", ok as f64),
        ("NOW answers with an age", n_age as f64),
        ("sensor.bytes_sent", radio_bytes),
        ("sensor energy", total_j),
        ("pipeline.rpcs_issued", delta("pipeline.rpcs_issued")),
        ("process allocations", allocs as f64),
        (
            "profiler.step_epoch_core.allocs",
            profiler["step_epoch_core"].allocs as f64,
        ),
    ];
    if w.lossy() {
        required.push(("downlink.retransmits", delta("downlink.retransmits")));
    }
    match w.name {
        Name::FleetSkew => required.extend([
            ("fleet_router.shed", end("fleet_router.shed")),
            (
                "membership.deaths_declared",
                end("membership.deaths_declared"),
            ),
            (
                "profiler.fleet_scope.micros",
                profiler["fleet_scope"].micros as f64,
            ),
        ]),
        Name::HotWindows => required.extend([
            ("pipeline.coalesced", delta("pipeline.coalesced")),
            ("reply cache hits", cache_hits as f64),
        ]),
        Name::ArchiveAging => required.extend([
            (
                "archive.segments_reclaimed",
                delta("archive.segments_reclaimed"),
            ),
            ("archive.samples_aged", delta("archive.samples_aged")),
            ("flash.reads", delta("flash.reads")),
        ]),
    }
    for (what, v) in required {
        if v == 0.0 || !v.is_finite() {
            problems.push(format!("{what} reads zero in this workload"));
        }
    }

    Rep {
        setup_s,
        phase_wall_s,
        host_slowdown,
        phase_sim_s,
        epochs,
        submitted,
        failed,
        samples: (n_lat, n_age),
        sim,
        layers,
        profiler,
        allocs,
        spans,
        problems,
    }
}

/// Mean epoch span of the last tenth of the measured phase over the first
/// tenth.
pub fn cost_growth(step_us: &[f64]) -> f64 {
    let tenth = (step_us.len() / 10).max(1);
    if step_us.len() < 2 * tenth {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    ratio(
        mean(&step_us[step_us.len() - tenth..]),
        mean(&step_us[..tenth]),
    )
}
