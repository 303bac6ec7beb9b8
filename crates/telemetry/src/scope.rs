//! `presto-scope`: epoch time-series telemetry and online SLO
//! watchdogs with fault attribution.
//!
//! The registry ([`crate::metrics`]) answers "what are the totals";
//! this module answers "how did we get here, and when did it go
//! wrong". Two cooperating pieces share one reading per followed path
//! per epoch:
//!
//! * The sampler — a configurable set of dotted-path metrics folds into
//!   bounded per-metric ring buffers ([`RingSeries`]). On overflow the
//!   ring folds adjacent bins 2:1 in place — deterministically, no
//!   sampling, no clocks — so `min`, `max`, and `last` over the
//!   *entire* stream are preserved exactly while memory stays bounded.
//! * [`WatchdogEngine`] — declarative SLO rules evaluated online over
//!   the same readings: a counter that must stay still
//!   (stale-confident, fenced-while-serving), a value that must stay
//!   under a watermark (answer-age p99, pressure, shed episodes), and
//!   a leak probe (a gauge stuck nonzero with no progress). A
//!   violation opens an [`Incident`]; consecutive violating ticks
//!   extend it; the first clean tick closes it. Every incident carries
//!   the set of [`FaultPlan`] faults active in its (padded) window, so
//!   an alarm during an injected partition/crash/burst is *attributed*
//!   to it and an alarm outside every fault window is an unexplained
//!   regression the bench bins fail on.
//!
//! Readings: [`PrestoScope::new`] resolves every followed path (series
//! and rules) once to a slot. Each tick the deployment runs the same
//! [`Observe`] pass its `telemetry_snapshot()` runs, into a slot
//! [`Sink`] instead of a tree: writes to followed names land in their
//! slots, everything else returns at once, and sections nobody follows
//! are skipped via [`Sink::wants`]. Externally [`PrestoScope::feed`]-
//! supplied readings the tree cannot see (a scenario's stale-confidence
//! probe) override their slots. A tick builds no tree, formats no key
//! and allocates nothing unless an incident opens or extends.
//!
//! Determinism: sampling reads only the observed components and
//! `SimTime`; rule evaluation is pure arithmetic over those readings.
//! The scope section a deployment exports via `telemetry_snapshot` is
//! therefore byte-identical across same-seed runs (the dynamic
//! determinism audit covers it).

use std::collections::BTreeMap;

use presto_sim::{Fault, FaultPlan, SimDuration, SimTime};

use crate::metrics::{Observe, PathIndex, Sink};

// ---------------------------------------------------------------------------
// Watchdog rule names
// ---------------------------------------------------------------------------
//
// Every rule constant below must keep a matching fixture test (the
// `presto-lint` T2 pass enforces it): a test that constructs the rule
// and drives the engine through a violating and a clean trajectory.

/// Confident answers contradicted by truth must never appear: the
/// watched counter may not increase, ever.
pub const WD_STALE_CONFIDENT: &str = "stale_confident";
/// Serve-time answer-age p99 must stay under the workload's staleness
/// bound.
pub const WD_ANSWER_AGE_P99: &str = "answer_age_p99";
/// A leak probe (open tickets, pending queries, in-flight RPCs) must
/// keep making progress: stuck nonzero with no movement is a leak.
pub const WD_LEAK_PROBE: &str = "leak_probe";
/// Smoothed admission pressure must stay under the deployment
/// watermark.
pub const WD_PRESSURE_WATERMARK: &str = "pressure_watermark";
/// Shed episodes per epoch must stay under the anti-flap watermark.
pub const WD_SHED_EPISODE_WATERMARK: &str = "shed_episode_watermark";
/// A fenced (minority-side) proxy must never be the one serving user
/// traffic: any fenced admission or fenced uplink raises this.
pub const WD_FENCED_WHILE_SERVING: &str = "fenced_while_serving";

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How a sampled path is turned into a series value each tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Record the reading as-is (gauges, rates, percentiles).
    Level,
    /// Record the increase since the previous tick (cumulative
    /// counters → per-epoch rates). The first tick records the raw
    /// reading.
    Delta,
}

/// One metric the sampler follows.
#[derive(Clone, Debug)]
pub struct SeriesSpec {
    /// Dotted snapshot path (`pipeline.rpcs_issued`) or a
    /// [`PrestoScope::feed`] name.
    pub path: String,
    /// Level or per-tick delta.
    pub kind: SeriesKind,
}

impl SeriesSpec {
    /// A level (gauge) series.
    pub fn level(path: &str) -> Self {
        SeriesSpec {
            path: path.to_string(),
            kind: SeriesKind::Level,
        }
    }

    /// A per-tick delta series over a cumulative counter.
    pub fn delta(path: &str) -> Self {
        SeriesSpec {
            path: path.to_string(),
            kind: SeriesKind::Delta,
        }
    }
}

/// One declarative SLO check.
#[derive(Clone, Debug)]
pub enum RuleCheck {
    /// The reading must never increase (zero-tolerance counters).
    Still,
    /// The reading must stay ≤ `bound`.
    Below {
        /// Inclusive watermark.
        bound: f64,
    },
    /// The reading's per-tick increase must stay ≤ `bound` (rate
    /// watermark over a cumulative counter). The first tick never
    /// violates (no previous reading).
    RateBelow {
        /// Inclusive per-tick watermark.
        bound: f64,
    },
    /// The reading may exceed `floor` transiently, but sitting at the
    /// *same* value above `floor` for `within` consecutive ticks with
    /// no progress is a leak.
    Stuck {
        /// Values at or below this are healthy.
        floor: f64,
        /// Consecutive no-progress ticks above `floor` that trip it.
        within: u32,
    },
}

/// A named SLO rule over one sampled path.
#[derive(Clone, Debug)]
pub struct WatchdogRule {
    /// Rule family (one of the `WD_*` constants).
    pub name: &'static str,
    /// The sampled path the rule watches.
    pub path: String,
    /// The check.
    pub check: RuleCheck,
}

impl WatchdogRule {
    /// A zero-tolerance counter rule.
    pub fn still(name: &'static str, path: &str) -> Self {
        WatchdogRule {
            name,
            path: path.to_string(),
            check: RuleCheck::Still,
        }
    }

    /// A watermark rule.
    pub fn below(name: &'static str, path: &str, bound: f64) -> Self {
        WatchdogRule {
            name,
            path: path.to_string(),
            check: RuleCheck::Below { bound },
        }
    }

    /// A per-tick rate watermark over a cumulative counter.
    pub fn rate_below(name: &'static str, path: &str, bound: f64) -> Self {
        WatchdogRule {
            name,
            path: path.to_string(),
            check: RuleCheck::RateBelow { bound },
        }
    }

    /// A leak-probe rule.
    pub fn stuck(name: &'static str, path: &str, floor: f64, within: u32) -> Self {
        WatchdogRule {
            name,
            path: path.to_string(),
            check: RuleCheck::Stuck { floor, within },
        }
    }
}

/// Ring-buffer bins per series (even, ≥ 2). A full ring folds 2:1, so a
/// run of any length fits.
const RING_CAPACITY: usize = 256;

/// `presto-scope` configuration: which series to follow, how many
/// incidents to retain, and which rules to watch.
#[derive(Clone, Debug)]
pub struct ScopeConfig {
    /// Master switch; disabled, every call is a no-op.
    pub enabled: bool,
    /// Retained structured incidents; beyond it incidents are still
    /// *counted* per rule but their records drop.
    pub incident_capacity: usize,
    /// Attribution slack around a fault window: a fault is blamed for
    /// an incident when their padded windows overlap (fencing and
    /// re-sync effects outlive the cut itself).
    pub attribution_pad: SimDuration,
    /// The followed series.
    pub series: Vec<SeriesSpec>,
    /// The watched rules.
    pub rules: Vec<WatchdogRule>,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            enabled: false,
            incident_capacity: 128,
            attribution_pad: SimDuration::from_mins(20),
            series: Vec::new(),
            rules: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Ring series with 2:1 downsampling
// ---------------------------------------------------------------------------

/// One stored bin: `samples` raw readings folded together.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesBin {
    /// Time of the first reading in the bin.
    pub t: SimTime,
    /// Minimum reading folded in.
    pub min: f64,
    /// Maximum reading folded in.
    pub max: f64,
    /// Last (most recent) reading folded in.
    pub last: f64,
    /// Raw readings folded in.
    pub samples: u64,
}

impl SeriesBin {
    fn one(t: SimTime, v: f64) -> Self {
        SeriesBin {
            t,
            min: v,
            max: v,
            last: v,
            samples: 1,
        }
    }

    fn fold(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        self.samples += 1;
    }

    fn merge(a: SeriesBin, b: SeriesBin) -> SeriesBin {
        SeriesBin {
            t: a.t,
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            last: b.last,
            samples: a.samples + b.samples,
        }
    }
}

/// A bounded per-metric ring: raw readings accumulate into a current
/// bin of `stride` samples; full bins append; a full ring folds
/// adjacent bin pairs 2:1 in place and doubles the stride. Nothing is
/// ever discarded — only resolution halves — so min/max/last over the
/// whole stream are exact at any moment. The bins are reserved up
/// front, so pushing never allocates.
#[derive(Clone, Debug)]
pub struct RingSeries {
    cap: usize,
    stride: u64,
    bins: Vec<SeriesBin>,
    current: Option<SeriesBin>,
}

impl RingSeries {
    /// An empty ring holding at most `cap` closed bins (`cap` is
    /// rounded up to an even minimum of 2 so pair-folding is exact).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2);
        let cap = cap + (cap & 1);
        RingSeries {
            cap,
            stride: 1,
            bins: Vec::with_capacity(cap),
            current: None,
        }
    }

    /// Folds one reading in.
    pub fn push(&mut self, t: SimTime, v: f64) {
        match &mut self.current {
            Some(bin) => bin.fold(v),
            None => self.current = Some(SeriesBin::one(t, v)),
        }
        let full = self
            .current
            .as_ref()
            .is_some_and(|b| b.samples >= self.stride);
        if full {
            if let Some(bin) = self.current.take() {
                self.bins.push(bin);
            }
            if self.bins.len() >= self.cap {
                self.downsample();
            }
        }
    }

    /// Folds adjacent bin pairs 2:1 in place and doubles the stride.
    /// Only a full ring folds, and `cap` is even, so every bin has a
    /// partner.
    fn downsample(&mut self) {
        debug_assert_eq!(self.bins.len(), self.cap);
        let half = self.bins.len() / 2;
        for i in 0..half {
            self.bins[i] = SeriesBin::merge(self.bins[2 * i], self.bins[2 * i + 1]);
        }
        self.bins.truncate(half);
        self.stride *= 2;
    }

    /// Closed bins plus the in-progress one, oldest first.
    pub fn bins(&self) -> Vec<SeriesBin> {
        self.all_bins().copied().collect()
    }

    fn all_bins(&self) -> impl Iterator<Item = &SeriesBin> {
        self.bins.iter().chain(self.current.as_ref())
    }
}

// ---------------------------------------------------------------------------
// Incidents
// ---------------------------------------------------------------------------

/// One SLO violation episode: opened on the first violating tick,
/// extended while violations continue, closed on the first clean tick.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Rule family (`WD_*`).
    pub rule: &'static str,
    /// The watched path.
    pub path: String,
    /// First violating tick.
    pub opened_at: SimTime,
    /// First clean tick after the episode (`None` while open).
    pub closed_at: Option<SimTime>,
    /// Worst offending reading inside the episode.
    pub observed: f64,
    /// The rule's bound (0 for `Still` rules).
    pub bound: f64,
    /// Injected faults whose padded windows overlap the episode, each
    /// once, in the order the episode first meets them (plan order
    /// within a tick) — the blame set.
    pub faults: Vec<Fault>,
}

impl Incident {
    /// True when at least one injected fault overlaps: the violation
    /// is *explained*. An unattributed incident is a regression.
    pub fn attributed(&self) -> bool {
        !self.faults.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Watchdog engine
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct RuleState {
    prev: Option<f64>,
    /// Consecutive no-progress ticks above the floor (Stuck rules).
    stuck_streak: u32,
    /// Index into the incident log while an episode is open;
    /// `usize::MAX` marks an episode whose record was dropped by the
    /// capacity bound (still tracked so it opens/closes once).
    open: Option<usize>,
}

/// Online evaluator of [`WatchdogRule`]s with a bounded incident log.
#[derive(Clone, Debug)]
pub struct WatchdogEngine {
    /// Each rule with the slot of its path and its running state.
    rules: Vec<(WatchdogRule, usize, RuleState)>,
    incidents: Vec<Incident>,
    incident_cap: usize,
    pad: SimDuration,
    /// Episodes opened, per rule name (survives record drops).
    opened: BTreeMap<&'static str, u64>,
    dropped: u64,
}

impl WatchdogEngine {
    /// Builds the engine over rules whose paths resolve through `index`.
    fn new(
        rules: Vec<WatchdogRule>,
        index: &mut PathIndex,
        incident_cap: usize,
        pad: SimDuration,
    ) -> Self {
        WatchdogEngine {
            rules: rules
                .into_iter()
                .map(|r| {
                    let slot = index.resolve(&r.path);
                    (r, slot, RuleState::default())
                })
                .collect(),
            incidents: Vec::new(),
            incident_cap,
            pad,
            opened: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Feeds one tick of readings, by slot. A rule whose reading is
    /// absent is skipped (its state holds).
    fn observe_tick(&mut self, t: SimTime, readings: &[Option<f64>], faults: &FaultPlan) {
        let pad = self.pad;
        for (rule, slot, state) in &mut self.rules {
            let Some(value) = readings[*slot] else {
                continue;
            };
            let (violated, observed, bound) = match rule.check {
                RuleCheck::Still => {
                    let grew = state.prev.is_some_and(|p| value > p + 1e-9);
                    let step = state.prev.map_or(0.0, |p| value - p);
                    (grew, step, 0.0)
                }
                RuleCheck::Below { bound } => (value > bound, value, bound),
                RuleCheck::RateBelow { bound } => {
                    let step = state.prev.map_or(0.0, |p| value - p);
                    (state.prev.is_some() && step > bound, step, bound)
                }
                RuleCheck::Stuck { floor, within } => {
                    if value > floor && state.prev.is_some_and(|p| p == value) {
                        state.stuck_streak = state.stuck_streak.saturating_add(1);
                    } else {
                        state.stuck_streak = 0;
                    }
                    (state.stuck_streak >= within, value, floor)
                }
            };
            state.prev = Some(value);
            match (violated, state.open) {
                (true, None) => {
                    *self.opened.entry(rule.name).or_insert(0) += 1;
                    if self.incidents.len() < self.incident_cap {
                        self.incidents.push(Incident {
                            rule: rule.name,
                            path: rule.path.clone(),
                            opened_at: t,
                            closed_at: None,
                            observed,
                            bound,
                            faults: faults.active_in(t - pad, t + pad),
                        });
                        state.open = Some(self.incidents.len() - 1);
                    } else {
                        self.dropped += 1;
                        state.open = Some(usize::MAX);
                    }
                }
                (true, Some(idx)) => {
                    if let Some(inc) = self.incidents.get_mut(idx) {
                        if observed.abs() > inc.observed.abs() {
                            inc.observed = observed;
                        }
                        for f in faults.active_in(t - pad, t + pad) {
                            if !inc.faults.contains(&f) {
                                inc.faults.push(f);
                            }
                        }
                    }
                }
                (false, Some(idx)) => {
                    if let Some(inc) = self.incidents.get_mut(idx) {
                        inc.closed_at = Some(t);
                    }
                    state.open = None;
                }
                (false, None) => {}
            }
        }
    }

    /// The incident log, in open order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Episodes opened per rule (counts survive record drops).
    pub fn opened_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.opened
    }

    /// Incident records dropped by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// The scope: sampler + watchdogs
// ---------------------------------------------------------------------------

/// One followed series' per-tick state.
#[derive(Clone, Debug)]
struct Follow {
    slot: usize,
    kind: SeriesKind,
    /// Last raw reading (Delta series).
    prev_raw: Option<f64>,
}

/// One tick's readings, by slot, moved out of the scope for the observe
/// pass ([`PrestoScope::begin_tick`] to [`PrestoScope::end_tick`]) so
/// the observed deployment — the scope included — stays borrowable.
#[derive(Debug)]
pub struct Readings(Vec<Option<f64>>);

/// The per-deployment scope: ring-buffered time series plus the
/// watchdog engine, fed once per epoch by an observe pass into its
/// resolved slots.
#[derive(Clone, Debug)]
pub struct PrestoScope {
    config: ScopeConfig,
    /// Every followed series and rule path, resolved to its slot.
    index: PathIndex,
    /// The readings buffer, one entry per slot: cleared (not freed)
    /// each tick, and lent out while the tick observes.
    readings: Vec<Option<f64>>,
    /// Externally supplied readings by slot, applied over each tick's
    /// observed ones; they persist until overwritten.
    feeds: Vec<Option<f64>>,
    /// The followed series, in config order, and their per-tick state.
    series: Vec<(String, RingSeries)>,
    follow: Vec<Follow>,
    watchdog: WatchdogEngine,
    ticks: u64,
}

impl PrestoScope {
    /// Builds a scope, resolving every followed path to a slot.
    /// Disabled configs build an inert scope whose every method returns
    /// immediately.
    pub fn new(config: ScopeConfig) -> Self {
        let mut index = PathIndex::default();
        let (specs, rules) = if config.enabled {
            (config.series.clone(), config.rules.clone())
        } else {
            (Vec::new(), Vec::new())
        };
        let follow = specs
            .iter()
            .map(|s| Follow {
                slot: index.resolve(&s.path),
                kind: s.kind,
                prev_raw: None,
            })
            .collect();
        let series = specs
            .into_iter()
            .map(|s| (s.path, RingSeries::new(RING_CAPACITY)))
            .collect();
        let watchdog = WatchdogEngine::new(
            rules,
            &mut index,
            config.incident_capacity,
            config.attribution_pad,
        );
        PrestoScope {
            readings: vec![None; index.len()],
            feeds: vec![None; index.len()],
            index,
            series,
            follow,
            watchdog,
            ticks: 0,
            config,
        }
    }

    /// Whether the scope is live.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Supplies an external reading for the next tick (overrides a
    /// same-named observed path). Values persist until overwritten. A
    /// path no series or rule follows is never read, so feeding it does
    /// nothing.
    pub fn feed(&mut self, path: &str, value: f64) {
        if let Some(slot) = self.index.slot(path) {
            self.feeds[slot] = Some(value);
        }
    }

    /// Starts a tick: lends out the cleared readings buffer.
    pub fn begin_tick(&mut self) -> Readings {
        let mut readings = std::mem::take(&mut self.readings);
        readings.fill(None);
        Readings(readings)
    }

    /// The sink an observe pass writes this tick's readings through.
    pub fn sink<'a>(&'a self, readings: &'a mut Readings) -> Sink<'a> {
        Sink::slots(&self.index, &mut readings.0)
    }

    /// Finishes a tick at time `t`: applies the feeds, folds every
    /// present reading into its series, runs the watchdogs, and takes
    /// the buffer back. Returns the number of slots read. A slot nobody
    /// wrote is absent: its series and rules skip the tick and their
    /// state holds.
    pub fn end_tick(&mut self, t: SimTime, readings: Readings, faults: &FaultPlan) -> usize {
        let Readings(mut values) = readings;
        if !self.config.enabled {
            self.readings = values;
            return 0;
        }
        self.ticks += 1;
        for (v, fed) in values.iter_mut().zip(&self.feeds) {
            if fed.is_some() {
                *v = *fed;
            }
        }
        for (f, (_, ring)) in self.follow.iter_mut().zip(&mut self.series) {
            let Some(raw) = values[f.slot] else {
                continue;
            };
            let v = match f.kind {
                SeriesKind::Level => raw,
                SeriesKind::Delta => raw - f.prev_raw.replace(raw).unwrap_or(0.0),
            };
            ring.push(t, v);
        }
        // Rules read the *raw* readings: counters stay cumulative for
        // Still rules, watermark rules read levels directly.
        self.watchdog.observe_tick(t, &values, faults);
        let read = values.iter().filter(|v| v.is_some()).count();
        self.readings = values;
        read
    }

    /// The followed series, in config order.
    pub fn series(&self) -> &[(String, RingSeries)] {
        &self.series
    }

    /// The incident log.
    pub fn incidents(&self) -> &[Incident] {
        self.watchdog.incidents()
    }

    /// Incidents not explained by any injected fault.
    pub fn unattributed_incidents(&self) -> usize {
        self.watchdog
            .incidents()
            .iter()
            .filter(|i| !i.attributed())
            .count()
    }
}

impl Observe for PrestoScope {
    fn observe(&self, s: &mut Sink<'_>) {
        if !self.config.enabled {
            return;
        }
        s.counter("ticks", self.ticks);
        s.counter("series", self.series.len() as u64);
        s.counter("incidents_total", self.watchdog.incidents().len() as u64);
        s.counter(
            "incidents_open",
            self.watchdog
                .incidents()
                .iter()
                .filter(|i| i.closed_at.is_none())
                .count() as u64,
        );
        s.counter("incidents_unattributed", self.unattributed_incidents() as u64);
        s.counter("incidents_dropped", self.watchdog.dropped());
        let mut by_rule = s.child("incidents");
        for (name, n) in self.watchdog.opened_counts() {
            by_rule.counter(name, *n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A snapshot holding each `(dotted path, value)` as a gauge: the
    /// hand-built source the watchdog fixtures tick the scope from.
    fn tick(vals: &[(&str, f64)]) -> Snapshot {
        let mut snap = Snapshot::new();
        for (path, v) in vals {
            let mut section = &mut snap.root;
            let mut segs: Vec<&str> = path.split('.').collect();
            let leaf = segs.pop().unwrap_or_default();
            for seg in segs {
                section = section.child(seg);
            }
            section.gauge(leaf, *v);
        }
        snap
    }

    /// Exact `(min, max)` over every reading a ring folded in, read from
    /// its exported bins.
    fn extremes(r: &RingSeries) -> (f64, f64) {
        r.bins()
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), b| {
                (lo.min(b.min), hi.max(b.max))
            })
    }

    /// A ring's most recent reading.
    fn last(r: &RingSeries) -> Option<f64> {
        r.bins().last().map(|b| b.last)
    }

    /// One epoch tick over `source`: what a deployment's epoch runs.
    fn sample(scope: &mut PrestoScope, t: SimTime, source: &impl Observe, faults: &FaultPlan) {
        let mut readings = scope.begin_tick();
        source.observe(&mut scope.sink(&mut readings));
        scope.end_tick(t, readings, faults);
    }

    /// A live scope watching `rules` with a 5-minute attribution pad.
    fn watching(rules: Vec<WatchdogRule>, incident_capacity: usize) -> PrestoScope {
        PrestoScope::new(ScopeConfig {
            enabled: true,
            rules,
            incident_capacity,
            attribution_pad: SimDuration::from_mins(5),
            ..ScopeConfig::default()
        })
    }

    #[test]
    fn ring_preserves_min_max_last_through_downsampling() {
        let mut r = RingSeries::new(4);
        let stream: Vec<f64> = (0..100).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for (i, &v) in stream.iter().enumerate() {
            r.push(t(i as u64), v);
        }
        let exact_min = stream.iter().cloned().fold(f64::INFINITY, f64::min);
        let exact_max = stream.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(extremes(&r), (exact_min, exact_max));
        assert_eq!(last(&r), stream.last().copied());
        assert!(r.bins().len() <= 5, "ring must stay bounded: {}", r.bins().len());
        let total: u64 = r.bins().iter().map(|b| b.samples).sum();
        assert_eq!(total, stream.len() as u64, "no reading may be discarded");
    }

    #[test]
    fn ring_bins_stay_time_ordered() {
        let mut r = RingSeries::new(2);
        for i in 0..50u64 {
            r.push(t(i * 31), i as f64);
        }
        let bins = r.bins();
        assert!(bins.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn ring_folds_pairs_in_place_without_growing() {
        let mut r = RingSeries::new(4);
        for i in 0..4u64 {
            r.push(t(i), i as f64);
        }
        let bins = r.bins();
        assert_eq!(bins.len(), 2, "a full ring folds 2:1");
        assert_eq!((bins[0].min, bins[0].max, bins[0].last), (0.0, 1.0, 1.0));
        assert_eq!((bins[1].t, bins[1].samples), (t(2), 2));
        assert_eq!(r.bins.capacity(), 4, "bins reserved up front, never regrown");
    }

    // Fixture: WD_STALE_CONFIDENT — a Still rule fires exactly when the
    // counter increases, and the incident closes when it stops.
    #[test]
    fn wd_stale_confident_fires_on_counter_growth() {
        let rule = WatchdogRule::still(WD_STALE_CONFIDENT, "probe.stale");
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none();
        sample(&mut e, t(0), &tick(&[("probe.stale", 0.0)]), &plan);
        sample(&mut e, t(31), &tick(&[("probe.stale", 0.0)]), &plan);
        assert!(e.incidents().is_empty(), "a still counter must not alarm");
        sample(&mut e, t(62), &tick(&[("probe.stale", 2.0)]), &plan);
        assert_eq!(e.incidents().len(), 1);
        assert_eq!(e.incidents()[0].rule, WD_STALE_CONFIDENT);
        assert_eq!(e.incidents()[0].observed, 2.0);
        assert!(!e.incidents()[0].attributed(), "no faults injected");
        sample(&mut e, t(93), &tick(&[("probe.stale", 2.0)]), &plan);
        assert_eq!(e.incidents()[0].closed_at, Some(t(93)));
        assert_eq!(e.incidents().len(), 1, "episodes merge consecutive ticks");
    }

    // Fixture: WD_ANSWER_AGE_P99 — a Below rule opens while the reading
    // exceeds the bound and records the peak.
    #[test]
    fn wd_answer_age_p99_watermark_tracks_peak() {
        let rule = WatchdogRule::below(WD_ANSWER_AGE_P99, "router.age_p99", 100.0);
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none();
        for (i, v) in [50.0, 150.0, 300.0, 120.0, 80.0].into_iter().enumerate() {
            sample(
                &mut e,
                t(i as u64 * 31),
                &tick(&[("router.age_p99", v)]),
                &plan,
            );
        }
        assert_eq!(e.incidents().len(), 1);
        let inc = &e.incidents()[0];
        assert_eq!(inc.opened_at, t(31));
        assert_eq!(inc.closed_at, Some(t(124)));
        assert_eq!(inc.observed, 300.0);
        assert_eq!(inc.bound, 100.0);
    }

    // Fixture: WD_LEAK_PROBE — a Stuck rule ignores moving queues and
    // fires only when a nonzero gauge stops making progress.
    #[test]
    fn wd_leak_probe_needs_no_progress() {
        let rule = WatchdogRule::stuck(WD_LEAK_PROBE, "leaks.open", 0.0, 3);
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none();
        // Busy but moving: never fires.
        for (i, v) in [5.0, 7.0, 6.0, 9.0, 4.0].into_iter().enumerate() {
            sample(&mut e, t(i as u64 * 31), &tick(&[("leaks.open", v)]), &plan);
        }
        assert!(e.incidents().is_empty());
        // Stuck at 4.0 for `within` ticks: leak.
        for i in 5..10u64 {
            sample(&mut e, t(i * 31), &tick(&[("leaks.open", 4.0)]), &plan);
        }
        assert_eq!(e.incidents().len(), 1);
        assert_eq!(e.incidents()[0].rule, WD_LEAK_PROBE);
        // Draining to zero closes it.
        sample(&mut e, t(310), &tick(&[("leaks.open", 0.0)]), &plan);
        assert!(e.incidents()[0].closed_at.is_some());
    }

    // Fixture: WD_PRESSURE_WATERMARK — Below over a smoothed pressure
    // gauge.
    #[test]
    fn wd_pressure_watermark_fires_over_watermark() {
        let rule = WatchdogRule::below(WD_PRESSURE_WATERMARK, "scope.pressure_max", 200.0);
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none();
        sample(&mut e, t(0), &tick(&[("scope.pressure_max", 12.0)]), &plan);
        assert!(e.incidents().is_empty());
        sample(
            &mut e,
            t(31),
            &tick(&[("scope.pressure_max", 900.0)]),
            &plan,
        );
        assert_eq!(e.incidents().len(), 1);
        assert_eq!(e.incidents()[0].rule, WD_PRESSURE_WATERMARK);
    }

    // Fixture: WD_SHED_EPISODE_WATERMARK — RateBelow over the
    // cumulative episode counter: slow accretion is fine, a flap storm
    // inside one tick is not.
    #[test]
    fn wd_shed_episode_watermark_bounds_flap_rate() {
        let rule =
            WatchdogRule::rate_below(WD_SHED_EPISODE_WATERMARK, "fleet_router.shed_episodes", 8.0);
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none();
        sample(
            &mut e,
            t(0),
            &tick(&[("fleet_router.shed_episodes", 3.0)]),
            &plan,
        );
        sample(
            &mut e,
            t(31),
            &tick(&[("fleet_router.shed_episodes", 8.0)]),
            &plan,
        );
        assert!(e.incidents().is_empty(), "+5 per tick is under the bound");
        sample(
            &mut e,
            t(62),
            &tick(&[("fleet_router.shed_episodes", 30.0)]),
            &plan,
        );
        assert_eq!(e.incidents().len(), 1, "+22 in one tick is a flap storm");
        assert_eq!(e.incidents()[0].rule, WD_SHED_EPISODE_WATERMARK);
        assert_eq!(e.incidents()[0].observed, 22.0);
    }

    // Fixture: WD_FENCED_WHILE_SERVING — a Still rule over the fenced
    // admission counter, attributed to the partition that caused it.
    #[test]
    fn wd_fenced_while_serving_attributes_to_the_partition() {
        let rule = WatchdogRule::still(WD_FENCED_WHILE_SERVING, "fleet_router.failed_fenced");
        let mut e = watching(vec![rule], 16);
        let plan = FaultPlan::none().with_mesh_partition(
            vec![2],
            SimTime::from_secs(100),
            SimTime::from_secs(400),
        );
        sample(
            &mut e,
            t(50),
            &tick(&[("fleet_router.failed_fenced", 0.0)]),
            &plan,
        );
        sample(
            &mut e,
            t(150),
            &tick(&[("fleet_router.failed_fenced", 3.0)]),
            &plan,
        );
        assert_eq!(e.incidents().len(), 1);
        let inc = &e.incidents()[0];
        assert!(inc.attributed(), "the cut was active: {inc:?}");
        assert!(
            inc.faults
                .iter()
                .any(|f| matches!(f, Fault::MeshPartition { .. })),
            "blame set must name the partition: {:?}",
            inc.faults
        );
    }

    #[test]
    fn incident_log_is_bounded_but_counts_survive() {
        let rule = WatchdogRule::below(WD_PRESSURE_WATERMARK, "p", 10.0);
        let mut e = watching(vec![rule], 2);
        let plan = FaultPlan::none();
        for i in 0..10u64 {
            // Alternate violating / clean ticks: 5 distinct episodes.
            let v = if i % 2 == 0 { 100.0 } else { 0.0 };
            sample(&mut e, t(i * 31), &tick(&[("p", v)]), &plan);
        }
        assert_eq!(e.incidents().len(), 2, "log bounded");
        assert_eq!(e.watchdog.dropped(), 3);
        assert_eq!(e.watchdog.opened_counts()[WD_PRESSURE_WATERMARK], 5);
    }

    #[test]
    fn scope_samples_feeds_and_snapshot_paths() {
        let mut scope = PrestoScope::new(ScopeConfig {
            enabled: true,
            series: vec![
                SeriesSpec::level("demo.gauge"),
                SeriesSpec::delta("demo.counter"),
                SeriesSpec::level("fed.value"),
            ],
            rules: vec![WatchdogRule::still(WD_STALE_CONFIDENT, "fed.value")],
            ..ScopeConfig::default()
        });
        let plan = FaultPlan::none();
        let mut snap = Snapshot::new();
        snap.root.child("demo").gauge("gauge", 5.0);
        snap.root.child("demo").counter("counter", 10);
        scope.feed("fed.value", 0.0);
        sample(&mut scope, t(0), &snap, &plan);
        let mut snap2 = Snapshot::new();
        snap2.root.child("demo").gauge("gauge", 7.0);
        snap2.root.child("demo").counter("counter", 25);
        scope.feed("fed.value", 1.0);
        sample(&mut scope, t(31), &snap2, &plan);

        let series: BTreeMap<&str, &RingSeries> = scope
            .series()
            .iter()
            .map(|(k, r)| (k.as_str(), r))
            .collect();
        assert_eq!(last(series["demo.gauge"]), Some(7.0));
        // Delta: first tick records the raw reading, second the step.
        assert_eq!(extremes(series["demo.counter"]).1, 15.0);
        assert_eq!(last(series["fed.value"]), Some(1.0));
        assert_eq!(scope.incidents().len(), 1, "fed counter grew");
        assert_eq!(scope.ticks, 2);

        let mut exported = Snapshot::new();
        scope.observe(&mut exported.sink());
        assert_eq!(exported.get("incidents_total"), Some(1.0));
        assert_eq!(exported.get("incidents_unattributed"), Some(1.0));
    }

    #[test]
    fn feeds_override_observed_paths_and_absent_paths_hold_state() {
        let mut scope = PrestoScope::new(ScopeConfig {
            enabled: true,
            series: vec![SeriesSpec::level("demo.x"), SeriesSpec::delta("demo.n")],
            ..ScopeConfig::default()
        });
        let plan = FaultPlan::none();
        sample(
            &mut scope,
            t(0),
            &tick(&[("demo.x", 1.0), ("demo.n", 10.0)]),
            &plan,
        );
        // `demo.n` absent this tick: its ring and Delta base hold.
        scope.feed("demo.x", 9.0);
        sample(&mut scope, t(31), &tick(&[("demo.x", 2.0)]), &plan);
        sample(
            &mut scope,
            t(62),
            &tick(&[("demo.x", 3.0), ("demo.n", 14.0)]),
            &plan,
        );
        let (x, n) = (&scope.series()[0].1, &scope.series()[1].1);
        assert_eq!(last(x), Some(9.0), "a feed overrides and persists");
        assert_eq!(extremes(x).0, 1.0);
        let folded: u64 = n.bins().iter().map(|b| b.samples).sum();
        assert_eq!(folded, 2, "an absent path skips the tick");
        assert_eq!(last(n), Some(4.0), "the Delta base held across the gap");
        scope.feed("nobody.follows", 1.0);
    }

    #[test]
    fn disabled_scope_is_inert() {
        let mut scope = PrestoScope::new(ScopeConfig {
            series: vec![SeriesSpec::level("x")],
            rules: vec![WatchdogRule::still(WD_STALE_CONFIDENT, "x")],
            ..ScopeConfig::default()
        });
        let snap = Snapshot::new();
        scope.feed("x", 5.0);
        sample(&mut scope, t(0), &snap, &FaultPlan::none());
        assert_eq!(scope.ticks, 0);
        assert!(scope.series().is_empty());
        assert!(scope.incidents().is_empty());
        let mut exported = Snapshot::new();
        scope.observe(&mut exported.sink());
        assert_eq!(exported.get("ticks"), None, "disabled scope exports nothing");
    }
}
