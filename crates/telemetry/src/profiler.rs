//! Phase timers and per-epoch work counts over the epoch pump.
//!
//! The deployment's hot path is a fixed sequence of phases
//! (`step_epoch_core`, `pump_pipelines`, `pump_queries`, membership
//! step, mesh delivery, …). The profiler wraps each in a wall-clock
//! timer plus optional item counts (downlink attempts, RPCs issued),
//! so "where did this epoch's time go" is one read-out — and hot-path
//! regressions surface before the scale-harness PR. Disabled, it never
//! reads the clock: [`EpochProfiler::begin`] returns `None` and every
//! other call returns immediately.

use std::time::Instant;

use crate::alloc::allocation_count;
use crate::metrics::{Observe, Sink};

/// Accumulated cost of one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall-clock microseconds spent in it (the profiler sums
    /// exact nanoseconds and rounds the total down, so sub-µs calls
    /// still add up).
    pub micros: u64,
    /// Items processed (attempts, messages — phase-defined).
    pub items: u64,
    /// Heap allocations made inside the phase (0 unless the binary
    /// installed [`crate::alloc::CountingAlloc`]).
    pub allocs: u64,
}

/// An in-flight phase measurement: wall-clock start plus the global
/// allocation count at entry. Opaque to call sites — pass it straight
/// from [`EpochProfiler::begin`] to [`EpochProfiler::end`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseToken {
    started: Instant,
    allocs_at_start: u64,
}

/// The per-deployment phase profiler.
#[derive(Clone, Debug)]
pub struct EpochProfiler {
    enabled: bool,
    /// Insertion-ordered so reports read in pipeline order.
    phases: Vec<(&'static str, PhaseStat)>,
    /// Exact wall-clock nanoseconds per phase, parallel to `phases`;
    /// each phase's `micros` is derived from it.
    nanos: Vec<u64>,
    epochs: u64,
}

impl EpochProfiler {
    /// Creates a profiler; disabled it never reads the clock.
    pub fn new(enabled: bool) -> Self {
        EpochProfiler {
            enabled,
            phases: Vec::new(),
            nanos: Vec::new(),
            epochs: 0,
        }
    }

    /// Starts a phase measurement (`None` when disabled — pass it
    /// straight to [`EpochProfiler::end`]).
    pub fn begin(&self) -> Option<PhaseToken> {
        if self.enabled {
            Some(PhaseToken {
                started: Instant::now(),
                allocs_at_start: allocation_count(),
            })
        } else {
            None
        }
    }

    /// Stops a phase measurement started by [`EpochProfiler::begin`].
    pub fn end(&mut self, name: &'static str, token: Option<PhaseToken>) {
        let Some(token) = token else { return };
        let elapsed = token.started.elapsed();
        let allocs = allocation_count().saturating_sub(token.allocs_at_start);
        let i = self.entry(name);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[i] = self.nanos[i].saturating_add(nanos);
        let stat = &mut self.phases[i].1;
        stat.calls += 1;
        stat.micros = self.nanos[i] / 1_000;
        stat.allocs += allocs;
    }

    /// Adds `n` items to a phase's work count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled && n > 0 {
            let i = self.entry(name);
            self.phases[i].1.items += n;
        }
    }

    /// Marks one epoch completed (the per-epoch denominators).
    pub fn epoch(&mut self) {
        if self.enabled {
            self.epochs += 1;
        }
    }

    /// The accumulated phases, in first-seen order.
    pub fn phases(&self) -> &[(&'static str, PhaseStat)] {
        &self.phases
    }

    /// One phase's stat.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// The index of `name`'s phase, added on first use.
    fn entry(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.phases.iter().position(|(n, _)| *n == name) {
            return i;
        }
        self.phases.push((name, PhaseStat::default()));
        self.nanos.push(0);
        self.phases.len() - 1
    }
}

impl Observe for EpochProfiler {
    fn observe(&self, s: &mut Sink<'_>) {
        s.counter("epochs", self.epochs);
        for (name, stat) in &self.phases {
            let mut c = s.child(name);
            c.counter("calls", stat.calls);
            c.counter("micros", stat.micros);
            c.counter("items", stat.items);
            c.counter("allocs", stat.allocs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;

    #[test]
    fn disabled_profiler_never_times() {
        let mut p = EpochProfiler::new(false);
        let t = p.begin();
        assert!(t.is_none());
        p.end("x", t);
        p.count("x", 5);
        p.epoch();
        assert!(p.phases().is_empty());
        assert_eq!(p.epochs, 0);
    }

    #[test]
    fn phases_accumulate_in_order() {
        let mut p = EpochProfiler::new(true);
        let t = p.begin();
        p.end("core", t);
        let t = p.begin();
        p.end("pump", t);
        p.count("pump", 3);
        p.count("pump", 2);
        let t = p.begin();
        p.end("core", t);
        p.epoch();
        let names: Vec<&str> = p.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["core", "pump"]);
        assert_eq!(p.phase("core").unwrap().calls, 2);
        assert_eq!(p.phase("pump").unwrap().items, 5);
        assert_eq!(p.epochs, 1);

        let mut snap = Snapshot::new();
        p.observe(&mut snap.sink());
        assert_eq!(snap.get("epochs"), Some(1.0));
        assert_eq!(snap.get("pump.items"), Some(5.0));
    }

    /// Each call used to be truncated to whole microseconds, so a phase
    /// made of sub-µs calls read 0 however often it ran.
    #[test]
    fn sub_microsecond_calls_add_up() {
        let mut p = EpochProfiler::new(true);
        for _ in 0..1000 {
            let t = p.begin();
            p.end("tiny", t);
        }
        let stat = p.phase("tiny").unwrap();
        assert_eq!(stat.calls, 1000);
        assert!(stat.micros > 0, "1000 timed calls summed to 0 µs");
        assert!(p.nanos.iter().sum::<u64>() >= stat.micros * 1_000);
    }
}
