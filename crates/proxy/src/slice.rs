//! Sliced archive-range execution: fixed time-aligned slices and the
//! two-tier slice cache.
//!
//! A big archive-range query used to be one monolithic pull, and the
//! shared [`crate::pipeline::PullReplyCache`] only serves exact
//! (sensor, window, tolerance) matches — so overlapping windows from
//! many users each re-pull the radio for mostly the same rows. This
//! module splits range queries into **fixed, time-aligned slices**
//! (the HTTP range-slicing idiom, applied to archive time):
//!
//! * the **slice calculator** ([`plan`]) maps a query window onto
//!   canonical slice keys — slice `i` covers
//!   `[i·len, (i+1)·len)` on the absolute simulation clock, so the
//!   same slice key falls out of *any* window overlapping it;
//! * each missing slice becomes its own sub-RPC through the existing
//!   async downlink machinery (per-slice retry, deferral, and
//!   coalescing across queries);
//! * the **assembler** ([`assemble`]) joins per-slice replies back
//!   into the query's window and re-bounds the result with the worst
//!   per-slice codec/aging sigma ([`slice_sigma`]);
//! * complete slices land in a **two-tier cache** ([`TieredSliceCache`]):
//!   a hot L1 in RAM and a bounded L2 spill, with promotion back to L1
//!   on an L2 hit. A sub-window of any previously pulled span is served
//!   radio-free from cached slices — containment serving falls out of
//!   the slice decomposition instead of needing its own machinery.
//!
//! Staleness is handled by construction: only slices whose span was
//! **fully archived at serve time** (`served_at >= span end`) are
//! cached, so a cached slice is immutable and can never serve data it
//! does not have. The trailing, still-filling slice of a window is
//! re-pulled each time.

use std::collections::VecDeque;

use presto_archive::Quality;
use presto_sim::{SimDuration, SimTime};

/// Sliced-execution parameters. `None` in
/// [`crate::PipelineConfig::slice`] keeps the monolithic pull path
/// byte-identical to the pre-slice behavior.
#[derive(Clone, Debug)]
pub struct SliceConfig {
    /// Fixed slice length; slice `i` covers `[i·len, (i+1)·len)` on
    /// the absolute simulation clock.
    pub slice_len: SimDuration,
    /// Minimum number of slices a PAST window must span before the
    /// sliced path engages; narrower windows stay monolithic (one
    /// small pull beats several sub-RPCs).
    pub min_slices: u64,
    /// Hot tier (L1, RAM) capacity, in slices.
    pub l1_capacity: usize,
    /// Spill tier (L2) capacity, in slices; 0 disables the spill tier
    /// (L1 evictions drop instead of demoting).
    pub l2_capacity: usize,
    /// The deployment's archive quantization step, used to re-bound
    /// aged rows with the same ladder formula the sensors use
    /// (`quant_step · 2^level`). The proxy configures the sensors, so
    /// it knows this by construction.
    pub aging_quant_step: f64,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            slice_len: SimDuration::from_hours(1),
            min_slices: 2,
            l1_capacity: 64,
            l2_capacity: 256,
            aging_quant_step: 0.05,
        }
    }
}

/// Canonical identity of one slice: the sensor, the time-aligned slice
/// index, and the reply tolerance (a slice pulled at a different
/// tolerance is differently encoded and must not be shared).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SliceKey {
    /// The sensor whose archive the slice covers.
    pub sensor: u16,
    /// Slice index: the slice covers `[index·len, (index+1)·len)`.
    pub index: u64,
    /// Bit pattern of the pull tolerance (exact-match keying, as in
    /// [`crate::pipeline::PullReplyCache`]).
    pub tol_bits: u64,
}

/// One slice of a query's window, as the calculator emits it: the
/// canonical key plus the slice's pull window (the full aligned span,
/// so the pulled reply is shareable with any other window overlapping
/// this slice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceSpec {
    /// Canonical identity.
    pub key: SliceKey,
    /// Pull window start (the slice's aligned start).
    pub from: SimTime,
    /// Pull window end, inclusive (one tick short of the next slice's
    /// start, so adjacent slices never double-count a boundary row).
    pub to: SimTime,
    /// Exclusive span end `(index+1)·len`: the instant the slice is
    /// fully archived. Only replies served at or after this instant
    /// are cacheable.
    pub span_end: SimTime,
}

/// The slice calculator: maps a PAST window `[from, to]` at `tolerance`
/// onto its canonical slice sequence, oldest first. Returns `None`
/// when the window spans fewer than `min_slices` slices (the query
/// stays monolithic) or the configuration is degenerate.
pub fn plan(
    sensor: u16,
    from: SimTime,
    to: SimTime,
    tolerance: f64,
    cfg: &SliceConfig,
) -> Option<Vec<SliceSpec>> {
    let len = cfg.slice_len.as_micros();
    if len == 0 || to < from {
        return None;
    }
    let first = from.as_micros() / len;
    let last = to.as_micros() / len;
    if last - first + 1 < cfg.min_slices.max(1) {
        return None;
    }
    let tol_bits = tolerance.to_bits();
    Some(
        (first..=last)
            .map(|index| {
                let start = SimTime::from_micros(index * len);
                let span_end = SimTime::from_micros((index + 1) * len);
                SliceSpec {
                    key: SliceKey {
                        sensor,
                        index,
                        tol_bits,
                    },
                    from: start,
                    to: span_end - SimDuration::from_micros(1),
                    span_end,
                }
            })
            .collect(),
    )
}

/// Joins per-slice sample runs (oldest slice first) back into the
/// query's window: concatenation plus an inclusive `[from, to]` trim.
/// Slices partition time, so no dedup is needed.
pub fn assemble(parts: &[Vec<(SimTime, f64)>], from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
    parts
        .iter()
        .flatten()
        .copied()
        .filter(|&(t, _)| t >= from && t <= to)
        .collect()
}

/// Re-bounds one slice's error from its reply: the codec reconstruction
/// bound (`tolerance / 2`, what the sensor's lossy reply encoding
/// honors) max'd with the aging ladder bound of the worst aged row
/// (`quant_step · 2^level`, the same formula the sensors report for
/// aggregate sigma). The assembled answer advertises the worst slice.
pub fn slice_sigma(
    tolerance: f64,
    qualities: impl Iterator<Item = Quality>,
    aging_quant_step: f64,
) -> f64 {
    let mut bound: f64 = tolerance / 2.0;
    for q in qualities {
        if let Quality::Aged(level) = q {
            bound = bound.max(aging_quant_step * (1u64 << level.min(32)) as f64);
        }
    }
    bound
}

/// One cached slice.
#[derive(Clone, Debug)]
struct SliceEntry {
    key: SliceKey,
    /// Re-bounded per-slice sigma (codec/aging, [`slice_sigma`]).
    sigma: f64,
    samples: Vec<(SimTime, f64)>,
}

/// Two-tier slice cache counters. Invariants the equivalence property
/// pins: `lookups == l1_hits + l2_hits + misses` and
/// `promotions <= l2_hits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SliceCacheStats {
    /// Slice lookups.
    pub lookups: u64,
    /// Served from the hot tier.
    pub l1_hits: u64,
    /// Served from the spill tier (and promoted).
    pub l2_hits: u64,
    /// Not cached in either tier.
    pub misses: u64,
    /// Complete slices inserted.
    pub inserts: u64,
    /// L2 entries promoted back to L1 on a hit.
    pub promotions: u64,
    /// L1 entries demoted into the spill tier.
    pub demotions: u64,
    /// Entries dropped entirely (spill-tier eviction, or L1 eviction
    /// with no spill tier configured).
    pub evictions: u64,
    /// Insert attempts rejected because the slice's span was not fully
    /// archived at serve time (caching it would risk a stale-confident
    /// serve later).
    pub incomplete_skips: u64,
}

presto_telemetry::observe_counters!(SliceCacheStats {
    lookups,
    l1_hits,
    l2_hits,
    misses,
    inserts,
    promotions,
    demotions,
    evictions,
    incomplete_skips,
});

/// The two-tier slice store: a hot L1 (LRU, RAM) in front of a bounded
/// L2 spill. Inserts land in L1; L1 eviction demotes into L2; an L2
/// hit promotes back to L1. Both tiers evict **before** inserting, so
/// neither ever exceeds its capacity, even transiently (the
/// push-then-evict pattern the summary caches used to have is exactly
/// what this store avoids).
#[derive(Clone, Debug)]
pub struct TieredSliceCache {
    /// Hot tier, LRU order: front is coldest, back is hottest.
    l1: VecDeque<SliceEntry>,
    /// Spill tier, FIFO order: front is oldest.
    l2: VecDeque<SliceEntry>,
    l1_capacity: usize,
    l2_capacity: usize,
    stats: SliceCacheStats,
}

impl TieredSliceCache {
    /// Creates a cache with the given tier capacities (L1 is clamped
    /// to at least one slice; an L2 of 0 disables the spill tier).
    pub fn new(l1_capacity: usize, l2_capacity: usize) -> Self {
        TieredSliceCache {
            l1: VecDeque::new(),
            l2: VecDeque::new(),
            l1_capacity: l1_capacity.max(1),
            l2_capacity,
            stats: SliceCacheStats::default(),
        }
    }

    /// Builds the store a [`SliceConfig`] asks for.
    pub fn for_config(cfg: &SliceConfig) -> Self {
        TieredSliceCache::new(cfg.l1_capacity, cfg.l2_capacity)
    }

    /// Counters.
    pub fn stats(&self) -> SliceCacheStats {
        self.stats
    }

    /// Cached slices across both tiers.
    pub fn len(&self) -> usize {
        self.l1.len() + self.l2.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.l1.is_empty() && self.l2.is_empty()
    }

    /// Drops every cached slice, keeping the counters (crash reset:
    /// entries are RAM state, counters are measurement).
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
    }

    /// Pushes an entry into L1, demoting (or dropping) the coldest L1
    /// entry first when full — the tier never exceeds capacity.
    fn push_l1(&mut self, entry: SliceEntry) {
        if self.l1.len() >= self.l1_capacity {
            if let Some(cold) = self.l1.pop_front() {
                self.demote(cold);
            }
        }
        self.l1.push_back(entry);
    }

    /// Spills an evicted L1 entry into L2 (FIFO, evict-before-insert),
    /// or drops it when no spill tier is configured.
    fn demote(&mut self, entry: SliceEntry) {
        if self.l2_capacity == 0 {
            self.stats.evictions += 1;
            return;
        }
        if self.l2.len() >= self.l2_capacity {
            self.l2.pop_front();
            self.stats.evictions += 1;
        }
        self.l2.push_back(entry);
        self.stats.demotions += 1;
    }

    /// Inserts a served slice. Only **complete** slices are accepted:
    /// `served_at` (the sensor-side serving instant) must be at or past
    /// `span_end`, otherwise the slice's span was still filling and a
    /// cached copy could later serve data it never had — the insert is
    /// skipped and counted instead. A re-pull of the same key replaces
    /// the older entry in whichever tier held it.
    pub fn insert(
        &mut self,
        key: SliceKey,
        span_end: SimTime,
        served_at: SimTime,
        sigma: f64,
        samples: Vec<(SimTime, f64)>,
    ) {
        if served_at < span_end {
            self.stats.incomplete_skips += 1;
            return;
        }
        self.l1.retain(|e| e.key != key);
        self.l2.retain(|e| e.key != key);
        self.stats.inserts += 1;
        self.push_l1(SliceEntry {
            key,
            sigma,
            samples,
        });
    }

    /// Looks up a slice: an L1 hit refreshes its recency, an L2 hit
    /// promotes the entry back into L1. Returns the samples and the
    /// slice's re-bounded sigma.
    pub fn lookup(&mut self, key: SliceKey) -> Option<(Vec<(SimTime, f64)>, f64)> {
        self.stats.lookups += 1;
        if let Some(pos) = self.l1.iter().position(|e| e.key == key) {
            self.stats.l1_hits += 1;
            if let Some(entry) = self.l1.remove(pos) {
                let out = (entry.samples.clone(), entry.sigma);
                self.l1.push_back(entry);
                return Some(out);
            }
        }
        if let Some(pos) = self.l2.iter().position(|e| e.key == key) {
            self.stats.l2_hits += 1;
            if let Some(entry) = self.l2.remove(pos) {
                self.stats.promotions += 1;
                let out = (entry.samples.clone(), entry.sigma);
                self.push_l1(entry);
                return Some(out);
            }
        }
        self.stats.misses += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SliceConfig {
        SliceConfig::default()
    }

    fn key(index: u64) -> SliceKey {
        SliceKey {
            sensor: 0,
            index,
            tol_bits: 0.2f64.to_bits(),
        }
    }

    fn hour(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn calculator_emits_aligned_covering_slices() {
        // [1h07, 3h11] at 1h slices → slices 1, 2, 3.
        let from = hour(1) + SimDuration::from_mins(7);
        let to = hour(3) + SimDuration::from_mins(11);
        let specs = plan(5, from, to, 0.2, &cfg()).expect("spans 3 slices");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].key.index, 1);
        assert_eq!(specs[2].key.index, 3);
        assert_eq!(specs[0].from, hour(1));
        assert_eq!(specs[0].span_end, hour(2));
        // Inclusive pull end is one tick short of the next slice.
        assert_eq!(specs[0].to + SimDuration::from_micros(1), specs[1].from);
        assert!(specs.iter().all(|s| s.key.sensor == 5));
    }

    #[test]
    fn calculator_boundary_end_belongs_to_next_slice() {
        // A window ending exactly on a boundary includes the slice the
        // endpoint opens (t = 2h belongs to slice 2).
        let specs = plan(0, hour(1), hour(2), 0.2, &cfg()).expect("2 slices");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].key.index, 2);
    }

    #[test]
    fn calculator_keeps_narrow_windows_monolithic() {
        let from = hour(1) + SimDuration::from_mins(10);
        let to = hour(1) + SimDuration::from_mins(50);
        assert!(plan(0, from, to, 0.2, &cfg()).is_none(), "single-slice window");
        assert!(plan(0, to, from, 0.2, &cfg()).is_none(), "inverted window");
    }

    #[test]
    fn assembler_trims_to_window() {
        let parts = vec![
            vec![(hour(1), 1.0), (hour(1) + SimDuration::from_mins(30), 2.0)],
            vec![(hour(2), 3.0), (hour(2) + SimDuration::from_mins(30), 4.0)],
        ];
        let joined = assemble(
            &parts,
            hour(1) + SimDuration::from_mins(10),
            hour(2) + SimDuration::from_mins(10),
        );
        assert_eq!(joined, vec![(hour(1) + SimDuration::from_mins(30), 2.0), (hour(2), 3.0)]);
    }

    #[test]
    fn sigma_rebounds_worst_aged_row() {
        let all_exact = slice_sigma(0.2, [Quality::Exact, Quality::Exact].into_iter(), 0.05);
        assert_eq!(all_exact, 0.1, "codec bound only");
        let aged = slice_sigma(0.2, [Quality::Exact, Quality::Aged(3)].into_iter(), 0.05);
        assert_eq!(aged, 0.05 * 8.0, "ladder bound dominates");
    }

    #[test]
    fn tiered_cache_promotes_and_demotes() {
        let mut c = TieredSliceCache::new(2, 4);
        for i in 0..4u64 {
            c.insert(key(i), hour(i + 1), hour(i + 1), 0.1, vec![(hour(i), i as f64)]);
        }
        // L1 holds {2, 3}; {0, 1} were demoted.
        assert_eq!(c.stats().demotions, 2);
        assert_eq!(c.len(), 4);
        // L2 hit promotes 0 back to L1 (demoting 2).
        let (samples, sigma) = c.lookup(key(0)).expect("still cached in L2");
        assert_eq!(samples, vec![(hour(0), 0.0)]);
        assert_eq!(sigma, 0.1);
        let s = c.stats();
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 3);
        // Now an L1 hit.
        assert!(c.lookup(key(0)).is_some());
        assert_eq!(c.stats().l1_hits, 1);
        // Accounting invariants.
        let s = c.stats();
        assert_eq!(s.lookups, s.l1_hits + s.l2_hits + s.misses);
        assert!(s.promotions <= s.l2_hits);
    }

    #[test]
    fn tiered_cache_rejects_incomplete_slices() {
        let mut c = TieredSliceCache::new(4, 4);
        // Served before the span end: the slice was still filling.
        c.insert(key(7), hour(8), hour(7) + SimDuration::from_mins(30), 0.1, Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.stats().incomplete_skips, 1);
        assert!(c.lookup(key(7)).is_none());
        // Served exactly at the span end: complete, cacheable.
        c.insert(key(7), hour(8), hour(8), 0.1, Vec::new());
        assert_eq!(c.len(), 1);
        assert!(c.lookup(key(7)).is_some());
    }

    #[test]
    fn tiered_cache_never_exceeds_capacity() {
        let mut c = TieredSliceCache::new(2, 2);
        for i in 0..10u64 {
            c.insert(key(i), hour(i + 1), hour(i + 1), 0.1, Vec::new());
            assert!(c.l1.len() <= 2, "L1 overflow at insert {i}");
            assert!(c.l2.len() <= 2, "L2 overflow at insert {i}");
        }
        assert_eq!(c.len(), 4);
        let s = c.stats();
        assert_eq!(s.inserts, 10);
        assert_eq!(s.evictions, 6, "spill-tier drops");
        // No spill tier: L1 evictions drop outright.
        let mut d = TieredSliceCache::new(1, 0);
        d.insert(key(0), hour(1), hour(1), 0.1, Vec::new());
        d.insert(key(1), hour(2), hour(2), 0.1, Vec::new());
        assert_eq!(d.len(), 1);
        assert_eq!(d.stats().evictions, 1);
        assert_eq!(d.stats().demotions, 0);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = TieredSliceCache::new(2, 2);
        c.insert(key(0), hour(1), hour(1), 0.1, vec![(hour(0), 1.0)]);
        c.insert(key(0), hour(1), hour(2), 0.1, vec![(hour(0), 2.0)]);
        assert_eq!(c.len(), 1);
        let (samples, _) = c.lookup(key(0)).expect("cached");
        assert_eq!(samples[0].1, 2.0, "newest serving wins");
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = TieredSliceCache::new(2, 2);
        c.insert(key(0), hour(1), hour(1), 0.1, Vec::new());
        assert!(c.lookup(key(0)).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().l1_hits, 1);
    }
}
