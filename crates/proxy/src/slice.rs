//! Sliced archive-range execution, and the one cache of pulled archive
//! ranges that slices and whole PAST windows share.
//!
//! The [`ReplyCache`] is one bounded LRU of pull replies keyed by the
//! pulled window ([`WindowKey`]: sensor, window, tolerance). It only
//! serves exact matches, so on its own overlapping windows from many
//! users each re-pull the radio for mostly the same rows. This module
//! therefore also splits range queries into **fixed, time-aligned
//! slices** (the HTTP range-slicing idiom, applied to archive time):
//!
//! * the **slice calculator** ([`plan`]) maps a query window onto
//!   canonical slice windows — slice `i` covers
//!   `[i·len, (i+1)·len)` on the absolute simulation clock, so the
//!   same slice window falls out of *any* window overlapping it;
//! * each missing slice becomes its own sub-RPC through the existing
//!   async downlink machinery (per-slice retry, deferral, and
//!   coalescing across queries);
//! * the **assembler** ([`assemble`]) joins per-slice replies back
//!   into the query's window and re-bounds the result with the worst
//!   per-slice codec/aging sigma ([`slice_sigma`]);
//! * complete slices land in the reply cache under their aligned
//!   window. A sub-window of any previously pulled span is served
//!   radio-free from cached slices — containment serving falls out of
//!   the slice decomposition instead of needing its own machinery.
//!
//! Staleness is handled by construction, at insert: only a reply whose
//! window was **fully archived at serve time** is cached (`served_at`
//! at or past a slice's span end or a whole window's end), so a cached
//! reply is immutable and can never serve data it does not have. The
//! trailing, still-filling slice of a window is re-pulled each time.

use std::collections::VecDeque;

use presto_archive::Quality;
use presto_sim::{SimDuration, SimTime};

/// Fixed slice length; slice `i` covers `[i·len, (i+1)·len)` on the
/// absolute simulation clock.
const SLICE_LEN: SimDuration = SimDuration::from_hours(1);

/// Minimum number of slices a PAST window must span before the sliced
/// path engages; narrower windows stay monolithic (one small pull beats
/// several sub-RPCs).
const MIN_SLICES: u64 = 2;

/// The window of an archive pull: the key of the [`ReplyCache`] and of
/// the RPC a pull part rides. A slice's key is its aligned window.
/// Exact equality (window *and* tolerance) is deliberate: serving a
/// sub-window slice of a differently-encoded reply would break
/// value-identity with the synchronous reference path, because the
/// reply codec is applied per reply, not per sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowKey {
    /// The sensor whose archive the window covers.
    pub sensor: u16,
    /// Window start.
    pub from: SimTime,
    /// Window end, inclusive.
    pub to: SimTime,
    /// Bit pattern of the pull tolerance (a window pulled at another
    /// tolerance is differently encoded and must not be shared).
    pub tol_bits: u64,
}

/// One slice of a query's window, as the calculator emits it: the
/// slice's aligned pull window (the full span, so the pulled reply is
/// shareable with any other window overlapping this slice) and the
/// instant that span is complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceSpec {
    /// The slice's pull window at the query's tolerance: its aligned
    /// start through one tick short of the next slice's start, so
    /// adjacent slices never double-count a boundary row.
    pub key: WindowKey,
    /// Exclusive span end `(index+1)·len`: the instant the slice is
    /// fully archived. Only replies served at or after this instant
    /// are cacheable.
    pub span_end: SimTime,
}

/// The slice calculator: maps a PAST window `[from, to]` at `tolerance`
/// onto its canonical slice sequence, oldest first. Returns `None`
/// when the window is inverted or spans fewer than `MIN_SLICES`
/// slices (the query stays monolithic).
pub fn plan(sensor: u16, from: SimTime, to: SimTime, tolerance: f64) -> Option<Vec<SliceSpec>> {
    let len = SLICE_LEN.as_micros();
    if to < from {
        return None;
    }
    let first = from.as_micros() / len;
    let last = to.as_micros() / len;
    if last - first + 1 < MIN_SLICES {
        return None;
    }
    let tol_bits = tolerance.to_bits();
    Some(
        (first..=last)
            .map(|index| {
                let span_end = SimTime::from_micros((index + 1) * len);
                SliceSpec {
                    key: WindowKey {
                        sensor,
                        from: SimTime::from_micros(index * len),
                        to: span_end - SimDuration::from_micros(1),
                        tol_bits,
                    },
                    span_end,
                }
            })
            .collect(),
    )
}

/// Joins per-slice sample runs (oldest slice first) back into the
/// query's window: concatenation plus an inclusive `[from, to]` trim.
/// Slices partition time, so no dedup is needed.
pub fn assemble<'a>(
    runs: impl IntoIterator<Item = &'a [(SimTime, f64)]>,
    from: SimTime,
    to: SimTime,
) -> Vec<(SimTime, f64)> {
    runs.into_iter()
        .flatten()
        .copied()
        .filter(|&(t, _)| t >= from && t <= to)
        .collect()
}

/// Re-bounds a pull reply's error: the codec reconstruction bound
/// (`tolerance / 2`, what the sensor's lossy reply encoding honors)
/// max'd with the aging ladder bound of the worst aged row
/// ([`Quality::error_bound`], the bound the sensors report for
/// aggregate sigma). A slice and a cached reply carry it, and the
/// assembled answer advertises the worst slice.
pub fn slice_sigma(tolerance: f64, qualities: impl Iterator<Item = Quality>) -> f64 {
    qualities
        .filter(|q| matches!(q, Quality::Aged(_)))
        .fold(tolerance / 2.0, |bound, q| bound.max(q.error_bound()))
}

/// One reply kept in the reply cache.
#[derive(Clone, Debug)]
struct CachedReply {
    key: WindowKey,
    /// The reply's re-bounded sigma at the window's tolerance
    /// ([`slice_sigma`]).
    sigma: f64,
    samples: Vec<(SimTime, f64)>,
}

/// Reply cache counters. Invariant the equivalence property pins:
/// `lookups == hits + misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplyCacheStats {
    /// Window lookups.
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups the cache did not hold.
    pub misses: u64,
    /// Complete replies inserted.
    pub inserts: u64,
    /// Entries dropped to make room for an insert.
    pub evictions: u64,
    /// Insert attempts rejected because the window was not fully
    /// archived at serve time (caching it would risk a stale-confident
    /// serve later).
    pub incomplete_skips: u64,
}

presto_telemetry::observe_counters!(ReplyCacheStats {
    lookups,
    hits,
    misses,
    inserts,
    evictions,
    incomplete_skips,
});

/// The proxy's one cache of pulled archive ranges: one bounded LRU of
/// pull replies keyed by the pulled window, a PAST query's whole window
/// and a slice's aligned window alike. Repeat queries over a window any
/// user already pulled are served from proxy memory instead of the
/// radio. A hit or a re-insert moves its entry to the hot end; an
/// insert into a full cache first evicts the cold end, so the cache
/// never exceeds its capacity, even transiently.
#[derive(Clone, Debug)]
pub struct ReplyCache {
    /// LRU order: front is coldest, back is hottest.
    entries: VecDeque<CachedReply>,
    capacity: usize,
    stats: ReplyCacheStats,
}

impl ReplyCache {
    /// Creates a cache holding up to `capacity` replies (at least one).
    pub fn new(capacity: usize) -> Self {
        ReplyCache {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            stats: ReplyCacheStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> ReplyCacheStats {
        self.stats
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Lookups that went to the radio.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Drops every cached reply, keeping the counters (crash reset:
    /// entries are RAM state, counters are measurement).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts a served reply. Only **complete** windows are accepted:
    /// `served_at` (the sensor-side serving instant) must be at or past
    /// `complete_at`, the instant the window is fully archived (a
    /// slice's span end, a whole window's end). Otherwise the window
    /// was still filling and a cached copy could later serve a query
    /// data it never had, so the insert is skipped and counted instead.
    ///
    /// The boundary is **closed**: the archive's serving instant covers
    /// every row through `served_at` itself, so a reply served exactly
    /// at `complete_at` is cached. Pinned by
    /// `reply_cache_serves_at_exact_freshness_boundary`. A re-pull of
    /// the same window replaces the older entry.
    pub fn insert(
        &mut self,
        key: WindowKey,
        complete_at: SimTime,
        served_at: SimTime,
        sigma: f64,
        samples: Vec<(SimTime, f64)>,
    ) {
        if served_at < complete_at {
            self.stats.incomplete_skips += 1;
            return;
        }
        self.entries.retain(|e| e.key != key);
        self.stats.inserts += 1;
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.stats.evictions += 1;
        }
        self.entries.push_back(CachedReply {
            key,
            sigma,
            samples,
        });
    }

    /// Looks up a window; a hit refreshes its recency. Returns the
    /// cached samples and the reply's re-bounded sigma.
    pub fn lookup(&mut self, key: WindowKey) -> Option<(&[(SimTime, f64)], f64)> {
        self.stats.lookups += 1;
        let Some(entry) = self
            .entries
            .iter()
            .position(|e| e.key == key)
            .and_then(|pos| self.entries.remove(pos))
        else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.entries.push_back(entry);
        self.entries.back().map(|e| (e.samples.as_slice(), e.sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slice `index`'s aligned window, `[index h, (index+1) h − 1 µs]`.
    fn key(index: u64) -> WindowKey {
        WindowKey {
            sensor: 0,
            from: hour(index),
            to: hour(index + 1) - SimDuration::from_micros(1),
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
        let specs = plan(5, from, to, 0.2).expect("spans 3 slices");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].key.from, hour(1));
        assert_eq!(specs[2].key.from, hour(3));
        assert_eq!(specs[0].span_end, hour(2));
        // Inclusive pull end is one tick short of the next slice.
        assert_eq!(
            specs[0].key.to + SimDuration::from_micros(1),
            specs[1].key.from
        );
        assert!(specs.iter().all(|s| s.key.sensor == 5));
    }

    #[test]
    fn calculator_boundary_end_belongs_to_next_slice() {
        // A window ending exactly on a boundary includes the slice the
        // endpoint opens (t = 2h belongs to slice 2).
        let specs = plan(0, hour(1), hour(2), 0.2).expect("2 slices");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].key.from, hour(2));
    }

    #[test]
    fn calculator_keeps_narrow_windows_monolithic() {
        let from = hour(1) + SimDuration::from_mins(10);
        let to = hour(1) + SimDuration::from_mins(50);
        assert!(plan(0, from, to, 0.2).is_none(), "single-slice window");
        assert!(plan(0, to, from, 0.2).is_none(), "inverted window");
    }

    #[test]
    fn assembler_trims_to_window() {
        let first = [(hour(1), 1.0), (hour(1) + SimDuration::from_mins(30), 2.0)];
        let second = [(hour(2), 3.0), (hour(2) + SimDuration::from_mins(30), 4.0)];
        let joined = assemble(
            [first.as_slice(), second.as_slice()],
            hour(1) + SimDuration::from_mins(10),
            hour(2) + SimDuration::from_mins(10),
        );
        assert_eq!(joined, vec![(hour(1) + SimDuration::from_mins(30), 2.0), (hour(2), 3.0)]);
    }

    #[test]
    fn sigma_rebounds_worst_aged_row() {
        let all_exact = slice_sigma(0.2, [Quality::Exact, Quality::Exact].into_iter());
        assert_eq!(all_exact, 0.1, "codec bound only");
        let aged = slice_sigma(0.2, [Quality::Exact, Quality::Aged(3)].into_iter());
        assert_eq!(aged, 0.05 * 8.0, "ladder bound dominates");
    }

    #[test]
    fn cache_refreshes_recency_and_evicts_the_coldest() {
        let mut c = ReplyCache::new(3);
        for i in 0..3u64 {
            c.insert(key(i), hour(i + 1), hour(i + 1), 0.1, vec![(hour(i), i as f64)]);
        }
        // A hit makes 0 the hottest entry, so 1 is now the coldest.
        let (samples, sigma) = c.lookup(key(0)).expect("cached");
        assert_eq!(samples, [(hour(0), 0.0)]);
        assert_eq!(sigma, 0.1);
        c.insert(key(3), hour(4), hour(4), 0.1, Vec::new());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(key(1)).is_none(), "coldest entry evicted");
        // A re-insert refreshes too: 2 moves past 0 and 3.
        c.insert(key(2), hour(3), hour(3), 0.1, Vec::new());
        c.insert(key(4), hour(5), hour(5), 0.1, Vec::new());
        assert!(c.lookup(key(0)).is_none(), "0 was the coldest");
        assert!(c.lookup(key(2)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.lookups, s.hits + s.misses);
    }

    #[test]
    fn cache_rejects_incomplete_slices() {
        let mut c = ReplyCache::new(8);
        // Served before the span end: the slice was still filling.
        c.insert(key(7), hour(8), hour(7) + SimDuration::from_mins(30), 0.1, Vec::new());
        assert!(c.entries.is_empty());
        assert_eq!(c.stats().incomplete_skips, 1);
        assert!(c.lookup(key(7)).is_none());
        // Served exactly at the span end: complete, cacheable.
        c.insert(key(7), hour(8), hour(8), 0.1, Vec::new());
        assert_eq!(c.entries.len(), 1);
        assert!(c.lookup(key(7)).is_some());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = ReplyCache::new(4);
        for i in 0..10u64 {
            c.insert(key(i), hour(i + 1), hour(i + 1), 0.1, Vec::new());
            assert!(c.entries.len() <= 4, "overflow at insert {i}");
        }
        assert_eq!(c.entries.len(), 4);
        let s = c.stats();
        assert_eq!(s.inserts, 10);
        assert_eq!(s.evictions, 6);
        // A zero capacity still keeps one reply.
        let mut d = ReplyCache::new(0);
        d.insert(key(0), hour(1), hour(1), 0.1, Vec::new());
        d.insert(key(1), hour(2), hour(2), 0.1, Vec::new());
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = ReplyCache::new(4);
        c.insert(key(0), hour(1), hour(1), 0.1, vec![(hour(0), 1.0)]);
        c.insert(key(0), hour(1), hour(2), 0.1, vec![(hour(0), 2.0)]);
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        let (samples, _) = c.lookup(key(0)).expect("cached");
        assert_eq!(samples[0].1, 2.0, "newest serving wins");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = ReplyCache::new(4);
        c.insert(key(0), hour(1), hour(1), 0.1, Vec::new());
        assert!(c.lookup(key(0)).is_some());
        c.clear();
        assert!(c.entries.is_empty());
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().hits, 1);
    }
}
