//! Range routing over archived time intervals.
//!
//! Sealed archive segments carry a covered `[start, end]` span (see
//! `presto-archive`), which sensors announce as they seal. Each
//! announced span registers here under the proxy serving its sensor;
//! a multi-proxy range query then asks the index which proxies hold
//! *any* data overlapping the window and prunes the rest before issuing
//! pulls — the paper's "simple time-based index structure" lifted to
//! the proxy tier.
//!
//! The interval starts live in the existing [`SkipGraph`] (keyed by
//! start microseconds), so lookups pay — and report — the same
//! distributed hop accounting as sensor-id routing. A side table maps
//! each start key to the registered `(end, proxy)` pairs, and the
//! index tracks the longest registered span so a stabbing query knows
//! how far left of the window it must scan.

use std::collections::BTreeMap;

use presto_sim::SimTime;

use crate::skipgraph::{OpStats, SkipGraph};

/// One registered interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IntervalEntry {
    /// Covered end, microseconds.
    end_us: u64,
    /// Owning proxy.
    proxy: usize,
}

/// A distributed index of per-proxy archived time intervals.
#[derive(Clone, Debug)]
pub struct TimeRangeIndex {
    graph: SkipGraph<u64>,
    /// start-micros → registered intervals beginning there.
    entries: BTreeMap<u64, Vec<IntervalEntry>>,
    /// Longest registered `end - start`, bounding the leftward scan of a
    /// stabbing query.
    max_span_us: u64,
    registered: u64,
}

impl TimeRangeIndex {
    /// Creates an empty index; `seed` drives skip-graph membership
    /// vectors.
    pub fn new(seed: u64) -> Self {
        TimeRangeIndex {
            graph: SkipGraph::new(seed),
            entries: BTreeMap::new(),
            max_span_us: 0,
            registered: 0,
        }
    }

    /// Number of distinct `(proxy, start)` registrations.
    pub fn len(&self) -> u64 {
        self.registered
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Registers (or widens) a proxy's archived interval. Returns the
    /// skip-graph insertion cost when the start was new.
    pub fn register(&mut self, proxy: usize, start: SimTime, end: SimTime) -> OpStats {
        let start_us = start.as_micros();
        let end_us = end.as_micros().max(start_us);
        self.max_span_us = self.max_span_us.max(end_us - start_us);
        let slot = self.entries.entry(start_us).or_default();
        if let Some(existing) = slot.iter_mut().find(|e| e.proxy == proxy) {
            // Same segment re-registered after growing: keep the widest
            // end seen.
            existing.end_us = existing.end_us.max(end_us);
            return OpStats::default();
        }
        slot.push(IntervalEntry { end_us, proxy });
        self.registered += 1;
        if self.graph.contains(start_us) {
            OpStats::default()
        } else {
            self.graph.insert(start_us)
        }
    }

    /// Proxies whose registered intervals overlap `[from, to]`, sorted
    /// and deduplicated, with the skip-graph routing cost. An empty
    /// index reports no proxies (callers fall back to broadcast).
    pub fn proxies_overlapping(&self, from: SimTime, to: SimTime) -> (Vec<usize>, OpStats) {
        if to < from {
            return (Vec::new(), OpStats::default());
        }
        // An interval overlaps iff start ≤ to and end ≥ from; every
        // candidate start lies in [from - max_span, to].
        let lo = from.as_micros().saturating_sub(self.max_span_us);
        let (starts, stats) = self.graph.range(lo, to.as_micros());
        let mut proxies: Vec<usize> = starts
            .into_iter()
            .filter_map(|s| self.entries.get(&s))
            .flatten()
            .filter(|e| e.end_us >= from.as_micros())
            .map(|e| e.proxy)
            .collect();
        proxies.sort_unstable();
        proxies.dedup();
        (proxies, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_index_prunes_everything() {
        let idx = TimeRangeIndex::new(7);
        assert!(idx.is_empty());
        let (proxies, _) = idx.proxies_overlapping(t(0), t(100));
        assert!(proxies.is_empty());
    }

    #[test]
    fn overlap_and_pruning() {
        let mut idx = TimeRangeIndex::new(7);
        idx.register(0, t(0), t(100));
        idx.register(1, t(50), t(150));
        idx.register(2, t(400), t(500));
        assert_eq!(idx.len(), 3);

        let (p, _) = idx.proxies_overlapping(t(60), t(90));
        assert_eq!(p, vec![0, 1]);
        // A window past every interval prunes all proxies.
        let (p, _) = idx.proxies_overlapping(t(600), t(700));
        assert!(p.is_empty());
        // A window inside only the late interval prunes the early two.
        let (p, _) = idx.proxies_overlapping(t(450), t(460));
        assert_eq!(p, vec![2]);
        // Stabbing query: window strictly inside [0, 100].
        let (p, _) = idx.proxies_overlapping(t(10), t(20));
        assert_eq!(p, vec![0]);
    }

    #[test]
    fn reregistration_widens_instead_of_duplicating() {
        let mut idx = TimeRangeIndex::new(3);
        idx.register(0, t(0), t(50));
        idx.register(0, t(0), t(80));
        assert_eq!(idx.len(), 1);
        let (p, _) = idx.proxies_overlapping(t(60), t(70));
        assert_eq!(p, vec![0]);
    }

    #[test]
    fn shared_start_keys_keep_both_proxies() {
        let mut idx = TimeRangeIndex::new(3);
        idx.register(0, t(10), t(20));
        idx.register(1, t(10), t(30));
        let (p, _) = idx.proxies_overlapping(t(25), t(26));
        assert_eq!(p, vec![1]);
        let (p, _) = idx.proxies_overlapping(t(15), t(16));
        assert_eq!(p, vec![0, 1]);
    }

    #[test]
    fn routing_reports_hops() {
        let mut idx = TimeRangeIndex::new(11);
        for i in 0..64u64 {
            idx.register((i % 4) as usize, t(i * 100), t(i * 100 + 50));
        }
        let (p, stats) = idx.proxies_overlapping(t(1000), t(1200));
        assert!(!p.is_empty());
        assert!(stats.hops > 0, "skip-graph routing must cost hops");
    }
}
