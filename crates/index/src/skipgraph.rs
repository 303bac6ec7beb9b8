//! A Skip Graph (Aspnes & Shah, SODA 2003).
//!
//! Each node owns a key and a random membership vector. At level 0 all
//! nodes form one sorted doubly linked list; at level `l` a node belongs
//! to the list of nodes sharing its first `l` membership bits. Search
//! starts at the highest level and descends, giving O(log n) expected
//! hops; inserts splice the node into every level it belongs to.
//!
//! The structure is simulated centrally, but every pointer traversal is
//! counted as a network hop in [`OpStats`], because in a deployment each
//! node is a proxy and each traversal is a message.

use std::collections::BTreeMap;

use presto_sim::SimRng;

/// Per-operation cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Pointer traversals (inter-proxy messages).
    pub hops: u64,
}

presto_telemetry::observe_counters!(OpStats { hops });

/// Which pointer of a `(left, right)` neighbour pair to set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

#[derive(Clone, Debug)]
struct Node<K> {
    /// Random membership vector (bit `l` decides the level-`l+1` list).
    mv: u64,
    /// `(left, right)` neighbour keys per level; index 0 is the base list.
    neighbors: Vec<(Option<K>, Option<K>)>,
}

/// A Skip Graph over keys `K`.
#[derive(Clone, Debug)]
pub struct SkipGraph<K: Ord + Copy> {
    nodes: BTreeMap<K, Node<K>>,
    rng: SimRng,
}

impl<K: Ord + Copy + std::fmt::Debug> SkipGraph<K> {
    /// Creates an empty graph with a deterministic membership-vector RNG.
    pub fn new(seed: u64) -> Self {
        SkipGraph {
            nodes: BTreeMap::new(),
            rng: SimRng::new(seed).split("skipgraph"),
        }
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `key` is a member.
    pub fn contains(&self, key: K) -> bool {
        self.nodes.contains_key(&key)
    }

    /// The smallest member key, usable as a search introducer. (BTreeMap
    /// makes this the *same* key on every run — the introducer feeds hop
    /// counts, so it must not depend on map internals.)
    pub fn introducer(&self) -> Option<K> {
        self.nodes.keys().next().copied()
    }

    fn level_count(&self) -> usize {
        // log2(n) + 1 levels suffice with high probability.
        (usize::BITS - self.nodes.len().leading_zeros()) as usize + 1
    }

    /// Matching membership-prefix test for the level-`l` list (levels > 0
    /// require the first `l` bits to agree; level 0 always matches).
    fn same_list(&self, a: K, b: K, level: usize) -> bool {
        if level == 0 {
            return true;
        }
        let ma = self.nodes[&a].mv;
        let mb = self.nodes[&b].mv;
        let mask = (1u64 << level) - 1;
        (ma & mask) == (mb & mask)
    }

    /// Finds the member with the greatest key ≤ `target`, starting from
    /// `start`. Returns `None` if every member key exceeds `target`.
    pub fn search(&self, start: K, target: K) -> (Option<K>, OpStats) {
        let mut stats = OpStats::default();
        if !self.nodes.contains_key(&start) {
            return (None, stats);
        }
        let mut cur = start;
        let mut level = self.nodes[&cur].neighbors.len().saturating_sub(1);
        loop {
            if cur <= target {
                // Move right as far as possible without passing target.
                while let Some(r) = self.nodes[&cur].neighbors.get(level).and_then(|n| n.1) {
                    if r <= target {
                        cur = r;
                        stats.hops += 1;
                    } else {
                        break;
                    }
                }
            } else {
                // Move left until at or below target.
                while cur > target {
                    match self.nodes[&cur].neighbors.get(level).and_then(|n| n.0) {
                        Some(l) => {
                            cur = l;
                            stats.hops += 1;
                        }
                        None => break,
                    }
                }
            }
            if level == 0 {
                break;
            }
            level -= 1;
        }
        if cur <= target {
            (Some(cur), stats)
        } else {
            (None, stats)
        }
    }

    /// Inserts a key (no-op for duplicates), returning the hop cost.
    pub fn insert(&mut self, key: K) -> OpStats {
        let mut stats = OpStats::default();
        if self.nodes.contains_key(&key) {
            return stats;
        }
        let mv = self.rng.next_u64();
        if self.nodes.is_empty() {
            self.nodes.insert(
                key,
                Node {
                    mv,
                    neighbors: vec![(None, None)],
                },
            );
            return stats;
        }

        // Level 0: find the predecessor via search and splice in.
        let intro = self.introducer().expect("non-empty graph");
        let (pred, s) = self.search(intro, key);
        stats.hops += s.hops;

        self.nodes.insert(
            key,
            Node {
                mv,
                neighbors: vec![(None, None)],
            },
        );
        match pred {
            Some(p) => {
                let succ = self.nodes[&p].neighbors[0].1;
                self.link(p, Some(key), 0, Side::Right);
                self.link(key, Some(p), 0, Side::Left);
                self.link(key, succ, 0, Side::Right);
                if let Some(s2) = succ {
                    self.link(s2, Some(key), 0, Side::Left);
                }
            }
            None => {
                // New minimum: find the old minimum by walking left from
                // the introducer at level 0.
                let mut cur = intro;
                while let Some(l) = self.nodes[&cur].neighbors[0].0 {
                    if l == key {
                        break;
                    }
                    cur = l;
                    stats.hops += 1;
                }
                self.link(key, Some(cur), 0, Side::Right);
                self.link(cur, Some(key), 0, Side::Left);
            }
        }

        // Higher levels: scan the level below for the nearest neighbours
        // in the same membership-prefix list.
        let max_levels = self.level_count();
        for level in 1..max_levels {
            // Walk left from key at level-1 to find the closest left
            // member of our level-`level` list.
            let left = {
                let mut cur = key;
                let mut found = None;
                while let Some(l) = self.nodes[&cur].neighbors[level - 1].0 {
                    stats.hops += 1;
                    cur = l;
                    if self.same_list(key, cur, level) {
                        found = Some(cur);
                        break;
                    }
                }
                found
            };
            let right = {
                let mut cur = key;
                let mut found = None;
                while let Some(r) = self.nodes[&cur].neighbors.get(level - 1).and_then(|n| n.1) {
                    stats.hops += 1;
                    cur = r;
                    if self.same_list(key, cur, level) {
                        found = Some(cur);
                        break;
                    }
                }
                found
            };
            if left.is_none() && right.is_none() {
                break;
            }
            self.ensure_level(key, level);
            self.nodes.get_mut(&key).expect("inserted").neighbors[level] = (left, right);
            if let Some(l) = left {
                self.ensure_level(l, level);
                self.nodes.get_mut(&l).expect("member").neighbors[level].1 = Some(key);
            }
            if let Some(r) = right {
                self.ensure_level(r, level);
                self.nodes.get_mut(&r).expect("member").neighbors[level].0 = Some(key);
            }
        }
        stats
    }

    /// Removes a key, relinking its neighbours at every level.
    pub fn remove(&mut self, key: K) -> OpStats {
        let mut stats = OpStats::default();
        let Some(node) = self.nodes.remove(&key) else {
            return stats;
        };
        for (level, (left, right)) in node.neighbors.iter().enumerate() {
            if let Some(l) = left {
                self.ensure_level(*l, level);
                self.nodes.get_mut(l).expect("member").neighbors[level].1 = *right;
                stats.hops += 1;
            }
            if let Some(r) = right {
                self.ensure_level(*r, level);
                self.nodes.get_mut(r).expect("member").neighbors[level].0 = *left;
                stats.hops += 1;
            }
        }
        stats
    }

    /// All keys in `[from, to]`, in order, with the hop cost (search +
    /// base-list walk — the range-query pattern a traffic application
    /// uses).
    pub fn range(&self, from: K, to: K) -> (Vec<K>, OpStats) {
        let mut stats = OpStats::default();
        let Some(intro) = self.introducer() else {
            return (Vec::new(), stats);
        };
        // Find the first key ≥ from: search for predecessor, step right.
        let (pred, s) = self.search(intro, from);
        stats.hops += s.hops;
        let mut cur = match pred {
            Some(p) if p == from => Some(p),
            Some(p) => {
                stats.hops += 1;
                self.nodes[&p].neighbors[0].1
            }
            None => {
                // Everything is > from: walk to the global minimum.
                let mut c = intro;
                while let Some(l) = self.nodes[&c].neighbors[0].0 {
                    c = l;
                    stats.hops += 1;
                }
                Some(c)
            }
        };
        let mut out = Vec::new();
        while let Some(k) = cur {
            if k > to {
                break;
            }
            if k >= from {
                out.push(k);
            }
            cur = self.nodes[&k].neighbors[0].1;
            stats.hops += 1;
        }
        (out, stats)
    }

    fn ensure_level(&mut self, key: K, level: usize) {
        let node = self.nodes.get_mut(&key).expect("member");
        while node.neighbors.len() <= level {
            node.neighbors.push((None, None));
        }
    }

    fn link(&mut self, key: K, to: Option<K>, level: usize, side: Side) {
        self.ensure_level(key, level);
        let node = self.nodes.get_mut(&key).expect("member");
        match side {
            Side::Left => node.neighbors[level].0 = to,
            Side::Right => node.neighbors[level].1 = to,
        }
    }

    /// Validates the level-0 list: sorted, doubly linked, covering every
    /// member exactly once.
    // presto-lint: allow(unused, invariant oracle: skipgraph's random_ops_preserve_invariants and insert_and_search_small check the live insert/remove paths against it)
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        // Find the minimum by walking left.
        let mut cur = self.introducer().expect("non-empty graph");
        let mut guard = self.nodes.len() + 1;
        while let Some(l) = self.nodes[&cur].neighbors[0].0 {
            cur = l;
            guard -= 1;
            if guard == 0 {
                return Err("cycle while seeking minimum".into());
            }
        }
        let mut seen = 1usize;
        let mut prev = cur;
        while let Some(r) = self.nodes[&prev].neighbors[0].1 {
            if r <= prev {
                return Err(format!("order violation: {prev:?} -> {r:?}"));
            }
            if self.nodes[&r].neighbors[0].0 != Some(prev) {
                return Err(format!("back-pointer broken at {r:?}"));
            }
            prev = r;
            seen += 1;
            if seen > self.nodes.len() {
                return Err("cycle in base list".into());
            }
        }
        if seen != self.nodes.len() {
            return Err(format!("base list covers {seen}/{}", self.nodes.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(keys: &[u64], seed: u64) -> SkipGraph<u64> {
        let mut g = SkipGraph::new(seed);
        for &k in keys {
            g.insert(k);
        }
        g
    }

    #[test]
    fn insert_and_search_small() {
        let g = build(&[10, 20, 30, 40, 50], 1);
        g.check_invariants().unwrap();
        let intro = g.introducer().unwrap();
        assert_eq!(g.search(intro, 30).0, Some(30));
        assert_eq!(g.search(intro, 35).0, Some(30));
        assert_eq!(g.search(intro, 5).0, None);
        assert_eq!(g.search(intro, 1000).0, Some(50));
    }

    #[test]
    fn search_matches_sorted_vector_reference() {
        let keys: Vec<u64> = (0..500).map(|i| i * 7 + (i % 3)).collect();
        let g = build(&keys, 2);
        g.check_invariants().unwrap();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let intro = g.introducer().unwrap();
        for target in (0..3700).step_by(13) {
            let expect = sorted.iter().rev().find(|&&k| k <= target).copied();
            assert_eq!(g.search(intro, target).0, expect, "target {target}");
        }
    }

    #[test]
    fn range_query_returns_ordered_keys() {
        let g = build(&[5, 1, 9, 3, 7, 11, 2], 3);
        let (r, _) = g.range(3, 9);
        assert_eq!(r, vec![3, 5, 7, 9]);
        let (all, _) = g.range(0, 100);
        assert_eq!(all, vec![1, 2, 3, 5, 7, 9, 11]);
        let (none, _) = g.range(50, 60);
        assert!(none.is_empty());
    }

    #[test]
    fn remove_keeps_invariants_and_hides_key() {
        let mut g = build(&[1, 2, 3, 4, 5, 6, 7, 8], 4);
        g.remove(4);
        g.remove(1);
        g.remove(8);
        g.check_invariants().unwrap();
        let intro = g.introducer().unwrap();
        assert_eq!(g.search(intro, 4).0, Some(3));
        assert_eq!(g.len(), 5);
        // Removing a non-member is a no-op.
        g.remove(99);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn search_hops_scale_logarithmically() {
        // Average search hops at n=512 should be far below n/4 (a linear
        // scan) and within a small multiple of log2(n).
        let keys: Vec<u64> = (0..512).collect();
        let g = build(&keys, 5);
        // Fixed introducer, independent of `introducer()`'s choice of the
        // smallest key, so the expected-hops bound is exercised mid-list.
        let intro = 0;
        let mut total = 0u64;
        let mut count = 0u64;
        for target in (0..512).step_by(7) {
            let (_, s) = g.search(intro, target);
            total += s.hops;
            count += 1;
        }
        let avg = total as f64 / count as f64;
        assert!(avg < 40.0, "avg hops {avg} not logarithmic");
        assert!(avg > 1.0);
    }

    #[test]
    fn hops_grow_slowly_with_size() {
        let avg_hops = |n: u64, seed: u64| {
            let keys: Vec<u64> = (0..n).collect();
            let g = build(&keys, seed);
            // Fixed introducer, as above: keep hop counts deterministic.
            let intro = 0;
            let mut total = 0u64;
            let mut cnt = 0u64;
            for target in (0..n).step_by((n / 32).max(1) as usize) {
                total += g.search(intro, target).1.hops;
                cnt += 1;
            }
            total as f64 / cnt as f64
        };
        let h64 = avg_hops(64, 6);
        let h1024 = avg_hops(1024, 6);
        // 16× more nodes should cost far less than 16× more hops.
        assert!(h1024 < h64 * 6.0, "h64 {h64} h1024 {h1024}");
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut g = build(&[1, 2, 3], 7);
        let before = g.len();
        g.insert(2);
        assert_eq!(g.len(), before);
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let mut g: SkipGraph<u64> = SkipGraph::new(8);
        assert!(g.is_empty());
        assert_eq!(g.introducer(), None);
        assert_eq!(g.range(1, 5).0, Vec::<u64>::new());
        g.insert(42);
        assert_eq!(g.search(42, 42).0, Some(42));
        assert_eq!(g.search(42, 41).0, None);
        g.check_invariants().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_ops_preserve_invariants(
            inserts in proptest::collection::vec(0u64..1000, 1..120),
            removals in proptest::collection::vec(0usize..120, 0..40),
            seed in 0u64..1000,
        ) {
            let mut g = SkipGraph::new(seed);
            for &k in &inserts {
                g.insert(k);
            }
            prop_assert!(g.check_invariants().is_ok());
            for &r in &removals {
                let k = inserts[r % inserts.len()];
                g.remove(k);
            }
            prop_assert_eq!(g.check_invariants().map_err(|e| e.to_string()), Ok(()));
            // Search agrees with a reference set.
            let mut remaining: Vec<u64> = inserts.clone();
            remaining.sort_unstable();
            remaining.dedup();
            let removed: std::collections::HashSet<u64> =
                removals.iter().map(|&r| inserts[r % inserts.len()]).collect();
            remaining.retain(|k| !removed.contains(k));
            if let Some(intro) = g.introducer() {
                for probe in [0u64, 250, 500, 999] {
                    let expect = remaining.iter().rev().find(|&&k| k <= probe).copied();
                    prop_assert_eq!(g.search(intro, probe).0, expect);
                }
            } else {
                prop_assert!(remaining.is_empty());
            }
        }
    }
}
