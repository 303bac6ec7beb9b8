//! The unified metrics registry: counters, gauges, log-linear-bucket
//! histograms, and the [`Snapshot`] tree they assemble into.
//!
//! Design constraints, in order:
//!
//! * **Zero dependencies.** Everything here is plain `std` so every
//!   crate in the workspace can report without pulling anything in.
//! * **Mergeable.** Multi-proxy deployments observe per-proxy stats
//!   into one tree; counters add, histograms merge bucket-wise, and a
//!   merged histogram is *exactly* the histogram of the concatenated
//!   samples (bucket counts are exact — only the quantile read-out
//!   quantizes).
//! * **Bounded error.** Histogram buckets are log-linear (16 linear
//!   sub-buckets per power of two), so a reported percentile is within
//!   one bucket width — ≤ 1/16 ≈ 6.25% relative — of the exact
//!   nearest-rank percentile of the recorded samples.

use std::collections::BTreeMap;

use presto_sim::SimDuration;

/// Linear sub-buckets per octave, as a bit count: 2^4 = 16 sub-buckets,
/// bounding the relative quantization error of a quantile read-out at
/// 1/16 of the value.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;

/// A log-linear-bucket histogram over `u64` observations.
///
/// Values below 16 land in exact unit buckets; above that, each power
/// of two splits into 16 linear sub-buckets. Bucket *counts* are exact,
/// so [`LogHistogram::merge`] of two histograms equals the histogram of
/// the concatenated samples (`PartialEq`-checkable); only quantile
/// read-outs quantize, to the containing bucket's upper bound (clamped
/// to the recorded maximum).
///
/// Durations record as microseconds via [`LogHistogram::record_duration`],
/// so their quantiles read back in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sparse bucket-index → count map (sorted, so quantile walks are
    /// in value order).
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    /// Exact maximum.
    max: u64,
}

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> u32 {
    if v < SUBS {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let group = msb - SUB_BITS + 1;
    let sub = ((v >> (msb - SUB_BITS)) as u32) & (SUBS as u32 - 1);
    (group << SUB_BITS) + sub
}

/// Inclusive `[lower, upper]` value bounds of bucket `index`.
fn bucket_bounds(index: u32) -> (u64, u64) {
    if index < SUBS as u32 {
        return (index as u64, index as u64);
    }
    let group = (index >> SUB_BITS) as u64;
    let sub = (index as u64) & (SUBS - 1);
    let shift = group - 1;
    let lower = (SUBS + sub) << shift;
    // `lower + width - 1`, never past `u64::MAX` (the top bucket ends
    // exactly there), unlike `(SUBS + sub + 1) << shift` which would
    // overflow for it.
    let upper = lower + ((1u64 << shift) - 1);
    (lower, upper)
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Records a duration as microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros());
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 when empty.
    ///
    /// The returned value is the containing bucket's upper bound,
    /// clamped to the recorded maximum — within one bucket width of
    /// the exact nearest-rank quantile of the recorded samples, since
    /// bucket counts are exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0;
        for (&idx, &n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// The inclusive value bounds of the bucket `v` falls in — the
    /// quantization granularity at that magnitude (test hook for the
    /// one-bucket-width error bound).
    // presto-lint: allow(unused, oracle: tests/telemetry_histograms.rs and the metrics.rs quantile tests bound the live quantile error by one bucket width from it)
    pub fn bucket_bounds_of(v: u64) -> (u64, u64) {
        bucket_bounds(bucket_index(v))
    }

    /// Merges another histogram in. Exact: the result equals the
    /// histogram of the concatenated sample streams.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The fields a histogram exposes as `<name>.<field>` keys.
const HISTOGRAM_FIELDS: [&str; 6] = ["count", "p50", "p90", "p99", "max", "mean"];

/// One derived histogram field (see [`HISTOGRAM_FIELDS`]).
fn histogram_field(h: &LogHistogram, field: &str) -> Option<f64> {
    Some(match field {
        "count" => h.count() as f64,
        "p50" => h.quantile(0.50) as f64,
        "p90" => h.quantile(0.90) as f64,
        "p99" => h.quantile(0.99) as f64,
        "max" => h.max() as f64,
        "mean" => h.mean(),
        _ => return None,
    })
}

/// A component's slot in the [`Snapshot`] tree: named counters, gauges,
/// histograms, and child sections.
///
/// Counters are *additive*: observing two proxies' stats into the same
/// section sums them, which is exactly the multi-proxy aggregation the
/// bench code wants. Peak-style fields (a per-proxy high-water mark)
/// use [`Section::counter_max`] instead. Gauges are last-write-wins.
/// Writers look a key up before inserting it, so only a key's first
/// write allocates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
    children: BTreeMap<String, Section>,
}

impl Section {
    /// Adds `v` to the named counter (creating it at zero).
    pub fn counter(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Folds `v` into the named counter with `max` (peak aggregation).
    pub fn counter_max(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = (*c).max(v),
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Merges `h` into the named histogram.
    pub fn histogram(&mut self, name: &str, h: &LogHistogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// The named child section, created empty on first use.
    pub fn child(&mut self, name: &str) -> &mut Section {
        if !self.children.contains_key(name) {
            self.children.insert(name.to_string(), Section::default());
        }
        self.children
            .get_mut(name)
            .expect("child section exists: inserted above when absent")
    }

    /// Resolves one dotted path against this subtree without
    /// flattening or allocating: child sections first, then a terminal
    /// counter or gauge, then a histogram's derived `.count/.p50/...`
    /// field. Matches what [`Section::flatten_into`] would emit for the
    /// key.
    fn get_path(&self, path: &str) -> Option<f64> {
        let Some((head, rest)) = path.split_once('.') else {
            return self
                .counters
                .get(path)
                .map(|&v| v as f64)
                .or_else(|| self.gauges.get(path).copied());
        };
        if let Some(v) = self.children.get(head).and_then(|c| c.get_path(rest)) {
            return Some(v);
        }
        histogram_field(self.histograms.get(head)?, rest)
    }

    fn flatten_into(&self, prefix: &str, out: &mut Vec<(String, f64)>) {
        let key = |name: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        for (k, v) in &self.counters {
            out.push((key(k), *v as f64));
        }
        for (k, v) in &self.gauges {
            out.push((key(k), *v));
        }
        for (k, h) in &self.histograms {
            for field in HISTOGRAM_FIELDS {
                if let Some(v) = histogram_field(h, field) {
                    out.push((key(&format!("{k}.{field}")), v));
                }
            }
        }
        for (k, c) in &self.children {
            c.flatten_into(&key(k), out);
        }
    }
}

/// Replays the tree into a sink, so a hand-built tree (or one section
/// merged into another) goes through the same writers as a component.
impl Observe for Section {
    fn observe(&self, s: &mut Sink<'_>) {
        for (k, v) in &self.counters {
            s.counter(k, *v);
        }
        for (k, v) in &self.gauges {
            s.gauge(k, *v);
        }
        for (k, h) in &self.histograms {
            s.histogram(k, h);
        }
        for (k, c) in &self.children {
            s.observe(k, c);
        }
    }
}

/// The assembled telemetry tree for one deployment: a root [`Section`]
/// with a section per tier/component.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The tree root.
    pub root: Section,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink writing into this snapshot's tree, for
    /// `telemetry_snapshot()` builders.
    pub fn sink(&mut self) -> Sink<'_> {
        Sink::tree(&mut self.root)
    }

    /// Flattens the tree to sorted dotted-path `(key, value)` pairs;
    /// histograms expand to `.count/.p50/.p90/.p99/.max/.mean`.
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.root.flatten_into("", &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Looks up one flattened key by walking the tree directly, without
    /// flattening or allocating. End-of-run readers (bench drivers,
    /// reports) use it; the per-epoch scope tick never builds a tree and
    /// reads its resolved slots instead (see [`crate::scope`]).
    pub fn get(&self, path: &str) -> Option<f64> {
        self.root.get_path(path)
    }

    /// Renders the flattened tree as `key = value` lines.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in self.flatten() {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                s.push_str(&format!("{k} = {v:.0}\n"));
            } else {
                s.push_str(&format!("{k} = {v:.6}\n"));
            }
        }
        s
    }
}

impl Observe for Snapshot {
    fn observe(&self, s: &mut Sink<'_>) {
        self.root.observe(s);
    }
}

// ---------------------------------------------------------------------------
// Followed paths and the observe sink
// ---------------------------------------------------------------------------

/// Dotted paths resolved once to slot indices, held as a trie over path
/// segments so an observe pass can follow the writers' `child` calls
/// down to the slots without building keys.
#[derive(Clone, Debug)]
pub(crate) struct PathIndex {
    /// `nodes[0]` is the root.
    nodes: Vec<PathNode>,
    /// Slot → its dotted path.
    paths: Vec<String>,
}

#[derive(Clone, Debug, Default)]
struct PathNode {
    /// Child sections with a followed path below them.
    children: Vec<(Box<str>, usize)>,
    /// Followed names directly under this node, with their slots.
    leaves: Vec<(Box<str>, usize)>,
}

impl Default for PathIndex {
    fn default() -> Self {
        PathIndex {
            nodes: vec![PathNode::default()],
            paths: Vec::new(),
        }
    }
}

impl PathIndex {
    /// The slot for `path`, adding it on first sight.
    pub(crate) fn resolve(&mut self, path: &str) -> usize {
        if let Some(slot) = self.slot(path) {
            return slot;
        }
        let slot = self.paths.len();
        self.paths.push(path.to_string());
        let mut segs = path.split('.');
        let leaf = segs.next_back().unwrap_or_default();
        let mut node = 0;
        for seg in segs {
            node = match self.child(node, seg) {
                Some(c) => c,
                None => {
                    let c = self.nodes.len();
                    self.nodes.push(PathNode::default());
                    self.nodes[node].children.push((seg.into(), c));
                    c
                }
            };
        }
        self.nodes[node].leaves.push((leaf.into(), slot));
        slot
    }

    /// The slot of an already resolved path.
    pub(crate) fn slot(&self, path: &str) -> Option<usize> {
        self.paths.iter().position(|p| p == path)
    }

    /// Resolved slots.
    pub(crate) fn len(&self) -> usize {
        self.paths.len()
    }

    fn child(&self, node: usize, name: &str) -> Option<usize> {
        let children = &self.nodes[node].children;
        children.iter().find(|(n, _)| **n == *name).map(|&(_, c)| c)
    }

    fn leaf(&self, node: usize, name: &str) -> Option<usize> {
        let leaves = &self.nodes[node].leaves;
        leaves.iter().find(|(n, _)| **n == *name).map(|&(_, s)| s)
    }
}

/// Where an [`Observe`] pass writes: the export tree, or a scope's slot
/// table.
///
/// Both targets see the same calls, so what a scope tick can read is
/// exactly what `telemetry_snapshot()` exports. Into the tree, writes
/// behave as the [`Section`] writers. Into slots, the sink is a cursor
/// at one node of the scope's trie of followed paths: `child` moves to
/// the named node, or to an inert cursor when no followed path lies
/// below it; a write to a followed name updates its slot with the
/// tree's merge rule (counters add, `counter_max` takes the max, gauges
/// overwrite); any other write is a few `&str` compares and returns.
/// Nothing in the slot path allocates.
pub struct Sink<'a> {
    target: Target<'a>,
}

enum Target<'a> {
    Tree(&'a mut Section),
    Slots {
        index: &'a PathIndex,
        node: usize,
        readings: &'a mut [Option<f64>],
    },
    Inert,
}

impl<'a> Sink<'a> {
    /// A sink writing into `section`.
    pub fn tree(section: &'a mut Section) -> Self {
        Sink {
            target: Target::Tree(section),
        }
    }

    /// A sink writing the paths `index` follows into `readings`, which
    /// holds one entry per slot.
    pub(crate) fn slots(index: &'a PathIndex, readings: &'a mut [Option<f64>]) -> Self {
        debug_assert_eq!(index.len(), readings.len());
        Sink {
            target: Target::Slots {
                index,
                node: 0,
                readings,
            },
        }
    }

    /// Whether anything written under child `name` is kept: always for
    /// the tree, and for slots only when a followed path lies below it.
    /// Writers check it before computing a section nobody reads.
    pub fn wants(&self, name: &str) -> bool {
        match &self.target {
            Target::Tree(_) => true,
            Target::Slots { index, node, .. } => index.child(*node, name).is_some(),
            Target::Inert => false,
        }
    }

    /// The sink for child section `name`.
    pub fn child(&mut self, name: &str) -> Sink<'_> {
        let target = match &mut self.target {
            Target::Tree(s) => Target::Tree(s.child(name)),
            Target::Slots {
                index,
                node,
                readings,
            } => match index.child(*node, name) {
                Some(node) => Target::Slots {
                    index,
                    node,
                    readings,
                },
                None => Target::Inert,
            },
            Target::Inert => Target::Inert,
        };
        Sink { target }
    }

    /// Observes `component` into child section `name`; skipped outright
    /// when nothing below `name` is followed.
    pub fn observe(&mut self, name: &str, component: &impl Observe) {
        let mut child = self.child(name);
        if !matches!(child.target, Target::Inert) {
            component.observe(&mut child);
        }
    }

    /// The slot reading for followed name `name` at this node.
    fn reading(&mut self, name: &str) -> Option<&mut Option<f64>> {
        match &mut self.target {
            Target::Slots {
                index,
                node,
                readings,
            } => index.leaf(*node, name).map(|slot| &mut readings[slot]),
            _ => None,
        }
    }

    /// Adds `v` to the named counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        if let Target::Tree(s) = &mut self.target {
            s.counter(name, v);
        } else if let Some(r) = self.reading(name) {
            *r = Some(r.unwrap_or(0.0) + v as f64);
        }
    }

    /// Folds `v` into the named counter with `max`.
    pub fn counter_max(&mut self, name: &str, v: u64) {
        if let Target::Tree(s) = &mut self.target {
            s.counter_max(name, v);
        } else if let Some(r) = self.reading(name) {
            *r = Some(r.unwrap_or(0.0).max(v as f64));
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        if let Target::Tree(s) = &mut self.target {
            s.gauge(name, v);
        } else if let Some(r) = self.reading(name) {
            *r = Some(v);
        }
    }

    /// Merges `h` into the named histogram. A slot sink reads the
    /// followed `<name>.<field>` values straight off `h`: a tick merges
    /// nothing, so each histogram must be emitted once per pass (the
    /// fleet router's are).
    pub fn histogram(&mut self, name: &str, h: &LogHistogram) {
        match &mut self.target {
            Target::Tree(s) => s.histogram(name, h),
            Target::Slots {
                index,
                node,
                readings,
            } => {
                let Some(fields) = index.child(*node, name) else {
                    return;
                };
                for (field, slot) in &index.nodes[fields].leaves {
                    if let Some(v) = histogram_field(h, field) {
                        debug_assert!(
                            readings[*slot].is_none(),
                            "histogram `{name}` observed twice in one pass"
                        );
                        readings[*slot] = Some(v);
                    }
                }
            }
            Target::Inert => {}
        }
    }
}

/// Implemented by every component that reports telemetry. One method
/// feeds both readers: `telemetry_snapshot()` observes into a tree
/// [`Sink`], and a presto-scope tick observes into a slot [`Sink`].
pub trait Observe {
    /// Writes this component's metrics into `s`.
    fn observe(&self, s: &mut Sink<'_>);
}

/// Implements [`Observe`] for a plain counter struct by listing its
/// fields: additive fields first, peak-style (`max`-aggregated) fields
/// in an optional `max { .. }` tail.
///
/// ```ignore
/// observe_counters!(PipelineStats {
///     submitted, completed_fast, failed,
/// } max { max_in_flight });
/// ```
#[macro_export]
macro_rules! observe_counters {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        $crate::observe_counters!($ty { $($f),* } max {});
    };
    ($ty:ty { $($f:ident),* $(,)? } max { $($m:ident),* $(,)? }) => {
        impl $crate::Observe for $ty {
            #[allow(clippy::unnecessary_cast)]
            fn observe(&self, s: &mut $crate::Sink<'_>) {
                $( s.counter(stringify!($f), self.$f as u64); )*
                $( s.counter_max(stringify!($m), self.$m as u64); )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for q10 in 1..=10 {
            let q = q10 as f64 / 10.0;
            let rank = ((q * 16.0).ceil() as u64).clamp(1, 16);
            assert_eq!(h.quantile(q), rank - 1, "q={q}");
        }
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_bounds_contain_value_and_bound_error() {
        for v in [0u64, 1, 15, 16, 31, 32, 33, 100, 1_000, 123_456, u64::MAX / 3] {
            let (lo, hi) = LogHistogram::bucket_bounds_of(v);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
            // Relative width ≤ 1/16 for values ≥ 16.
            if v >= 16 {
                assert!((hi - lo) as f64 <= v as f64 / 16.0 + 1.0, "v={v} width {}", hi - lo);
            }
        }
    }

    #[test]
    fn quantile_within_one_bucket_width() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<u64> = (0..500u64).map(|i| i * i * 7 % 100_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let (lo, hi) = LogHistogram::bucket_bounds_of(exact);
            let got = h.quantile(q);
            assert!(
                got.abs_diff(exact) <= hi - lo,
                "q={q}: got {got}, exact {exact}, bucket [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn merge_equals_concat() {
        let (mut a, mut b, mut all) =
            (LogHistogram::new(), LogHistogram::new(), LogHistogram::new());
        for v in [3u64, 99, 1_000_000, 17] {
            a.record(v);
            all.record(v);
        }
        for v in [4u64, 99, 123_456_789] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn section_counters_add_and_peaks_max() {
        let mut s = Section::default();
        s.counter("a", 2);
        s.counter("a", 3);
        s.counter_max("peak", 7);
        s.counter_max("peak", 4);
        assert_eq!(s.get_path("a"), Some(5.0));
        assert_eq!(s.get_path("peak"), Some(7.0));
    }

    #[derive(Default)]
    struct DemoStats {
        hits: u64,
        peak: u64,
    }
    observe_counters!(DemoStats { hits } max { peak });

    #[test]
    fn observe_macro_and_snapshot_flatten() {
        let mut snap = Snapshot::new();
        let a = DemoStats { hits: 3, peak: 9 };
        let b = DemoStats { hits: 4, peak: 5 };
        snap.sink().observe("demo", &a);
        snap.sink().observe("demo", &b);
        assert_eq!(snap.get("demo.hits"), Some(7.0));
        assert_eq!(snap.get("demo.peak"), Some(9.0));
        let mut h = LogHistogram::new();
        h.record_duration(SimDuration::from_secs(2));
        snap.root.child("lat").histogram("latency_us", &h);
        assert_eq!(snap.get("lat.latency_us.count"), Some(1.0));
        assert!(snap.render().contains("demo.hits = 7"));
    }

    /// The same writes, into the tree and into slots: every followed
    /// path reads what `Snapshot::get` returns, bit for bit, and an
    /// unfollowed path stays absent.
    #[test]
    fn slot_sink_follows_the_tree_merge_rules() {
        let mut h = LogHistogram::new();
        for v in [3, 40, 500, 6_000] {
            h.record(v);
        }
        let emit = |s: &mut Sink<'_>| {
            s.observe("demo", &DemoStats { hits: 3, peak: 9 });
            s.observe("demo", &DemoStats { hits: 4, peak: 5 });
            s.child("demo").gauge("g", 1.5);
            s.child("demo").gauge("g", 2.5);
            s.child("lat").histogram("latency_us", &h);
            s.child("other").counter("hits", 100);
        };
        let paths = [
            "demo.hits",
            "demo.peak",
            "demo.g",
            "lat.latency_us.p99",
            "lat.latency_us.count",
            "lat.latency_us.mean",
            "demo.absent",
            "absent.x",
        ];
        let mut index = PathIndex::default();
        let slots: Vec<usize> = paths.iter().map(|p| index.resolve(p)).collect();
        assert_eq!(index.resolve("demo.g"), slots[2], "a path resolves once");
        let mut readings = vec![None; index.len()];
        let mut sink = Sink::slots(&index, &mut readings);
        assert!(sink.wants("demo") && sink.wants("lat"));
        assert!(!sink.wants("other"), "nothing followed below `other`");
        emit(&mut sink);
        let mut snap = Snapshot::new();
        emit(&mut snap.sink());
        for (path, slot) in paths.iter().zip(&slots) {
            assert_eq!(
                readings[*slot].map(f64::to_bits),
                snap.get(path).map(f64::to_bits),
                "{path}"
            );
        }
        assert_eq!(readings[slots[0]], Some(7.0), "counters add");
        assert_eq!(readings[slots[1]], Some(9.0), "peaks take the max");
        assert_eq!(readings[slots[2]], Some(2.5), "gauges: last write wins");
    }
}
