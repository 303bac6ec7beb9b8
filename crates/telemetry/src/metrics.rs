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
/// Durations record as microseconds via [`LogHistogram::record_duration`]
/// and read back as fractional seconds via [`LogHistogram::quantile_secs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sparse bucket-index → count map (sorted, so quantile walks are
    /// in value order).
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    /// Exact extrema (`min` is `u64::MAX` while empty).
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
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
        self.min = self.min.min(v);
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

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
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

    /// [`LogHistogram::quantile`] for duration-microsecond histograms,
    /// in fractional seconds.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e6
    }

    /// The inclusive value bounds of the bucket `v` falls in — the
    /// quantization granularity at that magnitude (test hook for the
    /// one-bucket-width error bound).
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
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A component's slot in the [`Snapshot`] tree: named counters, gauges,
/// histograms, and child sections.
///
/// Counters are *additive*: observing two proxies' stats into the same
/// section sums them, which is exactly the multi-proxy aggregation the
/// bench code wants. Peak-style fields (a per-proxy high-water mark)
/// use [`Section::counter_max`] instead. Gauges are last-write-wins.
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
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Folds `v` into the named counter with `max` (peak aggregation).
    pub fn counter_max(&mut self, name: &str, v: u64) {
        let e = self.counters.entry(name.to_string()).or_insert(0);
        *e = (*e).max(v);
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Merges `h` into the named histogram.
    pub fn histogram(&mut self, name: &str, h: &LogHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// The named child section, created empty on first use.
    pub fn child(&mut self, name: &str) -> &mut Section {
        self.children.entry(name.to_string()).or_default()
    }

    /// Observes a component into the named child section.
    pub fn observe(&mut self, name: &str, component: &impl Observe) {
        component.observe(self.child(name));
    }

    /// Reads a counter back.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads a histogram back.
    pub fn get_histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Reads a child section back.
    pub fn get_child(&self, name: &str) -> Option<&Section> {
        self.children.get(name)
    }

    /// Merges another section tree in: counters add, gauges last-write,
    /// histograms merge, children recurse.
    pub fn merge(&mut self, other: &Section) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, c) in &other.children {
            self.children.entry(k.clone()).or_default().merge(c);
        }
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
        let h = self.histograms.get(head)?;
        Some(match rest {
            "count" => h.count() as f64,
            "p50" => h.quantile(0.50) as f64,
            "p90" => h.quantile(0.90) as f64,
            "p99" => h.quantile(0.99) as f64,
            "max" => h.max() as f64,
            "mean" => h.mean(),
            _ => return None,
        })
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
            out.push((key(&format!("{k}.count")), h.count() as f64));
            out.push((key(&format!("{k}.p50")), h.quantile(0.50) as f64));
            out.push((key(&format!("{k}.p90")), h.quantile(0.90) as f64));
            out.push((key(&format!("{k}.p99")), h.quantile(0.99) as f64));
            out.push((key(&format!("{k}.max")), h.max() as f64));
            out.push((key(&format!("{k}.mean")), h.mean()));
        }
        for (k, c) in &self.children {
            c.flatten_into(&key(k), out);
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

    /// Flattens the tree to sorted dotted-path `(key, value)` pairs;
    /// histograms expand to `.count/.p50/.p90/.p99/.max/.mean`.
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.root.flatten_into("", &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Looks up one flattened key by walking the tree directly — no
    /// allocation, so per-epoch consumers (the presto-scope sampler)
    /// can read a handful of paths without paying for a full flatten.
    pub fn get(&self, path: &str) -> Option<f64> {
        self.root.get_path(path)
    }

    /// Merges another snapshot in (multi-deployment aggregation).
    pub fn merge(&mut self, other: &Snapshot) {
        self.root.merge(&other.root);
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

/// Implemented by every component that reports into the snapshot tree.
/// One method replaces thirteen per-struct accessors: the deployment
/// walks its components and each writes its counters into its section.
pub trait Observe {
    /// Writes this component's metrics into `s`.
    fn observe(&self, s: &mut Section);
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
            fn observe(&self, s: &mut $crate::Section) {
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
        assert_eq!(h.min(), 0);
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
        assert_eq!(h.min(), 0);
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
        assert_eq!(s.get_counter("a"), Some(5));
        assert_eq!(s.get_counter("peak"), Some(7));
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
        snap.root.observe("demo", &a);
        snap.root.observe("demo", &b);
        assert_eq!(snap.get("demo.hits"), Some(7.0));
        assert_eq!(snap.get("demo.peak"), Some(9.0));
        let mut h = LogHistogram::new();
        h.record_duration(SimDuration::from_secs(2));
        snap.root.child("lat").histogram("latency_us", &h);
        assert_eq!(snap.get("lat.latency_us.count"), Some(1.0));
        assert!(snap.render().contains("demo.hits = 7"));
    }

    #[test]
    fn snapshot_merge_adds() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        a.root.child("x").counter("n", 1);
        b.root.child("x").counter("n", 2);
        a.merge(&b);
        assert_eq!(a.get("x.n"), Some(3.0));
    }
}
