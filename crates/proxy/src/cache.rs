//! The proxy's per-sensor summary cache.
//!
//! "This cache differs significantly from both memory caches as well as
//! web caches in that the cached data is either a lossy view or a
//! higher-level semantic event-based view of the sensor data" (paper §3).
//!
//! The cache holds whatever the proxy has learned about one sensor's
//! series: pushed deviations, batch contents, and pull refinements, each
//! tagged with provenance. It is bounded; eviction drops the oldest
//! entries (the sensor's archive remains the authority for old data).

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use presto_sim::{SimDuration, SimTime};

/// Where a cached sample came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheSource {
    /// Model-failure or value push from the sensor.
    Pushed,
    /// Arrived in a periodic batch.
    Batch,
    /// Fetched by a miss-triggered pull (refinement).
    Pulled,
}

/// One cached sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedSample {
    /// Sample timestamp.
    pub t: SimTime,
    /// Value (possibly lossy).
    pub value: f64,
    /// Provenance.
    pub source: CacheSource,
}

/// A cached semantic event.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedEvent {
    /// Event timestamp.
    pub t: SimTime,
    /// Reporting sensor.
    pub sensor: u16,
    /// Application event type.
    pub event_type: u16,
    /// Application payload, shared with the uplink message that carried
    /// it (no per-event copy on the proxy's receive path).
    pub data: Arc<[u8]>,
}

/// The proxy's deployment-wide semantic event cache: time-ordered,
/// capacity-bounded (oldest events evict first — the sensors' archives
/// remain the authority for old events, exactly as with samples), with
/// binary-searched range reads instead of full scans.
#[derive(Clone, Debug)]
pub struct EventCache {
    events: VecDeque<CachedEvent>,
    capacity: usize,
}

impl EventCache {
    /// Creates a cache bounded to `capacity` events. A capacity of 0 is
    /// clamped to 1 (a cache that can never admit anything is always a
    /// misconfiguration), and the clamped bound also drives the
    /// preallocation — capped so a huge configured bound does not
    /// reserve memory up front.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventCache {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Inserts an event, keeping time order and the capacity bound.
    /// Eviction happens *before* the insert, so the deque never holds
    /// `capacity + 1` entries, even transiently.
    pub fn insert(&mut self, event: CachedEvent) {
        if self.events.back().is_none_or(|b| b.t <= event.t) {
            while self.events.len() >= self.capacity {
                self.events.pop_front();
            }
            self.events.push_back(event);
            return;
        }
        let idx = self.events.partition_point(|e| e.t <= event.t);
        if self.events.len() >= self.capacity {
            // Oldest evicts first; an incoming event older than the
            // whole cache is its own eviction victim.
            if idx == 0 {
                return;
            }
            self.events.pop_front();
            self.events.insert(idx - 1, event);
            return;
        }
        self.events.insert(idx, event);
    }

    /// Events in `[from, to]`, oldest first, via binary search on the
    /// time-ordered deque.
    pub fn range(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &CachedEvent> {
        let lo = self.events.partition_point(|e| e.t < from);
        let hi = self.events.partition_point(|e| e.t <= to);
        self.events.iter().skip(lo).take(hi - lo)
    }
}

/// Per-sensor summary cache.
#[derive(Clone, Debug)]
pub struct SensorCache {
    samples: VecDeque<CachedSample>,
    capacity: usize,
    /// Most recent contact of any kind (push, batch, reply).
    pub last_heard: Option<SimTime>,
}

impl SensorCache {
    /// Creates a cache bounded to `capacity` samples. Bounds handling
    /// matches [`EventCache::new`]: clamp to at least 1 first, then cap
    /// the preallocation.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SensorCache {
            samples: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            last_heard: None,
        }
    }

    /// Number of cached samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Inserts a sample, keeping the deque time-ordered and bounded.
    /// Pulled samples refine (replace) earlier lossy entries at the same
    /// timestamp. Eviction happens *before* the insert (growth paths
    /// only — a same-timestamp refinement replaces in place), so the
    /// deque never holds `capacity + 1` entries, even transiently.
    pub fn insert(&mut self, sample: CachedSample) {
        self.last_heard = Some(self.last_heard.map_or(sample.t, |h| h.max(sample.t)));
        // Fast path: append at the tail.
        if self.samples.back().is_none_or(|b| b.t < sample.t) {
            while self.samples.len() >= self.capacity {
                self.samples.pop_front();
            }
            self.samples.push_back(sample);
            return;
        }
        // Find insertion point (rare: out-of-order arrival).
        let idx = self.samples.partition_point(|s| s.t < sample.t);
        if self.samples.get(idx).is_some_and(|s| s.t == sample.t) {
            // Same timestamp: pulled data wins over lossy views. No
            // growth, so no eviction.
            refine(&mut self.samples[idx], sample);
            return;
        }
        if self.samples.len() >= self.capacity {
            // Oldest evicts first; an incoming sample older than the
            // whole cache is its own eviction victim.
            if idx == 0 {
                return;
            }
            self.samples.pop_front();
            self.samples.insert(idx - 1, sample);
            return;
        }
        self.samples.insert(idx, sample);
    }

    /// Inserts a run of samples (`sample` maps each run element to its
    /// cache entry), leaving exactly what inserting them one by one with
    /// [`SensorCache::insert`] leaves: the same samples in the same order
    /// and the same `last_heard`. Each time-ordered stretch of the run
    /// (repeated timestamps allowed) costs one pass, so folding a pull
    /// reply into a large cache costs what the reply changes rather than
    /// a deque shift per out-of-order sample.
    pub fn insert_run<T>(&mut self, run: &[T], sample: impl Fn(&T) -> CachedSample) {
        for stretch in run.chunk_by(|a, b| sample(a).t <= sample(b).t) {
            self.merge_ordered(stretch, &sample);
        }
    }

    /// [`SensorCache::insert_run`] for one time-ordered stretch.
    ///
    /// Per-sample inserts keep the newest `capacity` distinct timestamps
    /// of cache ∪ run (a sample is only ever evicted or dropped by a
    /// newer one, and the stretch never brings an evicted timestamp
    /// back), and settle each kept timestamp by folding its arrivals
    /// through [`refine`] in arrival order. This computes the same thing
    /// directly: binary searches bound the cached overlap, one walk
    /// counts the new timestamps, the union's oldest entries evict
    /// before anything grows, and the rest merges in place from
    /// whichever end of the deque has fewer samples to move.
    fn merge_ordered<T>(&mut self, run: &[T], sample: &impl Fn(&T) -> CachedSample) {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return;
        };
        let (t_first, t_last) = (sample(first).t, sample(last).t);
        self.last_heard = Some(self.last_heard.map_or(t_last, |h| h.max(t_last)));
        // One past the last repeat of `run[i]`'s timestamp, and the first
        // repeat of `run[e - 1]`'s.
        let group_end = |i: usize| {
            let t = sample(&run[i]).t;
            let repeats = run[i + 1..].iter().take_while(|x| sample(x).t == t);
            i + 1 + repeats.count()
        };
        let group_start = |e: usize| {
            let t = sample(&run[e - 1]).t;
            let repeats = run[..e - 1].iter().rev().take_while(|x| sample(x).t == t);
            e - 1 - repeats.count()
        };

        // `[..lo)` is older than the whole run, `[hi..)` newer.
        let lo = self.samples.partition_point(|s| s.t < t_first);
        let hi = self.samples.partition_point(|s| s.t <= t_last);
        let mut fresh = 0;
        let (mut c, mut r) = (lo, 0);
        while r < run.len() {
            let t = sample(&run[r]).t;
            while c < hi && self.samples[c].t < t {
                c += 1;
            }
            if c == hi || self.samples[c].t != t {
                fresh += 1;
            }
            r = group_end(r);
        }

        // Evict first: the union's oldest entries go before anything
        // grows. Past the cached prefix that walks the overlap and the
        // run together, and a run timestamp goes with all its repeats.
        let mut evict = (self.samples.len() + fresh).saturating_sub(self.capacity);
        let prefix = evict.min(lo);
        self.samples.drain(..prefix);
        evict -= prefix;
        let (lo, mut hi) = (lo - prefix, hi - prefix);
        let mut r = 0;
        while evict > 0 && r < run.len() {
            let t = sample(&run[r]).t;
            // The overlap's oldest entry against the run's oldest group.
            match self.samples.front().filter(|_| hi > 0).map(|s| s.t.cmp(&t)) {
                Some(Ordering::Less) => {
                    self.samples.pop_front();
                    hi -= 1;
                }
                Some(Ordering::Equal) => {
                    self.samples.pop_front();
                    hi -= 1;
                    r = group_end(r);
                }
                _ => {
                    fresh -= 1;
                    r = group_end(r);
                }
            }
            evict -= 1;
        }
        if r == run.len() {
            return;
        }

        // Merge `run[r..]` in place, growing by `fresh` slots at the end
        // of the deque that has fewer cached samples to move.
        let n = self.samples.len();
        let pad = sample(&run[r]);
        if lo <= n - hi {
            for _ in 0..fresh {
                self.samples.push_front(pad);
            }
            if fresh > 0 {
                for i in 0..lo {
                    self.samples[i] = self.samples[i + fresh];
                }
            }
            let (mut w, mut c, end) = (lo, lo + fresh, hi + fresh);
            while r < run.len() {
                let t = sample(&run[r]).t;
                if c < end && self.samples[c].t < t {
                    self.samples[w] = self.samples[c];
                    c += 1;
                } else {
                    let cached = (c < end && self.samples[c].t == t).then(|| self.samples[c]);
                    c += usize::from(cached.is_some());
                    let e = group_end(r);
                    self.samples[w] = settle(cached, &run[r..e], sample);
                    r = e;
                }
                w += 1;
            }
        } else {
            self.samples.resize(n + fresh, pad);
            if fresh > 0 {
                for i in (hi..n).rev() {
                    self.samples[i + fresh] = self.samples[i];
                }
            }
            let (mut w, mut c, mut e) = (hi + fresh, hi, run.len());
            while e > r {
                let t = sample(&run[e - 1]).t;
                w -= 1;
                if c > lo && self.samples[c - 1].t > t {
                    c -= 1;
                    self.samples[w] = self.samples[c];
                } else {
                    let cached =
                        (c > lo && self.samples[c - 1].t == t).then(|| self.samples[c - 1]);
                    c -= usize::from(cached.is_some());
                    let s = group_start(e);
                    self.samples[w] = settle(cached, &run[s..e], sample);
                    e = s;
                }
            }
        }
    }

    /// The most recent cached sample.
    pub fn latest(&self) -> Option<CachedSample> {
        self.samples.back().copied()
    }

    /// The most recent sample at or before `t`.
    pub fn latest_at(&self, t: SimTime) -> Option<CachedSample> {
        let idx = self.samples.partition_point(|s| s.t <= t);
        idx.checked_sub(1)
            .and_then(|i| self.samples.get(i))
            .copied()
    }

    /// Deque indices `lo..hi` of the samples in `[from, to]` (empty for
    /// an inverted window).
    fn bounds(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.samples.partition_point(|s| s.t < from);
        let hi = self.samples.partition_point(|s| s.t <= to);
        (lo, hi.max(lo))
    }

    /// All cached samples in `[from, to]`.
    pub fn range(&self, from: SimTime, to: SimTime) -> Vec<CachedSample> {
        let (lo, hi) = self.bounds(from, to);
        self.samples.range(lo..hi).copied().collect()
    }

    /// Fraction of expected epochs in `[from, to]` that have a cached
    /// sample, given the sensor's sampling period. Counts by binary
    /// search alone.
    pub fn coverage(&self, from: SimTime, to: SimTime, period: SimDuration) -> f64 {
        let expected = (to - from).div_duration(period).max(1);
        let (lo, hi) = self.bounds(from, to);
        ((hi - lo) as f64 / expected as f64).min(1.0)
    }

    /// Borrowing history view (oldest first) — no allocation per pass.
    pub fn history_iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().map(|s| (s.t, s.value))
    }

    /// Writes the history into a caller-owned buffer (cleared first), so
    /// repeated model-training passes reuse one allocation.
    pub fn history_into(&self, buf: &mut Vec<(SimTime, f64)>) {
        buf.clear();
        buf.extend(self.history_iter());
    }
}

/// The same-timestamp rule: an arrival replaces the cached entry unless
/// the entry was pulled and the arrival was not (pulled data wins over
/// lossy views).
fn refine(entry: &mut CachedSample, arrival: CachedSample) {
    if arrival.source == CacheSource::Pulled || entry.source != CacheSource::Pulled {
        *entry = arrival;
    }
}

/// What per-sample inserts leave at one timestamp: the cached entry, if
/// any, refined by each of the run's `arrivals` at that timestamp in
/// order. Without a cached entry the first arrival is the entry, and
/// refining it with itself changes nothing.
fn settle<T>(
    cached: Option<CachedSample>,
    arrivals: &[T],
    sample: &impl Fn(&T) -> CachedSample,
) -> CachedSample {
    let mut entry = cached.unwrap_or_else(|| sample(&arrivals[0]));
    for a in arrivals {
        refine(&mut entry, sample(a));
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_secs: u64, v: f64, source: CacheSource) -> CachedSample {
        CachedSample {
            t: SimTime::from_secs(t_secs),
            value: v,
            source,
        }
    }

    #[test]
    fn insert_keeps_time_order() {
        let mut c = SensorCache::new(100);
        c.insert(s(30, 2.0, CacheSource::Batch));
        c.insert(s(10, 1.0, CacheSource::Batch));
        c.insert(s(20, 1.5, CacheSource::Pushed));
        let all = c.range(SimTime::ZERO, SimTime::from_secs(100));
        let ts: Vec<u64> = all.iter().map(|x| x.t.as_secs()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = SensorCache::new(3);
        for i in 0..5 {
            c.insert(s(i * 10, i as f64, CacheSource::Batch));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.range(SimTime::ZERO, SimTime::from_secs(100))[0]
                .t
                .as_secs(),
            20
        );
    }

    #[test]
    fn pulled_refines_lossy_entries() {
        let mut c = SensorCache::new(10);
        c.insert(s(10, 20.0, CacheSource::Batch));
        c.insert(s(20, 21.0, CacheSource::Batch));
        c.insert(s(10, 19.5, CacheSource::Pulled));
        let all = c.range(SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].value, 19.5);
        assert_eq!(all[0].source, CacheSource::Pulled);
        // A later lossy view must not clobber pulled truth.
        c.insert(s(10, 25.0, CacheSource::Batch));
        assert_eq!(
            c.range(SimTime::ZERO, SimTime::from_secs(15))[0].value,
            19.5
        );
    }

    #[test]
    fn latest_at_respects_time() {
        let mut c = SensorCache::new(10);
        c.insert(s(10, 1.0, CacheSource::Pushed));
        c.insert(s(30, 3.0, CacheSource::Pushed));
        assert_eq!(c.latest_at(SimTime::from_secs(5)), None);
        assert_eq!(c.latest_at(SimTime::from_secs(10)).unwrap().value, 1.0);
        assert_eq!(c.latest_at(SimTime::from_secs(29)).unwrap().value, 1.0);
        assert_eq!(c.latest_at(SimTime::from_secs(99)).unwrap().value, 3.0);
        assert_eq!(c.latest().unwrap().value, 3.0);
    }

    #[test]
    fn coverage_measures_density() {
        let mut c = SensorCache::new(1000);
        for i in 0..50 {
            c.insert(s(i * 31, 20.0, CacheSource::Batch));
        }
        let full = c.coverage(
            SimTime::ZERO,
            SimTime::from_secs(49 * 31),
            SimDuration::from_secs(31),
        );
        assert!(full > 0.9, "{full}");
        let empty = c.coverage(
            SimTime::from_hours(10),
            SimTime::from_hours(11),
            SimDuration::from_secs(31),
        );
        assert_eq!(empty, 0.0);
    }

    #[test]
    fn last_heard_tracks_maximum() {
        let mut c = SensorCache::new(10);
        assert_eq!(c.last_heard, None);
        c.insert(s(50, 1.0, CacheSource::Pushed));
        c.insert(s(20, 1.0, CacheSource::Pulled));
        assert_eq!(c.last_heard, Some(SimTime::from_secs(50)));
    }

    fn ev(t_secs: u64, sensor: u16, ty: u16) -> CachedEvent {
        CachedEvent {
            t: SimTime::from_secs(t_secs),
            sensor,
            event_type: ty,
            data: Vec::new().into(),
        }
    }

    #[test]
    fn event_cache_keeps_time_order_and_bound() {
        let mut c = EventCache::new(3);
        c.insert(ev(30, 0, 1));
        c.insert(ev(10, 1, 2));
        c.insert(ev(20, 2, 3));
        let ts: Vec<u64> = c.events.iter().map(|e| e.t.as_secs()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        // Over capacity: oldest evicts.
        c.insert(ev(40, 3, 4));
        let ts: Vec<u64> = c.events.iter().map(|e| e.t.as_secs()).collect();
        assert_eq!(ts, vec![20, 30, 40]);
    }

    #[test]
    fn event_cache_range_is_inclusive() {
        let mut c = EventCache::new(100);
        for i in 0..10u64 {
            c.insert(ev(i * 10, i as u16, 0));
        }
        let got: Vec<u64> = c
            .range(SimTime::from_secs(20), SimTime::from_secs(50))
            .map(|e| e.t.as_secs())
            .collect();
        assert_eq!(got, vec![20, 30, 40, 50]);
        assert_eq!(
            c.range(SimTime::from_secs(91), SimTime::from_secs(200)).count(),
            0
        );
    }

    #[test]
    fn eviction_precedes_insert_and_bounds_are_unified() {
        // Zero capacity clamps to one in both caches (the clamped bound
        // is what admits entries, not the raw argument).
        let mut sc = SensorCache::new(0);
        sc.insert(s(10, 1.0, CacheSource::Batch));
        assert_eq!(sc.len(), 1);
        let mut ec = EventCache::new(0);
        ec.insert(ev(10, 0, 1));
        assert_eq!(ec.events.len(), 1);

        // At capacity, the bound holds through every insert path: tail
        // append, mid-range out-of-order, and an incoming entry older
        // than the whole cache (its own eviction victim — dropped, with
        // the cached entries untouched).
        let mut c = SensorCache::new(3);
        for i in 1..=3u64 {
            c.insert(s(i * 10, i as f64, CacheSource::Batch));
        }
        c.insert(s(25, 2.5, CacheSource::Batch)); // mid-range: evicts t=10
        assert_eq!(c.len(), 3);
        let ts: Vec<u64> = c
            .range(SimTime::ZERO, SimTime::from_secs(100))
            .iter()
            .map(|x| x.t.as_secs())
            .collect();
        assert_eq!(ts, vec![20, 25, 30]);
        c.insert(s(5, 0.5, CacheSource::Batch)); // older than everything
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.range(SimTime::ZERO, SimTime::from_secs(100))[0].t.as_secs(),
            20,
            "incoming oldest-ever sample is dropped, cache untouched"
        );
        // Same-timestamp refinement replaces in place at capacity (no
        // growth, so nothing is evicted).
        c.insert(s(25, 2.6, CacheSource::Pulled));
        assert_eq!(c.len(), 3);
        assert_eq!(c.latest_at(SimTime::from_secs(25)).unwrap().value, 2.6);

        let mut e = EventCache::new(3);
        for i in 1..=3u64 {
            e.insert(ev(i * 10, 0, 1));
        }
        e.insert(ev(25, 0, 2)); // mid-range: evicts t=10
        let ts: Vec<u64> = e.events.iter().map(|x| x.t.as_secs()).collect();
        assert_eq!(ts, vec![20, 25, 30]);
        e.insert(ev(5, 0, 3)); // older than everything: dropped
        assert_eq!(e.events.len(), 3);
        assert_eq!(e.events[0].t.as_secs(), 20);
    }

    #[test]
    fn history_matches_contents() {
        let mut c = SensorCache::new(10);
        c.insert(s(1, 1.0, CacheSource::Batch));
        c.insert(s(2, 2.0, CacheSource::Batch));
        assert_eq!(
            c.history_iter().collect::<Vec<_>>(),
            vec![(SimTime::from_secs(1), 1.0), (SimTime::from_secs(2), 2.0)]
        );
    }
}
