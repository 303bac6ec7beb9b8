//! The temporally ordered unified view.
//!
//! "A traffic monitoring network requires a view that preserves the order
//! in which moving vehicles are detected across a spatial region. Such
//! querying requires a single temporally ordered view of detections
//! across distributed proxies and sensors" (paper §5).
//!
//! [`UnifiedView`] merges per-proxy event streams into one stream ordered
//! by *corrected* timestamps: each source stream passes through its
//! sensor's [`crate::clock::ClockCorrector`] before the k-way merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use presto_sim::SimTime;

use crate::clock::ClockCorrector;

/// An item in the unified view.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewItem<T> {
    /// Corrected timestamp.
    pub t: SimTime,
    /// Source proxy.
    pub proxy: usize,
    /// The payload.
    pub item: T,
}

/// A merged, temporally ordered view over per-proxy streams.
#[derive(Clone, Debug, Default)]
pub struct UnifiedView<T> {
    items: Vec<ViewItem<T>>,
    sorted: bool,
}

impl<T: Clone> UnifiedView<T> {
    /// Creates an empty view.
    pub fn new() -> Self {
        UnifiedView {
            items: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one proxy's stream, correcting timestamps through the
    /// supplied corrector (pass an uncalibrated corrector for wired
    /// proxies whose clocks are trusted).
    pub fn add_stream(
        &mut self,
        proxy: usize,
        corrector: &ClockCorrector,
        stream: impl IntoIterator<Item = (SimTime, T)>,
    ) {
        for (raw_t, item) in stream {
            self.items.push(ViewItem {
                t: corrector.correct(raw_t),
                proxy,
                item,
            });
        }
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.items.sort_by_key(|i| i.t);
            self.sorted = true;
        }
    }

    /// The ordered view (oldest first).
    pub fn ordered(&mut self) -> &[ViewItem<T>] {
        self.ensure_sorted();
        &self.items
    }

    /// Counts adjacent-pair ordering violations that *would* occur if the
    /// given raw (uncorrected) streams were naively concatenated and
    /// sorted per arrival — the metric E8 reports.
    pub fn ordering_violations(pairs: &[(SimTime, SimTime)]) -> u64 {
        // `pairs` maps true time → reported time; count inversions where
        // true order and reported order disagree.
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for &(true_t, reported) in pairs {
            heap.push(Reverse((true_t.as_micros(), reported.as_micros())));
        }
        let mut violations = 0;
        let mut last_reported = 0u64;
        while let Some(Reverse((_, rep))) = heap.pop() {
            if rep < last_reported {
                violations += 1;
            } else {
                last_reported = rep;
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DriftClock;

    #[test]
    fn merges_streams_in_time_order() {
        let mut v: UnifiedView<&str> = UnifiedView::new();
        let trusted = ClockCorrector::new();
        v.add_stream(
            0,
            &trusted,
            vec![(SimTime::from_secs(10), "a"), (SimTime::from_secs(30), "c")],
        );
        v.add_stream(
            1,
            &trusted,
            vec![(SimTime::from_secs(20), "b"), (SimTime::from_secs(40), "d")],
        );
        let order: Vec<&str> = v.ordered().iter().map(|i| i.item).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn correction_restores_cross_proxy_order() {
        // Proxy 1's sensor clock runs 30 s fast; raw merge misorders.
        let skewed = DriftClock {
            offset_s: 30.0,
            skew_ppm: 0.0,
        };
        let mut corrector = ClockCorrector::new();
        for h in 0..4u64 {
            let t = SimTime::from_secs(h * 100);
            corrector.observe_beacon(skewed.local_time(t), t);
        }

        // True order: e1 (t=200, proxy 1), e2 (t=210, proxy 0).
        let raw_e1 = skewed.local_time(SimTime::from_secs(200)); // reads 230
        let mut naive: UnifiedView<&str> = UnifiedView::new();
        let trusted = ClockCorrector::new();
        naive.add_stream(1, &trusted, vec![(raw_e1, "e1")]);
        naive.add_stream(0, &trusted, vec![(SimTime::from_secs(210), "e2")]);
        let wrong: Vec<&str> = naive.ordered().iter().map(|i| i.item).collect();
        assert_eq!(wrong, vec!["e2", "e1"], "premise: naive order is wrong");

        let mut fixed: UnifiedView<&str> = UnifiedView::new();
        fixed.add_stream(1, &corrector, vec![(raw_e1, "e1")]);
        fixed.add_stream(0, &trusted, vec![(SimTime::from_secs(210), "e2")]);
        let right: Vec<&str> = fixed.ordered().iter().map(|i| i.item).collect();
        assert_eq!(right, vec!["e1", "e2"]);
    }

    #[test]
    fn ordering_violations_counts_inversions() {
        // Reported timestamps that invert two true-order pairs.
        let pairs = vec![
            (SimTime::from_secs(1), SimTime::from_secs(1)),
            (SimTime::from_secs(2), SimTime::from_secs(5)),
            (SimTime::from_secs(3), SimTime::from_secs(3)), // inverted vs 5
            (SimTime::from_secs(4), SimTime::from_secs(4)), // inverted vs 5
        ];
        assert_eq!(UnifiedView::<()>::ordering_violations(&pairs), 2);
        let clean: Vec<(SimTime, SimTime)> = (0..10)
            .map(|i| (SimTime::from_secs(i), SimTime::from_secs(i)))
            .collect();
        assert_eq!(UnifiedView::<()>::ordering_violations(&clean), 0);
    }

    #[test]
    fn empty_view() {
        let mut v: UnifiedView<u8> = UnifiedView::new();
        assert!(v.items.is_empty());
        assert!(v.ordered().is_empty());
    }
}
