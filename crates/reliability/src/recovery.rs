//! Gap detection and archive-backed recovery bookkeeping.
//!
//! The fabric gives every uplink a per-sensor sequence number, so loss
//! is no longer silent: a delivery whose sequence number jumps past the
//! expected one proves that messages died in between. The tracker turns
//! that proof into a *time span to repair* — from the last instant the
//! proxy's view was known-contiguous to the send time of the message
//! that revealed the gap — and queues it for replay. The driver then
//! pulls the span from the sensor's flash archive (the paper's complete
//! local archive, via the indexed query path) and folds the reply into
//! its cache, restoring the no-silent-gaps invariant.
//!
//! Duplicates (retransmission after a lost ack) are filtered here too,
//! so at-least-once fabric delivery becomes exactly-once cache update.

use std::collections::BTreeSet;

use presto_sim::{SimDuration, SimTime};

/// How many delivered sequence numbers are remembered per sensor for
/// duplicate filtering (bounded; older duplicates are caught by the
/// `< low watermark` test).
const DEDUP_WINDOW: usize = 512;

/// Classification of one fabric delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Observation {
    /// First sight of this message.
    Fresh,
    /// Retransmitted copy of a message already consumed.
    Duplicate,
    /// First sight, and it revealed missing predecessors: `[from, to]`
    /// is the span whose pushed context was lost.
    Gap {
        /// Last known-contiguous instant before the hole.
        from: SimTime,
        /// Send time of the message that revealed the hole.
        to: SimTime,
    },
}

/// A queued repair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingRecovery {
    /// Sensor to repair.
    pub sensor: usize,
    /// Span start (pre-padding).
    pub from: SimTime,
    /// Span end (pre-padding).
    pub to: SimTime,
    /// When the hole was discovered (for recovery-latency metrics).
    pub detected_at: SimTime,
}

/// Tracker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Sequence gaps detected.
    pub gaps_detected: u64,
    /// Duplicate deliveries filtered.
    pub duplicates: u64,
    /// Repairs completed.
    pub recoveries: u64,
    /// Repairs attempted but not yet completed (pull failed; retried).
    pub failed_attempts: u64,
    /// Samples replayed from archives by completed repairs.
    pub samples_replayed: u64,
    /// Sum of (completion − detection) over completed repairs, seconds.
    pub total_recovery_latency_s: f64,
}

impl presto_telemetry::Observe for RecoveryStats {
    fn observe(&self, s: &mut presto_telemetry::Sink<'_>) {
        s.counter("gaps_detected", self.gaps_detected);
        s.counter("duplicates", self.duplicates);
        s.counter("recoveries", self.recoveries);
        s.counter("failed_attempts", self.failed_attempts);
        s.counter("samples_replayed", self.samples_replayed);
        s.gauge("total_recovery_latency_s", self.total_recovery_latency_s);
    }
}

#[derive(Clone, Debug)]
struct SensorTrack {
    next_seq: u64,
    covered_until: SimTime,
    recent: BTreeSet<u64>,
}

/// Per-deployment gap tracking and repair queue.
#[derive(Clone, Debug)]
pub struct GapTracker {
    tracks: Vec<SensorTrack>,
    pending: Vec<PendingRecovery>,
    stats: RecoveryStats,
}

impl GapTracker {
    /// Creates a tracker for `sensors` sensors.
    pub fn new(sensors: usize) -> Self {
        GapTracker {
            tracks: vec![
                SensorTrack {
                    next_seq: 0,
                    covered_until: SimTime::ZERO,
                    recent: BTreeSet::new(),
                };
                sensors
            ],
            pending: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Last known-contiguous instant for `sensor`.
    pub fn covered_until(&self, sensor: usize) -> SimTime {
        self.tracks[sensor].covered_until
    }

    /// Classifies a fabric delivery `(sensor, seq)` whose payload was
    /// sent at `sent_at`, observed at time `now`. `Fresh` and `Gap`
    /// deliveries should be consumed; `Duplicate`s discarded.
    pub fn observe(&mut self, sensor: usize, seq: u64, sent_at: SimTime, now: SimTime) -> Observation {
        let track = &mut self.tracks[sensor];
        if seq < track.next_seq {
            // Late or duplicate. A seq we remember consuming is a
            // duplicate; one below the watermark but unremembered is a
            // late first copy (its gap is already queued) — consume it.
            if track.recent.contains(&seq) {
                self.stats.duplicates += 1;
                return Observation::Duplicate;
            }
            track.recent.insert(seq);
            Self::prune(&mut track.recent);
            track.covered_until = track.covered_until.max(sent_at);
            return Observation::Fresh;
        }
        let gap = seq > track.next_seq;
        let from = track.covered_until;
        track.recent.insert(seq);
        Self::prune(&mut track.recent);
        track.next_seq = seq + 1;
        track.covered_until = track.covered_until.max(sent_at);
        if gap {
            self.stats.gaps_detected += 1;
            self.push_pending(PendingRecovery {
                sensor,
                from,
                to: sent_at,
                detected_at: now,
            });
            Observation::Gap { from, to: sent_at }
        } else {
            Observation::Fresh
        }
    }

    fn prune(recent: &mut BTreeSet<u64>) {
        while recent.len() > DEDUP_WINDOW {
            recent.pop_first();
        }
    }

    /// Queues an outage repair directly (reconnect after a detected
    /// failure, where no sequence jump may exist — e.g. a rebooted
    /// sensor whose pending messages were wiped).
    pub fn request_recovery(&mut self, sensor: usize, from: SimTime, to: SimTime, now: SimTime) {
        self.push_pending(PendingRecovery {
            sensor,
            from,
            to,
            detected_at: now,
        });
    }

    fn push_pending(&mut self, r: PendingRecovery) {
        if r.to <= r.from {
            return;
        }
        // Coalesce with an existing pending span for the same sensor
        // when they touch — repeated gaps during one outage become one
        // repair pull.
        if let Some(existing) = self
            .pending
            .iter_mut()
            .find(|p| p.sensor == r.sensor && p.from <= r.to && r.from <= p.to)
        {
            existing.from = existing.from.min(r.from);
            existing.to = existing.to.max(r.to);
            existing.detected_at = existing.detected_at.min(r.detected_at);
            return;
        }
        self.pending.push(r);
    }

    /// Repairs currently queued.
    pub fn pending(&self) -> &[PendingRecovery] {
        &self.pending
    }

    /// Takes every queued repair, leaving the queue empty. Failed
    /// attempts should be re-queued with
    /// [`GapTracker::requeue_failed`].
    pub fn take_pending(&mut self) -> Vec<PendingRecovery> {
        std::mem::take(&mut self.pending)
    }

    /// Returns a failed repair to the queue.
    pub fn requeue_failed(&mut self, r: PendingRecovery) {
        self.stats.failed_attempts += 1;
        self.push_pending(r);
    }

    /// Records a completed repair that replayed `samples` archived
    /// samples, finishing at `now`.
    pub fn complete(&mut self, r: &PendingRecovery, samples: u64, now: SimTime) {
        self.stats.recoveries += 1;
        self.stats.samples_replayed += samples;
        self.stats.total_recovery_latency_s += (now - r.detected_at).as_secs_f64();
        let track = &mut self.tracks[r.sensor];
        track.covered_until = track.covered_until.max(r.to);
    }

    /// Mean recovery latency over completed repairs, seconds.
    pub fn mean_recovery_latency_s(&self) -> f64 {
        if self.stats.recoveries == 0 {
            0.0
        } else {
            self.stats.total_recovery_latency_s / self.stats.recoveries as f64
        }
    }
}

/// Convenience: widens a repair span by `pad` on both sides (clamping
/// at zero), absorbing in-flight boundary effects and clock slack.
pub fn padded_span(from: SimTime, to: SimTime, pad: SimDuration) -> (SimTime, SimTime) {
    let lo = if from.as_micros() > pad.as_micros() {
        from - pad
    } else {
        SimTime::ZERO
    };
    (lo, to + pad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn in_order_deliveries_are_fresh() {
        let mut g = GapTracker::new(1);
        for i in 0..10u64 {
            assert_eq!(g.observe(0, i, t(i * 10), t(i * 10 + 1)), Observation::Fresh);
        }
        assert_eq!(g.covered_until(0), t(90));
        assert!(g.pending().is_empty());
        assert_eq!(g.stats().gaps_detected, 0);
    }

    #[test]
    fn sequence_jump_reports_the_missing_span() {
        let mut g = GapTracker::new(1);
        g.observe(0, 0, t(10), t(11));
        g.observe(0, 1, t(20), t(21));
        // Seqs 2..5 lost.
        let obs = g.observe(0, 5, t(60), t(61));
        assert_eq!(
            obs,
            Observation::Gap {
                from: t(20),
                to: t(60)
            }
        );
        assert_eq!(g.pending().len(), 1);
        assert_eq!(g.pending()[0].from, t(20));
        assert_eq!(g.pending()[0].to, t(60));
    }

    #[test]
    fn duplicates_are_filtered_but_late_firsts_consumed() {
        let mut g = GapTracker::new(1);
        g.observe(0, 0, t(10), t(11));
        assert_eq!(g.observe(0, 0, t(10), t(12)), Observation::Duplicate);
        // Seq 2 arrives before seq 1 (reordering): gap queued.
        assert!(matches!(
            g.observe(0, 2, t(30), t(31)),
            Observation::Gap { .. }
        ));
        // Seq 1's late first copy is Fresh, not Duplicate.
        assert_eq!(g.observe(0, 1, t(20), t(32)), Observation::Fresh);
        // And its retransmission IS a duplicate.
        assert_eq!(g.observe(0, 1, t(20), t(33)), Observation::Duplicate);
        assert_eq!(g.stats().duplicates, 2);
    }

    #[test]
    fn overlapping_gaps_coalesce_into_one_repair() {
        let mut g = GapTracker::new(1);
        g.observe(0, 0, t(10), t(10));
        g.observe(0, 3, t(40), t(40)); // gap [10, 40]
        g.observe(0, 7, t(80), t(80)); // gap [40, 80] — touches
        assert_eq!(g.pending().len(), 1);
        assert_eq!(g.pending()[0].from, t(10));
        assert_eq!(g.pending()[0].to, t(80));
        assert_eq!(g.stats().gaps_detected, 2);
    }

    #[test]
    fn completion_advances_coverage_and_latency() {
        let mut g = GapTracker::new(1);
        g.observe(0, 0, t(10), t(10));
        g.observe(0, 4, t(50), t(55));
        let pending = g.take_pending();
        assert_eq!(pending.len(), 1);
        g.complete(&pending[0], 120, t(65));
        assert_eq!(g.stats().recoveries, 1);
        assert_eq!(g.stats().samples_replayed, 120);
        assert!((g.mean_recovery_latency_s() - 10.0).abs() < 1e-9);
        assert_eq!(g.covered_until(0), t(50));
        assert!(g.pending().is_empty());
    }

    #[test]
    fn requeue_failed_keeps_the_repair_alive() {
        let mut g = GapTracker::new(1);
        g.observe(0, 0, t(10), t(10));
        g.observe(0, 2, t(30), t(30));
        let pending = g.take_pending();
        g.requeue_failed(pending[0]);
        assert_eq!(g.pending().len(), 1);
        assert_eq!(g.stats().failed_attempts, 1);
    }

    #[test]
    fn explicit_outage_recovery_request() {
        let mut g = GapTracker::new(2);
        g.request_recovery(1, t(100), t(500), t(510));
        assert_eq!(g.pending().len(), 1);
        assert_eq!(g.pending()[0].sensor, 1);
        // Degenerate spans are ignored.
        g.request_recovery(0, t(100), t(100), t(100));
        assert_eq!(g.pending().len(), 1);
    }

    #[test]
    fn padded_span_clamps_at_zero() {
        let (lo, hi) = padded_span(t(10), t(20), SimDuration::from_secs(30));
        assert_eq!(lo, SimTime::ZERO);
        assert_eq!(hi, t(50));
    }
}
