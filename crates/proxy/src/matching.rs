//! Query–sensor matching (paper §3).
//!
//! "The query type, frequency, latency and precision requirements are
//! translated into the appropriate parameters for the remote sensors,
//! such that they can minimize energy while achieving query
//! requirements."
//!
//! Translation rules implemented here:
//!
//! * **latency bound → LPL check interval**: the sensor may probe as
//!   rarely as the tightest latency bound allows (minus a guard), since a
//!   downlink wake-up costs one check interval in the worst case.
//! * **latency bound → batching interval**: batched data may be delayed
//!   at most one bound.
//! * **precision → push tolerance**: under model-driven push, the proxy
//!   can answer within `tolerance` without contacting the sensor iff the
//!   sensor pushes whenever the model errs by more than that tolerance;
//!   the matcher sets the push tolerance to the tightest query tolerance.
//!
//! Pull replies need no pushed setting: each reply is lossily encoded
//! at its own request's tolerance when the sensor serves it.

use presto_net::{DutyCycle, Mac};
use presto_sim::SimDuration;

use presto_sensor::DownlinkMsg;

/// A registered query class (aggregated view of a query stream).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryClass {
    /// Mean arrivals per hour.
    pub rate_per_hour: f64,
    /// Worst-case acceptable notification latency.
    pub latency_bound: SimDuration,
    /// Acceptable absolute error.
    pub tolerance: f64,
}

/// The matcher: accumulates registered classes, emits sensor settings.
#[derive(Clone, Debug, Default)]
pub struct QuerySensorMatcher {
    classes: Vec<QueryClass>,
}

impl QuerySensorMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or refreshes) a query class.
    pub fn register(&mut self, class: QueryClass) {
        self.classes.push(class);
    }

    /// The tightest latency bound across classes, if any.
    pub fn tightest_latency(&self) -> Option<SimDuration> {
        self.classes.iter().map(|c| c.latency_bound).min()
    }

    /// The tightest tolerance across classes, if any.
    pub fn tightest_tolerance(&self) -> Option<f64> {
        self.classes
            .iter()
            .map(|c| c.tolerance)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The deadline a query of the given tolerance earns under the
    /// registered latency classes: the query belongs to the class whose
    /// tolerance is nearest its own (ties to the tighter latency
    /// bound), and inherits that class's latency bound as its pipeline
    /// deadline. `None` when no class is registered — callers fall back
    /// to the pipeline's default deadline. This is the per-query half
    /// of query–sensor matching: the class's latency bound caps how
    /// long the pump may keep retransmitting for the query, so a
    /// latency-tolerant class spends retry budget where a tight class
    /// fails honestly instead.
    pub fn deadline_for(&self, tolerance: f64) -> Option<SimDuration> {
        self.classes
            .iter()
            .min_by(|a, b| {
                (a.tolerance - tolerance)
                    .abs()
                    .total_cmp(&(b.tolerance - tolerance).abs())
                    .then(a.latency_bound.cmp(&b.latency_bound))
            })
            .map(|c| c.latency_bound)
    }

    /// Derives the sensor settings satisfying every registered class.
    ///
    /// Returns `None` when no class is registered (leave defaults).
    pub fn derive_retune(&self) -> Option<DownlinkMsg> {
        if self.classes.is_empty() {
            return None;
        }
        let (Some(latency), Some(tolerance)) =
            (self.tightest_latency(), self.tightest_tolerance())
        else {
            return None;
        };
        let duty = DutyCycle::for_latency_bound(latency);
        Some(DownlinkMsg::Retune {
            push_tolerance: Some(tolerance),
            batching_interval: Some(latency),
            lpl_check_interval: Some(duty.check_interval),
        })
    }

    /// Expected sensor-side energy per day for a candidate configuration,
    /// used to compare matching decisions: idle listening at the duty
    /// cycle plus the pull traffic induced by the registered query rates
    /// (assuming the worst case in which every query misses the cache).
    pub fn estimated_energy_per_day(
        &self,
        duty: &DutyCycle,
        uplink: &Mac,
        reply_bytes: usize,
    ) -> f64 {
        let listen = duty.average_listen_power(&uplink.radio) * 86_400.0;
        let queries_per_day: f64 = self.classes.iter().map(|c| c.rate_per_hour * 24.0).sum();
        let per_reply = uplink.expected_send_energy(reply_bytes);
        listen + queries_per_day * per_reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(latency_mins: u64, tolerance: f64) -> QueryClass {
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(latency_mins),
            tolerance,
        }
    }

    #[test]
    fn empty_matcher_leaves_defaults() {
        assert!(QuerySensorMatcher::new().derive_retune().is_none());
    }

    #[test]
    fn tightest_requirements_win() {
        let mut m = QuerySensorMatcher::new();
        m.register(class(10, 1.0));
        m.register(class(2, 0.25));
        m.register(class(60, 2.0));
        assert_eq!(m.tightest_latency(), Some(SimDuration::from_mins(2)));
        assert_eq!(m.tightest_tolerance(), Some(0.25));
        let Some(DownlinkMsg::Retune {
            push_tolerance,
            batching_interval,
            lpl_check_interval,
        }) = m.derive_retune()
        else {
            panic!("expected a retune");
        };
        assert_eq!(push_tolerance, Some(0.25));
        assert_eq!(batching_interval, Some(SimDuration::from_mins(2)));
        let lpl = lpl_check_interval.unwrap();
        assert!(lpl <= SimDuration::from_mins(2));
        assert!(lpl > SimDuration::from_mins(1));
    }

    #[test]
    fn paper_example_ten_minute_latency() {
        // "if it is known that the worst case notification latency for
        // typical queries is 10 minutes, the proxy can instruct remote
        // sensors to set its radio duty-cycling parameters accordingly."
        let mut m = QuerySensorMatcher::new();
        m.register(class(10, 1.0));
        let Some(DownlinkMsg::Retune {
            lpl_check_interval, ..
        }) = m.derive_retune()
        else {
            panic!("expected a retune");
        };
        let lpl = lpl_check_interval.unwrap();
        // Worst-case wake latency (= one check interval) within bound.
        assert!(lpl <= SimDuration::from_mins(10));
        // But not absurdly conservative either.
        assert!(lpl >= SimDuration::from_mins(8));
    }

    #[test]
    fn relaxed_latency_saves_listen_energy() {
        let m = {
            let mut m = QuerySensorMatcher::new();
            m.register(class(10, 1.0));
            m
        };
        let uplink = Mac::uplink();
        let tight = DutyCycle::for_latency_bound(SimDuration::from_secs(5));
        let relaxed = DutyCycle::for_latency_bound(SimDuration::from_mins(10));
        let e_tight = m.estimated_energy_per_day(&tight, &uplink, 100);
        let e_relaxed = m.estimated_energy_per_day(&relaxed, &uplink, 100);
        assert!(
            e_relaxed < e_tight / 2.0,
            "relaxed {e_relaxed} vs tight {e_tight}"
        );
    }

    #[test]
    fn deadline_follows_the_nearest_tolerance_class() {
        let mut m = QuerySensorMatcher::new();
        assert!(m.deadline_for(0.5).is_none(), "no classes, no deadline");
        m.register(class(2, 0.25)); // tight precision, tight latency
        m.register(class(30, 1.0)); // loose precision, relaxed latency
        assert_eq!(m.deadline_for(0.25), Some(SimDuration::from_mins(2)));
        assert_eq!(m.deadline_for(0.05), Some(SimDuration::from_mins(2)));
        assert_eq!(m.deadline_for(1.2), Some(SimDuration::from_mins(30)));
        // Equidistant tolerances (0.625 sits exactly between) tie to
        // the tighter latency bound.
        assert_eq!(m.deadline_for(0.625), Some(SimDuration::from_mins(2)));
    }
}
