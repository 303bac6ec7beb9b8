//! Query workload generator.
//!
//! PRESTO supports one-time NOW and PAST queries with per-query precision
//! and latency requirements (paper §2, §3). The generator produces a
//! Poisson stream of [`QuerySpec`]s over a deployment, with configurable
//! NOW:PAST mix, PAST age distribution, and tolerance/latency ranges —
//! the inputs the proxy's query–sensor matching consumes.

use presto_sim::{SimDuration, SimRng, SimTime};

/// Fraction of queries that are NOW (the rest are PAST).
const NOW_FRACTION: f64 = 0.7;

/// PAST query age: mean lookback from the arrival time.
const PAST_MEAN_AGE: SimDuration = SimDuration::from_hours(12);

/// PAST query range length bounds.
const PAST_SPAN: (SimDuration, SimDuration) =
    (SimDuration::from_mins(10), SimDuration::from_hours(2));

/// Tolerance bounds (uniform), in value units.
const TOLERANCE_RANGE: (f64, f64) = (0.25, 2.0);

/// Latency-bound choices (mixture of interactive and relaxed).
const LATENCY_CHOICES: [SimDuration; 3] = [
    SimDuration::from_secs(5),
    SimDuration::from_mins(1),
    SimDuration::from_mins(10),
];

/// The time scope of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeScope {
    /// Current value.
    Now,
    /// Historical range `[from, to]`.
    Past {
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
    },
}

/// A single one-time query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuerySpec {
    /// Arrival time.
    pub arrival: SimTime,
    /// Target sensor, by index.
    pub target: usize,
    /// Time scope.
    pub scope: TimeScope,
    /// Acceptable absolute error in the answer.
    pub tolerance: f64,
    /// Latency the issuer will tolerate.
    pub latency_bound: SimDuration,
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct QueryParams {
    /// Mean queries per hour across the deployment.
    pub rate_per_hour: f64,
    /// Number of sensors (for target sampling).
    pub sensors: usize,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            rate_per_hour: 30.0,
            sensors: 40,
        }
    }
}

/// Poisson query stream generator.
#[derive(Clone, Debug)]
pub struct QueryGen {
    params: QueryParams,
    rng: SimRng,
}

impl QueryGen {
    /// Creates a generator.
    pub fn new(params: QueryParams, seed: u64) -> Self {
        assert!(params.sensors > 0, "need at least one sensor");
        QueryGen {
            params,
            rng: SimRng::new(seed).split("queries"),
        }
    }

    /// Generates all queries arriving in `[start, start + duration)`,
    /// ordered by arrival.
    pub fn generate(&mut self, start: SimTime, duration: SimDuration) -> Vec<QuerySpec> {
        let mut out = Vec::new();
        let end = start + duration;
        let mut t = start;
        loop {
            let gap_hours = self.rng.exponential(self.params.rate_per_hour);
            if !gap_hours.is_finite() {
                break;
            }
            t += SimDuration::from_secs_f64(gap_hours * 3600.0);
            if t >= end {
                break;
            }
            out.push(self.sample_query(t));
        }
        out
    }

    fn sample_query(&mut self, arrival: SimTime) -> QuerySpec {
        let target = self.rng.below(self.params.sensors as u64) as usize;
        let scope = if self.rng.chance(NOW_FRACTION) {
            TimeScope::Now
        } else {
            let age = SimDuration::from_secs_f64(
                self.rng
                    .exponential(1.0 / PAST_MEAN_AGE.as_secs_f64().max(1.0)),
            );
            let (lo, hi) = PAST_SPAN;
            let span = SimDuration::from_secs_f64(self.rng.uniform_range(
                lo.as_secs_f64(),
                hi.as_secs_f64().max(lo.as_secs_f64() + 1.0),
            ));
            let to = arrival - age;
            let from = to - span;
            TimeScope::Past { from, to }
        };
        let (tlo, thi) = TOLERANCE_RANGE;
        let tolerance = self.rng.uniform_range(tlo, thi.max(tlo + 1e-9));
        let latency_bound = *self
            .rng
            .choose(&LATENCY_CHOICES)
            .unwrap_or(&SimDuration::from_mins(1));
        QuerySpec {
            arrival,
            target,
            scope,
            tolerance,
            latency_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_of_queries(seed: u64) -> Vec<QuerySpec> {
        QueryGen::new(QueryParams::default(), seed)
            .generate(SimTime::from_days(2), SimDuration::from_days(1))
    }

    #[test]
    fn rate_roughly_matches() {
        let qs = day_of_queries(1);
        // 30/hour × 24 h = 720 expected.
        assert!((500..950).contains(&qs.len()), "{}", qs.len());
    }

    #[test]
    fn arrivals_are_ordered_and_in_window() {
        let qs = day_of_queries(2);
        assert!(qs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(qs
            .iter()
            .all(|q| q.arrival >= SimTime::from_days(2) && q.arrival < SimTime::from_days(3)));
        // Targets stay among the 40 sensors.
        assert!(qs.iter().all(|q| q.target < 40));
    }

    #[test]
    fn now_past_mix_matches_fraction() {
        let qs = day_of_queries(3);
        let now = qs
            .iter()
            .filter(|q| matches!(q.scope, TimeScope::Now))
            .count() as f64;
        let frac = now / qs.len() as f64;
        assert!((0.6..0.8).contains(&frac), "{frac}");
    }

    #[test]
    fn past_ranges_precede_arrival() {
        let qs = day_of_queries(4);
        for q in &qs {
            if let TimeScope::Past { from, to } = q.scope {
                assert!(from <= to);
                assert!(to <= q.arrival);
            }
        }
    }

    #[test]
    fn tolerances_within_range() {
        let qs = day_of_queries(5);
        assert!(qs.iter().all(|q| (0.25..=2.0).contains(&q.tolerance)));
    }

    #[test]
    fn latency_bounds_from_choices() {
        let qs = day_of_queries(6);
        assert!(qs
            .iter()
            .all(|q| LATENCY_CHOICES.contains(&q.latency_bound)));
        // All three classes should appear over a day.
        for c in &LATENCY_CHOICES {
            assert!(qs.iter().any(|q| q.latency_bound == *c));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(day_of_queries(8), day_of_queries(8));
    }
}
