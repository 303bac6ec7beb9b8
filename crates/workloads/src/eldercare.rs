//! Elder-care activity (ADL) workload.
//!
//! "Activity monitoring applications such as elder care … daily activity
//! patterns tend to be mostly predictable, with occasional unpredictable
//! events or patterns that need to be explicitly reported to proxies"
//! (paper §6). The generator is a time-of-day-driven activity state
//! machine emitting a scalar activity level per epoch plus explicit
//! anomaly events (falls, missed meals, night wandering).

use presto_sim::{SimDuration, SimRng, SimTime};

/// Activity states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Night sleep.
    Sleeping,
    /// Meal preparation and eating.
    Meal,
    /// Light household activity.
    Active,
    /// Rest / TV / reading.
    Resting,
    /// Outside walk.
    Walk,
    /// Anomalous episode (fall, wandering, missed routine).
    Anomaly,
}

impl Activity {
    /// Nominal wearable-accelerometer activity level for the state.
    pub fn level(self) -> f64 {
        match self {
            Activity::Sleeping => 0.05,
            Activity::Resting => 0.2,
            Activity::Meal => 0.5,
            Activity::Active => 0.7,
            Activity::Walk => 0.95,
            Activity::Anomaly => 0.4,
        }
    }

    /// Event-record code for anomaly reporting.
    pub fn code(self) -> u16 {
        match self {
            Activity::Sleeping => 10,
            Activity::Resting => 11,
            Activity::Meal => 12,
            Activity::Active => 13,
            Activity::Walk => 14,
            Activity::Anomaly => 15,
        }
    }
}

/// One epoch of the wearable's output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EldercareSample {
    /// Epoch timestamp.
    pub timestamp: SimTime,
    /// Activity level in `[0, 1]` (plus sensor noise).
    pub level: f64,
    /// Current state.
    pub state: Activity,
    /// True on the first epoch of an anomaly episode.
    pub anomaly_onset: bool,
}

/// Elder-care workload generator.
#[derive(Clone, Debug)]
pub struct EldercareGen {
    rng: SimRng,
    epoch: SimDuration,
    epoch_index: u64,
    state: Activity,
    state_until: SimTime,
    anomalies_per_day: f64,
    was_anomaly: bool,
}

impl EldercareGen {
    /// Creates a generator with the given epoch length and anomaly rate.
    pub fn new(epoch: SimDuration, anomalies_per_day: f64, seed: u64) -> Self {
        EldercareGen {
            rng: SimRng::new(seed).split("eldercare"),
            epoch,
            epoch_index: 0,
            state: Activity::Sleeping,
            state_until: SimTime::ZERO,
            anomalies_per_day,
            was_anomaly: false,
        }
    }

    /// The habitual state for an hour of the day.
    fn scheduled_state(hour: f64) -> Activity {
        match hour {
            h if !(6.5..22.5).contains(&h) => Activity::Sleeping,
            h if (6.5..8.0).contains(&h) => Activity::Meal,
            h if (8.0..10.0).contains(&h) => Activity::Active,
            h if (10.0..11.0).contains(&h) => Activity::Walk,
            h if (11.0..12.5).contains(&h) => Activity::Resting,
            h if (12.5..13.5).contains(&h) => Activity::Meal,
            h if (13.5..17.0).contains(&h) => Activity::Resting,
            h if (17.0..18.5).contains(&h) => Activity::Active,
            h if (18.5..19.5).contains(&h) => Activity::Meal,
            _ => Activity::Resting,
        }
    }

    /// Advances one epoch.
    pub fn step(&mut self) -> EldercareSample {
        let t = SimTime::ZERO + self.epoch * self.epoch_index;
        self.epoch_index += 1;

        let anomaly_rate = self.anomalies_per_day * self.epoch.as_secs_f64() / 86_400.0;
        if self.state != Activity::Anomaly && self.rng.chance(anomaly_rate) {
            self.state = Activity::Anomaly;
            // Anomalies last 10–40 minutes.
            let mins = 10.0 + self.rng.uniform() * 30.0;
            self.state_until = t + SimDuration::from_mins_f64(mins);
        } else if self.state != Activity::Anomaly || t > self.state_until {
            self.state = Self::scheduled_state(t.hour_of_day());
        }

        let anomaly_onset = self.state == Activity::Anomaly && !self.was_anomaly;
        self.was_anomaly = self.state == Activity::Anomaly;

        // Anomalies have erratic levels; normal states have small noise.
        let level = if self.state == Activity::Anomaly {
            (self.state.level() + self.rng.gaussian_ms(0.0, 0.35)).clamp(0.0, 1.2)
        } else {
            (self.state.level() + self.rng.gaussian_ms(0.0, 0.05)).clamp(0.0, 1.2)
        };

        EldercareSample {
            timestamp: t,
            level,
            state: self.state,
            anomaly_onset,
        }
    }

    /// Generates `duration` worth of samples.
    pub fn generate(&mut self, duration: SimDuration) -> Vec<EldercareSample> {
        let n = duration.div_duration(self.epoch);
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week(anomalies_per_day: f64, seed: u64) -> Vec<EldercareSample> {
        EldercareGen::new(SimDuration::from_mins(1), anomalies_per_day, seed)
            .generate(SimDuration::from_days(7))
    }

    #[test]
    fn nights_are_asleep() {
        let samples = week(0.0, 1);
        for s in &samples {
            let h = s.timestamp.hour_of_day();
            if !(6.0..23.0).contains(&h) {
                assert_eq!(s.state, Activity::Sleeping, "awake at {h}");
            }
        }
    }

    #[test]
    fn days_are_predictably_structured() {
        // The same hour on different days should have the same habitual
        // state — the predictability PRESTO exploits.
        let samples = week(0.0, 2);
        let state_at = |day: u64, hour: u64| {
            samples
                .iter()
                .find(|s| {
                    s.timestamp.as_secs() / 86_400 == day
                        && (s.timestamp.hour_of_day() - hour as f64).abs() < 0.02
                })
                .map(|s| s.state)
        };
        for hour in [7, 9, 13, 20] {
            assert_eq!(state_at(1, hour), state_at(4, hour), "hour {hour}");
        }
    }

    #[test]
    fn anomalies_arrive_and_mark_onset() {
        let samples = week(3.0, 3);
        let onsets = samples.iter().filter(|s| s.anomaly_onset).count();
        assert!(onsets >= 5, "only {onsets} anomalies in a week at 3/day");
        // ~3/day × 7 days = 21 expected.
        assert!(onsets <= 60, "{onsets} anomalies is too many");
        // Onset epochs are in the Anomaly state.
        assert!(samples
            .iter()
            .filter(|s| s.anomaly_onset)
            .all(|s| s.state == Activity::Anomaly));
    }

    #[test]
    fn anomaly_free_trace_has_no_anomalies() {
        let samples = week(0.0, 4);
        assert!(samples.iter().all(|s| s.state != Activity::Anomaly));
    }

    #[test]
    fn levels_track_states() {
        let samples = week(0.0, 5);
        let mean_level = |st: Activity| {
            let vals: Vec<f64> = samples
                .iter()
                .filter(|s| s.state == st)
                .map(|s| s.level)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        assert!(mean_level(Activity::Sleeping) < 0.15);
        assert!(mean_level(Activity::Walk) > 0.8);
    }

    #[test]
    fn codes_are_distinct() {
        let mut codes: Vec<u16> = [
            Activity::Sleeping,
            Activity::Meal,
            Activity::Active,
            Activity::Resting,
            Activity::Walk,
            Activity::Anomaly,
        ]
        .iter()
        .map(|a| a.code())
        .collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 6);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(week(2.0, 7), week(2.0, 7));
    }
}
