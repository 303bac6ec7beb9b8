//! Intel-Lab-style indoor temperature deployment.
//!
//! The generator reproduces the statistical features the PRESTO
//! mechanisms are sensitive to:
//!
//! * a **diurnal cycle** (time-of-day effects — what the seasonal model
//!   learns);
//! * a **slow trend** across days (seasons / HVAC drift);
//! * a **shared AR(1) weather field** correlated across all sensors of a
//!   deployment (what the spatial Gaussian exploits);
//! * **per-sensor offsets** (a sensor near a window reads warmer);
//! * **heavy-tailed per-epoch jitter** (a Gaussian mixture approximating
//!   the lab trace's occasional fast swings — this sets the value-driven
//!   push rates for Figure 2);
//! * **rare events**: sporadic spikes (a door opens, equipment turns on)
//!   arriving as a Poisson process — the "unpredictable" rare events
//!   model-driven push must never miss.
//!
//! Sampling is epoch-based (default 31 s, matching the lab trace).

use presto_sim::{SimDuration, SimRng, SimTime};

/// Mean temperature, °C.
const BASE_TEMP: f64 = 21.0;

/// Diurnal amplitude, °C.
const DIURNAL_AMP: f64 = 4.0;

/// AR(1) coefficient of the shared weather field (per epoch).
const FIELD_PHI: f64 = 0.995;

/// Std-dev of the heavy-tail jitter component, °C.
const HEAVY_SIGMA: f64 = 1.9;

/// Spread of fixed per-sensor offsets, °C.
const OFFSET_SPREAD: f64 = 1.5;

/// Event spike magnitude, °C.
const EVENT_AMP: f64 = 8.0;

/// How long a rare-event spike stays active.
pub const EVENT_DURATION: SimDuration = SimDuration::from_mins(5);

/// Linear trend, °C per day.
const TREND_PER_DAY: f64 = 0.05;

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct LabParams {
    /// Number of sensors in the deployment.
    pub sensors: usize,
    /// Sampling epoch.
    pub epoch: SimDuration,
    /// Innovation std-dev of the shared field, °C.
    pub field_sigma: f64,
    /// Std-dev of the common (small) jitter component, °C.
    pub jitter_sigma: f64,
    /// Probability that an epoch draws from the heavy tail instead.
    pub heavy_prob: f64,
    /// Mean rate of rare events per sensor per day.
    pub events_per_day: f64,
}

impl Default for LabParams {
    fn default() -> Self {
        LabParams {
            sensors: 4,
            epoch: SimDuration::from_secs(31),
            field_sigma: 0.12,
            jitter_sigma: 0.35,
            heavy_prob: 0.08,
            events_per_day: 0.5,
        }
    }
}

/// One sensor's reading at an epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabReading {
    /// Epoch timestamp.
    pub timestamp: SimTime,
    /// Temperature, °C.
    pub value: f64,
    /// True if a rare event spike is active at this sensor.
    pub event_active: bool,
}

/// A running deployment generator.
#[derive(Clone, Debug)]
pub struct LabDeployment {
    params: LabParams,
    rng: SimRng,
    epoch_index: u64,
    field: f64,
    offsets: Vec<f64>,
    /// Per-sensor event end time (if an event is active).
    event_until: Vec<Option<SimTime>>,
    /// Per-sensor smoothed private jitter state.
    private: Vec<f64>,
}

impl LabDeployment {
    /// Creates a deployment from parameters and a seed.
    pub fn new(params: LabParams, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).split("lab");
        let offsets = (0..params.sensors)
            .map(|_| rng.gaussian_ms(0.0, OFFSET_SPREAD / 2.0))
            .collect();
        LabDeployment {
            event_until: vec![None; params.sensors],
            private: vec![0.0; params.sensors],
            offsets,
            params,
            rng,
            epoch_index: 0,
            field: 0.0,
        }
    }

    /// Timestamp of the next epoch to be generated.
    pub fn next_epoch_time(&self) -> SimTime {
        SimTime::ZERO + self.params.epoch * self.epoch_index
    }

    /// Advances one epoch, returning every sensor's reading.
    pub fn step(&mut self) -> Vec<LabReading> {
        let t = self.next_epoch_time();
        self.epoch_index += 1;

        // Shared field: AR(1) around zero.
        self.field = FIELD_PHI * self.field + self.rng.gaussian_ms(0.0, self.params.field_sigma);

        let hours = t.hour_of_day();
        let diurnal = DIURNAL_AMP * ((hours - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        let trend = TREND_PER_DAY * t.as_days_f64();
        let base = BASE_TEMP + diurnal + trend + self.field;

        // Poisson event arrivals per sensor per epoch.
        let event_rate_per_epoch =
            self.params.events_per_day * self.params.epoch.as_secs_f64() / 86_400.0;

        (0..self.params.sensors)
            .map(|s| {
                if self.event_until[s].is_none() && self.rng.chance(event_rate_per_epoch) {
                    self.event_until[s] = Some(t + EVENT_DURATION);
                }
                let event_active = match self.event_until[s] {
                    Some(until) if t <= until => true,
                    Some(_) => {
                        self.event_until[s] = None;
                        false
                    }
                    None => false,
                };

                // Heavy-tailed per-epoch jitter, slightly smoothed so the
                // per-epoch deltas are realistic rather than white.
                let sigma = if self.rng.chance(self.params.heavy_prob) {
                    HEAVY_SIGMA
                } else {
                    self.params.jitter_sigma
                };
                let innovation = self.rng.gaussian_ms(0.0, sigma);
                self.private[s] = 0.3 * self.private[s] + innovation;

                let mut value = base + self.offsets[s] + self.private[s];
                if event_active {
                    value += EVENT_AMP;
                }
                LabReading {
                    timestamp: t,
                    value,
                    event_active,
                }
            })
            .collect()
    }

    /// Generates a full trace: `rows[epoch][sensor]`.
    pub fn generate(&mut self, duration: SimDuration) -> Vec<Vec<LabReading>> {
        let epochs = duration.div_duration(self.params.epoch);
        (0..epochs).map(|_| self.step()).collect()
    }

    /// Convenience: a single-sensor value trace with timestamps.
    pub fn single_sensor_trace(
        params: LabParams,
        seed: u64,
        duration: SimDuration,
    ) -> Vec<LabReading> {
        let mut dep = LabDeployment::new(
            LabParams {
                sensors: 1,
                ..params
            },
            seed,
        );
        dep.generate(duration)
            .into_iter()
            .map(|mut row| row.remove(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_trace(seed: u64) -> Vec<LabReading> {
        LabDeployment::single_sensor_trace(LabParams::default(), seed, SimDuration::from_days(2))
    }

    #[test]
    fn deterministic_per_seed() {
        let a = day_trace(1);
        let b = day_trace(1);
        let c = day_trace(2);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.value == y.value));
        assert!(a.iter().zip(&c).any(|(x, y)| x.value != y.value));
    }

    #[test]
    fn epoch_spacing_matches_params() {
        let tr = day_trace(3);
        let step = tr[1].timestamp - tr[0].timestamp;
        assert_eq!(step, SimDuration::from_secs(31));
        assert_eq!(
            tr.len() as u64,
            SimDuration::from_days(2).div_duration(step)
        );
    }

    #[test]
    fn diurnal_cycle_is_present() {
        // Afternoon epochs should run warmer than pre-dawn epochs.
        let tr = day_trace(4);
        let mean_at = |h0: f64, h1: f64| {
            let vals: Vec<f64> = tr
                .iter()
                .filter(|r| {
                    let h = r.timestamp.hour_of_day();
                    h >= h0 && h < h1 && !r.event_active
                })
                .map(|r| r.value)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let afternoon = mean_at(13.0, 16.0);
        let predawn = mean_at(3.0, 6.0);
        assert!(
            afternoon > predawn + 3.0,
            "afternoon {afternoon} vs predawn {predawn}"
        );
    }

    #[test]
    fn temperatures_are_plausible() {
        let tr = day_trace(5);
        for r in &tr {
            assert!((0.0..45.0).contains(&r.value), "implausible {}", r.value);
        }
    }

    #[test]
    fn rare_events_occur_and_spike() {
        let params = LabParams {
            events_per_day: 6.0,
            ..LabParams::default()
        };
        let tr = LabDeployment::single_sensor_trace(params, 6, SimDuration::from_days(4));
        let event_epochs = tr.iter().filter(|r| r.event_active).count();
        assert!(event_epochs > 0, "no events in 4 days at 6/day");
        // Event epochs should be visibly hotter than their neighbourhood.
        let (ev_sum, ev_n) = tr
            .iter()
            .filter(|r| r.event_active)
            .fold((0.0, 0), |(s, n), r| (s + r.value, n + 1));
        let (no_sum, no_n) = tr
            .iter()
            .filter(|r| !r.event_active)
            .fold((0.0, 0), |(s, n), r| (s + r.value, n + 1));
        assert!(ev_sum / ev_n as f64 > no_sum / no_n as f64 + 5.0);
    }

    #[test]
    fn sensors_are_spatially_correlated() {
        let mut dep = LabDeployment::new(
            LabParams {
                sensors: 4,
                events_per_day: 0.0,
                ..LabParams::default()
            },
            7,
        );
        let rows = dep.generate(SimDuration::from_days(1));
        // Correlation between sensor 0 and sensor 3 values.
        let xs: Vec<f64> = rows.iter().map(|r| r[0].value).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[3].value).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum::<f64>()
            / n;
        let sx = (xs.iter().map(|a| (a - mx) * (a - mx)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|b| (b - my) * (b - my)).sum::<f64>() / n).sqrt();
        let rho = cov / (sx * sy);
        assert!(rho > 0.7, "correlation too weak: {rho}");
    }

    #[test]
    fn delta_push_fractions_bracket_figure2() {
        // Sanity-check the per-epoch delta distribution against the
        // value-driven push rates Figure 2 relies on: Δ=1 should trigger
        // a substantially larger fraction than Δ=2 (about 2–4×).
        let tr = LabDeployment::single_sensor_trace(
            LabParams {
                events_per_day: 0.0,
                ..LabParams::default()
            },
            8,
            SimDuration::from_days(7),
        );
        let mut pushes = [0u64; 2];
        for (k, &delta) in [1.0, 2.0].iter().enumerate() {
            let mut last_pushed = tr[0].value;
            for r in &tr[1..] {
                if (r.value - last_pushed).abs() > delta {
                    pushes[k] += 1;
                    last_pushed = r.value;
                }
            }
        }
        let n = (tr.len() - 1) as f64;
        let f1 = pushes[0] as f64 / n;
        let f2 = pushes[1] as f64 / n;
        assert!(f1 > 0.08 && f1 < 0.6, "delta=1 fraction {f1}");
        assert!(f2 > 0.02, "delta=2 fraction {f2}");
        let ratio = f1 / f2;
        assert!((1.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn trend_accumulates_across_days() {
        let params = LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        };
        let tr = LabDeployment::single_sensor_trace(params, 9, SimDuration::from_days(200));
        // Whole-day means, 199 days apart: the diurnal cycle cancels, and
        // the shared field (stationary, about 1.2 °C of spread) leaves the
        // rise within 1.5 °C of the trend's.
        let day = (86_400 / 31) as usize;
        let first_day: f64 = tr.iter().take(day).map(|r| r.value).sum::<f64>() / day as f64;
        let last_day: f64 = tr.iter().rev().take(day).map(|r| r.value).sum::<f64>() / day as f64;
        let rise = last_day - first_day;
        assert!(
            (rise - TREND_PER_DAY * 199.0).abs() < 1.5,
            "{first_day} -> {last_day}"
        );
    }
}
