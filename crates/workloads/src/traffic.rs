//! Vehicle-traffic detection workload.
//!
//! "In a traffic monitoring application, signatures of detected vehicles
//! would constitute useful sensor data that is archived locally, whereas
//! the sensor might use a classifier to process the sensor data and
//! report the most likely vehicle type to the proxy" (paper §4).
//!
//! Detections arrive as a nonhomogeneous Poisson process with rush-hour
//! peaks; each carries a vehicle type and an opaque signature blob (the
//! raw data a sensor archives but never transmits).

use presto_sim::{SimDuration, SimRng, SimTime};

/// Classified vehicle types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VehicleType {
    /// Passenger car.
    Car,
    /// Light truck / van.
    Truck,
    /// Bus.
    Bus,
    /// Motorcycle.
    Motorcycle,
}

impl VehicleType {
    /// All types.
    pub const ALL: [VehicleType; 4] = [
        VehicleType::Car,
        VehicleType::Truck,
        VehicleType::Bus,
        VehicleType::Motorcycle,
    ];
}

/// One detection.
#[derive(Clone, Debug, PartialEq)]
pub struct VehicleDetection {
    /// Detection time.
    pub timestamp: SimTime,
    /// Sensor that detected the vehicle.
    pub sensor: usize,
    /// Classified type (what gets pushed to the proxy).
    pub vehicle_type: VehicleType,
    /// Raw signature (what gets archived locally), 32 bytes.
    pub signature: Vec<u8>,
}

/// Baseline vehicles per hour per sensor (off-peak).
const BASE_RATE_PER_HOUR: f64 = 40.0;

/// Multiplier at rush-hour peaks (08:00 and 17:30).
const RUSH_MULTIPLIER: f64 = 6.0;

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct TrafficParams {
    /// Number of detector sensors along the road.
    pub sensors: usize,
    /// Travel time between adjacent sensors (detections propagate).
    pub inter_sensor_gap: SimDuration,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            sensors: 6,
            inter_sensor_gap: SimDuration::from_secs(20),
        }
    }
}

/// Vehicle-traffic workload generator.
#[derive(Clone, Debug)]
pub struct TrafficGen {
    params: TrafficParams,
    rng: SimRng,
}

impl TrafficGen {
    /// Creates a generator.
    pub fn new(params: TrafficParams, seed: u64) -> Self {
        TrafficGen {
            params,
            rng: SimRng::new(seed).split("traffic"),
        }
    }

    /// Instantaneous arrival rate (vehicles/hour/sensor) at a time of day.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let h = t.hour_of_day();
        let peak = |centre: f64, width: f64| {
            let d = (h - centre).abs().min(24.0 - (h - centre).abs());
            (-0.5 * (d / width) * (d / width)).exp()
        };
        let rush = peak(8.0, 1.0).max(peak(17.5, 1.2));
        let night = if !(6.0..22.0).contains(&h) { 0.15 } else { 1.0 };
        BASE_RATE_PER_HOUR * night * (1.0 + (RUSH_MULTIPLIER - 1.0) * rush)
    }

    /// Generates all detections in `[start, start + duration)`, ordered
    /// by time. Each vehicle passes every sensor in order, offset by the
    /// inter-sensor gap (the order-preserving property the paper's index
    /// must maintain).
    pub fn generate(&mut self, start: SimTime, duration: SimDuration) -> Vec<VehicleDetection> {
        let mut out = Vec::new();
        let end = start + duration;
        // Thinning: simulate at the max rate and accept proportionally.
        let max_rate = BASE_RATE_PER_HOUR * RUSH_MULTIPLIER;
        let mut t = start;
        loop {
            let gap_hours = self.rng.exponential(max_rate);
            if !gap_hours.is_finite() {
                break;
            }
            t += SimDuration::from_secs_f64(gap_hours * 3600.0);
            if t >= end {
                break;
            }
            if !self.rng.chance(self.rate_at(t) / max_rate) {
                continue;
            }
            let vehicle_type = self.sample_type();
            let mut signature = vec![0u8; 32];
            for b in &mut signature {
                *b = (self.rng.next_u64() & 0xFF) as u8;
            }
            for s in 0..self.params.sensors {
                out.push(VehicleDetection {
                    timestamp: t + self.params.inter_sensor_gap * s as u64,
                    sensor: s,
                    vehicle_type,
                    signature: signature.clone(),
                });
            }
        }
        out.sort_by_key(|d| d.timestamp);
        out
    }

    fn sample_type(&mut self) -> VehicleType {
        let u = self.rng.uniform();
        if u < 0.78 {
            VehicleType::Car
        } else if u < 0.92 {
            VehicleType::Truck
        } else if u < 0.97 {
            VehicleType::Bus
        } else {
            VehicleType::Motorcycle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rush_hour_is_busier_than_night() {
        let g = TrafficGen::new(TrafficParams::default(), 1);
        let rush = g.rate_at(SimTime::from_hours(8));
        let night = g.rate_at(SimTime::from_hours(3));
        assert!(rush > 5.0 * night, "rush {rush} night {night}");
    }

    #[test]
    fn detections_propagate_across_sensors_in_order() {
        let mut g = TrafficGen::new(
            TrafficParams {
                sensors: 3,
                ..TrafficParams::default()
            },
            2,
        );
        let dets = g.generate(SimTime::from_hours(8), SimDuration::from_mins(10));
        assert!(!dets.is_empty());
        // Group by signature: each vehicle seen exactly once per sensor,
        // in sensor order with the configured gap.
        use std::collections::HashMap;
        let mut by_sig: HashMap<Vec<u8>, Vec<&VehicleDetection>> = HashMap::new();
        for d in &dets {
            by_sig.entry(d.signature.clone()).or_default().push(d);
        }
        for (_, mut group) in by_sig {
            group.sort_by_key(|d| d.sensor);
            assert_eq!(group.len(), 3);
            for w in group.windows(2) {
                assert_eq!(w[1].timestamp - w[0].timestamp, SimDuration::from_secs(20));
                assert_eq!(w[0].vehicle_type, w[1].vehicle_type);
            }
        }
    }

    #[test]
    fn volume_roughly_matches_rate() {
        let mut g = TrafficGen::new(
            TrafficParams {
                sensors: 1,
                ..TrafficParams::default()
            },
            3,
        );
        // A whole day: night, daytime and both rush hours, against
        // `rate_at` integrated minute by minute.
        let dets = g.generate(SimTime::ZERO, SimDuration::from_days(1));
        let expected: f64 = (0..24 * 60)
            .map(|m| g.rate_at(SimTime::from_mins(m)) / 60.0)
            .sum();
        let ratio = dets.len() as f64 / expected;
        assert!(
            (0.85..1.15).contains(&ratio),
            "{} vs {expected}",
            dets.len()
        );
    }

    #[test]
    fn type_mix_dominated_by_cars() {
        let mut g = TrafficGen::new(TrafficParams::default(), 4);
        let dets = g.generate(SimTime::from_hours(7), SimDuration::from_hours(6));
        let cars = dets
            .iter()
            .filter(|d| d.vehicle_type == VehicleType::Car)
            .count();
        assert!(cars as f64 > 0.6 * dets.len() as f64);
    }

    #[test]
    fn output_is_time_sorted_and_deterministic() {
        let gen = |seed| {
            TrafficGen::new(TrafficParams::default(), seed)
                .generate(SimTime::ZERO, SimDuration::from_hours(2))
        };
        let a = gen(5);
        assert!(a.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(a, gen(5));
    }
}
