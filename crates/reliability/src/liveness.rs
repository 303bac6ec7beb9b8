//! Proxy-side failure detection: heartbeat leases over silent sensors.
//!
//! Under model-driven push a healthy sensor may legitimately say
//! nothing for hours, so absence of data is not evidence of death. The
//! monitor instead leases on *any* contact — deviation pushes, batches,
//! pull replies, seal notifications, and the low-rate heartbeats
//! sensors emit when they have been silent too long. A sensor whose
//! lease expires becomes [`Health::Suspect`]; one silent much longer
//! becomes [`Health::Dead`]. Query answers widen their confidence
//! bounds accordingly: the model-silence guarantee ("silence means
//! within tolerance") only holds while the channel is known to work.

use presto_sim::{SimDuration, SimTime};

/// Graded sensor health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Lease is current: silence is model-conforming silence.
    Live,
    /// Lease expired: the sensor may be partitioned; extrapolations are
    /// suspect and confidence bounds widen.
    Suspect,
    /// Silent past the dead threshold: answers relying on this sensor's
    /// model carry no confidence.
    Dead,
}

impl Health {
    /// Widens a query confidence bound (one sigma) for this health
    /// grade. `floor` is the sensor's push tolerance — the scale of the
    /// guarantee that silence used to carry.
    ///
    /// * `Live` — unchanged.
    /// * `Suspect` — the guarantee may have been broken for up to the
    ///   lease duration: double the bound and add a tolerance of slack.
    /// * `Dead` — no guarantee at all: infinite.
    pub fn widen_sigma(self, sigma: f64, floor: f64) -> f64 {
        match self {
            Health::Live => sigma,
            Health::Suspect => sigma * 2.0 + floor,
            Health::Dead => f64::INFINITY,
        }
    }
}

/// Lease parameters.
#[derive(Clone, Copy, Debug)]
pub struct LivenessConfig {
    /// Contact lease: silence longer than this makes a sensor Suspect.
    pub lease: SimDuration,
    /// Silence longer than this makes a sensor Dead.
    pub dead_after: SimDuration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            // ~2.5 missed heartbeats at the default 10-minute beacon.
            lease: SimDuration::from_mins(25),
            dead_after: SimDuration::from_hours(1),
        }
    }
}

/// Monitor counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LivenessStats {
    /// Live → Suspect transitions observed.
    pub suspected: u64,
    /// → Dead transitions observed.
    pub died: u64,
    /// Suspect/Dead → Live transitions (reconnects).
    pub reconnected: u64,
}

presto_telemetry::observe_counters!(LivenessStats {
    suspected,
    died,
    reconnected,
});

/// Per-sensor lease state.
#[derive(Clone, Debug)]
struct Slot {
    last_heard: SimTime,
    state: Health,
}

/// The proxy-side liveness monitor.
#[derive(Clone, Debug)]
pub struct LivenessMonitor {
    config: LivenessConfig,
    slots: Vec<Slot>,
    stats: LivenessStats,
}

impl LivenessMonitor {
    /// Creates a monitor for `sensors` sensors, all initially Live with
    /// a lease starting at time zero.
    pub fn new(config: LivenessConfig, sensors: usize) -> Self {
        assert!(
            config.lease <= config.dead_after,
            "dead threshold must not precede the lease"
        );
        LivenessMonitor {
            config,
            slots: vec![
                Slot {
                    last_heard: SimTime::ZERO,
                    state: Health::Live,
                };
                sensors
            ],
            stats: LivenessStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> LivenessStats {
        self.stats
    }

    /// Records contact from `sensor` at `t` (any delivered message).
    /// Returns true when this contact is a reconnect (the sensor was
    /// Suspect or Dead) — the driver's cue to start recovery.
    pub fn heard(&mut self, sensor: usize, t: SimTime) -> bool {
        let slot = &mut self.slots[sensor];
        slot.last_heard = slot.last_heard.max(t);
        if slot.state != Health::Live {
            slot.state = Health::Live;
            self.stats.reconnected += 1;
            true
        } else {
            false
        }
    }

    /// Re-grades `sensor` at time `t`, recording transitions. Call once
    /// per epoch (or before reading [`LivenessMonitor::health`]).
    pub fn check(&mut self, sensor: usize, t: SimTime) -> Health {
        let slot = &mut self.slots[sensor];
        let age = t - slot.last_heard;
        let fresh = if age >= self.config.dead_after {
            Health::Dead
        } else if age >= self.config.lease {
            Health::Suspect
        } else {
            Health::Live
        };
        // A lease re-grade can only worsen health; only `heard`
        // (actual contact) restores Live.
        let rank = |h: Health| match h {
            Health::Live => 0u8,
            Health::Suspect => 1,
            Health::Dead => 2,
        };
        if rank(fresh) <= rank(slot.state) {
            return slot.state;
        }
        if slot.state == Health::Live {
            self.stats.suspected += 1;
        }
        if fresh == Health::Dead {
            self.stats.died += 1;
        }
        slot.state = fresh;
        fresh
    }

    /// The last graded health of `sensor` (no re-grade).
    pub fn health(&self, sensor: usize) -> Health {
        self.slots[sensor].state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LivenessConfig {
        LivenessConfig {
            lease: SimDuration::from_mins(5),
            dead_after: SimDuration::from_mins(15),
        }
    }

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn lease_expiry_walks_live_suspect_dead() {
        let mut m = LivenessMonitor::new(cfg(), 1);
        m.heard(0, t(0));
        assert_eq!(m.check(0, t(4)), Health::Live);
        assert_eq!(m.check(0, t(5)), Health::Suspect, "lease boundary");
        assert_eq!(m.check(0, t(14)), Health::Suspect);
        assert_eq!(m.check(0, t(15)), Health::Dead, "dead boundary");
        assert_eq!(m.check(0, t(60)), Health::Dead);
        let s = m.stats();
        assert_eq!(s.suspected, 1);
        assert_eq!(s.died, 1);
        assert_eq!(s.reconnected, 0);
    }

    #[test]
    fn any_contact_renews_the_lease() {
        let mut m = LivenessMonitor::new(cfg(), 1);
        for k in 0..10u64 {
            m.heard(0, t(4 * k));
            assert_eq!(m.check(0, t(4 * k + 3)), Health::Live);
        }
        assert_eq!(m.stats().suspected, 0);
    }

    #[test]
    fn reconnect_is_reported_once_and_restores_live() {
        let mut m = LivenessMonitor::new(cfg(), 1);
        m.heard(0, t(0));
        assert_eq!(m.check(0, t(20)), Health::Dead);
        // First contact after the outage reports a reconnect.
        assert!(m.heard(0, t(21)));
        assert_eq!(m.health(0), Health::Live);
        // Subsequent contacts do not.
        assert!(!m.heard(0, t(22)));
        assert_eq!(m.stats().reconnected, 1);
    }

    #[test]
    fn check_never_resurrects_without_contact() {
        let mut m = LivenessMonitor::new(cfg(), 1);
        m.heard(0, t(0));
        assert_eq!(m.check(0, t(6)), Health::Suspect);
        // A stale-time re-check (e.g. caller probing a past instant)
        // must not flip the sensor back to Live.
        assert_eq!(m.check(0, t(1)), Health::Suspect);
    }

    #[test]
    fn detection_timestamp_marks_first_suspicion() {
        let mut m = LivenessMonitor::new(cfg(), 2);
        m.heard(0, t(10));
        m.heard(1, t(10));
        assert_eq!(m.check(0, t(16)), Health::Suspect);
        assert_eq!(m.stats().suspected, 1);
        // Staying suspect does not detect the outage again.
        m.check(0, t(18));
        assert_eq!(m.stats().suspected, 1);
        // Going dead does not either — the outage started at t(16).
        assert_eq!(m.check(0, t(40)), Health::Dead);
        assert_eq!(m.stats().suspected, 1);
        // The other sensor is untouched.
        assert_eq!(m.check(1, t(14)), Health::Live);
    }

    #[test]
    fn sigma_widening_by_grade() {
        assert_eq!(Health::Live.widen_sigma(0.5, 1.0), 0.5);
        assert_eq!(Health::Suspect.widen_sigma(0.5, 1.0), 2.0);
        assert!(Health::Dead.widen_sigma(0.5, 1.0).is_infinite());
        // A zero-sigma cache hit still widens under suspicion.
        assert!(Health::Suspect.widen_sigma(0.0, 1.0) >= 1.0);
    }
}
