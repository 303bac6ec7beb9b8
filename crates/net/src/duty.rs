//! Radio duty cycling.
//!
//! A PRESTO sensor keeps its radio asleep except for periodic LPL channel
//! probes. The proxy's query–sensor matching (paper §3) chooses the check
//! interval from query latency requirements: a query class with a worst
//! case notification latency of `L` lets the sensor probe as rarely as
//! every `L`, paying `L/2` expected wake latency in exchange for less
//! idle listening.

use presto_sim::{EnergyCategory, EnergyLedger, SimDuration};

use crate::energy::RadioModel;

/// A low-power-listening duty cycle schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct DutyCycle {
    /// Interval between channel probes; zero means the radio listens
    /// continuously (a tethered node).
    pub check_interval: SimDuration,
}

impl DutyCycle {
    /// Always-on listening (proxies).
    pub fn always_on() -> Self {
        DutyCycle {
            check_interval: SimDuration::ZERO,
        }
    }

    /// Probe every `interval`.
    pub fn lpl(interval: SimDuration) -> Self {
        DutyCycle {
            check_interval: interval,
        }
    }

    /// The laziest duty cycle that still meets a worst-case notification
    /// latency bound: the downlink preamble spans one check interval, so
    /// the check interval simply equals the bound (minus a small guard).
    pub fn for_latency_bound(bound: SimDuration) -> Self {
        if bound.is_zero() {
            return DutyCycle::always_on();
        }
        // 10% guard for preamble detection and frame time.
        let interval = SimDuration::from_secs_f64(bound.as_secs_f64() * 0.9);
        DutyCycle::lpl(interval)
    }

    /// Average listening power under this schedule, in watts.
    pub fn average_listen_power(&self, radio: &RadioModel) -> f64 {
        if self.check_interval.is_zero() {
            return radio.rx_power_w;
        }
        let probes_per_sec = 1.0 / self.check_interval.as_secs_f64();
        probes_per_sec * radio.probe_energy() + radio.sleep_power_w
    }

    /// Joules of idle listening over `window`, charged to the ledger.
    pub fn charge_listening(
        &self,
        radio: &RadioModel,
        window: SimDuration,
        ledger: &mut EnergyLedger,
    ) -> f64 {
        let j = self.average_listen_power(radio) * window.as_secs_f64();
        ledger.charge(EnergyCategory::RadioListen, j);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_costs_full_rx_power() {
        let r = RadioModel::mica2();
        let d = DutyCycle::always_on();
        assert_eq!(d.average_listen_power(&r), r.rx_power_w);
    }

    #[test]
    fn slower_probing_is_cheaper() {
        let r = RadioModel::mica2();
        let fast = DutyCycle::lpl(SimDuration::from_millis(100));
        let slow = DutyCycle::lpl(SimDuration::from_secs(2));
        assert!(slow.average_listen_power(&r) < fast.average_listen_power(&r));
    }

    #[test]
    fn one_second_lpl_listen_budget() {
        // 1 probe/s × 90 µJ + 3 µW sleep ≈ 93 µW average.
        let r = RadioModel::mica2();
        let d = DutyCycle::lpl(SimDuration::from_secs(1));
        let p = d.average_listen_power(&r);
        assert!((p - 93e-6).abs() < 1e-6, "{p}");
        // Over a day that is ~8 J — two orders below an always-on radio.
        let day = p * 86_400.0;
        assert!((7.0..9.0).contains(&day), "{day}");
        assert!(day < r.rx_power_w * 86_400.0 / 100.0);
    }

    #[test]
    fn latency_bound_maps_to_interval() {
        let d = DutyCycle::for_latency_bound(SimDuration::from_mins(10));
        assert!(d.check_interval <= SimDuration::from_mins(10));
        assert!(d.check_interval > SimDuration::from_mins(8));
        assert_eq!(
            DutyCycle::for_latency_bound(SimDuration::ZERO),
            DutyCycle::always_on()
        );
    }

    #[test]
    fn charge_listening_accrues_to_ledger() {
        let r = RadioModel::mica2();
        let d = DutyCycle::lpl(SimDuration::from_secs(1));
        let mut l = EnergyLedger::new();
        let j = d.charge_listening(&r, SimDuration::from_hours(1), &mut l);
        assert!((l.category(EnergyCategory::RadioListen) - j).abs() < 1e-12);
        assert!(j > 0.0);
    }
}
