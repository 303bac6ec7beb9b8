//! Calibrated hardware energy constants.
//!
//! The paper's energy argument (§1) rests on the cost hierarchy
//! *radio ≫ flash ≫ CPU*: computation is cited as up to four orders of
//! magnitude cheaper than communication and storage as two orders
//! cheaper. The presets below reproduce that hierarchy with constants
//! calibrated to the hardware class the authors name:
//!
//! | quantity | Mica2 preset | derivation |
//! |----------|--------------|------------|
//! | radio TX | 16.88 µJ/byte | 27 mA × 3 V / 38.4 kbps (CC1000) |
//! | radio RX | 6.25 µJ/byte | 10 mA × 3 V / 38.4 kbps |
//! | LPL probe | 90 µJ/check | 3 ms probe at RX power |
//! | CPU | 3 nJ/cycle | ATmega128L, 8 mA × 3 V at 8 MHz |
//! | flash write | 0.257 µJ/byte | Atmel dataflash page programming |
//! | flash read | 0.064 µJ/byte | dataflash page reads |
//!
//! Ratios: TX/flash-write ≈ 66 (the paper's "two orders of magnitude"),
//! TX per byte / CPU per cycle ≈ 5,600 and per multi-cycle operation
//! comfortably reaches the cited four orders.

use presto_sim::SimDuration;

/// Radio hardware constants.
#[derive(Clone, Debug, PartialEq)]
pub struct RadioModel {
    /// Link bitrate in bits per second.
    pub bitrate_bps: f64,
    /// Transmit power draw in watts.
    pub tx_power_w: f64,
    /// Receive/listen power draw in watts.
    pub rx_power_w: f64,
    /// Sleep power draw in watts.
    pub sleep_power_w: f64,
    /// Duration of one low-power-listening channel probe.
    pub lpl_probe: SimDuration,
}

impl RadioModel {
    /// Mica2 / CC1000 at 38.4 kbps, 3 V supply.
    pub fn mica2() -> Self {
        RadioModel {
            bitrate_bps: 38_400.0,
            tx_power_w: 0.081,   // 27 mA × 3 V
            rx_power_w: 0.030,   // 10 mA × 3 V
            sleep_power_w: 3e-6, // ~1 µA × 3 V
            lpl_probe: SimDuration::from_millis(3),
        }
    }

    /// Seconds on air for `bytes` bytes.
    pub fn airtime(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bitrate_bps)
    }

    /// Joules to transmit `bytes` bytes of frame content (no preamble).
    ///
    /// Computed from the exact airtime (not the microsecond-quantized
    /// [`RadioModel::airtime`]) so energy totals are bit-exact.
    pub fn tx_energy(&self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 / self.bitrate_bps * self.tx_power_w
    }

    /// Joules to receive `bytes` bytes.
    pub fn rx_energy(&self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 / self.bitrate_bps * self.rx_power_w
    }

    /// Joules to transmit a wake-up preamble spanning `duration`.
    ///
    /// Under B-MAC low-power listening, the preamble must cover the
    /// receiver's check interval, so this is typically called with the
    /// destination's LPL check interval.
    pub fn preamble_energy(&self, duration: SimDuration) -> f64 {
        duration.as_secs_f64() * self.tx_power_w
    }

    /// Joules for one LPL channel probe (receiver side).
    pub fn probe_energy(&self) -> f64 {
        self.lpl_probe.as_secs_f64() * self.rx_power_w
    }
}

/// Microcontroller cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuModel {
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Active power draw in watts.
    pub active_power_w: f64,
}

impl CpuModel {
    /// ATmega128L at 8 MHz, 3 V (Mica2).
    pub fn atmega128() -> Self {
        CpuModel {
            freq_hz: 8e6,
            active_power_w: 0.024, // 8 mA × 3 V
        }
    }

    /// Joules per clock cycle.
    pub fn energy_per_cycle(&self) -> f64 {
        self.active_power_w / self.freq_hz
    }

    /// Joules for an operation costing `cycles` cycles.
    pub fn op_energy(&self, cycles: u64) -> f64 {
        cycles as f64 * self.energy_per_cycle()
    }
}

/// External flash cost model (Atmel dataflash-class).
#[derive(Clone, Debug, PartialEq)]
pub struct FlashModel {
    /// Joules per byte programmed.
    pub write_per_byte_j: f64,
    /// Joules per byte read.
    pub read_per_byte_j: f64,
    /// Joules per block erase.
    pub erase_per_block_j: f64,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
}

impl FlashModel {
    /// Atmel AT45DB-class dataflash (Mica2 daughterboard).
    pub fn dataflash() -> Self {
        FlashModel {
            write_per_byte_j: 0.257e-6,
            read_per_byte_j: 0.064e-6,
            erase_per_block_j: 7.0e-6,
            page_bytes: 264,
            pages_per_block: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mica2_tx_per_byte_matches_datasheet() {
        let r = RadioModel::mica2();
        let per_byte = r.tx_energy(1);
        // 27 mA × 3 V / 38.4 kbps = 16.875 µJ/byte.
        assert!((per_byte - 16.875e-6).abs() < 1e-9, "{per_byte}");
    }

    #[test]
    fn airtime_scales_linearly() {
        let r = RadioModel::mica2();
        let one = r.airtime(1).as_secs_f64();
        let hundred = r.airtime(100).as_secs_f64();
        // Airtime is quantized to microseconds, so allow 0.5% slack.
        assert!((hundred / one - 100.0).abs() < 0.5);
    }

    #[test]
    fn paper_cost_hierarchy_holds() {
        // Radio per byte vs flash write per byte: ~two orders of magnitude.
        let tx_byte = RadioModel::mica2().tx_energy(1);
        let flash_byte = FlashModel::dataflash().write_per_byte_j;
        let ratio_storage = tx_byte / flash_byte;
        assert!(
            (30.0..300.0).contains(&ratio_storage),
            "storage ratio {ratio_storage}"
        );

        // Radio per byte vs a small CPU op (a compare, ~4 cycles): ~four
        // orders of magnitude.
        let cpu_op = CpuModel::atmega128().op_energy(4);
        let ratio_cpu = tx_byte / cpu_op;
        assert!(
            (300.0..30_000.0).contains(&ratio_cpu),
            "cpu ratio {ratio_cpu}"
        );
    }

    #[test]
    fn preamble_energy_scales_with_duration() {
        let r = RadioModel::mica2();
        let half = r.preamble_energy(SimDuration::from_millis(500));
        let full = r.preamble_energy(SimDuration::from_secs(1));
        assert!((full / half - 2.0).abs() < 1e-9);
        // A 1 s preamble at 81 mW is 81 mJ.
        assert!((full - 0.081).abs() < 1e-9);
    }

    #[test]
    fn probe_energy_is_small() {
        let r = RadioModel::mica2();
        // 3 ms at 30 mW = 90 µJ.
        assert!((r.probe_energy() - 90e-6).abs() < 1e-12);
    }

    #[test]
    fn cpu_op_time_and_energy() {
        let c = CpuModel::atmega128();
        assert!((c.energy_per_cycle() - 3e-9).abs() < 1e-15);
        assert!((c.op_energy(1000) - 3e-6).abs() < 1e-12);
        // 8 MHz: 8000 cycles take a millisecond.
        assert!((8000.0 / c.freq_hz - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn rx_cheaper_than_tx_on_mica2() {
        let r = RadioModel::mica2();
        assert!(r.rx_energy(100) < r.tx_energy(100));
    }
}
