//! Sensor node configuration.

use presto_archive::ArchiveConfig;
use presto_net::DutyCycle;
use presto_sim::SimDuration;

use crate::push::PushPolicy;

/// Everything a [`crate::node::SensorNode`] needs at construction.
#[derive(Clone, Debug)]
pub struct SensorConfig {
    /// Push policy.
    pub push: PushPolicy,
    /// Radio duty cycle (LPL check interval). The radio is the uplink
    /// MAC's Mica2 ([`presto_net::Mac::downlink`]), and model checks and
    /// compression always charge CPU energy.
    pub duty: DutyCycle,
    /// Local archive configuration.
    // presto-lint: allow(knob, aggregate_over_aged_rows_reports_honest_sigma: an 8 KiB flash that ages within a short run)
    pub archive: ArchiveConfig,
    /// Announce archive segment seals with a tiny uplink so the proxy
    /// tier's range index follows the archive block-by-block. Off by
    /// default: single-node policy benchmarks measure push policies,
    /// not index maintenance; the assembled system turns it on.
    pub announce_seals: bool,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            push: PushPolicy::ModelDriven { tolerance: 1.0 },
            duty: DutyCycle::lpl(SimDuration::from_secs(1)),
            archive: ArchiveConfig::default(),
            announce_seals: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_model_driven_mica2() {
        let c = SensorConfig::default();
        assert!(matches!(c.push, PushPolicy::ModelDriven { .. }));
        assert_eq!(c.duty.check_interval, SimDuration::from_secs(1));
    }
}
