//! A B-MAC–style low-power-listening MAC with ARQ.
//!
//! Transmission cost has three parts, and the relative size of each drives
//! every curve in the Figure 2 reproduction:
//!
//! 1. **Wake-up preamble** — to reach a duty-cycled receiver that probes
//!    the channel every `dest_lpl_interval`, the first frame of a
//!    transmission carries a preamble long enough to span one check
//!    interval (B-MAC). This is a *fixed cost per transmission* and is
//!    what batching amortizes.
//! 2. **Frame bytes** — header + payload + CRC per fragment, at the
//!    radio's per-byte cost. This is the floor that compression lowers.
//! 3. **ACK + retransmissions** — each fragment is acknowledged and
//!    retried up to `max_retries` times on loss.
//!
//! When `burst_amortizes_preamble` is true (the default, matching B-MAC
//! with after-preamble synchronization), a multi-fragment payload pays the
//! wake-up preamble once; otherwise every fragment pays it.

use presto_sim::{EnergyCategory, EnergyLedger, SimDuration};

use crate::energy::RadioModel;
use crate::frame::FrameFormat;
use crate::link::LinkModel;

/// Radio turnaround time between a data frame and its ACK.
const TURNAROUND: SimDuration = SimDuration::from_millis(1);

/// MAC configuration bound to a radio model.
#[derive(Clone, Debug)]
pub struct Mac {
    /// Radio hardware constants.
    pub radio: RadioModel,
    /// Frame geometry.
    pub frame: FrameFormat,
    /// Retransmissions allowed per fragment after the first attempt.
    pub max_retries: u32,
    /// The destination's LPL check interval; zero means the destination
    /// listens continuously (e.g. a tethered proxy) and only a short
    /// synchronization preamble is needed.
    pub dest_lpl_interval: SimDuration,
    /// Pay the wake-up preamble once per transmission (true) or once per
    /// fragment (false).
    pub burst_amortizes_preamble: bool,
}

/// Short synchronization preamble bytes prepended to every frame even when
/// the receiver is awake.
const SYNC_PREAMBLE_BYTES: usize = 6;

/// Result of a MAC-layer send.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxOutcome {
    /// True if every fragment was delivered and acknowledged.
    pub delivered: bool,
    /// Frames put on the air, including retransmissions.
    pub frames_sent: u64,
    /// Frames that physically reached the receiver.
    pub frames_delivered: u64,
    /// Sender-side energy (preambles + frames + ACK reception), joules.
    pub tx_energy_j: f64,
    /// Receiver-side energy (preamble tail + frames + ACK transmission), joules.
    pub rx_energy_j: f64,
    /// Time from send start to final ACK (or final failed attempt).
    pub latency: SimDuration,
}

impl Mac {
    /// A sensor→proxy uplink: the proxy is tethered and always listening,
    /// so no long wake-up preamble is needed. Every link in the
    /// deployment is a Mica2 radio ([`RadioModel::mica2`]) carrying TinyOS
    /// frames ([`FrameFormat::tinyos_mica2`]).
    pub fn uplink() -> Self {
        Mac {
            radio: RadioModel::mica2(),
            frame: FrameFormat::tinyos_mica2(),
            max_retries: 3,
            dest_lpl_interval: SimDuration::ZERO,
            burst_amortizes_preamble: true,
        }
    }

    /// A proxy→sensor downlink: the sensor duty-cycles its radio with the
    /// given LPL check interval, so transmissions pay a wake-up preamble.
    pub fn downlink(lpl: SimDuration) -> Self {
        Mac {
            dest_lpl_interval: lpl,
            ..Mac::uplink()
        }
    }

    /// Energy of the wake-up preamble for one transmission start.
    pub fn wakeup_preamble_energy(&self) -> f64 {
        self.radio.preamble_energy(self.dest_lpl_interval)
    }

    /// Sends `payload_len` bytes over `link`, charging the sender's and
    /// (optionally) the receiver's energy ledgers.
    ///
    /// The loss process is sampled per frame; ACKs traverse the same link.
    pub fn send(
        &self,
        payload_len: usize,
        link: &mut LinkModel,
        tx_ledger: &mut EnergyLedger,
        mut rx_ledger: Option<&mut EnergyLedger>,
    ) -> TxOutcome {
        let mut out = TxOutcome::default();

        // Wake-up preamble: once per send (burst) or once per fragment.
        let wakeups = if self.burst_amortizes_preamble {
            1
        } else {
            self.frame.frames_for(payload_len)
        };
        if !self.dest_lpl_interval.is_zero() {
            let pre_j = self.wakeup_preamble_energy() * wakeups as f64;
            tx_ledger.charge(EnergyCategory::RadioTx, pre_j);
            out.tx_energy_j += pre_j;
            out.latency += self.dest_lpl_interval.saturating_mul(wakeups as u64);
            // The receiver hears on average half the preamble after its
            // probe matches.
            if let Some(rx) = rx_ledger.as_deref_mut() {
                let rx_j = (self.dest_lpl_interval / 2).as_secs_f64()
                    * self.radio.rx_power_w
                    * wakeups as f64;
                rx.charge(EnergyCategory::RadioRx, rx_j);
                out.rx_energy_j += rx_j;
            }
        }

        let mut all_delivered = true;
        'frags: for frag in self.frame.fragment_sizes(payload_len) {
            let wire = self.frame.frame_wire_bytes(frag) + SYNC_PREAMBLE_BYTES;
            let mut attempts = 0;
            loop {
                attempts += 1;
                out.frames_sent += 1;

                let tx_j = self.radio.tx_energy(wire);
                tx_ledger.charge(EnergyCategory::RadioTx, tx_j);
                out.tx_energy_j += tx_j;
                out.latency += self.radio.airtime(wire);

                let frame_ok = link.deliver();
                let mut acked = false;
                if frame_ok {
                    out.frames_delivered += 1;
                    if let Some(rx) = rx_ledger.as_deref_mut() {
                        let j = self.radio.rx_energy(wire);
                        rx.charge(EnergyCategory::RadioRx, j);
                        out.rx_energy_j += j;
                    }
                    // ACK in the reverse direction.
                    out.latency += TURNAROUND + self.radio.airtime(self.frame.ack_bytes);
                    if let Some(rx) = rx_ledger.as_deref_mut() {
                        let j = self.radio.tx_energy(self.frame.ack_bytes);
                        rx.charge(EnergyCategory::RadioTx, j);
                        out.rx_energy_j += j;
                    }
                    acked = link.deliver();
                    if acked {
                        let j = self.radio.rx_energy(self.frame.ack_bytes);
                        tx_ledger.charge(EnergyCategory::RadioRx, j);
                        out.tx_energy_j += j;
                    }
                } else {
                    // Sender still listens for the ACK window.
                    out.latency += TURNAROUND + self.radio.airtime(self.frame.ack_bytes);
                    let j = self.radio.rx_energy(self.frame.ack_bytes);
                    tx_ledger.charge(EnergyCategory::RadioListen, j);
                    out.tx_energy_j += j;
                }

                if acked {
                    break;
                }
                if attempts > self.max_retries {
                    all_delivered = false;
                    break 'frags;
                }
            }
        }

        out.delivered = all_delivered;
        out
    }

    /// Closed-form *expected* sender energy for a send over a lossless
    /// link — used by planners (query–sensor matching) that must reason
    /// about costs without performing the transmission.
    pub fn expected_send_energy(&self, payload_len: usize) -> f64 {
        let wakeups = if self.burst_amortizes_preamble {
            1
        } else {
            self.frame.frames_for(payload_len)
        };
        let mut j = if self.dest_lpl_interval.is_zero() {
            0.0
        } else {
            self.wakeup_preamble_energy() * wakeups as f64
        };
        for frag in self.frame.fragment_sizes(payload_len) {
            let wire = self.frame.frame_wire_bytes(frag) + SYNC_PREAMBLE_BYTES;
            j += self.radio.tx_energy(wire);
            j += self.radio.rx_energy(self.frame.ack_bytes);
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sim::SimRng;

    fn uplink() -> Mac {
        Mac::uplink()
    }

    #[test]
    fn lossless_send_delivers_all_fragments() {
        let mac = uplink();
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        let mut rx = EnergyLedger::new();
        let out = mac.send(100, &mut link, &mut tx, Some(&mut rx));
        assert!(out.delivered);
        assert_eq!(out.frames_sent, 4); // ceil(100/29)
        assert_eq!(out.frames_delivered, 4);
        assert!(out.tx_energy_j > 0.0);
        assert!(out.rx_energy_j > 0.0);
        assert!(tx.total() > 0.0 && rx.total() > 0.0);
    }

    #[test]
    fn expected_energy_matches_lossless_send() {
        let mac = uplink();
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        let out = mac.send(64, &mut link, &mut tx, None);
        let expected = mac.expected_send_energy(64);
        assert!(
            (out.tx_energy_j - expected).abs() < 1e-12,
            "sim {} vs closed form {}",
            out.tx_energy_j,
            expected
        );
    }

    #[test]
    fn preamble_dominates_small_sends_on_downlink() {
        let mac = Mac::downlink(SimDuration::from_secs(1));
        let per_send = mac.expected_send_energy(2);
        // 1 s preamble at 81 mW = 81 mJ; frame bytes are well under 1 mJ.
        assert!(per_send > 0.081 && per_send < 0.083, "{per_send}");
    }

    #[test]
    fn burst_amortization_saves_preambles() {
        let lpl = SimDuration::from_secs(1);
        let burst = Mac {
            burst_amortizes_preamble: true,
            ..Mac::downlink(lpl)
        };
        let per_frame = Mac {
            burst_amortizes_preamble: false,
            ..Mac::downlink(lpl)
        };
        let payload = 29 * 10;
        let e_burst = burst.expected_send_energy(payload);
        let e_frame = per_frame.expected_send_energy(payload);
        // 10 fragments: 9 extra preambles ≈ 9 × 81 mJ difference.
        assert!((e_frame - e_burst - 9.0 * 0.081).abs() < 1e-3);
    }

    #[test]
    fn total_loss_fails_after_retries() {
        let mac = uplink();
        let mut link = LinkModel::new(crate::link::LossProcess::Bernoulli(1.0), SimRng::new(1));
        let mut tx = EnergyLedger::new();
        let out = mac.send(10, &mut link, &mut tx, None);
        assert!(!out.delivered);
        assert_eq!(out.frames_sent, (mac.max_retries + 1) as u64);
        assert_eq!(out.frames_delivered, 0);
        // Failed attempts still cost energy.
        assert!(out.tx_energy_j > 0.0);
    }

    #[test]
    fn lossy_link_costs_more_than_lossless() {
        let mac = uplink();
        let payload = 29 * 8;
        let run = |loss| {
            let mut total = 0.0;
            for seed in 0..50 {
                let mut link =
                    LinkModel::new(crate::link::LossProcess::Bernoulli(loss), SimRng::new(seed));
                let mut tx = EnergyLedger::new();
                mac.send(payload, &mut link, &mut tx, None);
                total += tx.total();
            }
            total
        };
        assert!(run(0.3) > run(0.0) * 1.2);
    }

    #[test]
    fn latency_includes_preamble_and_airtime() {
        let mac = Mac::downlink(SimDuration::from_millis(500));
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        let out = mac.send(4, &mut link, &mut tx, None);
        assert!(out.latency > SimDuration::from_millis(500));
        assert!(out.latency < SimDuration::from_millis(520));
    }

    #[test]
    fn receiver_ledger_untouched_when_absent() {
        let mac = uplink();
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        let out = mac.send(10, &mut link, &mut tx, None);
        assert!(out.delivered);
        assert_eq!(out.rx_energy_j, 0.0);
    }

    #[test]
    fn energy_charged_matches_outcome_fields() {
        let mac = Mac::downlink(SimDuration::from_millis(100));
        let mut link = LinkModel::new(crate::link::LossProcess::Bernoulli(0.2), SimRng::new(3));
        let mut tx = EnergyLedger::new();
        let mut rx = EnergyLedger::new();
        let out = mac.send(200, &mut link, &mut tx, Some(&mut rx));
        assert!((tx.total() - out.tx_energy_j).abs() < 1e-12);
        assert!((rx.total() - out.rx_energy_j).abs() < 1e-12);
    }
}
