//! A B-MAC–style low-power-listening MAC with ARQ.
//!
//! Transmission cost has three parts, and the relative size of each drives
//! every curve in the Figure 2 reproduction:
//!
//! 1. **Wake-up preamble** — to reach a duty-cycled receiver that probes
//!    the channel every `dest_lpl_interval`, the first frame of a
//!    transmission carries a preamble long enough to span one check
//!    interval (B-MAC). A multi-fragment payload pays it once (B-MAC with
//!    after-preamble synchronization), so it is a *fixed cost per
//!    transmission* and is what batching amortizes.
//! 2. **Frame bytes** — header + payload + CRC per fragment, at the
//!    radio's per-byte cost. This is the floor that compression lowers.
//! 3. **ACK + retransmissions** — each fragment is acknowledged and
//!    retried up to `MAX_RETRIES` times on loss.
//!
//! Only the mote pays: [`Mac::send`] charges the mote's side of the
//! exchange, sender or receiver, to the mote's ledger. The proxy is the
//! tethered tier and keeps no energy account.

use presto_sim::{EnergyCategory, EnergyLedger, SimDuration};

use crate::energy::RadioModel;
use crate::frame::FrameFormat;
use crate::link::LinkModel;

/// Radio turnaround time between a data frame and its ACK.
const TURNAROUND: SimDuration = SimDuration::from_millis(1);

/// Retransmissions allowed per fragment after the first attempt.
const MAX_RETRIES: u32 = 3;

/// MAC configuration bound to a radio model.
#[derive(Clone, Debug)]
pub struct Mac {
    /// Radio hardware constants.
    pub radio: RadioModel,
    /// Frame geometry.
    pub frame: FrameFormat,
    /// The destination's LPL check interval; zero means the destination
    /// listens continuously (e.g. a tethered proxy) and only a short
    /// synchronization preamble is needed.
    pub dest_lpl_interval: SimDuration,
}

/// Short synchronization preamble bytes prepended to every frame even when
/// the receiver is awake.
const SYNC_PREAMBLE_BYTES: usize = 6;

/// Result of a MAC-layer send.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxOutcome {
    /// True if every fragment was delivered and acknowledged.
    pub delivered: bool,
    /// Time from send start to final ACK (or final failed attempt).
    pub latency: SimDuration,
}

/// The two ends of a transmission.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Sender,
    Receiver,
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
            dest_lpl_interval: SimDuration::ZERO,
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

    /// Sends `payload_len` bytes over `link`, charging the mote's side of
    /// the exchange to `mote`: preamble, frames and ACK reception when
    /// the mote sends (`mote_sends`), the preamble tail, frame reception
    /// and ACK transmission when it receives.
    ///
    /// The loss process is sampled per frame; ACKs traverse the same link.
    pub fn send(
        &self,
        payload_len: usize,
        link: &mut LinkModel,
        mote: &mut EnergyLedger,
        mote_sends: bool,
    ) -> TxOutcome {
        use EnergyCategory::{RadioListen, RadioRx, RadioTx};
        use Side::{Receiver, Sender};
        let mote_side = if mote_sends { Sender } else { Receiver };
        let mut charge = |side: Side, category: EnergyCategory, j: f64| {
            if side == mote_side {
                mote.charge(category, j);
            }
        };
        let mut latency = SimDuration::ZERO;

        if !self.dest_lpl_interval.is_zero() {
            charge(Sender, RadioTx, self.wakeup_preamble_energy());
            latency += self.dest_lpl_interval;
            // The receiver hears on average half the preamble after its
            // probe matches.
            let tail_j = (self.dest_lpl_interval / 2).as_secs_f64() * self.radio.rx_power_w;
            charge(Receiver, RadioRx, tail_j);
        }

        'frags: for frag in self.frame.fragment_sizes(payload_len) {
            let wire = self.frame.frame_wire_bytes(frag) + SYNC_PREAMBLE_BYTES;
            let ack = self.frame.ack_bytes;
            for _ in 0..=MAX_RETRIES {
                charge(Sender, RadioTx, self.radio.tx_energy(wire));
                latency += self.radio.airtime(wire);
                // The ACK window follows every frame, heard or not.
                latency += TURNAROUND + self.radio.airtime(ack);
                if link.deliver() {
                    charge(Receiver, RadioRx, self.radio.rx_energy(wire));
                    // ACK in the reverse direction.
                    charge(Receiver, RadioTx, self.radio.tx_energy(ack));
                    if link.deliver() {
                        charge(Sender, RadioRx, self.radio.rx_energy(ack));
                        continue 'frags;
                    }
                } else {
                    // Sender still listens for the ACK window.
                    charge(Sender, RadioListen, self.radio.rx_energy(ack));
                }
            }
            return TxOutcome {
                delivered: false,
                latency,
            };
        }

        TxOutcome {
            delivered: true,
            latency,
        }
    }

    /// Closed-form *expected* sender energy for a send over a lossless
    /// link — used by planners (query–sensor matching) that must reason
    /// about costs without performing the transmission.
    pub fn expected_send_energy(&self, payload_len: usize) -> f64 {
        let mut j = if self.dest_lpl_interval.is_zero() {
            0.0
        } else {
            self.wakeup_preamble_energy()
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

    /// On-air bytes of each fragment of a `len`-byte payload.
    fn wires(mac: &Mac, len: usize) -> Vec<usize> {
        mac.frame
            .fragment_sizes(len)
            .map(|f| mac.frame.frame_wire_bytes(f) + SYNC_PREAMBLE_BYTES)
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn lossless_send_delivers_all_fragments() {
        let mac = Mac::downlink(SimDuration::from_secs(1));
        let mut link = LinkModel::perfect();
        let mut mote = EnergyLedger::new();
        let out = mac.send(100, &mut link, &mut mote, true);
        assert!(out.delivered);
        assert_eq!(wires(&mac, 100).len(), 4); // ceil(100/29)
                                               // The sending mote pays exactly the closed form: one preamble,
                                               // four frames and four ACK receptions.
        let expected = mac.expected_send_energy(100);
        assert!(
            close(mote.total(), expected),
            "{} vs {expected}",
            mote.total()
        );
        let acks = 4.0 * mac.radio.rx_energy(mac.frame.ack_bytes);
        assert!(close(mote.category(EnergyCategory::RadioRx), acks));
        assert_eq!(mote.category(EnergyCategory::RadioListen), 0.0);
    }

    #[test]
    fn receiving_mote_pays_preamble_tail_frames_and_acks() {
        let mac = Mac::downlink(SimDuration::from_secs(1));
        let mut link = LinkModel::perfect();
        let mut mote = EnergyLedger::new();
        let out = mac.send(100, &mut link, &mut mote, false);
        assert!(out.delivered);
        let wires = wires(&mac, 100);
        // Half the 1 s preamble at rx power, then every fragment heard.
        let rx =
            0.5 * mac.radio.rx_power_w + wires.iter().map(|&w| mac.radio.rx_energy(w)).sum::<f64>();
        // One ACK transmitted per fragment.
        let tx = wires.len() as f64 * mac.radio.tx_energy(mac.frame.ack_bytes);
        assert!(close(mote.category(EnergyCategory::RadioRx), rx));
        assert!(close(mote.category(EnergyCategory::RadioTx), tx));
        assert!(close(mote.total(), rx + tx), "nothing of the sender's side");
    }

    #[test]
    fn expected_energy_matches_lossless_send() {
        let mac = uplink();
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        mac.send(64, &mut link, &mut tx, true);
        let expected = mac.expected_send_energy(64);
        assert!(
            close(tx.total(), expected),
            "sim {} vs closed form {}",
            tx.total(),
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
    fn total_loss_fails_after_retries() {
        let mac = uplink();
        let mut link = LinkModel::new(crate::link::LossProcess::Bernoulli(1.0), SimRng::new(1));
        let mut tx = EnergyLedger::new();
        let out = mac.send(10, &mut link, &mut tx, true);
        assert!(!out.delivered);
        // Every attempt put one frame on the air and listened through
        // one ACK window; no ACK was ever heard.
        let frame_j = mac.radio.tx_energy(wires(&mac, 10)[0]);
        let window_j = mac.radio.rx_energy(mac.frame.ack_bytes);
        let frames = tx.category(EnergyCategory::RadioTx) / frame_j;
        let windows = tx.category(EnergyCategory::RadioListen) / window_j;
        let attempts = f64::from(MAX_RETRIES + 1);
        assert!((frames - attempts).abs() < 1e-9, "{frames} frames");
        assert!((windows - attempts).abs() < 1e-9, "{windows} ACK windows");
        assert_eq!(tx.category(EnergyCategory::RadioRx), 0.0);
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
                mac.send(payload, &mut link, &mut tx, true);
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
        let out = mac.send(4, &mut link, &mut tx, true);
        assert!(out.latency > SimDuration::from_millis(500));
        assert!(out.latency < SimDuration::from_millis(520));
    }

    #[test]
    fn receiver_ledger_untouched_when_absent() {
        // A sending mote pays its frame and the ACK it hears, never the
        // proxy's frame reception or ACK transmission.
        let mac = uplink();
        let mut link = LinkModel::perfect();
        let mut tx = EnergyLedger::new();
        let out = mac.send(10, &mut link, &mut tx, true);
        assert!(out.delivered);
        let frame_j = mac.radio.tx_energy(wires(&mac, 10)[0]);
        let ack_j = mac.radio.rx_energy(mac.frame.ack_bytes);
        assert_eq!(tx.category(EnergyCategory::RadioTx), frame_j);
        assert_eq!(tx.category(EnergyCategory::RadioRx), ack_j);
    }
}
