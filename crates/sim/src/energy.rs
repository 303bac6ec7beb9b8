//! Energy accounting.
//!
//! PRESTO's central argument is economic: radio communication is roughly
//! two orders of magnitude more expensive than flash storage and four
//! orders more expensive than computation (paper §1, citing Pottie &
//! Kaiser). Every claim in the evaluation therefore reduces to *joules
//! charged per hardware category*. The [`EnergyLedger`] is the single
//! source of truth for those charges; `presto-net` and `presto-archive`
//! charge it, and the experiment drivers read it.

use std::fmt;

/// Hardware categories to which energy is charged.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EnergyCategory {
    /// Radio transmission (payload bytes, headers, preambles).
    RadioTx,
    /// Radio reception of frames addressed to (or overheard by) the node.
    RadioRx,
    /// Idle listening: LPL channel probes and receive windows.
    RadioListen,
    /// Microcontroller computation (model checks, compression, ...).
    Cpu,
    /// Flash page reads.
    FlashRead,
    /// Flash page programs and block erases.
    FlashWrite,
    /// The sensing transducer itself (ADC sampling).
    Sensing,
}

impl EnergyCategory {
    /// All categories, in display order.
    pub const ALL: [EnergyCategory; 7] = [
        EnergyCategory::RadioTx,
        EnergyCategory::RadioRx,
        EnergyCategory::RadioListen,
        EnergyCategory::Cpu,
        EnergyCategory::FlashRead,
        EnergyCategory::FlashWrite,
        EnergyCategory::Sensing,
    ];

    /// Short, stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::RadioTx => "radio-tx",
            EnergyCategory::RadioRx => "radio-rx",
            EnergyCategory::RadioListen => "radio-listen",
            EnergyCategory::Cpu => "cpu",
            EnergyCategory::FlashRead => "flash-read",
            EnergyCategory::FlashWrite => "flash-write",
            EnergyCategory::Sensing => "sensing",
        }
    }

    fn index(self) -> usize {
        match self {
            EnergyCategory::RadioTx => 0,
            EnergyCategory::RadioRx => 1,
            EnergyCategory::RadioListen => 2,
            EnergyCategory::Cpu => 3,
            EnergyCategory::FlashRead => 4,
            EnergyCategory::FlashWrite => 5,
            EnergyCategory::Sensing => 6,
        }
    }
}

/// Per-node energy ledger, in joules, split by [`EnergyCategory`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    joules: [f64; 7],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `joules` to `category`.
    ///
    /// Negative or non-finite charges are rejected (ignored) — energy only
    /// flows out of a battery.
    pub fn charge(&mut self, category: EnergyCategory, joules: f64) {
        if joules.is_finite() && joules > 0.0 {
            self.joules[category.index()] += joules;
        }
    }

    /// Total joules charged to one category.
    pub fn category(&self, category: EnergyCategory) -> f64 {
        self.joules[category.index()]
    }

    /// Total joules across all categories.
    pub fn total(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Radio subtotal (tx + rx + listen) — the paper's "communication" cost.
    pub fn radio_total(&self) -> f64 {
        self.category(EnergyCategory::RadioTx)
            + self.category(EnergyCategory::RadioRx)
            + self.category(EnergyCategory::RadioListen)
    }

    /// Storage subtotal (flash read + write).
    pub fn storage_total(&self) -> f64 {
        self.category(EnergyCategory::FlashRead) + self.category(EnergyCategory::FlashWrite)
    }

    /// Adds every category of `other` into `self` (used to aggregate a
    /// tier's ledgers into a deployment total).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for i in 0..7 {
            self.joules[i] += other.joules[i];
        }
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total {:.4} J (", self.total())?;
        let mut first = true;
        for c in EnergyCategory::ALL {
            let j = self.category(c);
            if j > 0.0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{} {:.4}", c.label(), j)?;
                first = false;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_category() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyCategory::RadioTx, 1.5);
        l.charge(EnergyCategory::RadioTx, 0.5);
        l.charge(EnergyCategory::Cpu, 0.25);
        assert_eq!(l.category(EnergyCategory::RadioTx), 2.0);
        assert_eq!(l.category(EnergyCategory::Cpu), 0.25);
        assert_eq!(l.total(), 2.25);
    }

    #[test]
    fn rejects_negative_and_non_finite() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyCategory::Cpu, -1.0);
        l.charge(EnergyCategory::Cpu, f64::NAN);
        l.charge(EnergyCategory::Cpu, f64::INFINITY);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn subtotals() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyCategory::RadioTx, 1.0);
        l.charge(EnergyCategory::RadioRx, 2.0);
        l.charge(EnergyCategory::RadioListen, 4.0);
        l.charge(EnergyCategory::FlashRead, 0.5);
        l.charge(EnergyCategory::FlashWrite, 0.25);
        assert_eq!(l.radio_total(), 7.0);
        assert_eq!(l.storage_total(), 0.75);
    }

    #[test]
    fn merge_adds_every_category() {
        let mut a = EnergyLedger::new();
        a.charge(EnergyCategory::RadioTx, 1.0);
        let mut b = EnergyLedger::new();
        b.charge(EnergyCategory::RadioTx, 3.0);
        b.charge(EnergyCategory::Sensing, 0.5);

        let mut total = EnergyLedger::new();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.category(EnergyCategory::RadioTx), 4.0);
        assert_eq!(total.category(EnergyCategory::Sensing), 0.5);
    }

    #[test]
    fn display_mentions_nonzero_categories_only() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyCategory::FlashWrite, 0.125);
        let s = format!("{l}");
        assert!(s.contains("flash-write"));
        assert!(!s.contains("radio-tx"));
    }
}
