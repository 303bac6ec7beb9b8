//! Simulated NOR/NAND-style flash device.
//!
//! Semantics enforced (the constraints a real archival file system must
//! design around):
//!
//! * a page can only be programmed when erased, and only whole pages are
//!   programmed;
//! * erasure happens per block (a fixed number of pages), never per page;
//! * every operation costs energy, charged to the owning node's ledger
//!   and counted in [`FlashStats`].

use presto_net::FlashModel;
use presto_sim::{EnergyCategory, EnergyLedger};

/// Errors from flash operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlashError {
    /// Page or block index beyond the device capacity.
    OutOfRange,
    /// Attempt to program a page that has not been erased.
    NotErased,
    /// Attempt to read a page that holds no data.
    Empty,
    /// Data larger than the page size.
    TooLarge,
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FlashError::OutOfRange => "index out of range",
            FlashError::NotErased => "page not erased",
            FlashError::Empty => "page empty",
            FlashError::TooLarge => "data exceeds page size",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FlashError {}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Pages programmed.
    pub programs: u64,
    /// Pages read.
    pub reads: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes programmed.
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
}

presto_telemetry::observe_counters!(FlashStats {
    programs,
    reads,
    erases,
    bytes_written,
    bytes_read,
});

/// A simulated flash device.
#[derive(Clone, Debug)]
pub struct FlashDevice {
    model: FlashModel,
    pages: Vec<Option<Vec<u8>>>,
    blocks: usize,
    stats: FlashStats,
}

impl FlashDevice {
    /// Creates a device with at least `capacity_bytes` of storage
    /// (rounded up to whole blocks).
    pub fn new(model: FlashModel, capacity_bytes: usize) -> Self {
        let block_bytes = model.page_bytes * model.pages_per_block;
        let blocks = capacity_bytes.div_ceil(block_bytes).max(1);
        let pages = blocks * model.pages_per_block;
        FlashDevice {
            pages: vec![None; pages],
            blocks,
            model,
            stats: FlashStats::default(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.model.page_bytes
    }

    /// Pages per erase block.
    pub fn pages_per_block(&self) -> usize {
        self.model.pages_per_block
    }

    /// Total block count.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Operation counters so far.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Programs `data` into an erased page, charging write energy.
    pub fn program(
        &mut self,
        page: usize,
        data: &[u8],
        ledger: &mut EnergyLedger,
    ) -> Result<(), FlashError> {
        if page >= self.pages.len() {
            return Err(FlashError::OutOfRange);
        }
        if data.len() > self.model.page_bytes {
            return Err(FlashError::TooLarge);
        }
        if self.pages[page].is_some() {
            return Err(FlashError::NotErased);
        }
        // A program touches the whole page electrically regardless of the
        // payload length.
        ledger.charge(
            EnergyCategory::FlashWrite,
            self.model.write_per_byte_j * self.model.page_bytes as f64,
        );
        self.stats.programs += 1;
        self.stats.bytes_written += data.len() as u64;
        self.pages[page] = Some(data.to_vec());
        Ok(())
    }

    /// Reads a programmed page, charging read energy.
    pub fn read(&mut self, page: usize, ledger: &mut EnergyLedger) -> Result<Vec<u8>, FlashError> {
        if page >= self.pages.len() {
            return Err(FlashError::OutOfRange);
        }
        let Some(data) = &self.pages[page] else {
            return Err(FlashError::Empty);
        };
        ledger.charge(
            EnergyCategory::FlashRead,
            self.model.read_per_byte_j * self.model.page_bytes as f64,
        );
        self.stats.reads += 1;
        self.stats.bytes_read += data.len() as u64;
        Ok(data.clone())
    }

    /// Erases a whole block, charging erase energy.
    pub fn erase_block(
        &mut self,
        block: usize,
        ledger: &mut EnergyLedger,
    ) -> Result<(), FlashError> {
        if block >= self.blocks {
            return Err(FlashError::OutOfRange);
        }
        let start = block * self.model.pages_per_block;
        for p in start..start + self.model.pages_per_block {
            self.pages[p] = None;
        }
        ledger.charge(EnergyCategory::FlashWrite, self.model.erase_per_block_j);
        self.stats.erases += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FlashDevice {
        FlashDevice::new(FlashModel::dataflash(), 64 * 1024)
    }

    #[test]
    fn capacity_rounds_to_blocks() {
        let d = device();
        assert_eq!(d.page_bytes(), 264);
        assert_eq!(d.pages_per_block(), 8);
        assert_eq!(d.pages.len(), d.block_count() * d.pages_per_block());
        assert!(d.pages.len() * d.page_bytes() >= 64 * 1024);
    }

    #[test]
    fn program_read_roundtrip() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        d.program(0, b"hello flash", &mut l).unwrap();
        assert_eq!(d.read(0, &mut l).unwrap(), b"hello flash");
        assert_eq!(d.stats().programs, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn program_twice_without_erase_fails() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        d.program(3, b"a", &mut l).unwrap();
        assert_eq!(d.program(3, b"b", &mut l), Err(FlashError::NotErased));
    }

    #[test]
    fn erase_enables_reprogramming_and_bumps_wear() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        d.program(1, b"x", &mut l).unwrap();
        assert_eq!(d.stats().erases, 0);
        d.erase_block(0, &mut l).unwrap();
        assert_eq!(d.stats().erases, 1);
        assert_eq!(d.read(1, &mut l), Err(FlashError::Empty));
        d.program(1, b"y", &mut l).unwrap();
        assert_eq!(d.read(1, &mut l).unwrap(), b"y");
    }

    #[test]
    fn erase_only_touches_its_block() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        let ppb = d.pages_per_block();
        d.program(0, b"block0", &mut l).unwrap();
        d.program(ppb, b"block1", &mut l).unwrap();
        d.erase_block(0, &mut l).unwrap();
        assert_eq!(d.read(0, &mut l), Err(FlashError::Empty));
        assert_eq!(d.read(ppb, &mut l).unwrap(), b"block1");
    }

    #[test]
    fn bounds_checked() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        let n = d.block_count() * d.pages_per_block();
        assert_eq!(d.program(n, b"x", &mut l), Err(FlashError::OutOfRange));
        assert_eq!(
            d.read(n, &mut l),
            Err(FlashError::Empty).or(Err(FlashError::OutOfRange))
        );
        assert_eq!(
            d.erase_block(d.block_count(), &mut l),
            Err(FlashError::OutOfRange)
        );
        let big = vec![0u8; d.page_bytes() + 1];
        assert_eq!(d.program(0, &big, &mut l), Err(FlashError::TooLarge));
    }

    #[test]
    fn energy_is_charged_per_operation() {
        let mut d = device();
        let mut l = EnergyLedger::new();
        d.program(0, &[0u8; 264], &mut l).unwrap();
        let after_write = l.category(EnergyCategory::FlashWrite);
        assert!((after_write - 0.257e-6 * 264.0).abs() < 1e-12);
        d.read(0, &mut l).unwrap();
        assert!(l.category(EnergyCategory::FlashRead) > 0.0);
        d.erase_block(0, &mut l).unwrap();
        assert!(l.category(EnergyCategory::FlashWrite) > after_write);
    }

    #[test]
    fn flash_writes_are_far_cheaper_than_radio() {
        // The technology-trend argument of paper §1, checked end to end:
        // archiving a page locally costs ~100× less than radioing it.
        let mut d = device();
        let mut l = EnergyLedger::new();
        d.program(0, &[0u8; 264], &mut l).unwrap();
        let flash_j = l.total();
        let radio_j = presto_net::RadioModel::mica2().tx_energy(264);
        assert!(radio_j / flash_j > 30.0, "ratio {}", radio_j / flash_j);
    }
}
