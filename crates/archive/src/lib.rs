//! The PRESTO sensor's local archival store (paper §4).
//!
//! "The first \[component\] is an archival file-system … that provides
//! energy-efficient archival of useful sensor data at each sensor as well
//! as a simple time-based index structure to efficiently service read
//! requests." This crate implements that file system on a simulated
//! flash device:
//!
//! * [`flash::FlashDevice`] — a page/block flash model that enforces
//!   program-after-erase discipline, tracks wear, and charges read /
//!   program / erase energy to the node's ledger.
//! * [`record`] — the on-flash record formats (scalar readings, semantic
//!   events, aged summaries).
//! * [`store::ArchiveStore`] — a log-structured, append-only store with
//!   an in-RAM per-segment time index and FIFO block reclamation.
//! * graceful aging: when the flash fills, the oldest segment's scalar
//!   data is folded into a wavelet summary
//!   ([`presto_wavelet::AgingLadder`], re-aged again on later passes), so old history degrades in
//!   resolution instead of vanishing (paper §4, citing \[10\]).

pub mod flash;
pub mod record;
pub mod store;

pub use flash::{FlashDevice, FlashError, FlashStats};
pub use record::{Quality, Record, RecordPayload};
pub use store::{ArchiveConfig, ArchiveError, ArchiveStats, ArchiveStore, ArchivedEvent, ArchivedSample};
