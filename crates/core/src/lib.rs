//! PRESTO core: the paper's architecture, assembled.
//!
//! This crate wires the substrates into the three-tier system of
//! Figure 1 and exposes the **unified logical store** the user tier
//! queries:
//!
//! * [`system::PrestoSystem`] — N proxies × M sensors each, a shared
//!   Intel-Lab-style workload, model-driven push, periodic model
//!   training/pushes, semantic event reporting, and clock beacons; every
//!   sensor meters its own energy, and the tethered proxies meter none.
//! * [`store::UnifiedStore`] — the "single logical view of data": routes
//!   each query through the Skip Graph index to the responsible proxy,
//!   which answers via cache → extrapolation → pull; PAST answers can
//!   reach all the way into mote archives.
//! * [`run`] — the PRESTO arm of the Table 1 comparison, matched to the
//!   baselines' [`presto_baselines::driver`] so rows are comparable.

pub mod run;
pub mod store;
pub mod system;

/// Converts a global sensor index to its `u16` wire id.
///
/// Sensor ids travel the radio as `u16`; [`system::PrestoSystem::new`]
/// asserts at construction that the sensor space fits, so this cast can
/// never truncate in a constructed system. Keep every index→wire-id
/// conversion behind this helper instead of scattering raw `as u16` casts.
pub fn gid16(gid: usize) -> u16 {
    debug_assert!(gid <= u16::MAX as usize, "sensor id {gid} exceeds u16 wire id space");
    // presto-lint: allow(narrow, sensor space asserted <= u16::MAX at PrestoSystem construction)
    gid as u16
}

pub use presto_proxy::{CompletedQuery, PipelineAnswer, PipelineQuery, PipelineStats};
pub use run::run_presto;
pub use store::{StoreQuery, StoreResponse, UnifiedStore};
pub use system::{PrestoSystem, SystemConfig};
