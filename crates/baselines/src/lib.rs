//! Baseline architectures for the Table 1 comparison.
//!
//! The paper compares PRESTO against four families of systems; the
//! behavioural essence of each is reimplemented here so Table 1 can be
//! regenerated *quantitatively* on the same workload:
//!
//! * **Direct sensor querying** (Directed Diffusion \[2\], Cougar \[1\]):
//!   queries travel to the sensors; no proxy cache, no archival
//!   visibility beyond the mote, high latency through duty-cycled radios
//!   — [`direct`].
//! * **Stream-everything** (TinyDB \[6\] / BBQ-style acquisition feeding a
//!   proxy, Aurora/Medusa \[7\] server archival): every sample is pushed to
//!   the tethered tier, where all queries are answered instantly —
//!   [`stream`].
//! * **Value-driven push**: the Δ-threshold policy of Figure 2 —
//!   [`valuepush`].
//!
//! [`driver`] supplies the shared single-proxy deployment loop so every
//! arm (including PRESTO, driven from `presto-core`) sees the identical
//! workload and query stream.

pub mod direct;
pub mod driver;
pub mod stream;
pub mod valuepush;

pub use driver::{ArchReport, DriverConfig};
