//! Synthetic workloads for the PRESTO experiments.
//!
//! The paper's evaluation data — the Intel Lab temperature trace \[11\] —
//! and its motivating applications (vehicle traffic, elder care) are not
//! distributable, so this crate synthesizes statistically equivalent
//! workloads with controllable parameters:
//!
//! * [`lab`] — indoor temperature: diurnal cycle + slow seasonal drift +
//!   AR(1) correlated weather + per-sensor offsets + spatially shared
//!   field + heavy-tailed per-epoch jitter + rare event spikes. The
//!   Figure 2 reproduction runs on this.
//! * [`traffic`] — vehicle detections as a time-of-day-modulated Poisson
//!   process with typed signatures (the paper's archival/event example).
//! * [`eldercare`] — daily-activity (ADL) state machine with regular
//!   habits and rare anomalies (the paper's predictable-with-exceptions
//!   example).
//! * [`queries`] — NOW/PAST query streams with Poisson arrivals,
//!   tolerance and latency-bound distributions.

pub mod eldercare;
pub mod lab;
pub mod queries;
pub mod traffic;

pub use eldercare::{Activity, EldercareGen, EldercareSample};
pub use lab::{LabDeployment, LabParams};
pub use queries::{QueryGen, QuerySpec, TimeScope};
pub use traffic::{TrafficGen, TrafficParams, VehicleDetection, VehicleType};
