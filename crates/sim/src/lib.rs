//! Simulation kernel for the PRESTO reproduction.
//!
//! Every experiment in this workspace runs on top of this crate. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`rng`] — a small, dependency-free, splittable PRNG so that every
//!   experiment is a pure function of a `u64` seed.
//! * [`EnergyLedger`] — per-node energy accounting split by hardware
//!   category (radio, CPU, flash, sensing), the currency in which all of
//!   the paper's claims are measured.
//! * [`metrics`] — exact summary statistics used by the experiment
//!   drivers.
//! * [`queries`] — a seeded multi-user query workload generator (NOW /
//!   PAST / aggregate arrivals with shared hot windows) for the
//!   query-pipeline experiments.
//! * [`FaultPlan`] — deterministic crash/reboot and link-blackout
//!   schedules for failure-scenario experiments.
//!
//! The kernel is deliberately free of any networking or sensor policy;
//! those live in `presto-net` and above.

pub mod energy;
pub mod faults;
pub mod metrics;
pub mod queries;
pub mod rng;
pub mod time;

pub use energy::{EnergyCategory, EnergyLedger};
pub use faults::{ActiveFault, Blackout, CrashWindow, FaultPlan, MeshPartition, SharedBurst};
pub use queries::{
    FleetArrival, FleetLoadConfig, FleetQueryLoad, QueryArrival, QueryKind, QueryLoad,
    QueryLoadConfig,
};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
