//! # PRESTO — a predictive storage architecture for sensor networks
//!
//! A from-scratch Rust reproduction of *"PRESTO: A Predictive Storage
//! Architecture for Sensor Networks"* (Desnoyers, Ganesan, Li, Li,
//! Shenoy — HotOS X, 2005), including every substrate the paper relies
//! on: an epoch-stepped mote/radio simulator, wavelet compression and
//! aging, prediction models, a flash archival store, the proxy and
//! sensor tiers, a Skip Graph distributed index, synthetic workloads,
//! and the baseline architectures the paper compares against.
//!
//! ## Quickstart
//!
//! ```
//! use presto::core::{PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
//! use presto::sim::SimDuration;
//!
//! // A small deployment: 2 proxies × 3 sensors, default lab workload.
//! let mut system = PrestoSystem::new(SystemConfig {
//!     proxies: 2,
//!     sensors_per_proxy: 3,
//!     ..SystemConfig::default()
//! });
//! system.run(SimDuration::from_hours(12));
//!
//! // Query the unified logical store.
//! let mut store = UnifiedStore::new(&mut system);
//! let answer = store.query(StoreQuery::Now {
//!     sensor: 4,
//!     tolerance: 1.0,
//! });
//! assert!(answer.value.is_some());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`sim`] | simulation kernel: time, RNG, energy ledgers, fault plans, query loads |
//! | [`net`] | Mica2-class radio/MAC/duty-cycle/flash energy models |
//! | [`wavelet`] | Haar transform, denoising, codec, aging ladder |
//! | [`models`] | seasonal / AR / Markov / spatial prediction models |
//! | [`archive`] | mote-local flash archival store with time index |
//! | [`sensor`] | the PRESTO sensor node and its push policies |
//! | [`proxy`] | the PRESTO proxy: cache, engine, matching, pulls |
//! | [`reliability`] | lossy message fabric, liveness leases, archive-backed recovery |
//! | [`index`] | Skip Graph, clock correction, time-range index, unified view |
//! | [`workloads`] | lab temperature / traffic / eldercare / queries |
//! | [`baselines`] | direct-query, streaming, value-driven comparators |
//! | [`core`] | the assembled three-tier system + unified store |
//! | [`fleet`] | cross-proxy deployment tier: shedding, proxy failover, re-homing |
//! | [`telemetry`] | metrics registry, per-query trace spans, epoch profiler |

pub use presto_archive as archive;
pub use presto_baselines as baselines;
pub use presto_core as core;
pub use presto_fleet as fleet;
pub use presto_index as index;
pub use presto_models as models;
pub use presto_net as net;
pub use presto_proxy as proxy;
pub use presto_reliability as reliability;
pub use presto_sensor as sensor;
pub use presto_sim as sim;
pub use presto_telemetry as telemetry;
pub use presto_wavelet as wavelet;
pub use presto_workloads as workloads;

/// Commonly used items, importable as `use presto::prelude::*`.
pub mod prelude {
    pub use presto_core::{PrestoSystem, StoreQuery, StoreResponse, SystemConfig, UnifiedStore};
    pub use presto_proxy::{AnswerSource, PrestoProxy, ProxyConfig};
    pub use presto_sensor::{PushPolicy, SensorConfig, SensorNode};
    pub use presto_sim::{EnergyCategory, EnergyLedger, SimDuration, SimRng, SimTime};
    pub use presto_workloads::{LabDeployment, LabParams};
}
