//! The cross-proxy deployment tier.
//!
//! The paper's third tier is a data-abstraction layer over *many*
//! proxies: "a single logical view over distributed archives and
//! caches". Up to PR 4 that view existed only for routing — every query
//! workload still entered and completed at exactly one proxy, so the
//! tethered tier's ability to *absorb* heavy, skewed multi-user traffic
//! had never been exercised at deployment scale. This crate turns the
//! collection of [`presto_core::PrestoSystem`] proxies into a
//! coordinated fleet:
//!
//! * [`interlink`] — a sequenced, lossy, ack/retransmit proxy↔proxy
//!   message mesh (the same channel discipline as the sensor fabric,
//!   pointed sideways), carrying forwarded queries and returned
//!   answers; proxy heartbeats ride separate per-proxy lossy beacon
//!   paths (see [`membership`]). Its loss process is
//!   [`presto_net::LossProcess::Mixed`] by default: per-pair private
//!   fades composed with a mesh-wide shared fading state.
//! * [`router`] — the [`router::FleetRouter`]: every user query enters
//!   at a home proxy; an admission controller reads per-proxy pipeline
//!   pressure (outstanding queries, per-epoch attempt-budget
//!   saturation, downlink retry-budget depletion) and **sheds**
//!   archive-range queries from hot proxies to the least-pressured
//!   live peer, which adopts them into its own pipeline and pulls the
//!   sensor over a cross-proxy downlink channel the system opens for
//!   it ([`presto_core::PrestoSystem::open_channel`]). Queries the
//!   mesh loses, or that no peer can absorb, fail honestly
//!   (`Failed`, sigma ∞) by their per-query deadline — assigned from
//!   query–sensor matching's latency classes, not a global constant.
//! * [`membership`] — the [`membership::FleetMembership`] monitor lifts
//!   the heartbeat-lease liveness model one tier up: proxies renew
//!   leases over lossy paths; a proxy silent past the dead threshold
//!   (8 minutes, in a majority of its peers' views) triggers **sensor
//!   re-homing** — its sensors re-register with a
//!   surviving proxy, which warms its cache from archive-backed
//!   recovery replay (the same warm-up path gap repair uses) and
//!   resumes the dead proxy's outstanding queries or fails them
//!   honestly.
//! * [`deployment`] — [`deployment::FleetDeployment`] glues the three
//!   onto a running [`presto_core::PrestoSystem`]: it drives
//!   [`presto_core::PrestoSystem::step_epoch_core`], its mesh,
//!   membership and fencing passes, and then the system's one pump,
//!   [`presto_core::PrestoSystem::pump_views`], under its fencing
//!   state. The system owns every downlink channel, home and
//!   cross-proxy; the fleet keeps none.

pub mod deployment;
pub mod interlink;
pub mod membership;
pub mod router;
pub mod scope;

pub use deployment::{FleetConfig, FleetDeployment, FleetLeaks};
pub use scope::{fleet_scope_config, FleetScopeBounds, FEED_STALE_CONFIDENT};
pub use interlink::{FleetMsg, InterLinkConfig, InterLinkMesh, InterLinkStats};
pub use membership::{FleetMembership, MembershipStats};
pub use router::{FleetCompletion, FleetRouter, FleetRouterConfig, FleetRouterStats};
