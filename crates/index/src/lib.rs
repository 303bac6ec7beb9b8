//! The PRESTO data abstraction layer (paper §5).
//!
//! "PRESTO aims to provide a single logical view of data that integrates
//! archived data stored at numerous distributed remote sensors as well as
//! caches and prediction models at numerous proxies."
//!
//! Four mechanisms from the paper:
//!
//! * [`skipgraph`] — the order-preserving distributed index ("we are
//!   exploring the use of order-preserving index structures such as Skip
//!   Graphs \[14\]"): a full Skip Graph with membership vectors, levelled
//!   doubly linked lists, O(log n) search, and per-operation hop
//!   accounting so index cost is measurable across proxy overlays.
//! * [`clock`] — timestamp correction: "drift and skew of clocks at the
//!   remote sensors can result in erroneous timestamps, which need to be
//!   corrected"; reference-beacon regression recovers offset and skew.
//! * [`view`] — the temporally ordered unified view over per-proxy
//!   streams (k-way merge over corrected timestamps), which is what a
//!   traffic-monitoring application queries.
//! * [`timeindex`] — per-proxy archived `[start, end]` intervals
//!   registered in the Skip Graph, so multi-proxy range queries prune
//!   proxies with no overlapping data before issuing pulls.

pub mod clock;
pub mod skipgraph;
pub mod timeindex;
pub mod view;

pub use clock::{ClockCorrector, DriftClock};
pub use skipgraph::{OpStats, SkipGraph};
pub use timeindex::TimeRangeIndex;
pub use view::UnifiedView;
