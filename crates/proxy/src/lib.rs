//! The PRESTO proxy (paper §3).
//!
//! "The PRESTO proxy comprises two components: a cache of summary
//! information about the data observed at the remote sensors and a
//! prediction engine that is responsible for data extrapolation,
//! model-driven push, and query-sensor matching."
//!
//! * [`cache`] — the per-sensor summary cache: a lossy view assembled
//!   from pushes, batches, and pull refinements, plus the semantic event
//!   log.
//! * [`engine`] — the prediction engine: trains models on cached history
//!   (each model's training report counts the cycles, so the build/check
//!   asymmetry is measurable), versions them, and extrapolates missing
//!   data with confidence bounds.
//! * [`matching`] — query–sensor matching: translates query classes
//!   (rate, latency bound, precision) into sensor settings (LPL check
//!   interval, batching interval, push tolerance, reply codec).
//! * [`proxy`] — the proxy itself: consumes uplink traffic, answers NOW
//!   and PAST queries via *cache hit → extrapolation → pull* (exactly the
//!   miss path of paper §2), and delivers downlink messages over the
//!   MAC, which charges the receiving sensor. The tethered proxy keeps
//!   no energy account.
//! * [`slice`](mod@slice) — sliced archive-range execution: the slice
//!   calculator, the assembler behind the pipeline's sliced PAST path,
//!   and the reply cache that slices and whole PAST windows share.

pub mod cache;
pub mod engine;
pub mod matching;
pub mod pipeline;
pub mod proxy;
pub mod slice;

pub use cache::{CachedEvent, EventCache, SensorCache};
pub use engine::{EngineConfig, PredictionEngine};
pub use matching::{QueryClass, QuerySensorMatcher};
pub use pipeline::{
    CompletedQuery, PipelineAnswer, PipelineConfig, PipelineQuery, PipelineStats, QueryPipeline,
    DEFAULT_DEADLINE,
};
pub use proxy::{
    Answer, AnswerSource, PastAnswer, PrestoProxy, ProxyConfig, ProxyStats, PumpSensor,
};
pub use slice::{ReplyCache, ReplyCacheStats, WindowKey};
