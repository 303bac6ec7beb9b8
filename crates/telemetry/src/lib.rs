//! Fleet-wide observability for the PRESTO reproduction.
//!
//! The paper's whole argument is an economics claim — answer queries
//! within tolerance while spending bounded sensor energy and radio —
//! so the evidence has to be collectable in one place. This crate is
//! that place, three zero-dependency primitives threaded through every
//! tier:
//!
//! * [`metrics`] — counters, gauges, and mergeable log-linear-bucket
//!   histograms (p50/p90/p99/max) assembled into a [`Snapshot`] tree.
//!   Every existing `*Stats` struct reports through the [`Observe`]
//!   trait instead of thirteen ad-hoc accessors, into a [`Sink`] that
//!   writes either the export tree or a presto-scope's resolved slots.
//! * [`trace`] — per-query trace spans: a lightweight event log keyed
//!   by query ticket (submit → cache hit/miss → coalesce → per-RPC
//!   attempt/retransmit/defer → shed/forward/re-home → completion
//!   cause with `answer_age` and sigma), plus a bounded
//!   [`FlightRecorder`] that retains full traces for anomalous
//!   outcomes for post-mortem dumps.
//! * [`profiler`] — phase timers and per-epoch attempt counts over the
//!   epoch pump (`step_epoch_core`, `pump_pipelines`, `pump_queries`,
//!   membership step), so hot-path regressions are visible before the
//!   scale-harness PR.
//!
//! Instrumentation is cheap when enabled and free when disabled: every
//! recorder carries an `enabled` flag checked before any allocation or
//! clock read, pinned by the `telemetry_guard` criterion bench.

pub mod alloc;
pub mod metrics;
pub mod profiler;
pub mod scope;
pub mod trace;

pub use metrics::{LogHistogram, Observe, Section, Sink, Snapshot};
pub use profiler::{EpochProfiler, PhaseStat, PhaseToken};
pub use scope::{
    Incident, PrestoScope, Readings, RingSeries, RuleCheck, ScopeConfig, SeriesBin, SeriesKind,
    SeriesSpec, WatchdogEngine, WatchdogRule,
};
pub use trace::{
    CompletionCause, FlightRecorder, QueryTrace, QueryTracer, SpanEvent, TraceEvent,
};
