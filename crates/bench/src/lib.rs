//! Experiment library behind the regeneration binaries and benches.
//!
//! Every table and figure of the paper, plus the E1–E8 extension
//! experiments from DESIGN.md, is a pure function of a configuration
//! here, so the `cargo run -p presto-bench --bin <id>` binaries, the
//! Criterion benches, and the integration tests all execute identical
//! code. Scenario arms run through the one [`driver`]; every JSON
//! output renders through the one deterministic emitter in [`report`].

pub mod diff;
pub mod driver;
pub mod experiments;
pub mod failure;
pub mod figure2;
pub mod fleet;
pub mod partition;
pub mod query_pipeline;
pub mod report;
pub mod slice_scenario;
pub mod table1;

// Unit tests check scenario arms against the full driver failure list,
// which requires counted allocator activity.
#[cfg(test)]
#[global_allocator]
static ALLOC: presto_telemetry::alloc::CountingAlloc = presto_telemetry::alloc::CountingAlloc;
