//! Known-bad lint fixture. Never compiled — linted by
//! `crates/analysis/tests/lints.rs` under the synthetic path
//! `crates/proxy/src/fixture_bad.rs` so every rule is in scope, and each
//! lint class below must fire at least once. Linted alone, nothing calls
//! its `pub fn`s, so U1 fires too; `mentioned` is named as a field, a
//! local and a struct-literal key, which are not calls.

use std::collections::HashMap; // D1: nondeterministic iteration order
use std::time::Instant; // D2: host wall-clock

pub struct OrphanStats {
    pub hits: u64,
}

// K1: nothing but its own `impl Default` sets `knob`.
pub struct OrphanConfig {
    pub knob: u32,
}

impl Default for OrphanConfig {
    fn default() -> Self {
        OrphanConfig { knob: 1 }
    }
}

// K1: a `*Params` struct is a knob struct too.
pub struct OrphanParams {
    pub rate: f64,
}

impl Default for OrphanParams {
    fn default() -> Self {
        OrphanParams { rate: 1.0 }
    }
}

// K1: only the test module below sets `rate`, and test code keeps no
// knob.
pub struct TestOnlyConfig {
    pub rate: f64,
}

impl Default for TestOnlyConfig {
    fn default() -> Self {
        TestOnlyConfig { rate: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sets_rate() {
        let _ = super::TestOnlyConfig { rate: 2.0 };
    }
}

// K1: the one setter outside tests restates the default, so nothing
// varies `pad`.
pub struct RestatedConfig {
    pub pad: u64,
}

impl Default for RestatedConfig {
    fn default() -> Self {
        RestatedConfig { pad: 20 }
    }
}

fn restated() -> RestatedConfig {
    RestatedConfig { pad: 20 }
}

// A0: annotation names an unknown lint.
// presto-lint: allow(bogus, this rule id does not exist)
pub fn lookup(map: &HashMap<u16, f64>, key: usize) -> f64 {
    // D1 fires on the HashMap above; A0 fires on the reason-less allow here.
    // presto-lint: allow(det)
    let started = Instant::now();
    let key = key as u16; // N1: silent truncation on the query path
    let _ = started;
    *map.get(&key).unwrap() // H1: panics instead of failing honestly
}

// U1: only mentioned below, never called.
pub fn mentioned() -> u32 {
    0
}

pub struct Holder {
    pub mentioned: u32,
}

fn rebuild(h: &Holder) -> Holder {
    let mentioned = h.mentioned;
    Holder { mentioned }
}

// A0: stale annotation — nothing on the next line violates `clock`.
// presto-lint: allow(clock, nothing here actually reads the clock)
pub fn quiet() {}
