//! Known-good lint fixture. Never compiled — linted by
//! `crates/analysis/tests/lints.rs` under the synthetic path
//! `crates/proxy/src/fixture_good.rs` (all rules in scope), together with
//! an `examples/` caller of its `pub fn`s, and must come back clean:
//! ordered containers, simulated time only, honest failure, checked
//! conversions, fully wired Stats, used pub code, a config knob library
//! code sets to a second value, and exactly one justified allow.

use std::collections::BTreeMap;

pub struct FixtureStats {
    pub hits: u64,
}

impl Observe for FixtureStats {
    fn observe(&self, out: &mut Vec<(String, u64)>) {
        out.push(("fixture.hits".into(), self.hits));
    }
}

pub struct FixtureConfig {
    pub rate: f64,
}

impl Default for FixtureConfig {
    fn default() -> Self {
        FixtureConfig { rate: 1.0 }
    }
}

fn fast() -> FixtureConfig {
    FixtureConfig { rate: 2.0 }
}

pub fn lookup(map: &BTreeMap<u16, f64>, key: usize) -> Option<f64> {
    let key = u16::try_from(key).ok()?;
    map.get(&key).copied()
}

pub fn first_byte(bytes: &[u8]) -> u8 {
    // presto-lint: allow(panic, fixture: callers guarantee non-empty input by construction)
    *bytes.first().unwrap()
}

#[cfg(test)]
mod tests {
    // Test code is exempt: panics and wall-clock are fine here.
    use std::time::Instant;

    #[test]
    fn lookup_roundtrip() {
        let t = Instant::now();
        assert!(t.elapsed().as_secs() < 1);
    }
}
