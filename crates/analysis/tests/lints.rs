//! presto-lint engine tests: one test per lint class against inline
//! snippets, fixture files that must fire (known-bad) or stay clean
//! (known-good), a double-run determinism check on the engine itself, and
//! the tier-1 workspace gate: the real workspace lints clean.

use presto_lint::{find_workspace_root, lint, lint_workspace, Report, Rule, SourceFile};
use std::path::Path;

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.into(),
        text: text.into(),
    }
}

/// Lint one snippet under a synthetic path (the path picks rule scope).
fn lint_one(path: &str, text: &str) -> Report {
    lint(&[file(path, text)])
}

/// Lint snippets together with an `examples/` caller that calls each of
/// `used`, so U1 sees the snippets' pub items as used and only the rule
/// under test fires.
fn lint_used(files: &[SourceFile], used: &[&str]) -> Report {
    let calls: String = used.iter().map(|n| format!("{n}(); ")).collect();
    let mut all = files.to_vec();
    all.push(file(
        "examples/caller.rs",
        &format!("fn main() {{ {calls}}}\n"),
    ));
    lint(&all)
}

fn codes(report: &Report) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule.code()).collect()
}

// --- D1 det -----------------------------------------------------------

#[test]
fn det_flags_hash_containers() {
    let r = lint_one(
        "crates/fleet/src/fixture.rs",
        "use std::collections::{HashMap, HashSet};\n",
    );
    assert_eq!(codes(&r), ["D1", "D1"]);
}

#[test]
fn det_honors_justified_allow() {
    let r = lint_one(
        "crates/fleet/src/fixture.rs",
        "// presto-lint: allow(det, keys are never iterated, only probed)\n\
         use std::collections::HashMap;\n",
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allows_honored, 1);
}

// --- D2 clock ---------------------------------------------------------

#[test]
fn clock_flags_wall_clock_and_env() {
    let r = lint_one(
        "crates/sim/src/fixture.rs",
        "fn t() { let _ = std::time::Instant::now(); let _ = std::env::var(\"X\"); }\n",
    );
    assert_eq!(codes(&r), ["D2", "D2"]);
}

#[test]
fn clock_allowlists_bench_and_profiler() {
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", src).is_clean());
    assert!(lint_one("crates/telemetry/src/profiler.rs", src).is_clean());
    assert!(!lint_one("crates/telemetry/src/fixture.rs", src).is_clean());
}

// --- H1 panic ---------------------------------------------------------

#[test]
fn panic_flags_unwrap_expect_and_macros_in_scope() {
    let src = "fn f(x: Option<u64>) -> u64 {\n\
               let a = x.unwrap();\n\
               let b = x.expect(\"msg\");\n\
               if a > b { panic!(\"boom\"); }\n\
               a\n}\n";
    let r = lint_one("crates/proxy/src/fixture.rs", src);
    assert_eq!(codes(&r), ["H1", "H1", "H1"]);
    // Same code outside the lossy-path crates is not H1's business.
    assert!(lint_one("crates/telemetry/src/fixture.rs", src).is_clean());
}

#[test]
fn panic_exempts_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
    assert!(lint_one("crates/proxy/src/fixture.rs", src).is_clean());
}

// --- N1 narrow --------------------------------------------------------

#[test]
fn narrow_flags_truncating_casts_in_scope() {
    let src = "fn f(x: usize) -> u16 { x as u16 }\n";
    let r = lint_one("crates/sensor/src/fixture.rs", src);
    assert_eq!(codes(&r), ["N1"]);
    // Widening casts are fine; out-of-scope crates are fine.
    assert!(lint_one(
        "crates/sensor/src/fixture.rs",
        "fn g(x: u16) -> u64 { x as u64 }\n"
    )
    .is_clean());
    assert!(lint_one("crates/telemetry/src/fixture.rs", src).is_clean());
}

// --- T1 stats ---------------------------------------------------------

#[test]
fn stats_requires_observe() {
    let r = lint_used(
        &[file(
            "crates/telemetry/src/fixture.rs",
            "pub struct OrphanStats { pub hits: u64 }\n",
        )],
        &["OrphanStats"],
    );
    assert_eq!(codes(&r), ["T1"]);
    assert!(r.violations[0].msg.contains("Observe"));
}

#[test]
fn stats_satisfied_by_observe_evidence() {
    // Evidence may live in a different file than the declaration, and a
    // Stats struct needs no `merge`: observing many into one sink sums
    // them.
    let decl = file(
        "crates/telemetry/src/fixture_a.rs",
        "pub struct WiredStats { pub hits: u64 }\n",
    );
    let wiring = file(
        "crates/telemetry/src/fixture_b.rs",
        "fn reg(s: &WiredStats) { observe_counters!(WiredStats, s); }\n",
    );
    let r = lint(&[decl, wiring]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

// --- T2 watchdog ------------------------------------------------------

#[test]
fn watchdog_requires_a_fixture_test() {
    let r = lint_used(
        &[file(
            "crates/telemetry/src/fixture.rs",
            "pub const WD_ORPHAN_RULE: &str = \"orphan_rule\";\n",
        )],
        &["WD_ORPHAN_RULE"],
    );
    assert_eq!(codes(&r), ["T2"]);
    assert!(r.violations[0].msg.contains("WD_ORPHAN_RULE"));
}

#[test]
fn watchdog_satisfied_by_test_reference_anywhere() {
    // The fixture test may live in a different file than the constant.
    let decl = SourceFile {
        path: "crates/telemetry/src/fixture_a.rs".into(),
        text: "pub const WD_COVERED_RULE: &str = \"covered_rule\";\n".into(),
    };
    let fixture = SourceFile {
        path: "crates/fleet/src/fixture_b.rs".into(),
        text: "#[cfg(test)]\nmod tests {\n    #[test]\n    fn fires() { let _ = WD_COVERED_RULE; }\n}\n"
            .into(),
    };
    let r = lint_used(&[decl, fixture], &["WD_COVERED_RULE"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    // A reference outside any test span is not evidence.
    let nontest_use = SourceFile {
        path: "crates/fleet/src/fixture_c.rs".into(),
        text: "fn wire() { let _ = WD_COVERED_RULE; }\n".into(),
    };
    let decl2 = SourceFile {
        path: "crates/telemetry/src/fixture_a.rs".into(),
        text: "pub const WD_COVERED_RULE: &str = \"covered_rule\";\n".into(),
    };
    let r = lint(&[decl2, nontest_use]);
    assert_eq!(codes(&r), ["T2"]);
}

// --- A0 meta ----------------------------------------------------------

#[test]
fn meta_flags_stale_unknown_and_reasonless_allows() {
    let r = lint_one(
        "crates/fleet/src/fixture.rs",
        "// presto-lint: allow(det, nothing on the next line needs this)\n\
         fn quiet() {}\n\
         // presto-lint: allow(bogus, no such rule)\n\
         // presto-lint: allow(clock)\n",
    );
    assert_eq!(codes(&r), ["A0", "A0", "A0"]);
}

// --- test spans -------------------------------------------------------

/// `unwrap` under each attribute, in an H1-scoped crate: test-only code
/// is exempt, code that also builds outside tests is not.
fn unwrap_under(attr: &str) -> Report {
    lint_one(
        "crates/proxy/src/fixture.rs",
        &format!("{attr}\nfn f() {{ None::<u8>.unwrap(); }}\n"),
    )
}

#[test]
fn cfg_test_marks_test_code() {
    assert!(unwrap_under("#[cfg(test)]").is_clean());
}

#[test]
fn cfg_all_with_test_marks_test_code() {
    assert!(unwrap_under("#[cfg(all(test, feature = \"x\"))]").is_clean());
    assert!(unwrap_under("#[cfg(all(unix, all(test)))]").is_clean());
}

#[test]
fn cfg_not_test_is_not_test_code() {
    assert_eq!(codes(&unwrap_under("#[cfg(not(test))]")), ["H1"]);
}

#[test]
fn cfg_any_with_test_is_not_test_code() {
    assert_eq!(
        codes(&unwrap_under("#[cfg(any(test, feature = \"x\"))]")),
        ["H1"]
    );
    assert_eq!(codes(&unwrap_under("#[cfg(all(not(test), unix))]")), ["H1"]);
}

// --- U1 unused ----------------------------------------------------------

const LIB: &str = "crates/sim/src/fixture.rs";

fn u1_messages(r: &Report) -> Vec<&str> {
    r.violations
        .iter()
        .filter(|v| v.rule == Rule::Unused)
        .map(|v| v.msg.as_str())
        .collect()
}

#[test]
fn unused_flags_pub_fn_named_only_in_a_test() {
    let src = "pub fn live() {}\npub fn probe() {}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::probe(); }\n}\n";
    let r = lint_used(&[file(LIB, src)], &["live"]);
    assert_eq!(codes(&r), ["U1"]);
    assert!(u1_messages(&r)[0].contains("`probe`"), "{:?}", r.violations);
}

#[test]
fn unused_flags_pub_fn_named_only_in_a_pub_use() {
    let decl = file(LIB, "pub fn reexported() {}\npub fn live() {}\n");
    let root = file(
        "crates/sim/src/lib.rs",
        "pub use fixture::{live, reexported};\n",
    );
    let r = lint_used(&[decl, root], &["live"]);
    assert_eq!(codes(&r), ["U1"]);
    assert!(u1_messages(&r)[0].contains("`reexported`"));
}

#[test]
fn unused_flags_pub_fn_named_only_in_its_declaration() {
    let r = lint_used(
        &[file(LIB, "pub fn live() {}\npub fn orphan() {}\n")],
        &["live"],
    );
    assert_eq!(codes(&r), ["U1"]);
    assert!(u1_messages(&r)[0].contains("`orphan`"));
}

#[test]
fn unused_flags_module_whose_items_are_named_only_inside_it() {
    // Every item is used, but only from within its own file.
    let src =
        "pub struct Queue;\npub fn run() -> Queue { helper() }\nfn helper() -> Queue { Queue }\n\
               fn drive() { run(); }\n";
    let r = lint_one(LIB, src);
    assert_eq!(codes(&r), ["U1"]);
    assert!(
        u1_messages(&r)[0].contains("Queue, run"),
        "{:?}",
        r.violations
    );
    // One reference from another file keeps the module.
    let r = lint_used(&[file(LIB, src)], &["Queue"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn unused_reads_examples_benches_and_perfbench_as_callers() {
    for caller in [
        "examples/demo.rs",
        "crates/x/benches/bench.rs",
        "perfbench/src/run.rs",
    ] {
        let r = lint(&[
            file(LIB, "pub fn api() {}\n"),
            file(
                caller,
                "fn main() { api(); let _ = std::time::Instant::now(); }\n",
            ),
        ]);
        // The caller counts, and is never linted itself (no D2).
        assert!(r.is_clean(), "{caller}: {:?}", r.violations);
        assert_eq!(r.files_checked, 1);
    }
}

#[test]
fn unused_counts_calls_not_mentions() {
    let decl = "pub fn live() {}\npub fn probe() -> u32 {\n    0\n}\n";
    // A field access, a local binding and a struct-literal key share the
    // name but call nothing.
    for mention in [
        "fn f(s: &S) -> u32 { s.probe }",
        "fn f() -> u32 { let probe = 1; probe }",
        "fn f() -> S { S { probe: 1 } }",
    ] {
        let r = lint_used(&[file(LIB, &format!("{decl}{mention}\n"))], &["live"]);
        assert_eq!(codes(&r), ["U1"], "{mention}: {:?}", r.violations);
        assert!(u1_messages(&r)[0].contains("`probe`"), "{mention}");
    }
    // Each call shape counts, in the library or in an `examples/` caller.
    for call in [
        "fn f(s: &S) -> u32 { s.probe() }",
        "fn f() -> u32 { S::probe() }",
        "fn f() -> u32 { probe::<u8>() }",
        "fn f(v: &[S]) -> Vec<u32> { v.iter().map(Self::probe).collect() }",
    ] {
        let in_lib = lint_used(&[file(LIB, &format!("{decl}{call}\n"))], &["live"]);
        assert!(in_lib.is_clean(), "{call}: {:?}", in_lib.violations);
        let in_example = lint_used(
            &[
                file(LIB, decl),
                file("examples/demo.rs", &format!("{call}\n")),
            ],
            &["live"],
        );
        assert!(in_example.is_clean(), "{call}: {:?}", in_example.violations);
    }
}

#[test]
fn unused_counts_a_use_as_rename() {
    let caller = file(
        "crates/core/src/fixture.rs",
        "use presto_sim::fixture::api as renamed;\n",
    );
    let r = lint(&[file(LIB, "pub fn api() {}\n"), caller]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    // A plain import is not a reference.
    let caller = file(
        "crates/core/src/fixture.rs",
        "use presto_sim::fixture::api;\n",
    );
    let r = lint(&[file(LIB, "pub fn api() {}\n"), caller]);
    assert_eq!(codes(&r), ["U1", "U1"]);
}

#[test]
fn unused_leaves_restricted_visibility_to_rustc() {
    let src =
        "pub fn live() {}\npub(crate) fn internal() {}\npub(super) fn up() {}\nfn private() {}\n";
    assert!(lint_used(&[file(LIB, src)], &["live"]).is_clean());
}

#[test]
fn unused_honors_allow_and_flags_a_stale_one() {
    let src = "pub fn live() {}\n\
               // presto-lint: allow(unused, oracle the property tests compare against)\n\
               pub fn oracle() {}\n";
    let r = lint_used(&[file(LIB, src)], &["live"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allows_honored, 1);
    // Once something calls it, the allow is stale.
    let r = lint_used(&[file(LIB, src)], &["live", "oracle"]);
    assert_eq!(codes(&r), ["A0"]);
}

// --- K1 knob ----------------------------------------------------------

/// A knob struct whose own `impl Default` writes both fields, followed
/// by `rest` (more library code in the same file).
fn knobs(rest: &str) -> SourceFile {
    file(
        LIB,
        &format!(
            "pub struct FooConfig {{\n    pub a: u32,\n    pub b: u32,\n}}\n\
             impl Default for FooConfig {{\n    \
             fn default() -> Self {{\n        FooConfig {{ a: 1, b: 2 }}\n    }}\n}}\n{rest}"
        ),
    )
}

fn k1_messages(r: &Report) -> Vec<&str> {
    r.violations
        .iter()
        .filter(|v| v.rule == Rule::Knob)
        .map(|v| v.msg.as_str())
        .collect()
}

#[test]
fn knob_flags_fields_set_only_by_their_default_or_a_spread() {
    let r = lint_used(&[knobs("")], &["FooConfig"]);
    assert_eq!(codes(&r), ["K1", "K1"]);
    let msgs = k1_messages(&r);
    assert!(
        msgs[0].contains("`FooConfig::a`") && msgs[1].contains("`FooConfig::b`"),
        "{msgs:?}"
    );
    // A spread writes no named field.
    let spread = "fn quick() -> FooConfig {\n    FooConfig { a: 3, ..Default::default() }\n}\n";
    let r = lint_used(&[knobs(spread)], &["FooConfig"]);
    assert_eq!(codes(&r), ["K1"]);
    assert!(k1_messages(&r)[0].contains("`FooConfig::b`"));
    // A literal that restates the default's value varies nothing.
    let restated = "fn quick() -> FooConfig {\n    FooConfig { a: 3, b: 2 }\n}\n";
    let r = lint_used(&[knobs(restated)], &["FooConfig"]);
    assert_eq!(codes(&r), ["K1"]);
    assert!(k1_messages(&r)[0].contains("`FooConfig::b`"));
}

#[test]
fn knob_flags_a_field_named_only_in_another_structs_literal() {
    let other = "pub struct BarConfig {\n    pub b: u32,\n}\n\
                 fn f() {\n    let _ = FooConfig { a: 3, ..FooConfig::default() };\n    \
                 let _ = BarConfig { b: 1 };\n}\n";
    let r = lint_used(&[knobs(other)], &["FooConfig", "BarConfig"]);
    assert_eq!(codes(&r), ["K1"]);
    assert!(
        k1_messages(&r)[0].contains("`FooConfig::b`"),
        "{:?}",
        r.violations
    );
}

#[test]
fn knob_accepts_literals_shorthand_and_self_constructors() {
    let literal = "fn f(b: u32) -> FooConfig {\n    FooConfig { a: 3, b }\n}\n";
    let r = lint_used(&[knobs(literal)], &["FooConfig"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    let path = "fn f(b: u32) -> FooConfig {\n    crate::fixture::FooConfig { a: 3, b }\n}\n";
    assert!(lint_used(&[knobs(path)], &["FooConfig"]).is_clean());
    let ctor =
        "impl FooConfig {\n    pub fn quick() -> Self {\n        Self { a: 3, b: 4 }\n    }\n}\n";
    let r = lint_used(&[knobs(ctor)], &["FooConfig", "quick"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn knob_accepts_nested_and_compound_assignments() {
    let nested = "pub struct OuterConfig {\n    pub inner: FooConfig,\n}\n\
                  fn f(cfg: &mut OuterConfig) {\n    cfg.inner.a = 3;\n";
    // `cfg.inner.a = ..` sets both `inner` and `a`; comparisons set nothing.
    let r = lint_used(
        &[knobs(&format!(
            "{nested}    let _ = (cfg.inner.b == 1, cfg.inner.b <= 1, cfg.inner.b >= 1, cfg.inner.b != 1);\n}}\n"
        ))],
        &["FooConfig", "OuterConfig"],
    );
    assert_eq!(codes(&r), ["K1"]);
    assert!(
        k1_messages(&r)[0].contains("`FooConfig::b`"),
        "{:?}",
        r.violations
    );
    for op in ["+=", "^=", "<<=", ">>="] {
        let r = lint_used(
            &[knobs(&format!("{nested}    cfg.inner.b {op} 1;\n}}\n"))],
            &["FooConfig", "OuterConfig"],
        );
        assert!(r.is_clean(), "{op}: {:?}", r.violations);
    }
}

/// Only code that runs outside tests keeps a knob: library code outside
/// test spans (`crates/bench/src/` and its bins included), benches and
/// perfbench. A setter in test code, an integration test or an example
/// keeps no field.
#[test]
fn knob_reads_setters_from_tests_examples_and_perfbench() {
    let setter = "fn set(c: &mut FooConfig) {\n    c.a = 1;\n    c.b = 2;\n}\n";
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    use super::*;\n    {setter}}}\n");
    let r = lint_used(&[knobs(&in_test)], &["FooConfig"]);
    assert_eq!(codes(&r), ["K1", "K1"], "cfg(test): {:?}", r.violations);
    for ignored in ["tests/it.rs", "crates/x/tests/it.rs", "examples/demo.rs"] {
        let r = lint_used(&[knobs(""), file(ignored, setter)], &["FooConfig"]);
        assert_eq!(codes(&r), ["K1", "K1"], "{ignored}: {:?}", r.violations);
        assert_eq!(r.files_checked, 1, "{ignored} is never linted");
    }
    for caller in ["perfbench/src/run.rs", "crates/x/benches/b.rs"] {
        let r = lint_used(&[knobs(""), file(caller, setter)], &["FooConfig"]);
        assert!(r.is_clean(), "{caller}: {:?}", r.violations);
        assert_eq!(r.files_checked, 1, "{caller} is read, never linted");
    }
    let bin = file("crates/bench/src/bin/run.rs", setter);
    let r = lint_used(&[knobs(""), bin], &["FooConfig"]);
    assert!(r.is_clean(), "crates/bench/src: {:?}", r.violations);
    // Integration tests are never read: they never count as U1 callers.
    let r = lint(&[
        file(LIB, "pub fn api() {}\n"),
        file("tests/it.rs", "fn t() { api(); }\n"),
    ]);
    assert_eq!(codes(&r), ["U1", "U1"]);
}

#[test]
fn knob_ignores_other_structs_and_fn_bodies() {
    let r = lint_used(
        &[file(LIB, "pub struct Plain {\n    pub x: u32,\n}\n")],
        &["Plain"],
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    // The body after `-> FooConfig {` is a block, not a literal: `rate`
    // there is an expression, not a shorthand field.
    let src = "pub struct RateConfig {\n    pub rate: f64,\n}\n\
               pub fn keep(rate: RateConfig) -> RateConfig {\n    rate\n}\n";
    let r = lint_used(&[file(LIB, src)], &["RateConfig", "keep"]);
    assert_eq!(codes(&r), ["K1"]);
    assert!(k1_messages(&r)[0].contains("`RateConfig::rate`"));
}

#[test]
fn knob_honors_allow_and_flags_a_stale_one() {
    let src = "pub struct FooConfig {\n    \
               // presto-lint: allow(knob, the sweep bench sets a second value)\n    \
               pub a: u32,\n}\n";
    let r = lint_used(&[file(LIB, src)], &["FooConfig"]);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allows_honored, 1);
    // An example's setter does not make it stale: examples keep no knob.
    let set = "fn main() { let _ = FooConfig { a: 2 }; }\n";
    let r = lint_used(
        &[file(LIB, src), file("examples/demo.rs", set)],
        &["FooConfig"],
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allows_honored, 1);
    // Once a bench sets it, the allow is stale.
    let r = lint_used(
        &[file(LIB, src), file("crates/x/benches/b.rs", set)],
        &["FooConfig"],
    );
    assert_eq!(codes(&r), ["A0"]);
}

// --- rule table ---------------------------------------------------------

#[test]
fn unknown_rule_message_names_every_allowable_id() {
    let r = lint_one(LIB, "// presto-lint: allow(bogus, no such rule)\n");
    assert_eq!(codes(&r), ["A0"]);
    for rule in Rule::allowable() {
        assert!(
            r.violations[0].msg.contains(rule.id()),
            "{} missing from: {}",
            rule.id(),
            r.violations[0].msg
        );
    }
    assert!(!r.violations[0].msg.contains(Rule::Meta.id()));
}

#[test]
fn every_allowable_id_parses() {
    // A known id on a clean line is a stale allow, not an unknown rule.
    for rule in Rule::allowable() {
        let r = lint_one(
            LIB,
            &format!("// presto-lint: allow({}, reason)\n", rule.id()),
        );
        assert_eq!(codes(&r), ["A0"]);
        assert!(
            r.violations[0].msg.contains("matches no violation"),
            "{}",
            rule.id()
        );
    }
}

// --- fixtures ---------------------------------------------------------

#[test]
fn known_bad_fixture_fires_every_lint_class() {
    let r = lint_one(
        "crates/proxy/src/fixture_bad.rs",
        include_str!("../fixtures/known_bad.rs"),
    );
    let fired = codes(&r);
    for code in ["D1", "D2", "H1", "N1", "T1", "U1", "K1", "A0"] {
        assert!(fired.contains(&code), "{code} did not fire; got {fired:?}");
    }
    assert!(
        u1_messages(&r).iter().any(|m| m.contains("`mentioned`")),
        "a pub fn only mentioned, never called, must fire U1: {:?}",
        r.violations
    );
    assert!(
        k1_messages(&r)
            .iter()
            .any(|m| m.contains("`OrphanParams::rate`")),
        "a `*Params` field nothing sets must fire K1: {:?}",
        r.violations
    );
    assert!(
        k1_messages(&r)
            .iter()
            .any(|m| m.contains("`TestOnlyConfig::rate`")),
        "a field only test code sets must fire K1: {:?}",
        r.violations
    );
    assert!(
        k1_messages(&r)
            .iter()
            .any(|m| m.contains("`RestatedConfig::pad`")),
        "a field whose only setter restates its default must fire K1: {:?}",
        r.violations
    );
    assert_eq!(r.allows_honored, 0);
}

#[test]
fn known_good_fixture_is_clean() {
    let r = lint_used(
        &[file(
            "crates/proxy/src/fixture_good.rs",
            include_str!("../fixtures/known_good.rs"),
        )],
        &["lookup", "first_byte"],
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allows_honored, 1);
}

// --- engine determinism -----------------------------------------------

#[test]
fn double_run_report_is_byte_identical() {
    let files = [
        SourceFile {
            path: "crates/proxy/src/fixture_bad.rs".into(),
            text: include_str!("../fixtures/known_bad.rs").into(),
        },
        SourceFile {
            path: "crates/proxy/src/fixture_good.rs".into(),
            text: include_str!("../fixtures/known_good.rs").into(),
        },
    ];
    let render = |r: &Report| {
        r.violations
            .iter()
            .map(|v| v.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (a, b) = (lint(&files), lint(&files));
    assert!(!a.violations.is_empty());
    assert_eq!(render(&a), render(&b));
    assert_eq!(a.allows_honored, b.allows_honored);
}

// --- the real workspace (tier-1 gate) ---------------------------------

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = lint_workspace(&root).expect("workspace sources readable");
    assert!(
        report.files_checked > 50,
        "suspiciously few files: {}",
        report.files_checked
    );
    let rendered = report
        .violations
        .iter()
        .map(|v| v.render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(report.is_clean(), "workspace lint violations:\n{rendered}");
}
