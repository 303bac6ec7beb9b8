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

/// Lint snippets together with an `examples/` caller that names `used`,
/// so U1 sees the snippets' pub items as used and only the rule under
/// test fires.
fn lint_used(files: &[SourceFile], used: &[&str]) -> Report {
    let calls: String = used.iter().map(|n| format!("let _ = {n}; ")).collect();
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
    assert!(lint_one("crates/sensor/src/fixture.rs", "fn g(x: u16) -> u64 { x as u64 }\n").is_clean());
    assert!(lint_one("crates/telemetry/src/fixture.rs", src).is_clean());
}

// --- T1 stats ---------------------------------------------------------

#[test]
fn stats_requires_observe_and_merge() {
    let r = lint_used(
        &[file(
            "crates/telemetry/src/fixture.rs",
            "pub struct OrphanStats { pub hits: u64 }\n",
        )],
        &["OrphanStats"],
    );
    assert_eq!(codes(&r), ["T1", "T1"]);
    assert!(r.violations[0].msg.contains("Observe"));
    assert!(r.violations[1].msg.contains("merge"));
}

#[test]
fn stats_satisfied_by_observe_and_merge_evidence() {
    // Evidence may live in a different file than the declaration.
    let decl = SourceFile {
        path: "crates/telemetry/src/fixture_a.rs".into(),
        text: "pub struct WiredStats { pub hits: u64 }\n\
               impl WiredStats { pub fn merge(&mut self, other: &WiredStats) { self.hits += other.hits; } }\n"
            .into(),
    };
    let wiring = SourceFile {
        path: "crates/telemetry/src/fixture_b.rs".into(),
        text: "fn reg(s: &WiredStats) { observe_counters!(WiredStats, s); }\n".into(),
    };
    let r = lint_used(&[decl, wiring], &["merge"]);
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
    for code in ["D1", "D2", "H1", "N1", "T1", "U1", "A0"] {
        assert!(fired.contains(&code), "{code} did not fire; got {fired:?}");
    }
    assert_eq!(r.allows_honored, 0);
}

#[test]
fn known_good_fixture_is_clean() {
    let r = lint_used(
        &[file(
            "crates/proxy/src/fixture_good.rs",
            include_str!("../fixtures/known_good.rs"),
        )],
        &["lookup", "first_byte", "merge"],
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
