//! `presto-lint` — workspace invariant checker.
//!
//! The simulation's headline claims (seed-determinism, honest failure, full
//! telemetry coverage) rest on invariants the type system cannot see. This
//! crate enforces them with a token-pattern pass over the workspace's own
//! source, built on a hand-rolled lexer (`lexer.rs`) — no external deps.
//!
//! Lint classes:
//!
//! - **D1 `det`** — no `HashMap`/`HashSet` in sim-visible code: `std`'s
//!   `RandomState` seeds each map per-instance, so iteration order differs
//!   between runs *and* between instances, silently breaking
//!   seed-determinism wherever iteration order reaches behavior.
//! - **D2 `clock`** — no wall-clock or entropy (`Instant`, `SystemTime`,
//!   `thread_rng`, `std::env`) outside the bench/telemetry-timer allowlists;
//!   all simulation time must come from `SimTime`.
//! - **H1 `panic`** — no `.unwrap()` / `.expect()` / `panic!`-family macros
//!   in library code of the lossy-path crates (`core`, `proxy`, `fleet`,
//!   `reliability`, `sensor`); a query must fail honestly, never crash.
//! - **N1 `narrow`** — flag narrowing `as` casts on the query/radio path
//!   crates; truncation there corrupts ids and counters silently.
//! - **T1 `stats`** — every `pub struct *Stats` must implement `Observe`
//!   (registry coverage); observing many into one sink is the fleet
//!   roll-up.
//! - **T2 `watchdog`** — every `pub const WD_*` watchdog rule name must be
//!   exercised by a test somewhere in the workspace (an ident reference
//!   inside a `#[cfg(test)]` / `#[test]` span); an SLO constant nothing
//!   tests is a watchdog that may never have fired.
//! - **U1 `unused`** — rustc's `dead_code` cannot see `pub` items, so this
//!   rule does: a `pub fn` that no non-test code calls (its name followed
//!   by `(` or `::<`, or preceded by `::`; a field, a local or a
//!   struct-literal key of the same name is no call), and a module none
//!   of whose top-level `pub` items is named outside its file. `use` lines
//!   are imports, not references (a `use x as y` rename is one). Matching
//!   is by name, so a live function of the same name keeps a dead one
//!   hidden; ANALYSIS.md has the compiler audit that finds those.
//!   Examples, benches and `perfbench/src/` are read as callers but never
//!   linted.
//! - **K1 `knob`** — a `pub` field of a `pub struct *Config`/`*Bounds`/
//!   `*Params` in library code that nothing sets. A setter is a literal of that struct
//!   (`Name { field: .. }`, shorthand, or `Self { .. }` inside an `impl` of
//!   it, but not the literal in its own `impl Default`) or an assignment
//!   through a `.field` path segment (`=`, `+=`, ... on any receiver,
//!   matched by name, so K1 may miss a dead knob but never flags a set
//!   one). Setters count only in code that runs outside tests: library
//!   code outside test spans (`crates/bench/src/` and its bins included),
//!   benches and `perfbench/src/`. A setter in test code or an example
//!   keeps no field: a value only a test or a demo needs is no reason for
//!   a knob.
//!
//! A site can be justified with an annotation comment — the tool name, a
//! colon, then `allow(<rule>, <reason>)` — on the same line or on a
//! whole-line comment directly above (see ANALYSIS.md for examples). The
//! reason is mandatory; unknown rules, missing reasons, and annotations that
//! match no violation are themselves violations (A0 `meta`), so the
//! allowlist cannot rot.
//!
//! Code inside `#[test]`, `#[cfg(test)]` or `#[cfg(all(.., test, ..))]`
//! items is exempt from D1/D2/H1/N1 (tests may panic and may use
//! wall-clock), `*Stats` declarations in test code are ignored by T1
//! rather than required to be wired up, and test code never counts as a
//! U1 reference or a K1 setter. `cfg(not(test))` and `cfg(any(test, ..))`
//! code builds outside tests too, so it is linted like any other.

pub mod lexer;

use lexer::{lex, Comment, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint classes. `Meta` covers annotation hygiene and is not itself
/// allowable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Det,
    Clock,
    Panic,
    Narrow,
    Stats,
    Watchdog,
    Unused,
    Knob,
    Meta,
}

impl Rule {
    /// Every rule with its `allow(<id>, ...)` id and its report code. This
    /// is the one place a rule is named: `id`, `code`, `from_id` and the
    /// unknown-rule message all read it.
    const TABLE: &'static [(Rule, &'static str, &'static str)] = &[
        (Rule::Det, "det", "D1"),
        (Rule::Clock, "clock", "D2"),
        (Rule::Panic, "panic", "H1"),
        (Rule::Narrow, "narrow", "N1"),
        (Rule::Stats, "stats", "T1"),
        (Rule::Watchdog, "watchdog", "T2"),
        (Rule::Unused, "unused", "U1"),
        (Rule::Knob, "knob", "K1"),
        (Rule::Meta, "meta", "A0"),
    ];

    fn row(self) -> &'static (Rule, &'static str, &'static str) {
        Self::TABLE
            .iter()
            .find(|row| row.0 == self)
            .expect("every rule has a table row")
    }

    /// The id used in `allow(<id>, ...)` annotations.
    pub fn id(self) -> &'static str {
        self.row().1
    }

    /// Short code used in report lines.
    pub fn code(self) -> &'static str {
        self.row().2
    }

    /// Rules an annotation may name: every rule but `Meta`.
    pub fn allowable() -> impl Iterator<Item = Rule> {
        Self::TABLE
            .iter()
            .map(|row| row.0)
            .filter(|&r| r != Rule::Meta)
    }

    fn from_id(s: &str) -> Option<Rule> {
        Self::allowable().find(|r| r.id() == s)
    }
}

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub msg: String,
}

impl Violation {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}({}): {}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.id(),
            self.msg
        )
    }
}

/// One workspace source file, with a repo-relative `/`-separated path. The
/// path drives rule scoping, so fixture tests pass synthetic paths like
/// `crates/proxy/src/fixture.rs` to place a snippet in a given scope.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_checked: usize,
    pub allows_honored: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Rule scoping by path
// ---------------------------------------------------------------------------

/// Crates whose library code sits on the lossy query path: a panic there is
/// a dishonest failure. H1 applies here.
const PANIC_FREE_CRATES: &[&str] = &["core", "proxy", "fleet", "reliability", "sensor"];

/// Query/radio path crates where a silently-truncating cast corrupts sensor
/// ids, sequence numbers, or counters. N1 applies here.
const NARROW_CRATES: &[&str] = &["core", "proxy", "fleet", "reliability", "sensor", "net"];

fn in_crates(path: &str, crates: &[&str]) -> bool {
    crates.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(c))
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// D2 allowlist: host-side code that legitimately reads the host clock or
/// process environment and is never part of simulated behavior.
fn clock_allowlisted(path: &str) -> bool {
    // Scenario drivers and reports: wall-clock for benchmarking, argv for CLI.
    path.starts_with("crates/bench/src/")
        // The epoch profiler *is* the telemetry timer.
        || path == "crates/telemetry/src/profiler.rs"
        // The lint tool itself is a host tool (argv, file system).
        || path.starts_with("crates/analysis/src/")
}

// ---------------------------------------------------------------------------
// Test-span detection
// ---------------------------------------------------------------------------

/// Whether an attribute's tokens (between `#[` and `]`) mark test-only
/// code: `test`, `cfg(test)` or `cfg(all(.., test, ..))`. Code under
/// `cfg(not(test))` or `cfg(any(test, ..))` also builds outside tests.
fn is_test_attr(attr: &[Token]) -> bool {
    match attr {
        [t] => is_ident(t, "test"),
        [cfg, open, pred @ .., close]
            if is_ident(cfg, "cfg") && is_punct(open, '(') && is_punct(close, ')') =>
        {
            cfg_requires_test(pred)
        }
        _ => false,
    }
}

/// Whether a `cfg` predicate holds only when `test` does.
fn cfg_requires_test(pred: &[Token]) -> bool {
    match pred {
        [t] => is_ident(t, "test"),
        [all, open, args @ .., close]
            if is_ident(all, "all") && is_punct(open, '(') && is_punct(close, ')') =>
        {
            let mut depth = 0usize;
            args.split(|t| match t.tok {
                Tok::Punct('(') => {
                    depth += 1;
                    false
                }
                Tok::Punct(')') => {
                    depth -= 1;
                    false
                }
                Tok::Punct(',') => depth == 0,
                _ => false,
            })
            .any(cfg_requires_test)
        }
        _ => false,
    }
}

/// Line ranges (inclusive) covered by test-only items (see `is_test_attr`).
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(is_punct(&tokens[i], '#') && is_punct(&tokens[i + 1], '[')) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // The attribute's tokens run up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr(&tokens[i + 2..j.saturating_sub(1).max(i + 2)]) {
            i = j;
            continue;
        }
        // Find the annotated item's body: skip further attributes, then the
        // span runs to the matching `}` (or to a terminating `;` for items
        // without a body, e.g. `#[cfg(test)] mod tests;`).
        let mut k = j;
        let mut end_line = attr_line;
        while k < tokens.len() {
            match &tokens[k].tok {
                Tok::Punct('{') => {
                    let close = group_end(tokens, k);
                    end_line = tokens[close.min(tokens.len() - 1)].line;
                    k = close + 1;
                    break;
                }
                Tok::Punct(';') => {
                    end_line = tokens[k].line;
                    k += 1;
                    break;
                }
                _ => k += 1,
            }
        }
        spans.push((attr_line, end_line));
        i = k.max(j);
    }
    spans
}

fn in_test(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Annotation {
    line: usize,
    whole_line: bool,
    rule: Rule,
    used: bool,
}

/// Parse an allow annotation (tool name, colon, `allow(rule, reason)`) out
/// of a comment. Prose that merely mentions the tool name without the full
/// `: allow` marker is ignored; once the marker is present, malformed bodies
/// are `Err(msg)` violations.
fn parse_annotation(c: &Comment) -> Option<Result<Annotation, String>> {
    let idx = c.text.find("presto-lint")?;
    let rest = c.text[idx + "presto-lint".len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let inner = match rest.strip_prefix('(').and_then(|r| r.rfind(')').map(|e| &r[..e])) {
        Some(i) => i,
        None => return Some(Err("unclosed `allow(...)` annotation".into())),
    };
    let (rule_id, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (inner.trim(), ""),
    };
    let Some(rule) = Rule::from_id(rule_id) else {
        let ids: Vec<&str> = Rule::allowable().map(Rule::id).collect();
        return Some(Err(format!(
            "unknown lint `{rule_id}` (expected one of: {})",
            ids.join(", ")
        )));
    };
    if reason.is_empty() {
        return Some(Err(format!(
            "allow({rule_id}) needs a justification: allow({rule_id}, <why this is sound>)"
        )));
    }
    Some(Ok(Annotation {
        line: c.line,
        whole_line: c.whole_line,
        rule,
        used: false,
    }))
}

// ---------------------------------------------------------------------------
// Per-file context
// ---------------------------------------------------------------------------

/// What a file is read for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Library code: every rule lints it.
    Lib,
    /// Examples, benches and the benchmark harness: read for U1 references
    /// and (all but examples) K1 setters, never linted, no annotations.
    Caller,
}

fn crate_subdir(path: &str, dir: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, r)| r.starts_with(dir))
}

/// A file's role, or `None` for an integration test (`tests/`,
/// `crates/*/tests/`), which no rule reads.
fn role(path: &str) -> Option<Role> {
    if path.starts_with("tests/") || crate_subdir(path, "tests/") {
        None
    } else if path.starts_with("examples/")
        || path.starts_with("perfbench/src/")
        || crate_subdir(path, "benches/")
    {
        Some(Role::Caller)
    } else {
        Some(Role::Lib)
    }
}

struct FileCtx {
    path: String,
    role: Role,
    tokens: Vec<Token>,
    spans: Vec<(usize, usize)>,
    annotations: Vec<Annotation>,
    /// Violations before allow-annotation resolution.
    raw: Vec<(Rule, usize, String)>,
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

fn is_ident(t: &Token, s: &str) -> bool {
    matches!(&t.tok, Tok::Ident(w) if w == s)
}

/// Index of the token closing the group `toks[open]` opens (`{`, `(`, `[`),
/// or `toks.len()` if it never closes.
fn group_end(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Per-file lints
// ---------------------------------------------------------------------------

fn scan_det(ctx: &mut FileCtx) {
    let mut found = Vec::new();
    for t in &ctx.tokens {
        if in_test(&ctx.spans, t.line) {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = ident(t) {
            let fix = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
            found.push((
                Rule::Det,
                t.line,
                format!("{name} iteration order is nondeterministic (std RandomState); use {fix} or justify"),
            ));
        }
    }
    ctx.raw.extend(found);
}

fn scan_clock(ctx: &mut FileCtx) {
    if clock_allowlisted(&ctx.path) {
        return;
    }
    let mut found = Vec::new();
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        if let Some(name @ ("Instant" | "SystemTime" | "thread_rng" | "from_entropy")) =
            ident(&toks[i])
        {
            found.push((
                Rule::Clock,
                toks[i].line,
                format!("`{name}` leaks host wall-clock/entropy into simulation code; use SimTime / seeded RNG"),
            ));
        }
        if i + 3 < toks.len()
            && is_ident(&toks[i], "std")
            && is_punct(&toks[i + 1], ':')
            && is_punct(&toks[i + 2], ':')
            && is_ident(&toks[i + 3], "env")
        {
            found.push((
                Rule::Clock,
                toks[i].line,
                "`std::env` reads host process state; thread config through explicit parameters".into(),
            ));
        }
    }
    ctx.raw.extend(found);
}

fn scan_panic(ctx: &mut FileCtx) {
    if !in_crates(&ctx.path, PANIC_FREE_CRATES) {
        return;
    }
    let mut found = Vec::new();
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        if i + 2 < toks.len()
            && is_punct(&toks[i], '.')
            && is_punct(&toks[i + 2], '(')
        {
            if let Some(name @ ("unwrap" | "expect")) = ident(&toks[i + 1]) {
                found.push((
                    Rule::Panic,
                    toks[i + 1].line,
                    format!("`.{name}()` can panic on the lossy path; propagate an honest failure instead"),
                ));
            }
        }
        if i + 1 < toks.len() && is_punct(&toks[i + 1], '!') {
            if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) =
                ident(&toks[i])
            {
                found.push((
                    Rule::Panic,
                    toks[i].line,
                    format!("`{name}!` crashes the proxy instead of failing the query honestly"),
                ));
            }
        }
    }
    ctx.raw.extend(found);
}

const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn scan_narrow(ctx: &mut FileCtx) {
    if !in_crates(&ctx.path, NARROW_CRATES) {
        return;
    }
    let mut found = Vec::new();
    let toks = &ctx.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        if is_ident(&toks[i], "as") {
            if let Some(ty) = ident(&toks[i + 1]) {
                if NARROW_TYPES.contains(&ty) {
                    found.push((
                        Rule::Narrow,
                        toks[i].line,
                        format!("narrowing `as {ty}` cast can truncate silently; use try_from or a checked helper"),
                    ));
                }
            }
        }
    }
    ctx.raw.extend(found);
}

// ---------------------------------------------------------------------------
// T1: cross-file Stats coverage
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StatsIndex {
    /// `pub struct FooStats` declarations outside test code:
    /// name -> (file index, line).
    decls: BTreeMap<String, (usize, usize)>,
    /// Names with `Observe` evidence (`observe_counters!(Foo` or
    /// `impl ... Observe for ... Foo`).
    observed: BTreeSet<String>,
}

fn index_stats(ctx: &FileCtx, file_idx: usize, idx: &mut StatsIndex) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if i + 2 < toks.len() && is_ident(&toks[i], "pub") && is_ident(&toks[i + 1], "struct") {
            if let Some(name) = ident(&toks[i + 2]) {
                if name.len() > "Stats".len()
                    && name.ends_with("Stats")
                    && !in_test(&ctx.spans, toks[i].line)
                {
                    idx.decls
                        .entry(name.to_string())
                        .or_insert((file_idx, toks[i].line));
                }
            }
        }
        // observe_counters!(Foo { ... })
        if i + 3 < toks.len()
            && is_ident(&toks[i], "observe_counters")
            && is_punct(&toks[i + 1], '!')
            && is_punct(&toks[i + 2], '(')
        {
            if let Some(name) = ident(&toks[i + 3]) {
                idx.observed.insert(name.to_string());
            }
        }
        // impl [path::]Observe for [path::]Foo { — record every ident after
        // `for` in the impl header; only names declared as `*Stats` are ever
        // looked up, so over-approximation is harmless.
        if is_ident(&toks[i], "impl") {
            let mut saw_observe = false;
            let mut saw_for = false;
            for t in toks.iter().skip(i + 1).take(40) {
                match ident(t) {
                    Some("Observe") => saw_observe = true,
                    Some("for") => saw_for = true,
                    Some(name) if saw_observe && saw_for => {
                        idx.observed.insert(name.to_string());
                    }
                    _ => {}
                }
                if is_punct(t, '{') || is_punct(t, ';') {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// T2: cross-file watchdog-rule fixture coverage
// ---------------------------------------------------------------------------

#[derive(Default)]
struct WatchdogIndex {
    /// `pub const WD_*` declarations outside test code:
    /// name -> (file index, line).
    decls: BTreeMap<String, (usize, usize)>,
    /// WD_* idents referenced from inside a test span anywhere.
    tested: BTreeSet<String>,
}

fn index_watchdogs(ctx: &FileCtx, file_idx: usize, idx: &mut WatchdogIndex) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(&toks[i]) else { continue };
        if !name.starts_with("WD_") {
            continue;
        }
        if in_test(&ctx.spans, toks[i].line) {
            idx.tested.insert(name.to_string());
        } else if i >= 2
            && is_ident(&toks[i - 2], "pub")
            && is_ident(&toks[i - 1], "const")
        {
            idx.decls
                .entry(name.to_string())
                .or_insert((file_idx, toks[i].line));
        }
    }
}

// ---------------------------------------------------------------------------
// U1: pub code that no non-test code names
// ---------------------------------------------------------------------------

/// Keywords whose next identifier is being declared, not referenced.
const DECL_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// Non-test references by name. `named` maps each name to the files that
/// mention it, which is what U1's module check reads; `called` holds the
/// names used in a call shape, which is what its `pub fn` check reads.
#[derive(Default)]
struct Refs {
    named: BTreeMap<String, BTreeSet<usize>>,
    called: BTreeSet<String>,
}

/// Whether the identifier at `toks[i]` is used as a call: followed by `(`
/// or `::<` (`name(`, `.name(`, `name::<T>(`), or preceded by `::`
/// (`Type::name(`, `map(Self::name)`). A field access, a local binding or
/// a struct-literal key is none of these.
fn call_shaped(toks: &[Token], i: usize) -> bool {
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| is_punct(t, c));
    punct(i + 1, '(')
        || (punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<'))
        || (i >= 2 && punct(i - 1, ':') && punct(i - 2, ':'))
}

/// Record the non-test references of one file: code outside `use` items
/// and declarations. A `use x as y` rename references (and, since the new
/// name may be called, calls) `x`; every other path in a `use` item is
/// only an import.
fn index_refs(ctx: &FileCtx, file_idx: usize, refs: &mut Refs) {
    let toks = &ctx.tokens;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if in_test(&ctx.spans, t.line) {
            continue;
        }
        let Some(name) = ident(t) else {
            in_use &= !is_punct(t, ';');
            continue;
        };
        let renamed = in_use && toks.get(i + 1).is_some_and(|n| is_ident(n, "as"));
        let declared = i > 0 && ident(&toks[i - 1]).is_some_and(|p| DECL_KEYWORDS.contains(&p));
        if name == "use" {
            in_use = true;
        } else if (!in_use || renamed) && !declared {
            refs.named
                .entry(name.to_string())
                .or_default()
                .insert(file_idx);
            if renamed || call_shaped(toks, i) {
                refs.called.insert(name.to_string());
            }
        }
    }
}

/// A `pub` declaration outside test code. Restricted visibility
/// (`pub(crate)`, `pub(super)`) and private items stay with rustc's
/// `dead_code`; `pub mod` and `pub use` are structure, not items.
struct PubDecl<'a> {
    keyword: &'a str,
    name: &'a str,
    line: usize,
    top_level: bool,
}

fn pub_decls(ctx: &FileCtx) -> Vec<PubDecl<'_>> {
    let toks = &ctx.tokens;
    let mut decls = Vec::new();
    let mut depth = 0usize;
    for i in 0..toks.len() {
        match toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if !is_ident(&toks[i], "pub") || in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe fn`, `pub extern "C" fn`.
        let mut k = i + 1;
        loop {
            let next_is_fn = toks
                .get(k + 1)
                .and_then(ident)
                .is_some_and(|n| matches!(n, "fn" | "unsafe" | "async" | "extern"));
            match toks.get(k).and_then(ident) {
                Some("async" | "unsafe") => k += 1,
                Some("const") if next_is_fn => k += 1,
                Some("extern") => {
                    k += 1 + usize::from(toks.get(k + 1).is_some_and(|t| t.tok == Tok::Lit))
                }
                _ => break,
            }
        }
        let (Some(keyword), Some(name)) =
            (toks.get(k).and_then(ident), toks.get(k + 1).and_then(ident))
        else {
            continue;
        };
        if keyword != "mod" && DECL_KEYWORDS.contains(&keyword) {
            decls.push(PubDecl {
                keyword,
                name,
                line: toks[k + 1].line,
                top_level: depth == 0,
            });
        }
    }
    decls
}

/// U1's two checks on one linted file: a `pub fn` that no non-test code
/// calls, and a module none of whose top-level `pub` items is named outside
/// the file.
fn scan_unused(ctx: &mut FileCtx, file_idx: usize, refs: &Refs) {
    let decls = pub_decls(ctx);
    let mut found = Vec::new();
    for d in decls.iter().filter(|d| d.keyword == "fn") {
        if !refs.called.contains(d.name) {
            found.push((
                Rule::Unused,
                d.line,
                format!(
                    "pub fn `{}` is called by no non-test code; delete it, or allow it with \
                     the test that uses it as an oracle or probe",
                    d.name
                ),
            ));
        }
    }
    let items: Vec<&PubDecl> = decls.iter().filter(|d| d.top_level).collect();
    let named_outside = |d: &&PubDecl| {
        refs.named
            .get(d.name)
            .is_some_and(|files| files.iter().any(|&f| f != file_idx))
    };
    if let Some(first) = items.first() {
        if !items.iter().any(named_outside) {
            let names: Vec<&str> = items.iter().map(|d| d.name).collect();
            found.push((
                Rule::Unused,
                first.line,
                format!(
                    "no top-level pub item of this module ({}) is named outside it; \
                     delete the module or wire it in",
                    names.join(", ")
                ),
            ));
        }
    }
    ctx.raw.extend(found);
}

// ---------------------------------------------------------------------------
// K1: config knobs nothing sets
// ---------------------------------------------------------------------------

/// Whether K1 checks a struct's fields: its name ends in `Config`,
/// `Bounds` or `Params`.
fn is_knob_struct(name: &str) -> bool {
    ["Config", "Bounds", "Params"]
        .iter()
        .any(|s| name.len() > s.len() && name.ends_with(s))
}

#[derive(Default)]
struct KnobIndex {
    /// `pub` fields of `pub struct *Config`/`*Bounds`/`*Params` in library code
    /// outside tests: (struct, field, file index, line).
    fields: Vec<(String, String, usize, usize)>,
    /// (struct, field) pairs named in a literal of that struct.
    in_literal: BTreeSet<(String, String)>,
    /// Field names assigned through a `.field` path segment.
    assigned: BTreeSet<String>,
}

/// An `impl` block: the token span of its body, its self type's last path
/// segment, and whether it is `impl Default for ..`.
struct ImplBlock<'a> {
    open: usize,
    close: usize,
    self_ty: &'a str,
    default: bool,
}

/// Every `impl` item in a file. An `impl` in type position (`-> impl Fn`,
/// `x: impl Fn`) is not an item and is skipped.
fn impl_blocks(toks: &[Token]) -> Vec<ImplBlock<'_>> {
    let mut blocks = Vec::new();
    for i in 0..toks.len() {
        let item_start = i == 0
            || matches!(toks[i - 1].tok, Tok::Punct('{' | '}' | ';' | ']'))
            || is_ident(&toks[i - 1], "unsafe");
        if !is_ident(&toks[i], "impl") || !item_start {
            continue;
        }
        // Header idents outside `<..>`: the trait (if any) before `for`,
        // the self type after it; a `where` clause ends the header.
        let (mut angle, mut last, mut trait_name, mut k) = (0usize, None, None, i + 1);
        while let Some(t) = toks.get(k) {
            match &t.tok {
                Tok::Punct('{' | ';') => break,
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !is_punct(&toks[k - 1], '-') => angle = angle.saturating_sub(1),
                Tok::Ident(w) if angle == 0 && w == "where" => {
                    while k < toks.len() && !is_punct(&toks[k], '{') {
                        k += 1;
                    }
                    break;
                }
                Tok::Ident(w) if angle == 0 && w == "for" => trait_name = last.take(),
                Tok::Ident(w) if angle == 0 => last = Some(w.as_str()),
                _ => {}
            }
            k += 1;
        }
        if let (Some(self_ty), Some(open)) = (
            last,
            (k < toks.len() && is_punct(&toks[k], '{')).then_some(k),
        ) {
            blocks.push(ImplBlock {
                open,
                close: group_end(toks, open),
                self_ty,
                default: trait_name == Some("Default"),
            });
        }
    }
    blocks
}

/// Keywords after which `Name {` opens a declaration or block, not a
/// literal.
const NOT_LITERAL_AFTER: &[&str] = &[
    "struct", "enum", "union", "trait", "impl", "for", "mod", "fn", "dyn",
];

/// Record the `pub` fields of the library's `pub struct
/// *Config`/`*Bounds`/`*Params` declarations outside test code.
fn index_knob_fields(ctx: &FileCtx, file_idx: usize, idx: &mut KnobIndex) {
    let toks = &ctx.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        let Some(name) = ident(&toks[i + 2]).filter(|n| is_knob_struct(n)) else {
            continue;
        };
        let decl = is_ident(&toks[i], "pub")
            && is_ident(&toks[i + 1], "struct")
            && is_punct(&toks[i + 3], '{');
        if !decl || in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        let close = group_end(toks, i + 3);
        let mut depth = 0usize;
        for k in i + 3..close {
            match toks[k].tok {
                Tok::Punct('{' | '(' | '[') => depth += 1,
                Tok::Punct('}' | ')' | ']') => depth -= 1,
                _ => {}
            }
            if depth == 1
                && is_ident(&toks[k], "pub")
                && toks.get(k + 2).is_some_and(|t| is_punct(t, ':'))
            {
                if let Some(field) = ident(&toks[k + 1]) {
                    idx.fields.push((
                        name.to_string(),
                        field.to_string(),
                        file_idx,
                        toks[k + 1].line,
                    ));
                }
            }
        }
    }
}

/// Record a file's K1 setters outside test code: the fields named in
/// struct literals (a `Default` impl's literal of its own type excepted)
/// and the field names assigned through a `.field` path segment.
fn index_knob_setters(ctx: &FileCtx, idx: &mut KnobIndex) {
    let toks = &ctx.tokens;
    let impls = impl_blocks(toks);
    let innermost = |i: usize| {
        impls
            .iter()
            .filter(|b| b.open < i && i < b.close)
            .max_by_key(|b| b.open)
    };
    for i in 0..toks.len().saturating_sub(1) {
        if in_test(&ctx.spans, toks[i].line) {
            continue;
        }
        if let (Some(mut name), true) = (ident(&toks[i]), is_punct(&toks[i + 1], '{')) {
            // Walk back over a `a::b::` path prefix to the keyword or
            // `->` that would make this a declaration or a fn body.
            let mut j = i;
            while j >= 3 && is_punct(&toks[j - 1], ':') && is_punct(&toks[j - 2], ':') {
                j -= 3;
            }
            let declared = j > 0
                && (ident(&toks[j - 1]).is_some_and(|p| NOT_LITERAL_AFTER.contains(&p))
                    || (j > 1 && is_punct(&toks[j - 1], '>') && is_punct(&toks[j - 2], '-')));
            let block = innermost(i + 1);
            if name == "Self" {
                name = block.map_or("", |b| b.self_ty);
            }
            let own_default = block.is_some_and(|b| b.default && b.self_ty == name);
            if !declared && !own_default && impls.iter().all(|b| b.open != i + 1) {
                literal_fields(toks, i + 1, name, idx);
            }
        }
        if let Some(op) = assign_op_start(toks, i) {
            let mut k = op;
            while k >= 2 {
                match &toks[k - 1].tok {
                    Tok::Punct(']' | ')') => {
                        let mut depth = 0usize;
                        k -= 1;
                        loop {
                            match toks[k].tok {
                                Tok::Punct(']' | ')') => depth += 1,
                                Tok::Punct('[' | '(') => depth -= 1,
                                _ => {}
                            }
                            if depth == 0 || k == 0 {
                                break;
                            }
                            k -= 1;
                        }
                    }
                    Tok::Ident(field) if is_punct(&toks[k - 2], '.') => {
                        idx.assigned.insert(field.clone());
                        k -= 2;
                    }
                    Tok::Lit if is_punct(&toks[k - 2], '.') => k -= 2,
                    _ => break,
                }
            }
        }
    }
}

/// The fields a struct literal opening at `toks[open]` names before any
/// `..spread`, keyed to `name`.
fn literal_fields(toks: &[Token], open: usize, name: &str, idx: &mut KnobIndex) {
    let close = group_end(toks, open);
    let mut depth = 0usize;
    let mut at_field = true;
    for k in open + 1..close {
        if depth == 0 && at_field {
            if is_punct(&toks[k], '.') && toks.get(k + 1).is_some_and(|t| is_punct(t, '.')) {
                return;
            }
            let next = |n: usize| toks.get(k + n).map(|t| &t.tok);
            let named = next(1) == Some(&Tok::Punct(':')) && next(2) != Some(&Tok::Punct(':'));
            let shorthand = matches!(next(1), Some(Tok::Punct(',' | '}')));
            if let Some(field) = ident(&toks[k]).filter(|_| named || shorthand) {
                idx.in_literal.insert((name.to_string(), field.to_string()));
            }
        }
        at_field = false;
        match toks[k].tok {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => depth -= 1,
            Tok::Punct(',') if depth == 0 => at_field = true,
            _ => {}
        }
    }
}

/// If `toks[i]` is the `=` of an assignment (`=`, `+=`, `<<=`, ...; not
/// `==`, `!=`, `<=`, `>=` or `=>`), the index of the operator's first token.
fn assign_op_start(toks: &[Token], i: usize) -> Option<usize> {
    if !is_punct(&toks[i], '=')
        || toks
            .get(i + 1)
            .is_some_and(|t| matches!(t.tok, Tok::Punct('=' | '>')))
        || i < 2
    {
        return None;
    }
    match toks[i - 1].tok {
        Tok::Punct('+' | '-' | '*' | '/' | '%' | '^' | '&' | '|') => Some(i - 1),
        Tok::Punct(c @ ('<' | '>')) if is_punct(&toks[i - 2], c) => Some(i - 2),
        Tok::Punct('=' | '!' | '<' | '>') => None,
        _ => Some(i),
    }
}

/// K1 on the whole workspace: each indexed field that no literal of its
/// struct names and no assignment reaches.
fn knob_violations(idx: &KnobIndex, ctxs: &mut [FileCtx]) {
    for (name, field, file_idx, line) in &idx.fields {
        if idx.in_literal.contains(&(name.clone(), field.clone())) || idx.assigned.contains(field) {
            continue;
        }
        ctxs[*file_idx].raw.push((
            Rule::Knob,
            *line,
            format!(
                "`{name}::{field}` is set nowhere but its own `impl Default`; fold it into a \
                 const beside its reader, or allow it naming the second value a real caller needs"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint a set of sources. Paths select which rules apply to which file (see
/// the scope constants above); pass workspace-relative paths.
pub fn lint(files: &[SourceFile]) -> Report {
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    for f in files {
        let Some(role) = role(&f.path) else {
            continue;
        };
        let out = lex(&f.text);
        let spans = test_spans(&out.tokens);
        let mut annotations = Vec::new();
        let mut raw = Vec::new();
        for c in out.comments.iter().filter(|_| role == Role::Lib) {
            match parse_annotation(c) {
                Some(Ok(a)) => annotations.push(a),
                Some(Err(msg)) => raw.push((Rule::Meta, c.line, msg)),
                None => {}
            }
        }
        ctxs.push(FileCtx {
            path: f.path.clone(),
            role,
            tokens: out.tokens,
            spans,
            annotations,
            raw,
        });
    }

    let mut stats = StatsIndex::default();
    let mut watchdogs = WatchdogIndex::default();
    let mut knobs = KnobIndex::default();
    let mut refs = Refs::default();
    for (i, ctx) in ctxs.iter().enumerate() {
        index_refs(ctx, i, &mut refs);
        // An example, like a test, demonstrates a value; no workload runs it.
        if !ctx.path.starts_with("examples/") {
            index_knob_setters(ctx, &mut knobs);
        }
        if ctx.role == Role::Lib {
            index_stats(ctx, i, &mut stats);
            index_watchdogs(ctx, i, &mut watchdogs);
            index_knob_fields(ctx, i, &mut knobs);
        }
    }
    knob_violations(&knobs, &mut ctxs);
    for (i, ctx) in ctxs
        .iter_mut()
        .enumerate()
        .filter(|(_, c)| c.role == Role::Lib)
    {
        scan_det(ctx);
        scan_clock(ctx);
        scan_panic(ctx);
        scan_narrow(ctx);
        scan_unused(ctx, i, &refs);
    }
    for (name, &(file_idx, line)) in &stats.decls {
        if !stats.observed.contains(name) {
            ctxs[file_idx].raw.push((
                Rule::Stats,
                line,
                format!("pub struct {name} must implement Observe (observe_counters! or impl Observe)"),
            ));
        }
    }
    for (name, &(file_idx, line)) in &watchdogs.decls {
        if !watchdogs.tested.contains(name) {
            ctxs[file_idx].raw.push((
                Rule::Watchdog,
                line,
                format!(
                    "watchdog rule `{name}` has no fixture test; reference it from a \
                     #[test] that drives the rule to a violation"
                ),
            ));
        }
    }

    // Resolve allow annotations: same line, or a whole-line comment directly
    // above the offending line.
    let mut report = Report {
        files_checked: ctxs.iter().filter(|c| c.role == Role::Lib).count(),
        ..Report::default()
    };
    for ctx in &mut ctxs {
        for (rule, line, msg) in std::mem::take(&mut ctx.raw) {
            let allowed = ctx.annotations.iter_mut().find(|a| {
                a.rule == rule && (a.line == line || (a.whole_line && a.line + 1 == line))
            });
            match allowed {
                Some(a) if rule != Rule::Meta => {
                    a.used = true;
                    report.allows_honored += 1;
                }
                _ => report.violations.push(Violation {
                    rule,
                    path: ctx.path.clone(),
                    line,
                    msg,
                }),
            }
        }
        for a in &ctx.annotations {
            if !a.used {
                report.violations.push(Violation {
                    rule: Rule::Meta,
                    path: ctx.path.clone(),
                    line: a.line,
                    msg: format!(
                        "allow({}) matches no violation on its line; remove the stale annotation",
                        a.rule.id()
                    ),
                });
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Collect every workspace-owned `.rs` source: the linted library code
/// (`src/` of the umbrella crate plus `crates/*/src/`) and the files read
/// only as callers (`examples/`, `crates/*/benches/`, `perfbench/src/`).
/// Integration tests, vendored shims (`vendor/`) and lint fixtures are out
/// of scope.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut roots = vec![
        root.join("src"),
        root.join("examples"),
        root.join("perfbench").join("src"),
    ];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let krate = entry?.path();
            roots.push(krate.join("src"));
            roots.push(krate.join("benches"));
        }
    }
    for r in roots.iter().filter(|r| r.is_dir()) {
        walk(r, root, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel,
                text: fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}

/// Walk the workspace rooted at `root` and lint everything.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint(&collect_workspace(root)?))
}

/// Locate the workspace root: walk up from `start` until a directory holding
/// both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}
