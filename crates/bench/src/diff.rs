//! `bench-diff` — trajectory regression gate over `BENCH_*.json`.
//!
//! Compares a candidate benchmark artifact against a committed baseline
//! with per-metric tolerance bands. The gated surface is the headline
//! `scenario` / `throughput_ratio` pair, every numeric field of every
//! arm summary, and the flattened `metrics` list; the `timeline` and
//! `incidents` sections are for humans and trend tooling and are not
//! byte-gated (they move with every intentional behavior change).
//!
//! The crate's only JSON reader lives here: a minimal recursive-descent
//! parser into [`JsonValue`], sufficient for what the deterministic
//! emitter in [`crate::report`] produces (objects, arrays, strings,
//! numbers, booleans, null).
//!
//! Band policy, per key (first match wins):
//!
//! * keys matching a **must-stay-zero** invariant (leaks, stale
//!   confidence, unattributed incidents, fenced pumping, malformed
//!   traces) fail on any nonzero candidate reading;
//! * keys matching a **host-dependent** class (`alloc.*`, wall-clock
//!   `profiler.*.micros`) are reported but never gated — they vary
//!   across machines and compiler versions;
//! * **bad-up** keys (failures, drops, retransmits) gate only the
//!   upward direction; **bad-down** keys (completions, answers, hits)
//!   gate only the downward direction; everything else is two-sided.
//!
//! A reading passes its band when `|candidate - baseline|` is within
//! `max(abs_slack, rel_tol * |baseline|)` in the gated direction.

use std::collections::BTreeMap;

pub use crate::report::JsonValue;

// ---------------------------------------------------------------------------
// Minimal JSON parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated — input came from str).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("malformed number"))
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Tolerance bands
// ---------------------------------------------------------------------------

/// Which drift direction a key gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Any out-of-band drift is a regression.
    TwoSided,
    /// Only an out-of-band increase is a regression.
    BadUp,
    /// Only an out-of-band decrease is a regression.
    BadDown,
}

/// One key's tolerance band.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Relative tolerance as a fraction of the baseline magnitude.
    pub rel: f64,
    /// Absolute slack (wins for small baselines).
    pub abs: f64,
    /// Gated direction.
    pub direction: Direction,
}

/// Substring classes, first match wins. Keys naming failure/leak-style
/// counters gate upward only; keys naming useful-work counters gate
/// downward only.
const MUST_STAY_ZERO: &[&str] = &[
    "stale_confident",
    "answer_age_missing",
    "leak",
    "fenced_pumping",
    "trace_bad",
    "trace_orphans",
    "incidents_unattributed",
    "double_served",
];

/// Host-dependent rows: reported, never gated.
const UNGATED: &[&str] = &["alloc.", "micros"];

const BAD_UP: &[&str] = &[
    "failed",
    "dropped",
    "retransmit",
    "shed_episodes",
    "deadline",
    "misses",
    "evict",
    "incidents",
    "dead",
];

const BAD_DOWN: &[&str] = &[
    "completed",
    "answered",
    "submitted",
    "hits",
    "hit_rate",
    "throughput",
    "queries_per_sec",
    "terminals",
    "resumed",
    "age_count",
];

/// The band policy for one metric key.
pub fn band_for(key: &str) -> Option<Band> {
    if UNGATED.iter().any(|p| key.contains(p)) {
        return None;
    }
    if MUST_STAY_ZERO.iter().any(|p| key.contains(p)) {
        return Some(Band {
            rel: 0.0,
            abs: 0.0,
            direction: Direction::BadUp,
        });
    }
    let direction = if BAD_UP.iter().any(|p| key.contains(p)) {
        Direction::BadUp
    } else if BAD_DOWN.iter().any(|p| key.contains(p)) {
        Direction::BadDown
    } else {
        Direction::TwoSided
    };
    Some(Band {
        rel: 0.35,
        abs: 8.0,
        direction,
    })
}

/// Checks one reading against its band; `None` means in-band.
fn check(key: &str, baseline: f64, candidate: f64, band: Band) -> Option<String> {
    // Non-finite baselines (emitted as null) only require the candidate
    // to be non-finite too — e.g. an infinite throughput ratio.
    if !baseline.is_finite() || !candidate.is_finite() {
        return if baseline.is_finite() == candidate.is_finite() {
            None
        } else {
            Some(format!(
                "{key}: finiteness changed (baseline {baseline}, candidate {candidate})"
            ))
        };
    }
    let slack = band.abs.max(band.rel * baseline.abs());
    let delta = candidate - baseline;
    let out_of_band = match band.direction {
        Direction::TwoSided => delta.abs() > slack,
        Direction::BadUp => delta > slack,
        Direction::BadDown => delta < -slack,
    };
    if out_of_band {
        Some(format!(
            "{key}: {candidate} drifted out of band from baseline {baseline} \
             (slack {slack:.3}, {:?})",
            band.direction
        ))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Artifact comparison
// ---------------------------------------------------------------------------

/// Comparison outcome.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Out-of-band readings and structural mismatches.
    pub regressions: Vec<String>,
    /// In-band readings compared.
    pub compared: usize,
    /// Keys present only in the candidate (informational).
    pub added: usize,
}

impl DiffReport {
    /// No regressions found.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn metric_map(doc: &JsonValue) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(JsonValue::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    Some((
                        r.get("key")?.as_str()?.to_string(),
                        r.get("value")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn arm_map(doc: &JsonValue) -> BTreeMap<String, Vec<(String, f64)>> {
    doc.get("arms")
        .and_then(JsonValue::as_arr)
        .map(|arms| {
            arms.iter()
                .filter_map(|a| {
                    let name = a.get("arm")?.as_str()?.to_string();
                    let JsonValue::Obj(fields) = a else { return None };
                    let nums = fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                    Some((name, nums))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares a candidate artifact against its baseline.
pub fn compare_bench(baseline: &JsonValue, candidate: &JsonValue) -> DiffReport {
    let mut report = DiffReport::default();
    let base_scenario = baseline.get("scenario").and_then(JsonValue::as_str);
    let cand_scenario = candidate.get("scenario").and_then(JsonValue::as_str);
    if base_scenario != cand_scenario {
        report.regressions.push(format!(
            "scenario mismatch: baseline {base_scenario:?}, candidate {cand_scenario:?}"
        ));
        return report;
    }

    let ratio = (
        baseline.get("throughput_ratio").and_then(JsonValue::as_f64),
        candidate.get("throughput_ratio").and_then(JsonValue::as_f64),
    );
    if let (Some(b), Some(c)) = ratio {
        let band = Band {
            rel: 0.25,
            abs: 0.05,
            direction: Direction::BadDown,
        };
        match check("throughput_ratio", b, c, band) {
            Some(msg) => report.regressions.push(msg),
            None => report.compared += 1,
        }
    }

    // Arms, matched by name; every baseline arm and numeric field must
    // survive.
    let base_arms = arm_map(baseline);
    let cand_arms = arm_map(candidate);
    for (name, fields) in &base_arms {
        let Some(cand_fields) = cand_arms.get(name) else {
            report
                .regressions
                .push(format!("arm `{name}` missing from candidate"));
            continue;
        };
        for (field, b) in fields {
            let Some((_, c)) = cand_fields.iter().find(|(k, _)| k == field) else {
                report
                    .regressions
                    .push(format!("arm `{name}` field `{field}` missing from candidate"));
                continue;
            };
            if let Some(band) = band_for(field) {
                match check(&format!("arms.{name}.{field}"), *b, *c, band) {
                    Some(msg) => report.regressions.push(msg),
                    None => report.compared += 1,
                }
            }
        }
    }

    // Flattened metrics.
    let base_metrics = metric_map(baseline);
    let cand_metrics = metric_map(candidate);
    for (key, b) in &base_metrics {
        let Some(band) = band_for(key) else { continue };
        let Some(c) = cand_metrics.get(key) else {
            report
                .regressions
                .push(format!("metric `{key}` missing from candidate"));
            continue;
        };
        match check(&format!("metrics.{key}"), *b, *c, band) {
            Some(msg) => report.regressions.push(msg),
            None => report.compared += 1,
        }
    }
    report.added = cand_metrics
        .keys()
        .filter(|k| !base_metrics.contains_key(*k))
        .count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{json_text, ArmSummary, BenchJson, MetricLine};

    // Rows outside tests come only from `ArmSummary::new`; a test row
    // starts zeroed and sets the fields under test.
    #[allow(clippy::field_reassign_with_default)]
    fn bench(ratio: f64, failed: u64, metrics: &[(&str, f64)]) -> BenchJson {
        let mut arm = ArmSummary::default();
        arm.arm = "shed-on".into();
        arm.submitted = 500;
        arm.answered_ok = 480;
        arm.failed = failed;
        BenchJson {
            scenario: "fleet".into(),
            throughput_ratio: ratio,
            arms: vec![arm],
            metrics: metrics
                .iter()
                .map(|(k, v)| MetricLine {
                    key: (*k).into(),
                    value: *v,
                })
                .collect(),
            ..BenchJson::default()
        }
    }

    fn parse(b: &BenchJson) -> JsonValue {
        parse_json(&json_text(b)).expect("emitter output parses")
    }

    #[test]
    fn parser_round_trips_emitter_output() {
        let b = bench(1.5, 20, &[("pipeline.rpcs_issued", 321.0)]);
        let doc = parse(&b);
        assert_eq!(
            doc.get("scenario").and_then(JsonValue::as_str),
            Some("fleet")
        );
        assert_eq!(metric_map(&doc).get("pipeline.rpcs_issued"), Some(&321.0));
        assert_eq!(arm_map(&doc)["shed-on"]
            .iter()
            .find(|(k, _)| k == "submitted")
            .map(|(_, v)| *v), Some(500.0));
    }

    #[test]
    fn parser_handles_escapes_and_null() {
        let doc = parse_json(r#"{"k": "a\"b\\c\nd", "v": null, "t": true}"#).unwrap();
        assert_eq!(doc.get("k").and_then(JsonValue::as_str), Some("a\"b\\c\nd"));
        assert!(doc.get("v").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(doc.get("t"), Some(&JsonValue::Bool(true)));
        assert!(parse_json("{\"k\": }").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn identical_artifacts_diff_clean() {
        let b = bench(1.5, 20, &[("pipeline.rpcs_issued", 321.0)]);
        let report = compare_bench(&parse(&b), &parse(&b));
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(report.compared > 5);
    }

    #[test]
    fn direction_aware_bands_catch_the_bad_side_only() {
        let base = bench(1.5, 20, &[("fleet_router.failed_deadline", 20.0)]);
        // Fewer failures: improvement, not a regression.
        let better = bench(1.6, 10, &[("fleet_router.failed_deadline", 5.0)]);
        assert!(compare_bench(&parse(&base), &parse(&better)).is_clean());
        // Failure count doubling past the band: regression.
        let worse = bench(1.5, 60, &[("fleet_router.failed_deadline", 60.0)]);
        let report = compare_bench(&parse(&base), &parse(&worse));
        assert!(!report.is_clean());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("failed_deadline")), "{:?}", report.regressions);
    }

    #[test]
    fn zero_invariants_fail_on_any_nonzero_reading() {
        let base = bench(1.5, 20, &[("fleet.leak_router_open", 0.0)]);
        let leaky = bench(1.5, 20, &[("fleet.leak_router_open", 1.0)]);
        let report = compare_bench(&parse(&base), &parse(&leaky));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("leak_router_open")), "{:?}", report.regressions);
    }

    #[test]
    fn missing_metric_and_ungated_alloc_rows() {
        let base = bench(
            1.5,
            20,
            &[("pipeline.rpcs_issued", 100.0), ("alloc.peak_bytes", 1e9)],
        );
        // Dropping a gated metric is a regression; alloc rows may drift
        // or vanish freely.
        let cand = bench(1.5, 20, &[("pipeline.rpcs_issued", 110.0)]);
        let report = compare_bench(&parse(&base), &parse(&cand));
        assert!(report.is_clean(), "{:?}", report.regressions);
        let gone = bench(1.5, 20, &[("alloc.peak_bytes", 5e12)]);
        let report = compare_bench(&parse(&base), &parse(&gone));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("pipeline.rpcs_issued")), "{:?}", report.regressions);
    }

    #[test]
    fn throughput_ratio_gates_downward_only() {
        let base = bench(1.5, 20, &[]);
        let faster = bench(3.0, 20, &[]);
        assert!(compare_bench(&parse(&base), &parse(&faster)).is_clean());
        let slower = bench(0.9, 20, &[]);
        let report = compare_bench(&parse(&base), &parse(&slower));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("throughput_ratio")), "{:?}", report.regressions);
    }
}
