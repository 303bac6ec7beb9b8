//! The one JSON emitter, the `BENCH_*.json` artifact schema, and the
//! shared scenario summary lines.
//!
//! Every machine-readable output of this crate — scenario artifacts
//! (`BENCH_fleet.json`, …) and the experiment dumps of `table1`,
//! `figure2`, `e1`–`e8`, `a1` and `failure_scenario` — renders through
//! [`render_json`]: a value converts to a [`JsonValue`] via [`ToJson`]
//! (struct impls come from the field-listing [`json_object!`](crate::json_object!) macro),
//! and the renderer prints it deterministically:
//!
//! * strings escaped per RFC 8259;
//! * floats via Rust's shortest round-trip `Display` (identical bit
//!   patterns print identically), non-finite floats as `null`;
//! * a container prints on one line when that line fits in 100
//!   columns, otherwise one element per line.
//!
//! `bench-diff` byte-compares artifacts of same-seed runs, so nothing
//! here depends on `Debug` formatting or map iteration order. The only
//! reader is [`crate::diff::parse_json`].

use std::fmt::Write as _;

use presto_telemetry::{PrestoScope, Snapshot};

/// A JSON document: what [`ToJson`] produces, [`render_json`] prints,
/// and [`crate::diff::parse_json`] reads back.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null` (also what the emitter writes for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric reading (`null` reads as NaN — the emitter's non-finite
    /// encoding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String reading.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array reading.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Conversion into the emitter's value tree.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> JsonValue;
}

macro_rules! json_number {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            #[allow(clippy::unnecessary_cast)]
            fn to_json(&self) -> JsonValue {
                JsonValue::Num(*self as f64)
            }
        })*
    };
}
json_number!(f64, u64, usize);

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

/// Implements [`ToJson`] for a struct as an object of the listed
/// fields, in order — the JSON counterpart of `observe_counters!`:
///
/// ```ignore
/// json_object!(E2Row { tolerance, cache_hit, latency_mean_ms });
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::report::ToJson for $ty {
            fn to_json(&self) -> $crate::report::JsonValue {
                $crate::report::JsonValue::Obj(vec![
                    $((stringify!($f).to_string(), $crate::report::ToJson::to_json(&self.$f)),)*
                ])
            }
        }
    };
}

/// Widest container (indent included) the emitter keeps on one line.
const INLINE_WIDTH: usize = 100;

/// Escapes a string for a JSON string literal (quotes not included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One-line rendering.
fn inline(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(x) if x.is_finite() => format!("{x}"),
        JsonValue::Num(_) => "null".into(),
        JsonValue::Str(s) => format!("\"{}\"", json_escape(s)),
        JsonValue::Arr(items) => {
            let items: Vec<String> = items.iter().map(inline).collect();
            format!("[{}]", items.join(", "))
        }
        JsonValue::Obj(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), inline(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

fn write_value(out: &mut String, v: &JsonValue, depth: usize) {
    let flat = inline(v);
    let pad = "  ".repeat(depth + 1);
    let fits = 2 * depth + flat.len() <= INLINE_WIDTH;
    match v {
        JsonValue::Arr(items) if !fits && !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                write_value(out, item, depth + 1);
            }
            let _ = write!(out, "\n{}]", "  ".repeat(depth));
        }
        JsonValue::Obj(fields) if !fits && !fields.is_empty() => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                let _ = write!(out, "{pad}\"{}\": ", json_escape(k));
                write_value(out, item, depth + 1);
            }
            let _ = write!(out, "\n{}}}", "  ".repeat(depth));
        }
        _ => out.push_str(&flat),
    }
}

/// Renders a document as deterministic JSON text (newline-terminated).
pub fn render_json(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

/// [`render_json`] of any [`ToJson`] value.
pub fn json_text<T: ToJson + ?Sized>(value: &T) -> String {
    render_json(&value.to_json())
}

/// One flattened telemetry reading (`dotted.path`, value).
#[derive(Clone, Debug)]
pub struct MetricLine {
    /// Dotted snapshot path (`pipeline.rpcs_issued`, `profiler.epochs`).
    pub key: String,
    /// The reading.
    pub value: f64,
}

/// One arm's headline numbers in the shared artifact. Built only by
/// `ArmSummary::new` (in [`crate::driver`]) from a driver run.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(Default))]
pub struct ArmSummary {
    /// Arm label (`shed-on`, `with-partition`, …).
    pub arm: String,
    /// Queries submitted.
    pub submitted: u64,
    /// Terminals with a real (non-Failed) answer.
    pub answered_ok: u64,
    /// Honest failures.
    pub failed: u64,
    /// Answered-query throughput, queries per second.
    pub queries_per_sec: f64,
    /// Terminal-latency percentiles, seconds (failures included).
    pub latency_p50_s: f64,
    /// p90.
    pub latency_p90_s: f64,
    /// p99.
    pub latency_p99_s: f64,
    /// Answers that carried an explicit serve-time age.
    pub answer_age_count: u64,
    /// Real data-carrying answers *missing* the age stamp (must be 0).
    pub answer_age_missing: u64,
    /// Answer-age p50, seconds.
    pub answer_age_p50_s: f64,
    /// Queries shed off hot proxies.
    pub shed: u64,
    /// Sensors re-homed across proxy deaths.
    pub rehomed: u64,
    /// Downlink request retransmissions.
    pub retransmits: u64,
    /// Payload bytes the sensors offered to the MAC.
    pub radio_bytes: u64,
    /// Total sensor-tier energy, joules.
    pub sensor_energy_j: f64,
    /// Cache hit rate over archive-range lookups (slice-tier lookups
    /// when sliced execution ran, reply-cache lookups otherwise).
    pub cache_hit_rate: f64,
    /// Confident answers the oracles contradict (must be 0).
    pub stale_confident: u64,
    /// Finished query traces collected.
    pub trace_terminals: u64,
    /// Traces violating well-formedness (≠1 terminal or non-monotone
    /// timestamps; must be 0).
    pub trace_bad: u64,
    /// Open (un-terminated) trace logs after the drain (must be 0).
    pub trace_orphans: u64,
}

/// One downsampled bin of a presto-scope time series.
#[derive(Clone, Debug)]
pub struct TimelinePoint {
    /// Bin start, simulated seconds.
    pub t_s: f64,
    /// Minimum reading folded into the bin.
    pub min: f64,
    /// Maximum reading folded in.
    pub max: f64,
    /// Most recent reading folded in.
    pub last: f64,
    /// Raw readings folded in.
    pub samples: u64,
}

/// One sampled series' epoch trajectory.
#[derive(Clone, Debug)]
pub struct SeriesOut {
    /// Dotted snapshot path (or feed name) the series watched.
    pub path: String,
    /// Downsampled bins, oldest first.
    pub points: Vec<TimelinePoint>,
}

/// One watchdog incident, with its blame window.
#[derive(Clone, Debug)]
pub struct IncidentOut {
    /// Rule family (`stale_confident`, `answer_age_p99`, …).
    pub rule: String,
    /// The watched path.
    pub path: String,
    /// First violating epoch, simulated seconds.
    pub opened_s: f64,
    /// First clean epoch after the episode (`None` if still open).
    pub closed_s: Option<f64>,
    /// Worst offending reading inside the episode.
    pub observed: f64,
    /// The rule's bound.
    pub bound: f64,
    /// Whether any injected fault overlaps the violation window.
    pub attributed: bool,
    /// The `FaultPlan` faults active in the padded violation window.
    pub faults: Vec<String>,
}

/// The benchmark artifact a scenario bin writes.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(Default))]
pub struct BenchJson {
    /// Scenario name (`fleet`, `partition`, `slice`, `query_pipeline`).
    pub scenario: String,
    /// Headline cross-arm ratio (primary/secondary arm throughput).
    pub throughput_ratio: f64,
    /// Per-arm headline numbers.
    pub arms: Vec<ArmSummary>,
    /// The primary arm's flattened unified-telemetry snapshot plus its
    /// allocation rows.
    pub metrics: Vec<MetricLine>,
    /// The primary arm's presto-scope epoch trajectories.
    pub timeline: Vec<SeriesOut>,
    /// The primary arm's watchdog incident log.
    pub incidents: Vec<IncidentOut>,
}

json_object!(MetricLine { key, value });
json_object!(ArmSummary {
    arm,
    submitted,
    answered_ok,
    failed,
    queries_per_sec,
    latency_p50_s,
    latency_p90_s,
    latency_p99_s,
    answer_age_count,
    answer_age_missing,
    answer_age_p50_s,
    shed,
    rehomed,
    retransmits,
    radio_bytes,
    sensor_energy_j,
    cache_hit_rate,
    stale_confident,
    trace_terminals,
    trace_bad,
    trace_orphans,
});
json_object!(TimelinePoint { t_s, min, max, last, samples });
json_object!(SeriesOut { path, points });
json_object!(IncidentOut {
    rule,
    path,
    opened_s,
    closed_s,
    observed,
    bound,
    attributed,
    faults,
});
json_object!(BenchJson {
    scenario,
    throughput_ratio,
    arms,
    metrics,
    timeline,
    incidents,
});

/// Exports a scope's ring-buffered series as artifact timelines.
pub fn scope_timeline(scope: &PrestoScope) -> Vec<SeriesOut> {
    scope
        .series()
        .iter()
        .map(|(path, ring)| SeriesOut {
            path: path.clone(),
            points: ring
                .bins()
                .iter()
                .map(|b| TimelinePoint {
                    t_s: b.t.as_secs_f64(),
                    min: b.min,
                    max: b.max,
                    last: b.last,
                    samples: b.samples,
                })
                .collect(),
        })
        .collect()
}

/// Exports a scope's watchdog incident log as artifact rows.
pub fn scope_incidents(scope: &PrestoScope) -> Vec<IncidentOut> {
    scope
        .incidents()
        .iter()
        .map(|i| IncidentOut {
            rule: i.rule.to_string(),
            path: i.path.clone(),
            opened_s: i.opened_at.as_secs_f64(),
            closed_s: i.closed_at.map(|t| t.as_secs_f64()),
            observed: i.observed,
            bound: i.bound,
            attributed: i.attributed,
            faults: i.faults.iter().map(|f| format!("{f:?}")).collect(),
        })
        .collect()
}

/// Flattens a telemetry snapshot into artifact rows.
pub fn snapshot_metrics(snap: &Snapshot) -> Vec<MetricLine> {
    snap.flatten()
        .into_iter()
        .map(|(key, value)| MetricLine { key, value })
        .collect()
}

/// Renders the stable grep lines every scenario bin prints, one per arm
/// with every [`ArmSummary`] field, then the headline ratio:
///
/// ```text
/// scenario=fleet arm=shed-on submitted=812 answered_ok=700 ...
/// scenario=fleet throughput_ratio=1.43
/// ```
pub fn render_summary(b: &BenchJson) -> String {
    let mut out = String::new();
    for a in &b.arms {
        let _ = write!(out, "scenario={}", b.scenario);
        if let JsonValue::Obj(fields) = a.to_json() {
            for (k, v) in &fields {
                match v {
                    JsonValue::Str(s) => {
                        let _ = write!(out, " {k}={s}");
                    }
                    v => {
                        let _ = write!(out, " {k}={}", inline(v));
                    }
                }
            }
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "scenario={} throughput_ratio={:.4}",
        b.scenario, b.throughput_ratio
    );
    out
}

/// Writes the artifact to `path` and prints its summary lines; a write
/// error lands in `failures`.
pub fn publish(path: &str, b: &BenchJson, failures: &mut Vec<String>) {
    print!("{}", render_summary(b));
    if let Err(e) = std::fs::write(path, json_text(b)) {
        failures.push(format!("could not write {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::E7Row;

    // Rows outside tests come only from `ArmSummary::new`; a test row
    // starts zeroed and sets the fields under test.
    #[allow(clippy::field_reassign_with_default)]
    fn sample_bench() -> BenchJson {
        let mut arm = ArmSummary::default();
        arm.arm = "shed-on".into();
        arm.submitted = 10;
        arm.answered_ok = 9;
        arm.queries_per_sec = 0.125;
        BenchJson {
            scenario: "fleet".into(),
            throughput_ratio: f64::INFINITY,
            arms: vec![arm],
            metrics: vec![MetricLine {
                key: "pipeline.\"odd\\key\"".into(),
                value: f64::NAN,
            }],
            timeline: vec![SeriesOut {
                path: "fleet.pressure_max".into(),
                points: vec![TimelinePoint {
                    t_s: 30.0,
                    min: 1.0,
                    max: 4.5,
                    last: 2.0,
                    samples: 3,
                }],
            }],
            incidents: vec![IncidentOut {
                rule: "pressure_watermark".into(),
                path: "fleet.pressure_max".into(),
                opened_s: 60.0,
                closed_s: None,
                observed: 5.0,
                bound: 4.0,
                attributed: true,
                faults: vec!["MeshPartition { group: [2] }".into()],
            }],
        }
    }

    #[test]
    fn summary_lines_carry_stable_keys() {
        let mut b = sample_bench();
        let s = render_summary(&b);
        assert!(s.contains("scenario=fleet arm=shed-on submitted=10 answered_ok=9"), "{s}");
        assert!(s.contains("queries_per_sec=0.125"), "{s}");
        assert!(s.contains("scenario=fleet throughput_ratio=inf"), "{s}");
        // A finite headline ratio prints fixed to four decimals.
        b.throughput_ratio = 1.25;
        let s = render_summary(&b);
        assert!(s.contains("scenario=fleet throughput_ratio=1.2500\n"), "{s}");
    }

    #[test]
    fn bench_json_emitter_is_valid_and_escaped() {
        let json = json_text(&sample_bench());
        assert!(json.contains("\"scenario\": \"fleet\""), "{json}");
        assert!(json.contains("\"throughput_ratio\": null"), "{json}");
        // Quotes and backslashes in keys survive as JSON escapes.
        assert!(json.contains("pipeline.\\\"odd\\\\key\\\""), "{json}");
        // NaN values render as null, not as a bare token.
        assert!(json.contains("\"value\": null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        assert!(json.contains("\"timeline\""), "{json}");
        assert!(json.contains("\"t_s\": 30"), "{json}");
        assert!(json.contains("\"rule\": \"pressure_watermark\""), "{json}");
        assert!(json.contains("\"closed_s\": null"), "{json}");
        assert!(json.contains("\"attributed\": true"), "{json}");
        // Wide containers break one element per line; narrow ones stay
        // on one line.
        assert!(json.contains("\n    {\n      \"arm\": \"shed-on\",\n"), "{json}");
        assert!(json.contains("[{\"t_s\": 30, \"min\": 1, \"max\": 4.5"), "{json}");
    }

    #[test]
    fn bench_json_emitter_is_byte_deterministic() {
        let b = sample_bench();
        assert_eq!(json_text(&b), json_text(&b));
        // Empty sections still close their brackets.
        let json = json_text(&BenchJson::default());
        assert!(json.contains("\"arms\": []"), "{json}");
        assert!(json.contains("\"incidents\": []"), "{json}");
    }

    #[test]
    fn experiment_rows_render_escaped_null_and_deterministic() {
        let rows = vec![
            E7Row {
                model: "ar(\"4\")\\x".into(),
                train_cycles: 1200,
                check_cycles: 3,
                ratio: f64::NAN,
                param_bytes: 24,
            },
            E7Row {
                model: "markov(8)".into(),
                train_cycles: 900,
                check_cycles: 0,
                ratio: f64::INFINITY,
                param_bytes: 66,
            },
        ];
        let json = json_text(&rows);
        assert!(json.contains("\"model\": \"ar(\\\"4\\\")\\\\x\""), "{json}");
        assert!(json.contains("\"ratio\": null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"train_cycles\": 1200"), "{json}");
        assert_eq!(json, json_text(&rows), "two renders must be byte-identical");
        let doc = crate::diff::parse_json(&json).expect("emitter output parses");
        assert_eq!(doc.as_arr().map(<[JsonValue]>::len), Some(2));
    }
}
