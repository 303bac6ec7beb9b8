//! Trajectory regression gate: compare two `BENCH_*.json` artifacts.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--deny]
//! ```
//!
//! Parses both artifacts, compares the headline ratio, every arm
//! summary field, and the flattened metrics list against per-metric
//! tolerance bands (see `presto_bench::diff`), and prints one line per
//! out-of-band reading and one `NEW <key>` line per metric row only the
//! candidate has. With `--deny`, any regression (or unreadable
//! artifact) exits non-zero — the CI wiring runs each scenario smoke
//! and then gates its fresh BENCH file against the committed baseline
//! in `crates/baselines/bench/`.

use presto_bench::diff::{compare_bench, parse_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny = args.iter().any(|a| a == "--deny");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [baseline_path, candidate_path] = paths.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <candidate.json> [--deny]");
        std::process::exit(2);
    };
    let load = |path: &str| -> Result<_, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench-diff: {e}");
                }
            }
            std::process::exit(2);
        }
    };
    let report = compare_bench(&baseline, &candidate);
    for r in &report.regressions {
        println!("REGRESSION {r}");
    }
    for key in &report.added {
        println!("NEW {key}");
    }
    println!(
        "bench-diff: {} readings in band, {} regressions, {} new candidate metrics \
         ({baseline_path} vs {candidate_path})",
        report.compared,
        report.regressions.len(),
        report.added.len()
    );
    if deny && !report.is_clean() {
        eprintln!("bench-diff --deny: candidate drifted out of tolerance");
        std::process::exit(1);
    }
}
