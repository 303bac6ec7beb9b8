//! E2: answer-path breakdown and latency vs query tolerance.

use presto_bench::experiments::e2_latency;
use presto_bench::report::json_text;

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let rows = e2_latency(days, 12);
    println!("E2 — answer path vs query tolerance");
    print!("{}", json_text(&rows));
}
