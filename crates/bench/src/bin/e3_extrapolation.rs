//! E3: extrapolation accuracy vs the push-tolerance guarantee.

use presto_bench::experiments::e3_extrapolation;
use presto_bench::report::json_text;

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let rows = e3_extrapolation(days, 13);
    println!("E3 — extrapolation error vs push tolerance");
    print!("{}", json_text(&rows));
}
