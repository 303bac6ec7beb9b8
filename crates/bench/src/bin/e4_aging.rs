//! E4: graceful aging under storage pressure.

use presto_bench::experiments::e4_aging;
use presto_bench::report::json_text;

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let rows = e4_aging(days, 14);
    println!("E4 — queryable history with and without aging");
    print!("{}", json_text(&rows));
}
