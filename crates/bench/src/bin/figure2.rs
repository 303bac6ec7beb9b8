//! Regenerates Figure 2: total push energy vs batching interval.
//!
//! Usage: `cargo run --release -p presto-bench --bin figure2 [days]`
//! (default 36 days, matching the Intel Lab trace span).

use presto_bench::figure2::{check_shape, generate, render, Figure2Config};

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(36);
    let cfg = Figure2Config {
        days,
        ..Figure2Config::default()
    };
    let data = generate(&cfg);
    print!("{}", render(&data));
    match check_shape(&data) {
        Ok(()) => println!("\nshape check: OK (batched arms decrease, wavelet below raw, value-driven flat with d1 > d2)"),
        Err(e) => println!("\nshape check: FAILED — {e}"),
    }
    println!("\nJSON:");
    print!("{}", presto_bench::report::json_text(&data));
}
