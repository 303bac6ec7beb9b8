//! E6: query–sensor matching — latency bound vs energy.

use presto_bench::experiments::e6_matching;
use presto_bench::report::json_text;

fn main() {
    let rows = e6_matching(16);
    println!("E6 — matched duty cycle: energy vs latency bound");
    print!("{}", json_text(&rows));
}
