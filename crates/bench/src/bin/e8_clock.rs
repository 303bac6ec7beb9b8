//! E8: timestamp correction across drifting sensor clocks.

use presto_bench::experiments::e8_clock;
use presto_bench::report::json_text;

fn main() {
    let rows = e8_clock(18);
    println!("E8 — ordering violations before/after clock correction");
    print!("{}", json_text(&rows));
}
