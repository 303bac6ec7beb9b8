//! E7: model build/check asymmetry.

use presto_bench::experiments::e7_asymmetry;
use presto_bench::report::json_text;

fn main() {
    let rows = e7_asymmetry(17);
    println!("E7 — proxy train cycles vs sensor check cycles");
    print!("{}", json_text(&rows));
}
