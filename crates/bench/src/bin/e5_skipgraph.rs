//! E5: skip-graph hop scaling with proxy count.

use presto_bench::experiments::e5_skipgraph;
use presto_bench::report::json_text;

fn main() {
    let rows = e5_skipgraph(15);
    println!("E5 — skip-graph search/insert hops vs proxies");
    print!("{}", json_text(&rows));
}
