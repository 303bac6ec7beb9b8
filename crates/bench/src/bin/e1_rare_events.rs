//! E1: rare-event recall — model-driven push vs periodic pull.

use presto_bench::experiments::e1_rare_events;
use presto_bench::report::json_text;

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let r = e1_rare_events(days, 11);
    println!(
        "E1 — rare-event recall over {days} days ({} events injected)",
        r.events
    );
    print!("{}", json_text(&r));
}
