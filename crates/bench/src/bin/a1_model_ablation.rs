//! A1 ablation: model class under model-driven push — which predictor
//! silences the radio best on the lab workload?

use presto_bench::experiments::a1_model_ablation;
use presto_bench::report::json_text;

fn main() {
    let days = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(6);
    let rows = a1_model_ablation(days, 19);
    println!("A1 — push rate by model class (tolerance 1.0)");
    print!("{}", json_text(&rows));
}
