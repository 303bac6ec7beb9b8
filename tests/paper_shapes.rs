//! Regression checks on the *shape* of every paper artifact: quick-size
//! runs of the Figure 2 sweep and the Table 1 comparison must preserve
//! the qualitative relationships the paper reports.

use presto_bench::figure2::{check_shape as figure2_shape, generate as figure2};
use presto_bench::table1::{check_shape as table1_shape, generate as table1};

#[test]
fn figure2_shape_holds_on_a_week() {
    let data = figure2(7);
    figure2_shape(&data).unwrap();
    // Magnitudes live in the paper's 0–3000 J range when scaled to the
    // full 36-day trace (7 days ≈ 1/5 of it).
    let v1 = data.rows[0].value_delta1_j * 36.0 / 7.0;
    assert!(
        (300.0..3000.0).contains(&v1),
        "delta=1 out of the paper's range: {v1} J"
    );
}

#[test]
fn figure2_batching_amortizes_by_an_order_of_magnitude() {
    let data = figure2(7);
    let first = &data.rows[0];
    let last = data.rows.last().expect("rows");
    assert!(
        first.batched_raw_j / last.batched_raw_j > 5.0,
        "batched raw {} -> {}",
        first.batched_raw_j,
        last.batched_raw_j
    );
    assert!(
        first.batched_wavelet_j / last.batched_wavelet_j > 20.0,
        "batched wavelet {} -> {}",
        first.batched_wavelet_j,
        last.batched_wavelet_j
    );
}

#[test]
fn table1_shape_holds() {
    let cfg = presto_baselines::DriverConfig {
        sensors: 3,
        days: 2,
        ..presto_baselines::DriverConfig::default()
    };
    let reports = table1(&cfg);
    table1_shape(&reports).unwrap();
}

#[test]
fn e_experiments_run_at_reduced_scale() {
    // Smoke-run every extension experiment at small scale; their own
    // units assert the detailed claims.
    let e1 = presto_bench::experiments::e1_rare_events(2, 1);
    assert!(!e1.arms.is_empty());
    let e5 = presto_bench::experiments::e5_skipgraph(2);
    assert_eq!(e5.len(), 8);
    let e7 = presto_bench::experiments::e7_asymmetry(3);
    assert_eq!(e7.len(), 5);
    let e8 = presto_bench::experiments::e8_clock(4);
    assert_eq!(e8.len(), 4);
}
