//! Elder-care activity monitoring: the paper's "mostly predictable with
//! occasional unpredictable events" application. A wearable's activity
//! level follows a daily routine the model learns; anomalies (falls,
//! wandering) defeat the model and are pushed immediately, while routine
//! hours cost almost nothing.
//!
//! Run with: `cargo run --release --example eldercare`

use presto::models::{ModelKind, Predictor, SeasonalArModel};
use presto::net::LinkModel;
use presto::sensor::{DownlinkMsg, PushPolicy, SensorConfig, SensorNode, UplinkPayload};
use presto::sim::{SimDuration, SimTime};
use presto::workloads::EldercareGen;

fn main() {
    let epoch = SimDuration::from_mins(1);

    // A quiet training week teaches the routine.
    let mut train_gen = EldercareGen::new(epoch, 0.0, 21);
    let history: Vec<(SimTime, f64)> = train_gen
        .generate(SimDuration::from_days(7))
        .into_iter()
        .map(|s| (s.timestamp, s.level))
        .collect();
    let (model, report) = SeasonalArModel::train(&history, 48, 2);
    println!(
        "trained routine model on {} samples ({} cycles at the proxy, residual sigma {:.3})",
        report.samples, report.train_cycles, report.residual_sigma
    );

    // The wearable runs model-driven push with the trained replica.
    let mut node = SensorNode::new(
        0,
        SensorConfig {
            push: PushPolicy::ModelDriven { tolerance: 0.25 },
            ..SensorConfig::default()
        },
        LinkModel::perfect(),
    );
    node.handle_downlink(
        SimTime::ZERO,
        &DownlinkMsg::ModelUpdate {
            kind: ModelKind::SeasonalAr,
            params: model.encode_params(),
        },
    );

    // A live week with ~1.5 anomalies per day.
    let mut live_gen = EldercareGen::new(epoch, 1.5, 22);
    let live = live_gen.generate(SimDuration::from_days(7));
    let mut anomaly_reports = 0usize;
    let mut level_pushes = 0usize;
    let mut anomalies = 0usize;
    for s in &live {
        let msgs = node.on_sample(s.timestamp, s.level);
        level_pushes += msgs
            .iter()
            .filter(|m| matches!(m.payload, UplinkPayload::Deviation { .. }))
            .count();
        if s.anomaly_onset {
            anomalies += 1;
            if node
                .on_event(s.timestamp, s.state.code(), Vec::new())
                .is_some()
            {
                anomaly_reports += 1;
            }
        }
    }

    let stats = node.stats();
    let ledger = node.ledger();
    println!("\none live week ({} samples):", live.len());
    println!("  anomalies injected:        {anomalies}");
    println!("  anomaly reports delivered: {anomaly_reports}");
    println!("  level deviation pushes:    {level_pushes}");
    println!(
        "  push rate: {:.1}% of samples (routine hours are silent)",
        100.0 * level_pushes as f64 / live.len() as f64
    );
    println!(
        "  sensor energy: {:.2} J total ({:.2} J radio, {:.4} J cpu, {:.4} J flash)",
        ledger.total(),
        ledger.radio_total(),
        ledger.category(presto::sim::EnergyCategory::Cpu),
        ledger.storage_total(),
    );
    println!(
        "  archive: {} records appended, pulls served: {}",
        stats.samples, stats.pulls_served
    );
}
