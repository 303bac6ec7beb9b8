//! Microbenchmarks of the substrates: wavelet codec, model train/check,
//! skip-graph operations, and archive I/O. These quantify the ablation
//! knobs DESIGN.md calls out (model class, index size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use presto_archive::{ArchiveConfig, ArchiveStore};
use presto_index::SkipGraph;
use presto_models::{ArModel, Predictor, SeasonalArModel, SeasonalModel, SpatialGaussian};
use presto_sim::{EnergyLedger, SimDuration, SimTime};
use presto_wavelet::{Codec, CodecParams};
use presto_workloads::{LabDeployment, LabParams};

fn trace_values(n: usize) -> Vec<f64> {
    LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        7,
        SimDuration::from_secs(31 * n as u64),
    )
    .into_iter()
    .map(|r| r.value)
    .collect()
}

fn bench_wavelet(c: &mut Criterion) {
    let mut group = c.benchmark_group("wavelet_codec");
    for n in [64usize, 1024, 4096] {
        let xs = trace_values(n);
        group.bench_with_input(BenchmarkId::new("compress_denoise", n), &xs, |b, xs| {
            let codec = Codec::new(CodecParams::denoising());
            b.iter(|| codec.compress(xs))
        });
        group.bench_with_input(BenchmarkId::new("roundtrip_fine", n), &xs, |b, xs| {
            let codec = Codec::new(CodecParams::fine());
            b.iter(|| {
                let compressed = codec.compress(xs);
                Codec::decompress(&compressed).expect("own payload decodes")
            })
        });
    }
    group.finish();
}

fn history(n: usize) -> Vec<(SimTime, f64)> {
    trace_values(n)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (SimTime::from_secs(31 * i as u64), v))
        .collect()
}

fn bench_models(c: &mut Criterion) {
    let hist = history(5000);
    let mut group = c.benchmark_group("models");
    group.bench_function("train_seasonal", |b| {
        b.iter(|| SeasonalModel::train(&hist, 24))
    });
    group.bench_function("train_ar4", |b| b.iter(|| ArModel::train(&hist, 4)));
    // 5k samples, and 50k, the scale of a proxy's daily fit over a
    // full cache.
    for n in [5_000usize, 50_000] {
        group.bench_with_input(
            BenchmarkId::new("train_seasonal_ar", n),
            &history(n),
            |b, hist| b.iter(|| SeasonalArModel::train(hist, 24, 2)),
        );
    }
    // The hourly spatial refresh's shapes in the benchmark: two sensors
    // over a full cache, and eight over a few thousand aligned rows.
    for (rows, cols) in [(45_000usize, 2usize), (4_000, 8)] {
        let field = trace_values(rows);
        let data: Vec<f64> = field
            .iter()
            .flat_map(|&v| (0..cols).map(move |s| v + s as f64 * 0.5 + (v * s as f64).sin() * 0.1))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("spatial_train", format!("{rows}x{cols}")),
            &data,
            |b, data| b.iter(|| SpatialGaussian::train(data, cols)),
        );
    }
    let (model, _) = SeasonalArModel::train(&hist, 24, 2);
    let mut replica = model.clone_replica();
    group.bench_function("sensor_check", |b| {
        b.iter(|| replica.check(SimTime::from_days(2), 21.0, 1.0))
    });
    group.finish();
}

fn bench_skipgraph(c: &mut Criterion) {
    let mut group = c.benchmark_group("skipgraph");
    for n in [64u64, 1024] {
        let mut g: SkipGraph<u64> = SkipGraph::new(3);
        for k in 0..n {
            g.insert(k);
        }
        let intro = g.introducer().expect("non-empty");
        group.bench_with_input(BenchmarkId::new("search", n), &n, |b, &n| {
            let mut probe = 0;
            b.iter(|| {
                probe = (probe + 97) % n;
                g.search(intro, probe)
            })
        });
    }
    group.finish();
}

fn bench_archive(c: &mut Criterion) {
    let mut group = c.benchmark_group("archive");
    group.sample_size(20);
    group.bench_function("append_1k_scalars", |b| {
        b.iter(|| {
            let mut store = ArchiveStore::new(ArchiveConfig::default());
            let mut ledger = EnergyLedger::new();
            for i in 0..1000u64 {
                store
                    .append_scalar(SimTime::from_secs(31 * i), 20.0, &mut ledger)
                    .expect("append");
            }
            store
        })
    });
    group.bench_function("range_query_day", |b| {
        let mut store = ArchiveStore::new(ArchiveConfig::default());
        let mut ledger = EnergyLedger::new();
        for i in 0..2787u64 {
            store
                .append_scalar(SimTime::from_secs(31 * i), 20.0, &mut ledger)
                .expect("append");
        }
        b.iter(|| {
            store
                .query_range(SimTime::from_hours(6), SimTime::from_hours(18), &mut ledger)
                .expect("query")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wavelet,
    bench_models,
    bench_skipgraph,
    bench_archive
);
criterion_main!(benches);
