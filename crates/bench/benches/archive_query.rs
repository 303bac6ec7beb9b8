//! Archive query-path bench: demonstrates that the indexed read path
//! (segment index + per-page time directory + decoded-page LRU + one
//! result buffer) costs O(pages overlapping the window) while the
//! pre-index full scan costs O(total archive pages).
//!
//! Arms, per archive size (32 and 128 blocks):
//!
//! * `narrow_indexed` — a window covering ≤ 1 block of data, indexed;
//! * `narrow_fullscan` — the same window through the full-scan
//!   reference path;
//! * `narrow_hot` — the same indexed window repeated against a warm
//!   decoded-page LRU;
//! * `full_indexed` — the whole history, indexed.
//!
//! Besides wall-clock, the run asserts the flash `reads` counters: the
//! narrow indexed query must touch ≥ 5× fewer pages than the full scan
//! on a ≥ 32-block archive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use presto_archive::{ArchiveConfig, ArchiveStore};
use presto_sim::{EnergyLedger, SimDuration, SimTime};

/// Dataflash geometry: 264-byte pages, 8 pages per block.
const BLOCK_BYTES: usize = 264 * 8;
/// 15-byte scalar records, 262 payload bytes per page.
const RECORDS_PER_BLOCK: u64 = (262 / 15) * 8;
const SAMPLE_STEP: SimDuration = SimDuration::from_secs(31);

/// Fills `blocks` worth of flash with 31-second scalars (no
/// reclamation), returning the store and the last timestamp.
fn filled_store(blocks: usize, cache_pages: usize) -> (ArchiveStore, SimTime) {
    let cfg = ArchiveConfig {
        capacity_bytes: blocks * BLOCK_BYTES,
        aging_enabled: false,
        page_cache_pages: cache_pages,
    };
    let mut store = ArchiveStore::new(cfg);
    let mut l = EnergyLedger::new();
    // Fill just short of capacity so no block is reclaimed.
    let n = (blocks as u64 - 1) * RECORDS_PER_BLOCK;
    let mut last = SimTime::ZERO;
    for i in 0..n {
        last = SimTime::ZERO + SAMPLE_STEP * i;
        let v = 20.0 + (i as f64 * 0.003).sin() * 4.0;
        store.append_scalar(last, v, &mut l).expect("within capacity");
    }
    store.flush_page(&mut l).expect("flush");
    (store, last)
}

/// A window holding at most one block's worth of samples, from the
/// middle of the history.
fn narrow_window(last: SimTime) -> (SimTime, SimTime) {
    let mid = SimTime::ZERO + (last - SimTime::ZERO) / 2;
    (mid, mid + SAMPLE_STEP * (RECORDS_PER_BLOCK - 1))
}

/// Counter-based acceptance check: pages touched by the narrow indexed
/// query vs the full scan, independent of machine speed.
fn assert_pages_touched_ratio(blocks: usize) {
    let (mut store, last) = filled_store(blocks, 0);
    let mut l = EnergyLedger::new();
    let (t0, t1) = narrow_window(last);

    let before = store.flash_stats().reads;
    let indexed = store.query_range(t0, t1, &mut l).expect("indexed query");
    let indexed_reads = store.flash_stats().reads - before;

    let before = store.flash_stats().reads;
    let scanned = store
        .query_range_fullscan(t0, t1, &mut l)
        .expect("fullscan query");
    let fullscan_reads = store.flash_stats().reads - before;

    assert_eq!(indexed, scanned, "indexed and fullscan results diverged");
    assert!(!indexed.is_empty(), "narrow window unexpectedly empty");
    let ratio = fullscan_reads as f64 / indexed_reads.max(1) as f64;
    eprintln!(
        "  [pages touched] {blocks}-block archive, narrow window: \
         indexed {indexed_reads} reads vs fullscan {fullscan_reads} reads ({ratio:.1}x)"
    );
    assert!(
        ratio >= 5.0,
        "indexed narrow query must touch >=5x fewer pages ({ratio:.1}x on {blocks} blocks)"
    );
}

fn bench_archive_query(c: &mut Criterion) {
    for blocks in [32usize, 128] {
        assert_pages_touched_ratio(blocks);
    }

    let mut group = c.benchmark_group("archive_query");
    group.sample_size(20);
    for blocks in [32usize, 128] {
        // LRU sized 0 on the cold arms so every iteration pays real
        // (simulated) flash reads.
        let (mut cold, last) = filled_store(blocks, 0);
        let (t0, t1) = narrow_window(last);
        group.bench_with_input(BenchmarkId::new("narrow_indexed", blocks), &(), |b, ()| {
            let mut l = EnergyLedger::new();
            b.iter(|| cold.query_range(t0, t1, &mut l).expect("query"))
        });

        let (mut scan, _) = filled_store(blocks, 0);
        group.bench_with_input(BenchmarkId::new("narrow_fullscan", blocks), &(), |b, ()| {
            let mut l = EnergyLedger::new();
            b.iter(|| scan.query_range_fullscan(t0, t1, &mut l).expect("query"))
        });

        // Warm LRU: the proxy's repeated PAST pulls over the same recent
        // range.
        let (mut hot, _) = filled_store(blocks, 64);
        group.bench_with_input(BenchmarkId::new("narrow_hot", blocks), &(), |b, ()| {
            let mut l = EnergyLedger::new();
            b.iter(|| hot.query_range(t0, t1, &mut l).expect("query"))
        });

        let (mut full, _) = filled_store(blocks, 0);
        group.bench_with_input(BenchmarkId::new("full_indexed", blocks), &(), |b, ()| {
            let mut l = EnergyLedger::new();
            b.iter(|| {
                full.query_range(SimTime::ZERO, last + SAMPLE_STEP, &mut l)
                    .expect("query")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_archive_query);
criterion_main!(benches);
