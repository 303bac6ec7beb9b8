//! Cross-crate property tests on system invariants that the per-crate
//! suites cannot express: conservation of samples through the sensor →
//! proxy pipeline, cache ordering under arbitrary interleavings, the
//! push-tolerance invariant under random workloads, and equivalence of
//! the indexed archive read path with a naive full scan.

use proptest::prelude::*;

use presto::archive::{ArchiveConfig, ArchiveStore};
use presto::net::LinkModel;
use presto::proxy::cache::{CacheSource, CachedSample, SensorCache};
use presto::proxy::{PrestoProxy, ProxyConfig};
use presto::sensor::{PushPolicy, SensorConfig, SensorNode, UplinkPayload};
use presto::sim::{EnergyLedger, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every sample fed to a batched sensor over a lossless link reaches
    /// the proxy exactly once, in order, regardless of batching interval.
    #[test]
    fn batched_pipeline_conserves_samples(
        interval_mins in 1u64..120,
        values in proptest::collection::vec(-20.0f64..60.0, 10..400),
    ) {
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::Batched {
                    interval: SimDuration::from_mins(interval_mins),
                    compression: None,
                },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut received: Vec<(SimTime, f64)> = Vec::new();
        let mut last_t = SimTime::ZERO;
        for (i, &v) in values.iter().enumerate() {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i as u64;
            last_t = t;
            for msg in node.on_sample(t, v) {
                if let UplinkPayload::Batch { samples, .. } = msg.payload {
                    received.extend(samples);
                }
            }
        }
        if let Some(msg) = node.flush_batch(last_t) {
            if let UplinkPayload::Batch { samples, .. } = msg.payload {
                received.extend(samples);
            }
        }
        prop_assert_eq!(received.len(), values.len());
        // In order, with exact timestamps and f32-rounded values.
        for (i, (t, v)) in received.iter().enumerate() {
            prop_assert_eq!(*t, SimTime::ZERO + SimDuration::from_secs(31) * i as u64);
            prop_assert!((v - values[i]).abs() < 1e-3);
        }
    }

    /// The proxy cache stays time-sorted and bounded under arbitrary
    /// insertion orders and provenances.
    #[test]
    fn cache_is_always_sorted_and_bounded(
        capacity in 1usize..64,
        inserts in proptest::collection::vec((0u64..10_000, -50.0f64..50.0, 0u8..3), 0..200),
    ) {
        let mut cache = SensorCache::new(capacity);
        for (secs, v, src) in &inserts {
            cache.insert(CachedSample {
                t: SimTime::from_secs(*secs),
                value: *v,
                source: match src {
                    0 => CacheSource::Pushed,
                    1 => CacheSource::Batch,
                    _ => CacheSource::Pulled,
                },
            });
        }
        prop_assert!(cache.len() <= capacity);
        let all: Vec<_> = cache.range(SimTime::ZERO, SimTime::from_secs(20_000)).collect();
        prop_assert!(all.windows(2).all(|w| w[0].t <= w[1].t));
        // latest_at agrees with a linear scan.
        for probe in [0u64, 100, 5_000, 9_999] {
            let t = SimTime::from_secs(probe);
            let expect = all.iter().rev().find(|s| s.t <= t).copied();
            prop_assert_eq!(cache.latest_at(t).map(|s| s.t), expect.map(|s| s.t));
        }
    }

    /// A run insert leaves exactly what per-sample inserts leave — the
    /// same samples in the same order, the same `last_heard` — for runs
    /// with repeated timestamps, mixed provenance or unsorted order,
    /// placed entirely older than the cache, straddling its front,
    /// inside it, straddling its tail and entirely newer.
    #[test]
    fn run_insert_matches_per_sample_inserts(
        capacity in 1usize..64,
        inserts in proptest::collection::vec((0u64..100, -50.0f64..50.0, 0u8..3), 0..120),
        run in proptest::collection::vec((0u64..40, -50.0f64..50.0, 0u8..3), 1..60),
        sorted in any::<bool>(),
        one_source in any::<bool>(),
    ) {
        let source = |src: u8| match src {
            0 => CacheSource::Pushed,
            1 => CacheSource::Batch,
            _ => CacheSource::Pulled,
        };
        let mut start = SensorCache::new(capacity);
        for &(k, value, src) in &inserts {
            start.insert(CachedSample {
                t: SimTime::from_secs(1_000 + 10 * k),
                value,
                source: source(src),
            });
        }
        let all: Vec<_> = start.range(SimTime::ZERO, SimTime::from_secs(10_000)).collect();
        let front = all.first().map_or(1_000, |s| s.t.as_secs());
        let back = all.last().map_or(2_000, |s| s.t.as_secs());
        let inside_slots = (back - front) / 10 + 1;
        let mut run = run;
        if sorted {
            run.sort_by_key(|&(k, _, _)| k);
        }
        for placement in 0..5 {
            let samples: Vec<CachedSample> = run
                .iter()
                .map(|&(k, value, src)| CachedSample {
                    t: SimTime::from_secs(match placement {
                        0 => front - 10 * (k + 1),
                        1 => front - 200 + 10 * k,
                        2 => front + 10 * (k % inside_slots),
                        3 => back - 200 + 10 * k,
                        _ => back + 10 * (k + 1),
                    }),
                    value,
                    source: source(if one_source { run[0].2 } else { src }),
                })
                .collect();
            let mut merged = start.clone();
            merged.insert_run(&samples, |s| *s);
            let mut reference = start.clone();
            for s in &samples {
                reference.insert(*s);
            }
            prop_assert!(merged.len() <= capacity);
            prop_assert_eq!(
                merged.range(SimTime::ZERO, SimTime::from_secs(10_000)).collect::<Vec<_>>(),
                reference.range(SimTime::ZERO, SimTime::from_secs(10_000)).collect::<Vec<_>>(),
                "placement {}", placement
            );
            prop_assert_eq!(merged.last_heard, reference.last_heard);
        }
    }

    /// The model-driven push invariant: between pushes, sensor-side
    /// prediction error never exceeds the tolerance — for any random
    /// walk the sensor observes.
    #[test]
    fn push_tolerance_invariant_holds_for_random_walks(
        tolerance in 0.2f64..3.0,
        steps in proptest::collection::vec(-1.0f64..1.0, 50..300),
    ) {
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::ModelDriven { tolerance },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut proxy = PrestoProxy::new(ProxyConfig {
            push_tolerance: tolerance,
            ..ProxyConfig::default()
        });
        proxy.register_sensor(0);

        // Without a model every sample pushes; the proxy therefore hears
        // everything and its cache equals the truth — the degenerate,
        // always-safe case. Install a trivial trend model to exercise
        // the conform/deviate split.
        let hist: Vec<(SimTime, f64)> = (0..200u64)
            .map(|i| (SimTime::from_secs(31 * i), 20.0))
            .collect();
        let (model, _) = presto::models::LinearTrendModel::train(&hist);
        use presto::models::Predictor as _;
        node.handle_downlink(
            SimTime::ZERO,
            &presto::sensor::DownlinkMsg::ModelUpdate {
                kind: presto::models::ModelKind::LinearTrend,
                params: model.encode_params(),
            },
        );
        prop_assert!(node.has_model());

        // Walk: each silent epoch, the sensor's replica (mirrored at the
        // proxy via pushes) must be within tolerance of the truth.
        let mut value = 20.0;
        let mut replica = presto::models::LinearTrendModel::decode_params(
            &model.encode_params(),
        ).expect("own params decode");
        let start = SimTime::from_secs(31 * 200);
        for (i, d) in steps.iter().enumerate() {
            value += d;
            let t = start + SimDuration::from_secs(31 * i as u64);
            let pushed = !node.on_sample(t, value).is_empty();
            if pushed {
                replica.observe(t, value);
            } else {
                // Silence ⇒ the shared replica predicts within tolerance.
                let err = (replica.predict(t).value - value).abs();
                prop_assert!(err <= tolerance + 1e-9, "silent err {} > {}", err, tolerance);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed archive read path (segment index + page time
    /// directory + decoded-page LRU + one result buffer) returns results
    /// byte-identical to a naive decode-everything full scan, across
    /// randomized append / flush / reclaim / query schedules — including
    /// aged segments, out-of-order appends, and the RAM page-buffer
    /// tail.
    #[test]
    fn indexed_archive_queries_match_fullscan(
        capacity_kb in 4usize..24,
        aging in 0u8..2,
        ops in proptest::collection::vec((0u8..10, 0u64..100, -50.0f64..50.0), 40..400),
        windows in proptest::collection::vec((0u64..45_000, 0u64..20_000), 1..8),
    ) {
        let mut store = ArchiveStore::new(ArchiveConfig {
            capacity_bytes: capacity_kb * 1024,
            aging_enabled: aging == 1,
            ..ArchiveConfig::default()
        });
        let mut l = EnergyLedger::new();
        let mut now_s = 0u64;
        for &(kind, dt, v) in &ops {
            match kind {
                // Force a page program mid-schedule.
                6 => store.flush_page(&mut l).unwrap(),
                // An out-of-order tail (late-arriving timestamp).
                7 => now_s = now_s.saturating_sub(40),
                // A semantic event.
                5 => store
                    .append_event(SimTime::from_secs(now_s), (dt % 5) as u16, &[dt as u8], &mut l)
                    .unwrap(),
                // Mid-schedule query with the page buffer still dirty.
                8 => {
                    let a = SimTime::from_secs(now_s.saturating_sub(2_000));
                    let b = SimTime::from_secs(now_s + 500);
                    prop_assert_eq!(
                        store.query_range(a, b, &mut l).unwrap(),
                        store.query_range_fullscan(a, b, &mut l).unwrap(),
                    );
                }
                _ => store.append_scalar(SimTime::from_secs(now_s), v, &mut l).unwrap(),
            }
            now_s += dt;
        }
        for &(start_s, len_s) in &windows {
            let a = SimTime::from_secs(start_s);
            let b = SimTime::from_secs(start_s + len_s);
            prop_assert_eq!(
                store.query_range(a, b, &mut l).unwrap(),
                store.query_range_fullscan(a, b, &mut l).unwrap(),
                "range divergence on [{}s, {}s]", start_s, start_s + len_s,
            );
            prop_assert_eq!(
                store.query_events(a, b, &mut l).unwrap(),
                store.query_events_fullscan(a, b, &mut l).unwrap(),
                "event divergence on [{}s, {}s]", start_s, start_s + len_s,
            );
        }
    }
}
