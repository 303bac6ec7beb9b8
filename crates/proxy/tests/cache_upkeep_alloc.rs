//! Keeping the proxy's caches and spatial model current must cost what
//! changed, not what the history holds: the hourly spatial refresh
//! aligns every cache in one flat buffer instead of one `Vec` per row,
//! and a pull reply merges into a full cache in place. This binary
//! installs the counting allocator and holds a single test, so the
//! global count sees only the calls it measures.

use presto_archive::Quality;
use presto_proxy::cache::CacheSource;
use presto_proxy::{PrestoProxy, ProxyConfig};
use presto_sensor::msg::ReplySample;
use presto_sensor::{UplinkMsg, UplinkPayload};
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::alloc::{allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SENSORS: u16 = 4;
const CAPACITY: usize = 20_000;
/// Epochs fed: every fourth is skipped, which leaves 20 250 samples per
/// sensor, so each cache ends full with holes a pull can fill.
const EPOCHS: u64 = 27_000;

fn at(epoch: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(31) * epoch
}

fn value(sensor: u16, epoch: u64) -> f64 {
    20.0 + f64::from(sensor) * 0.5 + (epoch as f64 * 0.01).sin()
}

#[test]
fn cache_upkeep_does_not_scale_allocations_with_history() {
    let mut proxy = PrestoProxy::new(ProxyConfig {
        cache_capacity: CAPACITY,
        ..ProxyConfig::default()
    });
    for sensor in 0..SENSORS {
        proxy.register_sensor(sensor);
    }
    for epoch in (0..EPOCHS).filter(|e| e % 4 != 3) {
        for sensor in 0..SENSORS {
            proxy.on_uplink(&UplinkMsg {
                sensor,
                sent_at: at(epoch),
                wire_bytes: 15,
                payload: UplinkPayload::Value {
                    value: value(sensor, epoch),
                },
            });
        }
    }
    for sensor in 0..SENSORS {
        assert_eq!(proxy.cache(sensor).map(|c| c.len()), Some(CAPACITY));
    }

    // One refresh over 4 × 20k cached samples: one `Vec` per aligned
    // row would be 20k allocations; the merge walk makes a handful.
    let before = allocation_count();
    proxy.refresh_spatial_model();
    let refresh_allocs = allocation_count() - before;
    assert!(
        refresh_allocs <= 8,
        "spatial refresh made {refresh_allocs} allocations"
    );

    // A 500-sample pull reply from the middle of sensor 0's full cache:
    // 375 timestamps refine cached entries, 125 fill holes, evicting as
    // many of the oldest entries first.
    let first = EPOCHS / 2;
    let reply = UplinkMsg {
        sensor: 0,
        sent_at: at(EPOCHS),
        wire_bytes: 1_000,
        payload: UplinkPayload::PullReply {
            query_id: 1,
            samples: (first..first + 500)
                .map(|epoch| ReplySample {
                    t: at(epoch),
                    value: value(0, epoch) + 0.125,
                    quality: Quality::Exact,
                })
                .collect(),
        },
    };
    let oldest_before = proxy.cache(0).and_then(|c| c.history_iter().next());
    let before = allocation_count();
    proxy.on_uplink(&reply);
    let reply_allocs = allocation_count() - before;
    assert_eq!(reply_allocs, 0, "folding a pull reply allocated");

    let cache = proxy.cache(0).expect("sensor 0 is registered");
    assert_eq!(cache.len(), CAPACITY);
    let hole = cache.latest_at(at(first + 3)).expect("the hole is filled");
    assert_eq!(hole.t, at(first + 3));
    assert_eq!(hole.source, CacheSource::Pulled);
    let evicted = cache.history_iter().next();
    assert!(evicted.map(|s| s.0) > oldest_before.map(|s| s.0));
}
