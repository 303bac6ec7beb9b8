//! A sensor's archive I/O must not allocate scratch: an append encodes
//! its record straight into the page buffer, and a repeat pull reads its
//! rows from cached pages into the node's row buffer and sizes its reply
//! without building a payload. This binary installs the counting
//! allocator and holds a single test, so the global count sees only the
//! calls it measures.

use presto_net::LinkModel;
use presto_sensor::{DownlinkMsg, PushPolicy, SensorConfig, SensorNode, UplinkPayload};
use presto_sim::{SimDuration, SimTime};
use presto_telemetry::alloc::{allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SAMPLES: u64 = 2_000;
/// The pulled window: 170 samples from sample 1000 on.
const FIRST: u64 = 1_000;
const WINDOW: u64 = 170;
const PULLS: u64 = 20;

fn at(sample: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(31) * sample
}

#[test]
fn archive_appends_and_repeat_pulls_make_no_scratch_allocations() {
    let config = SensorConfig {
        push: PushPolicy::Silent,
        ..SensorConfig::default()
    };
    let mut node = SensorNode::new(3, config, LinkModel::perfect());

    // Appends allocate only the page images flash keeps (one per ~17
    // samples) and segment bookkeeping, not per record.
    let before = allocation_count();
    for i in 0..SAMPLES {
        let value = 20.0 + (i as f64 * 0.01).sin();
        assert!(node.on_sample(at(i), value, None).is_empty());
    }
    let append_allocs = allocation_count() - before;
    assert!(
        append_allocs <= SAMPLES / 4,
        "{SAMPLES} appends made {append_allocs} allocations"
    );

    // The warm-up pull decodes the window's pages and grows the row
    // buffer and codec scratch.
    let pull = DownlinkMsg::PullRequest {
        query_id: 1,
        from: at(FIRST),
        to: at(FIRST + WINDOW - 1),
        tolerance: 0.3,
    };
    let now = at(SAMPLES);
    let warm = node
        .handle_sequenced_downlink(now, 0, &pull, None)
        .expect("a perfect link delivers the reply");
    let UplinkPayload::PullReply { samples, .. } = &warm.payload else {
        panic!("pull answered with {:?}", warm.payload);
    };
    assert_eq!(samples.len(), WINDOW as usize);
    let misses = node.archive().stats().page_cache_misses;

    // Each repeat allocates the reply's samples and the dedup window's
    // copy of the reply, and nothing else.
    let before = allocation_count();
    for seq in 1..=PULLS {
        let reply = node.handle_sequenced_downlink(now, seq, &pull, None);
        assert!(reply.is_some(), "pull {seq} lost on a perfect link");
    }
    let pull_allocs = allocation_count() - before;
    assert!(
        pull_allocs <= 3 * PULLS,
        "{PULLS} repeat pulls made {pull_allocs} allocations"
    );
    assert_eq!(node.stats().pulls_served, PULLS + 1);
    assert_eq!(
        node.archive().stats().page_cache_misses,
        misses,
        "repeat pulls must be served from cached pages"
    );
}
