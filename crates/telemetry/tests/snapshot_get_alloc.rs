//! `Snapshot::get` must not allocate: the scope tick calls it once per
//! followed path per epoch. This binary installs the counting allocator
//! and holds a single test, so nothing else allocates while it measures.

use presto_telemetry::alloc::{allocation_count, CountingAlloc};
use presto_telemetry::{LogHistogram, Snapshot};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn get_does_not_allocate() {
    let mut snap = Snapshot::new();
    let mut h = LogHistogram::new();
    for v in [3, 40, 500, 6_000] {
        h.record(v);
    }
    snap.root.counter("epochs", 7);
    let proxy = snap.root.child("proxy");
    proxy.counter("pulls", 12);
    proxy.gauge("pressure", 0.25);
    proxy.histogram("latency_us", &h);
    proxy.child("pipeline").counter("submitted", 30);
    let keys: Vec<String> = snap
        .flatten()
        .into_iter()
        .map(|(k, _)| k)
        .chain([
            "proxy.missing".to_string(),
            "proxy.latency_us.p42".to_string(),
        ])
        .collect();

    let before = allocation_count();
    let mut found = 0usize;
    for key in &keys {
        found += usize::from(snap.get(key).is_some());
    }
    let after = allocation_count();

    assert_eq!(found, keys.len() - 2, "every flattened key resolves");
    assert_eq!(after, before, "Snapshot::get allocated");
}
