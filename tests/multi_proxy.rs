//! Multi-proxy data abstraction: skip-graph routing and clock-drift
//! correction across proxies.

use presto::core::{PrestoSystem, SystemConfig};
use presto::index::{ClockCorrector, DriftClock, SkipGraph, UnifiedView};
use presto::sim::SimTime;

#[test]
fn routing_reaches_the_owning_proxy_for_every_sensor() {
    let sys = PrestoSystem::new(SystemConfig {
        proxies: 8,
        sensors_per_proxy: 5,
        ..SystemConfig::default()
    });
    for gid in 0..40u16 {
        let expected = sys.assignment()[gid as usize];
        let (routed, hops) = sys.route(gid);
        assert_eq!(routed, expected, "sensor {gid}");
        assert!(hops <= 10, "sensor {gid}: {hops} hops for 8 proxies");
    }
}

#[test]
fn index_scales_sublinearly_in_proxies() {
    let mean_hops = |n: u64| {
        let mut g: SkipGraph<u64> = SkipGraph::new(1);
        for k in 0..n {
            g.insert(k);
        }
        let intro = g.introducer().expect("non-empty");
        let total: u64 = (0..n)
            .step_by((n / 16).max(1) as usize)
            .map(|t| g.search(intro, t).1.hops)
            .sum();
        total as f64 / 16.0
    };
    let h16 = mean_hops(16);
    let h256 = mean_hops(256);
    assert!(h256 < h16 * 6.0, "16: {h16}, 256: {h256}");
}

#[test]
fn cross_proxy_event_order_survives_clock_drift() {
    // Proxy B's sensors run 20 s fast; events alternate between proxies
    // every 30 s, so raw timestamps shuffle the order.
    let fast = DriftClock {
        offset_s: 20.0,
        skew_ppm: 30.0,
    };
    let mut corrector = ClockCorrector::new();
    for h in 0..6u64 {
        let t = SimTime::from_hours(h);
        corrector.observe_beacon(fast.local_time(t), t);
    }
    let trusted = ClockCorrector::new();

    let mut view: UnifiedView<u32> = UnifiedView::new();
    let a_stream: Vec<(SimTime, u32)> = (0..50)
        .map(|k| (SimTime::from_secs(60 * k), 2 * k as u32))
        .collect();
    let b_stream: Vec<(SimTime, u32)> = (0..50)
        .map(|k| {
            (
                fast.local_time(SimTime::from_secs(60 * k + 30)),
                2 * k as u32 + 1,
            )
        })
        .collect();
    view.add_stream(&trusted, a_stream);
    view.add_stream(&corrector, b_stream);
    let order: Vec<u32> = view.ordered().iter().map(|i| i.item).collect();
    let expected: Vec<u32> = (0..100).collect();
    assert_eq!(order, expected, "corrected merge must restore true order");
}
