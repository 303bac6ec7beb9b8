//! Vehicle-traffic monitoring: the paper's order-preserving-view
//! motivation. Detectors along a road archive full signatures locally
//! and push classified detections; clocks drift; the unified view must
//! still present detections in true passage order so commuters can query
//! trajectories.
//!
//! Run with: `cargo run --release --example traffic_monitor`

use presto::index::{ClockCorrector, DriftClock, SkipGraph, UnifiedView};
use presto::sim::{SimDuration, SimRng, SimTime};
use presto::workloads::{TrafficGen, TrafficParams, VehicleType};

fn main() {
    let sensors = 6usize;
    let mut gen = TrafficGen::new(
        TrafficParams {
            sensors,
            ..TrafficParams::default()
        },
        99,
    );

    // Morning rush hour.
    let dets = gen.generate(SimTime::from_hours(7), SimDuration::from_hours(3));
    println!(
        "{} detections across {sensors} detectors (07:00-10:00)",
        dets.len()
    );
    let buses = dets
        .iter()
        .filter(|d| d.vehicle_type == VehicleType::Bus)
        .count();
    println!("  of which buses: {}", buses / sensors);

    // Each detector's clock drifts; calibrate correctors from beacons.
    let mut rng = SimRng::new(5);
    let clocks: Vec<DriftClock> = (0..sensors)
        .map(|_| DriftClock {
            offset_s: rng.gaussian_ms(0.0, 10.0),
            skew_ppm: rng.gaussian_ms(0.0, 60.0),
        })
        .collect();
    let mut correctors: Vec<ClockCorrector> = (0..sensors).map(|_| ClockCorrector::new()).collect();
    for h in 0..12u64 {
        let t = SimTime::from_hours(h);
        for (c, corr) in clocks.iter().zip(correctors.iter_mut()) {
            corr.observe_beacon(c.local_time(t), t);
        }
    }

    // Build the unified ordered view over per-detector streams with raw
    // (drifting) timestamps, corrected back to reference time.
    let mut view: UnifiedView<(usize, VehicleType)> = UnifiedView::new();
    for s in 0..sensors {
        let stream: Vec<(SimTime, (usize, VehicleType))> = dets
            .iter()
            .filter(|d| d.sensor == s)
            .map(|d| (clocks[s].local_time(d.timestamp), (s, d.vehicle_type)))
            .collect();
        view.add_stream(&correctors[s], stream);
    }

    // Verify the order-preserving property: within the view, each
    // vehicle's detections appear in detector order 0,1,2,...
    let ordered = view.ordered();
    println!("unified view holds {} corrected detections", ordered.len());
    let mut in_order = 0usize;
    let mut total = 0usize;
    let mut last_seen: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for item in ordered {
        let (detector, _) = item.item;
        let count = last_seen.get(&detector).copied().unwrap_or(0) + 1;
        last_seen.insert(detector, count);
        total += 1;
        if detector == 0 || last_seen.get(&(detector - 1)).copied().unwrap_or(0) >= count {
            in_order += 1;
        }
    }
    println!("order-preservation check: {in_order}/{total} detections consistent with road order");

    // The distributed index over proxy time-ranges: commuters ask "what
    // passed detector 3 between 08:00 and 08:10?" — the skip graph finds
    // the owning proxy in O(log n) hops.
    let mut index: SkipGraph<u64> = SkipGraph::new(1);
    for s in 0..sensors as u64 {
        index.insert(s * 1000);
    }
    let intro = index.introducer().expect("non-empty index");
    let (owner, stats) = index.search(intro, 3 * 1000 + 7);
    println!(
        "index lookup for detector 3's range: owner key {:?} in {} hops",
        owner, stats.hops
    );
}
