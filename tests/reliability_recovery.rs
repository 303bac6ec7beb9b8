//! Reliability property: for any fabric loss trace and crash/blackout
//! schedule, post-recovery proxy answers over the affected window match
//! the sensor-archive ground truth — no silent gaps, errors bounded by
//! the recovery codec class.
//!
//! The archive is the spec: a crashed sensor archives nothing while
//! down (so neither must the proxy invent data there), while a
//! blacked-out sensor archives everything (so the proxy must recover
//! all of it).

use proptest::prelude::*;

use presto::core::{PrestoSystem, StoreQuery, SystemConfig, UnifiedStore};
use presto::net::{GilbertElliott, LossProcess};
use presto::reliability::{LivenessConfig, ReliabilityConfig};
use presto::sim::{EnergyLedger, FaultPlan, SimDuration, SimTime};

/// Tight-lease reliability config so outages resolve within test runs.
fn tight(loss_pct: u64, seed: u64) -> ReliabilityConfig {
    let mut r = ReliabilityConfig {
        heartbeat_every: SimDuration::from_mins(2),
        liveness: LivenessConfig {
            lease: SimDuration::from_mins(5),
            dead_after: SimDuration::from_mins(15),
        },
        ..ReliabilityConfig::default()
    };
    if loss_pct > 0 {
        let loss = loss_pct as f64 / 100.0;
        // Bursty chain with roughly the requested stationary loss.
        let pi_bad = (loss / 0.9).clamp(0.01, 0.9);
        r.fabric.up_loss = LossProcess::Gilbert(GilbertElliott {
            p_gb: pi_bad / (15.0 * (1.0 - pi_bad)),
            p_bg: 1.0 / 15.0,
            loss_good: 0.0,
            loss_bad: 0.9,
        });
        r.fabric.down_loss = LossProcess::Bernoulli(loss / 3.0);
    }
    r.fabric.seed = seed;
    r
}

/// Runs one scenario and audits the affected window.
fn run_and_audit(seed: u64, loss_pct: u64, start_min: u64, len_min: u64, crash: bool) {
    let outage_from = SimTime::from_mins(start_min);
    let outage_to = SimTime::from_mins(start_min + len_min);
    let faults = if crash {
        FaultPlan::none().with_crash(0, outage_from, outage_to)
    } else {
        FaultPlan::none().with_blackout_of(vec![0], outage_from, outage_to)
    };
    let mut sys = PrestoSystem::new(SystemConfig {
        proxies: 1,
        sensors_per_proxy: 2,
        seed,
        faults,
        reliability: tight(loss_pct, seed ^ 0x5EED),
        lab: presto::workloads::LabParams {
            events_per_day: 0.0,
            ..presto::workloads::LabParams::default()
        },
        ..SystemConfig::default()
    });
    // Run well past the outage so detection, reconnection, and the
    // recovery replay all complete.
    sys.run(SimDuration::from_mins(start_min + len_min) + SimDuration::from_hours(2));

    // The sensor must be back and any detected gap repaired.
    let rs = sys.gaps.stats();
    let pending = sys.gaps.take_pending();
    prop_assert_eq_impl(
        pending.is_empty(),
        format!("repairs still pending after quiet period: {pending:?}"),
    );
    if rs.gaps_detected > 0 {
        assert!(rs.recoveries > 0, "gaps detected but never repaired: {rs:?}");
    }

    // Audit: every archived sample in the affected (outage) window
    // appears in the proxy's PAST answer within the recovery tolerance
    // class. The window is the outage span itself: that is exactly
    // what the sensor could not push and the recovery replay must have
    // restored. (Samples outside it that were never pushed are
    // *model-conforming silence* — correctly absent from the cache and
    // answered by extrapolation, not replay.)
    let win_from = outage_from;
    let win_to = outage_to;
    let mut ledger = EnergyLedger::new();
    let archived = sys.nodes[0]
        .archive_mut()
        .query_range_fullscan(win_from, win_to, &mut ledger)
        .expect("archive readable");
    if !crash {
        // Link-only outage: the archive must be gap-free over the
        // window (the sensor never stopped sampling).
        let expected = (win_to - win_from).div_duration(SimDuration::from_secs(31));
        assert!(
            archived.len() as u64 >= expected - 2,
            "blackout corrupted the archive itself: {} of {expected}",
            archived.len()
        );
    }
    let answer = UnifiedStore::new(&mut sys).query(StoreQuery::Past {
        sensor: 0,
        from: win_from,
        to: win_to,
        tolerance: 0.2,
    });
    let near = SimDuration::from_secs(1);
    let mut missing = 0u64;
    let mut max_err = 0.0f64;
    for a in &archived {
        let idx = answer.series.partition_point(|&(ts, _)| ts < a.timestamp);
        let hit = [idx.checked_sub(1), Some(idx)]
            .into_iter()
            .flatten()
            .filter_map(|i| answer.series.get(i))
            .find(|&&(ts, _)| {
                (if ts >= a.timestamp {
                    ts - a.timestamp
                } else {
                    a.timestamp - ts
                }) <= near
            });
        match hit {
            Some(&(_, v)) => max_err = max_err.max((v - a.value).abs()),
            None => missing += 1,
        }
    }
    assert_eq!(
        missing, 0,
        "silent gaps: {missing} of {} archived samples unanswered (seed {seed}, loss {loss_pct}%, crash {crash})",
        archived.len()
    );
    assert!(
        max_err <= 0.3,
        "post-recovery error {max_err} (seed {seed}, loss {loss_pct}%, crash {crash})"
    );
}

/// Tiny shim so the helper can assert outside the proptest macro body.
fn prop_assert_eq_impl(ok: bool, msg: String) {
    assert!(ok, "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn post_recovery_answers_match_archive_ground_truth(
        seed in 0u64..10_000,
        loss_pct in 0u64..40,
        start_min in 90u64..240,
        len_min in 10u64..90,
        crash in any::<bool>(),
    ) {
        run_and_audit(seed, loss_pct, start_min, len_min, crash);
    }
}

/// A fixed worst-ish case kept outside the property so it always runs
/// even if the sampled cases happen to be mild: heavy bursty loss plus
/// a long crash.
#[test]
fn heavy_loss_long_crash_still_recovers() {
    run_and_audit(77, 35, 120, 80, true);
}

/// Blackout twin of the fixed case: the archive is complete, so the
/// proxy must recover every sample the link swallowed.
#[test]
fn heavy_loss_long_blackout_still_recovers() {
    run_and_audit(78, 35, 120, 80, false);
}
