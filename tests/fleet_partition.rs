//! Partition-tolerance property: for ANY split-brain schedule (one
//! proxy cut off from the mesh mid-phase, downlinks untouched, healed
//! later) × ANY downlink loss trace × ANY workload — the fleet never
//! lets two proxies drive a sensor's home uplink in the same epoch,
//! never lets a fenced or quorum-declared-dead proxy drive radio at
//! all, completes only answers value-identical to the single-proxy
//! blocking reference (everything else fails honestly, sigma ∞, by
//! deadline plus grace), stamps every real answer with an explicit
//! `answer_age`, and leaks nothing once traffic drains.
//!
//! The split-brain is the scenario quorum membership exists for: the
//! minority proxy is *up* and its sensors keep uplinking to it, so a
//! naive fleet would happily serve from both sides of the cut. The
//! fence must close (minority stops accepting queries, stops pumping)
//! strictly before the majority re-homes its sensors, and the heal
//! must re-sync the rejoining proxy through the archive rather than
//! trusting its aged caches.

use std::collections::HashMap;

use proptest::prelude::*;

use presto::core::SystemConfig;
use presto::fleet::{FleetConfig, FleetDeployment};
use presto::net::{GilbertElliott, LossProcess};
use presto::proxy::{AnswerSource, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig};
use presto::reliability::DownlinkChannel;
use presto::sensor::AggregateOp;
use presto::sim::{FaultPlan, SimDuration, SimTime};
use presto::workloads::{LabDeployment, LabParams};

const EPOCH: SimDuration = SimDuration::from_secs(31);
const PROXIES: usize = 3;
const SPP: usize = 2;
const WARMUP_EPOCHS: u64 = 12 * 3600 / 31; // 12 h
const PHASE_EPOCHS: u64 = 24;
// Long enough for the longest partition window to heal, the rejoin to
// re-sync, and the last deadline + grace to expire.
const DRAIN_EPOCHS: u64 = 96;

fn quiet_lab() -> LabParams {
    LabParams {
        sensors: SPP,
        jitter_sigma: 0.0,
        heavy_prob: 0.0,
        field_sigma: 0.0,
        events_per_day: 0.0,
        ..LabParams::default()
    }
}

fn fleet(seed: u64, faults: FaultPlan, dl_req: Vec<bool>, dl_rep: Vec<bool>) -> FleetDeployment {
    let mut sys = SystemConfig {
        proxies: PROXIES,
        sensors_per_proxy: SPP,
        seed,
        lab: quiet_lab(),
        loss: 0.0,
        // Radio-free fast paths off (coverage hits disabled, and every
        // query tolerance lies below the push tolerance): every real
        // answer is an archive pull, so value-identity with the
        // reference is exact.
        proxy: ProxyConfig {
            past_coverage_hit: f64::INFINITY,
            ..ProxyConfig::default()
        },
        faults,
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Scripted(dl_req.into());
    sys.reliability.downlink.reply_loss = LossProcess::Scripted(dl_rep.into());
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_threshold = 4.0;
    fc.router.shed_margin = 1.0;
    // Clean mesh links: the only mesh failures in this property are the
    // injected partition cuts, so every honest failure is attributable
    // to the split brain itself.
    fc.interlink.link_chain = GilbertElliott {
        p_gb: 0.0,
        p_bg: 1.0,
        loss_good: 0.0,
        loss_bad: 1.0,
    };
    fc.interlink.shared_chain = None;
    FleetDeployment::new(fc)
}

fn decode(code: u8) -> (PipelineQuery, f64) {
    let sensor = ((code as usize) / 8) % (PROXIES * SPP);
    let k = (code % 8) as u64;
    let from = SimTime::from_hours(2) + SimDuration::from_mins(45) * k;
    let to = from + SimDuration::from_mins(30);
    if code.is_multiple_of(5) {
        (
            PipelineQuery::Aggregate {
                sensor: sensor as u16,
                from,
                to,
                op: AggregateOp::Mean,
            },
            0.05,
        )
    } else {
        (
            PipelineQuery::Past {
                sensor: sensor as u16,
                from,
                to,
                tolerance: 0.05,
            },
            0.05,
        )
    }
}

/// Blocking single-proxy reference over the replayed archive (the
/// zero-noise lab is a pure function of the seed).
struct Reference {
    proxy: PrestoProxy,
    nodes: Vec<presto::sensor::SensorNode>,
    chans: Vec<DownlinkChannel>,
}

impl Reference {
    fn build(seed: u64, epochs: u64) -> Reference {
        let mut proxy = PrestoProxy::new(ProxyConfig {
            past_coverage_hit: f64::INFINITY,
            push_tolerance: 1e6,
            ..ProxyConfig::default()
        });
        let mut nodes: Vec<presto::sensor::SensorNode> = (0..PROXIES * SPP)
            .map(|gid| {
                proxy.register_sensor(gid as u16);
                presto::sensor::SensorNode::new(
                    gid as u16,
                    presto::sensor::SensorConfig {
                        push: presto::sensor::PushPolicy::Silent,
                        ..presto::sensor::SensorConfig::default()
                    },
                    presto::net::LinkModel::perfect(),
                )
            })
            .collect();
        for p in 0..PROXIES {
            let mut lab = LabDeployment::new(quiet_lab(), seed.wrapping_add(p as u64 * 101));
            for _ in 0..epochs {
                for (s, r) in lab.step().iter().enumerate() {
                    nodes[p * SPP + s].on_sample(r.timestamp, r.value);
                }
            }
        }
        let chans = (0..PROXIES * SPP).map(|_| DownlinkChannel::perfect()).collect();
        Reference {
            proxy,
            nodes,
            chans,
        }
    }

    fn answer(&mut self, q: PipelineQuery, t: SimTime) -> PipelineAnswer {
        assert!(
            !matches!(q, PipelineQuery::Now { .. }),
            "workload emits range queries only"
        );
        let gid = q.sensor() as usize;
        self.proxy
            .answer(t, q, &mut self.nodes[gid], &mut self.chans[gid])
    }
}

/// Checks the per-epoch uplink-ownership audit trail: at most one home
/// driver per sensor, always the current owner, and never a fenced or
/// declared-dead proxy.
fn check_pump_log(fleet: &FleetDeployment, epoch: u64) {
    let assignment = fleet.system.assignment().to_vec();
    let mut home_driver: HashMap<u16, usize> = HashMap::new();
    for &(p, gid, via_foreign) in fleet.system.pump_log() {
        prop_assert!(
            !fleet.is_fenced(p),
            "fenced proxy {p} drove radio toward sensor {gid} at epoch {epoch}"
        );
        prop_assert!(
            !fleet.membership().is_declared_dead(p),
            "declared-dead proxy {p} drove radio toward sensor {gid} at epoch {epoch}"
        );
        if !via_foreign {
            prop_assert_eq!(
                assignment[gid as usize],
                p,
                "home uplink driven by non-owner at epoch {}",
                epoch
            );
            let prev = home_driver.insert(gid, p);
            prop_assert!(
                prev.is_none(),
                "sensor {gid}'s home uplink driven by two proxies in epoch {epoch}"
            );
        }
    }
}

fn run_split_brain(
    workload: &[(u8, u8, u8)],
    dl_req: Vec<bool>,
    dl_rep: Vec<bool>,
    minority: usize,
    cut_start_epoch: u64,
    cut_epochs: u64,
) -> (usize, usize) {
    let seed = 0x5B1A ^ workload.len() as u64;
    let from = SimTime::ZERO + EPOCH * (WARMUP_EPOCHS + cut_start_epoch);
    let to = from + EPOCH * cut_epochs;
    let faults = FaultPlan::none().with_mesh_partition(vec![minority], from, to);
    let mut fleet = fleet(seed, faults, dl_req, dl_rep);
    for _ in 0..WARMUP_EPOCHS {
        fleet.step_epoch();
    }
    let mut expected: HashMap<u64, (PipelineQuery, SimTime)> = HashMap::new();
    let mut terminals = Vec::new();
    let mut saw_fence = false;
    for e in 0..PHASE_EPOCHS + DRAIN_EPOCHS {
        if e < PHASE_EPOCHS {
            let t = fleet.system.now();
            for &(ep, entry, code) in workload
                .iter()
                .filter(|&&(ep, _, _)| ep as u64 % PHASE_EPOCHS == e)
            {
                let _ = ep;
                let (q, tol) = decode(code);
                let ticket = fleet.submit(entry as usize % PROXIES, q, tol);
                expected.insert(ticket, (q, t));
            }
        }
        fleet.step_epoch();
        check_pump_log(&fleet, e);
        saw_fence |= fleet.is_fenced(minority);
        terminals.extend(fleet.take_completed());
    }

    prop_assert!(
        saw_fence,
        "the minority proxy must fence while partitioned (cut {cut_epochs} epochs)"
    );
    prop_assert!(
        !fleet.is_fenced(minority),
        "the healed proxy must regain quorum by the end of the drain"
    );
    prop_assert_eq!(
        terminals.len(),
        expected.len(),
        "every query must terminate exactly once — no hangs, no duplicates"
    );
    let leaks = fleet.leaks();
    prop_assert!(leaks.is_clean(), "leaked fleet state: {:?}", leaks);

    let total_epochs = WARMUP_EPOCHS + PHASE_EPOCHS + DRAIN_EPOCHS;
    let mut reference = Reference::build(seed, total_epochs);
    let now = fleet.system.now();
    let deadline_slack = SimDuration::from_mins(13) + EPOCH * 2;

    let (mut pulled, mut failed) = (0usize, 0usize);
    for c in terminals {
        let (q, t_sub) = expected.remove(&c.ticket).expect("unknown ticket");
        prop_assert!(
            c.completed_at <= t_sub + deadline_slack,
            "terminal after deadline + grace"
        );
        match c.answer.source() {
            AnswerSource::Failed => {
                failed += 1;
                if let PipelineAnswer::Scalar(a) = &c.answer {
                    prop_assert!(a.sigma.is_infinite(), "failed scalar must advertise sigma ∞");
                }
                prop_assert_eq!(
                    c.answer_age,
                    None,
                    "a failure must not claim a data age"
                );
            }
            AnswerSource::Pulled => {
                pulled += 1;
                prop_assert!(
                    c.answer_age.is_some(),
                    "every real answer must carry an explicit age: {:?}",
                    c
                );
                let r = reference.answer(q, now);
                match (&c.answer, &r) {
                    (PipelineAnswer::Series(a), PipelineAnswer::Series(r)) => {
                        prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
                        prop_assert_eq!(
                            &a.samples,
                            &r.samples,
                            "fleet served different data than the blocking reference \
                             (forwarded: {}, served_by {})",
                            c.forwarded,
                            c.served_by
                        );
                    }
                    (PipelineAnswer::Scalar(a), PipelineAnswer::Scalar(r)) => {
                        prop_assert_eq!(r.source, AnswerSource::Pulled, "reference must pull");
                        prop_assert_eq!(a.value, r.value, "aggregate value diverged");
                        prop_assert_eq!(a.sigma, r.sigma, "aggregate sigma diverged");
                    }
                    _ => prop_assert!(false, "answer shape diverged from reference"),
                }
            }
            other => prop_assert!(
                false,
                "fleet produced {:?} — fast paths are disabled, only Pulled/Failed possible",
                other
            ),
        }
    }
    (pulled, failed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Any workload × any downlink loss trace × any split-brain window:
    /// single uplink owner per epoch, fenced/dead proxies silent,
    /// answers value-identical or honestly failed, ages stamped, no
    /// leaks.
    #[test]
    fn split_brain_fences_minority_and_answers_stay_honest(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        dl_req in proptest::collection::vec(any::<bool>(), 1..48),
        dl_rep in proptest::collection::vec(any::<bool>(), 1..48),
        minority in 0usize..PROXIES,
        cut_start in 0u64..PHASE_EPOCHS,
        cut_epochs in 14u64..48,
    ) {
        run_split_brain(&workload, dl_req, dl_rep, minority, cut_start, cut_epochs);
    }

    /// Clean downlinks, partition over before any deadline: everything
    /// submitted away from the minority side still completes with real,
    /// age-stamped answers.
    #[test]
    fn majority_side_keeps_serving_through_the_cut(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
        minority in 0usize..PROXIES,
    ) {
        let (pulled, failed) = run_split_brain(&workload, vec![true], vec![true], minority, 4, 20);
        prop_assert!(pulled + failed == workload.len());
        prop_assert!(
            pulled > 0 || workload.iter().all(|&(_, e, c)| {
                let gid = ((c as usize) / 8) % (PROXIES * SPP);
                e as usize % PROXIES == minority || gid / SPP == minority
            }),
            "majority-side queries must keep completing"
        );
    }
}
