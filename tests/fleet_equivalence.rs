//! Fleet-equivalence property: for ANY Zipf/burst-shaped cross-proxy
//! workload × ANY downlink loss trace × ANY proxy-crash schedule ×
//! ANY inter-link quality — every answer the fleet completes (served
//! locally, shed to a peer over the mesh, or adopted after a proxy
//! death re-homed the sensor) is **value-identical** to the
//! single-proxy blocking reference pulling the same sensor's archive,
//! and every other query terminates honestly (`Failed`, sigma ∞ for
//! scalars) by its deadline plus the router's collection grace. No
//! hangs, no double terminals, no leaked router tickets, pipeline
//! entries, pending RPCs (home or cross-proxy), or mesh messages.
//!
//! Forwarding and failover may change *where* and *when* an answer is
//! produced, never *what* it says.
//!
//! Setup notes: the workload is the zero-noise lab series (per-sensor
//! offsets keep sensors distinguishable), so each sensor's archive is
//! an exact replayable function of the seed; radio-free fast paths are
//! disabled (`past_coverage_hit = ∞`, and push tolerance so wide that
//! extrapolation can never meet the query tolerances) so every real
//! answer is an archive pull. NOW queries are exercised by the
//! pipeline-level equivalence test (`tests/query_pipeline.rs`); the
//! fleet property covers the archive-range classes the router may
//! shed, whose answers are anchored to their windows rather than to
//! serve time.

use std::collections::HashMap;

use proptest::prelude::*;

use presto::core::SystemConfig;
use presto::fleet::{FleetConfig, FleetDeployment};
use presto::net::{GilbertElliott, LossProcess};
use presto::proxy::{
    AnswerSource, PipelineAnswer, PipelineQuery, PrestoProxy, ProxyConfig,
};
use presto::reliability::DownlinkChannel;
use presto::sensor::AggregateOp;
use presto::sim::{FaultPlan, SimDuration, SimTime};
use presto::workloads::{LabDeployment, LabParams};

const EPOCH: SimDuration = SimDuration::from_secs(31);
const PROXIES: usize = 3;
const SPP: usize = 2;
const WARMUP_EPOCHS: u64 = 12 * 3600 / 31; // 12 h
const PHASE_EPOCHS: u64 = 24;
const DRAIN_EPOCHS: u64 = 44; // deadline (10 m) + grace (3 m) + mesh slack

/// Deterministic per-sensor series: zero noise, per-sensor offsets.
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

fn fleet(
    seed: u64,
    faults: FaultPlan,
    dl_req: Vec<bool>,
    dl_rep: Vec<bool>,
    mesh_mode: u8,
) -> FleetDeployment {
    let mut sys = SystemConfig {
        proxies: PROXIES,
        sensors_per_proxy: SPP,
        seed,
        lab: quiet_lab(),
        loss: 0.0,
        // Coverage hits off, and every query tolerance (0.05) lies below
        // the push tolerance, so no extrapolation serves one either:
        // every answer pulls.
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
    // Shed readily so forwarding is exercised even by small workloads.
    fc.router.shed_threshold = 4.0;
    fc.router.shed_margin = 1.0;
    match mesh_mode % 3 {
        0 => {
            // Clean mesh: forwards always arrive.
            fc.interlink.link_chain = GilbertElliott {
                p_gb: 0.0,
                p_bg: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            };
            fc.interlink.shared_chain = None;
        }
        1 => {
            // Default: bursty private chains + shared fading.
        }
        _ => {
            // Dead mesh: every forward and return is lost; shed and
            // re-routed queries must fail honestly.
            fc.interlink.link_chain = GilbertElliott {
                p_gb: 1.0,
                p_bg: 0.0,
                loss_good: 1.0,
                loss_bad: 1.0,
            };
            fc.interlink.shared_chain = None;
        }
    }
    FleetDeployment::new(fc)
}

/// Workload atom → archive-range query over the warmed span.
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

/// Replays the deployment's exact sensor series into fresh reference
/// nodes (the zero-noise lab is a pure function of the seed) and
/// answers each query through the blocking single-proxy path over a
/// perfect channel.
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

/// Runs the fleet over the workload and checks every terminal against
/// the reference. Returns (real answers, honest failures).
fn run_and_check(
    workload: &[(u8, u8, u8)],
    dl_req: Vec<bool>,
    dl_rep: Vec<bool>,
    mesh_mode: u8,
    crash: Option<(u8, u8)>,
) -> (usize, usize) {
    let seed = 0xF1EE7 ^ workload.len() as u64;
    let faults = match crash {
        Some((p, at)) => {
            let start = SimTime::ZERO + EPOCH * (WARMUP_EPOCHS + (at as u64 % PHASE_EPOCHS));
            FaultPlan::none().with_proxy_crash(
                p as usize % PROXIES,
                start,
                SimTime::from_hours(10_000),
            )
        }
        None => FaultPlan::none(),
    };
    let mut fleet = fleet(seed, faults, dl_req, dl_rep, mesh_mode);
    for _ in 0..WARMUP_EPOCHS {
        fleet.step_epoch();
    }
    let mut expected: HashMap<u64, (PipelineQuery, SimTime)> = HashMap::new();
    let mut terminals = Vec::new();
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
        terminals.extend(fleet.take_completed());
    }

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
            "terminal after deadline + grace: {:?} vs {:?}",
            c.completed_at,
            t_sub + deadline_slack
        );
        match c.answer.source() {
            AnswerSource::Failed => {
                failed += 1;
                if let PipelineAnswer::Scalar(a) = &c.answer {
                    prop_assert!(a.sigma.is_infinite(), "failed scalar must advertise sigma ∞");
                }
            }
            AnswerSource::Pulled => {
                pulled += 1;
                let reference = reference.answer(q, now);
                match (&c.answer, &reference) {
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

    /// Any workload × any loss trace × any crash schedule × any mesh:
    /// completed answers are value-identical to the blocking
    /// single-proxy reference; the rest fail honestly by deadline.
    #[test]
    fn fleet_matches_reference_or_fails_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        dl_req in proptest::collection::vec(any::<bool>(), 1..48),
        dl_rep in proptest::collection::vec(any::<bool>(), 1..48),
        mesh_mode in any::<u8>(),
        crash in (any::<bool>(), any::<u8>(), any::<u8>()),
    ) {
        let crash = crash.0.then_some((crash.1, crash.2));
        run_and_check(&workload, dl_req, dl_rep, mesh_mode, crash);
    }

    /// Clean channels, no crash: everything completes and matches.
    #[test]
    fn fleet_lossless_completes_everything(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![true], vec![true], 0, None);
        prop_assert_eq!(pulled, workload.len());
        prop_assert_eq!(failed, 0);
    }

    /// Dead downlinks everywhere: nothing real can be served — every
    /// query fails honestly, across shedding and the mesh included.
    #[test]
    fn fleet_total_downlink_loss_fails_everything_honestly(
        workload in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        mesh_mode in any::<u8>(),
    ) {
        let (pulled, failed) = run_and_check(&workload, vec![false], vec![true], mesh_mode, None);
        prop_assert_eq!(pulled, 0, "nothing can pull through dead downlinks");
        prop_assert_eq!(failed, workload.len());
    }
}
