//! The named workloads. Each one is a deployment shape plus an open-loop
//! arrival process; every property that differs from the program's
//! defaults is set here, next to the reason for it.

use presto_core::{PrestoSystem, SystemConfig};
use presto_fleet::{fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds};
use presto_net::LossProcess;
use presto_proxy::QueryClass;
use presto_sim::{
    FaultPlan, FleetArrival, FleetLoadConfig, FleetQueryLoad, QueryLoad, QueryLoadConfig,
    SimDuration, SimTime,
};
use presto_workloads::LabParams;

/// The sampling epoch every workload runs at (the program default).
pub fn epoch() -> SimDuration {
    LabParams::default().epoch
}

/// A workload name as given on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// Multi-proxy fleet under Zipf-skewed load, with a proxy crash.
    FleetSkew,
    /// One proxy serving many users over a few overlapping archived windows.
    HotWindows,
    /// A few sensors sampling long enough for flash to fill and age.
    ArchiveAging,
}

impl Name {
    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "fleet_skew" => Some(Name::FleetSkew),
            "hot_windows" => Some(Name::HotWindows),
            "archive_aging" => Some(Name::ArchiveAging),
            _ => None,
        }
    }

    /// Whether this workload runs the fleet tier.
    pub fn is_fleet(self) -> bool {
        self == Name::FleetSkew
    }
}

/// Phase lengths in epochs.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Epochs stepped before the first query (timed as set-up).
    pub warmup: u64,
    /// Epochs in which arrivals are injected.
    pub query: u64,
    /// Epochs stepped after the last arrival so every query terminates.
    pub drain: u64,
}

impl Phases {
    fn new(warmup: SimDuration, query: SimDuration, drain: SimDuration) -> Phases {
        let e = epoch();
        Phases {
            warmup: warmup.div_duration(e),
            query: query.div_duration(e),
            drain: drain.div_duration(e) + 4,
        }
    }

    /// Epochs in the measured phase (arrivals plus drain).
    pub fn measured(&self) -> u64 {
        self.query + self.drain
    }
}

/// The system under test.
pub enum Deployment {
    /// `presto-fleet` over a `PrestoSystem`.
    Fleet(Box<FleetDeployment>),
    /// A bare `PrestoSystem`.
    Single(Box<PrestoSystem>),
}

impl Deployment {
    /// The underlying system.
    pub fn system(&self) -> &PrestoSystem {
        match self {
            Deployment::Fleet(f) => &f.system,
            Deployment::Single(s) => s,
        }
    }

    /// The underlying system, mutably.
    pub fn system_mut(&mut self) -> &mut PrestoSystem {
        match self {
            Deployment::Fleet(f) => &mut f.system,
            Deployment::Single(s) => s,
        }
    }

    /// One epoch through the workload's public entry point.
    pub fn step_epoch(&mut self) {
        match self {
            Deployment::Fleet(f) => f.step_epoch(),
            Deployment::Single(s) => s.step_epoch(),
        }
    }
}

/// The open-loop arrival process: independent users, each arrival
/// injected at its due epoch.
pub enum Generator {
    /// Zipf-skewed groups (one per proxy) over a shared query shape.
    Fleet(FleetQueryLoad),
    /// One group spanning every sensor of a single system.
    Single(QueryLoad),
}

impl Generator {
    /// This epoch's arrivals.
    pub fn step(&mut self, t: SimTime) -> Vec<FleetArrival> {
        match self {
            Generator::Fleet(g) => g.step(t, epoch()),
            Generator::Single(g) => g
                .step(t, epoch())
                .into_iter()
                .map(|arrival| FleetArrival { group: 0, arrival })
                .collect(),
        }
    }
}

/// Everything a run needs to set up one workload.
pub struct Workload {
    /// Which workload.
    pub name: Name,
    /// Phase lengths.
    pub phases: Phases,
    config: Config,
    load: QueryLoadConfig,
    zipf_s: f64,
}

enum Config {
    Fleet(Box<FleetConfig>),
    Single(Box<SystemConfig>),
}

/// A quiet signal: with the default heavy-tailed jitter the sensors push
/// nearly every epoch, the proxy caches densify and every query completes
/// radio-free. Quiet sensors keep the caches sparse so tight-tolerance
/// queries genuinely pull.
fn quiet_lab() -> LabParams {
    LabParams {
        events_per_day: 0.0,
        jitter_sigma: 0.08,
        heavy_prob: 0.0,
        field_sigma: 0.05,
        ..LabParams::default()
    }
}

/// 30% Bernoulli loss on both downlink paths, so retries and the retry
/// budget do real work.
fn lossy(cfg: &mut SystemConfig) {
    cfg.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    cfg.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
}

impl Workload {
    /// The workload `name` under `seed`.
    pub fn new(name: Name, seed: u64) -> Workload {
        match name {
            Name::FleetSkew => fleet_skew(seed),
            Name::HotWindows => hot_windows(seed),
            Name::ArchiveAging => archive_aging(seed),
        }
    }

    /// Constructs the deployment (the first half of set-up).
    pub fn build(&self) -> Deployment {
        match &self.config {
            Config::Fleet(c) => Deployment::Fleet(Box::new(FleetDeployment::new((**c).clone()))),
            Config::Single(c) => Deployment::Single(Box::new(PrestoSystem::new((**c).clone()))),
        }
    }

    /// A fresh arrival process for the measured phase.
    pub fn generator(&self, d: &Deployment) -> Generator {
        match d {
            Deployment::Fleet(f) => {
                let cfg = f.system.config();
                Generator::Fleet(FleetQueryLoad::new(
                    FleetLoadConfig {
                        load: self.load.clone(),
                        groups: cfg.proxies,
                        zipf_s: self.zipf_s,
                    },
                    cfg.sensors_per_proxy,
                ))
            }
            Deployment::Single(s) => {
                Generator::Single(QueryLoad::new(self.load.clone(), s.total_sensors()))
            }
        }
    }

    /// Whether the downlink is configured lossy (retransmits must occur).
    pub fn lossy(&self) -> bool {
        let sys = match &self.config {
            Config::Fleet(c) => &c.system,
            Config::Single(c) => c,
        };
        !matches!(sys.reliability.downlink.request_loss, LossProcess::Perfect)
    }
}

fn fleet_skew(seed: u64) -> Workload {
    let proxies = 4;
    let users = 32;
    let rate = 60.0;
    let tolerance = 0.05;
    let warmup = SimDuration::from_hours(16);
    let query = SimDuration::from_hours(16);
    let mut sys = SystemConfig {
        proxies,
        sensors_per_proxy: 8,
        seed,
        lab: quiet_lab(),
        ..SystemConfig::default()
    };
    lossy(&mut sys);
    // A tight per-epoch attempt budget is the contended resource the
    // router arbitrates: the Zipf-hot proxy saturates while its peers
    // idle, which is the imbalance shedding exists to absorb.
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    // The canonical fleet scope: time series plus SLO watchdogs, so the
    // scope tick does its shipped amount of work every epoch.
    sys.scope = fleet_scope_config(&FleetScopeBounds::default());
    // A summary cache smaller than the queried age band, so the working
    // set does not fit and distinct archive windows pull.
    sys.proxy.cache_capacity = 700;
    // The coldest proxy crashes halfway through the arrivals for an
    // hour: membership declares it dead, its sensors re-home, its users'
    // connections fail until it reboots.
    let crash_at = SimTime::ZERO + warmup + SimDuration::from_hours(8);
    sys.faults = FaultPlan::none().with_proxy_crash(
        proxies - 1,
        crash_at,
        crash_at + SimDuration::from_hours(1),
    );
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    // No fleet-wide mesh fades: a long shared fade fences every proxy at
    // once, and the scope logs the fenced failures as incidents that no
    // injected fault explains. Per-link fades stay on.
    fc.interlink.shared_chain = None;
    // Latency classes: tight-tolerance archive reads get the default
    // deadline; a loose NOW class trades deadline for budget.
    fc.router.latency_classes = vec![
        QueryClass {
            rate_per_hour: users as f64 * rate,
            latency_bound: SimDuration::from_mins(10),
            tolerance,
        },
        QueryClass {
            rate_per_hour: 10.0,
            latency_bound: SimDuration::from_mins(4),
            tolerance: 1.5,
        },
    ];
    Workload {
        name: Name::FleetSkew,
        phases: Phases::new(warmup, query, SimDuration::from_mins(14)),
        config: Config::Fleet(Box::new(fc)),
        load: QueryLoadConfig {
            users,
            queries_per_user_per_hour: rate,
            // Windows stay inside the model era: the pre-model warmup
            // hours pushed every sample and would read from dense cache.
            window_min: SimDuration::from_mins(10),
            window_max: SimDuration::from_mins(30),
            max_age: SimDuration::from_hours(8),
            // Mostly distinct windows: shared dashboard windows coalesce
            // and carry no load, so the skew comes from uniform draws.
            hot_fraction: 0.1,
            past_fraction: 0.8,
            tolerances: vec![tolerance],
            seed: seed ^ 0xF1_EE7,
            ..QueryLoadConfig::default()
        },
        zipf_s: 1.2,
    }
}

fn hot_windows(seed: u64) -> Workload {
    let mut sys = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 8,
        seed,
        lab: quiet_lab(),
        ..SystemConfig::default()
    };
    lossy(&mut sys);
    // Per-query traces feed the trace audit (terminals equal submitted).
    sys.proxy.pipeline.trace = true;
    // No coverage fast path for PAST: otherwise every pulled span lands
    // in the summary cache and later overlapping windows never reach the
    // range-read caches (reply cache, slice cache) this workload loads.
    sys.proxy.past_coverage_hit = f64::INFINITY;
    Workload {
        name: Name::HotWindows,
        // Sixteen hours of warmup, as on the fleet: right after a 12 h
        // warmup the spatial model still answers NOW queries with a small
        // sigma a degree off the reading.
        phases: Phases::new(
            SimDuration::from_hours(16),
            SimDuration::from_hours(48),
            SimDuration::from_mins(14),
        ),
        config: Config::Single(Box::new(sys)),
        load: QueryLoadConfig {
            users: 64,
            queries_per_user_per_hour: 8.0,
            // About 20% NOW, the rest PAST; no aggregates.
            past_fraction: 0.8,
            aggregate_fraction: 0.0,
            // Overlapping but unequal windows over the last few archived
            // hours: a shared slice cache would hold them, an exact-match
            // reply cache mostly cannot.
            window_min: SimDuration::from_mins(30),
            window_max: SimDuration::from_mins(90),
            max_age: SimDuration::from_hours(3),
            hot_fraction: 0.15,
            hot_grid: SimDuration::from_hours(1),
            // Tight, as on the fleet: spatial extrapolation answers NOW
            // with sigma near 0.1 even when a degree off the reading, so a
            // looser tolerance lets the oracle catch confidently wrong
            // answers on some seeds.
            tolerances: vec![0.05],
            seed: seed ^ 0x5711CE,
        },
        zipf_s: 0.0,
    }
}

fn archive_aging(seed: u64) -> Workload {
    let history = SimDuration::from_hours(24 * 20);
    let mut sys = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 2,
        seed,
        // The quiet signal: under the default heavy-tailed jitter the NOW
        // cache fast path serves sigma-0 answers from a sample two epochs
        // old, and around rare events spatial extrapolation answers with
        // a small sigma far from the reading; the truth-at-submit oracle
        // rejects both.
        lab: quiet_lab(),
        ..SystemConfig::default()
    };
    // Per-query traces feed the trace audit (terminals equal submitted).
    sys.proxy.pipeline.trace = true;
    Workload {
        name: Name::ArchiveAging,
        phases: Phases::new(
            history,
            SimDuration::from_hours(24 * 12),
            SimDuration::from_mins(14),
        ),
        config: Config::Single(Box::new(sys)),
        load: QueryLoadConfig {
            users: 16,
            queries_per_user_per_hour: 4.0,
            // Windows anywhere in the last `history`, aged spans included.
            max_age: history,
            hot_fraction: 0.0,
            seed: seed ^ 0xA6E,
            ..QueryLoadConfig::default()
        },
        zipf_s: 0.0,
    }
}
