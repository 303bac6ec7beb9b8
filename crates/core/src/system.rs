//! The three-tier PRESTO system.
//!
//! Since the reliability rework, no message between a sensor and a
//! proxy crosses by direct call, in either direction. Everything a
//! sensor emits — deviation pushes, batches, event reports, heartbeats,
//! segment-seal notifications — rides the [`Fabric`], a lossy, delayed,
//! sequence-numbered channel with ack/retransmit and an energy-charged
//! retry budget. Everything a proxy initiates — archive pulls,
//! aggregate requests, model pushes, retunes, recovery replays — rides
//! a per-sensor [`presto_reliability::DownlinkChannel`] with the same
//! machinery pointed the other way (sequenced requests, sensor-side
//! dedup, proxy-billed retry budget, a pending-RPC table matching
//! replies to outstanding query ids), gated by the fault plan. When
//! [`ReliabilityConfig::shared_fading`] is set, every channel near one
//! proxy samples a common [`SharedLossState`], so bursts hit the whole
//! neighbourhood at once instead of averaging out per sensor. A
//! proxy-side [`LivenessMonitor`] grades each sensor Live/Suspect/Dead
//! from heartbeat leases, and a [`GapTracker`] turns sequence gaps and
//! reconnects into archive-backed recovery replays.

use presto_index::{ClockCorrector, DriftClock, SkipGraph, TimeRangeIndex};
use presto_net::{LinkModel, LossProcess, SharedLossState};
use presto_proxy::{CompletedQuery, PrestoProxy, ProxyConfig};
use presto_reliability::{
    recovery::padded_span, DownlinkChannel, Fabric, GapTracker, Health, LivenessMonitor,
    Observation, ReliabilityConfig,
};
use presto_sensor::{PushPolicy, SensorConfig, SensorNode};
use presto_sim::{EnergyCategory, EnergyLedger, FaultPlan, SimDuration, SimRng, SimTime};
use presto_telemetry::{EpochProfiler, Observe, PrestoScope, ScopeConfig, Sink, Snapshot};
use presto_workloads::{LabDeployment, LabParams};

/// Event type code used for rare-event reports.
pub const RARE_EVENT_TYPE: u16 = 1;

/// LPL check interval for sensors (and so the proxies' downlink
/// preamble length).
const LPL: SimDuration = SimDuration::from_secs(1);

/// How often proxies consider retraining models.
const TRAIN_CHECK_EVERY: SimDuration = SimDuration::from_hours(1);

/// Reply-codec tolerance for recovery pulls (tight: the replay is
/// repairing ground truth, not answering a sloppy query).
const RECOVERY_TOLERANCE: f64 = 0.05;

/// Padding added around a detected gap when pulling, absorbing boundary
/// effects (in-flight messages, clock slack).
const RECOVERY_PAD: SimDuration = SimDuration::from_secs(62);

/// System construction parameters. Sensors always duty-cycle at the
/// 1 s LPL check interval, proxies consider retraining hourly, and
/// recovery replays pull at a fixed tight tolerance; the deployment's
/// shape, workload, loss and faults are what varies.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of proxies.
    pub proxies: usize,
    /// Sensors per proxy.
    pub sensors_per_proxy: usize,
    /// Master seed.
    pub seed: u64,
    /// Workload parameters (per proxy's deployment).
    pub lab: LabParams,
    /// Frame loss on sensor links.
    pub loss: f64,
    /// Sensor push tolerance (model-driven push threshold).
    pub push_tolerance: f64,
    /// Sensor clock skew spread (ppm); zero disables drift simulation.
    pub clock_skew_ppm: f64,
    /// Proxy configuration template.
    pub proxy: ProxyConfig,
    /// Message fabric, liveness, and recovery parameters.
    pub reliability: ReliabilityConfig,
    /// Injected crash/reboot and blackout schedule.
    pub faults: FaultPlan,
    /// Profile the epoch pump's phases (wall-clock timers and work
    /// counts). On by default — the timers cost one `Instant` read per
    /// phase; disabled, the profiler never touches the clock.
    pub profile: bool,
    /// `presto-scope` time-series sampling and SLO watchdogs over the
    /// telemetry snapshot, ticked once per epoch. Disabled by default:
    /// an enabled scope builds a snapshot every sampled epoch.
    pub scope: ScopeConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            proxies: 2,
            sensors_per_proxy: 4,
            seed: 7,
            lab: LabParams::default(),
            loss: 0.02,
            push_tolerance: 1.0,
            clock_skew_ppm: 0.0,
            proxy: ProxyConfig::default(),
            reliability: ReliabilityConfig::default(),
            faults: FaultPlan::none(),
            profile: true,
            scope: ScopeConfig::default(),
        }
    }
}

/// A running three-tier deployment.
pub struct PrestoSystem {
    config: SystemConfig,
    /// One proxy per cluster.
    pub proxies: Vec<PrestoProxy>,
    /// `nodes[p][s]`: sensor `s` of proxy `p`.
    pub nodes: Vec<Vec<SensorNode>>,
    /// Per-sensor downlink channels, same shape: every proxy→sensor
    /// message rides one of these.
    pub downlinks: Vec<Vec<DownlinkChannel>>,
    /// Per-proxy workload generators.
    labs: Vec<LabDeployment>,
    /// Order-preserving index over global sensor-id space: key = first
    /// global id owned by a proxy.
    pub index: SkipGraph<u64>,
    /// Archived `[start, end]` intervals per proxy, registered from the
    /// sensors' sealed segments so range queries can prune proxies with
    /// no overlapping data.
    pub time_index: TimeRangeIndex,
    /// Per-sensor drifting clocks and their correctors (flat global ids).
    pub clocks: Vec<DriftClock>,
    /// Correctors, same order.
    pub correctors: Vec<ClockCorrector>,
    /// Last true value per global sensor id.
    pub truth: Vec<f64>,
    /// The message fabric every sensor→proxy message rides.
    pub fabric: Fabric,
    /// Proxy-side liveness leases over all sensors (flat global ids).
    pub liveness: LivenessMonitor,
    /// Sequence-gap tracking and recovery queue (flat global ids).
    pub gaps: GapTracker,
    /// One shared fading state per proxy when correlated loss is on:
    /// every channel of that proxy's sensors samples it.
    shared_loss: Vec<SharedLossState>,
    /// Whether a rare event was active last epoch (for onset detection).
    event_was_active: Vec<bool>,
    /// Whether each sensor was crashed at the last fault-gate pass
    /// (crash-onset edge detection).
    was_down: Vec<bool>,
    /// Current serving proxy per sensor (flat global ids). Starts at
    /// the physical placement ([`PrestoSystem::locate`]) and changes
    /// when the deployment tier re-homes a sensor after its proxy dies.
    assignment: Vec<usize>,
    /// Whether each proxy was down at the last fault-gate pass
    /// (crash-onset edge detection: RAM-resident query state dies).
    proxy_was_down: Vec<bool>,
    epoch_index: u64,
    last_train_check: SimTime,
    last_beacon: SimTime,
    /// Epoch start of the previous fault-gate evaluation (reboot edge
    /// detection).
    last_fault_check: SimTime,
    /// Phase timers over the epoch pump.
    profiler: EpochProfiler,
    /// Time-series sampler + SLO watchdogs over the snapshot tree.
    scope: PrestoScope,
}

impl PrestoSystem {
    /// Builds the deployment.
    pub fn new(config: SystemConfig) -> Self {
        let total = config.proxies * config.sensors_per_proxy;
        assert!(
            total <= u16::MAX as usize,
            "sensor space {total} exceeds the u16 wire id space"
        );
        let rng = SimRng::new(config.seed);
        let mut proxies = Vec::with_capacity(config.proxies);
        let mut nodes = Vec::with_capacity(config.proxies);
        let mut downlinks = Vec::with_capacity(config.proxies);
        let mut labs = Vec::with_capacity(config.proxies);
        let mut index = SkipGraph::new(config.seed ^ 0xD15C);

        // One shared fading state per proxy when correlated loss is on:
        // its chain transitions are driven once per epoch by the system,
        // and every channel of the proxy's sensors holds a clone.
        let shared_loss: Vec<SharedLossState> = match config.reliability.shared_fading {
            Some(chain) => (0..config.proxies)
                .map(|p| SharedLossState::new(chain, rng.split(&format!("shared-fade-{p}"))))
                .collect(),
            None => Vec::new(),
        };
        let correlated = |p: usize| -> Option<LossProcess> {
            shared_loss
                .get(p)
                .map(|s| LossProcess::Correlated(s.clone()))
        };

        for p in 0..config.proxies {
            let mut proxy = PrestoProxy::new(ProxyConfig {
                push_tolerance: config.push_tolerance,
                sensor_lpl: LPL,
                ..config.proxy.clone()
            });
            let mut cluster = Vec::with_capacity(config.sensors_per_proxy);
            let mut links = Vec::with_capacity(config.sensors_per_proxy);
            for s in 0..config.sensors_per_proxy {
                let gid = crate::gid16(p * config.sensors_per_proxy + s);
                proxy.register_sensor(gid);
                let cfg = SensorConfig {
                    push: PushPolicy::ModelDriven {
                        tolerance: config.push_tolerance,
                    },
                    duty: presto_net::DutyCycle::lpl(LPL),
                    announce_seals: true,
                    ..SensorConfig::default()
                };
                let mk_link = |label: String| {
                    if config.loss > 0.0 {
                        LinkModel::new(LossProcess::Bernoulli(config.loss), rng.split(&label))
                    } else {
                        LinkModel::perfect()
                    }
                };
                cluster.push(SensorNode::new(gid, cfg, mk_link(format!("up-{gid}"))));
                // The downlink channel wraps the first-hop link; its
                // end-to-end loss streams come from the reliability
                // config, replaced by the proxy's shared fading state
                // when correlated loss is on.
                let mut dl_cfg = config.reliability.downlink.clone();
                dl_cfg.seed ^= (config.seed.rotate_left(17)).wrapping_add(gid as u64 * 0x9E37);
                if let Some(shared) = correlated(p) {
                    dl_cfg.request_loss = shared.clone();
                    dl_cfg.reply_loss = shared;
                }
                links.push(DownlinkChannel::new(dl_cfg, mk_link(format!("down-{gid}"))));
            }
            index.insert((p * config.sensors_per_proxy) as u64);
            proxies.push(proxy);
            nodes.push(cluster);
            downlinks.push(links);
            labs.push(LabDeployment::new(
                LabParams {
                    sensors: config.sensors_per_proxy,
                    ..config.lab.clone()
                },
                config.seed.wrapping_add(p as u64 * 101),
            ));
        }

        let mut clock_rng = rng.split("clocks");
        let clocks: Vec<DriftClock> = (0..total)
            .map(|_| {
                if config.clock_skew_ppm > 0.0 {
                    DriftClock {
                        offset_s: clock_rng.gaussian_ms(0.0, 1.0),
                        skew_ppm: clock_rng.gaussian_ms(0.0, config.clock_skew_ppm),
                    }
                } else {
                    DriftClock::perfect()
                }
            })
            .collect();

        let time_index = TimeRangeIndex::new(config.seed ^ 0x71E5);
        // The fabric's loss streams derive from the master seed so two
        // systems with different seeds see different channel histories.
        let mut fabric_cfg = config.reliability.fabric.clone();
        fabric_cfg.seed ^= config.seed.rotate_left(13);
        let spp = config.sensors_per_proxy;
        let fabric = Fabric::new_with_losses(fabric_cfg, total, |gid| {
            correlated(gid / spp).map(|shared| (shared.clone(), shared))
        });
        let liveness = LivenessMonitor::new(config.reliability.liveness, total);
        PrestoSystem {
            proxies,
            nodes,
            downlinks,
            labs,
            index,
            time_index,
            clocks,
            correctors: (0..total).map(|_| ClockCorrector::new()).collect(),
            truth: vec![0.0; total],
            fabric,
            liveness,
            gaps: GapTracker::new(total),
            shared_loss,
            event_was_active: vec![false; total],
            was_down: vec![false; total],
            assignment: (0..total).map(|gid| gid / config.sensors_per_proxy).collect(),
            proxy_was_down: vec![false; config.proxies],
            epoch_index: 0,
            last_train_check: SimTime::ZERO,
            last_beacon: SimTime::ZERO,
            last_fault_check: SimTime::ZERO,
            profiler: EpochProfiler::new(config.profile),
            scope: PrestoScope::new(config.scope.clone()),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Total sensors across the deployment.
    pub fn total_sensors(&self) -> usize {
        self.config.proxies * self.config.sensors_per_proxy
    }

    /// Maps a global sensor id to `(proxy index, local index)`.
    pub fn locate(&self, global: u16) -> (usize, usize) {
        let p = global as usize / self.config.sensors_per_proxy;
        let s = global as usize % self.config.sensors_per_proxy;
        (p.min(self.config.proxies - 1), s)
    }

    /// Routes a sensor id through the Skip Graph, returning the proxy
    /// index and the routing hop count (the index-lookup cost a
    /// distributed deployment would pay).
    pub fn route(&self, global: u16) -> (usize, u64) {
        // An empty index means nothing is registered yet: route to proxy 0
        // with zero hops rather than crashing the query path.
        let Some(intro) = self.index.introducer() else {
            return (0, 0);
        };
        let (owner_key, stats) = self.index.search(intro, global as u64);
        let key = owner_key.unwrap_or(0);
        ((key as usize) / self.config.sensors_per_proxy, stats.hops)
    }

    /// Current simulation time (start of the next epoch).
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + self.config.lab.epoch * self.epoch_index
    }

    /// Advances the whole system by one sampling epoch (the core pass
    /// plus the default pipeline pump). Deployment-tier drivers that
    /// pump the pipelines themselves (the fleet router, with shedding
    /// and cross-proxy channels) call [`PrestoSystem::step_epoch_core`]
    /// and then their own pump instead.
    pub fn step_epoch(&mut self) {
        let t = self.step_epoch_core();
        self.pump_pipelines(t);
        self.scope_tick(t);
    }

    /// Advances everything except the query-pipeline pump by one epoch:
    /// fault gates, sampling, heartbeats, fabric retransmission and
    /// delivery, liveness, recovery, training, and clock beacons.
    /// Returns the epoch's start time — the instant a following pump
    /// pass should use.
    pub fn step_epoch_core(&mut self) -> SimTime {
        let timer = self.profiler.begin();
        let t = self.now();
        self.epoch_index += 1;
        // Everything offered this epoch that survives the channel is
        // consumed by the end of it (fabric delays are sub-epoch).
        let epoch_end = self.now();

        // 0. Proxy-tier fault gates: a proxy entering a blackout loses
        // its RAM-resident query state — pending pipeline queries,
        // uncollected answers, reply cache, per-sensor caches and model
        // replicas, and the pending-RPC tables of every channel it was
        // driving. Its sensors keep sampling into their archives; they
        // become reachable again when the deployment tier re-homes them
        // or the proxy reboots.
        for p in 0..self.config.proxies {
            let down = self.config.faults.proxy_down(p, t);
            if down && !self.proxy_was_down[p] {
                self.proxies[p].crash_reset();
                for gid in 0..self.total_sensors() {
                    if self.assignment[gid] == p {
                        let (hp, hs) = self.locate(crate::gid16(gid));
                        self.downlinks[hp][hs].reset_proxy_state();
                    }
                }
            }
            self.proxy_was_down[p] = down;
        }

        // 1. Fault gates: detect crash edges and set each sensor's
        // channel state — uplink fabric *and* downlink channel — for
        // this epoch. The shared fading state (when correlated loss is
        // on) advances one chain step per epoch, pinned bad during
        // injected burst windows.
        for shared in &self.shared_loss {
            shared.force(if self.config.faults.shared_burst_active(t) {
                Some(true)
            } else {
                None
            });
            shared.advance(1);
        }
        for gid in 0..self.total_sensors() {
            let (p, s) = self.locate(crate::gid16(gid));
            let down = self.config.faults.is_down(gid, t);
            if down && !self.was_down[gid] {
                // Crash onset: the unacked retransmission window lives
                // in the node's RAM — a powered-off node neither
                // retries nor pays for retries.
                self.fabric.clear_pending(gid);
            }
            if self.config.faults.rebooted_within(gid, self.last_fault_check, t) {
                // RAM state (model replica, pending batch, archive page
                // buffer) dies with the crash; the flash archive and
                // the sequence counter survive.
                self.nodes[p][s].reboot(t);
                self.fabric.clear_pending(gid);
            }
            self.was_down[gid] = down;
            // A sensor whose *serving proxy* is down has no working
            // head-end: its uplinks die in the channel (surfacing later
            // as gaps to repair) until the proxy reboots or the sensor
            // re-homes to a survivor.
            let reachable = !self.config.faults.is_unreachable(gid, t)
                && !self.config.faults.proxy_down(self.assignment[gid], t);
            self.fabric.set_link_up(gid, reachable);
            self.downlinks[p][s].set_link_up(reachable);
            // Downlink maintenance: refills the retransmission budget.
            self.downlinks[p][s].tick(t);
        }
        self.last_fault_check = t;

        // 2. Sampling. Crashed sensors sample nothing (their archives
        // gap too); everything an alive sensor emits enters the fabric.
        // The sensors stepped are the core pass's profiler work items.
        let mut stepped = 0u64;
        for p in 0..self.config.proxies {
            let readings = self.labs[p].step();
            for (s, r) in readings.iter().enumerate() {
                let gid = p * self.config.sensors_per_proxy + s;
                self.truth[gid] = r.value;
                if self.config.faults.is_down(gid, t) {
                    self.event_was_active[gid] = r.event_active;
                    continue;
                }
                stepped += 1;
                // Sensors timestamp with their drifting local clocks.
                let local_t = self.clocks[gid].local_time(r.timestamp);
                let msgs = {
                    let node = &mut self.nodes[p][s];
                    node.on_sample(local_t, r.value, Some(proxy_ledger(&mut self.proxies[p])))
                };
                for msg in msgs {
                    self.fabric.offer(t, gid, msg);
                }
                // Rare-event onset → immediate semantic event report.
                if r.event_active && !self.event_was_active[gid] {
                    let ev = {
                        let node = &mut self.nodes[p][s];
                        node.on_event(
                            local_t,
                            RARE_EVENT_TYPE,
                            r.value.to_le_bytes().to_vec(),
                            Some(proxy_ledger(&mut self.proxies[p])),
                        )
                    };
                    if let Some(msg) = ev {
                        self.fabric.offer(t, gid, msg);
                    }
                }
                self.event_was_active[gid] = r.event_active;
            }
        }

        // 3. Heartbeats: sensors silent past the heartbeat interval
        // renew their proxy lease with a tiny beacon.
        let hb_every = self.config.reliability.heartbeat_every;
        for gid in 0..self.total_sensors() {
            if self.config.faults.is_down(gid, t) {
                continue;
            }
            let (p, s) = self.locate(crate::gid16(gid));
            let local_t = self.clocks[gid].local_time(t);
            let hb = {
                let node = &mut self.nodes[p][s];
                node.maybe_heartbeat(local_t, hb_every, Some(proxy_ledger(&mut self.proxies[p])))
            };
            if let Some(msg) = hb {
                self.fabric.offer(t, gid, msg);
            }
        }

        // 4. Retransmission machinery, billing each attempt to the
        // sending sensor's radio.
        {
            let nodes = &mut self.nodes;
            let spp = self.config.sensors_per_proxy;
            let nproxies = self.config.proxies;
            self.fabric.tick(t, |gid, joules| {
                let p = (gid / spp).min(nproxies - 1);
                let s = gid % spp;
                nodes[p][s]
                    .ledger_mut()
                    .charge(EnergyCategory::RadioTx, joules);
            });
        }

        // 5. Consume deliveries: dedup, gap-detect, renew leases, feed
        // the proxies, and register seal notifications in the range
        // index.
        for (gid, delivery) in self.fabric.poll(epoch_end) {
            // Deliveries land at the sensor's *serving* proxy — after a
            // re-home that is the adopter, not the physical cluster
            // head the sensor started under.
            let p = self.assignment[gid];
            if self.config.faults.proxy_down(p, t) {
                // Straggler that was already in flight when the proxy
                // died: nobody is listening. Dropping it *before* the
                // gap tracker sees its sequence number keeps the span
                // repairable — the eventual successor detects the jump
                // and replays it from the archive.
                continue;
            }
            let prior_covered = self.gaps.covered_until(gid);
            match self
                .gaps
                .observe(gid, delivery.seq, delivery.msg.sent_at, t)
            {
                Observation::Duplicate => continue,
                Observation::Fresh | Observation::Gap { .. } => {}
            }
            if self.liveness.heard(gid, t) {
                // Reconnect after a detected outage: repair the whole
                // silent span even when no sequence jump exists (a
                // rebooted sensor starts cleanly at the next seq).
                self.gaps
                    .request_recovery(gid, prior_covered, delivery.msg.sent_at, t);
            }
            self.proxies[p].on_uplink(&delivery.msg);
        }
        // Seal notifications recorded by the proxies register into the
        // range index here, where the clock correctors live.
        for p in 0..self.config.proxies {
            for (sensor, start, end) in self.proxies[p].take_sealed_spans() {
                let corrector = &self.correctors[sensor as usize];
                self.time_index
                    .register(p, corrector.correct(start), corrector.correct(end));
            }
        }

        // 6. Re-grade liveness and run queued archive-backed repairs.
        for gid in 0..self.total_sensors() {
            self.liveness.check(gid, t);
        }
        self.attempt_recoveries(t);

        // Periodic model training checks, routed by assignment so an
        // adopter trains and pushes for its re-homed sensors. Down
        // proxies train nothing. (The time-range index is maintained by
        // seal notifications and recovery rebuilds, so no periodic
        // refresh happens here.)
        if t - self.last_train_check >= TRAIN_CHECK_EVERY {
            self.last_train_check = t;
            for gid in 0..self.total_sensors() {
                let sp = self.assignment[gid];
                if self.config.faults.is_unreachable(gid, t)
                    || self.config.faults.proxy_down(sp, t)
                {
                    continue;
                }
                let (hp, hs) = self.locate(crate::gid16(gid));
                let node = &mut self.nodes[hp][hs];
                let chan = &mut self.downlinks[hp][hs];
                self.proxies[sp].maybe_train_and_push(t, crate::gid16(gid), node, chan);
            }
            for p in 0..self.config.proxies {
                if !self.config.faults.proxy_down(p, t) {
                    self.proxies[p].refresh_spatial_model();
                }
            }
        }

        // Hourly clock beacons calibrate the correctors.
        if t - self.last_beacon >= SimDuration::from_hours(1) {
            self.last_beacon = t;
            for gid in 0..self.total_sensors() {
                if self.config.faults.is_down(gid, t) {
                    continue;
                }
                let local = self.clocks[gid].local_time(t);
                self.correctors[gid].observe_beacon(local, t);
            }
        }
        self.profiler.end("step_epoch_core", timer);
        self.profiler.count("step_epoch_core", stepped);
        self.profiler.epoch();
        t
    }

    /// The default asynchronous query-pipeline pump: every *up* proxy
    /// issues or retransmits downlink pulls for all of its outstanding
    /// queries (fairness-budgeted across the sensors it currently
    /// serves, per the assignment), matches arriving replies back to
    /// pending queries, and completes them — one proxy overlaps many
    /// in-flight pulls across epochs. Deployment-tier drivers replace
    /// this with their own pump (shedding, cross-proxy channels).
    pub fn pump_pipelines(&mut self, t: SimTime) {
        let timer = self.profiler.begin();
        let mut attempts = 0u64;
        for p in 0..self.config.proxies {
            if self.config.faults.proxy_down(p, t) {
                continue;
            }
            let assignment = &self.assignment;
            let mut view: Vec<presto_proxy::PumpSensor<'_>> = self
                .nodes
                .iter_mut()
                .flatten()
                .zip(self.downlinks.iter_mut().flatten())
                .enumerate()
                .filter(|&(gid, _)| assignment[gid] == p)
                .map(|(gid, (node, chan))| presto_proxy::PumpSensor {
                    gid: crate::gid16(gid),
                    node,
                    chan,
                })
                .collect();
            self.proxies[p].pump_queries_view(t, &mut view);
            attempts += self.proxies[p].pipeline().last_pump_attempts() as u64;
        }
        self.profiler.end("pump_pipelines", timer);
        self.profiler.count("pump_pipelines", attempts);
    }

    /// Current serving proxy per sensor (flat global ids).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Re-homes a sensor to a new serving proxy: registers it there,
    /// clears the proxy-side half of its downlink channel (the previous
    /// driver's pending-RPC table means nothing to the new one), and
    /// routes its future uplinks, pulls, training, and recovery replays
    /// to the adopter. Cache and replica warm-up is the caller's job —
    /// the deployment tier drives an archive-backed recovery replay
    /// over the outage span, the same warm-up path gap repair uses.
    pub fn rehome_sensor(&mut self, gid: usize, proxy: usize) {
        assert!(proxy < self.config.proxies, "no such proxy");
        if self.assignment[gid] == proxy {
            return;
        }
        self.assignment[gid] = proxy;
        self.proxies[proxy].register_sensor(crate::gid16(gid));
        let (hp, hs) = self.locate(crate::gid16(gid));
        self.downlinks[hp][hs].reset_proxy_state();
    }

    /// Queues an archive-backed recovery replay for every sensor
    /// `proxy` currently serves, from each sensor's last covered
    /// instant up to `t`. The deployment tier calls this when a fenced
    /// proxy rejoins the quorum after a mesh partition heals: its
    /// caches and replicas silently aged while it was cut off (uplinks
    /// kept landing, but nothing cross-checked them), so it re-syncs
    /// through the same archive replay path gap repair uses. Returns
    /// the number of replays queued.
    pub fn resync_proxy(&mut self, proxy: usize, t: SimTime) -> usize {
        let mut queued = 0;
        for gid in 0..self.total_sensors() {
            if self.assignment[gid] != proxy {
                continue;
            }
            let covered = self.gaps.covered_until(gid);
            if covered >= t {
                continue;
            }
            self.gaps.request_recovery(gid, covered, t, t);
            queued += 1;
        }
        queued
    }

    /// Attempts every queued recovery replay: reachable sensors get a
    /// padded archive pull over the missed span; unreachable ones stay
    /// queued for the next epoch. A completed repair rebuilds the
    /// time-range index (lost seal notifications leave it stale for
    /// exactly the spans a repair covers).
    fn attempt_recoveries(&mut self, t: SimTime) {
        let pending = self.gaps.take_pending();
        if pending.is_empty() {
            return;
        }
        let mut repaired = false;
        for r in pending {
            let sp = self.assignment[r.sensor];
            if self.config.faults.is_unreachable(r.sensor, t)
                || self.config.faults.proxy_down(sp, t)
            {
                self.gaps.request_recovery(r.sensor, r.from, r.to, r.detected_at);
                continue;
            }
            let (p, s) = self.locate(crate::gid16(r.sensor));
            let (from, to) = padded_span(r.from, r.to, RECOVERY_PAD);
            let tolerance = RECOVERY_TOLERANCE;
            let node = &mut self.nodes[p][s];
            let chan = &mut self.downlinks[p][s];
            match self.proxies[sp].recover_span(t, crate::gid16(r.sensor), from, to, tolerance, node, chan)
            {
                Some(samples) => {
                    self.gaps.complete(&r, samples as u64, t);
                    // A served pull is proof of life.
                    self.liveness.heard(r.sensor, t);
                    repaired = true;
                }
                None => self.gaps.requeue_failed(r),
            }
        }
        if repaired {
            self.refresh_time_index();
        }
    }

    /// Splits the mutable borrows a query path needs: proxies, nodes,
    /// and downlink channels. Unreachable sensors are handled by the
    /// channels' own fault gates, not by link substitution.
    #[allow(clippy::type_complexity)]
    pub fn split_for_query(
        &mut self,
    ) -> (
        &mut Vec<PrestoProxy>,
        &mut Vec<Vec<SensorNode>>,
        &mut Vec<Vec<DownlinkChannel>>,
    ) {
        (&mut self.proxies, &mut self.nodes, &mut self.downlinks)
    }

    /// Submits a query to the owning proxy's asynchronous pipeline at
    /// the system's current time. Returns `(proxy index, ticket)` — the
    /// completion surfaces under that ticket in
    /// [`PrestoSystem::take_completed_queries`] — or `None` for query
    /// classes the pipeline does not serve (deployment-wide Events) and
    /// for sensors whose serving proxy is down (a dead process accepts
    /// no submissions; enqueuing into its pipeline object would park a
    /// query nothing ever pumps or expires).
    pub fn submit_query(&mut self, q: crate::store::StoreQuery) -> Option<(usize, u64)> {
        let t = self.now();
        let pq = q.pipeline_query().ok()?;
        let p = self.assignment[pq.sensor() as usize];
        if self.config.faults.proxy_down(p, t) {
            return None;
        }
        let ticket = self.proxies[p].submit_query(t, pq);
        Some((p, ticket))
    }

    /// Drains every pipeline completion across proxies since the last
    /// call, tagged with the owning proxy's index.
    pub fn take_completed_queries(&mut self) -> Vec<(usize, CompletedQuery)> {
        let mut out = Vec::new();
        for (p, proxy) in self.proxies.iter_mut().enumerate() {
            out.extend(proxy.take_completed_queries().into_iter().map(|c| (p, c)));
        }
        out
    }

    /// Pending pipeline queries across proxies (leak probe: zero after
    /// every submitted query completed or failed).
    pub fn pipeline_pending_total(&self) -> usize {
        self.proxies.iter().map(|p| p.pipeline().pending_queries()).sum()
    }

    /// Outstanding async RPC entries across every downlink channel
    /// (leak probe for the pending-RPC tables).
    pub fn async_in_flight_total(&self) -> usize {
        self.downlinks
            .iter()
            .flatten()
            .map(|c| c.async_in_flight())
            .sum()
    }

    /// Current liveness grade of a sensor.
    pub fn health(&self, sensor: u16) -> Health {
        self.liveness.health(sensor as usize)
    }

    /// Shared fading states (one per proxy) when correlated loss is on.
    pub fn shared_loss(&self) -> &[SharedLossState] {
        &self.shared_loss
    }

    /// Phase timers over the epoch pump.
    pub fn profiler(&self) -> &EpochProfiler {
        &self.profiler
    }

    /// Mutable profiler access: the fleet deployment times its own
    /// phases (mesh, membership, fleet pump) into the same read-out.
    pub fn profiler_mut(&mut self) -> &mut EpochProfiler {
        &mut self.profiler
    }

    /// The `presto-scope` sampler + watchdogs.
    pub fn scope(&self) -> &PrestoScope {
        &self.scope
    }

    /// Mutable scope access (external feeds, deployment-tier ticks).
    pub fn scope_mut(&mut self) -> &mut PrestoScope {
        &mut self.scope
    }

    /// One scope tick at epoch time `t`: observes this system into the
    /// scope's resolved slots and feeds them to the sampler and
    /// watchdogs with the fault plan as blame context. Builds no tree
    /// and allocates nothing unless an incident opens or extends; no-op
    /// when the scope is disabled. Deployment-tier drivers that pump the
    /// pipelines themselves tick their own observe pass instead.
    pub fn scope_tick(&mut self, t: SimTime) {
        if !self.scope.enabled() {
            return;
        }
        let mut readings = self.scope.begin_tick();
        self.observe_into(&mut self.scope.sink(&mut readings));
        self.scope.end_tick(t, readings, &self.config.faults);
    }

    /// One unified metrics snapshot across every tier this system
    /// holds. Per-proxy and per-sensor counters are *observed* into
    /// shared sections, which sums them — the same aggregation a
    /// multi-proxy fleet report needs, with `max`-annotated fields
    /// (peak in-flight) taking the maximum instead.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.observe_into(&mut snap.sink());
        snap
    }

    /// Observes every tier this system holds into `s`: the one pass
    /// behind both [`PrestoSystem::telemetry_snapshot`] and
    /// [`PrestoSystem::scope_tick`], so a scope can follow exactly the
    /// paths the export carries. Sections the sink does not want are
    /// skipped before their stats are gathered.
    pub fn observe_into(&self, s: &mut Sink<'_>) {
        for p in &self.proxies {
            s.observe("proxy", &p.stats());
            s.observe("pipeline", &p.pipeline().stats());
            s.observe("slice", &p.pipeline().slice_cache().stats());
            s.observe("reply_cache", p.pipeline().reply_cache());
        }
        // Live trace-retention gauges: drop counts are the honest
        // "recorder overflowed" signal the scope's leak probes read.
        if s.wants("trace") {
            let mut tr = s.child("trace");
            for p in &self.proxies {
                let tracer = p.pipeline().tracer();
                tr.counter("finished_dropped", tracer.finished_dropped());
                tr.counter("recorder_dropped", tracer.recorder().dropped());
                tr.counter("recorder_len", tracer.recorder().len() as u64);
                tr.counter("open", tracer.open_count() as u64);
            }
        }
        if s.wants("downlink") {
            let mut downlink = s.child("downlink");
            for ch in self.downlinks.iter().flatten() {
                ch.stats().observe(&mut downlink);
            }
        }
        s.observe("fabric", &self.fabric.stats());
        s.observe("liveness", &self.liveness.stats());
        s.observe("recovery", &self.gaps.stats());
        if s.wants("sensor") || s.wants("flash") || s.wants("archive") {
            for n in self.nodes.iter().flatten() {
                s.observe("sensor", &n.stats());
                s.observe("flash", &n.archive().flash_stats());
                s.observe("archive", &n.archive().stats());
            }
        }
        s.observe("profiler", &self.profiler);
        s.observe("scope", &self.scope);
    }

    /// The injected fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    /// Rebuilds the time-range index from every sensor's *live* segment
    /// spans, with endpoints mapped through the sensor's clock corrector
    /// so registered intervals are in reference time (archives stamp in
    /// drifting local time, and accumulated skew is unbounded — no
    /// fixed routing slack could cover it). Rebuilding rather than
    /// accumulating keeps the index bounded by live segments — entries
    /// for reclaimed segments drop out — and the span count is small
    /// (at most blocks-per-archive per sensor), so consumers rebuild
    /// on demand instead of relying on a periodic refresh. Each span
    /// registers under the sensor's serving proxy, as seal notifications
    /// do, so a re-homed sensor's archive routes to its adopter.
    pub fn refresh_time_index(&mut self) {
        self.time_index.clear();
        for (gid, node) in self.nodes.iter().flatten().enumerate() {
            let corrector = &self.correctors[gid];
            for (start, end) in node.archive().segment_spans() {
                self.time_index.register(
                    self.assignment[gid],
                    corrector.correct(start),
                    corrector.correct(end),
                );
            }
        }
    }

    /// Routes a time range through the interval index, returning the
    /// proxies holding overlapping archived data and the routing hop
    /// count. An empty (not yet refreshed) index falls back to every
    /// proxy — correct, just unpruned.
    pub fn route_range(&self, from: SimTime, to: SimTime) -> (Vec<usize>, u64) {
        if self.time_index.is_empty() {
            return ((0..self.config.proxies).collect(), 0);
        }
        let (proxies, stats) = self.time_index.proxies_overlapping(from, to);
        (proxies, stats.hops)
    }

    /// Runs for a duration.
    pub fn run(&mut self, duration: SimDuration) {
        let epochs = duration.div_duration(self.config.lab.epoch);
        for _ in 0..epochs {
            self.step_epoch();
        }
        // Settle idle listening to the horizon.
        let end = self.now();
        for cluster in &mut self.nodes {
            for node in cluster {
                node.advance_to(end);
            }
        }
    }

    /// Merged energy ledger over all sensors.
    pub fn sensor_ledger_total(&self) -> EnergyLedger {
        let mut total = EnergyLedger::new();
        for n in self.nodes.iter().flatten() {
            total.merge(n.ledger());
        }
        total
    }
}

/// Borrow helper: the proxy's ledger for receiver-side energy charging.
fn proxy_ledger(proxy: &mut PrestoProxy) -> &mut EnergyLedger {
    proxy.ledger_mut()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SystemConfig {
        SystemConfig {
            proxies: 2,
            sensors_per_proxy: 3,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn builds_and_routes() {
        let sys = PrestoSystem::new(small());
        assert_eq!(sys.total_sensors(), 6);
        assert_eq!(sys.locate(0), (0, 0));
        assert_eq!(sys.locate(4), (1, 1));
        let (p, _) = sys.route(4);
        assert_eq!(p, 1);
        let (p0, _) = sys.route(2);
        assert_eq!(p0, 0);
    }

    #[test]
    fn runs_and_installs_models() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        let snap = sys.telemetry_snapshot();
        let models_pushed = snap.get("proxy.models_pushed").unwrap_or(0.0);
        assert!(models_pushed >= 6.0, "models pushed: {models_pushed}");
        assert!(snap.get("proxy.uplinks").unwrap_or(0.0) > 0.0);
        assert!(sys.sensor_ledger_total().total() > 0.0);
        // Every sensor carries a model replica after a day.
        assert!(sys.nodes.iter().flatten().all(|n| n.has_model()));
    }

    #[test]
    fn model_driven_push_reduces_traffic_over_time() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        let day1: u64 = sys
            .nodes
            .iter()
            .flatten()
            .map(|n| n.stats().bytes_sent)
            .sum();
        sys.run(SimDuration::from_days(1));
        let day2: u64 = sys
            .nodes
            .iter()
            .flatten()
            .map(|n| n.stats().bytes_sent)
            .sum::<u64>()
            - day1;
        // Day 1 includes the no-model phase (push everything); day 2 is
        // fully model-driven and must be far quieter.
        assert!(day2 * 2 < day1, "day1 {day1} vs day2 {day2}");
    }

    #[test]
    fn rare_events_reach_the_proxy() {
        let mut cfg = small();
        cfg.lab.events_per_day = 8.0;
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_days(2));
        let events = sys
            .telemetry_snapshot()
            .get("proxy.events_cached")
            .unwrap_or(0.0);
        assert!(events > 0.0, "no events cached at proxies");
    }

    #[test]
    fn clock_correctors_calibrate_under_drift() {
        let mut cfg = small();
        cfg.clock_skew_ppm = 50.0;
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(6));
        // Corrected timestamps land near the truth; with 50 ppm of skew an
        // uncalibrated corrector would be over a second off by now.
        let t = sys.now();
        for gid in 0..sys.total_sensors() {
            let local = sys.clocks[gid].local_time(t);
            let corrected = sys.correctors[gid].correct(local);
            let err = (corrected.as_secs_f64() - t.as_secs_f64()).abs();
            assert!(err < 0.1, "sensor {gid} residual {err}");
        }
    }

    #[test]
    fn range_routing_prunes_non_overlapping_proxies() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        sys.refresh_time_index();
        assert!(!sys.time_index.is_empty(), "segments were never registered");
        // Every proxy archived the first day.
        let (covered, _) = sys.route_range(SimTime::from_hours(1), SimTime::from_hours(2));
        assert_eq!(covered, vec![0, 1]);
        // Nothing was archived a month out: every proxy is pruned.
        let (none, _) = sys.route_range(SimTime::from_days(30), SimTime::from_days(31));
        assert!(none.is_empty(), "future window should prune all proxies");
    }

    #[test]
    fn time_index_registers_spans_under_the_serving_proxy() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        for gid in 3..6 {
            sys.rehome_sensor(gid, 0);
        }
        // Every completed repair rebuilds the index; seal notifications
        // already register under the serving proxy, and so must it.
        sys.refresh_time_index();
        let (covered, _) = sys.route_range(SimTime::from_hours(1), SimTime::from_hours(2));
        assert_eq!(covered, vec![0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut cfg = small();
            cfg.seed = seed;
            let mut sys = PrestoSystem::new(cfg);
            sys.run(SimDuration::from_hours(12));
            sys.sensor_ledger_total().total()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn seal_notifications_maintain_time_index_without_rebuild() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        // No refresh_time_index call: the index was fed by SegmentSeal
        // uplinks alone.
        assert!(
            !sys.time_index.is_empty(),
            "no seal notification reached the index"
        );
        let (covered, _) = sys.route_range(SimTime::from_hours(1), SimTime::from_hours(2));
        assert_eq!(covered, vec![0, 1]);
        let sealed: u64 = sys
            .nodes
            .iter()
            .flatten()
            .map(|n| n.stats().seals_sent)
            .sum();
        assert!(sealed > 0, "sensors never announced a seal");
    }

    /// Tight leases for failure tests: detection within minutes.
    fn tight_reliability() -> presto_reliability::ReliabilityConfig {
        presto_reliability::ReliabilityConfig {
            heartbeat_every: SimDuration::from_mins(2),
            liveness: presto_reliability::LivenessConfig {
                lease: SimDuration::from_mins(5),
                dead_after: SimDuration::from_mins(15),
            },
            ..presto_reliability::ReliabilityConfig::default()
        }
    }

    #[test]
    fn blackout_is_detected_and_replayed_from_the_archive() {
        let mut cfg = small();
        cfg.reliability = tight_reliability();
        // Sensor 0's link dies for two hours mid-run; the sensor keeps
        // sampling into its archive the whole time.
        cfg.faults = presto_sim::FaultPlan::none().with_blackout_of(
            vec![0],
            SimTime::from_hours(3),
            SimTime::from_hours(5),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(8));

        let ls = sys.liveness.stats();
        assert!(ls.suspected >= 1, "outage never suspected");
        assert!(ls.reconnected >= 1, "reconnect never observed");
        assert_eq!(sys.health(0), Health::Live, "sensor should be back");

        let rs = sys.gaps.stats();
        assert!(rs.recoveries >= 1, "no recovery replay completed");
        assert!(
            rs.samples_replayed > 100,
            "blackout span not replayed: {} samples",
            rs.samples_replayed
        );
        // The proxy's cache now covers the blacked-out window densely.
        let cache = sys.proxies[0].cache(0).expect("registered sensor");
        let coverage = cache.coverage(
            SimTime::from_hours(3) + SimDuration::from_mins(5),
            SimTime::from_hours(5) - SimDuration::from_mins(5),
            SimDuration::from_secs(31),
        );
        assert!(coverage > 0.9, "post-recovery coverage {coverage}");
    }

    #[test]
    fn crash_reboot_wipes_ram_but_archive_survives() {
        let mut cfg = small();
        cfg.reliability = tight_reliability();
        cfg.faults = presto_sim::FaultPlan::none().with_crash(
            0,
            SimTime::from_hours(3),
            SimTime::from_hours(4),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(8));

        let node = &sys.nodes[0][0];
        assert_eq!(node.stats().reboots, 1);
        // During the crash nothing was sampled: the truth has a gap,
        // and the sensor archived nothing in the window.
        let mut ledger = EnergyLedger::new();
        let in_crash = sys.nodes[0][0]
            .archive_mut()
            .query_range(
                SimTime::from_hours(3) + SimDuration::from_mins(1),
                SimTime::from_hours(4) - SimDuration::from_mins(1),
                &mut ledger,
            )
            .expect("archive readable");
        assert!(in_crash.is_empty(), "crashed sensor kept archiving");
        // But everything before the crash is still there.
        let before = sys.nodes[0][0]
            .archive_mut()
            .query_range(SimTime::from_hours(1), SimTime::from_hours(2), &mut ledger)
            .expect("archive readable");
        assert!(before.len() > 100, "pre-crash archive lost");
        // The sensor reported back in and was marked live again.
        assert_eq!(sys.health(0), Health::Live);
        assert!(sys.liveness.stats().reconnected >= 1);
    }

    #[test]
    fn lossy_fabric_exercises_retransmit_and_gap_recovery() {
        let mut cfg = small();
        cfg.proxies = 1;
        cfg.reliability = tight_reliability();
        // A typical indoor link: mostly clean with occasional fades.
        cfg.reliability.fabric.up_loss = presto_net::LossProcess::Gilbert(presto_net::GilbertElliott {
            p_gb: 0.005,
            p_bg: 0.15,
            loss_good: 0.02,
            loss_bad: 0.75,
        });
        cfg.reliability.fabric.down_loss = presto_net::LossProcess::Bernoulli(0.1);
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(12));
        let fs = sys.fabric.stats();
        assert!(fs.lost_in_channel > 0, "channel never lost a message");
        assert!(fs.retransmits > 0, "loss never triggered retransmission");
        assert!(
            fs.delivered > fs.offered / 2,
            "retransmission failed to recover deliveries: {fs:?}"
        );
        // Whatever was permanently dropped surfaced as gaps; any
        // detected gap must eventually be repaired.
        let rs = sys.gaps.stats();
        if rs.gaps_detected > 0 {
            assert!(
                rs.recoveries > 0,
                "gaps detected but never repaired: {rs:?}"
            );
        }
    }

    #[test]
    fn correlated_burst_fails_every_sensors_pulls_honestly() {
        use crate::store::{StoreQuery, UnifiedStore};
        let mut cfg = small();
        cfg.proxies = 1;
        cfg.reliability.shared_fading = Some(presto_net::GilbertElliott {
            p_gb: 0.002,
            p_bg: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0, // a fade takes the whole neighbourhood down
        });
        // Deterministic burst mid-run, injected through the fault plan.
        let burst_from = SimTime::from_hours(5);
        let burst_to = SimTime::from_hours(6);
        cfg.faults = presto_sim::FaultPlan::none().with_shared_burst(burst_from, burst_to);
        let mut sys = PrestoSystem::new(cfg);
        assert_eq!(sys.shared_loss().len(), 1, "one shared state per proxy");

        // Run into the middle of the burst.
        sys.run(SimDuration::from_hours(5) + SimDuration::from_mins(30));
        assert!(sys.shared_loss()[0].in_bad(), "burst window must pin bad");
        let pull_failures_before: u64 = sys.proxies.iter().map(|p| p.stats().pull_failures).sum();
        for sensor in 0..sys.total_sensors() as u16 {
            // Tolerance far below the push tolerance defeats
            // extrapolation, forcing the pull path.
            let r = UnifiedStore::new(&mut sys).query(StoreQuery::Now {
                sensor,
                tolerance: 0.05,
            });
            assert_eq!(
                r.source,
                presto_proxy::AnswerSource::Failed,
                "sensor {sensor} pulled through a total shared fade"
            );
            assert!(r.sigma.is_infinite(), "failed pulls must advertise nothing");
            // The failed RPC's timeouts surface in the answer latency.
            assert!(r.latency >= SimDuration::from_secs(5), "{:?}", r.latency);
        }
        let pull_failures_during: u64 = sys.proxies.iter().map(|p| p.stats().pull_failures).sum();
        assert_eq!(
            pull_failures_during - pull_failures_before,
            sys.total_sensors() as u64,
            "every burst-time pull must surface in pull_failures"
        );
        let retried = sys.telemetry_snapshot().get("downlink.retransmits");
        assert!(
            retried.is_some_and(|r| r > 0.0),
            "burst pulls must have retried: {retried:?}"
        );

        // After the burst the same queries succeed again.
        sys.run(SimDuration::from_hours(1));
        assert!(!sys.shared_loss()[0].in_bad(), "burst must release");
        let r = UnifiedStore::new(&mut sys).query(StoreQuery::Now {
            sensor: 0,
            tolerance: 0.05,
        });
        assert_ne!(r.source, presto_proxy::AnswerSource::Failed);
    }

    #[test]
    fn shared_fading_correlates_the_whole_neighbourhood() {
        // With per-channel independent loss, per-sensor delivery dips are
        // uncorrelated; under shared fading the fabric sees common bursts.
        // Sanity-check the plumbing end to end: the correlated run still
        // delivers (retransmission covers the bursts) and every channel
        // observed loss.
        let mut cfg = small();
        cfg.proxies = 1;
        cfg.reliability.shared_fading = Some(presto_net::GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.3,
            loss_good: 0.01,
            loss_bad: 0.95,
        });
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(8));
        let fs = sys.fabric.stats();
        assert!(fs.lost_in_channel > 0, "shared fading never lost a message");
        assert!(fs.retransmits > 0);
        assert!(
            fs.delivered > fs.offered / 2,
            "retransmission failed to recover deliveries: {fs:?}"
        );
        assert!(sys.shared_loss()[0].steps() > 0, "driver never advanced the chain");
    }

    #[test]
    fn pipeline_serves_concurrent_queries_under_loss_without_leaks() {
        use crate::store::StoreQuery;
        let mut cfg = small();
        cfg.proxies = 1;
        cfg.sensors_per_proxy = 4;
        cfg.reliability.downlink.request_loss = presto_net::LossProcess::Bernoulli(0.3);
        cfg.reliability.downlink.reply_loss = presto_net::LossProcess::Bernoulli(0.3);
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_days(1));
        // A burst of tight-tolerance PAST queries across every sensor:
        // none can be answered radio-free, so they all enqueue pulls.
        let mut tickets = Vec::new();
        for sensor in 0..4u16 {
            for w in 0..3u64 {
                let from = SimTime::from_hours(14 + 2 * w);
                tickets.push(
                    sys.submit_query(StoreQuery::Past {
                        sensor,
                        from,
                        to: from + SimDuration::from_mins(30),
                        tolerance: 0.05,
                    })
                    .expect("past queries are pipelined"),
                );
            }
        }
        // A window a recovery replay happened to densify can complete
        // at submit from cache; everything else needs a pull.
        let immediate: Vec<_> = sys.take_completed_queries();
        assert_eq!(sys.pipeline_pending_total() + immediate.len(), 12);
        assert!(
            sys.pipeline_pending_total() >= 8,
            "most tight-tolerance queries must need pulls"
        );
        let fast_tickets: Vec<u64> = immediate.iter().map(|(_, c)| c.id).collect();
        // Pump across epochs until every query terminates (bounded by
        // the pipeline deadline).
        let deadline = presto_proxy::DEFAULT_DEADLINE;
        let epochs = deadline.div_duration(sys.config().lab.epoch) + 2;
        let mut done = immediate;
        for _ in 0..epochs {
            sys.step_epoch();
            done.extend(sys.take_completed_queries());
            if done.len() == tickets.len() {
                break;
            }
        }
        assert_eq!(done.len(), tickets.len(), "every query must terminate");
        // No hangs, no leaks: pending queries and pending-RPC tables
        // are empty once everything completed.
        assert_eq!(sys.pipeline_pending_total(), 0);
        assert_eq!(sys.async_in_flight_total(), 0);
        let peak = sys.telemetry_snapshot().get("pipeline.max_in_flight");
        assert!(
            peak.is_some_and(|p| p >= 4.0),
            "loss must force overlapping in-flight pulls: {peak:?}"
        );
        for (_, c) in &done {
            if fast_tickets.contains(&c.id) {
                continue;
            }
            match &c.answer {
                presto_proxy::PipelineAnswer::Series(a) => {
                    assert!(
                        a.source == presto_proxy::AnswerSource::Pulled
                            || a.source == presto_proxy::AnswerSource::Failed,
                        "{:?}",
                        a.source
                    );
                    if a.source == presto_proxy::AnswerSource::Pulled {
                        assert!(!a.samples.is_empty());
                    }
                }
                other => panic!("past queries produce series: {other:?}"),
            }
        }
    }

    #[test]
    fn pipeline_fast_paths_complete_without_radio_work() {
        use crate::store::StoreQuery;
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        let before = sys.telemetry_snapshot();
        for sensor in 0..6u16 {
            sys.submit_query(StoreQuery::Now {
                sensor,
                tolerance: 1.5,
            });
        }
        let done = sys.take_completed_queries();
        assert_eq!(done.len(), 6, "loose NOW queries complete at submit");
        let after = sys.telemetry_snapshot();
        let delta = |path: &str| after.get(path).expect(path) - before.get(path).expect(path);
        assert_eq!(delta("pipeline.completed_fast"), 6.0);
        assert_eq!(delta("pipeline.rpcs_issued"), 0.0, "no radio work");
        assert_eq!(sys.pipeline_pending_total(), 0);
    }

    #[test]
    fn proxy_blackout_gates_its_sensors_and_rehoming_restores_service() {
        use crate::store::{StoreQuery, UnifiedStore};
        let mut cfg = small();
        cfg.reliability = tight_reliability();
        // Proxy 1 dies at hour 6 and never reboots.
        cfg.faults =
            presto_sim::FaultPlan::none().with_proxy_crash(1, SimTime::from_hours(6), SimTime::from_hours(1000));
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(6));
        // Runs are epoch-quantized: step across the crash boundary so
        // the consumption baseline is taken with the proxy down.
        while !sys.faults().proxy_down(1, sys.now()) {
            sys.step_epoch();
        }
        sys.step_epoch();
        let uplinks_at_crash = sys.proxies[1].stats().uplinks;
        assert!(uplinks_at_crash > 0);

        // An hour into the blackout: proxy 1 consumed nothing more, its
        // sensors' fabric links are gated, and a query towards one of
        // its sensors fails honestly.
        sys.run(SimDuration::from_hours(1));
        assert_eq!(
            sys.proxies[1].stats().uplinks,
            uplinks_at_crash,
            "a down proxy must consume nothing"
        );
        assert!(
            sys.proxies[1].cache(4).is_none_or(|c| c.is_empty()),
            "crash wiped the caches"
        );
        let r = UnifiedStore::new(&mut sys).query(StoreQuery::Now {
            sensor: 4,
            tolerance: 0.05,
        });
        assert_eq!(r.source, presto_proxy::AnswerSource::Failed);
        assert!(r.sigma.is_infinite());

        // Re-home proxy 1's sensors to proxy 0; service resumes there.
        for gid in 3..6usize {
            sys.rehome_sensor(gid, 0);
        }
        assert_eq!(sys.assignment()[4], 0);
        sys.run(SimDuration::from_hours(2));
        // The adopter heard the re-homed sensors (uplinks flow again) …
        assert!(
            sys.health(4) == Health::Live,
            "re-homed sensor must report in at the adopter: {:?}",
            sys.health(4)
        );
        // … and answers queries for them.
        let r = UnifiedStore::new(&mut sys).query(StoreQuery::Now {
            sensor: 4,
            tolerance: 1.5,
        });
        assert_ne!(r.source, presto_proxy::AnswerSource::Failed, "{r:?}");
        // The gap over the blackout was repaired from the archive into
        // the adopter's cache.
        let rs = sys.gaps.stats();
        assert!(rs.recoveries >= 1, "no recovery replay after re-home: {rs:?}");
        // Leak probes: nothing outstanding anywhere.
        assert_eq!(sys.pipeline_pending_total(), 0);
        assert_eq!(sys.async_in_flight_total(), 0);
    }

    #[test]
    fn dead_sensor_health_reaches_dead_and_widens_confidence() {
        let mut cfg = small();
        cfg.reliability = tight_reliability();
        // Crash for the whole back half of the run, no reboot.
        cfg.faults = presto_sim::FaultPlan::none().with_crash(
            0,
            SimTime::from_hours(2),
            SimTime::from_hours(100),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(4));
        assert_eq!(sys.health(0), Health::Dead);
        assert!(sys.health(0).widen_sigma(0.1, 1.0).is_infinite());
        // Unaffected sensors stay live.
        assert_eq!(sys.health(1), Health::Live);
    }
}
