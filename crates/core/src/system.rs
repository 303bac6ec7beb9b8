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
//!
//! The system owns every proxy→sensor channel: each sensor's home
//! channel and the cross-proxy channels peers open to pull sensors they
//! do not serve. One reachability rule gates them all, and one pump
//! ([`PrestoSystem::pump_views`]) drives them.

use std::collections::BTreeMap;

use presto_index::{ClockCorrector, DriftClock, SkipGraph, TimeRangeIndex};
use presto_net::{LinkModel, LossProcess, SharedLossState};
use presto_proxy::{CompletedQuery, PrestoProxy, ProxyConfig, PumpSensor};
use presto_reliability::{
    recovery::padded_span, DownlinkChannel, Fabric, GapTracker, Health, LivenessMonitor,
    Observation, ReliabilityConfig, RETRY_BUDGET_J,
};
use presto_sensor::{PushPolicy, SensorConfig, SensorNode, UplinkPayload};
use presto_sim::{EnergyCategory, EnergyLedger, FaultPlan, SimDuration, SimRng, SimTime};
use presto_telemetry::{EpochProfiler, Observe, PrestoScope, Readings, ScopeConfig, Sink, Snapshot};
use presto_workloads::{LabDeployment, LabParams};

/// Event type code used for rare-event reports.
pub const RARE_EVENT_TYPE: u16 = 1;

/// LPL check interval for sensors (and so the proxies' downlink
/// preamble length).
const LPL: SimDuration = SimDuration::from_secs(1);

/// How often proxies consider retraining models.
const TRAIN_CHECK_EVERY: SimDuration = SimDuration::from_hours(1);

/// Sensor push tolerance (model-driven push threshold), which the
/// proxies extrapolate with and the store widens sigmas by.
pub(crate) const PUSH_TOLERANCE: f64 = 1.0;

/// Reply-codec tolerance for recovery pulls (tight: the replay is
/// repairing ground truth, not answering a sloppy query).
const RECOVERY_TOLERANCE: f64 = 0.05;

/// Padding added around a detected gap when pulling, absorbing boundary
/// effects (in-flight messages, clock slack).
const RECOVERY_PAD: SimDuration = SimDuration::from_secs(62);

/// System construction parameters. Sensors always duty-cycle at the
/// 1 s LPL check interval and push at `PUSH_TOLERANCE`, proxies
/// consider retraining hourly, and recovery replays pull at a fixed
/// tight tolerance; the deployment's shape, workload, loss and faults
/// are what varies.
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
    // presto-lint: allow(knob, tests/fleet_equivalence.rs and tests/fleet_partition.rs: a lossless first hop)
    pub loss: f64,
    /// Sensor clock skew spread (ppm); zero disables drift simulation.
    // presto-lint: allow(knob, clock_correctors_calibrate_under_drift: drifting sensor clocks)
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
            clock_skew_ppm: 0.0,
            proxy: ProxyConfig::default(),
            reliability: ReliabilityConfig::default(),
            faults: FaultPlan::none(),
            profile: true,
            scope: ScopeConfig::default(),
        }
    }
}

/// First sequence namespace of the cross-proxy channels: home channels
/// count up from zero, far below it.
const CROSS_SEQ_BASE: u64 = 1 << 48;

/// Sequence numbers each cross-proxy channel incarnation may draw.
const CROSS_SEQ_BLOCK: u64 = 1 << 24;

/// A running three-tier deployment.
pub struct PrestoSystem {
    config: SystemConfig,
    /// One proxy per cluster.
    pub proxies: Vec<PrestoProxy>,
    /// Every sensor node, indexed by global sensor id (proxy `p`'s
    /// cluster is ids `p * sensors_per_proxy ..`).
    pub nodes: Vec<SensorNode>,
    /// Each sensor's home downlink channel, indexed by global sensor
    /// id: the one its serving proxy drives.
    pub downlinks: Vec<DownlinkChannel>,
    /// Cross-proxy downlink channels keyed `(driver, gid)`: the channel
    /// a proxy opened to pull a sensor it does not serve.
    cross: BTreeMap<(usize, u16), DownlinkChannel>,
    /// Sequence namespace of the next cross-proxy channel incarnation.
    next_cross_seq_base: u64,
    /// The last pump pass's audit trail: `(proxy, gid, via cross-proxy
    /// channel)` for every sensor a proxy drove radio toward.
    pump_log: Vec<(usize, u16, bool)>,
    /// Per-proxy workload generators.
    labs: Vec<LabDeployment>,
    /// Order-preserving index over global sensor-id space: key = first
    /// global id owned by a proxy.
    pub index: SkipGraph<u64>,
    /// Archived `[start, end]` intervals per proxy, registered from the
    /// delivered seal notifications so range queries can prune proxies
    /// with no overlapping data.
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
    /// the physical placement (`gid / sensors_per_proxy`) and changes
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
        let mut nodes = Vec::with_capacity(total);
        let mut downlinks = Vec::with_capacity(total);
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
                push_tolerance: PUSH_TOLERANCE,
                sensor_lpl: LPL,
                ..config.proxy.clone()
            });
            for s in 0..config.sensors_per_proxy {
                let gid = crate::gid16(p * config.sensors_per_proxy + s);
                proxy.register_sensor(gid);
                let cfg = SensorConfig {
                    push: PushPolicy::ModelDriven {
                        tolerance: PUSH_TOLERANCE,
                    },
                    duty: presto_net::DutyCycle::lpl(LPL),
                    announce_seals: true,
                    ..SensorConfig::default()
                };
                let up = first_hop(config.loss, &rng, format_args!("up-{gid}"));
                nodes.push(SensorNode::new(gid, cfg, up));
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
                let down = first_hop(config.loss, &rng, format_args!("down-{gid}"));
                downlinks.push(DownlinkChannel::new(dl_cfg, down));
            }
            index.insert((p * config.sensors_per_proxy) as u64);
            proxies.push(proxy);
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
            cross: BTreeMap::new(),
            next_cross_seq_base: CROSS_SEQ_BASE,
            pump_log: Vec::new(),
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

    /// The proxy serving sensor `gid` now, or `None` for an id outside
    /// the sensor space: the one lookup every user-facing query entry
    /// makes before it touches a per-sensor table.
    pub fn serving(&self, gid: u16) -> Option<usize> {
        self.assignment.get(usize::from(gid)).copied()
    }

    /// The one reachability rule behind every channel gate: `driver`
    /// reaches sensor `gid` at `t` when the sensor is neither crashed
    /// nor blacked out and the driver is up. The fabric, home and
    /// cross-proxy downlinks, training pushes, recovery replays and
    /// the unified store's blocking queries all ask it.
    pub(crate) fn reachable(&self, gid: usize, driver: usize, t: SimTime) -> bool {
        !self.config.faults.is_unreachable(gid, t) && !self.config.faults.proxy_down(driver, t)
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

    /// Advances the whole system by one sampling epoch: the core pass,
    /// the cross-proxy channel gates, the pipeline pump and the scope
    /// tick. The fleet runs [`PrestoSystem::step_epoch_core`], its mesh
    /// and membership passes, [`PrestoSystem::gate_cross_channels`] and
    /// then the same [`PrestoSystem::pump_views`] under its fencing
    /// state.
    pub fn step_epoch(&mut self) {
        let t = self.step_epoch_core();
        self.gate_cross_channels(t);
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
        // replicas, the pending-RPC tables of the home channels it was
        // driving, and its cross-proxy channels outright. Its sensors
        // keep sampling into their archives; they become reachable
        // again when the deployment tier re-homes them or the proxy
        // reboots.
        for p in 0..self.config.proxies {
            let down = self.config.faults.proxy_down(p, t);
            if down && !self.proxy_was_down[p] {
                self.proxies[p].crash_reset();
                for (chan, &driver) in self.downlinks.iter_mut().zip(&self.assignment) {
                    if driver == p {
                        chan.reset_proxy_state();
                    }
                }
                self.drop_cross_channels(p);
            }
            self.proxy_was_down[p] = down;
        }

        // 1. Fault gates: detect crash edges and set each sensor's
        // channel state — uplink fabric *and* home downlink channel —
        // for this epoch. The shared fading state (when correlated loss
        // is on) advances one chain step per epoch, pinned bad during
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
                self.nodes[gid].reboot(t);
                self.fabric.clear_pending(gid);
            }
            self.was_down[gid] = down;
            // A sensor whose *serving proxy* is down has no working
            // head-end: its uplinks die in the channel (surfacing later
            // as gaps to repair) until the proxy reboots or the sensor
            // re-homes to a survivor.
            let reachable = self.reachable(gid, self.assignment[gid], t);
            self.fabric.set_link_up(gid, reachable);
            self.downlinks[gid].set_link_up(reachable);
            // Downlink maintenance: refills the retransmission budget.
            self.downlinks[gid].tick(t);
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
                let msgs = self.nodes[gid].on_sample(local_t, r.value);
                for msg in msgs {
                    self.fabric.offer(t, gid, msg);
                }
                // Rare-event onset → immediate semantic event report.
                if r.event_active && !self.event_was_active[gid] {
                    let ev = self.nodes[gid].on_event(
                        local_t,
                        RARE_EVENT_TYPE,
                        r.value.to_le_bytes().to_vec(),
                    );
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
            let local_t = self.clocks[gid].local_time(t);
            if let Some(msg) = self.nodes[gid].maybe_heartbeat(local_t, hb_every) {
                self.fabric.offer(t, gid, msg);
            }
        }

        // 4. Retransmission machinery, billing each attempt to the
        // sending sensor's radio.
        let nodes = &mut self.nodes;
        self.fabric.tick(t, |gid, joules| {
            nodes[gid]
                .ledger_mut()
                .charge(EnergyCategory::RadioTx, joules);
        });

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
            // A seal notification is the range index's only feed: it
            // registers under the serving proxy, in corrected time
            // (archives stamp in drifting local time, and accumulated
            // skew is unbounded, so no fixed routing slack could cover
            // it).
            if let UplinkPayload::SegmentSeal { start, end } = delivery.msg.payload {
                let corrector = &self.correctors[gid];
                self.time_index
                    .register(p, corrector.correct(start), corrector.correct(end));
            }
            self.proxies[p].on_uplink(&delivery.msg);
        }

        // 6. Re-grade liveness and run queued archive-backed repairs.
        for gid in 0..self.total_sensors() {
            self.liveness.check(gid, t);
        }
        self.attempt_recoveries(t);

        // Periodic model training checks, routed by assignment so an
        // adopter trains and pushes for its re-homed sensors. Down
        // proxies train nothing.
        if t - self.last_train_check >= TRAIN_CHECK_EVERY {
            self.last_train_check = t;
            for gid in 0..self.total_sensors() {
                let sp = self.assignment[gid];
                if !self.reachable(gid, sp, t) {
                    continue;
                }
                let (node, chan) = (&mut self.nodes[gid], &mut self.downlinks[gid]);
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

    /// The single-system pipeline pump: [`PrestoSystem::pump_views`]
    /// with no proxy fenced, timed as the `pump_pipelines` phase and
    /// counting the attempts spent as its work items.
    pub fn pump_pipelines(&mut self, t: SimTime) {
        let timer = self.profiler.begin();
        let attempts = self.pump_views(t, &[]);
        self.profiler.end("pump_pipelines", timer);
        self.profiler.count("pump_pipelines", attempts);
    }

    /// The one query-pipeline pump. Every up proxy pumps its view: the
    /// sensors it serves through their home channels, then those it
    /// holds cross-proxy channels to, each group in gid order and each
    /// sensor once. A proxy marked in `fenced` (up, outside the
    /// membership quorum) pumps an empty view, so its pipeline still
    /// expires queries honestly and it drives no radio. Records the
    /// pass in [`PrestoSystem::pump_log`]; returns the attempts spent.
    pub fn pump_views(&mut self, t: SimTime, fenced: &[bool]) -> u64 {
        self.pump_log.clear();
        let mut attempts = 0u64;
        for p in 0..self.config.proxies {
            if self.config.faults.proxy_down(p, t) {
                continue;
            }
            let assignment = &self.assignment;
            let via_cross = |gid: u16| assignment[usize::from(gid)] != p;
            let mut view: Vec<PumpSensor<'_>> = Vec::new();
            if fenced.get(p) != Some(&true) {
                let mut cross = self.cross.range_mut((p, 0)..=(p, u16::MAX)).peekable();
                for (gid, (node, home)) in
                    self.nodes.iter_mut().zip(&mut self.downlinks).enumerate()
                {
                    let gid = crate::gid16(gid);
                    let cross_chan = cross.next_if(|((_, g), _)| *g == gid);
                    let chan = match (via_cross(gid), cross_chan) {
                        (false, _) => home,
                        (true, Some((_, chan))) => chan,
                        (true, None) => continue,
                    };
                    view.push(PumpSensor { gid, node, chan });
                }
                view.sort_unstable_by_key(|s| (via_cross(s.gid), s.gid));
                self.pump_log
                    .extend(view.iter().map(|s| (p, s.gid, via_cross(s.gid))));
            }
            self.proxies[p].pump_queries_view(t, &mut view);
            attempts += self.proxies[p].pipeline().last_pump_attempts() as u64;
        }
        attempts
    }

    /// The last pump pass's audit trail: `(proxy, gid, via cross-proxy
    /// channel)` for every sensor a proxy drove radio toward, in view
    /// order.
    pub fn pump_log(&self) -> &[(usize, u16, bool)] {
        &self.pump_log
    }

    /// Provisions `driver` to pull sensor `gid`: registers it there and,
    /// unless `driver` serves it, opens `driver`'s cross-proxy channel
    /// once. Each incarnation draws sequence numbers from a fresh block,
    /// disjoint from the home channel's and every earlier one's, so the
    /// sensor's duplicate filter stays sound with two proxies, or a
    /// rebuilt channel, talking to it.
    pub fn open_channel(&mut self, driver: usize, gid: u16) {
        self.proxies[driver].register_sensor(gid);
        if self.assignment[usize::from(gid)] == driver || self.cross.contains_key(&(driver, gid)) {
            return;
        }
        let mut dl_cfg = self.config.reliability.downlink.clone();
        dl_cfg.seed ^= (driver as u64 + 1)
            .rotate_left(19)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(u64::from(gid));
        let root = SimRng::new(self.config.seed ^ 0xF1EE7);
        let hop = first_hop(
            self.config.loss,
            &root,
            format_args!("fleet-hop-{driver}-{gid}"),
        );
        let mut chan = DownlinkChannel::new(dl_cfg, hop);
        chan.set_seq_namespace(self.next_cross_seq_base);
        self.next_cross_seq_base += CROSS_SEQ_BLOCK;
        self.cross.insert((driver, gid), chan);
    }

    /// Gates and ticks every cross-proxy channel for epoch `t`, before
    /// the pump; the fleet calls this after adopting forwards (which may
    /// open channels). Returns the channels ticked.
    pub fn gate_cross_channels(&mut self, t: SimTime) -> u64 {
        // Taken out for the loop, so the rule can borrow the system.
        let mut cross = std::mem::take(&mut self.cross);
        for (&(driver, gid), chan) in cross.iter_mut() {
            chan.set_link_up(self.reachable(usize::from(gid), driver, t));
            chan.tick(t);
        }
        self.cross = cross;
        self.cross.len() as u64
    }

    /// Drops `driver`'s cross-proxy channels, pending-RPC tables and all:
    /// they are its RAM. The crash edge calls this, as does the fleet's
    /// failover, since a quorum can declare a proxy dead while it is up.
    pub fn drop_cross_channels(&mut self, driver: usize) {
        self.cross.retain(|&(d, _), _| d != driver);
    }

    /// Each proxy's retry-budget depletion: the largest spent fraction
    /// over every channel it drives, home and cross-proxy (0 for a proxy
    /// that drives none). Admission control reads it as pressure.
    pub fn retry_depletions(&self) -> Vec<f64> {
        let home = self.assignment.iter().copied().zip(&self.downlinks);
        let cross = self.cross.iter().map(|(&(driver, _), chan)| (driver, chan));
        let mut depletion = vec![0.0f64; self.config.proxies];
        for (p, chan) in home.chain(cross) {
            let d = (1.0 - chan.budget_remaining_j() / RETRY_BUDGET_J).clamp(0.0, 1.0);
            depletion[p] = depletion[p].max(d);
        }
        depletion
    }

    /// Current serving proxy per sensor (flat global ids).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Re-homes sensor `gid` to `proxy` at epoch `t`: registers it there,
    /// clears the previous driver's pending RPCs on its home channel,
    /// drops the adopter's now-redundant cross-proxy channel, and queues
    /// the archive-backed replay from the sensor's last covered instant
    /// to `t` that warms the adopter (the path gap repair uses). Its
    /// uplinks, pulls, training and replays then route to the adopter.
    pub fn rehome_sensor(&mut self, gid: usize, proxy: usize, t: SimTime) {
        assert!(proxy < self.config.proxies, "no such proxy");
        if self.assignment[gid] == proxy {
            return;
        }
        self.assignment[gid] = proxy;
        self.proxies[proxy].register_sensor(crate::gid16(gid));
        self.downlinks[gid].reset_proxy_state();
        self.cross.remove(&(proxy, crate::gid16(gid)));
        let covered = self.gaps.covered_until(gid);
        self.gaps.request_recovery(gid, covered, t, t);
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
    /// queued for the next epoch. A repair is an archive replay and
    /// nothing more: it leaves the time-range index alone, so a seal
    /// announcement lost with the gap stays unregistered.
    fn attempt_recoveries(&mut self, t: SimTime) {
        for r in self.gaps.take_pending() {
            let sp = self.assignment[r.sensor];
            if !self.reachable(r.sensor, sp, t) {
                self.gaps.request_recovery(r.sensor, r.from, r.to, r.detected_at);
                continue;
            }
            let (from, to) = padded_span(r.from, r.to, RECOVERY_PAD);
            let tolerance = RECOVERY_TOLERANCE;
            let node = &mut self.nodes[r.sensor];
            let chan = &mut self.downlinks[r.sensor];
            match self.proxies[sp].recover_span(t, crate::gid16(r.sensor), from, to, tolerance, node, chan)
            {
                Some(samples) => {
                    self.gaps.complete(&r, samples as u64, t);
                    // A served pull is proof of life.
                    self.liveness.heard(r.sensor, t);
                }
                None => self.gaps.requeue_failed(r),
            }
        }
    }

    /// Submits a query to the owning proxy's asynchronous pipeline at
    /// the system's current time. Returns `(proxy index, ticket)` — the
    /// completion surfaces under that ticket in
    /// [`PrestoSystem::take_completed_queries`] — or `None` for query
    /// classes the pipeline does not serve (deployment-wide Events), for
    /// sensor ids outside the sensor space, and for sensors whose
    /// serving proxy is down (a dead process accepts no submissions;
    /// enqueuing into its pipeline object would park a query nothing
    /// ever pumps or expires).
    pub fn submit_query(&mut self, q: crate::store::StoreQuery) -> Option<(usize, u64)> {
        let t = self.now();
        let pq = q.pipeline_query().ok()?;
        let p = self.serving(pq.sensor())?;
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

    /// Outstanding async RPC entries across every downlink channel,
    /// home and cross-proxy (leak probe for the pending-RPC tables).
    pub fn async_in_flight_total(&self) -> usize {
        self.downlinks
            .iter()
            .chain(self.cross.values())
            .map(|c| c.async_in_flight())
            .sum()
    }

    /// Current liveness grade of a sensor.
    pub fn health(&self, sensor: u16) -> Health {
        self.liveness.health(sensor as usize)
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
        self.end_scope_tick(t, readings);
    }

    /// Closes a scope tick at `t` over `readings` with this system's
    /// fault plan as blame context; returns the number of slots read.
    /// [`PrestoSystem::scope_tick`] and deployment-tier ticks that
    /// observe more than the system both end here.
    pub fn end_scope_tick(&mut self, t: SimTime, readings: Readings) -> usize {
        self.scope.end_tick(t, readings, &self.config.faults)
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
            for ch in &self.downlinks {
                ch.stats().observe(&mut downlink);
            }
        }
        s.observe("fabric", &self.fabric.stats());
        s.observe("liveness", &self.liveness.stats());
        s.observe("recovery", &self.gaps.stats());
        if s.wants("sensor") || s.wants("flash") || s.wants("archive") {
            for n in &self.nodes {
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

    /// Padding a caller adds on each side of a window it routes through
    /// [`PrestoSystem::route_range`]. Spans are registered in corrected
    /// reference time, so the slack only needs to cover the correction
    /// residual plus the uncalibrated first hour (offsets of ~1 s sigma;
    /// skew accumulates < 0.2 s before the first beacon) — a minute is
    /// comfortably conservative.
    pub const ROUTE_SLACK: SimDuration = SimDuration::from_secs(60);

    /// Routes a time range through the interval index, returning the
    /// proxies holding overlapping archived data and the routing hop
    /// count. "Archived" means announced as sealed: a window whose only
    /// data sits in segments still filling, or in segments whose seal
    /// announcement was lost, routes nowhere. An empty index (no seal
    /// delivered yet) falls back to every proxy — correct, just unpruned.
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
        for node in &mut self.nodes {
            node.advance_to(end);
        }
    }

    /// Merged energy ledger over all sensors.
    pub fn sensor_ledger_total(&self) -> EnergyLedger {
        let mut total = EnergyLedger::new();
        for n in &self.nodes {
            total.merge(n.ledger());
        }
        total
    }
}

/// A first-hop radio link at frame loss `loss`, its loss stream split
/// from `root` under `label` (lossless, and labelling nothing, when
/// `loss` is zero).
fn first_hop(loss: f64, root: &SimRng, label: std::fmt::Arguments<'_>) -> LinkModel {
    if loss > 0.0 {
        LinkModel::new(LossProcess::Bernoulli(loss), root.split(&label.to_string()))
    } else {
        LinkModel::perfect()
    }
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
        assert_eq!(sys.assignment(), &[0, 0, 0, 1, 1, 1]);
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
        assert!(sys.nodes.iter().all(|n| n.has_model()));
    }

    #[test]
    fn model_driven_push_reduces_traffic_over_time() {
        let mut sys = PrestoSystem::new(small());
        sys.run(SimDuration::from_days(1));
        let day1: u64 = sys.nodes.iter().map(|n| n.stats().bytes_sent).sum();
        sys.run(SimDuration::from_days(1));
        let day2: u64 = sys.nodes.iter().map(|n| n.stats().bytes_sent).sum::<u64>() - day1;
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
        let t = sys.now();
        for gid in 3..6 {
            sys.rehome_sensor(gid, 0, t);
        }
        sys.run(SimDuration::from_days(1));
        // Seals delivered after the re-home register under the adopter.
        let day2 = SimTime::from_days(1);
        let (covered, _) = sys.route_range(
            day2 + SimDuration::from_hours(6),
            day2 + SimDuration::from_hours(7),
        );
        assert_eq!(covered, vec![0]);
        // What proxy 1 was told before the re-home stays under it.
        let (covered, _) = sys.route_range(SimTime::from_hours(1), SimTime::from_hours(2));
        assert_eq!(covered, vec![0, 1]);
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
        // The index is fed by SegmentSeal uplinks alone.
        assert!(
            !sys.time_index.is_empty(),
            "no seal notification reached the index"
        );
        let (covered, _) = sys.route_range(SimTime::from_hours(1), SimTime::from_hours(2));
        assert_eq!(covered, vec![0, 1]);
        let sealed: u64 = sys.nodes.iter().map(|n| n.stats().seals_sent).sum();
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
    fn a_repair_registers_nothing_and_the_open_segment_waits_for_its_seal() {
        let mut cfg = SystemConfig {
            proxies: 1,
            sensors_per_proxy: 1,
            ..SystemConfig::default()
        };
        cfg.reliability = tight_reliability();
        cfg.faults = presto_sim::FaultPlan::none().with_blackout_of(
            vec![0],
            SimTime::from_hours(3),
            SimTime::from_hours(5),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(5));
        let before = sys.gaps.stats().recoveries;
        while sys.gaps.stats().recoveries == before {
            sys.step_epoch();
            assert!(sys.now() < SimTime::from_hours(8), "never repaired");
        }
        // The last minute lies in the sensor's still-open segment, which
        // no seal has announced: the repair left it unregistered.
        let epoch = SimDuration::from_secs(31);
        let (from, to) = (sys.now() - epoch * 2, sys.now() - epoch);
        let (covered, _) = sys.route_range(from, to);
        assert!(covered.is_empty(), "open segment routed to {covered:?}");
        let seals = sys.nodes[0].stats().seals_sent;
        while sys.route_range(from, to).0.is_empty() {
            sys.step_epoch();
            assert!(sys.now() < SimTime::from_hours(10), "seal never delivered");
        }
        assert!(sys.nodes[0].stats().seals_sent > seals);
        assert_eq!(sys.route_range(from, to).0, vec![0]);
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

        let node = &sys.nodes[0];
        assert_eq!(node.stats().reboots, 1);
        // During the crash nothing was sampled: the truth has a gap,
        // and the sensor archived nothing in the window.
        let mut ledger = EnergyLedger::new();
        let in_crash = sys.nodes[0]
            .archive_mut()
            .query_range(
                SimTime::from_hours(3) + SimDuration::from_mins(1),
                SimTime::from_hours(4) - SimDuration::from_mins(1),
                &mut ledger,
            )
            .expect("archive readable");
        assert!(in_crash.is_empty(), "crashed sensor kept archiving");
        // But everything before the crash is still there.
        let before = sys.nodes[0]
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
        assert_eq!(sys.shared_loss.len(), 1, "one shared state per proxy");

        // Run into the middle of the burst.
        sys.run(SimDuration::from_hours(5) + SimDuration::from_mins(30));
        assert_eq!(sys.shared_loss[0].loss_prob(), 1.0, "burst window must pin bad");
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
        assert_eq!(sys.shared_loss[0].loss_prob(), 0.0, "burst must release");
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
        let mut fading_epochs = 0;
        for _ in 0..SimDuration::from_hours(8).div_duration(sys.config.lab.epoch) {
            sys.step_epoch();
            if sys.shared_loss[0].loss_prob() == 0.95 {
                fading_epochs += 1;
            }
        }
        let fs = sys.fabric.stats();
        assert!(fs.lost_in_channel > 0, "shared fading never lost a message");
        assert!(fs.retransmits > 0);
        assert!(
            fs.delivered > fs.offered / 2,
            "retransmission failed to recover deliveries: {fs:?}"
        );
        assert!(fading_epochs > 0, "driver never advanced the chain");
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
        let t = sys.now();
        for gid in 3..6usize {
            sys.rehome_sensor(gid, 0, t);
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
    fn unknown_sensor_ids_are_refused() {
        use crate::store::StoreQuery;
        let mut sys = PrestoSystem::new(small());
        let past = StoreQuery::Past {
            sensor: 6,
            from: SimTime::ZERO,
            to: SimTime::from_hours(1),
            tolerance: 0.5,
        };
        assert_eq!(sys.submit_query(past), None, "sensor 6 of 6 does not exist");
        let now = StoreQuery::Now {
            sensor: u16::MAX,
            tolerance: 0.5,
        };
        assert_eq!(sys.submit_query(now), None);
        assert_eq!(sys.pipeline_pending_total(), 0);
    }

    /// A tight-tolerance PAST query no cache can answer: it must pull.
    fn pull_query(sensor: u16) -> presto_proxy::PipelineQuery {
        presto_proxy::PipelineQuery::Past {
            sensor,
            from: SimTime::from_mins(10),
            to: SimTime::from_mins(40),
            tolerance: 0.01,
        }
    }

    #[test]
    fn cross_channel_opened_during_a_blackout_is_gated_before_its_first_pump() {
        let mut cfg = small();
        cfg.faults = presto_sim::FaultPlan::none().with_blackout_of(
            vec![4],
            SimTime::from_hours(1),
            SimTime::from_hours(3),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.run(SimDuration::from_hours(2));
        // Proxy 0 adopts a query for proxy 1's sensor 4, which is dark.
        let t = sys.now();
        sys.open_channel(0, 4);
        sys.proxies[0].submit_query_with_deadline(t, pull_query(4), None);
        let t = sys.step_epoch_core();
        assert_eq!(sys.gate_cross_channels(t), 1);
        sys.pump_views(t, &[]);
        let stats = sys.cross[&(0, 4)].stats();
        assert!(
            stats.blocked_link_down >= 1,
            "the attempt must die at the gate: {stats:?}"
        );
        assert_eq!(stats.delivered, 0, "a gated channel brings no reply");
        assert!(sys.take_completed_queries().is_empty());
        assert_eq!(sys.cross[&(0, 4)].async_in_flight(), 1);
    }

    #[test]
    fn pump_view_lists_home_then_cross_sensors_each_once() {
        let mut sys = PrestoSystem::new(small());
        sys.step_epoch();
        for gid in [5, 3] {
            sys.open_channel(0, gid);
        }
        // A stray cross-proxy entry toward a sensor proxy 0 serves
        // must not put that sensor in its view twice.
        sys.cross.insert((0, 1), DownlinkChannel::perfect());
        let t = sys.step_epoch_core();
        sys.gate_cross_channels(t);
        sys.pump_views(t, &[]);
        let view0: Vec<(u16, bool)> = sys
            .pump_log()
            .iter()
            .filter(|&&(p, _, _)| p == 0)
            .map(|&(_, gid, via_cross)| (gid, via_cross))
            .collect();
        assert_eq!(
            view0,
            vec![(0, false), (1, false), (2, false), (3, true), (5, true)]
        );
        // A fenced driver pumps an empty view.
        sys.pump_views(t, &[true, false]);
        assert!(sys.pump_log().iter().all(|&(p, _, _)| p == 1));
        assert_eq!(sys.pump_log().len(), 3);
    }

    #[test]
    fn crash_edge_drops_the_drivers_cross_channels_and_a_reopen_is_fresh() {
        let mut cfg = small();
        cfg.faults = presto_sim::FaultPlan::none().with_proxy_crash(
            0,
            SimTime::from_hours(1),
            SimTime::from_hours(2),
        );
        let mut sys = PrestoSystem::new(cfg);
        sys.step_epoch();
        let first_block = sys.next_cross_seq_base;
        sys.open_channel(0, 4);
        sys.open_channel(1, 0);
        while !sys.faults().proxy_down(0, sys.now()) {
            sys.step_epoch();
        }
        sys.step_epoch();
        assert!(
            !sys.cross.contains_key(&(0, 4)),
            "the crashed driver's channel survived"
        );
        assert!(
            sys.cross.contains_key(&(1, 0)),
            "a live driver's channel was dropped"
        );
        sys.run(SimDuration::from_hours(1));
        let reopened_block = sys.next_cross_seq_base;
        sys.open_channel(0, 4);
        assert!(sys.cross.contains_key(&(0, 4)));
        // The reopened channel drew a block of its own, past both
        // earlier incarnations'.
        assert_eq!(reopened_block, first_block + 2 * CROSS_SEQ_BLOCK);
        assert_eq!(sys.next_cross_seq_base, reopened_block + CROSS_SEQ_BLOCK);
    }

    #[test]
    fn rehoming_drops_the_adopters_cross_channel() {
        let mut sys = PrestoSystem::new(small());
        sys.step_epoch();
        sys.open_channel(0, 4);
        sys.open_channel(0, 5);
        let t = sys.now();
        sys.rehome_sensor(4, 0, t);
        assert!(
            !sys.cross.contains_key(&(0, 4)),
            "redundant once proxy 0 serves sensor 4"
        );
        assert!(sys.cross.contains_key(&(0, 5)));
        // Opening toward a sensor the driver serves opens nothing.
        sys.open_channel(0, 4);
        assert!(!sys.cross.contains_key(&(0, 4)));
        // The adopter's warm-up replay is queued.
        assert!(sys.gaps.take_pending().iter().any(|r| r.sensor == 4));
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
