//! The assembled deployment tier: a [`PrestoSystem`] fronted by the
//! fleet router, the proxy-liveness view, and the inter-link mesh.
//!
//! The system owns every proxy→sensor channel; the fleet asks it to
//! open a proxy's cross-proxy channel when that proxy adopts a query
//! for a sensor it does not serve ([`PrestoSystem::open_channel`]).
//! [`FleetDeployment::step_epoch`] runs the system's core pass, the
//! mesh, membership and fencing, has the system gate the cross-proxy
//! channels, and pumps through [`PrestoSystem::pump_views`] under its
//! fencing state.

use presto_core::{PrestoSystem, SystemConfig};
use presto_proxy::PipelineQuery;
use presto_reliability::Health;
use presto_sim::{FleetArrival, QueryKind, SimTime};
use presto_telemetry::{Observe, Sink, Snapshot};

use crate::interlink::{FleetMsg, InterLinkConfig, InterLinkMesh};
use crate::membership::FleetMembership;
use crate::router::{FleetCompletion, FleetRouter, FleetRouterConfig, ProxyPressure, RouteAction};

/// Deployment-tier parameters.
#[derive(Clone, Debug, Default)]
pub struct FleetConfig {
    /// The underlying three-tier system.
    pub system: SystemConfig,
    /// Router / admission-control parameters.
    pub router: FleetRouterConfig,
    /// Proxy↔proxy mesh parameters.
    pub interlink: InterLinkConfig,
}

/// Leak probes over every fleet-tier table (all zero once submitted
/// traffic has terminated and retries drained).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetLeaks {
    /// Router tickets awaiting a terminal.
    pub router_open: usize,
    /// Pending pipeline queries across proxies.
    pub pipeline_pending: usize,
    /// Outstanding async RPCs across home *and* cross-proxy channels.
    pub rpcs_in_flight: usize,
    /// Mesh messages still retransmitting.
    pub mesh_in_flight: usize,
}

impl FleetLeaks {
    /// True when every table is empty.
    pub fn is_clean(&self) -> bool {
        self.router_open == 0
            && self.pipeline_pending == 0
            && self.rpcs_in_flight == 0
            && self.mesh_in_flight == 0
    }
}

/// A running fleet.
pub struct FleetDeployment {
    /// The underlying system (public: experiments read stats and warm
    /// it up directly).
    pub system: PrestoSystem,
    /// The router (public for stats).
    pub router: FleetRouter,
    membership: FleetMembership,
    /// The proxy↔proxy mesh (public for stats).
    pub mesh: InterLinkMesh,
    /// Sensors re-homed across proxy deaths.
    rehomed: u64,
    /// Per-proxy fencing state: up but outside the membership quorum
    /// (the minority side of a mesh partition). A fenced proxy accepts
    /// no new queries, adopts no forwards, and drives no radio — its
    /// pipeline only expires honestly — until quorum returns.
    fenced: Vec<bool>,
    /// Per-proxy retry-budget depletion, refreshed once per epoch: the
    /// only pressure component that needs a full channel scan (queue
    /// depth and saturation are O(1) live reads).
    depletions: Vec<f64>,
}

impl FleetDeployment {
    /// Builds the fleet over a fresh system.
    pub fn new(config: FleetConfig) -> Self {
        let proxies = config.system.proxies;
        let system = PrestoSystem::new(config.system);
        FleetDeployment {
            depletions: system.retry_depletions(),
            system,
            router: FleetRouter::new(config.router),
            membership: FleetMembership::new(proxies),
            mesh: InterLinkMesh::new(config.interlink, proxies),
            rehomed: 0,
            fenced: vec![false; proxies],
        }
    }

    /// The proxy-liveness view.
    pub fn membership(&self) -> &FleetMembership {
        &self.membership
    }

    /// Sensors re-homed across proxy deaths so far.
    pub fn rehomed_sensors(&self) -> u64 {
        self.rehomed
    }

    /// Whether `proxy` is fenced: up, but outside the membership
    /// quorum (minority side of a mesh partition).
    pub fn is_fenced(&self, proxy: usize) -> bool {
        self.fenced[proxy]
    }

    /// Leak probes over every fleet-tier table.
    pub fn leaks(&self) -> FleetLeaks {
        FleetLeaks {
            router_open: self.router.open_tickets(),
            pipeline_pending: self.system.pipeline_pending_total(),
            rpcs_in_flight: self.system.async_in_flight_total(),
            mesh_in_flight: self.mesh.in_flight(),
        }
    }

    /// One proxy's admission-control reading: live pipeline depth and
    /// attempt-budget saturation, plus the per-epoch cached worst
    /// retry-budget depletion across the downlink channels it drives.
    pub fn pressure(&self, p: usize) -> ProxyPressure {
        let pl = self.system.proxies[p].pipeline();
        let budget = pl.config().epoch_attempt_budget.max(1) as f64;
        ProxyPressure {
            pending: pl.pending_queries(),
            saturation: (pl.last_pump_attempts() as f64 / budget).min(1.0),
            depletion: self.depletions[p],
            live: self.membership.health(p) == Health::Live,
        }
    }

    /// The global sensor id a workload arrival targets (the one
    /// mapping from `(group, slot)` to the sensor space — drivers that
    /// need a truth oracle for an arrival read it from here).
    pub fn arrival_gid(&self, a: &FleetArrival) -> u16 {
        let spp = self.system.config().sensors_per_proxy;
        let entry = a.group.min(self.system.config().proxies - 1);
        presto_core::gid16(entry * spp + a.arrival.sensor_slot.min(spp - 1))
    }

    /// Submits a workload arrival: maps `(group, slot)` to a global
    /// sensor and the arrival kind to a pipeline query, entering at the
    /// group's proxy. Returns the fleet ticket.
    pub fn submit_arrival(&mut self, a: &FleetArrival) -> u64 {
        let entry = a.group.min(self.system.config().proxies - 1);
        let gid = self.arrival_gid(a);
        let query = match a.arrival.kind {
            QueryKind::Now => PipelineQuery::Now {
                sensor: gid,
                tolerance: a.arrival.tolerance,
            },
            QueryKind::Past => PipelineQuery::Past {
                sensor: gid,
                from: a.arrival.from,
                to: a.arrival.to,
                tolerance: a.arrival.tolerance,
            },
            QueryKind::Aggregate => PipelineQuery::Aggregate {
                sensor: gid,
                from: a.arrival.from,
                to: a.arrival.to,
                op: presto_sensor::AggregateOp::Mean,
            },
        };
        self.submit(entry, query, a.arrival.tolerance)
    }

    /// Submits a query entering at `entry`. The router assigns its
    /// deadline (latency classes), reads every proxy's pressure, and
    /// either admits it into the serving proxy's pipeline or sheds it
    /// over the mesh.
    pub fn submit(&mut self, entry: usize, query: PipelineQuery, tolerance: f64) -> u64 {
        let t = self.system.now();
        let proxies = self.system.config().proxies;
        // A physically-down entry proxy has no process to accept the
        // submission — the user's connection fails on the spot, long
        // before the lease-based death declaration. Record the honest
        // failure (submitting into a dead proxy's pipeline object would
        // park queries nothing will ever pump: a leak). An entry or a
        // sensor id that names nothing fails the same way.
        let serving = match self.system.serving(query.sensor()) {
            Some(serving) if entry < proxies && !self.system.faults().proxy_down(entry, t) => {
                serving
            }
            _ => return self.router.fail_unreachable(t, entry, query),
        };
        // A fenced proxy (up, but cut off from the quorum) must not
        // accept new work: on the minority side it cannot prove its
        // answer agrees with the fleet, so the admission fails honestly
        // instead of serving a confidently-stale result.
        if self.fenced[entry] || self.fenced[serving] {
            return self.router.fail_fenced(t, entry, query);
        }
        let mut pressures: Vec<ProxyPressure> = (0..proxies).map(|p| self.pressure(p)).collect();
        // Shed targeting respects the *entry proxy's own* mesh view on
        // top of the quorum grade: a peer the entry cannot reach over
        // the mesh (an asymmetric cut) is no shed target even if the
        // rest of the fleet vouches for it, and a fenced peer is never
        // one.
        for (p, reading) in pressures.iter_mut().enumerate() {
            if p != entry
                && (self.fenced[p] || self.membership.view(entry, p) != Health::Live)
            {
                reading.live = false;
            }
        }
        // Shed gating via the time-range index: a window archived
        // nowhere is not worth a mesh round trip. "Archived" means
        // announced as sealed, so a window inside the sensors' still-open
        // segments stays home too.
        let range_archived = match query {
            PipelineQuery::Past { from, to, .. } | PipelineQuery::Aggregate { from, to, .. } => {
                let slack = PrestoSystem::ROUTE_SLACK;
                !self.system.route_range(from - slack, to + slack).0.is_empty()
            }
            PipelineQuery::Now { .. } => true,
        };
        let (ticket, deadline, action) =
            self.router
                .route(t, entry, serving, query, tolerance, &pressures, range_archived);
        match action {
            // The router may keep a query at its entry proxy even when
            // another proxy owns the sensor (shedding back to a cool
            // entry): it is provisioned exactly as an adoption is.
            RouteAction::Local { proxy } => self.admit(t, proxy, ticket, query, deadline),
            RouteAction::Forward { proxy } => {
                self.mesh.send(
                    entry,
                    proxy,
                    FleetMsg::Forward {
                        ticket,
                        query,
                        deadline,
                        submitted_at: t,
                    },
                );
            }
        }
        ticket
    }

    /// Drains fleet-level terminals recorded since the last call.
    pub fn take_completed(&mut self) -> Vec<FleetCompletion> {
        self.router.take_completed()
    }

    /// Advances the fleet one epoch: the system core pass (whose proxy
    /// crash edge also drops the crashed proxy's cross-proxy channels),
    /// mesh traffic, proxy-lease maintenance (with failover on a death
    /// declaration), forward adoption, cross-proxy channel gating, the
    /// system's pump under the fleet's fencing, completion collection,
    /// and the router's honest-expiry sweep.
    pub fn step_epoch(&mut self) {
        let t = self.system.step_epoch_core();
        let proxies = self.system.config().proxies;
        let faults = self.system.faults();
        let up: Vec<bool> = (0..proxies).map(|p| !faults.proxy_down(p, t)).collect();
        let mesh_timer = self.system.profiler().begin();
        for (p, &u) in up.iter().enumerate() {
            self.mesh.set_up(p, u);
        }

        // 1. Split-brain fault gates: sever exactly the proxy↔proxy
        // links the fault plan cuts this instant (downlinks stay up —
        // that asymmetry is the whole point of the scenario).
        for a in 0..proxies {
            for b in (a + 1)..proxies {
                self.mesh.set_link_cut(a, b, faults.mesh_link_cut(a, b, t));
            }
        }

        // 2. Heartbeat fan-out: every live proxy beacons to every peer
        // as an unreliable mesh datagram (the next beacon supersedes a
        // lost one; retransmitting a stale liveness claim would be
        // worse than silence).
        for (p, &p_up) in up.iter().enumerate() {
            if !p_up {
                continue;
            }
            for q in 0..proxies {
                if q != p {
                    self.mesh
                        .send_datagram(p, q, FleetMsg::Heartbeat { sent_at: t });
                    self.membership.record_offered(1);
                }
            }
        }

        // 3. Mesh delivery: heartbeats renew leases immediately;
        // forwards and completions wait until fencing is settled below.
        let mut deferred = Vec::new();
        let delivered = self.mesh.step(t);
        let mesh_items = delivered.len() as u64;
        for (dst, src, msg) in delivered {
            match msg {
                FleetMsg::Heartbeat { sent_at } => {
                    self.membership.heard(dst, src, sent_at);
                }
                other => deferred.push((dst, other)),
            }
        }
        self.system.profiler_mut().end("fleet_mesh", mesh_timer);
        self.system.profiler_mut().count("fleet_mesh", mesh_items);

        let membership_timer = self.system.profiler().begin();
        // 4. Quorum membership: declarations trigger failover, and the
        // fencing state refreshes. A proxy crossing the fenced→unfenced
        // edge (partition healed, quorum regained) re-syncs through an
        // archive-backed replay — its caches silently aged while cut
        // off.
        for dead in self.membership.step(t, &up) {
            self.handle_failover(t, dead);
        }
        for (p, &p_up) in up.iter().enumerate() {
            let now_fenced = p_up && !self.membership.in_quorum(p);
            if self.fenced[p] && !now_fenced && p_up {
                self.system.resync_proxy(p, t);
            }
            self.fenced[p] = now_fenced;
        }
        self.system.profiler_mut().end("fleet_membership", membership_timer);
        self.system.profiler_mut().count("fleet_membership", proxies as u64);

        let deliver_timer = self.system.profiler().begin();
        let mut deliver_items = deferred.len() as u64;
        // 5. Deferred mesh traffic: adopt forwards, consume answers.
        for (dst, msg) in deferred {
            match msg {
                FleetMsg::Forward {
                    ticket,
                    query,
                    deadline,
                    ..
                } => {
                    if t >= deadline || self.fenced[dst] {
                        // Too late to run, or the adopter lost quorum
                        // while the forward was in flight; the router's
                        // expiry sweep fails the ticket honestly.
                        continue;
                    }
                    self.admit(t, dst, ticket, query, deadline);
                }
                FleetMsg::Completion { ticket, answer } => {
                    self.router.on_completion_msg(t, ticket, answer);
                }
                // Heartbeats were consumed by the membership pass above;
                // one slipping through is dropped, not a crash.
                FleetMsg::Heartbeat { .. } => {}
            }
        }

        // 6. Cross-proxy channel upkeep: fault gates + budget refill.
        deliver_items += self.system.gate_cross_channels(t);
        self.system.profiler_mut().end("fleet_deliver", deliver_timer);
        self.system.profiler_mut().count("fleet_deliver", deliver_items);

        // 7. Fleet pump: each live, unfenced proxy serves its current
        // view; fenced proxies pump empty (honest expiry still runs,
        // no radio).
        let pump_timer = self.system.profiler().begin();
        self.system.pump_views(t, &self.fenced);
        let pumped = self.system.pump_log().len() as u64;
        self.system.profiler_mut().end("fleet_pump", pump_timer);
        self.system.profiler_mut().count("fleet_pump", pumped);

        // 8. Collect pipeline completions; answers produced away from
        // their entry proxy ride the mesh home.
        let collect_timer = self.system.profiler().begin();
        let mut collected = 0u64;
        for p in 0..proxies {
            if !up[p] {
                continue;
            }
            // Splice each finished pipeline trace into its open fleet
            // trace *before* the completions below consume the
            // proxy-ticket bindings the lookup needs.
            if self.router.tracer().enabled()
                && self.system.proxies[p].pipeline().tracer().enabled()
            {
                for ptrace in self.system.proxies[p].pipeline_mut().tracer_mut().take_finished()
                {
                    if let Some(ticket) = self.router.fleet_ticket(p, ptrace.ticket) {
                        self.router.tracer_mut().absorb(ticket, ptrace.events);
                    }
                }
            }
            for c in self.system.proxies[p].take_completed_queries() {
                collected += 1;
                if let Some((ticket, entry)) = self.router.on_pipeline_completion(t, p, &c) {
                    if up[entry] && entry != p {
                        self.mesh.send(p, entry, FleetMsg::Completion {
                            ticket,
                            answer: c.answer,
                        });
                    }
                    // A dead entry proxy has no one to deliver to: the
                    // router already failed (or will expire) the ticket.
                }
            }
        }

        // 9. Honest expiry: whatever the mesh dropped terminates here.
        self.router.expire(t);

        // 10. Refresh the cached budget-depletion readings (the buckets
        // only move on pump and tick, so once per epoch is exact enough
        // for admission control) and feed the epoch-level pressure
        // smoothing for the coming epoch's submissions.
        self.depletions = self.system.retry_depletions();
        let pressures: Vec<ProxyPressure> = (0..proxies).map(|p| self.pressure(p)).collect();
        self.router.observe_pressures(t, &pressures);
        self.system.profiler_mut().end("fleet_collect", collect_timer);
        self.system.profiler_mut().count("fleet_collect", collected);

        // 11. presto-scope tick over the *fleet* observe pass (router,
        // membership, mesh, and live fleet gauges included), so the
        // sampled series and watchdog rules see the deployment tier,
        // not just the underlying system.
        if self.system.scope().enabled() {
            let scope_timer = self.system.profiler().begin();
            let mut readings = self.system.scope_mut().begin_tick();
            self.observe_into(&mut self.system.scope().sink(&mut readings));
            let read = self.system.end_scope_tick(t, readings);
            self.system.profiler_mut().end("fleet_scope", scope_timer);
            self.system.profiler_mut().count("fleet_scope", read as u64);
        }
    }

    /// One unified metrics snapshot across every tier: the system's
    /// (proxies, pipelines, downlinks, fabric, sensors, profiler) plus
    /// the fleet tier's router, membership, and mesh counters, the
    /// serve-time latency/answer-age histograms, and the live fleet
    /// gauges (leak probes, pressure, fencing) the scope watchdogs
    /// read.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.observe_into(&mut snap.sink());
        snap
    }

    /// Observes the system and the fleet tier into `s`: the one pass
    /// behind both [`FleetDeployment::telemetry_snapshot`] and the
    /// per-epoch scope tick.
    pub fn observe_into(&self, s: &mut Sink<'_>) {
        self.system.observe_into(s);
        if s.wants("fleet_router") {
            let mut fr = s.child("fleet_router");
            self.router.stats().observe(&mut fr);
            fr.histogram("latency_us", self.router.latency_hist());
            fr.histogram("answer_age_us", self.router.answer_age_hist());
        }
        s.observe("membership", &self.membership.stats());
        s.observe("interlink", &self.mesh.stats());
        if s.wants("fleet") {
            let leaks = self.leaks();
            let mut fl = s.child("fleet");
            fl.gauge("leak_router_open", leaks.router_open as f64);
            fl.gauge("leak_pipeline_pending", leaks.pipeline_pending as f64);
            fl.gauge("leak_rpcs_in_flight", leaks.rpcs_in_flight as f64);
            fl.gauge("leak_mesh_in_flight", leaks.mesh_in_flight as f64);
            let proxies = self.system.config().proxies;
            let pressure_max = (0..proxies)
                .map(|p| self.pressure(p).score())
                .fold(0.0, f64::max);
            fl.gauge("pressure_max", pressure_max);
            fl.gauge(
                "fenced_count",
                self.fenced.iter().filter(|&&f| f).count() as f64,
            );
            // Radio driven by a fenced proxy this epoch — the PR 6
            // invariant says this is identically zero; the scope
            // watches it.
            fl.gauge(
                "fenced_pumping",
                self.system
                    .pump_log()
                    .iter()
                    .filter(|(p, _, _)| self.fenced[*p])
                    .count() as f64,
            );
        }
    }

    /// Admits `query` under fleet ticket `ticket` into `proxy`'s
    /// pipeline, keeping the ticket's absolute `deadline`: the system
    /// provisions `proxy`'s channel to the sensor, the pipeline takes
    /// the query, and the router binds the two tickets.
    fn admit(
        &mut self,
        t: SimTime,
        proxy: usize,
        ticket: u64,
        query: PipelineQuery,
        deadline: SimTime,
    ) {
        self.system.open_channel(proxy, query.sensor());
        let pt =
            self.system.proxies[proxy].submit_query_with_deadline(t, query, Some(deadline - t));
        self.router.bind(ticket, proxy, pt);
    }

    /// Failover for a proxy the membership view declared Dead: its
    /// sensors re-home to the least-loaded Live survivors (the system
    /// queues the archive-backed replay that warms each adopter), its
    /// cross-proxy channels go, and its outstanding fleet queries resume
    /// at the adopters or fail honestly.
    fn handle_failover(&mut self, t: SimTime, dead: usize) {
        let proxies = self.system.config().proxies;
        let candidates: Vec<usize> = (0..proxies)
            .filter(|&p| p != dead && self.membership.health(p) == Health::Live)
            .collect();
        if !candidates.is_empty() {
            for gid in 0..self.system.total_sensors() {
                if self.system.assignment()[gid] != dead {
                    continue;
                }
                let least_loaded = candidates.iter().min_by_key(|&&p| {
                    self.system.assignment().iter().filter(|&&a| a == p).count()
                });
                let Some(&adopter) = least_loaded else { break };
                self.system.rehome_sensor(gid, adopter, t);
                self.rehomed += 1;
            }
        }
        // A declared-dead proxy may still be up on the minority side of
        // a partition, where no crash edge fired: its cross-proxy
        // channels go here.
        self.system.drop_cross_channels(dead);

        // Resume the dead proxy's outstanding fleet queries at the new
        // owners (or fail honestly when no deadline remains — the
        // router's expiry sweep handles those).
        for (ticket, query, deadline, entry) in self.router.on_proxy_dead(t, dead) {
            let gid = query.sensor() as usize;
            let serving = self.system.assignment()[gid];
            if serving == dead
                || self.system.faults().proxy_down(serving, t)
                || self.system.faults().proxy_down(entry, t)
            {
                continue;
            }
            self.router.mark_rerouted(t, ticket, serving);
            if serving == entry {
                self.admit(t, serving, ticket, query, deadline);
            } else {
                self.mesh.send(
                    entry,
                    serving,
                    FleetMsg::Forward {
                        ticket,
                        query,
                        deadline,
                        submitted_at: t,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_proxy::AnswerSource;
    use presto_sim::{FaultPlan, SimDuration};

    /// A small fleet with clean inter-links and fast proxy leases.
    fn small_fleet(proxies: usize, faults: FaultPlan) -> FleetDeployment {
        let mut cfg = FleetConfig {
            system: SystemConfig {
                proxies,
                sensors_per_proxy: 2,
                faults,
                ..SystemConfig::default()
            },
            ..FleetConfig::default()
        };
        cfg.interlink.link_chain = presto_net::GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        cfg.interlink.shared_chain = None;
        FleetDeployment::new(cfg)
    }

    fn run_epochs(fleet: &mut FleetDeployment, epochs: u64) -> Vec<FleetCompletion> {
        let mut out = Vec::new();
        for _ in 0..epochs {
            fleet.step_epoch();
            out.extend(fleet.take_completed());
        }
        out
    }

    #[test]
    fn local_queries_complete_through_the_fleet() {
        let mut fleet = small_fleet(2, FaultPlan::none());
        for _ in 0..(86_400 / 31) {
            fleet.step_epoch();
        }
        let t = fleet.system.now();
        let ticket = fleet.submit(
            0,
            PipelineQuery::Past {
                sensor: 0,
                from: t - SimDuration::from_hours(3),
                to: t - SimDuration::from_hours(2),
                tolerance: 0.05,
            },
            0.05,
        );
        let done = run_epochs(&mut fleet, 30);
        let c = done
            .iter()
            .find(|c| c.ticket == ticket)
            .expect("query must terminate");
        assert!(!c.forwarded);
        assert_ne!(c.answer.source(), AnswerSource::Failed);
        assert!(fleet.leaks().is_clean(), "{:?}", fleet.leaks());
    }

    #[test]
    fn unknown_sensor_or_entry_fails_once_at_admission() {
        let mut fleet = small_fleet(2, FaultPlan::none());
        fleet.step_epoch();
        let unknown_sensor = fleet.submit(
            0,
            PipelineQuery::Now {
                sensor: 4,
                tolerance: 0.5,
            },
            0.5,
        );
        let unknown_entry = fleet.submit(
            2,
            PipelineQuery::Now {
                sensor: 0,
                tolerance: 0.5,
            },
            0.5,
        );
        let mut done = fleet.take_completed();
        done.extend(run_epochs(&mut fleet, 3));
        for ticket in [unknown_sensor, unknown_entry] {
            let terminals: Vec<_> = done.iter().filter(|c| c.ticket == ticket).collect();
            assert_eq!(terminals.len(), 1, "ticket {ticket}: {terminals:?}");
            assert_eq!(terminals[0].answer.source(), AnswerSource::Failed);
        }
        assert_eq!(fleet.router.stats().failed_entry_dead, 2);
        assert!(fleet.leaks().is_clean(), "{:?}", fleet.leaks());
    }

    #[test]
    fn hot_proxy_sheds_to_peers_and_answers_stay_real() {
        let mut fleet = small_fleet(3, FaultPlan::none());
        for _ in 0..(86_400 / 31) {
            fleet.step_epoch();
        }
        let t = fleet.system.now();
        // Flood proxy 0 with tight-tolerance PAST queries over distinct
        // windows (no coalescing): pressure builds, later submissions
        // shed.
        let mut tickets = Vec::new();
        for k in 0..40u64 {
            let from = t - SimDuration::from_hours(12) + SimDuration::from_mins(10) * k;
            tickets.push(fleet.submit(
                0,
                PipelineQuery::Past {
                    sensor: (k % 2) as u16,
                    from,
                    to: from + SimDuration::from_mins(9),
                    tolerance: 0.05,
                },
                0.05,
            ));
        }
        assert!(fleet.router.stats().shed > 0, "hot proxy never shed");
        let mut done = Vec::new();
        let mut pumped_cross = false;
        for _ in 0..60 {
            fleet.step_epoch();
            done.extend(fleet.take_completed());
            pumped_cross |= fleet
                .system
                .pump_log()
                .iter()
                .any(|&(_, _, via_cross)| via_cross);
        }
        assert_eq!(done.len(), tickets.len(), "every ticket terminates");
        let forwarded_ok = done
            .iter()
            .filter(|c| c.forwarded && c.answer.source() == AnswerSource::Pulled)
            .count();
        assert!(forwarded_ok > 0, "no shed query completed with a real answer");
        assert!(
            pumped_cross,
            "no shed query was pumped over a cross-proxy channel"
        );
        assert!(fleet.leaks().is_clean(), "{:?}", fleet.leaks());
    }

    #[test]
    fn proxy_death_rehomes_sensors_and_resumes_queries() {
        // Proxy 1 dies at hour 4 and never returns.
        let faults = FaultPlan::none().with_proxy_crash(
            1,
            SimTime::from_hours(4),
            SimTime::from_hours(10_000),
        );
        let mut fleet = small_fleet(3, faults);
        let epoch = SimDuration::from_secs(31);
        let crash_epochs = SimDuration::from_hours(4).div_duration(epoch) + 1;
        for _ in 0..crash_epochs {
            fleet.step_epoch();
        }
        // Submit a query served by proxy 1 just before death is
        // *declared* (physical crash already happened).
        let t = fleet.system.now();
        let ticket = fleet.submit(
            1,
            PipelineQuery::Past {
                sensor: 2,
                from: t - SimDuration::from_hours(2),
                to: t - SimDuration::from_hours(1),
                tolerance: 0.05,
            },
            0.05,
        );
        let _ = ticket;
        // Run past the dead threshold + recovery.
        let done = run_epochs(&mut fleet, 60);
        assert!(fleet.rehomed_sensors() >= 2, "sensors never re-homed");
        assert_ne!(fleet.system.assignment()[2], 1);
        assert_ne!(fleet.system.assignment()[3], 1);
        // The pre-death ticket terminated (entry died with the proxy:
        // honest failure is the correct outcome here).
        assert_eq!(done.len(), 1);
        // Post-failover: queries for the dead proxy's sensors enter at
        // a survivor and complete with real answers.
        let t2 = fleet.system.now();
        let t2_ticket = fleet.submit(
            0,
            PipelineQuery::Past {
                sensor: 2,
                from: t2 - SimDuration::from_hours(2),
                to: t2 - SimDuration::from_hours(1),
                tolerance: 0.05,
            },
            0.05,
        );
        let done2 = run_epochs(&mut fleet, 40);
        let c = done2
            .iter()
            .find(|c| c.ticket == t2_ticket)
            .expect("post-failover query must terminate");
        assert_ne!(c.answer.source(), AnswerSource::Failed, "{c:?}");
        assert!(fleet.leaks().is_clean(), "{:?}", fleet.leaks());
    }
}
