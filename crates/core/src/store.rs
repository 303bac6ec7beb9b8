//! The unified logical store (paper §5).
//!
//! One query interface over every proxy and sensor,
//! [`PrestoSystem::query`]: it locates the responsible proxy through the
//! Skip Graph (counting routing hops), then lets that proxy answer
//! through its cache → extrapolation → pull pipeline. Timestamps in
//! PAST answers pass through the sensor's clock corrector so
//! cross-proxy views are temporally consistent.

use presto_proxy::{AnswerSource, PipelineAnswer, PipelineQuery};
use presto_sim::{SimDuration, SimTime};

use crate::system::{PrestoSystem, PUSH_TOLERANCE};

/// Per-hop proxy-overlay latency (wired mesh).
const HOP_LATENCY: SimDuration = SimDuration::from_millis(5);

/// A query against the unified store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StoreQuery {
    /// Current value of one sensor.
    Now {
        /// Global sensor id.
        sensor: u16,
        /// Acceptable absolute error.
        tolerance: f64,
    },
    /// Historical series of one sensor.
    Past {
        /// Global sensor id.
        sensor: u16,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// Acceptable absolute error.
        tolerance: f64,
    },
    /// Events across the whole deployment in a range (unified ordered
    /// view).
    Events {
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
    },
    /// An aggregate over one sensor's history; evaluated at the proxy
    /// when cached, otherwise shipped to the sensor as an operator.
    Aggregate {
        /// Global sensor id.
        sensor: u16,
        /// Range start.
        from: SimTime,
        /// Range end.
        to: SimTime,
        /// The operator.
        op: presto_sensor::AggregateOp,
    },
}

impl StoreQuery {
    /// Splits the query by who serves it: a single-sensor query in the
    /// form its serving proxy answers, or the `(from, to)` window of a
    /// deployment-wide Events query, which no one proxy's pipeline
    /// serves.
    pub fn pipeline_query(self) -> Result<PipelineQuery, (SimTime, SimTime)> {
        match self {
            StoreQuery::Now { sensor, tolerance } => Ok(PipelineQuery::Now { sensor, tolerance }),
            StoreQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            } => Ok(PipelineQuery::Past {
                sensor,
                from,
                to,
                tolerance,
            }),
            StoreQuery::Aggregate {
                sensor,
                from,
                to,
                op,
            } => Ok(PipelineQuery::Aggregate {
                sensor,
                from,
                to,
                op,
            }),
            StoreQuery::Events { from, to } => Err((from, to)),
        }
    }
}

/// A response from the unified store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreResponse {
    /// Scalar answer (NOW) or series (PAST); events come as
    /// `(t, sensor, type)` triples encoded in `events`.
    pub value: Option<f64>,
    /// Series for PAST queries.
    pub series: Vec<(SimTime, f64)>,
    /// Events for event queries, ordered by corrected time.
    pub events: Vec<(SimTime, u16, u16)>,
    /// How the answer was produced.
    pub source: AnswerSource,
    /// Confidence bound (one sigma), widened by the target sensor's
    /// liveness grade: a Suspect sensor's extrapolation guarantee may
    /// have been silently broken, a Dead sensor's carries no weight.
    pub sigma: f64,
    /// End-to-end latency including index routing.
    pub latency: SimDuration,
    /// Skip-graph routing hops.
    pub index_hops: u64,
}

impl PrestoSystem {
    /// Resolves a single-sensor query's mutable targets: the serving
    /// proxy (an adopter after a re-home), the sensor node, and its home
    /// channel — with the channel's fault gate refreshed for the query
    /// instant, so a pull towards a crashed or blacked-out sensor times
    /// out and fails exactly as on real hardware.
    fn query_target(
        &mut self,
        sensor: u16,
        serving: usize,
        t: SimTime,
    ) -> (
        &mut presto_proxy::PrestoProxy,
        &mut presto_sensor::SensorNode,
        &mut presto_reliability::DownlinkChannel,
    ) {
        let gid = usize::from(sensor);
        let up = self.reachable(gid, serving, t);
        let chan = &mut self.downlinks[gid];
        chan.set_link_up(up);
        (&mut self.proxies[serving], &mut self.nodes[gid], chan)
    }

    /// Widens an answer's confidence bound by the sensor's health. A
    /// pull that just succeeded is contact and needs no widening; a
    /// failed answer carries none to widen.
    fn widened(&self, sensor: u16, source: AnswerSource, sigma: f64) -> f64 {
        match source {
            AnswerSource::Pulled => sigma,
            AnswerSource::Failed => f64::INFINITY,
            _ => self.health(sensor).widen_sigma(sigma, PUSH_TOLERANCE),
        }
    }

    /// Executes a query against the unified store at the system's
    /// current time.
    pub fn query(&mut self, q: StoreQuery) -> StoreResponse {
        let t = self.now();
        match q.pipeline_query() {
            Ok(pq) => {
                let sensor = pq.sensor();
                let Some(serving) = self.serving(sensor) else {
                    // An id outside the sensor space names nothing that
                    // could answer: fail honestly, advertising nothing.
                    return StoreResponse {
                        value: None,
                        series: Vec::new(),
                        events: Vec::new(),
                        source: AnswerSource::Failed,
                        sigma: f64::INFINITY,
                        latency: SimDuration::ZERO,
                        index_hops: 0,
                    };
                };
                let (_, hops) = self.route(sensor);
                let a = {
                    let (proxy, node, link) = self.query_target(sensor, serving, t);
                    proxy.answer(t, pq, node, link)
                };
                let (source, latency) = (a.source(), a.latency() + HOP_LATENCY * hops);
                let (value, series, sigma) = match a {
                    PipelineAnswer::Scalar(a) => (
                        Some(a.value),
                        Vec::new(),
                        self.widened(sensor, a.source, a.sigma),
                    ),
                    PipelineAnswer::Series(a) => {
                        // Correct timestamps back to reference time.
                        let corrector = &self.correctors[sensor as usize];
                        let series = a
                            .samples
                            .into_iter()
                            .map(|(ts, v)| (corrector.correct(ts), v))
                            .collect();
                        // A past series has no scalar sigma; extrapolated
                        // spans inherit the (widened) push-tolerance
                        // guarantee.
                        let sigma = match a.source {
                            AnswerSource::Extrapolated => {
                                self.widened(sensor, a.source, PUSH_TOLERANCE)
                            }
                            AnswerSource::Failed => f64::INFINITY,
                            _ => 0.0,
                        };
                        (None, series, sigma)
                    }
                };
                StoreResponse {
                    value,
                    series,
                    events: Vec::new(),
                    source,
                    sigma,
                    latency,
                    index_hops: hops,
                }
            }
            Err((from, to)) => {
                // Route the range through the interval index first:
                // proxies whose sensors archived nothing overlapping the
                // window are pruned before their caches are consulted.
                // Delivered segment-seal notifications are the index's
                // only feed; spans still in an unsealed segment, or whose
                // announcement was lost, are covered by the
                // cached-event-span check below.
                let slack = PrestoSystem::ROUTE_SLACK;
                let (mut candidates, route_hops) = self.route_range(from - slack, to + slack);
                // Cached events are not guaranteed archive-backed (an
                // append can fail while the push succeeds), so also
                // visit any proxy whose cached-event span overlaps the
                // padded window — an O(proxies) check that preserves
                // the archive pruning.
                for (p, proxy) in self.proxies.iter().enumerate() {
                    if candidates.contains(&p) {
                        continue;
                    }
                    if let Some((lo, hi)) = proxy.events_span() {
                        if lo <= to + slack && hi >= from - slack {
                            candidates.push(p);
                        }
                    }
                }
                candidates.sort_unstable();
                let mut events: Vec<(SimTime, u16, u16)> = Vec::new();
                for &p in &candidates {
                    // Binary-searched range read over the time-indexed
                    // event cache (padded by the clock slack, since the
                    // cache orders by uncorrected sensor time), then an
                    // exact corrected-time filter.
                    for e in self.proxies[p].events().range(from - slack, to + slack) {
                        let corrected = self.correctors[e.sensor as usize].correct(e.t);
                        if corrected >= from && corrected <= to {
                            events.push((corrected, e.sensor, e.event_type));
                        }
                    }
                }
                events.sort();
                let hops = route_hops + candidates.len() as u64;
                StoreResponse {
                    value: None,
                    series: Vec::new(),
                    events,
                    source: AnswerSource::CacheHit,
                    sigma: 0.0,
                    latency: HOP_LATENCY * hops,
                    index_hops: hops,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn running_system(days: u64) -> PrestoSystem {
        let mut sys = PrestoSystem::new(SystemConfig {
            proxies: 2,
            sensors_per_proxy: 3,
            ..SystemConfig::default()
        });
        sys.run(SimDuration::from_days(days));
        sys
    }

    #[test]
    fn now_query_answers_within_tolerance() {
        let mut sys = running_system(1);
        let truth = sys.truth.clone();
        for sensor in 0..6u16 {
            let r = sys.query(StoreQuery::Now {
                sensor,
                tolerance: 1.5,
            });
            let v = r.value.expect("NOW answers carry a value");
            let err = (v - truth[sensor as usize]).abs();
            assert!(
                err <= 2.0,
                "sensor {sensor}: {v} vs {} (source {:?})",
                truth[sensor as usize],
                r.source
            );
            assert_ne!(r.source, AnswerSource::Failed);
        }
    }

    #[test]
    fn past_query_returns_series() {
        let mut sys = running_system(1);
        let r = sys.query(StoreQuery::Past {
            sensor: 4,
            from: SimTime::from_hours(10),
            to: SimTime::from_hours(11),
            tolerance: 1.0,
        });
        assert!(!r.series.is_empty());
        assert!(r.series.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_ne!(r.source, AnswerSource::Failed);
    }

    #[test]
    fn events_view_is_globally_ordered() {
        let mut sys = PrestoSystem::new(SystemConfig {
            proxies: 2,
            sensors_per_proxy: 3,
            lab: presto_workloads::LabParams {
                events_per_day: 10.0,
                ..presto_workloads::LabParams::default()
            },
            ..SystemConfig::default()
        });
        sys.run(SimDuration::from_days(2));
        let r = sys.query(StoreQuery::Events {
            from: SimTime::ZERO,
            to: SimTime::from_days(2),
        });
        assert!(!r.events.is_empty(), "no events over two days at 10/day");
        assert!(r.events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn events_query_prunes_empty_windows_via_range_index() {
        let mut sys = PrestoSystem::new(SystemConfig {
            proxies: 2,
            sensors_per_proxy: 3,
            lab: presto_workloads::LabParams {
                events_per_day: 10.0,
                ..presto_workloads::LabParams::default()
            },
            ..SystemConfig::default()
        });
        sys.run(SimDuration::from_days(1));
        // A window far past every archive overlaps no proxy: zero
        // per-proxy visits beyond the index routing itself.
        let r = sys.query(StoreQuery::Events {
            from: SimTime::from_days(40),
            to: SimTime::from_days(41),
        });
        assert!(r.events.is_empty());
        // A covered window still reports every event.
        let r = sys.query(StoreQuery::Events {
            from: SimTime::ZERO,
            to: SimTime::from_days(1),
        });
        assert!(!r.events.is_empty(), "no events over a day at 10/day");
        assert!(r.events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn events_query_includes_unarchived_cached_events() {
        use presto_sensor::{UplinkMsg, UplinkPayload};
        let mut sys = running_system(1);
        // An event cached at proxy 1 with no archive backing (as when a
        // sensor's append fails but its push succeeds) at an instant no
        // archive span covers: the span union must still visit proxy 1.
        sys.proxies[1].on_uplink(&UplinkMsg {
            sensor: 4,
            sent_at: SimTime::from_days(30),
            wire_bytes: 15,
            payload: UplinkPayload::Event {
                event_type: 9,
                data: Vec::new().into(),
            },
        });
        let r = sys.query(StoreQuery::Events {
            from: SimTime::from_days(29),
            to: SimTime::from_days(31),
        });
        assert_eq!(r.events.len(), 1, "unarchived cached event was pruned");
        assert_eq!(r.events[0].2, 9);
    }

    #[test]
    fn routing_hops_are_reported() {
        let mut sys = running_system(1);
        let r = sys.query(StoreQuery::Now {
            sensor: 5,
            tolerance: 1.0,
        });
        // 2 proxies: at most a couple of hops, and latency includes them.
        assert!(r.index_hops <= 4);
    }

    #[test]
    fn unknown_sensor_fails_honestly() {
        let mut sys = running_system(0);
        for q in [
            StoreQuery::Now {
                sensor: 6,
                tolerance: 1.0,
            },
            StoreQuery::Past {
                sensor: 6,
                from: SimTime::ZERO,
                to: SimTime::from_mins(5),
                tolerance: 1.0,
            },
            StoreQuery::Aggregate {
                sensor: u16::MAX,
                from: SimTime::ZERO,
                to: SimTime::from_mins(5),
                op: presto_sensor::AggregateOp::Mean,
            },
        ] {
            let r = sys.query(q);
            assert_eq!(r.source, AnswerSource::Failed, "{q:?}");
            assert!(r.sigma.is_infinite());
            assert!(r.value.is_none() && r.series.is_empty() && r.events.is_empty());
        }
    }

    #[test]
    fn aggregate_query_returns_a_scalar() {
        let mut sys = running_system(1);
        let r = sys.query(StoreQuery::Aggregate {
            sensor: 2,
            from: SimTime::from_hours(8),
            to: SimTime::from_hours(12),
            op: presto_sensor::AggregateOp::Mean,
        });
        assert_ne!(r.source, presto_proxy::AnswerSource::Failed);
        let v = r.value.expect("aggregate carries a value");
        assert!((0.0..45.0).contains(&v), "implausible mean {v}");
        assert!(r.series.is_empty());
    }
}
