//! Extension experiments E1–E8 (see DESIGN.md §4).
//!
//! Each function turns one prose claim from the paper into a measurement
//! on the same substrates the headline reproductions use.

use presto_archive::{ArchiveConfig, ArchiveStore};
use presto_index::{ClockCorrector, DriftClock, SkipGraph, UnifiedView};
use presto_models::{
    ArModel, LinearTrendModel, MarkovModel, ModelKind, Predictor, SeasonalArModel, SeasonalModel,
};
use presto_net::LinkModel;
use presto_reliability::DownlinkChannel;
use presto_proxy::{AnswerSource, PrestoProxy, ProxyConfig, QueryClass, QuerySensorMatcher};
use presto_sensor::{DownlinkMsg, PushPolicy, SensorConfig, SensorNode, UplinkPayload};
use presto_sim::metrics::Summary;
use presto_sim::{EnergyLedger, SimDuration, SimRng, SimTime};
use presto_workloads::{LabDeployment, LabParams, TrafficGen, TrafficParams};

fn diurnal_history(days: u64, step_mins: u64, seed: u64) -> Vec<(SimTime, f64)> {
    LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            epoch: SimDuration::from_mins(step_mins),
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    )
    .into_iter()
    .map(|r| (r.timestamp, r.value))
    .collect()
}

// ---------------------------------------------------------------------
// E1 — rare events are never missed under model-driven push.
// ---------------------------------------------------------------------

/// One arm of the rare-event experiment.
#[derive(Clone, Debug)]
pub struct E1Arm {
    /// Arm label.
    pub arm: String,
    /// Fraction of injected events whose report reached the proxy.
    pub recall: f64,
    /// Sensor push energy over the run, joules.
    pub push_j: f64,
}

/// E1 result.
#[derive(Clone, Debug)]
pub struct E1Result {
    /// Injected event count.
    pub events: u64,
    /// The arms.
    pub arms: Vec<E1Arm>,
}

/// Runs E1: model-driven push + event reports vs periodic pull at several
/// periods. Pull arms only see an event if a poll lands inside it.
pub fn e1_rare_events(days: u64, seed: u64) -> E1Result {
    let lab = LabParams {
        events_per_day: 10.0,
        ..LabParams::default()
    };
    let trace = LabDeployment::single_sensor_trace(lab, seed, SimDuration::from_days(days));
    let onsets: Vec<SimTime> = trace
        .windows(2)
        .filter(|w| w[1].event_active && !w[0].event_active)
        .map(|w| w[1].timestamp)
        .collect();
    let event_duration = SimDuration::from_mins(5);
    let mut arms = Vec::new();

    // Arm 1: PRESTO model-driven push with semantic event reports.
    {
        let hist: Vec<(SimTime, f64)> = trace
            .iter()
            .filter(|r| !r.event_active)
            .take(5000)
            .map(|r| (r.timestamp, r.value))
            .collect();
        let (model, _) = SeasonalArModel::train(&hist, 24, 2);
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::ModelDriven { tolerance: 1.0 },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        node.handle_downlink(
            SimTime::ZERO,
            &DownlinkMsg::ModelUpdate {
                kind: ModelKind::SeasonalAr,
                params: model.encode_params(),
            },
            None,
        );
        let mut reported = 0u64;
        let mut was_active = false;
        for r in &trace {
            node.on_sample(r.timestamp, r.value, None);
            if r.event_active
                && !was_active
                && node.on_event(r.timestamp, 1, Vec::new(), None).is_some()
            {
                reported += 1;
            }
            was_active = r.event_active;
        }
        let l = node.ledger();
        arms.push(E1Arm {
            arm: "model-driven push".into(),
            recall: reported as f64 / onsets.len().max(1) as f64,
            push_j: l.category(presto_sim::EnergyCategory::RadioTx),
        });
    }

    // Arms 2..: periodic pull at several periods — an event is caught
    // only if a poll instant falls inside its active window.
    for period_min in [10u64, 30, 120] {
        let period = SimDuration::from_mins(period_min);
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::Silent,
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut proxy = PrestoProxy::new(ProxyConfig::default());
        proxy.register_sensor(0);
        let mut link = DownlinkChannel::perfect();
        let mut caught = 0u64;
        let mut next_poll = SimTime::ZERO;
        let mut qid = 0u64;
        for r in &trace {
            node.on_sample(r.timestamp, r.value, None);
            if r.timestamp >= next_poll {
                next_poll = r.timestamp + period;
                qid += 1;
                let msg = DownlinkMsg::PullRequest {
                    query_id: qid,
                    from: r.timestamp - SimDuration::from_secs(31),
                    to: r.timestamp,
                    tolerance: 0.5,
                };
                let reply = proxy.rpc(r.timestamp, &msg, &mut node, &mut link).reply;
                if let Some(rep) = reply {
                    if let UplinkPayload::PullReply { samples, .. } = &rep.payload {
                        if let Some(last) = samples.last() {
                            // Did the poll land inside any event window?
                            if onsets
                                .iter()
                                .any(|&o| last.t >= o && last.t <= o + event_duration)
                            {
                                caught += 1;
                            }
                        }
                    }
                }
            }
        }
        // Each event is caught at most once.
        let recall = (caught.min(onsets.len() as u64)) as f64 / onsets.len().max(1) as f64;
        arms.push(E1Arm {
            arm: format!("periodic pull ({period_min} min)"),
            recall,
            push_j: node.ledger().category(presto_sim::EnergyCategory::RadioTx),
        });
    }

    E1Result {
        events: onsets.len() as u64,
        arms,
    }
}

// ---------------------------------------------------------------------
// E2 — answer-path breakdown and latency vs query tolerance.
// ---------------------------------------------------------------------

/// One tolerance point of E2.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Query tolerance.
    pub tolerance: f64,
    /// Cache-hit fraction.
    pub cache_hit: f64,
    /// Extrapolation fraction.
    pub extrapolated: f64,
    /// Pull fraction.
    pub pulled: f64,
    /// Mean latency, ms.
    pub latency_mean_ms: f64,
    /// p95 latency, ms.
    pub latency_p95_ms: f64,
    /// Mean answer error.
    pub error_mean: f64,
}

/// Runs E2: a trained single-sensor PRESTO pair answering NOW queries at
/// random instants, swept over tolerance.
pub fn e2_latency(days: u64, seed: u64) -> Vec<E2Row> {
    let push_tolerance = 1.0;
    let trace = LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    );
    let mut rows = Vec::new();
    for tolerance in [0.25, 0.5, 1.0, 2.0] {
        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::ModelDriven {
                    tolerance: push_tolerance,
                },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let mut proxy = PrestoProxy::new(ProxyConfig {
            push_tolerance,
            ..ProxyConfig::default()
        });
        proxy.register_sensor(0);
        let mut link = DownlinkChannel::perfect();
        let mut rng = SimRng::new(seed ^ 0xE2);
        let mut latency = Summary::new();
        let mut error = Summary::new();
        let (mut hits, mut extr, mut pulls, mut total) = (0u64, 0u64, 0u64, 0u64);
        let train_every = 120usize;
        for (i, r) in trace.iter().enumerate() {
            for msg in node.on_sample(r.timestamp, r.value, None) {
                proxy.on_uplink(&msg);
            }
            if i % train_every == 0 {
                proxy.maybe_train_and_push(r.timestamp, 0, &mut node, &mut link);
            }
            // ~1 query per 20 epochs at a random offset.
            if rng.chance(0.05) && i > trace.len() / 4 {
                let a = proxy.answer_now(r.timestamp, 0, tolerance, &mut node, &mut link);
                total += 1;
                match a.source {
                    AnswerSource::CacheHit => hits += 1,
                    AnswerSource::Extrapolated | AnswerSource::SpatialExtrapolated => extr += 1,
                    AnswerSource::Pulled => pulls += 1,
                    AnswerSource::Failed => {}
                }
                latency.record(a.latency.as_millis_f64());
                error.record((a.value - r.value).abs());
            }
        }
        let denom = total.max(1) as f64;
        rows.push(E2Row {
            tolerance,
            cache_hit: hits as f64 / denom,
            extrapolated: extr as f64 / denom,
            pulled: pulls as f64 / denom,
            latency_mean_ms: latency.mean(),
            latency_p95_ms: latency.p95(),
            error_mean: error.mean(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E3 — extrapolation accuracy vs the push-tolerance guarantee.
// ---------------------------------------------------------------------

/// One point of E3.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Configured push tolerance.
    pub push_tolerance: f64,
    /// Mean |extrapolated − truth| while the sensor is silent.
    pub mean_abs_error: f64,
    /// Max |extrapolated − truth|.
    pub max_abs_error: f64,
    /// Fraction of silent epochs within the tolerance bound.
    pub within_bound: f64,
    /// Pushes per day the tolerance induced.
    pub pushes_per_day: f64,
}

/// Runs E3: for each push tolerance, train a model, run model-driven
/// push, and measure the proxy-side extrapolation error at every epoch
/// where the sensor stayed silent.
pub fn e3_extrapolation(days: u64, seed: u64) -> Vec<E3Row> {
    let trace = LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    );
    let split = trace.len() / 3;
    let hist: Vec<(SimTime, f64)> = trace[..split]
        .iter()
        .map(|r| (r.timestamp, r.value))
        .collect();
    let mut rows = Vec::new();
    for push_tolerance in [0.5, 1.0, 2.0, 4.0] {
        let (model, _) = SeasonalArModel::train(&hist, 24, 2);
        // Sensor replica.
        let mut sensor_model =
            SeasonalArModel::decode_params(&model.encode_params()).expect("own params decode");
        // Proxy replica (identical).
        let mut proxy_model =
            SeasonalArModel::decode_params(&model.encode_params()).expect("own params decode");
        let mut err = Summary::new();
        let mut within = 0u64;
        let mut silent = 0u64;
        let mut pushes = 0u64;
        for r in &trace[split..] {
            let pred = sensor_model.predict(r.timestamp);
            if (r.value - pred.value).abs() > push_tolerance {
                // Push: both replicas observe the value.
                sensor_model.observe(r.timestamp, r.value);
                proxy_model.observe(r.timestamp, r.value);
                pushes += 1;
            } else {
                // Silence: the proxy extrapolates.
                silent += 1;
                let e = (proxy_model.predict(r.timestamp).value - r.value).abs();
                err.record(e);
                if e <= push_tolerance + 1e-9 {
                    within += 1;
                }
            }
        }
        let run_days = (trace.len() - split) as f64 * 31.0 / 86_400.0;
        rows.push(E3Row {
            push_tolerance,
            mean_abs_error: err.mean(),
            max_abs_error: err.max(),
            within_bound: within as f64 / silent.max(1) as f64,
            pushes_per_day: pushes as f64 / run_days,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E4 — graceful aging under storage pressure.
// ---------------------------------------------------------------------

/// One capacity point of E4.
#[derive(Clone, Debug)]
pub struct E4Row {
    /// Flash capacity, bytes.
    pub capacity_bytes: usize,
    /// With aging: queryable history span, hours.
    pub aged_history_hours: f64,
    /// Without aging: queryable history span, hours.
    pub dropped_history_hours: f64,
    /// RMSE of the oldest queryable day's reconstruction (aging on).
    pub oldest_day_rmse: f64,
}

/// Runs E4: write a long trace into archives of shrinking capacity, with
/// and without aging, and measure how much history stays queryable.
pub fn e4_aging(days: u64, seed: u64) -> Vec<E4Row> {
    let trace = LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    );
    let horizon = trace.last().map(|r| r.timestamp).unwrap_or(SimTime::ZERO);
    let mut rows = Vec::new();
    for capacity in [256 * 1024, 64 * 1024, 16 * 1024] {
        let run = |aging: bool| -> (f64, f64) {
            let mut store = ArchiveStore::new(ArchiveConfig {
                capacity_bytes: capacity,
                aging_enabled: aging,
                ..ArchiveConfig::default()
            });
            let mut ledger = EnergyLedger::new();
            for r in &trace {
                store
                    .append_scalar(r.timestamp, r.value, &mut ledger)
                    .expect("append");
            }
            let oldest = store.oldest_available().unwrap_or(horizon);
            let span_hours = (horizon - oldest).as_secs_f64() / 3600.0;
            // RMSE over the oldest still-queryable 12 hours.
            let from = oldest;
            let to = oldest + SimDuration::from_hours(12);
            let got = store.query_range(from, to, &mut ledger).unwrap_or_default();
            let mut se = 0.0;
            let mut n = 0usize;
            for s in &got {
                // Nearest truth sample.
                let idx = (s.timestamp.as_secs_f64() / 31.0).round() as usize;
                if let Some(r) = trace.get(idx) {
                    se += (s.value - r.value) * (s.value - r.value);
                    n += 1;
                }
            }
            let rmse = if n == 0 {
                f64::NAN
            } else {
                (se / n as f64).sqrt()
            };
            (span_hours, rmse)
        };
        let (aged_span, aged_rmse) = run(true);
        let (dropped_span, _) = run(false);
        rows.push(E4Row {
            capacity_bytes: capacity,
            aged_history_hours: aged_span,
            dropped_history_hours: dropped_span,
            oldest_day_rmse: aged_rmse,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E5 — skip-graph scaling.
// ---------------------------------------------------------------------

/// One size point of E5.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Number of proxies in the index.
    pub proxies: usize,
    /// Mean search hops.
    pub search_hops_mean: f64,
    /// Mean insert hops.
    pub insert_hops_mean: f64,
}

/// Runs E5: index sizes 2–256 proxies, measuring search and insert hops.
pub fn e5_skipgraph(seed: u64) -> Vec<E5Row> {
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
        let mut g: SkipGraph<u64> = SkipGraph::new(seed);
        let mut insert_hops = 0u64;
        for k in 0..n as u64 {
            insert_hops += g.insert(k * 10).hops;
        }
        let intro = g.introducer().expect("non-empty");
        let mut search_hops = 0u64;
        let probes = 200u64;
        let mut rng = SimRng::new(seed ^ n as u64);
        for _ in 0..probes {
            let target = rng.below(n as u64 * 10);
            search_hops += g.search(intro, target).1.hops;
        }
        rows.push(E5Row {
            proxies: n,
            search_hops_mean: search_hops as f64 / probes as f64,
            insert_hops_mean: insert_hops as f64 / n as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E6 — query–sensor matching: latency bound vs energy.
// ---------------------------------------------------------------------

/// One latency-bound point of E6.
#[derive(Clone, Debug)]
pub struct E6Row {
    /// Registered worst-case latency bound, minutes.
    pub latency_bound_min: f64,
    /// Estimated sensor energy per day at the matched settings, joules.
    pub energy_per_day_j: f64,
    /// Measured worst-case downlink notification latency, ms.
    pub measured_worst_latency_ms: f64,
    /// Whether the measured latency met the bound.
    pub bound_met: bool,
}

/// Runs E6: register a query class per latency bound, apply the matcher's
/// retune to a live sensor, and measure the real wake-up latency.
pub fn e6_matching(seed: u64) -> Vec<E6Row> {
    let mut rows = Vec::new();
    for bound_min in [1.0f64, 5.0, 10.0, 30.0, 60.0] {
        let bound = SimDuration::from_mins_f64(bound_min);
        let mut matcher = QuerySensorMatcher::new();
        matcher.register(QueryClass {
            rate_per_hour: 4.0,
            latency_bound: bound,
            tolerance: 1.0,
        });
        let retune = matcher.derive_retune().expect("one class registered");

        let mut node = SensorNode::new(
            0,
            SensorConfig {
                push: PushPolicy::ModelDriven { tolerance: 1.0 },
                ..SensorConfig::default()
            },
            LinkModel::perfect(),
        );
        let DownlinkMsg::Retune {
            lpl_check_interval: Some(lpl),
            ..
        } = retune
        else {
            panic!("retune carries an LPL interval");
        };
        node.handle_downlink(SimTime::ZERO, &retune, None);

        // Energy estimate at the matched settings.
        let duty = presto_net::DutyCycle::lpl(lpl);
        let uplink = presto_net::Mac::uplink(
            presto_net::RadioModel::mica2(),
            presto_net::FrameFormat::tinyos_mica2(),
        );
        let energy = matcher.estimated_energy_per_day(&duty, &uplink, 64);

        // Measured worst-case downlink latency at this duty cycle: the
        // preamble spans one check interval.
        let mut proxy = PrestoProxy::new(ProxyConfig {
            sensor_lpl: lpl,
            ..ProxyConfig::default()
        });
        proxy.register_sensor(0);
        let mut link = DownlinkChannel::perfect();
        let mut worst = SimDuration::ZERO;
        for k in 0..5u64 {
            let msg = DownlinkMsg::PullRequest {
                query_id: k,
                from: SimTime::ZERO,
                to: SimTime::from_secs(1),
                tolerance: 1.0,
            };
            let latency = proxy
                .rpc(SimTime::from_mins(k * 2), &msg, &mut node, &mut link)
                .latency;
            worst = worst.max(latency);
        }
        rows.push(E6Row {
            latency_bound_min: bound_min,
            energy_per_day_j: energy,
            measured_worst_latency_ms: worst.as_millis_f64(),
            bound_met: worst <= bound,
        });
        let _ = seed;
    }
    rows
}

// ---------------------------------------------------------------------
// E7 — model build/check asymmetry.
// ---------------------------------------------------------------------

/// One model-class row of E7.
#[derive(Clone, Debug)]
pub struct E7Row {
    /// Model class label.
    pub model: String,
    /// Proxy-side training cycles.
    pub train_cycles: u64,
    /// Sensor-side per-check cycles.
    pub check_cycles: u64,
    /// Asymmetry ratio (train / check).
    pub ratio: f64,
    /// Over-the-air parameter footprint, bytes.
    pub param_bytes: usize,
}

/// Runs E7 over every model class on a week of history.
pub fn e7_asymmetry(seed: u64) -> Vec<E7Row> {
    let hist = diurnal_history(7, 1, seed); // minutely for a hefty train set
    let mut rows = Vec::new();
    let entries: Vec<(String, Box<dyn Predictor>, u64)> = vec![
        {
            let (m, r) = SeasonalModel::train(&hist, 24);
            (
                "seasonal".into(),
                Box::new(m) as Box<dyn Predictor>,
                r.train_cycles,
            )
        },
        {
            let (m, r) = ArModel::train(&hist, 4);
            (
                "ar(4)".into(),
                Box::new(m) as Box<dyn Predictor>,
                r.train_cycles,
            )
        },
        {
            let (m, r) = SeasonalArModel::train(&hist, 24, 2);
            (
                "seasonal+ar(2)".into(),
                Box::new(m) as Box<dyn Predictor>,
                r.train_cycles,
            )
        },
        {
            let (m, r) = LinearTrendModel::train(&hist);
            (
                "linear-trend".into(),
                Box::new(m) as Box<dyn Predictor>,
                r.train_cycles,
            )
        },
        {
            let (m, r) = MarkovModel::train(&hist, 8);
            (
                "markov(8)".into(),
                Box::new(m) as Box<dyn Predictor>,
                r.train_cycles,
            )
        },
    ];
    for (label, model, train_cycles) in entries {
        let check = model.check_cycles();
        rows.push(E7Row {
            model: label,
            train_cycles,
            check_cycles: check,
            ratio: train_cycles as f64 / check.max(1) as f64,
            param_bytes: model.encode_params().len(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E8 — timestamp correction.
// ---------------------------------------------------------------------

/// One skew point of E8.
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Injected clock skew spread, ppm.
    pub skew_ppm: f64,
    /// Ordering violations among cross-sensor detections, uncorrected.
    pub violations_raw: u64,
    /// Ordering violations after beacon-based correction.
    pub violations_corrected: u64,
    /// Mean absolute timestamp error after correction, ms.
    pub residual_error_ms: f64,
}

/// Runs E8: vehicles pass a line of sensors whose clocks drift; the
/// unified view must restore detection order after correction.
pub fn e8_clock(seed: u64) -> Vec<E8Row> {
    let mut rows = Vec::new();
    for skew_ppm in [0.0f64, 20.0, 50.0, 100.0] {
        let sensors = 4usize;
        let mut rng = SimRng::new(seed ^ 0xE8);
        let clocks: Vec<DriftClock> = (0..sensors)
            .map(|_| DriftClock {
                offset_s: rng.gaussian_ms(0.0, 5.0),
                skew_ppm: rng.gaussian_ms(0.0, skew_ppm),
            })
            .collect();

        // Calibrate correctors with hourly beacons over a day.
        let mut correctors: Vec<ClockCorrector> =
            (0..sensors).map(|_| ClockCorrector::new()).collect();
        for h in 0..24u64 {
            let t = SimTime::from_hours(h);
            for (c, corr) in clocks.iter().zip(correctors.iter_mut()) {
                corr.observe_beacon(c.local_time(t), t);
            }
        }

        // Generate a day of traffic across the sensor line.
        let mut traffic = TrafficGen::new(
            TrafficParams {
                sensors,
                inter_sensor_gap: SimDuration::from_secs(5),
                ..TrafficParams::default()
            },
            seed,
        );
        let dets = traffic.generate(SimTime::from_days(1), SimDuration::from_hours(6));

        let raw_pairs: Vec<(SimTime, SimTime)> = dets
            .iter()
            .map(|d| (d.timestamp, clocks[d.sensor].local_time(d.timestamp)))
            .collect();
        let corrected_pairs: Vec<(SimTime, SimTime)> = dets
            .iter()
            .map(|d| {
                (
                    d.timestamp,
                    correctors[d.sensor].correct(clocks[d.sensor].local_time(d.timestamp)),
                )
            })
            .collect();

        let residual: f64 = corrected_pairs
            .iter()
            .map(|&(truth, got)| (got.as_secs_f64() - truth.as_secs_f64()).abs())
            .sum::<f64>()
            / corrected_pairs.len().max(1) as f64;

        rows.push(E8Row {
            skew_ppm,
            violations_raw: UnifiedView::<()>::ordering_violations(&raw_pairs),
            violations_corrected: UnifiedView::<()>::ordering_violations(&corrected_pairs),
            residual_error_ms: residual * 1000.0,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// A1 — ablation: model class under model-driven push.
// ---------------------------------------------------------------------

/// One model-class row of the ablation.
#[derive(Clone, Debug)]
pub struct A1Row {
    /// Model class label.
    pub model: String,
    /// Pushes per day the class induced at tolerance 1.0.
    pub pushes_per_day: f64,
    /// Sensor push energy per day, joules.
    pub push_j_per_day: f64,
    /// Parameter footprint shipped to the sensor, bytes.
    pub param_bytes: usize,
}

/// Runs A1: every model class drives model-driven push on the same
/// trace; fewer pushes means a better predictor of this workload.
pub fn a1_model_ablation(days: u64, seed: u64) -> Vec<A1Row> {
    let trace = LabDeployment::single_sensor_trace(
        LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        seed,
        SimDuration::from_days(days),
    );
    let split = trace.len() / 3;
    let hist: Vec<(SimTime, f64)> = trace[..split]
        .iter()
        .map(|r| (r.timestamp, r.value))
        .collect();

    let entries: Vec<(String, ModelKind, Vec<u8>)> = vec![
        {
            let (m, _) = SeasonalModel::train(&hist, 24);
            ("seasonal".into(), ModelKind::Seasonal, m.encode_params())
        },
        {
            let (m, _) = ArModel::train(&hist, 2);
            ("ar(2)".into(), ModelKind::Ar, m.encode_params())
        },
        {
            let (m, _) = SeasonalArModel::train(&hist, 24, 2);
            (
                "seasonal+ar(2)".into(),
                ModelKind::SeasonalAr,
                m.encode_params(),
            )
        },
        {
            let (m, _) = LinearTrendModel::train(&hist);
            (
                "linear-trend".into(),
                ModelKind::LinearTrend,
                m.encode_params(),
            )
        },
        {
            let (m, _) = MarkovModel::train(&hist, 8);
            ("markov(8)".into(), ModelKind::Markov, m.encode_params())
        },
    ];

    let run_days = (trace.len() - split) as f64 * 31.0 / 86_400.0;
    entries
        .into_iter()
        .map(|(label, kind, params)| {
            let mut node = SensorNode::new(
                0,
                SensorConfig {
                    push: PushPolicy::ModelDriven { tolerance: 1.0 },
                    ..SensorConfig::default()
                },
                LinkModel::perfect(),
            );
            node.handle_downlink(
                SimTime::ZERO,
                &DownlinkMsg::ModelUpdate {
                    kind,
                    params: params.clone(),
                },
                None,
            );
            let energy_before = node.ledger().category(presto_sim::EnergyCategory::RadioTx);
            for r in &trace[split..] {
                node.on_sample(r.timestamp, r.value, None);
            }
            let push_j = node.ledger().category(presto_sim::EnergyCategory::RadioTx)
                - energy_before;
            A1Row {
                model: label,
                pushes_per_day: node.stats().deviations_pushed as f64 / run_days,
                push_j_per_day: push_j / run_days,
                param_bytes: params.len(),
            }
        })
        .collect()
}

crate::json_object!(E1Arm { arm, recall, push_j });
crate::json_object!(E1Result { events, arms });
crate::json_object!(E2Row {
    tolerance,
    cache_hit,
    extrapolated,
    pulled,
    latency_mean_ms,
    latency_p95_ms,
    error_mean,
});
crate::json_object!(E3Row {
    push_tolerance,
    mean_abs_error,
    max_abs_error,
    within_bound,
    pushes_per_day,
});
crate::json_object!(E4Row {
    capacity_bytes,
    aged_history_hours,
    dropped_history_hours,
    oldest_day_rmse,
});
crate::json_object!(E5Row { proxies, search_hops_mean, insert_hops_mean });
crate::json_object!(E6Row {
    latency_bound_min,
    energy_per_day_j,
    measured_worst_latency_ms,
    bound_met,
});
crate::json_object!(E7Row { model, train_cycles, check_cycles, ratio, param_bytes });
crate::json_object!(E8Row {
    skew_ppm,
    violations_raw,
    violations_corrected,
    residual_error_ms,
});
crate::json_object!(A1Row { model, pushes_per_day, push_j_per_day, param_bytes });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_model_driven_never_misses() {
        let r = e1_rare_events(4, 11);
        assert!(r.events > 5);
        let md = &r.arms[0];
        assert_eq!(md.arm, "model-driven push");
        assert!(md.recall > 0.99, "recall {}", md.recall);
        // Sparse pulls miss most events.
        let pull120 = r.arms.iter().find(|a| a.arm.contains("120")).unwrap();
        assert!(
            pull120.recall < 0.5,
            "120-min pull recall {}",
            pull120.recall
        );
    }

    #[test]
    fn e2_loose_tolerance_avoids_pulls() {
        let rows = e2_latency(3, 12);
        let loose = rows.iter().find(|r| r.tolerance == 2.0).unwrap();
        let tight = rows.iter().find(|r| r.tolerance == 0.25).unwrap();
        assert!(
            loose.pulled < tight.pulled,
            "loose {} tight {}",
            loose.pulled,
            tight.pulled
        );
        assert!(loose.latency_mean_ms < tight.latency_mean_ms);
    }

    #[test]
    fn e3_errors_respect_the_bound() {
        let rows = e3_extrapolation(4, 13);
        for r in &rows {
            assert!(
                r.within_bound > 0.95,
                "tol {} within {}",
                r.push_tolerance,
                r.within_bound
            );
        }
        // Tighter tolerance → more pushes.
        assert!(rows[0].pushes_per_day > rows[3].pushes_per_day);
    }

    #[test]
    fn e4_aging_keeps_more_history() {
        let rows = e4_aging(6, 14);
        for r in &rows {
            assert!(r.aged_history_hours >= r.dropped_history_hours, "{r:?}");
        }
        // The tightest capacity must show a real gap.
        let tight = rows.last().unwrap();
        assert!(
            tight.aged_history_hours > tight.dropped_history_hours * 1.5,
            "{tight:?}"
        );
    }

    #[test]
    fn e5_hops_grow_sublinearly() {
        let rows = e5_skipgraph(15);
        let h2 = rows.first().unwrap().search_hops_mean;
        let h256 = rows.last().unwrap().search_hops_mean;
        let _ = h2;
        // 128× more proxies, hops must stay far below linear growth.
        assert!(h256 < 40.0, "{h256}");
    }

    #[test]
    fn e6_relaxed_bounds_save_energy_and_meet_latency() {
        let rows = e6_matching(16);
        assert!(rows.iter().all(|r| r.bound_met), "{rows:?}");
        let tight = rows.first().unwrap();
        let relaxed = rows.last().unwrap();
        assert!(relaxed.energy_per_day_j < tight.energy_per_day_j);
    }

    #[test]
    fn e7_all_models_are_asymmetric() {
        let rows = e7_asymmetry(17);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.ratio > 100.0, "{} ratio {}", r.model, r.ratio);
            assert!(r.param_bytes < 1000, "{} params {}", r.model, r.param_bytes);
        }
    }

    #[test]
    fn a1_combined_model_is_quietest() {
        let rows = a1_model_ablation(3, 19);
        assert_eq!(rows.len(), 5);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.model.starts_with(name))
                .expect("row exists")
                .pushes_per_day
        };
        // The combined model must beat the seasonal table alone and the
        // trend line (the weakest predictors of diurnal + AR data).
        assert!(by("seasonal+ar") < by("seasonal"), "{rows:?}");
        assert!(by("seasonal+ar") < by("linear-trend"), "{rows:?}");
        // Every class keeps its parameters shippable.
        assert!(rows.iter().all(|r| r.param_bytes < 1024));
    }

    #[test]
    fn e8_correction_removes_violations() {
        let rows = e8_clock(18);
        let worst = rows.last().unwrap();
        assert!(
            worst.violations_raw > 0,
            "no violations injected at 100 ppm"
        );
        assert!(
            worst.violations_corrected < worst.violations_raw / 10,
            "{worst:?}"
        );
        assert!(worst.residual_error_ms < 1000.0);
    }
}
