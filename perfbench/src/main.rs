//! The repository benchmark.
//!
//! ```text
//! presto-perfbench --workload <fleet_skew|hot_windows|archive_aging>
//!                  --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! Repeats the seeded workload (set-up, measured phase, drain, checks)
//! until `--seconds` have passed, at least twice. Simulated-time outcomes
//! come from the first repetition and every later one must reproduce
//! them exactly; host timings are medians over repetitions. With
//! `--trace 1` untraced and traced repetitions alternate, and the report
//! holds the per-layer metrics instead of the end-to-end ones. The last
//! stdout line is one JSON object; the exit code is 1 when a correctness
//! check failed.

mod run;
mod workload;

use std::io::Write as _;
use std::time::Instant;

use presto_telemetry::alloc::{self, CountingAlloc};

use run::{cost_growth, quantile, ratio, Rep, PHASES};
use workload::{Name, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Simulated seconds per wall second of the measured phase, at nominal
/// host speed.
fn sim_speed(r: &&Rep) -> f64 {
    r.phase_sim_s / r.phase_wall_s * r.host_slowdown
}

/// The end-to-end report: simulated outcomes from the first repetition,
/// host costs as medians over the untraced ones, at nominal host speed.
fn end_to_end(reps: &[&Rep]) -> Vec<(String, f64, &'static str)> {
    let unit = |name: &str| match name {
        "answered_frac" => "frac",
        "radio_bytes_per_answer" => "B/answer",
        "sensor_j_per_sensor_day" => "J/sensor-day",
        _ => "s",
    };
    let setup_s = median(reps.iter().map(|r| r.setup_s / r.host_slowdown).collect());
    let host = [
        (
            "sim_speed",
            median(reps.iter().map(sim_speed).collect()),
            "sim-s/s",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB"),
    ];
    reps[0]
        .sim
        .iter()
        .map(|&(n, v)| (n, v, unit(n)))
        .chain(host)
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect()
}

/// The per-layer report. Profiler phases and allocation counts come from
/// the untraced repetitions, spans from the traced ones.
fn per_layer(name: Name, untraced: &[&Rep], traced: &[&Rep]) -> Vec<(String, f64, &'static str)> {
    let spans: Vec<&run::Spans> = traced.iter().filter_map(|r| r.spans.as_ref()).collect();
    let mut step: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.step_us.iter().copied())
        .collect();
    let submit: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.submit_us.iter().copied())
        .collect();
    let (mut fleet_submit, mut proxy_submit) = if name.is_fleet() {
        (submit, Vec::new())
    } else {
        (Vec::new(), submit)
    };
    let per_epoch = |reps: &[&Rep], f: &dyn Fn(&Rep) -> f64| -> f64 {
        ratio(
            reps.iter().map(|r| f(r)).sum(),
            reps.iter().map(|r| r.epochs as f64).sum(),
        )
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |n: &str, v: f64, unit: &'static str| out.push((n.to_string(), v, unit));
    push("core.step_epoch_us.p50", quantile(&mut step, 0.5), "us");
    push("core.step_epoch_us.p99", quantile(&mut step, 0.99), "us");
    push(
        "core.epoch_cost_growth",
        median(spans.iter().map(|s| cost_growth(&s.step_us)).collect()),
        "ratio",
    );
    push(
        "fleet.submit_us.p50",
        quantile(&mut fleet_submit, 0.5),
        "us",
    );
    push(
        "fleet.submit_us.p99",
        quantile(&mut fleet_submit, 0.99),
        "us",
    );
    push(
        "proxy.submit_us.p50",
        quantile(&mut proxy_submit, 0.5),
        "us",
    );
    push(
        "proxy.submit_us.p99",
        quantile(&mut proxy_submit, 0.99),
        "us",
    );
    for phase in PHASES {
        let us = per_epoch(untraced, &|r| r.profiler[phase].micros as f64);
        let allocs = per_epoch(untraced, &|r| r.profiler[phase].allocs as f64);
        push(&format!("profiler.{phase}.us_per_epoch"), us, "us/epoch");
        push(
            &format!("profiler.{phase}.allocs_per_epoch"),
            allocs,
            "allocs/epoch",
        );
    }
    let scope_tick = if name.is_fleet() {
        per_epoch(untraced, &|r| r.profiler["fleet_scope"].micros as f64)
    } else {
        // On a single system the scope tick runs inside `step_epoch`
        // after the core pass and the pump.
        per_epoch(traced, &|r| {
            let spans: f64 = r.spans.as_ref().map_or(0.0, |s| s.step_us.iter().sum());
            let inner = r.profiler["step_epoch_core"].micros + r.profiler["pump_pipelines"].micros;
            (spans - inner as f64).max(0.0)
        })
    };
    push("scope.tick_us_per_epoch", scope_tick, "us/epoch");
    push(
        "export.snapshot_us",
        median(spans.iter().map(|s| s.snapshot_us).collect()),
        "us",
    );
    push(
        "gen.us_total",
        median(spans.iter().map(|s| s.gen_us).collect()),
        "us",
    );
    push(
        "alloc.allocs_per_epoch",
        per_epoch(untraced, &|r| r.allocs as f64),
        "allocs/epoch",
    );
    let speed = |reps: &[&Rep]| median(reps.iter().map(sim_speed).collect());
    push(
        "trace.overhead_ratio",
        ratio(speed(untraced), speed(traced)),
        "ratio",
    );
    for &(n, v) in &untraced[0].layers {
        push(n, v, layer_unit(n));
    }
    out
}

fn layer_unit(name: &str) -> &'static str {
    if name.starts_with("sensor.j.") {
        "J/sensor-day"
    } else if name.ends_with("_frac") || name.ends_with("_rate") {
        "frac"
    } else if name.contains("_per_") {
        "ratio"
    } else {
        "count"
    }
}

fn write_spans(path: &str, reps: &[Rep]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "rep,span,index,us")?;
    for (i, r) in reps.iter().enumerate() {
        let Some(s) = &r.spans else { continue };
        for (kind, v) in [("step_epoch", &s.step_us), ("submit", &s.submit_us)] {
            for (j, us) in v.iter().enumerate() {
                writeln!(out, "{i},{kind},{j},{us:.3}")?;
            }
        }
        writeln!(out, "{i},generator,0,{:.3}", s.gen_us)?;
        writeln!(out, "{i},telemetry_snapshot,0,{:.3}", s.snapshot_us)?;
    }
    out.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("presto-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = Workload::new(args.workload, args.seed);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        reps.push(run::run(&w, traced));
        if reps.len() >= 2 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut problems: Vec<String> = Vec::new();
    let reference = reps[0].fingerprint();
    for (i, r) in reps.iter().enumerate() {
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
        if r.fingerprint() != reference {
            problems.push(format!(
                "repetition {i} did not reproduce repetition 0 under the same seed"
            ));
        }
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = write_spans(path, &reps) {
            problems.push(format!("could not write spans to {path}: {e}"));
        }
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.spans.is_none()).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.spans.is_some()).collect();
    let metrics = if args.trace {
        per_layer(args.workload, &untraced, &traced)
    } else {
        end_to_end(&untraced)
    };

    let first = &reps[0];
    println!(
        "repetitions: {} ({} traced), queries per repetition: {}, latency samples: {}, NOW age samples: {}",
        reps.len(),
        traced.len(),
        first.submitted,
        first.samples.0,
        first.samples.1
    );
    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        first.submitted.max(1),
        first.failed,
        body.join(", ")
    );
    if !problems.is_empty() {
        std::process::exit(1);
    }
}
