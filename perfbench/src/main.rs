//! The repository benchmark: runs one named workload through the
//! simulator's public entry points, checks the simulated outputs, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dvfs_linopt --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics. `--pin` also
//! prints the model metrics as `expected.txt` lines. The exit code is
//! 0 when every output check passed, 1 when one failed, 2 on a usage
//! error. See `NOTES.md` for the workloads, metrics and predictions.

mod bench;
mod check;
mod dvfs;
mod fleet;
mod online;
mod stats;
mod trace;

use bench::{Metric, Report, TraceRun, Workload};
use std::process::ExitCode;

/// The workloads, in the order `NOTES.md` describes them.
const WORKLOADS: [&str; 4] = ["dvfs_sann", "dvfs_linopt", "fleet_va", "online_slo"];

/// End-to-end metrics in the final JSON line (`--trace 0`): the ones
/// every workload measures, none reads as zero, and each repeats within
/// its bound across seeds. Host time in them is in nominal CPU seconds
/// (`stats::nominal_s`), which a slower or busier host does not move;
/// wall-clock and raw CPU figures are printed in the table only, with
/// the rest.
const END_TO_END: [&str; 3] = ["setup_s", "sim_ms_per_nominal_s", "budget_err_frac"];

/// Per-layer metrics in the final JSON line (`--trace 1`): the ones
/// with a measurement on every workload. Per-call times of a layer that
/// only some workloads run are printed in the table only.
const PER_LAYER: [&str; 9] = [
    "varius.die_ms",
    "cmpsim.machine_new_ms",
    "cmpsim.ticks",
    "anneal.evals",
    "online.migrations",
    "online.shed",
    "fleet.routed",
    "trace.coverage_frac",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Mean per call of `layer` in units of `per_ns`, with its call count
/// and share of the traced worker time beside it.
fn per_call(
    t: &TraceRun,
    name: &'static str,
    layer: &str,
    unit: &'static str,
    per_ns: f64,
) -> Metric {
    let s = t.layers.span(layer);
    let note = if s.calls == 0 {
        "n/a: not run or not separable on this workload".to_string()
    } else if layer == "varius.die" || layer == "cmpsim.machine_new" {
        format!(
            "{} calls replayed on the workload's seeds, outside the timed units",
            s.calls
        )
    } else {
        format!(
            "{} calls, {:.1}% of traced worker time",
            s.calls,
            100.0 * s.ns / t.layers.capacity_ns
        )
    };
    Metric::noted(name, s.mean(per_ns), unit, note)
}

/// Every per-layer metric of a traced run.
fn layer_metrics(t: &TraceRun) -> Vec<Metric> {
    let l = &t.layers;
    let passes = t.passes as f64;
    let per_pass = |name: &'static str, counter: &str| {
        Metric::noted(
            name,
            l.counted(counter) / passes,
            "count",
            "per pass over the pool".into(),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let evals = l.counted("anneal.evals");
    let solves = l.counted("linprog.solves");
    vec![
        Metric::noted(
            "anneal.ns_per_eval",
            ratio(l.span("manager.sann").ns, evals),
            "ns",
            "SAnn invocation time / budgeted evaluations".into(),
        ),
        per_pass("anneal.evals", "anneal.evals"),
        per_call(t, "manager.sann.invoke_us", "manager.sann", "us", 1e3),
        per_call(t, "varius.die_ms", "varius.die", "ms", 1e6),
        per_call(t, "cmpsim.machine_new_ms", "cmpsim.machine_new", "ms", 1e6),
        Metric::noted(
            "engine.busy_frac",
            ratio(l.busy_ns, l.capacity_ns),
            "frac",
            "worker time before each worker's last arm / workers x wall".into(),
        ),
        per_call(t, "fleet.construct_ms", "fleet.construct", "ms", 1e6),
        per_call(t, "cmpsim.step_us", "cmpsim.step", "us", 1e3),
        per_pass("cmpsim.ticks", "cmpsim.ticks"),
        per_call(t, "manager.view_us", "manager.view", "us", 1e3),
        per_call(t, "manager.linopt.invoke_us", "manager.linopt", "us", 1e3),
        per_call(t, "manager.foxton.invoke_us", "manager.foxton", "us", 1e3),
        Metric::noted(
            "linprog.pivots_per_solve",
            ratio(l.counted("linprog.pivots"), solves),
            "count",
            format!("{solves} LP solves"),
        ),
        Metric::noted(
            "linprog.warm_hit_frac",
            ratio(l.counted("linprog.warm_hits"), solves),
            "frac",
            format!("{solves} LP solves"),
        ),
        per_call(t, "sched.epoch_us", "sched", "us", 1e3),
        per_pass("sched.epochs", "sched.epochs"),
        per_call(t, "online.self_us", "online.self", "us", 1e3),
        per_pass("online.migrations", "online.migrations"),
        per_pass("online.shed", "online.shed"),
        per_call(t, "online.arrivals_ms", "online.arrivals", "ms", 1e6),
        per_call(t, "fleet.route_ns", "fleet.route", "ns", 1.0),
        per_pass("fleet.routed", "fleet.routed"),
        per_call(t, "fleet.summary_us", "fleet.summary", "us", 1e3),
        per_call(t, "fleet.budget_us", "fleet.budget", "us", 1e3),
        per_call(t, "fleet.chip_epoch_us", "fleet.chip_epoch", "us", 1e3),
        per_call(t, "fleet.merge_us", "fleet.merge", "us", 1e3),
        per_call(t, "engine.construct_ms", "engine.construct", "ms", 1e6),
        per_call(t, "engine.idle_ms", "engine.idle", "ms", 1e6),
        per_call(t, "runtime.self_us", "runtime.self", "us", 1e3),
        Metric::noted(
            "trace.coverage_frac",
            ratio(l.covered_ns, l.capacity_ns),
            "frac",
            "traced worker time charged to a named layer".into(),
        ),
        Metric::noted(
            "trace.overhead_frac",
            t.overhead_frac,
            "frac",
            "traced / untraced wall time of the same units, minus 1".into(),
        ),
    ]
}

fn run<W: Workload>(args: &Args, make: &dyn Fn() -> W) -> (Report, &'static [&'static str]) {
    if args.trace {
        let t = bench::trace(make, args.seconds);
        let metrics = layer_metrics(&t);
        let mut report = t.report;
        report.metrics = metrics;
        (report, &PER_LAYER)
    } else {
        (
            bench::measure(&args.workload, make, args.seed, args.seconds),
            &END_TO_END,
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--pin]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seed = args.seed;
    let (report, listed) = match args.workload.as_str() {
        "dvfs_sann" => run(&args, &|| {
            dvfs::Dvfs::new(dvfs::Arms::WithSann, seed, workers)
        }),
        "dvfs_linopt" => run(&args, &|| {
            dvfs::Dvfs::new(dvfs::Arms::WithoutSann, seed, workers)
        }),
        "fleet_va" => run(&args, &|| fleet::FleetVa::new(seed, workers)),
        _ => run(&args, &|| online::OnlineSlo::new(seed, workers)),
    };

    println!(
        "perfbench {} seed={} seconds={} trace={} workers={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &report.notes {
        println!("  {n}");
    }
    for m in &report.metrics {
        println!(
            "  {:<26} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    if args.pin {
        print!("{}", check::render(&args.workload, &report.model));
    }

    let mut correct = report.correct();
    let mut fields = Vec::new();
    for name in listed {
        let Some(m) = report.metrics.iter().find(|m| m.name == *name) else {
            correct = false;
            continue;
        };
        correct &= m.value.is_finite();
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
