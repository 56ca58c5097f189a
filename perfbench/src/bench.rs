//! The closed-loop harness every workload shares.
//!
//! A workload is a pool of *units* (one runner call each) made from the
//! seed. The harness sets the workload up several times, each time
//! finishing with one untimed warm-up unit, then runs units one after
//! another, cycling through the pool, until the measuring time is up
//! and at least one whole pass is done. The model metrics come from the
//! first pass, so they depend on the seed alone; every later unit must
//! reproduce its first-pass outputs bit for bit.

use crate::check;
use crate::stats;
use crate::trace::Layers;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed beside it in the table (may be empty).
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn noted(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        Self {
            name,
            value,
            unit,
            note,
        }
    }
}

/// Simulated statistics over one pass of the pool.
#[derive(Debug, Default)]
pub struct Model {
    /// Model metrics (deterministic for a seed).
    pub metrics: Vec<Metric>,
    /// Pass-level invariant failures.
    pub failures: Vec<String>,
}

/// What a traced unit returns besides its layer timings.
#[derive(Debug, Default)]
pub struct Traced {
    /// Fingerprint of the simulated outputs, when the traced path runs
    /// the same simulation as the untraced one.
    pub fingerprint: Option<Vec<u64>>,
    /// Invariant failures.
    pub violations: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Outputs of one unit.
    type Out;
    /// Units in one pass over the input pool.
    fn pool_units(&self) -> usize;
    /// Trials per unit (the failure-accounting granularity).
    fn unit_trials(&self) -> usize;
    /// Runs unit `unit` untraced.
    fn run(&self, unit: usize) -> Self::Out;
    /// Host milliseconds per trial of a unit that took `wall`.
    fn trial_ms(&self, out: &Self::Out, wall: Duration) -> Vec<f64>;
    /// Simulated chip-milliseconds the unit covered.
    fn sim_ms(&self, out: &Self::Out) -> f64;
    /// Bit patterns of every simulated statistic of the unit.
    fn fingerprint(&self, out: &Self::Out) -> Vec<u64>;
    /// Invariants that hold for any seed.
    fn check(&self, out: &Self::Out) -> Vec<String>;
    /// Model metrics and pass-level invariants over the first pass.
    fn model(&self, pass: &[Self::Out]) -> Model;
    /// Times die manufacture and machine construction on the pool's
    /// seeds, outside any timed unit.
    fn prepare_trace(&self, layers: &mut Layers);
    /// The untraced unit the traced one is compared against; returns
    /// its fingerprint.
    fn run_reference(&self, unit: usize) -> Vec<u64> {
        self.fingerprint(&self.run(unit))
    }
    /// Runs unit `unit` traced, charging host time to `layers`.
    fn run_traced(&self, unit: usize, layers: &mut Layers) -> Traced;
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// Trials attempted.
    pub attempted: usize,
    /// Trials that panicked or failed an output check.
    pub failed: usize,
    /// Messages explaining failures.
    pub failures: Vec<String>,
    /// Free-form lines printed before the metric table.
    pub notes: Vec<String>,
    /// The model metrics (also in `metrics`), as `--pin` prints them.
    pub model: Vec<Metric>,
}

impl Report {
    fn fail(&mut self, trials: usize, why: String) {
        self.failed += trials;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Host time of the set-ups, in two clocks.
struct SetupTimes {
    /// Wall seconds of each set-up.
    wall_s: Vec<f64>,
    /// Nominal CPU seconds of each set-up (see [`stats::nominal_s`]).
    nominal_s: Vec<f64>,
}

/// Sets up `W` [`SETUP_REPEATS`] times, each with one warm-up unit
/// (checked like any other) and with the reference kernel timed before
/// and after it; returns the last set-up, the set-up times, and the
/// warm-up unit's fingerprint.
fn set_up<W: Workload>(
    make: &dyn Fn() -> W,
    report: &mut Report,
) -> (W, SetupTimes, Option<Vec<u64>>) {
    let mut times = SetupTimes {
        wall_s: Vec::new(),
        nominal_s: Vec::new(),
    };
    let mut warm_fp: Option<Vec<u64>> = None;
    let mut last = None;
    let mut ref_before = stats::reference_cpu_s();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let cpu = stats::process_cpu_s();
        let w = make();
        let warm = guarded(|| w.run(0));
        times.wall_s.push(t.elapsed().as_secs_f64());
        let cpu = stats::process_cpu_s() - cpu;
        let ref_after = stats::reference_cpu_s();
        times
            .nominal_s
            .push(stats::nominal_s(cpu, ref_before, ref_after));
        ref_before = ref_after;
        let trials = w.unit_trials();
        report.attempted += trials;
        match warm {
            Ok(out) => {
                let mut bad = w.check(&out);
                let fp = w.fingerprint(&out);
                if warm_fp.as_ref().is_some_and(|prev| *prev != fp) {
                    bad.push("warm-up unit differs between set-ups".into());
                }
                if !bad.is_empty() {
                    report.fail(trials, bad.join("; "));
                }
                warm_fp = Some(fp);
            }
            Err(e) => report.fail(trials, format!("warm-up unit panicked: {e}")),
        }
        last = Some(w);
    }
    (last.expect("at least one set-up"), times, warm_fp)
}

/// Host CPU time of the measured units in nominal seconds. The run is
/// cut into segments of at least [`SEGMENT_S`] wall seconds; the
/// reference kernel is timed at every segment boundary, and each
/// segment's CPU time is converted with the readings on either side.
struct NominalClock {
    ref_before: f64,
    refs: Vec<f64>,
    segment_cpu_s: f64,
    segment_start: Instant,
    nominal_s: f64,
}

/// Shortest segment of [`NominalClock`]: one reference-kernel call per
/// half second costs about 3% of the run.
const SEGMENT_S: f64 = 0.5;

impl NominalClock {
    fn start() -> Self {
        let r = stats::reference_cpu_s();
        Self {
            ref_before: r,
            refs: vec![r],
            segment_cpu_s: 0.0,
            segment_start: Instant::now(),
            nominal_s: 0.0,
        }
    }

    /// Adds a unit's CPU seconds; closes the segment once it is long
    /// enough.
    fn add(&mut self, cpu_s: f64) {
        self.segment_cpu_s += cpu_s;
        if self.segment_start.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.segment_cpu_s == 0.0 {
            return;
        }
        let r = stats::reference_cpu_s();
        self.nominal_s += stats::nominal_s(self.segment_cpu_s, self.ref_before, r);
        self.refs.push(r);
        self.ref_before = r;
        self.segment_cpu_s = 0.0;
        self.segment_start = Instant::now();
    }

    /// Closes the last segment; returns the nominal seconds and every
    /// reference-kernel reading.
    fn finish(mut self) -> (f64, Vec<f64>) {
        self.close();
        (self.nominal_s, self.refs)
    }
}

/// The untraced run: end-to-end host metrics plus the model metrics.
pub fn measure<W: Workload>(name: &str, make: &dyn Fn() -> W, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (w, setup, warm_fp) = set_up(make, &mut report);
    let pool = w.pool_units();
    let trials = w.unit_trials();
    // Each unit's first outputs, and whether they passed their checks.
    let mut first: Vec<Option<(W::Out, bool)>> = (0..pool).map(|_| None).collect();
    let mut reference: Vec<Option<Vec<u64>>> = vec![None; pool];
    reference[0] = warm_fp;
    let (mut sim_ms, mut host_s, mut cpu_s) = (0.0f64, 0.0f64, 0.0f64);
    let mut trial_ms: Vec<f64> = Vec::new();

    let mut clock = NominalClock::start();
    let start = Instant::now();
    let mut i = 0usize;
    while i < pool || start.elapsed().as_secs_f64() < seconds {
        let u = i % pool;
        i += 1;
        report.attempted += trials;
        let t = Instant::now();
        let cpu = stats::process_cpu_s();
        let out = match guarded(|| w.run(u)) {
            Ok(out) => out,
            Err(e) => {
                report.fail(trials, format!("unit {u} panicked: {e}"));
                continue;
            }
        };
        let wall = t.elapsed();
        let cpu = stats::process_cpu_s() - cpu;
        clock.add(cpu);
        sim_ms += w.sim_ms(&out);
        host_s += wall.as_secs_f64();
        cpu_s += cpu;
        trial_ms.extend(w.trial_ms(&out, wall));
        let mut bad = w.check(&out);
        let fp = w.fingerprint(&out);
        match &reference[u] {
            Some(r) if *r != fp => {
                bad.push(format!("unit {u} did not repeat its outputs bit for bit"))
            }
            Some(_) => {}
            None => reference[u] = Some(fp),
        }
        let ok = bad.is_empty();
        if !ok {
            report.fail(trials, bad.join("; "));
        }
        if first[u].is_none() {
            first[u] = Some((out, ok));
        }
    }

    let (nominal_s, refs) = clock.finish();

    // A pass-level failure fails every first-pass trial not failed yet.
    let passed = first.iter().flatten().filter(|(_, ok)| *ok).count() * trials;
    let pass: Vec<W::Out> = first.into_iter().flatten().map(|(out, _)| out).collect();
    let model = if pass.len() == pool {
        w.model(&pass)
    } else {
        Model {
            failures: vec!["first pass incomplete".into()],
            ..Model::default()
        }
    };
    let mut pass_failures = model.failures.clone();
    if seed == check::DEFAULT_SEED {
        pass_failures.extend(check::compare_expected(name, &model.metrics));
    }
    if !pass_failures.is_empty() {
        report.fail(passed, pass_failures.join("; "));
    }

    let tail = stats::tail(&trial_ms);
    report.metrics.push(Metric::noted(
        "setup_s",
        stats::median(&setup.nominal_s),
        "s",
        format!("nominal CPU s, median of {SETUP_REPEATS} set-ups, each with one warm-up unit"),
    ));
    report.metrics.push(Metric::noted(
        "setup_wall_s",
        stats::median(&setup.wall_s),
        "s",
        format!("wall s, median of {SETUP_REPEATS} set-ups"),
    ));
    report.metrics.push(Metric::noted(
        "sim_ms_per_nominal_s",
        sim_ms / nominal_s,
        "ms/s",
        format!("{i} units, {nominal_s:.1} nominal CPU s"),
    ));
    report.metrics.push(Metric::noted(
        "sim_ms_per_s",
        sim_ms / host_s,
        "ms/s",
        format!("{i} units, {host_s:.1} wall s"),
    ));
    report.metrics.push(Metric::noted(
        "sim_ms_per_cpu_s",
        sim_ms / cpu_s,
        "ms/s",
        format!("{i} units, {cpu_s:.1} CPU s over all threads"),
    ));
    report.metrics.push(Metric::noted(
        "ref_kernel_ms",
        stats::median(&refs) * 1e3,
        "ms",
        format!(
            "CPU ms per reference-kernel call, median of {} (nominal {} ms)",
            refs.len(),
            stats::REF_NOMINAL_S * 1e3
        ),
    ));
    report.metrics.push(Metric::noted(
        "trial_ms_p50",
        stats::median(&trial_ms),
        "ms",
        format!("n={}", trial_ms.len()),
    ));
    match tail {
        Some(t) => report.metrics.push(Metric::noted(
            "trial_ms_tail",
            t.value,
            "ms",
            format!("p{} of n={}", t.percentile, t.samples),
        )),
        None => report.notes.push(format!(
            "trial_ms_tail: n/a, {} trials leave fewer than {} beyond the median",
            trial_ms.len(),
            stats::TAIL_MIN_BEYOND
        )),
    }
    report.metrics.push(Metric::noted(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
        "VmHWM of this process".into(),
    ));
    report.metrics.push(Metric::noted(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
        format!("{} of {} trials", report.failed, report.attempted),
    ));
    report.model = model.metrics.clone();
    report.metrics.extend(model.metrics);
    report
}

/// What the traced run measured.
#[derive(Debug)]
pub struct TraceRun {
    /// Output-check accounting (no metrics yet).
    pub report: Report,
    /// Layer timings and counts over every traced unit.
    pub layers: Layers,
    /// Traced over untraced wall time of the same units, minus one.
    pub overhead_frac: f64,
    /// Whole passes over the pool the counts cover.
    pub passes: usize,
}

/// The traced run: per-layer metrics. Alternates an untraced and a
/// traced copy of every unit, whole passes at a time, until the
/// measuring time is up.
pub fn trace<W: Workload>(make: &dyn Fn() -> W, seconds: f64) -> TraceRun {
    let mut report = Report::default();
    let (w, _, _) = set_up(make, &mut report);
    let mut layers = Layers::default();
    w.prepare_trace(&mut layers);
    let pool = w.pool_units();
    let trials = w.unit_trials();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for u in 0..pool {
            report.attempted += trials;
            let t = Instant::now();
            let reference = guarded(|| w.run_reference(u));
            plain += t.elapsed();
            let t = Instant::now();
            let out = guarded(|| w.run_traced(u, &mut layers));
            traced += t.elapsed();
            let mut bad = Vec::new();
            match (&reference, &out) {
                (Err(e), _) | (_, Err(e)) => bad.push(format!("unit {u} panicked: {e}")),
                (Ok(r), Ok(o)) => {
                    bad.extend(o.violations.iter().cloned());
                    if o.fingerprint.as_ref().is_some_and(|f| f != r) {
                        bad.push(format!("traced unit {u} differs from the untraced run"));
                    }
                }
            }
            if !bad.is_empty() {
                report.fail(trials, bad.join("; "));
            }
        }
        passes += 1;
    }
    let overhead = traced.as_secs_f64() / plain.as_secs_f64() - 1.0;
    report.notes.push(format!(
        "{passes} traced pass(es) of {pool} units: traced {:.2} s, untraced {:.2} s",
        traced.as_secs_f64(),
        plain.as_secs_f64()
    ));
    TraceRun {
        report,
        layers,
        overhead_frac: overhead,
        passes,
    }
}
