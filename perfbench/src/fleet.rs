//! `fleet_va`: [`run_fleet`] with variation-aware dispatch, LinOpt on
//! every chip, 40 W per chip and ~90% offered load.
//!
//! The traced run drives the fleet's public epoch API on one worker in
//! `run_fleet`'s order — construction, then per epoch the budget
//! re-apportionment, chip summaries, routing, chip epochs and the merge
//! — over an arrival stream the benchmark draws itself, and times each
//! call.

use crate::bench::{Metric, Model, Traced, Workload};
use crate::dvfs::{within_budget, POWER_SLACK};
use crate::online::fnv1a;
use crate::stats::{mean, median};
use crate::trace::{Layers, Span};
use std::time::{Duration, Instant};
use vasched::engine::SeedPlan;
use vasched::experiments::{fleet, ServingSite};
use vasched::fleet::{
    build_fleet_chips, run_fleet, BudgetHierarchy, ChipSummary, DispatchPolicy, FleetJob,
    FleetOutcome, FleetSpec, TierReport,
};
use vasched::online::{generate_arrivals, LatencyStats};
use vastats::SimRng;

/// Salt of the traced run's own arrival stream.
const TRACE_ARRIVAL_SALT: u64 = 0x7E57_A77E_5EED_0001;
/// Chips per fleet whose die and machine construction is replayed.
const REPLAYED_CHIPS: usize = 16;
/// Variation-map grid of every chip's die.
const GRID: usize = 20;
/// Chips per fleet.
const CHIPS: usize = 128;
/// Simulated horizon of one fleet run (ms).
const DURATION_MS: f64 = 500.0;
/// Fleets per pass: enough that the median datacenter tracking error
/// holds within a few percent across seeds.
const UNITS: usize = 12;

/// The fleet workload: its site and pool of fleet seeds.
pub struct FleetVa {
    site: ServingSite,
    seed: u64,
    workers: usize,
}

impl FleetVa {
    /// Builds the site and validates the fleet spec.
    pub fn new(seed: u64, workers: usize) -> Self {
        let w = Self {
            site: ServingSite::at_grid(GRID),
            seed,
            workers,
        };
        w.spec(0)
            .config
            .validate()
            .expect("fleet configuration is valid");
        w
    }

    fn spec(&self, unit: usize) -> FleetSpec<'_> {
        let seed = SeedPlan {
            mul: 1_000_037,
            offset: 128_000,
            stride: 1,
        }
        .derive(self.seed, unit);
        fleet::fleet_spec(
            &self.site,
            CHIPS,
            DispatchPolicy::VariationAware,
            fleet::fleet_config(DURATION_MS, CHIPS, fleet::DEFAULT_BUDGET_PER_CHIP_W),
            seed,
        )
    }
}

fn tier_bits(t: &TierReport, out: &mut Vec<u64>) {
    out.extend([t.target_w, t.mean_power_w, t.tracking_error_w].map(f64::to_bits));
}

/// Invariants of a fleet run's totals.
fn check_totals(
    arrived: usize,
    completed: usize,
    shed: usize,
    p99_ms: f64,
    dc: &TierReport,
) -> Vec<String> {
    let mut bad = Vec::new();
    if completed + shed > arrived {
        bad.push(format!(
            "{completed} completed + {shed} shed > {arrived} arrived"
        ));
    }
    if ![p99_ms, dc.mean_power_w, dc.tracking_error_w]
        .iter()
        .all(|v| v.is_finite())
    {
        bad.push("non-finite fleet output".into());
    }
    if !within_budget(dc.mean_power_w, dc.target_w) {
        bad.push(format!(
            "datacenter power {:.1} W over {POWER_SLACK} x {:.1} W",
            dc.mean_power_w, dc.target_w
        ));
    }
    bad
}

impl Workload for FleetVa {
    type Out = FleetOutcome;

    fn pool_units(&self) -> usize {
        UNITS
    }

    fn unit_trials(&self) -> usize {
        1
    }

    fn run(&self, unit: usize) -> Self::Out {
        run_fleet(&self.spec(unit), self.workers).expect("fleet spec is valid")
    }

    fn trial_ms(&self, _out: &Self::Out, wall: Duration) -> Vec<f64> {
        vec![wall.as_secs_f64() * 1e3]
    }

    fn sim_ms(&self, out: &Self::Out) -> f64 {
        out.chips as f64 * out.duration_ms
    }

    fn fingerprint(&self, out: &Self::Out) -> Vec<u64> {
        let mut bits: Vec<u64> = [out.arrived, out.completed, out.shed, out.migrations]
            .map(|n| n as u64)
            .to_vec();
        if let Some(l) = out.latency {
            bits.extend([l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms].map(f64::to_bits));
        }
        tier_bits(&out.datacenter, &mut bits);
        for r in &out.rack_reports {
            tier_bits(r, &mut bits);
        }
        bits.push(fnv1a(out.trace.as_bytes()));
        bits
    }

    fn check(&self, out: &Self::Out) -> Vec<String> {
        let p99 = out.latency.map_or(f64::NAN, |l| l.p99_ms);
        check_totals(out.arrived, out.completed, out.shed, p99, &out.datacenter)
    }

    fn model(&self, pass: &[Self::Out]) -> Model {
        let all = |f: &dyn Fn(&FleetOutcome) -> f64| pass.iter().map(f).collect::<Vec<_>>();
        let of = |f: &dyn Fn(&FleetOutcome) -> f64| mean(&all(f));
        let arrived: usize = pass.iter().map(|o| o.arrived).sum();
        let shed: usize = pass.iter().map(|o| o.shed).sum();
        let n = pass.len();
        Model {
            metrics: vec![
                Metric::noted(
                    "budget_err_frac",
                    median(&all(&|o| {
                        o.datacenter.tracking_error_w / o.datacenter.target_w
                    })),
                    "frac",
                    format!(
                        "datacenter tier, median over {n} fleets of mean |P - budget| / budget"
                    ),
                ),
                Metric::noted(
                    "sim_jobs_per_s",
                    of(&|o| o.jobs_per_s()),
                    "jobs/s",
                    format!("whole fleet of {} chips, mean", CHIPS),
                ),
                Metric::noted(
                    "sim_p99_ms",
                    of(&|o| o.latency.map_or(f64::NAN, |l| l.p99_ms)),
                    "ms",
                    "mean per-fleet p99 arrival to completion".into(),
                ),
                Metric::noted(
                    "shed_frac",
                    shed as f64 / arrived as f64,
                    "frac",
                    format!("{shed} of {arrived} arrivals shed at routing"),
                ),
            ],
            failures: Vec::new(),
        }
    }

    fn prepare_trace(&self, layers: &mut Layers) {
        let ctx = self.site.ctx();
        for unit in 0..UNITS {
            let spec = self.spec(unit);
            for chip in 0..REPLAYED_CHIPS.min(CHIPS) {
                let mut rng = SimRng::seed_from(spec.plan.chip_seed(spec.seed, 0, chip));
                let t = Instant::now();
                let die = std::hint::black_box(ctx.make_die(&mut rng));
                let built = Instant::now();
                std::hint::black_box(ctx.make_machine(&die));
                layers.add_call("varius.die", built - t);
                layers.add_call("cmpsim.machine_new", built.elapsed());
            }
        }
    }

    fn run_reference(&self, unit: usize) -> Vec<u64> {
        let out = run_fleet(&self.spec(unit), 1).expect("fleet spec is valid");
        self.fingerprint(&out)
    }

    fn run_traced(&self, unit: usize, layers: &mut Layers) -> Traced {
        let spec = self.spec(unit);
        let cfg = &spec.config;
        let start = Instant::now();
        let mut covered = Duration::ZERO;
        let mut timed = |layers: &mut Layers, name: &'static str, t: Instant| {
            let d = t.elapsed();
            layers.add_call(name, d);
            covered += d;
        };

        let t = Instant::now();
        let mut chips = build_fleet_chips(&spec, 1).expect("fleet spec is valid");
        let mut hierarchy = BudgetHierarchy::new(
            cfg.datacenter_budget_w,
            cfg.budget_gain,
            spec.chips,
            spec.chips_per_rack,
        );
        timed(layers, "fleet.construct", t);

        let t = Instant::now();
        let mut rng = SimRng::seed_from(spec.plan.derive(spec.seed, 0) ^ TRACE_ARRIVAL_SALT);
        let jobs = generate_arrivals(
            spec.site.pool(),
            spec.mix,
            &cfg.arrivals,
            cfg.runtime.duration_ms,
            &mut rng,
        );
        timed(layers, "online.arrivals", t);

        let tick_ms = cfg.runtime.tick_ms;
        let total_ticks = (cfg.runtime.duration_ms / tick_ms).round() as usize;
        let epoch_ticks = ((cfg.epoch_ms / tick_ms).round() as usize).max(1);
        let arrival_ticks: Vec<usize> = jobs
            .iter()
            .map(|j| (j.arrival_ms / tick_ms).ceil() as usize)
            .collect();
        let mut dispatcher = spec.dispatch.build();
        let mut epoch_powers = vec![0.0f64; spec.chips];
        let (mut next_job, mut shed, mut completed) = (0usize, 0usize, 0usize);
        let epochs = total_ticks.div_ceil(epoch_ticks);
        for e in 0..epochs {
            let (from, to) = (e * epoch_ticks, ((e + 1) * epoch_ticks).min(total_ticks));
            if e > 0 {
                let t = Instant::now();
                hierarchy.reapportion(&epoch_powers);
                for (c, chip) in chips.iter_mut().enumerate() {
                    chip.set_budget_w(hierarchy.chip_budget_w(c));
                }
                timed(layers, "fleet.budget", t);
            }
            let t = Instant::now();
            let mut summaries: Vec<ChipSummary> = chips
                .iter()
                .enumerate()
                .map(|(c, chip)| ChipSummary {
                    chip: c,
                    rack: hierarchy.rack_of(c),
                    freq_profile_hz: chip.effective_freq_profile(),
                    resident: chip.resident_len(),
                    queued: chip.queue_len(),
                    alive_cores: chip.alive_cores(),
                    budget_w: chip.budget_w(),
                    power_w: epoch_powers[c],
                })
                .collect();
            timed(layers, "fleet.summary", t);
            while next_job < jobs.len() && arrival_ticks[next_job] < to {
                let job = &jobs[next_job];
                let t = Instant::now();
                let target = dispatcher.route(job, &summaries);
                timed(layers, "fleet.route", t);
                if summaries[target].queued >= cfg.max_queue_per_chip {
                    shed += 1;
                } else {
                    chips[target].enqueue(FleetJob {
                        id: next_job,
                        arrival_ms: job.arrival_ms,
                        arrival_tick: arrival_ticks[next_job],
                        spec: job.spec.clone(),
                        instructions: job.instructions,
                        phase_offset_ms: job.phase_offset_ms,
                    });
                    summaries[target].queued += 1;
                }
                next_job += 1;
            }
            for chip in chips.iter_mut() {
                let t = Instant::now();
                chip.run_epoch(from, to);
                timed(layers, "fleet.chip_epoch", t);
            }
            let t = Instant::now();
            for (c, chip) in chips.iter_mut().enumerate() {
                let s = chip.end_epoch();
                epoch_powers[c] = s.mean_power_w;
                completed += s.completed;
            }
            timed(layers, "fleet.merge", t);
        }
        let t = Instant::now();
        hierarchy.reapportion(&epoch_powers);
        timed(layers, "fleet.budget", t);
        let latencies: Vec<f64> = chips
            .iter()
            .flat_map(|c| c.latencies_ms().iter().copied())
            .collect();
        let p99 = LatencyStats::of(&latencies).map_or(f64::NAN, |l| l.p99_ms);

        let wall = start.elapsed();
        let own = wall.saturating_sub(covered);
        layers.add(
            "runtime.self",
            Span {
                ns: own.as_nanos() as f64,
                calls: epochs as u64,
            },
        );
        layers.covered_ns += covered.as_nanos() as f64;
        layers.capacity_ns += wall.as_nanos() as f64;
        layers.busy_ns += wall.as_nanos() as f64;
        layers.count("fleet.routed", next_job as f64);
        layers.count("cmpsim.ticks", (spec.chips * total_ticks) as f64);
        Traced {
            fingerprint: None,
            violations: check_totals(
                next_job,
                completed,
                shed,
                p99,
                &hierarchy.datacenter_report(),
            ),
        }
    }
}
