//! `online_slo`: one chip under 3x overload through [`OnlineSim`]
//! (via [`TrialRunner::run_online`]), per-event rescheduling against a
//! 10 ms SLO window with EDF deadlines.
//!
//! [`OnlineSim`]: vasched::online::OnlineSim

use crate::bench::{Metric, Model, Traced, Workload};
use crate::dvfs::{within_budget, POWER_SLACK};
use crate::stats::{mean, median};
use crate::trace::{charge_arm, charge_engine, replay_construction, timeline, ArmTrace, Layers};
use cmpsim::Mix;
use std::time::{Duration, Instant};
use vasched::engine::{OnlineArm, OnlineTrialResult, OnlineTrialSpec, SeedPlan, TrialRunner};
use vasched::experiments::{online, slo, Scale, ServingSite};
use vasched::manager::{ManagerSpec, PowerBudget};
use vasched::online::{OnlineOutcome, ServicePolicy};
use vasched::sched::SchedulerSpec;

/// Simulated horizon of one trial (ms).
const DURATION_MS: f64 = 1000.0;
/// The SLO arm's reschedule window (ms).
const WINDOW_MS: f64 = 10.0;
/// The arms' shared RNG salt, as in the SLO experiment.
const ARM_SALT: u64 = 0x510;
/// Arm 1, the SLO arm, is the headline.
const HEADLINE: usize = 1;
/// Variation-map grid of the chip's die.
const GRID: usize = 20;
/// Trials per unit.
const TRIALS_PER_UNIT: usize = 16;
/// Units per pass.
const UNITS: usize = 6;

/// The serving workload: its site, arms and pool.
pub struct OnlineSlo {
    site: ServingSite,
    arms: Vec<OnlineArm>,
    budget: PowerBudget,
    seed: u64,
    runner: TrialRunner,
    dvfs_every: usize,
}

impl OnlineSlo {
    /// Builds the site and validates the unit specs.
    pub fn new(seed: u64, workers: usize) -> Self {
        let site = ServingSite::at_grid(GRID);
        let scale = Scale {
            duration_ms: DURATION_MS,
            grid: GRID,
            ..Scale::smoke()
        };
        let budget = online::serving_budget();
        let arm = |label: &str, service| OnlineArm {
            label: label.to_string(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget,
            config: slo::slo_config(&scale, service),
            rng_salt: Some(ARM_SALT),
        };
        let arms = vec![
            arm("per-event", ServicePolicy::default()),
            arm(
                "SLO window 10 ms",
                ServicePolicy {
                    reschedule_window_ms: WINDOW_MS,
                    deadline_slack: slo::SLO_DEADLINE_SLACK,
                },
            ),
        ];
        let rt = arms[0].config.runtime;
        let w = Self {
            site,
            arms,
            budget,
            seed,
            runner: TrialRunner::with_workers(workers),
            dvfs_every: (rt.dvfs_interval_ms / rt.tick_ms).round() as usize,
        };
        w.spec(0);
        w
    }

    fn plan(&self, unit: usize) -> SeedPlan {
        SeedPlan {
            mul: 1_000_003,
            offset: (95_000 + unit * TRIALS_PER_UNIT) as u64,
            stride: 1,
        }
    }

    fn spec(&self, unit: usize) -> OnlineTrialSpec<'_> {
        OnlineTrialSpec::builder(self.site.ctx(), self.site.pool())
            .mix(Mix::Balanced)
            .trials(TRIALS_PER_UNIT)
            .seed(self.seed)
            .plan(self.plan(unit))
            .arms(self.arms.clone())
            .build()
            .expect("SLO spec is valid")
    }
}

fn outcome_bits(o: &OnlineOutcome, out: &mut Vec<u64>) {
    let c = &o.chip;
    out.extend(
        [
            c.mips,
            c.weighted_mips,
            c.avg_power_w,
            c.avg_freq_hz,
            c.power_deviation_frac,
            o.utilization,
        ]
        .map(f64::to_bits),
    );
    out.extend([o.arrived, o.completed, o.shed, o.migrations, o.queue_peak].map(|n| n as u64));
    for l in [o.latency, o.queue_wait].iter().flatten() {
        out.extend([l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms].map(f64::to_bits));
        out.push(l.count as u64);
    }
    // The event trace pins every arrival, admission, shed, completion
    // and reschedule.
    out.push(fnv1a(o.trace().as_bytes()));
}

/// 64-bit FNV-1a hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Workload for OnlineSlo {
    type Out = Vec<OnlineTrialResult>;

    fn pool_units(&self) -> usize {
        UNITS
    }

    fn unit_trials(&self) -> usize {
        TRIALS_PER_UNIT
    }

    fn run(&self, unit: usize) -> Self::Out {
        self.runner.run_online(&self.spec(unit))
    }

    fn trial_ms(&self, out: &Self::Out, _wall: Duration) -> Vec<f64> {
        out.iter()
            .map(|r| r.arms.iter().map(|a| a.wall_s).sum::<f64>() * 1e3)
            .collect()
    }

    fn sim_ms(&self, out: &Self::Out) -> f64 {
        out.iter()
            .flat_map(|r| &r.arms)
            .map(|a| a.outcome.duration_ms)
            .sum()
    }

    fn fingerprint(&self, out: &Self::Out) -> Vec<u64> {
        let mut bits = Vec::new();
        for r in out {
            bits.push(r.trial_seed);
            for a in &r.arms {
                outcome_bits(&a.outcome, &mut bits);
            }
        }
        bits
    }

    fn check(&self, out: &Self::Out) -> Vec<String> {
        let mut bad = Vec::new();
        for r in out {
            for (arm, a) in self.arms.iter().zip(&r.arms) {
                let o = &a.outcome;
                let c = &o.chip;
                let finite = [
                    c.mips,
                    c.avg_power_w,
                    c.avg_freq_hz,
                    c.power_deviation_frac,
                    o.utilization,
                ]
                .iter()
                .all(|v| v.is_finite())
                    && o.latency.is_some_and(|l| l.p99_ms.is_finite());
                if !finite {
                    bad.push(format!(
                        "trial {} {}: non-finite output",
                        r.trial_seed, arm.label
                    ));
                }
                if !within_budget(c.avg_power_w, self.budget.chip_w) {
                    bad.push(format!(
                        "trial {} {}: average power {:.2} W over {POWER_SLACK} x {} W",
                        r.trial_seed, arm.label, c.avg_power_w, self.budget.chip_w
                    ));
                }
                // Initial residents complete too, so they count as
                // arrivals here.
                let entered = o.arrived + arm.config.initial_jobs;
                if o.completed + o.shed > entered {
                    bad.push(format!(
                        "trial {} {}: {} completed + {} shed > {entered} arrived",
                        r.trial_seed, arm.label, o.completed, o.shed
                    ));
                }
            }
        }
        bad
    }

    fn model(&self, pass: &[Self::Out]) -> Model {
        let head: Vec<&OnlineOutcome> = pass
            .iter()
            .flatten()
            .map(|r| &r.arms[HEADLINE].outcome)
            .collect();
        let all = |f: &dyn Fn(&OnlineOutcome) -> f64| head.iter().map(|o| f(o)).collect::<Vec<_>>();
        let of = |f: &dyn Fn(&OnlineOutcome) -> f64| mean(&all(f));
        let arrived: usize = head.iter().map(|o| o.arrived).sum();
        let shed: usize = head.iter().map(|o| o.shed).sum();
        let label = &self.arms[HEADLINE].label;
        let n = head.len();
        Model {
            metrics: vec![
                Metric::noted(
                    "budget_err_frac",
                    median(&all(&|o| o.chip.power_deviation_frac)),
                    "frac",
                    format!("{label}, median over {n} trials of mean |P - budget| / budget"),
                ),
                Metric::noted(
                    "sim_jobs_per_s",
                    of(&|o| o.jobs_per_s()),
                    "jobs/s",
                    format!("{label}, mean"),
                ),
                Metric::noted(
                    "sim_p99_ms",
                    of(&|o| o.latency.map_or(f64::NAN, |l| l.p99_ms)),
                    "ms",
                    format!("{label}, mean per-trial p99 arrival to completion"),
                ),
                Metric::noted(
                    "shed_frac",
                    shed as f64 / arrived as f64,
                    "frac",
                    format!("{label}, {shed} of {arrived} arrivals"),
                ),
            ],
            failures: Vec::new(),
        }
    }

    fn prepare_trace(&self, layers: &mut Layers) {
        let trials = UNITS * TRIALS_PER_UNIT;
        replay_construction(
            self.site.ctx(),
            &self.runner,
            self.plan(0),
            self.seed,
            trials,
            layers,
        );
    }

    fn run_traced(&self, unit: usize, layers: &mut Layers) -> Traced {
        let spec = self.spec(unit);
        let start = Instant::now();
        let results = self
            .runner
            .run_online_observed(&spec, |_| ArmTrace::new(self.dvfs_every));
        let end = Instant::now();
        let mut slots = Vec::new();
        let mut out = Vec::new();
        for (r, observers) in results {
            for (ai, (a, o)) in r.arms.iter().zip(&observers).enumerate() {
                let layer = "manager.linopt";
                slots.push(charge_arm(
                    r.trial,
                    ai,
                    a.wall_s,
                    o,
                    layer,
                    "online.self",
                    layers,
                ));
                layers.count("online.migrations", a.outcome.migrations as f64);
                layers.count("online.shed", o.shed as f64);
            }
            out.push(r);
        }
        let t = timeline(start, end, self.runner.workers(), TRIALS_PER_UNIT, &slots);
        charge_engine(&t, layers);
        Traced {
            fingerprint: Some(self.fingerprint(&out)),
            violations: self.check(&out),
        }
    }
}
