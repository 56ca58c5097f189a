//! `dvfs_sann` and `dvfs_linopt`: one Figure 12 column (20 threads,
//! the 75 W Cost-Performance budget, paper-scale dies and trials) run
//! through [`TrialRunner`], with or without the SAnn arm.

use crate::bench::{Metric, Model, Traced, Workload};
use crate::stats::{mean, median};
use crate::trace::{charge_arm, charge_engine, replay_construction, timeline, ArmTrace, Layers};
use cmpsim::{app_pool, AppSpec, Mix};
use std::time::{Duration, Instant};
use vasched::engine::{SeedPlan, TrialArm, TrialResult, TrialRunner, TrialSpec};
use vasched::experiments::{dvfs, Context, Scale};
use vasched::manager::{ManagerSpec, PowerBudget};
use vasched::runtime::{RuntimeConfig, TrialOutcome};

/// Threads per trial: Figure 12's column.
const THREADS: usize = 20;
/// The arms' shared RNG salt, as in the figure.
const ARM_SALT: u64 = 0x5EED;
/// Average power may exceed the budget by at most this factor.
pub const POWER_SLACK: f64 = 1.15;

/// Whether an average power is within [`POWER_SLACK`] of its budget (a
/// NaN power is not).
pub fn within_budget(power_w: f64, budget_w: f64) -> bool {
    power_w <= POWER_SLACK * budget_w
}

/// Arm 0 is `Random+Foxton*`, the baseline every gain is relative to.
const BASELINE: usize = 0;
/// Arm 2 is `VarF&AppIPC+LinOpt`.
const LINOPT: usize = 2;

/// Which Figure 12 arms a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arms {
    /// All four §7.5 arms; SAnn is the headline.
    WithSann,
    /// The three arms without SAnn; LinOpt is the headline.
    WithoutSann,
}

impl Arms {
    /// Dies per unit and units per pass: 64 SAnn dies keep the
    /// non-binding dies well below half of the pool (see NOTES.md);
    /// without SAnn the pool is the paper's 200 dies.
    fn pool(self) -> (usize, usize) {
        match self {
            Arms::WithSann => (4, 16),
            Arms::WithoutSann => (20, 10),
        }
    }
}

/// A DVFS workload: its context, arms and pool.
pub struct Dvfs {
    ctx: Context,
    pool: Vec<AppSpec>,
    arms: Vec<TrialArm>,
    /// Layer each arm's manager time is charged to.
    layer: Vec<&'static str>,
    sann_evaluations: f64,
    budget: PowerBudget,
    seed: u64,
    trials_per_unit: usize,
    units: usize,
    runner: TrialRunner,
    dvfs_every: usize,
    headline: usize,
}

impl Dvfs {
    /// Builds the context and validates the unit specs.
    pub fn new(which: Arms, seed: u64, workers: usize) -> Self {
        let (trials_per_unit, units) = which.pool();
        let scale = Scale::paper();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let runtime = RuntimeConfig::builder()
            .duration_ms(scale.duration_ms)
            .os_interval_ms(scale.duration_ms.min(100.0))
            .build()
            .expect("figure timeline is valid");
        let budget = PowerBudget::cost_performance(THREADS);
        let mut algos = dvfs::algorithms(&scale);
        if which == Arms::WithoutSann {
            algos.truncate(3);
        }
        let layer = algos
            .iter()
            .map(|(_, _, manager)| match manager {
                ManagerSpec::SAnn { .. } => "manager.sann",
                ManagerSpec::LinOpt => "manager.linopt",
                ManagerSpec::FoxtonStar => "manager.foxton",
                _ => "manager.other",
            })
            .collect();
        let arms = algos
            .iter()
            .map(|&(label, policy, manager)| TrialArm {
                label: label.to_string(),
                policy,
                manager,
                budget,
                runtime,
                rng_salt: Some(ARM_SALT),
            })
            .collect();
        let dvfs_every = (runtime.dvfs_interval_ms / runtime.tick_ms).round() as usize;
        let headline = algos.len() - 1;
        let w = Self {
            ctx,
            pool,
            arms,
            layer,
            sann_evaluations: scale.sann_evaluations as f64,
            budget,
            seed,
            trials_per_unit,
            units,
            runner: TrialRunner::with_workers(workers),
            dvfs_every,
            headline,
        };
        w.spec(0);
        w
    }

    /// Unit `unit` covers pool trials `[unit·T, (unit+1)·T)`: the seed
    /// plan's offset moves with the unit, so a trial's seed depends on
    /// its pool index alone.
    fn plan(&self, unit: usize) -> SeedPlan {
        SeedPlan {
            mul: 1_000_033,
            offset: (THREADS * 1000 + unit * self.trials_per_unit) as u64,
            stride: 1,
        }
    }

    fn spec(&self, unit: usize) -> TrialSpec<'_> {
        TrialSpec::builder(&self.ctx, &self.pool)
            .threads(THREADS)
            .mix(Mix::Balanced)
            .trials(self.trials_per_unit)
            .seed(self.seed)
            .plan(self.plan(unit))
            .arms(self.arms.clone())
            .build()
            .expect("figure spec is valid")
    }
}

fn outcome_bits(o: &TrialOutcome, out: &mut Vec<u64>) {
    out.extend(
        [
            o.mips,
            o.weighted_mips,
            o.avg_power_w,
            o.ed2,
            o.weighted_ed2,
            o.avg_freq_hz,
            o.power_deviation_frac,
        ]
        .map(f64::to_bits),
    );
    out.push(o.manager_runs as u64);
    out.extend(o.per_thread_mips.iter().map(|m| m.to_bits()));
}

fn finite(o: &TrialOutcome) -> bool {
    [
        o.mips,
        o.weighted_mips,
        o.avg_power_w,
        o.ed2,
        o.weighted_ed2,
        o.avg_freq_hz,
        o.power_deviation_frac,
    ]
    .iter()
    .chain(&o.per_thread_mips)
    .all(|v| v.is_finite())
}

impl Workload for Dvfs {
    type Out = Vec<TrialResult>;

    fn pool_units(&self) -> usize {
        self.units
    }

    fn unit_trials(&self) -> usize {
        self.trials_per_unit
    }

    fn run(&self, unit: usize) -> Self::Out {
        self.runner.run(&self.spec(unit))
    }

    fn trial_ms(&self, out: &Self::Out, _wall: Duration) -> Vec<f64> {
        out.iter()
            .map(|r| r.arms.iter().map(|a| a.wall_s).sum::<f64>() * 1e3)
            .collect()
    }

    fn sim_ms(&self, out: &Self::Out) -> f64 {
        out.iter()
            .flat_map(|r| &r.arms)
            .map(|_| self.arms[0].runtime.duration_ms)
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
                if !finite(o) {
                    bad.push(format!(
                        "trial {} {}: non-finite output",
                        r.trial_seed, arm.label
                    ));
                }
                if !within_budget(o.avg_power_w, self.budget.chip_w) {
                    bad.push(format!(
                        "trial {} {}: average power {:.2} W over {POWER_SLACK} x {} W",
                        r.trial_seed, arm.label, o.avg_power_w, self.budget.chip_w
                    ));
                }
            }
        }
        bad
    }

    fn model(&self, pass: &[Self::Out]) -> Model {
        let trials: Vec<&TrialResult> = pass.iter().flatten().collect();
        let mips =
            |arm: usize| -> Vec<f64> { trials.iter().map(|r| r.arms[arm].outcome.mips).collect() };
        let headline = mips(self.headline);
        let baseline = mips(BASELINE);
        let ratios: Vec<f64> = headline.iter().zip(&baseline).map(|(h, b)| h / b).collect();
        let gain_pct = (mean(&ratios) - 1.0) * 100.0;
        let mut failures = Vec::new();
        let (linopt, foxton) = (mean(&mips(LINOPT)), mean(&baseline));
        if linopt < foxton || linopt.is_nan() || foxton.is_nan() {
            failures.push(format!(
                "LinOpt mean MIPS {linopt:.1} below Random+Foxton* {foxton:.1}"
            ));
        }
        // Paper references: Figure 12 at 75 W puts VarF&AppIPC+LinOpt
        // 12% above Random+Foxton*; Figure 11a puts SAnn about 2% above
        // LinOpt.
        let reference_pct = if self.headline == LINOPT {
            12.0
        } else {
            (1.12 * 1.02 - 1.0) * 100.0
        };
        let label = &self.arms[self.headline].label;
        let metrics = vec![
            Metric::noted(
                "sim_mips",
                mean(&headline),
                "MIPS",
                format!("{label}, mean over {} dies", trials.len()),
            ),
            Metric::noted(
                "gain_vs_foxton_pct",
                gain_pct,
                "%",
                format!(
                    "{label} over Random+Foxton*; paper {reference_pct:.1}%, error {:+.1} points \
                     (model unvalidated against hardware; EXPERIMENTS.md documents the ~3x compression)",
                    gain_pct - reference_pct
                ),
            ),
            Metric::noted(
                "budget_err_frac",
                median(&trials
                    .iter()
                    .map(|r| r.arms[self.headline].outcome.power_deviation_frac)
                    .collect::<Vec<_>>()),
                "frac",
                format!("{label}, median over dies of mean |P - budget| / budget (Fig 14)"),
            ),
        ];
        Model { metrics, failures }
    }

    fn prepare_trace(&self, layers: &mut Layers) {
        let trials = self.units * self.trials_per_unit;
        replay_construction(
            &self.ctx,
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
            .run_observed(&spec, |_| ArmTrace::new(self.dvfs_every));
        let end = Instant::now();
        let mut slots = Vec::new();
        let mut out = Vec::new();
        for (r, observers) in results {
            for (ai, (a, o)) in r.arms.iter().zip(&observers).enumerate() {
                let layer = self.layer[ai];
                slots.push(charge_arm(
                    r.trial,
                    ai,
                    a.wall_s,
                    o,
                    layer,
                    "runtime.self",
                    layers,
                ));
                if layer == "manager.sann" {
                    let evals = o.manager_runs as f64 * self.sann_evaluations;
                    layers.count("anneal.evals", evals);
                }
            }
            out.push(r);
        }
        let workers = self.runner.workers();
        let t = timeline(start, end, workers, self.trials_per_unit, &slots);
        charge_engine(&t, layers);
        Traced {
            fingerprint: Some(self.fingerprint(&out)),
            violations: self.check(&out),
        }
    }
}
