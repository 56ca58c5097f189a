//! Online serving experiments (beyond the paper's batch protocol):
//! the arrival-rate sweep behind the `online` bench bin.
//!
//! The paper's evaluation fixes the thread set per trial; this
//! experiment serves an open Poisson job stream through the same
//! control plane and asks the production question the batch figures
//! cannot: *how much load can each power manager sustain under the
//! chip budget, and at what latency?* LinOpt's higher
//! throughput-per-watt should translate directly into more completed
//! jobs per second than Foxton\* once the chip saturates.

use super::{Scale, Series, ServingSite};
use crate::engine::{mean_metric, OnlineArm, OnlineTrialSpec, SeedPlan, TrialRunner};
use crate::manager::{ManagerSpec, PowerBudget};
use crate::online::{ArrivalConfig, OnlineConfig, ServicePolicy};
use crate::runtime::RuntimeConfig;
use crate::sched::SchedulerSpec;
use cmpsim::Mix;

/// Arrival rates swept (jobs/s): under-load, near-capacity, and two
/// overload points for the budget-constrained 20-core chip.
pub const ARRIVAL_RATES_PER_S: [f64; 4] = [15.0, 45.0, 90.0, 180.0];

/// Mean per-job instruction budget (±25% jitter): tens of milliseconds
/// of service on one budget-throttled core, i.e. several DVFS
/// intervals of residency. That span is what gives allocation quality
/// room to matter — with very short jobs the thread set churns faster
/// than any manager's decisions can pay off, and every policy
/// degenerates to the same throughput.
pub const MEAN_JOB_INSTRUCTIONS: f64 = 200.0e6;

/// The power managers compared, all under `VarF&AppIPC` scheduling:
/// the round-robin baseline, the paper's LinOpt, and chip-wide DVFS.
pub const MANAGERS: [ManagerSpec; 3] = [
    ManagerSpec::FoxtonStar,
    ManagerSpec::LinOpt,
    ManagerSpec::ChipWide,
];

/// Results of the arrival-rate sweep: one series per manager, indexed
/// by arrival rate.
#[derive(Debug, Clone)]
pub struct ArrivalSweep {
    /// Completed-job throughput (jobs/s).
    pub throughput_jobs_per_s: Vec<Series>,
    /// p95 arrival-to-completion latency (ms; NaN when nothing
    /// completed).
    pub p95_latency_ms: Vec<Series>,
    /// Time-averaged fraction of busy cores.
    pub utilization: Vec<Series>,
    /// Average chip power (W) against the shared budget.
    pub avg_power_w: Vec<Series>,
    /// Mean jobs per trial excluded from the latency summary
    /// ([`crate::online::LatencyStats::dropped`]): one per job shed by
    /// deadline admission. Identically zero under this sweep's default
    /// accept-everything policy — the column exists so the CSV schema
    /// matches the SLO sweep's and a nonzero value is immediately
    /// visible if the policy changes.
    pub dropped_jobs: Vec<Series>,
}

/// The sweep's chip budget: 40 W, below even the paper's Low Power
/// environment. A saturated 20-core chip draws well past this
/// unmanaged, so the budget binds throughout the ramp and the
/// managers' allocation quality — not raw core speed — decides the
/// serving capacity.
pub fn serving_budget() -> PowerBudget {
    PowerBudget {
        chip_w: 40.0,
        per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
    }
}

/// The serving configuration one sweep point runs: `scale.duration_ms`
/// horizon, the paper's 10 ms DVFS / 100 ms OS cadence, a 0.1 ms
/// migration penalty, and a full chip at t = 0 (one initial job per
/// core, so the sweep measures steady-state serving rather than the
/// cold-start ramp, during which the budget barely binds).
pub fn sweep_config(scale: &Scale, rate_per_s: f64) -> OnlineConfig {
    OnlineConfig {
        runtime: RuntimeConfig {
            duration_ms: scale.duration_ms,
            os_interval_ms: scale.duration_ms.min(100.0),
            ..RuntimeConfig::paper_default()
        },
        arrivals: ArrivalConfig::poisson(rate_per_s, MEAN_JOB_INSTRUCTIONS),
        initial_jobs: 20,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    }
}

/// Sweeps arrival rate × power manager under the tight
/// [`serving_budget`] and returns the per-manager serving curves.
///
/// Each (rate, trial) pair replays the identical die and job stream
/// across all managers (salted arms), so the curves differ only by
/// policy.
pub fn arrival_sweep(scale: &Scale, seed: u64) -> ArrivalSweep {
    let site = ServingSite::at_grid(scale.grid);
    let budget = serving_budget();
    let runner = TrialRunner::new();

    // per_rate[rate][metric][manager] = mean over trials.
    let per_rate: Vec<Vec<Vec<f64>>> = ARRIVAL_RATES_PER_S
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let spec = OnlineTrialSpec {
                fault_plan: cmpsim::FaultPlan::none(),
                ctx: site.ctx(),
                pool: site.pool(),
                mix: Mix::Balanced,
                trials: scale.trials,
                seed,
                plan: SeedPlan {
                    mul: 1_000_003,
                    offset: 90_000 + (ri * 1000) as u64,
                    stride: 1,
                },
                arms: MANAGERS
                    .iter()
                    .map(|&manager| OnlineArm {
                        label: manager.name().to_string(),
                        policy: SchedulerSpec::VarFAppIpc,
                        manager,
                        budget,
                        config: sweep_config(scale, rate),
                        rng_salt: Some(0x0911),
                    })
                    .collect(),
            };
            let results = runner.run_online(&spec);
            vec![
                mean_metric(&results, |o| o.jobs_per_s()),
                mean_metric(&results, |o| o.latency.map_or(f64::NAN, |l| l.p95_ms)),
                mean_metric(&results, |o| o.utilization),
                mean_metric(&results, |o| o.chip.avg_power_w),
                mean_metric(&results, |o| o.latency.map_or(0.0, |l| l.dropped as f64)),
            ]
        })
        .collect();

    let series_for = |metric: usize| -> Vec<Series> {
        MANAGERS
            .iter()
            .enumerate()
            .map(|(mi, manager)| {
                Series::new(
                    manager.name(),
                    ARRIVAL_RATES_PER_S.to_vec(),
                    per_rate.iter().map(|m| m[metric][mi]).collect(),
                )
            })
            .collect()
    };

    ArrivalSweep {
        throughput_jobs_per_s: series_for(0),
        p95_latency_ms: series_for(1),
        utilization: series_for(2),
        avg_power_w: series_for(3),
        dropped_jobs: series_for(4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_the_right_shape_and_linopt_beats_foxton_under_overload() {
        // Completed-job counts are quantized at 1 job / trial /
        // horizon, close to the percent-level manager gap — six trials
        // over the full 300 ms horizon give the margin room to resolve
        // (the smoke horizon would see each core finish only ~2 jobs).
        let scale = Scale {
            trials: 6,
            duration_ms: 300.0,
            ..Scale::smoke()
        };
        let sweep = arrival_sweep(&scale, 11);
        assert_eq!(sweep.throughput_jobs_per_s.len(), MANAGERS.len());
        for s in &sweep.throughput_jobs_per_s {
            assert_eq!(s.x.len(), ARRIVAL_RATES_PER_S.len());
        }
        let by_label = |label: &str| -> &Series {
            sweep
                .throughput_jobs_per_s
                .iter()
                .find(|s| s.label == label)
                .expect("manager series present")
        };
        let fox = by_label("Foxton*");
        let lin = by_label("LinOpt");
        // The acceptance criterion: once the chip saturates, LinOpt's
        // better power allocation completes more jobs per second, at
        // both overload points.
        let last = ARRIVAL_RATES_PER_S.len() - 1;
        for at in [last - 1, last] {
            assert!(
                lin.y[at] > fox.y[at],
                "LinOpt {} jobs/s should beat Foxton* {} at rate {}",
                lin.y[at],
                fox.y[at],
                ARRIVAL_RATES_PER_S[at]
            );
        }
        // At overload the chip is service-limited: completed-job
        // throughput saturates far below the offered load.
        assert!(lin.y[last] < ARRIVAL_RATES_PER_S[last]);
    }

    #[test]
    fn power_stays_near_the_budget_when_saturated() {
        let sweep = arrival_sweep(&Scale::smoke(), 12);
        for s in &sweep.avg_power_w {
            let last = *s.y.last().expect("non-empty");
            assert!(
                last <= serving_budget().chip_w * 1.15,
                "{} exceeds the serving budget: {last}",
                s.label
            );
        }
        for s in &sweep.utilization {
            let last = *s.y.last().expect("non-empty");
            assert!(last > 0.8, "{} should saturate: {last}", s.label);
        }
    }
}
