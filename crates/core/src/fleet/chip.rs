//! One fleet chip: a machine, its control plane, and a windowed
//! serving loop, owned as a value so hundreds can run side by side.
//!
//! [`ChipSim`] is the fleet's unit of parallelism: the shared serving
//! tick (the crate's `serving` module) over a machine and RNG the chip
//! *owns*, taking its jobs from a FIFO the fleet dispatcher fills rather
//! than from a private arrival schedule. With a reschedule window (the
//! fleet default is 20 ms), admissions are placed on the fastest free
//! live core at once and the full reschedule waits for the window
//! boundary: at fleet arrival rates per-event rescheduling is a
//! migration storm.
//!
//! Determinism: a chip's entire stochastic behaviour derives from its
//! own [`vastats::SimRng`], seeded by
//! [`crate::engine::SeedPlan::chip_seed`], and epoch execution touches
//! nothing outside `self` — so chips can run on any worker in any
//! order and the fleet merge (chip index order) is bit-identical to a
//! sequential run.

use crate::experiments::Context;
use crate::manager::{ManagerSpec, PowerBudget};
use crate::runtime::TrialObserver;
use crate::sched::SchedulerSpec;
use crate::serving::{FifoJobs, JobSource, ServingCore};
use cmpsim::{Machine, StepStats};
use vastats::SimRng;

use super::{FleetConfig, FreqProfile};

/// One job routed to a chip: the dispatch-level view of an arrival.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Fleet-wide job id (arrival order).
    pub id: usize,
    /// Arrival time (ms since the start of the run).
    pub arrival_ms: f64,
    /// First tick the job is admissible at (`ceil(arrival_ms / tick)`).
    pub arrival_tick: usize,
    /// The application the job runs.
    pub spec: cmpsim::AppSpec,
    /// Instructions the job must retire to complete.
    pub instructions: f64,
    /// Phase offset the job's thread starts at (ms).
    pub phase_offset_ms: f64,
}

/// Per-epoch chip statistics, drained by the fleet after every epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// Jobs admitted to cores this epoch.
    pub admitted: usize,
    /// Jobs completed this epoch.
    pub completed: usize,
    /// Threads moved by reschedules this epoch.
    pub migrations: usize,
    /// Mean chip power over the epoch's ticks (watts; 0 for an empty
    /// epoch).
    pub mean_power_w: f64,
}

/// Chip power summed per tick, over the whole run and the open epoch.
#[derive(Debug, Default)]
struct PowerMeter {
    sum_w: f64,
    ticks: usize,
    epoch_sum_w: f64,
    epoch_ticks: usize,
}

impl TrialObserver for PowerMeter {
    fn on_step(&mut self, _machine: &Machine, stats: &StepStats) {
        self.sum_w += stats.total_power_w;
        self.epoch_sum_w += stats.total_power_w;
        self.ticks += 1;
        self.epoch_ticks += 1;
    }
}

/// One chip of the fleet, held as a value.
pub struct ChipSim {
    core: ServingCore<Machine, SimRng>,
    jobs: FifoJobs,
    power: PowerMeter,
    /// Admitted/completed/migration totals at the last epoch boundary.
    epoch_mark: EpochStats,
}

impl ChipSim {
    /// Manufactures one chip: die and machine assembled from a
    /// pre-drawn systematic variation field (`sys`) plus this chip's
    /// own `seed` sub-stream, a fresh scheduler/manager pair, and the
    /// fleet timing grid.
    ///
    /// The field comes in from outside so fleet construction can draw
    /// every chip's field in one batched sequential pass (two fields
    /// per FFT on circulant grids) and then assemble chips in
    /// parallel — see `manufacture_chips` in the fleet event loop.
    pub fn new(
        ctx: &Context,
        seed: u64,
        sys: &[f64],
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &FleetConfig,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let die = ctx.generator().die_from_field(sys, &mut rng);
        let machine = ctx.make_machine(&die);
        let rt = &config.runtime;
        // `run_fleet` pre-validates both specs, so failures here are
        // programming errors.
        let core = ServingCore::new(
            machine,
            rng,
            policy.build(rt).expect("valid scheduler spec"),
            manager,
            budget,
            rt,
            config.migration_penalty_ms,
            config.reschedule_window_ms,
        )
        .expect("valid manager spec");
        Self {
            core,
            jobs: FifoJobs::default(),
            power: PowerMeter::default(),
            epoch_mark: EpochStats::default(),
        }
    }

    /// Queues a routed job (admitted once a core frees up at or after
    /// its arrival tick).
    pub fn enqueue(&mut self, job: FleetJob) {
        self.jobs.queue.push_back(job);
    }

    /// Jobs queued and not yet admitted.
    pub fn queue_len(&self) -> usize {
        self.jobs.queue.len()
    }

    /// Threads currently resident.
    pub fn resident_len(&self) -> usize {
        self.jobs.resident.len()
    }

    /// Live cores.
    pub fn alive_cores(&self) -> usize {
        self.core.machine().alive_core_count()
    }

    /// The chip's capability fingerprint as the dispatcher sees it:
    /// the *effective* frequency every live core currently sustains
    /// (its DVFS level under the chip's power allocation, reduced by
    /// any cap), sorted descending. Under a tight budget this is where
    /// variation shows: a low-leakage die runs its cores at higher
    /// levels than a leaky one at the same watts.
    pub fn effective_freq_profile(&self) -> FreqProfile {
        let machine = self.core.machine();
        let mut v: Vec<f64> = (0..machine.core_count())
            .filter(|&c| machine.core_alive(c))
            .map(|c| machine.effective_freq(c))
            .collect();
        v.sort_by(|a, b| b.total_cmp(a));
        v.into()
    }

    /// The chip's current power allocation (watts).
    pub fn budget_w(&self) -> f64 {
        self.core.budget.chip_w
    }

    /// Points the chip's manager at a new power allocation — the
    /// hierarchy's downlink. Takes effect at the next manager
    /// invocation.
    pub fn set_budget_w(&mut self, chip_w: f64) {
        self.core.budget.chip_w = chip_w;
    }

    /// Jobs completed over the whole run.
    pub fn completed(&self) -> usize {
        self.core.counters.completed
    }

    /// Arrival-to-completion latencies of every completed job (ms), in
    /// completion order.
    pub fn latencies_ms(&self) -> &[f64] {
        &self.jobs.latencies_ms
    }

    /// Mean chip power over the whole run (watts).
    pub fn mean_power_w(&self) -> f64 {
        self.power.sum_w / self.power.ticks.max(1) as f64
    }

    /// Time-averaged fraction of cores running a thread.
    pub fn utilization(&self) -> f64 {
        self.core.counters.util_sum / self.power.ticks.max(1) as f64
    }

    /// Drains and resets the epoch accumulators.
    pub fn end_epoch(&mut self) -> EpochStats {
        let totals = EpochStats {
            // Every admitted job has either completed or is resident.
            admitted: self.core.counters.completed + self.jobs.resident.len(),
            completed: self.core.counters.completed,
            migrations: self.core.counters.migrations_total,
            mean_power_w: 0.0,
        };
        let stats = EpochStats {
            admitted: totals.admitted - self.epoch_mark.admitted,
            completed: totals.completed - self.epoch_mark.completed,
            migrations: totals.migrations - self.epoch_mark.migrations,
            mean_power_w: self.power.epoch_sum_w / self.power.epoch_ticks.max(1) as f64,
        };
        self.epoch_mark = totals;
        self.power.epoch_sum_w = 0.0;
        self.power.epoch_ticks = 0;
        stats
    }

    /// Runs ticks `[start, end)` of the fleet timeline. All state the
    /// loop touches lives in `self`, so epochs of different chips can
    /// execute on different workers with a bit-identical result.
    pub fn run_epoch(&mut self, start: usize, end: usize) {
        for tick in start..end {
            self.core
                .step(tick, JobSource::Fifo(&mut self.jobs), &mut self.power);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ServingSite;
    use crate::runtime::RuntimeConfig;

    fn config() -> FleetConfig {
        FleetConfig {
            runtime: RuntimeConfig {
                duration_ms: 100.0,
                os_interval_ms: 50.0,
                ..RuntimeConfig::paper_default()
            },
            ..FleetConfig::serving_default()
        }
    }

    /// Draws a systematic field the way fleet construction would —
    /// from a dedicated stream separate from the chip's own seed.
    fn sys_field(site: &ServingSite, seed: u64) -> Vec<f64> {
        site.ctx()
            .generator()
            .field()
            .sample(&mut SimRng::seed_from(seed ^ 0xF1E1D))
    }

    fn job(id: usize, spec: cmpsim::AppSpec, arrival_tick: usize) -> FleetJob {
        FleetJob {
            id,
            arrival_ms: arrival_tick as f64,
            arrival_tick,
            spec,
            instructions: 3.0e6,
            phase_offset_ms: 0.0,
        }
    }

    #[test]
    fn chip_serves_queued_jobs_to_completion() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            7,
            &sys_field(&site, 7),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        for i in 0..6 {
            chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), i));
        }
        chip.run_epoch(0, 100);
        assert_eq!(chip.queue_len(), 0, "all jobs admitted");
        assert!(chip.completed() > 0, "short jobs must complete");
        assert_eq!(chip.latencies_ms().len(), chip.completed());
        for &l in chip.latencies_ms() {
            assert!(l > 0.0 && l < 100.0);
        }
        assert!(chip.mean_power_w() > 0.0);
        assert!(chip.utilization() > 0.0 && chip.utilization() <= 1.0);
    }

    #[test]
    fn epoch_stats_drain_and_reset() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            9,
            &sys_field(&site, 9),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        for i in 0..4 {
            chip.enqueue(job(i, site.pool()[i].clone(), 0));
        }
        chip.run_epoch(0, 20);
        let first = chip.end_epoch();
        assert_eq!(first.admitted, 4);
        assert!(first.mean_power_w > 0.0);
        let empty = chip.end_epoch();
        assert_eq!(empty, EpochStats::default());
    }

    #[test]
    fn same_seed_same_epoch_split_is_bit_identical() {
        // The chip's determinism contract in miniature: running
        // [0,100) in one call or four must not change a single bit of
        // the outputs the fleet merges.
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let run = |cuts: &[usize]| {
            let mut chip = ChipSim::new(
                site.ctx(),
                11,
                &sys_field(&site, 11),
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget {
                    chip_w: 40.0,
                    per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
                },
                &cfg,
            );
            for i in 0..10 {
                chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), i * 3));
            }
            let mut start = 0;
            for &cut in cuts {
                chip.run_epoch(start, cut);
                let _ = chip.end_epoch();
                start = cut;
            }
            chip.run_epoch(start, 100);
            (
                chip.completed(),
                chip.latencies_ms().to_vec(),
                chip.mean_power_w().to_bits(),
                chip.utilization().to_bits(),
            )
        };
        assert_eq!(run(&[]), run(&[25, 50, 75]));
    }

    #[test]
    fn effective_profile_is_sorted_and_tracks_throttling() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            13,
            &sys_field(&site, 13),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        let caps = chip.effective_freq_profile();
        assert_eq!(caps.len(), 20);
        for w in caps.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Load the chip and run: under the tight 40 W budget the
        // manager cannot hold every core at its rated maximum, so the
        // advertised capability must sit below the rated total.
        let rated_total: f64 = (0..20).map(|c| chip.core.machine().rated_max_freq(c)).sum();
        for i in 0..20 {
            chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), 0));
        }
        chip.run_epoch(0, 30);
        let loaded_total: f64 = chip.effective_freq_profile().iter().sum();
        assert!(
            loaded_total < rated_total,
            "throttled profile {loaded_total:.3e} must undercut rated {rated_total:.3e}"
        );
    }
}
