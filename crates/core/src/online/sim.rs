//! The online serving loop: a deterministic discrete-event simulation
//! over the batch machine model.
//!
//! [`OnlineSim`] drives the shared serving tick (the crate's `serving`
//! module) from a pre-drawn Poisson schedule: jobs arrive, queue FIFO
//! when every core is busy, retire a per-job instruction budget, and
//! leave. Any membership change re-invokes the scheduler
//! and the power manager at that tick, and every thread a reschedule
//! moves pays the migration penalty on its destination core.
//!
//! Holding the run as a value enables checkpoint/restore: at any tick
//! boundary [`OnlineSim::checkpoint`] captures the complete mutable
//! state as a [`Snapshot`], and [`OnlineSim::resume`] rebuilds a
//! simulation whose subsequent events, RNG draws, traces and metrics
//! are bit-identical to the uninterrupted run. [`run_online`] drives
//! it to completion in one call.
//!
//! [`super::ServicePolicy`] layers SLO-aware serving on top: per-job
//! deadlines with shed-on-admission load control, and windowed
//! rescheduling that defers membership-triggered reschedules to window
//! boundaries. The default policy disables both.

use super::arrivals::generate_arrivals;
use super::metrics::LatencyStats;
use super::queue::{EventKind, EventQueue};
use super::snapshot::Snapshot;
use super::OnlineConfig;
use crate::manager::{DegradationEvent, ManagerSpec, PowerBudget};
use crate::runtime::{TrialError, TrialObserver, TrialOutcome};
use crate::sched::{Scheduler, SchedulerSpec};
use crate::serving::{JobSource, PoissonJobs, ServingCore};
use cmpsim::{AppSpec, FaultPlan, Machine, Mix, Workload};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use vastats::SimRng;

/// Lifecycle record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (initial residents first, then arrival order).
    pub job: usize,
    /// Application the job ran.
    pub app: &'static str,
    /// When the job entered the system (ms; 0 for initial residents).
    pub arrival_ms: f64,
    /// When the job was admitted to a core (`None`: still queued at the
    /// horizon, or shed by admission control).
    pub admit_ms: Option<f64>,
    /// When the job retired its budget (`None`: still running or
    /// queued at the horizon).
    pub completion_ms: Option<f64>,
    /// Instruction budget (`f64::INFINITY` for never-ending residents).
    pub instructions: f64,
    /// Times a reschedule moved this job between cores.
    pub migrations: usize,
}

impl JobRecord {
    /// Arrival-to-completion latency (ms), if the job completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.completion_ms.map(|c| c - self.arrival_ms)
    }

    /// Arrival-to-admission queueing delay (ms), if the job was
    /// admitted.
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.admit_ms.map(|a| a - self.arrival_ms)
    }
}

/// One entry of the run's event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineEvent {
    /// A job entered the system and joined the run queue.
    Arrival {
        /// Job id.
        job: usize,
    },
    /// A queued job was admitted to a free core.
    Admit {
        /// Job id.
        job: usize,
    },
    /// Admission control shed a queued job whose deadline had become
    /// unreachable (deadline-enabled [`super::ServicePolicy`] only).
    Shed {
        /// Job id.
        job: usize,
    },
    /// A running job retired its budget and left.
    Complete {
        /// Job id.
        job: usize,
    },
    /// The scheduler re-mapped the resident threads.
    Reschedule {
        /// Threads moved to a different core (each charged the
        /// migration penalty).
        moved: usize,
        /// Resident threads at this point.
        resident: usize,
    },
    /// The power manager re-solved the (V, f) assignment.
    ManagerRun,
    /// The control plane degraded (fault-injected runs only): a solver
    /// fell back, a core died, sensors froze, the budget dropped, or
    /// threads were parked.
    Degraded {
        /// The degradation.
        event: DegradationEvent,
    },
}

impl fmt::Display for OnlineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineEvent::Arrival { job } => write!(f, "arrive job={job}"),
            OnlineEvent::Admit { job } => write!(f, "admit job={job}"),
            OnlineEvent::Shed { job } => write!(f, "shed job={job}"),
            OnlineEvent::Complete { job } => write!(f, "complete job={job}"),
            OnlineEvent::Reschedule { moved, resident } => {
                write!(f, "reschedule resident={resident} moved={moved}")
            }
            OnlineEvent::ManagerRun => f.write_str("manager"),
            OnlineEvent::Degraded { event } => write!(f, "degraded {event}"),
        }
    }
}

/// A timestamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Tick the event was processed at.
    pub tick: usize,
    /// What happened.
    pub event: OnlineEvent,
}

/// Results of one online serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// Chip-level metrics in the batch engine's shape. In a
    /// zero-arrival run with a zero migration penalty this equals the
    /// [`crate::runtime::run_trial`] outcome bit for bit; degenerate
    /// runs guard the batch metrics' panics (`ed2 = ∞` when nothing
    /// retired, `weighted_mips = 0` when no thread survives to the
    /// horizon).
    pub chip: TrialOutcome,
    /// Per-job lifecycle records (initial residents first).
    pub jobs: Vec<JobRecord>,
    /// The full event trace, in processing order.
    pub events: Vec<EventRecord>,
    /// Simulated horizon (ms).
    pub duration_ms: f64,
    /// Jobs that entered the system within the horizon.
    pub arrived: usize,
    /// Jobs that completed within the horizon.
    pub completed: usize,
    /// Jobs shed by deadline admission control (0 when deadlines are
    /// disabled). Each shed job contributes an `∞` latency sample, so
    /// shedding surfaces as [`LatencyStats::dropped`] right next to the
    /// tail percentiles it protected.
    pub shed: usize,
    /// Time-averaged fraction of cores running a thread.
    pub utilization: f64,
    /// Largest run-queue depth observed.
    pub queue_peak: usize,
    /// Total thread moves across all reschedules.
    pub migrations: usize,
    /// Arrival-to-completion latency summary (`None`: nothing
    /// completed).
    pub latency: Option<LatencyStats>,
    /// Arrival-to-admission queueing-delay summary (`None`: nothing
    /// admitted).
    pub queue_wait: Option<LatencyStats>,
}

impl OnlineOutcome {
    /// Completed-job throughput over the horizon (jobs per second).
    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / (self.duration_ms / 1e3)
    }

    /// Renders the event trace as text, one event per line — the
    /// byte-identity artifact the determinism tests compare.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for r in &self.events {
            let _ = writeln!(out, "{:>6} {}", r.tick, r.event);
        }
        out
    }
}

/// One online serving run held as a stepwise value: construct with
/// [`OnlineSim::new`] (or [`OnlineSim::resume`]), advance with
/// [`OnlineSim::step`]/[`OnlineSim::run`], and close out with
/// [`OnlineSim::finish`].
///
/// [`run_online`] drives this type from construction to outcome; the
/// value form exists so callers can interleave the simulation with
/// their own control — most importantly [`OnlineSim::checkpoint`],
/// which captures the complete mutable state at a tick boundary. A
/// simulation resumed from that snapshot replays the remaining ticks
/// bit-identically to the uninterrupted run (the tests pin this,
/// including the serialized round trip).
pub struct OnlineSim<'a> {
    core: ServingCore<&'a mut Machine, &'a mut SimRng>,
    jobs: PoissonJobs,
    tick: usize,
}

impl<'a> OnlineSim<'a> {
    /// Builds a fresh simulation: draws the initial residents and the
    /// arrival schedule from `rng` (exactly as [`run_online`]
    /// documents) and stands the control plane up, without executing
    /// any tick.
    #[allow(clippy::too_many_arguments)] // mirrors run_online, less the observer
    pub fn new(
        machine: &'a mut Machine,
        pool: &[AppSpec],
        mix: Mix,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        fault_plan: &FaultPlan,
        rng: &'a mut SimRng,
    ) -> Result<Self, TrialError> {
        config.validate()?;
        let rt = config.runtime;
        if config.initial_jobs > machine.core_count() {
            return Err(TrialError::WorkloadTooLarge {
                threads: config.initial_jobs,
                cores: machine.core_count(),
            });
        }
        // Build the scheduler (and validate the manager spec) before
        // touching the machine, so degenerate specs fail cleanly.
        let scheduler = policy.build(&rt)?;
        manager.validate(&rt)?;

        // Initial residents: continue the caller's stream exactly as
        // the batch engine does (draw the workload, then spawn its
        // threads).
        if config.initial_jobs > 0 {
            let workload = Workload::draw_mix(pool, config.initial_jobs, mix, rng);
            machine.load_threads(workload.spawn_threads(rng));
        } else {
            machine.load_threads(Vec::new());
        }
        machine.install_faults(fault_plan)?;
        let initial_count = machine.threads().len();

        // Arrival schedule: pre-drawn from a fork taken only when the
        // process is active, so a closed system leaves the caller's
        // stream untouched. The fork's initial state is kept so a
        // checkpoint can regenerate the identical schedule instead of
        // serializing it.
        let (arrival_rng, schedule) = if config.arrivals.rate_per_s > 0.0 {
            let mut fork = rng.fork();
            let state = fork.state();
            let schedule =
                generate_arrivals(pool, mix, &config.arrivals, rt.duration_ms, &mut fork);
            (Some(state), schedule)
        } else {
            (None, Vec::new())
        };

        let total_ticks = (rt.duration_ms / rt.tick_ms).round() as usize;
        let mut queue = EventQueue::new();

        // Job records: residents first (budget = the configured mean,
        // drawn without jitter so a closed system consumes no extra
        // RNG), then the arrival schedule.
        let mut jobs: Vec<JobRecord> = machine
            .threads()
            .iter()
            .enumerate()
            .map(|(i, t)| JobRecord {
                job: i,
                app: t.spec().name,
                arrival_ms: 0.0,
                admit_ms: Some(0.0),
                completion_ms: None,
                instructions: config.arrivals.mean_instructions,
                migrations: 0,
            })
            .collect();
        for (i, js) in schedule.iter().enumerate() {
            let job = jobs.len();
            jobs.push(JobRecord {
                job,
                app: js.spec.name,
                arrival_ms: js.arrival_ms,
                admit_ms: None,
                completion_ms: None,
                instructions: js.instructions,
                migrations: 0,
            });
            // A job arriving mid-tick becomes visible at the next
            // boundary.
            let tick = (js.arrival_ms / rt.tick_ms).ceil() as usize;
            if tick < total_ticks {
                queue.push(tick, EventKind::Arrival(i));
            }
        }

        let jobs = PoissonJobs {
            schedule,
            initial_count,
            arrival_rng,
            deadline_slack: config.service.deadline_slack,
            queue,
            pending_completion: vec![false; jobs.len()],
            jobs,
            thread_job: (0..initial_count).collect(),
            run_queue: VecDeque::new(),
            shed: 0,
            events: Vec::new(),
        };
        let mut sim = Self::assemble(machine, rng, scheduler, manager, budget, config, jobs)?;
        sim.core.counters.arrived = initial_count;
        Ok(sim)
    }

    /// Rebuilds a suspended simulation from a [`Snapshot`].
    ///
    /// `machine` must be a fresh build of the *same die and floorplan*
    /// the checkpointed run used, and every other argument must equal
    /// the original run's configuration — the snapshot carries only the
    /// mutable state, not the configuration (see [`Snapshot`]). The
    /// caller's `rng` is overwritten with the checkpointed stream
    /// position.
    ///
    /// # Errors
    ///
    /// Returns [`TrialError::SnapshotMismatch`] if the snapshot's
    /// structural guards (core count, timeline length, job-table
    /// consistency) do not match the supplied machine and
    /// configuration; the machine and `rng` are untouched then.
    #[allow(clippy::too_many_arguments)] // mirrors OnlineSim::new
    pub fn resume(
        machine: &'a mut Machine,
        pool: &[AppSpec],
        mix: Mix,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        fault_plan: &FaultPlan,
        rng: &'a mut SimRng,
        snapshot: &Snapshot,
    ) -> Result<Self, TrialError> {
        config.validate()?;
        let rt = config.runtime;
        let total_ticks = (rt.duration_ms / rt.tick_ms).round() as usize;
        let guards = [
            ("core_count", snapshot.core_count, machine.core_count()),
            ("total_ticks", snapshot.total_ticks, total_ticks),
            (
                "pending_completion",
                snapshot.pending_completion.len(),
                snapshot.jobs.len(),
            ),
        ];
        if let Some(&(field, found, expected)) = guards.iter().find(|g| g.1 != g.2) {
            return Err(TrialError::SnapshotMismatch {
                field,
                found,
                expected,
            });
        }
        if snapshot.tick > total_ticks {
            return Err(TrialError::SnapshotMismatch {
                field: "tick",
                found: snapshot.tick,
                expected: total_ticks,
            });
        }
        let mut scheduler = policy.build(&rt)?;
        scheduler.restore(&snapshot.scheduler);
        manager.validate(&rt)?;

        machine.load_threads(Vec::new());
        machine.install_faults(fault_plan)?;
        machine.import_state(&snapshot.machine);

        // The schedule is a pure function of the arrival fork's initial
        // state; regenerate it instead of trusting a serialized copy.
        let schedule = match snapshot.arrival_rng {
            Some(state) => generate_arrivals(
                pool,
                mix,
                &config.arrivals,
                rt.duration_ms,
                &mut SimRng::from_state(state),
            ),
            None => Vec::new(),
        };
        *rng = SimRng::from_state(snapshot.rng);

        let jobs = PoissonJobs {
            schedule,
            initial_count: snapshot.initial_count,
            arrival_rng: snapshot.arrival_rng,
            deadline_slack: config.service.deadline_slack,
            queue: EventQueue::import(snapshot.queue_events.clone(), snapshot.queue_next_seq),
            jobs: snapshot.jobs.clone(),
            thread_job: snapshot.thread_job.clone(),
            pending_completion: snapshot.pending_completion.clone(),
            run_queue: snapshot.run_queue.iter().copied().collect(),
            shed: snapshot.shed,
            events: snapshot.events.clone(),
        };
        let mut sim = Self::assemble(machine, rng, scheduler, manager, budget, config, jobs)?;
        let core = &mut sim.core;
        core.manager.import_state(&snapshot.manager);
        core.fault_dirty = snapshot.fault_dirty;
        core.window_dirty = snapshot.window_dirty;
        core.counters = snapshot.counters.clone();
        sim.tick = snapshot.tick;
        Ok(sim)
    }

    /// The constructor [`OnlineSim::new`] and [`OnlineSim::resume`]
    /// share: stands the serving core up over an installed machine.
    #[allow(clippy::too_many_arguments)] // the run's configuration, once
    fn assemble(
        machine: &'a mut Machine,
        rng: &'a mut SimRng,
        scheduler: Box<dyn Scheduler>,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        jobs: PoissonJobs,
    ) -> Result<Self, TrialError> {
        let core = ServingCore::new(
            machine,
            rng,
            scheduler,
            manager,
            budget,
            &config.runtime,
            config.migration_penalty_ms,
            config.service.reschedule_window_ms,
        )?;
        Ok(Self {
            core,
            jobs,
            tick: 0,
        })
    }

    /// The next tick to execute (0-based).
    pub fn tick(&self) -> usize {
        self.tick
    }

    /// Total ticks in the run's timeline.
    pub fn total_ticks(&self) -> usize {
        self.core.total_ticks
    }

    /// True once every tick has executed.
    pub fn is_done(&self) -> bool {
        self.tick >= self.core.total_ticks
    }

    /// Captures the complete mutable state at the current tick
    /// boundary.
    ///
    /// A checkpoint is valid at *any* boundary; for a byte-identical
    /// *trace tail* through a [`crate::obs::TraceObserver`], checkpoint
    /// at a DVFS-interval boundary (the observer's interval
    /// accumulators are empty exactly there — see
    /// [`crate::obs::TraceObserver::fast_forward`]).
    pub fn checkpoint(&self) -> Snapshot {
        let (core, p) = (&self.core, &self.jobs);
        let (queue_events, queue_next_seq) = p.queue.export();
        Snapshot {
            tick: self.tick,
            total_ticks: core.total_ticks,
            core_count: core.machine().core_count(),
            initial_count: p.initial_count,
            machine: core.machine().export_state(),
            rng: core.rng.state(),
            arrival_rng: p.arrival_rng,
            scheduler: core.scheduler.snapshot(),
            manager: core.manager.export_state(),
            queue_events,
            queue_next_seq,
            jobs: p.jobs.clone(),
            thread_job: p.thread_job.clone(),
            pending_completion: p.pending_completion.clone(),
            run_queue: p.run_queue.iter().copied().collect(),
            events: p.events.clone(),
            fault_dirty: core.fault_dirty,
            window_dirty: core.window_dirty,
            shed: p.shed,
            counters: core.counters.clone(),
        }
    }

    /// Executes one tick.
    ///
    /// # Panics
    ///
    /// Panics if the run is already done.
    pub fn step(&mut self, observer: &mut dyn TrialObserver) {
        assert!(!self.is_done(), "stepping past the horizon");
        self.core
            .step(self.tick, JobSource::Poisson(&mut self.jobs), observer);
        self.tick += 1;
    }

    /// Runs the remaining ticks to the horizon.
    pub fn run(&mut self, observer: &mut dyn TrialObserver) {
        while !self.is_done() {
            self.step(observer);
        }
    }

    /// Assembles the outcome after the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the run has not reached the horizon — partial-run
    /// metrics would silently divide by the full tick count.
    pub fn finish(self) -> OnlineOutcome {
        assert!(self.is_done(), "finish() before the horizon");
        // Chip metrics over the threads resident at the horizon, in the
        // batch outcome's shape (and bit-identical to it for a closed
        // run).
        let chip = self.core.chip_outcome();
        let c = &self.core.counters;
        let p = self.jobs;

        // Shed jobs contribute an ∞ latency sample: LatencyStats keeps
        // non-finite samples out of the percentiles but reports them as
        // `dropped`, so shedding stays visible next to the tail it
        // protected.
        let mut latencies: Vec<f64> = p.jobs.iter().filter_map(JobRecord::latency_ms).collect();
        latencies.extend(std::iter::repeat_n(f64::INFINITY, p.shed));
        let waits: Vec<f64> = p.jobs.iter().filter_map(JobRecord::queue_wait_ms).collect();

        OnlineOutcome {
            chip,
            latency: LatencyStats::of(&latencies),
            queue_wait: LatencyStats::of(&waits),
            jobs: p.jobs,
            events: p.events,
            duration_ms: self.core.rt.duration_ms,
            arrived: c.arrived,
            completed: c.completed,
            shed: p.shed,
            utilization: c.util_sum / self.core.total_ticks as f64,
            queue_peak: c.queue_peak,
            migrations: c.migrations_total,
        }
    }
}

/// Runs one online serving trial.
///
/// The initial residents (if any) are drawn from `pool` exactly as the
/// batch engine draws a workload — continuing the caller's RNG stream —
/// and the arrival schedule is pre-drawn from a fork of that stream,
/// taken only when the arrival rate is non-zero. See the
/// [module docs](crate::online) for the determinism contract.
///
/// With an inactive fault plan the run is fault-free. With an active
/// plan, the same degradation ladder as the batch
/// [`crate::runtime::run_trial`] applies — conditioned manager views,
/// chip-wide solver fallback, immediate rescheduling off dead cores —
/// plus one open-system rule: admission capacity shrinks to the live
/// core count, so jobs queue rather than land on dead silicon. Every
/// degradation appears in the event trace as an
/// [`OnlineEvent::Degraded`] entry.
///
/// The observer sees the same hooks the batch loop fires (schedule,
/// manager run, solve report, degradation, step) plus the online-only
/// job-shed hook, drawn from the identical simulation: observation is a
/// pure read-out and never perturbs RNG streams or outcomes.
///
/// # Errors
///
/// Returns [`TrialError`] if the configuration or a control-plane spec
/// is invalid, the initial residents exceed the core count, or the
/// fault plan does not fit the machine.
///
/// # Panics
///
/// Panics if the mix admits no application from the pool.
#[allow(clippy::too_many_arguments)] // the arm's configuration + plan, RNG and observer
pub fn run_online(
    machine: &mut Machine,
    pool: &[AppSpec],
    mix: Mix,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &OnlineConfig,
    fault_plan: &FaultPlan,
    rng: &mut SimRng,
    observer: &mut dyn TrialObserver,
) -> Result<OnlineOutcome, TrialError> {
    let mut sim = OnlineSim::new(
        machine, pool, mix, policy, manager, budget, config, fault_plan, rng,
    )?;
    sim.run(observer);
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{ArrivalConfig, ServicePolicy};
    use crate::runtime::{run_trial, ConfigError, FreqMode, NullObserver, RuntimeConfig};
    use cmpsim::{app_pool, MachineConfig};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine(seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        Machine::new(&die, &paper_20_core(), MachineConfig::paper_default())
    }

    fn pool() -> Vec<AppSpec> {
        app_pool(&MachineConfig::paper_default().dynamic)
    }

    fn quick_runtime() -> RuntimeConfig {
        RuntimeConfig {
            tick_ms: 1.0,
            dvfs_interval_ms: 10.0,
            os_interval_ms: 50.0,
            duration_ms: 100.0,
            freq_mode: crate::runtime::FreqMode::NonUniform,
            deviation_warmup_ms: 20.0,
        }
    }

    fn open_config(rate_per_s: f64, mean_instructions: f64) -> OnlineConfig {
        OnlineConfig {
            runtime: quick_runtime(),
            arrivals: ArrivalConfig::poisson(rate_per_s, mean_instructions),
            initial_jobs: 0,
            migration_penalty_ms: 0.1,
            service: ServicePolicy::default(),
        }
    }

    /// The cross-path equivalence table: a closed online run (zero
    /// arrivals, infinite budgets, free migrations) must equal the batch
    /// engine bit for bit across manager × frequency mode × fault plan ×
    /// load × seed.
    #[test]
    fn zero_arrival_run_matches_the_batch_engine_bit_for_bit() {
        let pool = pool();
        let stress = FaultPlan::none()
            .with_seed(0xBAD)
            .with_sensor_noise(0.04)
            .with_sensor_drift(0.05)
            .with_stuck_sensor(7, 30.0)
            .with_core_failure(3, 25.0)
            .with_core_failure(12, 55.0)
            .with_budget_drop(40.0, 60.0, 0.6);
        let failures = FaultPlan::none()
            .with_core_failure(2, 15.0)
            .with_core_failure(9, 35.0);
        let plans = [FaultPlan::none(), stress, failures];
        let managers = [
            ManagerSpec::LinOpt,
            ManagerSpec::FoxtonStar,
            ManagerSpec::None,
        ];
        let mut cases = 0;
        // Machine seed 5 with RNG seed 77, 6 threads, LinOpt, no faults
        // is the original single case of this test.
        for seed in [5u64, 6, 7] {
            let die = machine(seed);
            for freq_mode in [FreqMode::NonUniform, FreqMode::Uniform] {
                let runtime = RuntimeConfig {
                    freq_mode,
                    ..quick_runtime()
                };
                for (p, plan) in plans.iter().enumerate() {
                    for threads in [6usize, 16, 20] {
                        for manager in managers {
                            let config = OnlineConfig {
                                runtime,
                                arrivals: ArrivalConfig::closed(),
                                initial_jobs: threads,
                                migration_penalty_ms: 0.0,
                                service: ServicePolicy::default(),
                            };
                            let budget = PowerBudget::cost_performance(threads);
                            let rng_seed = 72 + seed;

                            let mut batch_rng = SimRng::seed_from(rng_seed);
                            let workload =
                                Workload::draw_mix(&pool, threads, Mix::Balanced, &mut batch_rng);
                            let batch = run_trial(
                                &mut die.clone(),
                                &workload,
                                SchedulerSpec::VarFAppIpc,
                                manager,
                                budget,
                                &runtime,
                                plan,
                                &mut batch_rng,
                                &mut NullObserver,
                            )
                            .expect("batch run");

                            let mut online_rng = SimRng::seed_from(rng_seed);
                            let online = run_online(
                                &mut die.clone(),
                                &pool,
                                Mix::Balanced,
                                SchedulerSpec::VarFAppIpc,
                                manager,
                                budget,
                                &config,
                                plan,
                                &mut online_rng,
                                &mut NullObserver,
                            )
                            .expect("online run");

                            let case = format!(
                                "seed {seed} {freq_mode:?} plan {:?} {threads} threads {manager:?}",
                                plan.core_failures
                            );
                            assert_eq!(online.chip, batch, "{case}");
                            assert_eq!(online_rng, batch_rng, "{case}: RNG streams diverged");
                            assert_eq!(online.arrived, threads, "{case}");
                            assert_eq!(online.completed, 0, "{case}: infinite budgets");
                            let original = seed == 5
                                && freq_mode == FreqMode::NonUniform
                                && p == 0
                                && threads == 6
                                && manager == ManagerSpec::LinOpt;
                            if original {
                                assert_eq!(
                                    online.migrations, 0,
                                    "batch epochs keep the same mapping"
                                );
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 162);
    }

    #[test]
    fn open_system_serves_and_completes_jobs() {
        let pool = pool();
        let out = run_online(
            &mut machine(1),
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &open_config(300.0, 40.0e6),
            &FaultPlan::none(),
            &mut SimRng::seed_from(2),
            &mut NullObserver,
        )
        .unwrap();
        assert!(out.arrived > 10, "arrived {}", out.arrived);
        assert!(out.completed > 0, "completed {}", out.completed);
        assert!(out.completed <= out.arrived);
        assert_eq!(out.shed, 0, "no deadlines, no shedding");
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        let lat = out.latency.expect("completions imply latency stats");
        assert!(lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.p99_ms);
        assert!(lat.p99_ms <= lat.max_ms);
        for job in &out.jobs {
            if let (Some(a), Some(c)) = (job.admit_ms, job.completion_ms) {
                assert!(c > a, "job {} completed before admission", job.job);
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_trace_and_outcome() {
        let pool = pool();
        let run = |seed: u64| {
            run_online(
                &mut machine(3),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::FoxtonStar,
                PowerBudget::cost_performance(20),
                &open_config(250.0, 50.0e6),
                &FaultPlan::none(),
                &mut SimRng::seed_from(seed),
                &mut NullObserver,
            )
            .unwrap()
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(a, b);
        assert_eq!(a.trace(), b.trace());
        assert!(!a.trace().is_empty());
        let c = run(10);
        assert_ne!(a.trace(), c.trace(), "different seeds must differ");
    }

    #[test]
    fn overload_builds_a_queue() {
        let pool = pool();
        let out = run_online(
            &mut machine(4),
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &open_config(2000.0, 200.0e6),
            &FaultPlan::none(),
            &mut SimRng::seed_from(6),
            &mut NullObserver,
        )
        .unwrap();
        assert!(out.queue_peak > 0, "overload must queue jobs");
        assert!(
            out.jobs.iter().any(|j| j.admit_ms.is_none()),
            "some jobs must still be waiting at the horizon"
        );
        assert!(out.utilization > 0.9, "overloaded chip should be busy");
    }

    #[test]
    fn migration_penalty_costs_throughput() {
        let pool = pool();
        let run = |penalty_ms: f64| {
            run_online(
                &mut machine(7),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &OnlineConfig {
                    migration_penalty_ms: penalty_ms,
                    ..open_config(400.0, 60.0e6)
                },
                &FaultPlan::none(),
                &mut SimRng::seed_from(8),
                &mut NullObserver,
            )
            .unwrap()
        };
        let free = run(0.0);
        let taxed = run(5.0);
        assert!(free.migrations > 0, "churn should move threads");
        assert!(taxed.migrations > 0, "churn should move threads");
        assert!(
            taxed.completed <= free.completed,
            "stalls cannot complete more jobs: {} vs {}",
            taxed.completed,
            free.completed
        );
        assert!(
            taxed.chip.mips < free.chip.mips,
            "5 ms per move must cost throughput: {} vs {}",
            taxed.chip.mips,
            free.chip.mips
        );
    }

    #[test]
    fn finite_budgets_drain_a_closed_system() {
        // Rate 0 with a finite mean: the residents complete and the
        // chip drains to idle.
        let pool = pool();
        let config = OnlineConfig {
            runtime: quick_runtime(),
            arrivals: ArrivalConfig {
                mean_instructions: 20.0e6,
                ..ArrivalConfig::closed()
            },
            initial_jobs: 4,
            migration_penalty_ms: 0.1,
            service: ServicePolicy::default(),
        };
        let out = run_online(
            &mut machine(11),
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(4),
            &config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(12),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(out.completed, 4, "all residents should drain");
        assert!(out.chip.weighted_mips == 0.0, "no thread survives");
        assert!(out.chip.ed2.is_finite(), "work was retired");
    }

    // ----------------------------------------------------------------
    // Checkpoint/restore
    // ----------------------------------------------------------------

    /// Runs the scenario uninterrupted, and again with a checkpoint +
    /// serialized round trip + restore at `cut_tick`, and asserts the
    /// outcomes and traces are identical.
    fn assert_resume_bit_identical(config: &OnlineConfig, fault_plan: &FaultPlan, cut_tick: usize) {
        let pool = pool();
        let policy = SchedulerSpec::VarFAppIpc;
        let manager = ManagerSpec::LinOpt;
        let budget = PowerBudget::cost_performance(20);

        let mut m1 = machine(3);
        let mut rng1 = SimRng::seed_from(9);
        let full = run_online(
            &mut m1,
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng1,
            &mut NullObserver,
        )
        .expect("uninterrupted run");

        // First half.
        let mut m2 = machine(3);
        let mut rng2 = SimRng::seed_from(9);
        let mut sim = OnlineSim::new(
            &mut m2,
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng2,
        )
        .expect("construct");
        while sim.tick() < cut_tick {
            sim.step(&mut NullObserver);
        }
        let snapshot = sim.checkpoint();
        drop(sim);

        // Serialized round trip.
        let json = snapshot.to_json();
        let revived = Snapshot::from_json(&json, &pool).expect("snapshot JSON round trip");
        assert_eq!(revived, snapshot, "codec must be lossless");

        // Second half on a fresh machine and a garbage RNG (resume
        // overwrites it with the checkpointed stream position).
        let mut m3 = machine(3);
        let mut rng3 = SimRng::seed_from(0xDEAD);
        let mut sim = OnlineSim::resume(
            &mut m3,
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng3,
            &revived,
        )
        .expect("resume");
        assert_eq!(sim.tick(), cut_tick);
        sim.run(&mut NullObserver);
        let resumed = sim.finish();

        assert_eq!(resumed, full, "restored run must match bit for bit");
        assert_eq!(resumed.trace(), full.trace());
        assert_eq!(rng3, rng1, "RNG stream must end at the same position");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_run() {
        assert_resume_bit_identical(&open_config(250.0, 50.0e6), &FaultPlan::none(), 50);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_off_boundary() {
        // A DVFS boundary (30) and an unaligned tick (37): state
        // capture is boundary-agnostic.
        for cut in [30, 37] {
            assert_resume_bit_identical(&open_config(400.0, 40.0e6), &FaultPlan::none(), cut);
        }
    }

    #[test]
    fn checkpoint_resume_survives_initial_residents_and_drain() {
        let config = OnlineConfig {
            initial_jobs: 5,
            ..open_config(150.0, 30.0e6)
        };
        assert_resume_bit_identical(&config, &FaultPlan::none(), 60);
    }

    #[test]
    fn checkpoint_resume_carries_the_fault_timeline() {
        use cmpsim::{BudgetDrop, CoreFailure, StuckSensor};
        let plan = FaultPlan {
            seed: 77,
            sensor_noise_sigma: 0.05,
            sensor_drift_per_s: 0.0,
            stuck_sensors: vec![StuckSensor {
                core: 2,
                at_ms: 20.0,
            }],
            core_failures: vec![CoreFailure {
                core: 5,
                at_ms: 40.0,
            }],
            budget_drops: vec![BudgetDrop {
                start_ms: 30.0,
                end_ms: 60.0,
                factor: 0.7,
            }],
        };
        let config = OnlineConfig {
            initial_jobs: 8,
            ..open_config(200.0, 40.0e6)
        };
        // Cut after the failure fired so the restored run carries the
        // dead core, the stuck sensor, and the in-flight budget drop.
        assert_resume_bit_identical(&config, &plan, 55);
    }

    #[test]
    fn checkpoint_resume_preserves_slo_serving_state() {
        let config = OnlineConfig {
            service: ServicePolicy {
                reschedule_window_ms: 25.0,
                deadline_slack: 3.0,
            },
            ..open_config(800.0, 80.0e6)
        };
        assert_resume_bit_identical(&config, &FaultPlan::none(), 45);
    }

    #[test]
    fn resume_rejects_a_mismatched_machine() {
        let pool = pool();
        let config = open_config(250.0, 50.0e6);
        let mut m = machine(3);
        let mut rng = SimRng::seed_from(9);
        let sim = OnlineSim::new(
            &mut m,
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &config,
            &FaultPlan::none(),
            &mut rng,
        )
        .unwrap();
        let mut snapshot = sim.checkpoint();
        drop(sim);
        snapshot.core_count = 4; // claims a 4-core machine
        let mut m2 = machine(3);
        let mut rng2 = SimRng::seed_from(9);
        let err = OnlineSim::resume(
            &mut m2,
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &config,
            &FaultPlan::none(),
            &mut rng2,
            &snapshot,
        )
        .err()
        .expect("a 4-core snapshot cannot resume on 20 cores");
        assert_eq!(
            err,
            TrialError::SnapshotMismatch {
                field: "core_count",
                found: 4,
                expected: 20,
            }
        );
        assert!(err.to_string().contains("core_count"), "{err}");
    }

    /// Runs `config` on a fresh 20-core machine and returns the error.
    fn run_err(config: &OnlineConfig) -> TrialError {
        run_online(
            &mut machine(3),
            &pool(),
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(9),
            &mut NullObserver,
        )
        .expect_err("the run must be rejected")
    }

    #[test]
    fn too_many_initial_jobs_is_an_error() {
        let config = OnlineConfig {
            initial_jobs: 21,
            ..open_config(250.0, 50.0e6)
        };
        assert_eq!(
            run_err(&config),
            TrialError::WorkloadTooLarge {
                threads: 21,
                cores: 20,
            }
        );
    }

    #[test]
    fn invalid_config_is_an_error() {
        let config = OnlineConfig {
            migration_penalty_ms: -1.0,
            ..open_config(250.0, 50.0e6)
        };
        assert_eq!(
            run_err(&config),
            TrialError::Config(ConfigError::NegativeMigrationPenalty)
        );
    }

    // ----------------------------------------------------------------
    // SLO-aware serving
    // ----------------------------------------------------------------

    #[test]
    fn default_service_policy_is_the_legacy_path() {
        // A ServicePolicy::default() config must not perturb the
        // historical behaviour at all.
        let pool = pool();
        let run = |service: ServicePolicy| {
            run_online(
                &mut machine(3),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &OnlineConfig {
                    service,
                    ..open_config(250.0, 50.0e6)
                },
                &FaultPlan::none(),
                &mut SimRng::seed_from(21),
                &mut NullObserver,
            )
            .unwrap()
        };
        let default = run(ServicePolicy::default());
        let explicit = run(ServicePolicy {
            reschedule_window_ms: 0.0,
            deadline_slack: f64::INFINITY,
        });
        assert_eq!(default, explicit);
        assert_eq!(default.shed, 0);
    }

    #[test]
    fn tight_deadlines_shed_queued_jobs() {
        let pool = pool();
        let run = |slack: f64| {
            run_online(
                &mut machine(4),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &OnlineConfig {
                    service: ServicePolicy {
                        reschedule_window_ms: 0.0,
                        deadline_slack: slack,
                    },
                    ..open_config(2000.0, 100.0e6)
                },
                &FaultPlan::none(),
                &mut SimRng::seed_from(6),
                &mut NullObserver,
            )
            .unwrap()
        };
        let strict = run(1.5);
        let loose = run(1e9);
        assert!(strict.shed > 0, "overload with tight slack must shed");
        assert_eq!(loose.shed, 0, "astronomical slack never sheds");
        // Shed jobs surface as dropped latency samples.
        let lat = strict.latency.expect("some jobs complete");
        assert_eq!(lat.dropped, strict.shed);
        // Every shed job is in the event trace and was never admitted.
        let shed_events: Vec<usize> = strict
            .events
            .iter()
            .filter_map(|r| match r.event {
                OnlineEvent::Shed { job } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(shed_events.len(), strict.shed);
        for job in shed_events {
            assert_eq!(strict.jobs[job].admit_ms, None);
            assert_eq!(strict.jobs[job].completion_ms, None);
        }
    }

    #[test]
    fn windowed_rescheduling_batches_membership_changes() {
        let pool = pool();
        let run = |window_ms: f64| {
            run_online(
                &mut machine(7),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &OnlineConfig {
                    migration_penalty_ms: 3.0,
                    service: ServicePolicy {
                        reschedule_window_ms: window_ms,
                        deadline_slack: f64::INFINITY,
                    },
                    ..open_config(600.0, 50.0e6)
                },
                &FaultPlan::none(),
                &mut SimRng::seed_from(8),
                &mut NullObserver,
            )
            .unwrap()
        };
        let per_event = run(0.0);
        let windowed = run(25.0);
        let reschedules = |o: &OnlineOutcome| {
            o.events
                .iter()
                .filter(|r| matches!(r.event, OnlineEvent::Reschedule { .. }))
                .count()
        };
        assert!(
            reschedules(&windowed) < reschedules(&per_event),
            "batching must cut reschedules: {} vs {}",
            reschedules(&windowed),
            reschedules(&per_event)
        );
        assert!(
            windowed.migrations < per_event.migrations,
            "fewer reschedules must move fewer threads: {} vs {}",
            windowed.migrations,
            per_event.migrations
        );
        // Jobs admitted inside a window still run (the incremental
        // placement): throughput does not collapse.
        assert!(windowed.completed > 0);
    }
}
