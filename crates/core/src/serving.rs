//! The serving tick: the paper's runtime loop (Figure 2), written once.
//!
//! The OS scheduler re-maps threads every OS interval and whenever
//! applications enter or leave; the power manager re-solves every DVFS
//! interval (§4–5). [`ServingCore`] is that loop. Each execution path
//! drives it and differs only in where its jobs come from
//! ([`JobSource`]):
//!
//! | Driver | Source |
//! |---|---|
//! | [`crate::runtime::run_trial`] (batch) | closed residents |
//! | [`crate::extensions::run_thermal_trial`] | closed residents, plus pre-step migration |
//! | [`crate::online::OnlineSim`] | the pre-drawn Poisson schedule |
//! | [`crate::fleet::ChipSim`] | the FIFO the fleet dispatcher fills |
//!
//! One tick runs: completions flagged last tick leave → arrivals queue
//! → admission into free live cores → reschedule (OS boundary,
//! membership change or core failure; moved threads pay the migration
//! penalty) → power manager → optional temperature-triggered migration
//! → [`Machine::step`] → completion detection. Batch is the closed
//! special case: nothing arrives or completes, so the membership
//! branches never fire and the RNG is drawn in the batch pattern.

use crate::extensions::{try_migrate, MigrationConfig};
use crate::fleet::FleetJob;
use crate::manager::{DegradationEvent, HardenedManager, ManagerSpec, PowerBudget};
use crate::metrics::{ed2_index, weighted_mips};
use crate::online::{
    EventKind, EventQueue, EventRecord, JobRecord, JobSpec, OnlineEvent, SimCounters,
};
use crate::profile::{core_profiles, thread_profiles, CoreProfile, ThreadProfile};
use crate::runtime::{ConfigError, FreqMode, RuntimeConfig, TrialObserver, TrialOutcome};
use crate::sched::Scheduler;
use cmpsim::{FaultEvent, Machine, Thread};
use std::borrow::BorrowMut;
use std::collections::VecDeque;
use vastats::SimRng;

/// Where a tick's jobs come from; drivers own the source and lend it to
/// [`ServingCore::step`].
pub(crate) enum JobSource<'s> {
    /// Batch: the residents were loaded before the first tick, never
    /// complete, and nothing arrives.
    Closed,
    /// Online: a pre-drawn Poisson schedule released by an event queue.
    Poisson(&'s mut PoissonJobs),
    /// Fleet: a FIFO the dispatcher fills between epochs.
    Fifo(&'s mut FifoJobs),
}

impl JobSource<'_> {
    /// Appends to the online event log; the other sources keep none.
    fn log(&mut self, tick: usize, event: OnlineEvent) {
        if let JobSource::Poisson(p) = self {
            p.log(tick, event);
        }
    }
}

/// The online source: the arrival schedule, the event queue releasing
/// it, and the per-job records the outcome reports.
pub(crate) struct PoissonJobs {
    /// Pre-drawn arrivals (job id = `initial_count + index`).
    pub(crate) schedule: Vec<JobSpec>,
    /// Residents loaded before the first tick (job ids `0..initial_count`).
    pub(crate) initial_count: usize,
    /// The arrival fork's initial state (checkpoint support).
    pub(crate) arrival_rng: Option<[u64; 4]>,
    /// Deadline slack factor (`∞` = deadlines disabled).
    pub(crate) deadline_slack: f64,
    pub(crate) queue: EventQueue,
    pub(crate) jobs: Vec<JobRecord>,
    /// Thread index → job id, under the machine's swap_remove semantics.
    pub(crate) thread_job: Vec<usize>,
    pub(crate) pending_completion: Vec<bool>,
    pub(crate) run_queue: VecDeque<usize>,
    pub(crate) shed: usize,
    pub(crate) events: Vec<EventRecord>,
}

/// Ideal (contention-free) service time of a scheduled job at the
/// reference operating point: budget / (IPC(f_ref) · f_ref), in ms.
/// The deterministic yardstick deadlines derive from — no RNG draw, so
/// deadline-enabled and deadline-free runs consume identical streams.
fn ideal_service_ms(js: &JobSpec) -> f64 {
    js.instructions / (js.spec.ipc_at(4.0e9) * 4.0e9) * 1e3
}

impl PoissonJobs {
    fn log(&mut self, tick: usize, event: OnlineEvent) {
        self.events.push(EventRecord { tick, event });
    }

    /// Drains this tick's events (completions before arrivals, by
    /// [`EventQueue`] priority); returns whether membership changed.
    fn drain(&mut self, tick: usize, now_ms: f64, m: &mut Machine, c: &mut SimCounters) -> bool {
        let mut changed = false;
        while let Some(ev) = self.queue.pop_due(tick) {
            match ev.kind {
                EventKind::Completion(job) => {
                    let tid = self.thread_job.iter().position(|&j| j == job);
                    let tid = tid.expect("completed job must be resident");
                    m.remove_thread(tid);
                    self.thread_job.swap_remove(tid);
                    self.jobs[job].completion_ms = Some(now_ms);
                    c.completed += 1;
                    changed = true;
                    self.log(tick, OnlineEvent::Complete { job });
                }
                EventKind::Arrival(i) => {
                    let job = self.initial_count + i;
                    c.arrived += 1;
                    self.run_queue.push_back(job);
                    c.queue_peak = c.queue_peak.max(self.run_queue.len());
                    self.log(tick, OnlineEvent::Arrival { job });
                }
            }
        }
        changed
    }

    /// Deadline of a scheduled job: arrival plus `deadline_slack ×` its
    /// ideal service time.
    fn deadline_ms(&self, job: usize) -> f64 {
        let js = &self.schedule[job - self.initial_count];
        js.arrival_ms + self.deadline_slack * ideal_service_ms(js)
    }

    /// Next queued job to consider: FIFO when deadlines are disabled,
    /// earliest deadline first (ties by job id) when enabled.
    fn next_admission(&mut self) -> Option<usize> {
        if !self.deadline_slack.is_finite() {
            return self.run_queue.pop_front();
        }
        let best = self
            .run_queue
            .iter()
            .enumerate()
            .min_by(|&(_, &a), &(_, &b)| {
                // A NaN deadline ranks last so it never starves real ones.
                crate::order::asc_nan_worst(self.deadline_ms(a), self.deadline_ms(b))
                    .then(a.cmp(&b))
            })?
            .0;
        self.run_queue.remove(best)
    }

    /// Takes the next admissible job off the run queue and records it
    /// as resident. With deadlines enabled, a job whose deadline became
    /// unreachable while it queued is shed instead, so the queue stops
    /// feeding work that can no longer meet its SLO into the tail.
    fn admit(&mut self, tick: usize, now_ms: f64, obs: &mut dyn TrialObserver) -> Option<Thread> {
        loop {
            let job = self.next_admission()?;
            let js = &self.schedule[job - self.initial_count];
            if self.deadline_slack.is_finite()
                && now_ms + ideal_service_ms(js) > self.deadline_ms(job)
            {
                self.shed += 1;
                self.log(tick, OnlineEvent::Shed { job });
                obs.on_job_shed(tick, job);
                continue;
            }
            let thread = Thread::with_phase_offset(js.spec.clone(), js.phase_offset_ms);
            self.thread_job.push(job);
            self.jobs[job].admit_ms = Some(now_ms);
            self.log(tick, OnlineEvent::Admit { job });
            return Some(thread);
        }
    }

    /// A job crossing its budget this tick leaves at the next boundary
    /// (its completion event drains before the next step).
    fn detect_completions(&mut self, tick: usize, machine: &Machine) {
        for (tid, thread) in machine.threads().iter().enumerate() {
            let job = self.thread_job[tid];
            if !self.pending_completion[job] && thread.instructions() >= self.jobs[job].instructions
            {
                self.pending_completion[job] = true;
                self.queue.push(tick + 1, EventKind::Completion(job));
            }
        }
    }
}

/// The fleet source: routed jobs waiting for a core, and the jobs
/// running on one.
#[derive(Default)]
pub(crate) struct FifoJobs {
    pub(crate) queue: VecDeque<FleetJob>,
    /// Resident jobs and their completion flags, parallel to
    /// `machine.threads()` under its swap_remove semantics.
    pub(crate) resident: Vec<(FleetJob, bool)>,
    /// Arrival-to-completion latencies (ms), in completion order.
    pub(crate) latencies_ms: Vec<f64>,
}

impl FifoJobs {
    /// Retires the jobs flagged last tick, in descending thread order:
    /// the thread swap_remove moves into a freed slot always comes from
    /// a larger index, which the loop has already passed.
    fn retire(&mut self, now_ms: f64, m: &mut Machine, c: &mut SimCounters) -> bool {
        let mut changed = false;
        for tid in (0..self.resident.len()).rev() {
            if self.resident[tid].1 {
                m.remove_thread(tid);
                let (job, _) = self.resident.swap_remove(tid);
                self.latencies_ms.push(now_ms - job.arrival_ms);
                c.completed += 1;
                changed = true;
            }
        }
        changed
    }

    /// Takes the queue head if it has arrived by `tick`.
    fn admit(&mut self, tick: usize) -> Option<Thread> {
        if self.queue.front()?.arrival_tick > tick {
            return None;
        }
        let job = self.queue.pop_front()?;
        let thread = Thread::with_phase_offset(job.spec.clone(), job.phase_offset_ms);
        self.resident.push((job, false));
        Some(thread)
    }

    /// A job crossing its budget this tick leaves at the start of the
    /// next.
    fn detect_completions(&mut self, machine: &Machine) {
        for (thread, (job, done)) in machine.threads().iter().zip(&mut self.resident) {
            *done |= thread.instructions() >= job.instructions;
        }
    }
}

/// Plans the next thread-to-core assignment, working around dead cores.
///
/// With every core alive and enough capacity this is a passthrough to
/// the scheduler, drawing the RNG exactly as fault-free runs always
/// have. Once cores have failed, the scheduler sees only the survivors;
/// if more threads are live than cores, the lowest-IPC threads are
/// parked for this epoch. Returns the full-machine mapping and the
/// number of parked threads.
fn plan_assignment(
    scheduler: &mut dyn Scheduler,
    cores: &[CoreProfile],
    threads: &[ThreadProfile],
    machine: &Machine,
    rng: &mut SimRng,
) -> (Vec<Option<usize>>, usize) {
    // Machine-aware schedulers (ThermalMap) read sensors here; the
    // default hook is a no-op that draws no RNG.
    scheduler.observe(machine);
    let n_alive = machine.alive_core_count();
    if n_alive == cores.len() && threads.len() <= n_alive {
        return (scheduler.assign(cores, threads, rng), 0);
    }
    if n_alive == 0 {
        return (vec![None; cores.len()], threads.len());
    }
    let alive: Vec<CoreProfile> = cores
        .iter()
        .filter(|c| machine.core_alive(c.core))
        .cloned()
        .collect();
    let mut runnable: Vec<ThreadProfile> = threads.to_vec();
    let parked = threads.len().saturating_sub(n_alive);
    if parked > 0 {
        // Keep the highest-IPC threads (ties by index; a NaN IPC is
        // parked first), then restore thread order so policy
        // tie-breaks are stable.
        runnable.sort_by(|a, b| {
            crate::order::desc_nan_worst(a.ipc, b.ipc).then(a.thread.cmp(&b.thread))
        });
        runnable.truncate(n_alive);
        runnable.sort_by_key(|t| t.thread);
    }
    // The scheduler works positionally over the slices it is given, so
    // translate its sub-machine mapping back to full-machine indices.
    let sub = scheduler.assign(&alive, &runnable, rng);
    let mut mapping = vec![None; cores.len()];
    for (pos, slot) in sub.iter().enumerate() {
        if let Some(tpos) = slot {
            mapping[alive[pos].core] = Some(runnable[*tpos].thread);
        }
    }
    (mapping, parked)
}

/// One chip's serving loop: machine, RNG, control plane, timing grid
/// and the run's accumulators.
///
/// Generic over how the machine and RNG are held: fleet chips own them,
/// while the batch engine and [`crate::online::OnlineSim`] borrow the
/// caller's.
pub(crate) struct ServingCore<M, R> {
    pub(crate) machine: M,
    pub(crate) rng: R,
    pub(crate) rt: RuntimeConfig,
    pub(crate) budget: PowerBudget,
    hardened: bool,
    pub(crate) total_ticks: usize,
    warmup_ticks: usize,
    dvfs_every: usize,
    os_every: usize,
    /// Reschedule window in ticks (0 = per-event rescheduling).
    window_every: usize,
    penalty_s: f64,
    cores: Vec<CoreProfile>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) manager: HardenedManager,
    degradations: Vec<DegradationEvent>,
    /// Set when a core fails: forces a reschedule on the next tick.
    pub(crate) fault_dirty: bool,
    /// Set when membership changed inside an open reschedule window.
    pub(crate) window_dirty: bool,
    /// Temperature-triggered migration: `(every ticks, trigger kelvin)`.
    thermal_migration: Option<(usize, f64)>,
    pub(crate) thermal_migrations: usize,
    pub(crate) counters: SimCounters,
}

impl<M: BorrowMut<Machine>, R: BorrowMut<SimRng>> ServingCore<M, R> {
    /// Stands the loop up over a machine whose residents and fault plan
    /// are installed. The caller builds `scheduler` before touching the
    /// machine, so a degenerate spec fails cleanly; the manager is
    /// hardened exactly when the machine carries an active fault plan.
    #[allow(clippy::too_many_arguments)] // one knob per timeline input
    pub(crate) fn new(
        machine: M,
        rng: R,
        scheduler: Box<dyn Scheduler>,
        manager: ManagerSpec,
        budget: PowerBudget,
        rt: &RuntimeConfig,
        migration_penalty_ms: f64,
        reschedule_window_ms: f64,
    ) -> Result<Self, ConfigError> {
        let m = machine.borrow();
        let hardened = m.has_active_faults();
        let ticks = |ms: f64| (ms / rt.tick_ms).round() as usize;
        let total_ticks = ticks(rt.duration_ms);
        Ok(Self {
            cores: core_profiles(m),
            manager: HardenedManager::new(manager, m.core_count(), hardened, rt)?,
            machine,
            rng,
            rt: *rt,
            budget,
            hardened,
            total_ticks,
            warmup_ticks: ticks(rt.deviation_warmup_ms).min(total_ticks / 2),
            dvfs_every: ticks(rt.dvfs_interval_ms),
            os_every: ticks(rt.os_interval_ms),
            window_every: ticks(reschedule_window_ms),
            penalty_s: migration_penalty_ms / 1e3,
            scheduler,
            degradations: Vec::new(),
            fault_dirty: false,
            window_dirty: false,
            thermal_migration: None,
            thermal_migrations: 0,
            counters: SimCounters::default(),
        })
    }

    /// Enables temperature-triggered migration at the pre-step point.
    pub(crate) fn with_thermal_migration(mut self, migration: Option<MigrationConfig>) -> Self {
        self.thermal_migration = migration.map(|m| {
            let every = ((m.interval_ms / self.rt.tick_ms).round() as usize).max(1);
            (every, m.trigger_k)
        });
        self
    }

    /// The machine being served.
    pub(crate) fn machine(&self) -> &Machine {
        self.machine.borrow()
    }

    /// Executes tick `tick` of the timeline, taking jobs from `source`.
    pub(crate) fn step(
        &mut self,
        tick: usize,
        mut source: JobSource<'_>,
        observer: &mut dyn TrialObserver,
    ) {
        let machine: &mut Machine = self.machine.borrow_mut();
        let rng: &mut SimRng = self.rng.borrow_mut();
        let now_ms = tick as f64 * self.rt.tick_ms;

        // 1. Completions flagged last tick leave; arrivals queue.
        let mut membership_dirty = match &mut source {
            JobSource::Closed => false,
            JobSource::Poisson(p) => p.drain(tick, now_ms, machine, &mut self.counters),
            JobSource::Fifo(f) => f.retire(now_ms, machine, &mut self.counters),
        };

        // 2. Admission into free cores (capacity shrinks as cores fail;
        // queued jobs wait rather than land on dead silicon).
        while machine.threads().len() < machine.alive_core_count() {
            let thread = match &mut source {
                JobSource::Closed => None,
                JobSource::Poisson(p) => p.admit(tick, now_ms, observer),
                JobSource::Fifo(f) => f.admit(tick),
            };
            let Some(thread) = thread else { break };
            let tid = machine.add_thread(thread);
            membership_dirty = true;
            // Until the window's full reschedule, place the new thread
            // on the fastest free live core (a NaN rating loses).
            if self.window_every > 0 {
                let mut mapping = machine.assignment().to_vec();
                let free = (0..mapping.len())
                    .filter(|&c| mapping[c].is_none() && machine.core_alive(c))
                    .max_by(|&a, &b| {
                        let (fa, fb) = (self.cores[a].max_freq_hz, self.cores[b].max_freq_hz);
                        crate::order::desc_nan_worst(fb, fa).then(b.cmp(&a))
                    });
                if let Some(core) = free {
                    mapping[core] = Some(tid);
                    machine.assign(&mapping);
                    self.manager.note_reschedule();
                }
            }
        }

        // 3. Reschedule on the OS boundary, after a core failure, and on
        // membership changes: immediately per event (the paper's
        // "whenever applications enter or leave the system"), or at the
        // next window boundary in windowed mode.
        if membership_dirty && self.window_every > 0 {
            self.window_dirty = true;
        }
        let membership_trigger = if self.window_every == 0 {
            membership_dirty
        } else {
            self.window_dirty && tick.is_multiple_of(self.window_every)
        };
        let os_due = tick.is_multiple_of(self.os_every);
        let resident = machine.threads().len();
        if (os_due || membership_trigger || self.fault_dirty) && resident > 0 {
            self.fault_dirty = false;
            self.window_dirty = false;
            let prev = machine.assignment().to_vec();
            let threads = thread_profiles(machine, rng);
            let (mapping, parked) =
                plan_assignment(self.scheduler.as_mut(), &self.cores, &threads, machine, rng);
            machine.assign(&mapping);
            self.manager.note_reschedule();
            observer.on_schedule(tick, &mapping);
            if parked > 0 {
                let event = DegradationEvent::ThreadsParked { parked };
                source.log(tick, OnlineEvent::Degraded { event });
                observer.on_degradation(tick, event);
            }

            // Charge the migration penalty to the destination core of
            // every thread that moved (first placements are free).
            let mut prev_core = vec![None; resident];
            for (core, slot) in prev.iter().enumerate() {
                if let Some(t) = slot {
                    prev_core[*t] = Some(core);
                }
            }
            let mut moved = 0usize;
            for (core, slot) in mapping.iter().enumerate() {
                let Some(t) = *slot else { continue };
                if prev_core[t].is_none_or(|pc| pc == core) {
                    continue;
                }
                moved += 1;
                self.counters.migrations_total += 1;
                if let JobSource::Poisson(p) = &mut source {
                    p.jobs[p.thread_job[t]].migrations += 1;
                }
                if self.penalty_s > 0.0 {
                    machine.charge_stall(core, self.penalty_s);
                }
            }
            if !self.manager.is_managed() {
                match self.rt.freq_mode {
                    FreqMode::Uniform => {
                        machine.set_uniform_frequency();
                    }
                    FreqMode::NonUniform => machine.set_all_levels_max(),
                }
            }
            source.log(tick, OnlineEvent::Reschedule { moved, resident });
        }

        // 4. Power manager on the DVFS boundary, plus load-adaptive
        // re-solves at the cadence membership changes reschedule.
        if self.manager.is_managed() && (tick.is_multiple_of(self.dvfs_every) || membership_trigger)
        {
            // Under an injected budget drop the manager chases the
            // scaled budget (the deviation metric below does not).
            let mut budget = self.budget;
            if self.hardened {
                budget.chip_w *= machine.fault_budget_factor();
            }
            let degradations = &mut self.degradations;
            if let Some(levels) = self.manager.invoke(machine, &budget, rng, degradations) {
                source.log(tick, OnlineEvent::ManagerRun);
                observer.on_manager_run(tick, &levels);
                if let Some(report) = self.manager.last_solve() {
                    observer.on_solve(tick, &report);
                }
            }
            for event in self.degradations.drain(..) {
                source.log(tick, OnlineEvent::Degraded { event });
                observer.on_degradation(tick, event);
            }
            self.counters.manager_runs += 1;
        }

        // 5. Pre-step point: temperature-triggered migration (§8).
        if let Some((every, trigger_k)) = self.thermal_migration {
            if tick > 0 && tick.is_multiple_of(every) && try_migrate(machine, trigger_k) {
                self.thermal_migrations += 1;
            }
        }

        // 6. Advance the physics and the accumulators.
        let stats = machine.step(self.rt.tick_ms / 1e3);
        for fault in machine.take_fault_events() {
            self.fault_dirty |= matches!(fault, FaultEvent::CoreFailed { .. });
            let event = DegradationEvent::from(fault);
            source.log(tick, OnlineEvent::Degraded { event });
            observer.on_degradation(tick, event);
        }
        observer.on_step(machine, &stats);
        let c = &mut self.counters;
        if tick >= self.warmup_ticks {
            c.deviation_sum += (stats.total_power_w - self.budget.chip_w).abs();
            c.deviation_ticks += 1;
        }
        let mut f_sum = 0.0;
        let mut active = 0usize;
        for core in 0..machine.core_count() {
            if machine.thread_of(core).is_some() {
                f_sum += machine.effective_freq(core);
                active += 1;
            }
        }
        if active > 0 {
            c.freq_time_sum += f_sum / active as f64;
        }
        c.util_sum += active as f64 / machine.core_count() as f64;

        // 7. Completion detection.
        match source {
            JobSource::Closed => {}
            JobSource::Poisson(p) => p.detect_completions(tick, machine),
            JobSource::Fifo(f) => f.detect_completions(machine),
        }
    }

    /// Chip-level metrics in the batch outcome's shape, over the threads
    /// resident at the horizon. Degenerate runs guard the divisions:
    /// `ed2 = ∞` when nothing retired, `weighted_mips = 0` when no
    /// thread survives.
    pub(crate) fn chip_outcome(&self) -> TrialOutcome {
        let machine = self.machine();
        let threads = machine.threads();
        let per_thread_mips: Vec<f64> = threads.iter().map(|t| t.average_mips()).collect();
        let reference_mips: Vec<f64> = threads
            .iter()
            .map(|t| t.spec().ipc_at(4.0e9) * 4.0e9 / 1e6)
            .collect();
        let mips = machine.average_mips();
        let avg_power_w = machine.average_power();
        let wmips = if threads.is_empty() {
            0.0
        } else {
            weighted_mips(&per_thread_mips, &reference_mips)
        };
        let ed2 = |work: f64| {
            if work > 0.0 {
                ed2_index(avg_power_w, work)
            } else {
                f64::INFINITY
            }
        };
        let c = &self.counters;
        TrialOutcome {
            mips,
            weighted_mips: wmips,
            avg_power_w,
            ed2: ed2(mips),
            weighted_ed2: ed2(wmips),
            avg_freq_hz: c.freq_time_sum / self.total_ticks as f64,
            power_deviation_frac: c.deviation_sum
                / c.deviation_ticks.max(1) as f64
                / self.budget.chip_w,
            manager_runs: c.manager_runs,
            per_thread_mips,
        }
    }
}
