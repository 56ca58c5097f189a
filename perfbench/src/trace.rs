//! Host-time attribution for the traced run.
//!
//! The benchmark puts no spans inside the library. It stamps time at
//! the boundaries the library already exposes and charges each gap
//! between two stamps to the boundary that closes it:
//!
//! * inside a trial arm, the [`TrialObserver`] hooks: `on_schedule`
//!   closes a `sched` gap, `on_manager_run` a manager gap, `on_step` a
//!   `cmpsim.step` gap. The first gap of an arm (from the arm's start
//!   to its first hook) and the last one (from its last hook to the
//!   engine's own end-of-arm stamp) are the trial loop's own time;
//! * around the engine, the observers' creation stamps and the arms'
//!   wall times give each worker a timeline: the gap before a trial's
//!   first arm is that trial's construction (die, machine, workload
//!   draw), and the gap after a worker's last arm is time it waited
//!   for the runner to join.
//!
//! Work the observer itself does (stamping, the extra
//! [`PmView::from_machine`] call) is skipped over, never charged.

use cmpsim::{Machine, StepStats};
use std::collections::BTreeMap;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use vasched::engine::{SeedPlan, TrialRunner};
use vasched::experiments::Context;
use vasched::manager::{PmView, SolveReport, WarmStart};
use vasched::runtime::TrialObserver;
use vastats::SimRng;

/// Total host time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Total nanoseconds.
    pub ns: f64,
    /// Calls (or gaps) the total is over.
    pub calls: u64,
}

impl Span {
    /// Adds one call of duration `d`.
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as f64;
        self.calls += 1;
    }

    /// Mean time per call in units of `per_ns` nanoseconds (0 without
    /// calls).
    pub fn mean(&self, per_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64 / per_ns
        }
    }
}

/// Per-layer totals of a traced run, plus the coverage accounting.
#[derive(Debug, Default)]
pub struct Layers {
    spans: BTreeMap<&'static str, Span>,
    counts: BTreeMap<&'static str, f64>,
    /// Nanoseconds charged to a named layer by a direct stamp.
    pub covered_ns: f64,
    /// Nanoseconds of worker capacity the traced units had (workers ×
    /// wall time).
    pub capacity_ns: f64,
    /// Worker nanoseconds spent before each worker's last arm ended.
    pub busy_ns: f64,
}

impl Layers {
    /// Adds `span` to layer `name`.
    pub fn add(&mut self, name: &'static str, span: Span) {
        let s = self.spans.entry(name).or_default();
        s.ns += span.ns;
        s.calls += span.calls;
    }

    /// Adds one call of duration `d` to layer `name`.
    pub fn add_call(&mut self, name: &'static str, d: Duration) {
        self.spans.entry(name).or_default().add(d);
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The span of layer `name` (empty when never charged).
    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The value of counter `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or_default()
    }
}

/// The observer hooks that close a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// `on_schedule`: the OS scheduling epoch.
    Schedule,
    /// `on_manager_run`: one power-manager invocation.
    Manager,
    /// `on_step`: one machine tick.
    Step,
}

/// Charges the time between successive stamps to the hook that closes
/// each gap. The first gap, from the arm's start to its first hook, is
/// the trial loop's own set-up and is kept apart as `head`.
#[derive(Debug, Clone)]
pub struct GapClock {
    last: Instant,
    started: bool,
    /// Arm start to first hook.
    pub head: Duration,
    /// Gaps closed by `on_schedule`.
    pub sched: Span,
    /// Gaps closed by `on_manager_run`.
    pub manager: Span,
    /// Gaps closed by `on_step`.
    pub step: Span,
}

impl GapClock {
    /// A clock whose first gap opens at `start`.
    pub fn new(start: Instant) -> Self {
        Self {
            last: start,
            started: false,
            head: Duration::ZERO,
            sched: Span::default(),
            manager: Span::default(),
            step: Span::default(),
        }
    }

    /// Charges the gap since the previous stamp to `hook` (or to
    /// `head` if this is the first stamp) and restarts the clock.
    pub fn stamp(&mut self, now: Instant, hook: Hook) {
        let gap = now.saturating_duration_since(self.last);
        self.last = now;
        if !self.started {
            self.started = true;
            self.head = gap;
            return;
        }
        match hook {
            Hook::Schedule => self.sched.add(gap),
            Hook::Manager => self.manager.add(gap),
            Hook::Step => self.step.add(gap),
        }
    }

    /// Restarts the clock at `now` without charging anything, so work
    /// the observer does itself is billed to no layer.
    pub fn skip_to(&mut self, now: Instant) {
        self.last = now;
    }

    /// The last stamp (or the start, before any).
    pub fn last(&self) -> Instant {
        self.last
    }

    /// Everything charged so far, `head` included.
    pub fn charged(&self) -> Duration {
        let ns = self.sched.ns + self.manager.ns + self.step.ns;
        self.head + Duration::from_nanos(ns as u64)
    }
}

/// The traced run's observer for one arm of one trial (batch or
/// online): a [`GapClock`] over the arm, a timed read-only view build
/// before each DVFS tick, and the solver's own counters.
#[derive(Debug)]
pub struct ArmTrace {
    /// The worker thread the arm ran on.
    pub worker: ThreadId,
    /// When the engine made this observer, just before the arm began.
    pub created: Instant,
    /// Gap attribution over the arm.
    pub clock: GapClock,
    dvfs_every: usize,
    /// `on_step` calls.
    pub steps: u64,
    /// `on_schedule` calls.
    pub schedules: u64,
    /// `on_manager_run` calls.
    pub manager_runs: u64,
    /// [`PmView::from_machine`] builds timed before DVFS ticks.
    pub view: Span,
    /// Linear-program solves reported (warm-start applicable).
    pub lp_solves: u64,
    /// Simplex pivots over those solves.
    pub pivots: u64,
    /// Solves seeded by a cached basis.
    pub warm_hits: u64,
    /// Jobs shed by online admission control.
    pub shed: u64,
}

impl ArmTrace {
    /// An observer for an arm whose manager runs every `dvfs_every`
    /// ticks, starting its clock now.
    pub fn new(dvfs_every: usize) -> Self {
        let created = Instant::now();
        Self {
            worker: std::thread::current().id(),
            created,
            clock: GapClock::new(created),
            dvfs_every: dvfs_every.max(1),
            steps: 0,
            schedules: 0,
            manager_runs: 0,
            view: Span::default(),
            lp_solves: 0,
            pivots: 0,
            warm_hits: 0,
            shed: 0,
        }
    }

    /// The gap from the last hook to the arm's end, given the wall time
    /// the engine measured for the arm.
    pub fn tail(&self, wall: Duration) -> Duration {
        (self.created + wall).saturating_duration_since(self.clock.last())
    }
}

impl TrialObserver for ArmTrace {
    fn on_schedule(&mut self, _tick: usize, _mapping: &[Option<usize>]) {
        self.clock.stamp(Instant::now(), Hook::Schedule);
        self.schedules += 1;
    }

    fn on_manager_run(&mut self, _tick: usize, _levels: &[usize]) {
        self.clock.stamp(Instant::now(), Hook::Manager);
        self.manager_runs += 1;
    }

    fn on_solve(&mut self, _tick: usize, report: &SolveReport) {
        if report.warm != WarmStart::NotApplicable {
            self.lp_solves += 1;
            self.pivots += report.pivots as u64;
            if report.warm == WarmStart::Hit {
                self.warm_hits += 1;
            }
        }
    }

    fn on_step(&mut self, machine: &Machine, _stats: &StepStats) {
        let now = Instant::now();
        self.clock.stamp(now, Hook::Step);
        self.steps += 1;
        // The next tick is a DVFS tick: time the view the manager is
        // about to build, then restart the clock past it.
        if self.steps.is_multiple_of(self.dvfs_every as u64) {
            std::hint::black_box(PmView::from_machine(machine));
            let built = Instant::now();
            self.view.add(built - now);
            self.clock.skip_to(built);
        }
    }

    fn on_job_shed(&mut self, _tick: usize, _job: usize) {
        self.shed += 1;
    }
}

/// Where one arm ran: on which worker, in which trial, when it started
/// and how long the engine says it took.
#[derive(Debug, Clone, Copy)]
pub struct ArmSlot {
    /// Worker thread.
    pub worker: ThreadId,
    /// Trial index within the unit.
    pub trial: usize,
    /// Arm index within the trial.
    pub arm: usize,
    /// Observer creation (the arm's start).
    pub start: Instant,
    /// The engine's wall time for the arm.
    pub wall: Duration,
}

/// The engine-level split of one traced runner call.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per trial: the gap on its worker before its first arm — die
    /// manufacture, machine construction, workload draw, and (for a
    /// worker's first trial) the thread's start. The engine's short
    /// hand-offs between arms of one trial are charged to nothing.
    pub construct: Vec<Duration>,
    /// Worker time after its last arm until the runner returned.
    pub idle: Duration,
    /// Worker capacity: worker threads × wall time.
    pub capacity: Duration,
}

/// Rebuilds each worker's timeline for a runner call that started at
/// `start`, returned at `end`, ran `trials` trials on up to `workers`
/// threads, and produced `arms`.
pub fn timeline(
    start: Instant,
    end: Instant,
    workers: usize,
    trials: usize,
    arms: &[ArmSlot],
) -> Timeline {
    let wall = end.saturating_duration_since(start);
    let threads = workers.min(trials).max(1);
    let mut seen: Vec<ThreadId> = Vec::new();
    for a in arms {
        if !seen.contains(&a.worker) {
            seen.push(a.worker);
        }
    }
    let mut out = Timeline {
        construct: vec![Duration::ZERO; trials],
        // A worker that never got a trial idled for the whole call.
        idle: wall * threads.saturating_sub(seen.len()) as u32,
        capacity: wall * threads as u32,
    };
    for worker in seen {
        let mut mine: Vec<&ArmSlot> = arms.iter().filter(|a| a.worker == worker).collect();
        mine.sort_by_key(|a| a.start);
        let mut cursor = start;
        for a in mine {
            if a.arm == 0 {
                out.construct[a.trial] += a.start.saturating_duration_since(cursor);
            }
            cursor = cursor.max(a.start + a.wall);
        }
        out.idle += end.saturating_duration_since(cursor);
    }
    out
}

/// Charges arm `arm` of trial `trial`, which the engine timed at
/// `wall_s`: hook gaps to their layers, the arm's head and tail to
/// `self_layer`. Returns the arm's place on its worker's timeline.
pub fn charge_arm(
    trial: usize,
    arm: usize,
    wall_s: f64,
    o: &ArmTrace,
    manager_layer: &'static str,
    self_layer: &'static str,
    layers: &mut Layers,
) -> ArmSlot {
    let wall = Duration::from_secs_f64(wall_s);
    let c = &o.clock;
    layers.add("sched", c.sched);
    layers.add(manager_layer, c.manager);
    layers.add("cmpsim.step", c.step);
    layers.add("manager.view", o.view);
    let own = c.head + o.tail(wall);
    layers.add_call(self_layer, own);
    // The view build is the observer's own call into the manager layer:
    // inside the traced wall time, and timed directly.
    layers.covered_ns += (c.charged() + o.tail(wall)).as_nanos() as f64 + o.view.ns;
    layers.count("cmpsim.ticks", o.steps as f64);
    layers.count("sched.epochs", o.schedules as f64);
    layers.count("linprog.solves", o.lp_solves as f64);
    layers.count("linprog.pivots", o.pivots as f64);
    layers.count("linprog.warm_hits", o.warm_hits as f64);
    ArmSlot {
        worker: o.worker,
        trial,
        arm,
        start: o.created,
        wall,
    }
}

/// Charges a runner call's engine-level gaps: each trial's
/// construction gap (die, machine and workload, as the engine builds
/// them) and the wait at the join.
pub fn charge_engine(t: &Timeline, layers: &mut Layers) {
    for gap in &t.construct {
        layers.add_call("engine.construct", *gap);
        layers.covered_ns += gap.as_nanos() as f64;
    }
    layers.add_call("engine.idle", t.idle);
    layers.covered_ns += t.idle.as_nanos() as f64;
    layers.capacity_ns += t.capacity.as_nanos() as f64;
    layers.busy_ns += (t.capacity - t.idle).as_nanos() as f64;
}

/// Times [`Context::make_die`] and [`Context::make_machine`] on the
/// seeds a runner derives for trials `0..trials` of `plan`, outside any
/// timed unit: the split of the engine's construction gap. The calls
/// fan out over `runner`'s workers, so they meet the same contention as
/// the engine's own construction.
pub fn replay_construction(
    ctx: &Context,
    runner: &TrialRunner,
    plan: SeedPlan,
    seed: u64,
    trials: usize,
    layers: &mut Layers,
) {
    let times = runner.map(trials, |k| {
        let mut rng = SimRng::seed_from(plan.derive(seed, k));
        let t = Instant::now();
        let die = std::hint::black_box(ctx.make_die(&mut rng));
        let built = Instant::now();
        std::hint::black_box(ctx.make_machine(&die));
        (built - t, built.elapsed())
    });
    for &(die, machine) in &times {
        layers.add_call("varius.die", die);
        layers.add_call("cmpsim.machine_new", machine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn each_gap_is_charged_to_the_hook_that_closes_it() {
        let t0 = Instant::now();
        let mut clock = GapClock::new(t0);
        clock.stamp(t0 + ms(5), Hook::Schedule); // head: arm set-up
        clock.stamp(t0 + ms(7), Hook::Manager); // 2 ms manager
        clock.stamp(t0 + ms(10), Hook::Step); // 3 ms step
        clock.stamp(t0 + ms(11), Hook::Step); // 1 ms step
        clock.stamp(t0 + ms(15), Hook::Schedule); // 4 ms sched
        assert_eq!(clock.head, ms(5));
        assert_eq!(clock.manager, Span { ns: 2e6, calls: 1 });
        assert_eq!(clock.step, Span { ns: 4e6, calls: 2 });
        assert_eq!(clock.sched, Span { ns: 4e6, calls: 1 });
        assert_eq!(clock.charged(), ms(15));
        assert_eq!(clock.step.mean(1e3), 2000.0);
    }

    #[test]
    fn skipped_time_is_charged_to_no_layer() {
        let t0 = Instant::now();
        let mut clock = GapClock::new(t0);
        clock.stamp(t0 + ms(1), Hook::Step);
        clock.skip_to(t0 + ms(4)); // observer work
        clock.stamp(t0 + ms(6), Hook::Manager);
        assert_eq!(clock.manager.ns, 2e6);
        assert_eq!(clock.charged(), ms(3));
    }

    #[test]
    fn timeline_splits_construction_from_join_idle() {
        let t0 = Instant::now();
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let slot = |worker, trial, arm, start: u64, wall: u64| ArmSlot {
            worker,
            trial,
            arm,
            start: t0 + ms(start),
            wall: ms(wall),
        };
        // Worker a: trial 0 built in 2 ms, arms 2..5 and 6..9; trial 2
        // built 9..10, arm 10..12. Worker b: trial 1 built in 3 ms,
        // one arm 3..15. The call returns at 15.
        let arms = [
            slot(a, 0, 1, 6, 3),
            slot(a, 0, 0, 2, 3),
            slot(b, 1, 0, 3, 12),
            slot(a, 2, 0, 10, 2),
        ];
        let t = timeline(t0, t0 + ms(15), 2, 3, &arms);
        assert_eq!(t.construct, vec![ms(2), ms(3), ms(1)]);
        assert_eq!(t.idle, ms(3));
        assert_eq!(t.capacity, ms(30));
    }

    #[test]
    fn a_worker_without_trials_idles_for_the_whole_call() {
        let t0 = Instant::now();
        let a = std::thread::current().id();
        let arms = [ArmSlot {
            worker: a,
            trial: 0,
            arm: 0,
            start: t0 + ms(1),
            wall: ms(8),
        }];
        let t = timeline(t0, t0 + ms(10), 2, 2, &arms);
        assert_eq!(t.idle, ms(10) + ms(1));
        assert_eq!(t.capacity, ms(20));
    }
}
