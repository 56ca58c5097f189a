//! Profiling support (paper §5.2 and Table 3).
//!
//! The scheduling and power-management algorithms never see the
//! simulator's internals — only the profile information the paper
//! allows them:
//!
//! * **Manufacturer data** ([`CoreProfile`]): per-core static power at
//!   each voltage level (measured under zero load), the maximum
//!   frequency supported at the maximum voltage, and the (V, f) table.
//! * **Run-time profiles** ([`ThreadProfile`]): per-thread dynamic
//!   power and IPC, each measured while the thread runs *on one random
//!   core*, then normalized to reference conditions so threads profiled
//!   on different cores can be ranked against each other.

use cmpsim::Machine;
use vastats::SimRng;

/// Manufacturer-provided data for one core (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// Core index.
    pub core: usize,
    /// Static power at each table voltage, ascending by voltage (watts).
    pub static_power_w: Vec<f64>,
    /// Maximum frequency supported at the maximum voltage (Hz).
    pub max_freq_hz: f64,
}

impl CoreProfile {
    /// Static power at the maximum voltage (the `VarP` ranking key).
    pub fn static_at_max_voltage(&self) -> f64 {
        *self
            .static_power_w
            .last()
            .expect("profile has at least one voltage level")
    }
}

/// Run-time profile of one thread, measured on one (random) core and
/// normalized to reference conditions (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadProfile {
    /// Thread index in the workload.
    pub thread: usize,
    /// Dynamic power scaled to 1 V / reference frequency (watts).
    pub dynamic_power_w: f64,
    /// IPC (assumed frequency-independent).
    pub ipc: f64,
    /// The core the thread was profiled on.
    pub profiled_on: usize,
}

/// Collects the manufacturer profiles of every core.
pub fn core_profiles(machine: &Machine) -> Vec<CoreProfile> {
    (0..machine.core_count())
        .map(|core| {
            let vf = machine.vf_table(core);
            let static_power_w = (0..vf.len())
                .map(|l| machine.manufacturer_static_power(core, vf.voltage_at(l)))
                .collect();
            CoreProfile {
                core,
                static_power_w,
                max_freq_hz: machine.rated_max_freq(core),
            }
        })
        .collect()
}

/// Profiles every thread of the loaded workload by briefly running each
/// one on a random core of a *scratch copy* of the machine and reading
/// its power and performance counters.
///
/// The measured total power has the manufacturer static power (at the
/// profiling core's voltage) subtracted, and the remainder is scaled by
/// `1/V²` and `f_ref/f` so that threads profiled on different cores can
/// be compared (§5.2: "the power measured is scaled according to the
/// frequency and voltage of the particular core used").
///
/// The machine is cloned once per call, not once per thread: between
/// threads the probe is reset with [`Machine::import_state`] to the
/// state captured right after the clone. What a clone carries beyond
/// [`cmpsim::MachineState`] — step scratch, the leakage memo, the
/// thermal step-operator cache — never changes a result, so every
/// profile is bit-identical to probing a fresh clone per thread.
///
/// # Panics
///
/// Panics if the machine has no threads loaded.
pub fn thread_profiles(machine: &Machine, rng: &mut SimRng) -> Vec<ThreadProfile> {
    let n_threads = machine.threads().len();
    assert!(n_threads > 0, "no threads loaded to profile");
    // Probe on a scratch machine so profiling does not perturb the real
    // run. Fault events still pending on the machine are per-step
    // output, not state, and no sensor reads them: drain them from the
    // probe so its state can be captured.
    let mut probe = machine.clone();
    probe.take_fault_events();
    let state = probe.export_state();
    let mut profiles = Vec::with_capacity(n_threads);
    for thread in 0..n_threads {
        if thread > 0 {
            probe.import_state(&state);
        }
        profiles.push(probe_thread(&mut probe, thread, rng));
    }
    profiles
}

/// Runs `thread` alone on a random live core of `probe` at that core's
/// maximum level for two 1 ms ticks and reads its normalized profile.
fn probe_thread(probe: &mut Machine, thread: usize, rng: &mut SimRng) -> ThreadProfile {
    let n_cores = probe.core_count();
    let mut core = rng.index(n_cores);
    // Failed cores cannot host a probe; walk forward to the next live
    // one without consuming further randomness, so fault-free runs and
    // faulted runs draw identical RNG streams.
    if !probe.core_alive(core) {
        core = (1..n_cores)
            .map(|d| (core + d) % n_cores)
            .find(|&c| probe.core_alive(c))
            .expect("all cores have failed; nothing left to profile on");
    }
    let mut mapping = vec![None; n_cores];
    mapping[core] = Some(thread);
    probe.assign(&mapping);
    let level = probe.vf_table(core).max_level();
    probe.set_level(core, level);
    // A couple of ticks to populate the sensors.
    probe.step(0.001);
    probe.step(0.001);

    let v = probe.vf_table(core).voltage_at(level);
    let f = probe.vf_table(core).freq_at(level);
    let total = probe.sensor_core_power(core);
    let static_w = probe.manufacturer_static_power(core, v);
    let dynamic = (total - static_w).max(0.0);
    // Scale to reference conditions: dynamic power ~ V^2 * f.
    let f_ref = probe.config().dynamic.f_ref_hz();
    let scaled = if f > 0.0 {
        dynamic / (v * v) * (f_ref / f)
    } else {
        0.0
    };
    ThreadProfile {
        thread,
        dynamic_power_w: scaled,
        ipc: probe.sensor_core_ipc(core),
        profiled_on: core,
    }
}

/// The pre-reuse [`thread_profiles`]: a fresh clone of the machine per
/// thread. The oracle the reused probe is checked against bit for bit.
#[cfg(test)]
fn thread_profiles_reference(machine: &Machine, rng: &mut SimRng) -> Vec<ThreadProfile> {
    (0..machine.threads().len())
        .map(|thread| probe_thread(&mut machine.clone(), thread, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::{app_pool, FaultPlan, MachineConfig, Workload};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine_with(n: usize, seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        let fp = paper_20_core();
        let mut m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(seed + 1);
        let w = Workload::draw(&pool, n, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        m
    }

    #[test]
    fn core_profiles_cover_all_cores() {
        let m = machine_with(4, 1);
        let profiles = core_profiles(&m);
        assert_eq!(profiles.len(), 20);
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.core, i);
            assert_eq!(p.static_power_w.len(), m.vf_table(i).len());
            // Static power grows with voltage.
            for w in p.static_power_w.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(p.max_freq_hz > 0.0);
        }
    }

    #[test]
    fn profiles_differ_across_cores() {
        let m = machine_with(4, 2);
        let profiles = core_profiles(&m);
        let p0 = profiles[0].static_at_max_voltage();
        assert!(
            profiles
                .iter()
                .any(|p| (p.static_at_max_voltage() - p0).abs() > 0.01),
            "variation should differentiate core static power"
        );
    }

    #[test]
    fn thread_profiles_rank_power_correctly() {
        // vortex (4.4 W) must profile above mcf (1.5 W) even when they
        // are measured on different random cores.
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(3));
        let fp = paper_20_core();
        let mut m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let pool = app_pool(&m.config().dynamic);
        let vortex = pool.iter().find(|a| a.name == "vortex").unwrap().clone();
        let mcf = pool.iter().find(|a| a.name == "mcf").unwrap().clone();
        let w = Workload::from_specs(vec![vortex, mcf]);
        let mut rng = SimRng::seed_from(4);
        m.load_threads(w.spawn_threads(&mut rng));
        let profiles = thread_profiles(&m, &mut rng);
        assert!(profiles[0].dynamic_power_w > profiles[1].dynamic_power_w);
        assert!(profiles[0].ipc > profiles[1].ipc);
    }

    #[test]
    fn profiling_does_not_perturb_machine() {
        let m = machine_with(6, 5);
        let energy_before = m.energy_j();
        let mut rng = SimRng::seed_from(6);
        let _ = thread_profiles(&m, &mut rng);
        assert_eq!(m.energy_j(), energy_before);
        assert!(m.assignment().iter().all(|a| a.is_none()));
    }

    /// Asserts the reused probe profiles `m` exactly like a fresh clone
    /// per thread: every field bit for bit, and the same RNG stream
    /// consumed.
    fn assert_matches_reference(m: &Machine, seed: u64, case: &str) {
        let (mut fast_rng, mut ref_rng) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        let fast = thread_profiles(m, &mut fast_rng);
        let reference = thread_profiles_reference(m, &mut ref_rng);
        assert_eq!(fast.len(), reference.len(), "{case}: profile count");
        for (a, b) in fast.iter().zip(&reference) {
            assert_eq!(a.thread, b.thread, "{case}");
            assert_eq!(a.profiled_on, b.profiled_on, "{case}: thread {}", a.thread);
            assert_eq!(
                a.dynamic_power_w.to_bits(),
                b.dynamic_power_w.to_bits(),
                "{case}: thread {} power",
                a.thread
            );
            assert_eq!(
                a.ipc.to_bits(),
                b.ipc.to_bits(),
                "{case}: thread {} ipc",
                a.thread
            );
        }
        assert_eq!(
            fast_rng.next_u64(),
            ref_rng.next_u64(),
            "{case}: RNG stream"
        );
    }

    /// `machine_with(n)` with every thread on core `i`, warmed for a
    /// few ticks so the probe has temperatures, progress and sensors to
    /// restore between threads.
    fn running_machine(n: usize, seed: u64) -> Machine {
        let mut m = machine_with(n, seed);
        let mapping: Vec<Option<usize>> =
            (0..m.core_count()).map(|c| (c < n).then_some(c)).collect();
        m.assign(&mapping);
        for _ in 0..20 {
            m.step(0.001);
        }
        m
    }

    #[test]
    fn reused_probe_matches_clone_per_thread() {
        for n in [1, 8, 20] {
            assert_matches_reference(&machine_with(n, 11), 12, &format!("{n} idle threads"));
            assert_matches_reference(&running_machine(n, 13), 14, &format!("{n} running threads"));
        }
    }

    #[test]
    fn reused_probe_matches_reference_with_faults() {
        // Half the cores dead: with 20 draws the walk past a dead core
        // is all but certain. Pending (undrained) fault events stay on
        // the machine.
        let mut m = machine_with(8, 15);
        let mut plan = FaultPlan::none().with_seed(5).with_sensor_noise(0.05);
        for core in (0..20).step_by(2) {
            plan = plan.with_core_failure(core, 0.0);
        }
        m.install_faults(&plan).unwrap();
        let mapping: Vec<Option<usize>> = (0..20)
            .map(|c| (c % 2 == 1 && c < 16).then_some(c / 2))
            .collect();
        m.assign(&mapping);
        for _ in 0..5 {
            m.step(0.001);
        }
        assert_eq!(m.alive_core_count(), 10);
        for seed in [16, 17, 18] {
            assert_matches_reference(&m, seed, "dead cores + sensor noise");
        }
        let profiles = thread_profiles(&m, &mut SimRng::seed_from(16));
        assert!(profiles.iter().all(|p| m.core_alive(p.profiled_on)));
    }

    #[test]
    fn reused_probe_matches_reference_under_caps_and_stalls() {
        // UniFreq: every core capped to the slowest active core.
        let mut m = running_machine(20, 19);
        m.set_uniform_frequency();
        assert_matches_reference(&m, 20, "UniFreq caps");

        // Pending DVFS stalls on every core, plus a migration stall.
        let mut m = running_machine(8, 21);
        for core in 0..m.core_count() {
            m.set_level(core, 0);
        }
        m.charge_stall(3, 0.004);
        assert!(m.transition_stall_s(0) > 0.0);
        assert_matches_reference(&m, 22, "pending DVFS stall");
    }

    #[test]
    fn profile_count_matches_threads() {
        let m = machine_with(9, 7);
        let mut rng = SimRng::seed_from(8);
        let profiles = thread_profiles(&m, &mut rng);
        assert_eq!(profiles.len(), 9);
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.thread, i);
            assert!(p.ipc > 0.0);
            assert!(p.dynamic_power_w > 0.0);
        }
    }
}
