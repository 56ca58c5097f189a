//! The fleet dispatcher: routing arriving jobs to chips.
//!
//! Once per fleet epoch the cluster builds one [`ChipSummary`] per chip
//! — the capability digest a real cluster scheduler would gossip:
//! sorted effective-frequency profile of the live cores, current
//! resident/queued load, and power headroom — and hands the epoch's
//! arrivals to a [`Dispatcher`] one at a time. The dispatcher only
//! ever sees summaries, never machines, so every policy works from the
//! same information a datacenter-level scheduler would actually have.
//!
//! The shipped policies bracket the design space: [`RoundRobin`]
//! ignores state entirely, [`LeastLoaded`] balances job counts (the
//! classic load-only baseline), and [`VariationAware`] extends the
//! paper's core-level insight to the fleet — among chips with a free
//! core, send the job where the *remaining* silicon is fastest, because
//! process variation makes some chips' cores measurably quicker at the
//! same power.

use crate::online::JobSpec;
use std::ops::Deref;

/// A chip's effective-frequency profile (Hz, sorted descending by its
/// producer, [`super::ChipSim::effective_freq_profile`]) together with
/// its total, summed once at construction. Read-only: it derefs to the
/// frequency slice, and the total can never go stale.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqProfile {
    hz: Vec<f64>,
    total_hz: f64,
}

impl FreqProfile {
    /// The summed frequencies (Hz): the same `iter().sum()` over the
    /// same order, so bit-identical to summing the slice on demand.
    pub fn total_hz(&self) -> f64 {
        self.total_hz
    }
}

impl Deref for FreqProfile {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.hz
    }
}

impl From<Vec<f64>> for FreqProfile {
    fn from(hz: Vec<f64>) -> Self {
        let total_hz = hz.iter().sum();
        Self { hz, total_hz }
    }
}

impl FromIterator<f64> for FreqProfile {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<f64>>().into()
    }
}

/// The per-chip capability digest the dispatcher routes on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSummary {
    /// Chip index within the fleet.
    pub chip: usize,
    /// Rack the chip belongs to.
    pub rack: usize,
    /// *Effective* frequency every live core currently sustains (its
    /// DVFS level under the chip's power allocation), sorted
    /// descending (Hz) — the chip's variation fingerprint as throttled
    /// by its budget: a low-leakage die runs measurably faster at the
    /// same watts.
    pub freq_profile_hz: FreqProfile,
    /// Threads currently resident on cores.
    pub resident: usize,
    /// Jobs queued at the chip (routed or arrived, not yet admitted).
    pub queued: usize,
    /// Live cores (equals `freq_profile_hz.len()`).
    pub alive_cores: usize,
    /// The chip's current power allocation (watts).
    pub budget_w: f64,
    /// The chip's mean power over the last epoch (watts; 0 before the
    /// first).
    pub power_w: f64,
}

impl ChipSummary {
    /// Total jobs the chip is responsible for (resident + queued).
    pub fn load(&self) -> usize {
        self.resident + self.queued
    }

    /// Summed effective frequency of the cores still free after the
    /// current load is placed fastest-first (Hz; 0 when saturated):
    /// more terms = more free cores, faster terms = faster free cores.
    pub fn free_capability_hz(&self) -> f64 {
        self.freq_profile_hz.iter().skip(self.load()).sum()
    }
}

/// A routing policy: pick the destination chip for one arriving job.
///
/// `route` must return an index into `summaries`; the fleet enqueues
/// the job there (or sheds it if that chip's queue is at capacity) and
/// updates the target's `queued` count before the next call, so a
/// policy always sees the consequences of its own decisions within the
/// epoch.
pub trait Dispatcher: Send {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// The chip to route `job` to.
    fn route(&mut self, job: &JobSpec, summaries: &[ChipSummary]) -> usize;
}

/// State-blind rotation: job *i* goes to chip *i* mod *N*.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn route(&mut self, _job: &JobSpec, summaries: &[ChipSummary]) -> usize {
        let chip = self.cursor % summaries.len();
        self.cursor = self.cursor.wrapping_add(1);
        chip
    }
}

/// Load-only balancing: the chip with the fewest resident + queued
/// jobs, ties to the lowest chip index.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &'static str {
        "LeastLoaded"
    }

    fn route(&mut self, _job: &JobSpec, summaries: &[ChipSummary]) -> usize {
        summaries
            .iter()
            .min_by_key(|s| (s.load(), s.chip))
            .expect("fleet has at least one chip")
            .chip
    }
}

/// Variation-aware routing: maximize the chip's effective service
/// bandwidth discounted by the work already ahead of the job — the
/// fleet analogue of the paper's VarF policy. With a free core the
/// score is the chip's summed effective frequency (the fastest silicon
/// under budget wins); saturated, the same bandwidth is divided by the
/// backlog the job would queue behind, which approximates inverse
/// waiting time — where count-only [`LeastLoaded`] treats a fast and a
/// slow chip with equal queues as equal, this routes to the one that
/// will actually start the job sooner. Ties go to the lowest chip
/// index.
#[derive(Debug, Clone, Copy, Default)]
pub struct VariationAware;

impl Dispatcher for VariationAware {
    fn name(&self) -> &'static str {
        "VariationAware"
    }

    fn route(&mut self, _job: &JobSpec, summaries: &[ChipSummary]) -> usize {
        // Each chip is scored once; the comparisons read the scores.
        summaries
            .iter()
            .map(|s| (score(s), s.chip))
            .max_by(|a, b| {
                // A NaN score (e.g. a poisoned backlog estimate) must
                // lose to every real chip, not win the max.
                crate::order::desc_nan_worst(b.0, a.0).then(b.1.cmp(&a.1))
            })
            .expect("fleet has at least one chip")
            .1
    }
}

/// The [`VariationAware`] score: the chip's summed effective frequency
/// divided by one plus the jobs that would sit ahead of the new job
/// beyond its free cores. A dead chip scores zero; every chip with a
/// free core outranks every saturated chip of equal silicon.
fn score(s: &ChipSummary) -> f64 {
    let backlog = (s.load() + 1).saturating_sub(s.alive_cores);
    s.freq_profile_hz.total_hz() / (1.0 + backlog as f64)
}

/// The pre-caching [`VariationAware::route`]: re-sums every profile
/// and scores both sides of every comparison. The routing oracle.
#[cfg(test)]
fn route_reference(summaries: &[ChipSummary]) -> usize {
    let score = |s: &ChipSummary| {
        let speed_hz: f64 = s.freq_profile_hz.iter().sum();
        let backlog = (s.load() + 1).saturating_sub(s.alive_cores);
        speed_hz / (1.0 + backlog as f64)
    };
    summaries
        .iter()
        .max_by(|a, b| crate::order::desc_nan_worst(score(b), score(a)).then(b.chip.cmp(&a.chip)))
        .expect("fleet has at least one chip")
        .chip
}

/// The dispatcher selector — the spec-level counterpart of
/// [`crate::manager::ManagerSpec`]: a copyable tag experiments sweep
/// over, turned into a stateful [`Dispatcher`] per run by
/// [`DispatchPolicy::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`VariationAware`].
    VariationAware,
}

impl DispatchPolicy {
    /// The policy's display name (matches [`Dispatcher::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "RoundRobin",
            DispatchPolicy::LeastLoaded => "LeastLoaded",
            DispatchPolicy::VariationAware => "VariationAware",
        }
    }

    /// A fresh dispatcher instance.
    pub fn build(&self) -> Box<dyn Dispatcher> {
        match self {
            DispatchPolicy::RoundRobin => Box::new(RoundRobin::default()),
            DispatchPolicy::LeastLoaded => Box::new(LeastLoaded),
            DispatchPolicy::VariationAware => Box::new(VariationAware),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        let pool = cmpsim::app_pool(&cmpsim::MachineConfig::paper_default().dynamic);
        JobSpec {
            arrival_ms: 0.0,
            spec: pool[0].clone(),
            instructions: 1.0e6,
            phase_offset_ms: 0.0,
        }
    }

    fn summary(chip: usize, freqs: &[f64], resident: usize, queued: usize) -> ChipSummary {
        ChipSummary {
            chip,
            rack: 0,
            freq_profile_hz: freqs.to_vec().into(),
            resident,
            queued,
            alive_cores: freqs.len(),
            budget_w: 40.0,
            power_w: 0.0,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let s = vec![
            summary(0, &[4.0e9], 0, 0),
            summary(1, &[4.0e9], 0, 0),
            summary(2, &[4.0e9], 0, 0),
        ];
        let j = job();
        let picks: Vec<usize> = (0..5).map(|_| rr.route(&j, &s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_counts_queued_jobs_and_breaks_ties_low() {
        let mut ll = LeastLoaded;
        let j = job();
        let s = vec![
            summary(0, &[4.0e9, 4.0e9], 1, 1),
            summary(1, &[4.0e9, 4.0e9], 1, 0),
            summary(2, &[4.0e9, 4.0e9], 0, 1),
        ];
        assert_eq!(ll.route(&j, &s), 1, "queued counts as load");
        let tied = vec![summary(0, &[4.0e9], 1, 0), summary(1, &[4.0e9], 1, 0)];
        assert_eq!(ll.route(&j, &tied), 0, "ties go to the lowest chip");
    }

    /// A chip whose score collapses to NaN (here via a NaN frequency
    /// reading in its profile) must lose the `max_by`, not win it the
    /// way `partial_cmp(..).unwrap_or(Equal)` silently allowed.
    #[test]
    fn variation_aware_never_routes_to_nan_score() {
        let mut va = VariationAware;
        let j = job();
        let s = vec![
            summary(0, &[f64::NAN, 4.5e9], 0, 0),
            summary(1, &[3.0e9], 0, 0),
            summary(2, &[f64::NAN], 0, 0),
        ];
        assert_eq!(va.route(&j, &s), 1, "the only real score must win");
        // All-NaN fleet: still deterministic (lowest chip index).
        let s = vec![summary(0, &[f64::NAN], 0, 0), summary(1, &[f64::NAN], 0, 0)];
        assert_eq!(va.route(&j, &s), 0);
    }

    #[test]
    fn variation_aware_prefers_fast_free_silicon() {
        let mut va = VariationAware;
        let j = job();
        // Chip 0: one free core at 3.8 GHz; chip 1: one free core at
        // 4.2 GHz. Equal load — the faster free core must win.
        let s = vec![
            summary(0, &[4.0e9, 3.8e9], 1, 0),
            summary(1, &[4.0e9, 4.2e9], 1, 0),
        ];
        assert_eq!(va.route(&j, &s), 1);
        // A saturated fast chip loses to a slow chip with a free core.
        let s = vec![
            summary(0, &[4.5e9, 4.5e9], 2, 3),
            summary(1, &[3.5e9, 3.5e9], 1, 0),
        ];
        assert_eq!(va.route(&j, &s), 1);
        // All saturated: smallest backlog wins.
        let s = vec![summary(0, &[4.0e9], 1, 4), summary(1, &[4.0e9], 1, 2)];
        assert_eq!(va.route(&j, &s), 1);
    }

    /// The scored-once route must pick exactly what the re-summing
    /// `max_by` picks, on random fleets mixing NaN frequencies, dead
    /// chips (empty profiles), saturated chips and exact score ties.
    #[test]
    fn variation_aware_matches_reference_route() {
        let mut rng = vastats::SimRng::seed_from(31);
        let mut va = VariationAware;
        let j = job();
        let levels = [3.0e9, 3.5e9, 4.0e9, 4.5e9];
        for _ in 0..2_000 {
            let chips = 1 + rng.index(12);
            let mut s: Vec<ChipSummary> = (0..chips)
                .map(|chip| {
                    let alive = match rng.index(6) {
                        0 => 0,
                        _ => 1 + rng.index(4),
                    };
                    let mut freqs: Vec<f64> = (0..alive)
                        .map(|_| match rng.index(10) {
                            0 => f64::NAN,
                            _ => levels[rng.index(levels.len())],
                        })
                        .collect();
                    freqs.sort_by(|a, b| b.total_cmp(a));
                    summary(chip, &freqs, rng.index(alive + 1), rng.index(4))
                })
                .collect();
            if rng.index(4) == 0 {
                // Reversed chip order: ties must still go to the lowest
                // chip index, not the first position.
                s.reverse();
            }
            assert_eq!(va.route(&j, &s), route_reference(&s), "{s:?}");
        }
    }

    #[test]
    fn freq_profile_caches_the_slice_sum() {
        let p = FreqProfile::from(vec![4.2e9, 4.0e9, 3.8e9]);
        assert_eq!(p.total_hz().to_bits(), p.iter().sum::<f64>().to_bits());
        assert_eq!(p.len(), 3);
        let collected: FreqProfile = [1.5, 2.5].into_iter().collect();
        assert_eq!(&collected[..], &[1.5, 2.5]);
        assert_eq!(collected.total_hz(), 4.0);
        let empty = FreqProfile::from(Vec::new());
        assert_eq!(
            empty.total_hz().to_bits(),
            [0.0f64; 0].iter().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn free_capability_skips_the_fastest_loaded_slots() {
        let s = summary(0, &[4.2e9, 4.0e9, 3.8e9], 1, 1);
        // load 2: only the slowest core remains free.
        assert!((s.free_capability_hz() - 3.8e9).abs() < 1.0);
        let idle = summary(0, &[4.2e9, 4.0e9], 0, 0);
        assert!((idle.free_capability_hz() - 8.2e9).abs() < 1.0);
        let full = summary(0, &[4.2e9], 1, 0);
        assert_eq!(full.free_capability_hz(), 0.0);
    }

    #[test]
    fn policy_names_match_instances() {
        for p in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::VariationAware,
        ] {
            assert_eq!(p.name(), p.build().name());
        }
    }
}
