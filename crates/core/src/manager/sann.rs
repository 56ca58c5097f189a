//! SAnn — power management by simulated annealing (paper §4.3.2, §6.5).
//!
//! SAnn searches the same space as LinOpt — one (V, f) level per active
//! core — but evaluates power *exactly* per level (no linear
//! approximation). It is the paper's near-optimal reference: within 1%
//! of exhaustive search for small configurations, and ~2% above LinOpt
//! in throughput, at orders of magnitude higher computation cost.
//!
//! The initial point comes from "a simple greedy heuristic": starting
//! from all-minimum levels, repeatedly grant one level step to the core
//! with the best marginal throughput per watt while the budget holds.

use crate::manager::{PmView, PowerBudget, PowerManager};
use anneal::{AnnealConfig, Annealer, Objective};
use vastats::SimRng;

/// The SAnn controller as a [`PowerManager`] with a fixed evaluation
/// budget per invocation.
#[derive(Debug, Clone, Copy)]
pub struct SAnn {
    evaluations: usize,
}

impl SAnn {
    /// A controller spending `evaluations` cost evaluations per DVFS
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `evaluations` is zero.
    pub fn new(evaluations: usize) -> Self {
        assert!(evaluations > 0, "SAnn needs an evaluation budget");
        Self { evaluations }
    }
}

impl PowerManager for SAnn {
    fn name(&self) -> &'static str {
        "SAnn"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, rng: &mut SimRng) -> Vec<usize> {
        sann_levels(view, budget, self.evaluations, rng)
    }
}

/// Penalty weight (MIPS per watt of violation) that makes
/// budget-violating points strictly worse than any feasible point.
const PENALTY_MIPS_PER_W: f64 = 1.0e6;

/// Greedy warm start: climb level-by-level, best throughput-per-watt
/// first, while the budget holds.
pub fn greedy_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
    let n = view.len();
    let mut levels = view.min_levels();
    loop {
        let current_power = view.total_power(&levels);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            let core = &view.cores()[i];
            if levels[i] + 1 >= core.level_count() {
                continue;
            }
            let dp = core.power_w[levels[i] + 1] - core.power_w[levels[i]];
            let dtp = core.mips_at(levels[i] + 1) - core.mips_at(levels[i]);
            if current_power + dp > budget.chip_w || core.power_w[levels[i] + 1] > budget.per_core_w
            {
                continue;
            }
            let efficiency = if dp > 1e-12 { dtp / dp } else { f64::INFINITY };
            if best.is_none_or(|(_, e)| efficiency > e) {
                best = Some((i, efficiency));
            }
        }
        match best {
            Some((i, _)) => levels[i] += 1,
            None => return levels,
        }
    }
}

/// Computes SAnn's level assignment with the given evaluation budget.
///
/// Guarantees a feasible result whenever the all-minimum point is
/// feasible: if annealing's best point violates the budget, the greedy
/// warm start is returned instead.
///
/// # Panics
///
/// Panics if the view is empty or `evaluations` is zero.
pub fn sann_levels(
    view: &PmView,
    budget: &PowerBudget,
    evaluations: usize,
    rng: &mut SimRng,
) -> Vec<usize> {
    assert!(!view.is_empty(), "no active cores to manage");
    let level_counts: Vec<usize> = view.cores().iter().map(|c| c.level_count()).collect();
    let initial = greedy_levels(view, budget);

    let config = AnnealConfig::for_dimensions(view.len()).with_evaluations(evaluations);
    let annealer = Annealer::new(config);
    let result = annealer.anneal(
        &level_counts,
        &initial,
        &mut SannCost::new(view, budget),
        rng,
    );

    if view.feasible(&result.point, budget) {
        result.point
    } else {
        initial
    }
}

/// Cost to minimize: negative throughput plus a steep penalty for
/// violating either power constraint: the oracle `SannCost` must
/// reproduce bit for bit.
#[cfg(test)]
fn cost(view: &PmView, budget: &PowerBudget, levels: &[usize]) -> f64 {
    let tp = view.throughput_mips(levels);
    let total = view.total_power(levels);
    let mut violation = (total - budget.chip_w).max(0.0);
    for (c, &l) in view.cores().iter().zip(levels) {
        violation += (c.power_w[l] - budget.per_core_w).max(0.0);
    }
    -tp + PENALTY_MIPS_PER_W * violation
}

/// SAnn's cost — negative throughput plus the violation penalty — as
/// an incremental annealing [`Objective`].
///
/// Built once per invocation: per-(core, level) tables of throughput,
/// power and per-core-cap violation, evaluated with the same
/// expressions as the full cost. Throughput and core power are kept as
/// left-to-right prefix sums starting from `Iterator::sum`'s identity,
/// so a move of core `d` re-adds only cores `d..`: the same additions
/// in the same order as a full sum, hence the same bits. Per-core
/// violations are folded only while some core is over its cap; with
/// none over, each of those terms is `+0.0`, and adding `+0.0` once
/// leaves the chip-level violation exactly as adding it `n` times
/// would.
struct SannCost {
    /// Start of each core's rows in the level tables (`n + 1` entries).
    offsets: Vec<usize>,
    /// `mips_at(level)` per (core, level).
    mips: Vec<f64>,
    /// `power_w[level]` per (core, level).
    power: Vec<f64>,
    /// `(power_w[level] − per_core_w).max(0.0)` per (core, level).
    over: Vec<f64>,
    uncore_w: f64,
    chip_w: f64,
    /// Current level of each core.
    levels: Vec<usize>,
    /// Throughput and power of each core at its current level.
    cur_mips: Vec<f64>,
    cur_power: Vec<f64>,
    /// `tp_prefix[i]`: throughput sum over cores `..i` at the current
    /// levels (`n + 1` entries).
    tp_prefix: Vec<f64>,
    /// `power_prefix[i]`: core-power sum over cores `..i`.
    power_prefix: Vec<f64>,
    /// Cores whose current violation term is not `+0.0`.
    over_count: usize,
}

impl SannCost {
    fn new(view: &PmView, budget: &PowerBudget) -> Self {
        let n = view.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let (mut mips, mut power, mut over) = (Vec::new(), Vec::new(), Vec::new());
        offsets.push(0);
        for c in view.cores() {
            for (l, &p) in c.power_w.iter().enumerate() {
                mips.push(c.mips_at(l));
                power.push(p);
                over.push((p - budget.per_core_w).max(0.0));
            }
            offsets.push(mips.len());
        }
        Self {
            offsets,
            mips,
            power,
            over,
            uncore_w: view.uncore_power(),
            chip_w: budget.chip_w,
            levels: vec![0; n],
            cur_mips: vec![0.0; n],
            cur_power: vec![0.0; n],
            tp_prefix: vec![0.0; n + 1],
            power_prefix: vec![0.0; n + 1],
            over_count: 0,
        }
    }

    fn is_over(&self, core: usize, level: usize) -> bool {
        self.over[self.offsets[core] + level].to_bits() != 0
    }

    /// `over_count` once core `dim` moves to `level`.
    fn over_count_after(&self, dim: usize, level: usize) -> usize {
        self.over_count + usize::from(self.is_over(dim, level))
            - usize::from(self.is_over(dim, self.levels[dim]))
    }

    /// The cost from a point's throughput and core-power sums; `moved`
    /// overrides one core's level in the per-core violation fold.
    fn priced(
        &self,
        tp: f64,
        core_power: f64,
        over_count: usize,
        moved: Option<(usize, usize)>,
    ) -> f64 {
        let total = self.uncore_w + core_power;
        let mut violation = (total - self.chip_w).max(0.0);
        if over_count == 0 {
            // The n-fold `+ 0.0` in one step: identity, except that it
            // turns a −0.0 into +0.0 just as the full fold would.
            violation += 0.0;
        } else {
            for (i, &l) in self.levels.iter().enumerate() {
                let l = match moved {
                    Some((dim, level)) if dim == i => level,
                    _ => l,
                };
                violation += self.over[self.offsets[i] + l];
            }
        }
        -tp + PENALTY_MIPS_PER_W * violation
    }

    /// Recomputes the prefix sums of cores `from..` at the current
    /// levels.
    fn refresh_prefixes(&mut self, from: usize) {
        for i in from..self.levels.len() {
            let at = self.offsets[i] + self.levels[i];
            self.cur_mips[i] = self.mips[at];
            self.cur_power[i] = self.power[at];
            self.tp_prefix[i + 1] = self.tp_prefix[i] + self.cur_mips[i];
            self.power_prefix[i + 1] = self.power_prefix[i] + self.cur_power[i];
        }
    }
}

impl Objective for SannCost {
    fn reset(&mut self, point: &[usize]) -> f64 {
        self.levels.copy_from_slice(point);
        let zero: f64 = std::iter::empty::<f64>().sum();
        self.tp_prefix[0] = zero;
        self.power_prefix[0] = zero;
        self.refresh_prefixes(0);
        self.over_count = (0..point.len())
            .filter(|&i| self.is_over(i, point[i]))
            .count();
        let (tp, core_power) = (self.tp_prefix[point.len()], self.power_prefix[point.len()]);
        self.priced(tp, core_power, self.over_count, None)
    }

    fn propose(&mut self, dim: usize, level: usize) -> f64 {
        let at = self.offsets[dim] + level;
        let mut tp = self.tp_prefix[dim] + self.mips[at];
        let mut core_power = self.power_prefix[dim] + self.power[at];
        for (&m, &p) in self.cur_mips[dim + 1..]
            .iter()
            .zip(&self.cur_power[dim + 1..])
        {
            tp += m;
            core_power += p;
        }
        let over_count = self.over_count_after(dim, level);
        self.priced(tp, core_power, over_count, Some((dim, level)))
    }

    fn accept(&mut self, dim: usize, level: usize) {
        self.over_count = self.over_count_after(dim, level);
        self.levels[dim] = level;
        self.refresh_prefixes(dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::exhaustive::exhaustive_levels;
    use crate::manager::view::synthetic_core;
    use anneal::Cooling;

    fn view(n: usize) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, 0.2 + 0.35 * i as f64, 9, 1.0))
                .collect(),
        )
    }

    fn mid_budget(v: &PmView) -> PowerBudget {
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        }
    }

    /// A random view for the oracle: 1–20 cores of 2–12 levels, IPC and
    /// power scale varying per core, non-zero uncore power, a per-core
    /// cap that binds on about half the views and a chip budget anywhere
    /// from below the all-minimum power to above the all-maximum.
    fn random_case(rng: &mut SimRng) -> (PmView, PowerBudget) {
        let n = 1 + rng.index(20);
        let v = PmView::from_cores(
            (0..n)
                .map(|i| {
                    let levels = 2 + rng.index(11);
                    synthetic_core(i, rng.uniform(0.1, 3.0), levels, rng.uniform(0.5, 2.0))
                })
                .collect(),
        )
        .with_uncore_power(rng.uniform(0.1, 10.0));
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let per_core_w = if rng.next_f64() < 0.5 {
            100.0
        } else {
            let (lo, hi) = v.cores().iter().fold((f64::MAX, 0.0f64), |(lo, hi), c| {
                (lo.min(c.power_w[0]), hi.max(*c.power_w.last().unwrap()))
            });
            rng.uniform(lo, hi)
        };
        let budget = PowerBudget {
            chip_w: min_p + rng.uniform(-0.5, 1.5) * (max_p - min_p),
            per_core_w,
        };
        (v, budget)
    }

    fn assert_same_run(annealer: &Annealer, v: &PmView, budget: &PowerBudget, seed: u64) {
        let counts: Vec<usize> = v.cores().iter().map(|c| c.level_count()).collect();
        let initial = greedy_levels(v, budget);
        let mut rng_full = SimRng::seed_from(seed);
        let mut rng_inc = SimRng::seed_from(seed);
        let full = annealer.minimize(&counts, &initial, |l| cost(v, budget, l), &mut rng_full);
        let inc = annealer.anneal(
            &counts,
            &initial,
            &mut SannCost::new(v, budget),
            &mut rng_inc,
        );
        let what = format!("{} cores, {budget:?}, {:?}", v.len(), annealer.config());
        assert_eq!(inc.point, full.point, "{what}");
        assert_eq!(inc.cost.to_bits(), full.cost.to_bits(), "{what}");
        assert_eq!(inc.accepted, full.accepted, "{what}");
        assert_eq!(inc.evaluations, full.evaluations, "{what}");
        assert_eq!(rng_inc.next_u64(), rng_full.next_u64(), "{what}");
    }

    #[test]
    fn incremental_cost_matches_full_cost_oracle() {
        let mut gen = SimRng::seed_from(0x5a77);
        for _ in 0..150 {
            let (v, budget) = random_case(&mut gen);
            // Log-uniform budgets from 1 to 100k evaluations.
            let evaluations = 10f64.powf(gen.uniform(0.0, 5.0)).round() as usize;
            let config = AnnealConfig::for_dimensions(v.len()).with_evaluations(evaluations);
            assert_same_run(&Annealer::new(config), &v, &budget, gen.next_u64());
        }
        for cooling in [Cooling::Logarithmic, Cooling::Geometric { alpha: 0.9995 }] {
            for _ in 0..20 {
                let (v, budget) = random_case(&mut gen);
                let config = AnnealConfig {
                    initial_temp: gen.uniform(0.5, 50.0),
                    evaluations: 1 + gen.index(20_000),
                    kernel_scale: gen.uniform(0.5, 6.0),
                    cooling,
                };
                assert_same_run(&Annealer::new(config), &v, &budget, gen.next_u64());
            }
        }
    }

    #[test]
    fn every_proposal_prices_like_a_full_evaluation() {
        let mut gen = SimRng::seed_from(0x5a78);
        for _ in 0..200 {
            let (v, budget) = random_case(&mut gen);
            let mut point: Vec<usize> = v
                .cores()
                .iter()
                .map(|c| gen.index(c.level_count()))
                .collect();
            let mut objective = SannCost::new(&v, &budget);
            let c0 = objective.reset(&point);
            assert_eq!(c0.to_bits(), cost(&v, &budget, &point).to_bits());
            for _ in 0..50 {
                let dim = gen.index(v.len());
                let level = gen.index(v.cores()[dim].level_count());
                let mut moved = point.clone();
                moved[dim] = level;
                let c = objective.propose(dim, level);
                assert_eq!(
                    c.to_bits(),
                    cost(&v, &budget, &moved).to_bits(),
                    "{moved:?}"
                );
                if gen.next_f64() < 0.5 {
                    objective.accept(dim, level);
                    point = moved;
                }
            }
        }
    }

    #[test]
    fn greedy_is_feasible() {
        let v = view(4);
        let budget = mid_budget(&v);
        let g = greedy_levels(&v, &budget);
        assert!(v.feasible(&g, &budget));
    }

    #[test]
    fn greedy_saturates_generous_budget() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: 100.0,
        };
        assert_eq!(greedy_levels(&v, &budget), v.max_levels());
    }

    #[test]
    fn sann_result_is_feasible() {
        let v = view(4);
        let budget = mid_budget(&v);
        let mut rng = SimRng::seed_from(21);
        let levels = sann_levels(&v, &budget, 10_000, &mut rng);
        assert!(v.feasible(&levels, &budget));
    }

    #[test]
    fn sann_at_least_as_good_as_greedy() {
        let v = view(4);
        let budget = mid_budget(&v);
        let mut rng = SimRng::seed_from(22);
        let g = greedy_levels(&v, &budget);
        let s = sann_levels(&v, &budget, 20_000, &mut rng);
        assert!(v.throughput_mips(&s) >= v.throughput_mips(&g) - 1e-9);
    }

    #[test]
    fn sann_matches_exhaustive_within_one_percent() {
        // The paper's validation (§6.5): for <= 4 threads, SAnn is within
        // 1% of exhaustive search.
        for seed in [1u64, 2, 3] {
            let v = view(4);
            let budget = mid_budget(&v);
            let best = exhaustive_levels(&v, &budget);
            let mut rng = SimRng::seed_from(seed);
            let s = sann_levels(&v, &budget, 50_000, &mut rng);
            let ratio = v.throughput_mips(&s) / v.throughput_mips(&best);
            assert!(ratio > 0.99, "seed {seed}: SAnn at {ratio} of optimal");
        }
    }

    #[test]
    fn impossible_budget_pins_minimum() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 0.001,
            per_core_w: 100.0,
        };
        let mut rng = SimRng::seed_from(23);
        let levels = sann_levels(&v, &budget, 5_000, &mut rng);
        assert_eq!(levels, v.min_levels());
    }
}
