//! Simulated annealing over discrete level vectors.
//!
//! The paper's near-optimal reference power manager, **SAnn** (§4.3.2,
//! §6.5), searches the space of per-core voltage-level assignments with
//! the simulated-annealing implementation of the R statistical package:
//! a Gaussian Markov proposal kernel whose scale tracks the annealing
//! temperature, a logarithmic cooling schedule, an initial temperature
//! chosen by problem size, and a fixed budget of cost-function
//! evaluations.
//!
//! This crate reimplements that engine for points in
//! `{0..levels₀} × {0..levels₁} × …` (one discrete level per dimension),
//! minimizing either an arbitrary cost closure
//! ([`Annealer::minimize`]) or an incremental [`Objective`] that prices
//! one-coordinate moves from running state ([`Annealer::anneal`]). Both
//! run the same loop and, for the same costs, the same trajectory.
//!
//! # Example
//!
//! Minimize the distance to a target point:
//!
//! ```
//! use anneal::{Annealer, AnnealConfig};
//! use vastats::SimRng;
//!
//! let target = [3usize, 7, 1];
//! let annealer = Annealer::new(AnnealConfig::default());
//! let mut rng = SimRng::seed_from(11);
//! let result = annealer.minimize(
//!     &[10, 10, 10],
//!     &[0, 0, 0],
//!     |x| x.iter().zip(&target).map(|(&a, &b)| (a as f64 - b as f64).powi(2)).sum(),
//!     &mut rng,
//! );
//! assert_eq!(result.point, target);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::LazyLock;
use vastats::rng::SimRng;

/// Cooling schedule for the annealing temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cooling {
    /// `T_k = T₀ / ln(k + e)` — Belisle's schedule, as in R's SANN and
    /// the paper's SAnn. Guarantees asymptotic convergence but cools
    /// very slowly.
    Logarithmic,
    /// `T_k = T₀ · α^k` — faster practical cooling; `α` just below 1.
    Geometric {
        /// Per-evaluation decay factor in `(0, 1]`.
        alpha: f64,
    },
}

impl Cooling {
    /// Temperature after `k` evaluations from initial `t0`.
    pub fn temperature(&self, t0: f64, k: usize) -> f64 {
        match *self {
            Cooling::Logarithmic => t0 / ((k as f64) + std::f64::consts::E).ln(),
            Cooling::Geometric { alpha } => t0 * alpha.powi(k as i32),
        }
    }
}

/// Configuration of the annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Initial annealing temperature. The paper scales this with the
    /// number of threads; [`AnnealConfig::for_dimensions`] reproduces
    /// that heuristic.
    pub initial_temp: f64,
    /// Total cost-function evaluations (the paper stops after a fixed
    /// budget; 1 million in its experiments).
    pub evaluations: usize,
    /// Proposal kernel scale at the initial temperature, in *levels*.
    /// The kernel shrinks proportionally as the temperature cools.
    pub kernel_scale: f64,
    /// Cooling schedule.
    pub cooling: Cooling,
}

impl Default for AnnealConfig {
    /// A compact budget suitable for unit tests and interactive use.
    /// The paper-scale reference run uses [`AnnealConfig::paper`].
    fn default() -> Self {
        Self {
            initial_temp: 10.0,
            evaluations: 20_000,
            kernel_scale: 3.0,
            cooling: Cooling::Logarithmic,
        }
    }
}

impl AnnealConfig {
    /// The paper's reference budget: 1 million evaluations.
    pub fn paper() -> Self {
        Self {
            evaluations: 1_000_000,
            ..Self::default()
        }
    }

    /// Initial-temperature heuristic from the paper: larger problems
    /// (more scheduled threads) start hotter so the initial search is
    /// more random.
    pub fn for_dimensions(dims: usize) -> Self {
        Self {
            initial_temp: 2.0 * dims as f64 + 2.0,
            ..Self::default()
        }
    }

    /// Returns this configuration with a different evaluation budget.
    pub fn with_evaluations(mut self, evaluations: usize) -> Self {
        self.evaluations = evaluations;
        self
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// Best point found.
    pub point: Vec<usize>,
    /// Cost at the best point.
    pub cost: f64,
    /// Number of cost evaluations performed.
    pub evaluations: usize,
    /// Number of accepted moves.
    pub accepted: usize,
}

/// A cost function the annealer evaluates one coordinate move at a
/// time.
///
/// The annealer only ever moves a single coordinate, so an objective
/// that keeps running state about its current point can price a move
/// without re-reading the whole point. [`Annealer::anneal`] calls
/// [`reset`](Objective::reset) once with the initial point, then
/// alternates [`propose`](Objective::propose) with an optional
/// [`accept`](Objective::accept) of that same move.
///
/// For a run to match [`Annealer::minimize`] over the equivalent
/// closure bit for bit, `propose` must return exactly the cost a full
/// evaluation of the moved point would.
pub trait Objective {
    /// Makes `point` the current point and returns its cost.
    fn reset(&mut self, point: &[usize]) -> f64;
    /// Cost of the current point with coordinate `dim` set to `level`.
    /// The current point does not change.
    fn propose(&mut self, dim: usize, level: usize) -> f64;
    /// Moves coordinate `dim` of the current point to `level`. Called
    /// only right after `propose(dim, level)`.
    fn accept(&mut self, dim: usize, level: usize);
}

/// [`Objective`] over a whole-point cost closure: every proposal is a
/// full evaluation of a scratch copy of the current point.
struct FullCost<F> {
    point: Vec<usize>,
    cost: F,
}

impl<F: FnMut(&[usize]) -> f64> Objective for FullCost<F> {
    fn reset(&mut self, point: &[usize]) -> f64 {
        self.point.clear();
        self.point.extend_from_slice(point);
        (self.cost)(&self.point)
    }

    fn propose(&mut self, dim: usize, level: usize) -> f64 {
        let old = std::mem::replace(&mut self.point[dim], level);
        let cost = (self.cost)(&self.point);
        self.point[dim] = old;
        cost
    }

    fn accept(&mut self, dim: usize, level: usize) {
        self.point[dim] = level;
    }
}

/// Once `kernel_scale · T / T₀` falls below this, the proposal kernel's
/// scale `max(kernel_scale · T / T₀, 1)` is 1 for the rest of the run.
/// Both cooling schedules are monotone; the 1% margin absorbs any
/// last-ulp wobble of `ln`/`powi` in the computed temperature.
const UNIT_SIGMA_BELOW: f64 = 0.99;

/// `exp(x)` underflows to exactly 0 for `x < −745.14`. An uphill move
/// with `Δ > 746 · max(T₀, 10⁻¹²)` has `−Δ / max(T, 10⁻¹²) < −746` at
/// every temperature `T ≤ T₀`, so its Metropolis test fails whatever
/// the uniform draw.
const EXP_UNDERFLOW_RATIO: f64 = 746.0;

/// Simulated-annealing minimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annealer {
    config: AnnealConfig,
}

impl Annealer {
    /// Creates an annealer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (non-positive
    /// temperature, kernel scale, or zero evaluations), or if a
    /// geometric cooling factor lies outside `(0, 1]`.
    pub fn new(config: AnnealConfig) -> Self {
        assert!(
            config.initial_temp > 0.0,
            "initial temperature must be positive"
        );
        assert!(config.kernel_scale > 0.0, "kernel scale must be positive");
        assert!(config.evaluations > 0, "evaluation budget must be positive");
        if let Cooling::Geometric { alpha } = config.cooling {
            assert!(
                alpha > 0.0 && alpha <= 1.0,
                "geometric cooling factor must lie in (0, 1]"
            );
        }
        Self { config }
    }

    /// The annealer's configuration.
    pub fn config(&self) -> &AnnealConfig {
        &self.config
    }

    /// Minimizes `cost` over points in
    /// `{0..level_counts[0]} × {0..level_counts[1]} × …`, starting from
    /// `initial`.
    ///
    /// Each proposal evaluates `cost` on the whole moved point; this is
    /// [`anneal`](Self::anneal) over that closure. See there for the
    /// proposal kernel and the panics.
    pub fn minimize<F>(
        &self,
        level_counts: &[usize],
        initial: &[usize],
        cost: F,
        rng: &mut SimRng,
    ) -> AnnealResult
    where
        F: FnMut(&[usize]) -> f64,
    {
        let mut objective = FullCost {
            point: Vec::with_capacity(initial.len()),
            cost,
        };
        self.anneal(level_counts, initial, &mut objective, rng)
    }

    /// Minimizes `objective` over points in
    /// `{0..level_counts[0]} × {0..level_counts[1]} × …`, starting from
    /// `initial`.
    ///
    /// The proposal kernel perturbs one random dimension by a discretized
    /// Gaussian step whose standard deviation is
    /// `kernel_scale · (T / T₀)` levels (minimum one level), matching the
    /// paper's "Gaussian Markov kernel with scale proportional to the
    /// current annealing temperature". Uphill moves pass the Metropolis
    /// test `u < exp(−Δ / T)`.
    ///
    /// Four shortcuts leave every draw and decision unchanged:
    ///
    /// * the temperature is computed only while the kernel scale can
    ///   exceed one level, and for uphill tests;
    /// * once the scale is pinned at one level, the step is rounded by
    ///   [`round_polar`] instead of through `ln`/`sqrt`;
    /// * an uphill move too steep for `exp` to be non-zero is rejected
    ///   without computing it (its uniform is still drawn);
    /// * under logarithmic cooling, the remaining uphill tests are
    ///   decided from bracketed logarithms, with `exp` only where the
    ///   brackets cannot tell.
    ///
    /// # Panics
    ///
    /// Panics if `level_counts` is empty, any count is zero, or
    /// `initial` is out of range.
    pub fn anneal<O>(
        &self,
        level_counts: &[usize],
        initial: &[usize],
        objective: &mut O,
        rng: &mut SimRng,
    ) -> AnnealResult
    where
        O: Objective + ?Sized,
    {
        assert!(!level_counts.is_empty(), "need at least one dimension");
        assert_eq!(
            level_counts.len(),
            initial.len(),
            "initial point dimension mismatch"
        );
        assert!(
            level_counts.iter().all(|&c| c > 0),
            "every dimension needs at least one level"
        );
        assert!(
            initial.iter().zip(level_counts).all(|(&x, &c)| x < c),
            "initial point out of range"
        );

        let mut current = initial.to_vec();
        let mut current_cost = objective.reset(&current);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut accepted = 0usize;
        let mut evals = 1usize;

        let AnnealConfig {
            initial_temp: t0,
            evaluations,
            kernel_scale,
            cooling,
        } = self.config;
        let reject_above = EXP_UNDERFLOW_RATIO * t0.max(1e-12);
        let certify_metropolis = cooling == Cooling::Logarithmic && t0 >= 1e-9 && t0.is_finite();
        let inv_t0 = 1.0 / t0;
        let mut unit_sigma = false;

        while evals < evaluations {
            let k = evals;
            evals += 1;

            // Gaussian Markov kernel on one random dimension.
            let dim = rng.index(level_counts.len());
            let step = if unit_sigma {
                let (u, _, s) = vastats::normal::polar_point(rng);
                round_polar(u, s)
            } else {
                let scale = kernel_scale * cooling.temperature(t0, k) / t0;
                unit_sigma = scale < UNIT_SIGMA_BELOW;
                (vastats::normal::standard_sample(rng) * scale.max(1.0)).round() as i64
            };
            let step = if step == 0 {
                if rng.next_f64() < 0.5 {
                    -1
                } else {
                    1
                }
            } else {
                step
            };
            let max_level = level_counts[dim] as i64 - 1;
            let level = (current[dim] as i64 + step).clamp(0, max_level) as usize;
            if level == current[dim] {
                // Degenerate proposal (clamped back onto itself): counts
                // as a rejected evaluation so single-level dimensions
                // cannot stall progress accounting.
                continue;
            }

            let proposal_cost = objective.propose(dim, level);
            let delta = proposal_cost - current_cost;
            let accept = delta <= 0.0 || {
                let u = rng.next_f64();
                delta <= reject_above
                    && match certify_metropolis.then(|| certified_metropolis(u, delta, k, inv_t0)) {
                        Some(Some(decided)) => decided,
                        _ => u < (-delta / cooling.temperature(t0, k).max(1e-12)).exp(),
                    }
            };
            if accept {
                objective.accept(dim, level);
                current[dim] = level;
                current_cost = proposal_cost;
                accepted += 1;
                if current_cost < best_cost {
                    best.copy_from_slice(&current);
                    best_cost = current_cost;
                }
            }
        }

        AnnealResult {
            point: best,
            cost: best_cost,
            evaluations: evals,
            accepted,
        }
    }
}

/// `(ln c, 1/c)` for `c = 1 + i/256`, `i in 0..256`.
static LN_TABLE: LazyLock<[(f64, f64); 256]> = LazyLock::new(|| {
    std::array::from_fn(|i| {
        let c = 1.0 + i as f64 / 256.0;
        (c.ln(), 1.0 / c)
    })
});

/// Absolute slack per unit of binary exponent in [`ln_bracket`]:
/// covers the rounding of `e·ln 2`, of the table entries and of the
/// bracket arithmetic (together under `2⁻⁵⁰` per unit) with a 16×
/// margin.
const LN_SLACK: f64 = 1.0 / (1u64 << 46) as f64;

/// Relative (and, in the log domain, absolute) slack on the certified
/// comparisons: covers the few-ulp rounding of both the comparison and
/// the exact formula it stands in for.
const DECISION_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Bounds `(lo, hi)` on the true `ln x` of a positive normal `x`,
/// without calling `ln`.
///
/// With `x = m·2^e` (`m` in `[1, 2)`) and `m = c·(1 + t)` for the table
/// point `c = 1 + i/256` below `m`, `ln x = e·ln 2 + ln c + ln(1 + t)`
/// and `t − t²/2 ≤ ln(1+t) ≤ t − t²/2 + t³/3` for `0 ≤ t < 1/256`. The
/// bracket is at most ~2·10⁻⁸ wide.
fn ln_bracket(x: f64) -> (f64, f64) {
    debug_assert!(x.is_normal() && x > 0.0);
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 1023 << 52;
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 - 1023) as f64;
    let m = f64::from_bits((bits & MANTISSA) | ONE);
    // c keeps m's top 8 mantissa bits; m − c is exact.
    let i = ((bits >> 44) & 0xff) as usize;
    let c = f64::from_bits((bits & (0xff << 44)) | ONE);
    let (ln_c, inv_c) = LN_TABLE[i];
    let t = (m - c) * inv_c;
    let ln_m_lo = ln_c + (t - 0.5 * t * t);
    let ln_m_hi = ln_m_lo + t * t * t * (1.0 / 3.0);
    let e_ln2 = e * std::f64::consts::LN_2;
    let slop = (e.abs() + 1.0) * LN_SLACK;
    (e_ln2 + ln_m_lo - slop, e_ln2 + ln_m_hi + slop)
}

/// `round(u · √(−2 ln s / s))` — the rounded standard normal of the
/// polar point `(u, s)` — decided without `ln`, `sqrt` or a division.
///
/// Returns exactly `(u * (-2.0 * s.ln() / s).sqrt()).round() as i64`.
/// With `z² = 2u²(−ln s)/s`, `|round(z)| > k` iff
/// `2u²·(−ln s) ≥ (k+½)²·s`. `−ln s` is bracketed from the binary
/// exponent of `s`, a table of `ln(1 + i/256)` and
/// `t − t²/2 ≤ ln(1+t) ≤ t − t²/2 + t³/3` (`0 ≤ t < 1/256`), and the
/// thresholds `k = 0, 1, …` are tested until the bracket falls wholly
/// below one. Whenever the bracket (widened by the rounding slack of
/// both sides) straddles a threshold, or `(u, s)` is not a normal
/// polar point (`u² ≤ s`, `s` normal and below 1), the exact formula
/// decides.
pub fn round_polar(u: f64, s: f64) -> i64 {
    certified_round(u, s).unwrap_or_else(|| (u * (-2.0 * s.ln() / s).sqrt()).round() as i64)
}

/// [`round_polar`]'s bracket test: `None` where the exact formula must
/// decide.
fn certified_round(u: f64, s: f64) -> Option<i64> {
    if !(u * u <= s && (f64::MIN_POSITIVE..1.0).contains(&s)) {
        return None;
    }
    let (ln_lo, ln_hi) = ln_bracket(s);
    let two_uu = 2.0 * u * u;
    let (q_lo, q_hi) = (two_uu * -ln_hi, two_uu * -ln_lo);
    let mut k = 0i64;
    loop {
        let half = k as f64 + 0.5;
        let threshold = half * half * s;
        if q_hi < threshold * (1.0 - DECISION_SLACK) {
            return Some(if u < 0.0 { -k } else { k });
        }
        if q_lo <= threshold * (1.0 + DECISION_SLACK) {
            return None;
        }
        k += 1;
    }
}

/// The Metropolis test `u < exp(−Δ / T_k)` under logarithmic cooling,
/// `T_k = T₀ / ln(k + e)`, decided in the log domain without `ln`,
/// `exp` or a division: `u < exp(−a)` iff `a < −ln u`, with
/// `a = Δ·ln(k + e)/T₀`. Both logarithms come from [`ln_bracket`];
/// `None` when the brackets (widened by the rounding slack of the
/// exact test) overlap, or `u` is 0.
///
/// Requires `Δ > 0` and `T₀ ≥ 10⁻⁹`, so the `10⁻¹²` temperature floor of
/// the exact test never binds (`ln(k + e) < 45`).
fn certified_metropolis(u: f64, delta: f64, k: usize, inv_t0: f64) -> Option<bool> {
    if u < f64::MIN_POSITIVE {
        return None;
    }
    let (l_lo, l_hi) = ln_bracket(k as f64 + std::f64::consts::E);
    let (ln_u_lo, ln_u_hi) = ln_bracket(u);
    let a_lo = delta * l_lo * inv_t0 * (1.0 - DECISION_SLACK) - DECISION_SLACK;
    let a_hi = delta * l_hi * inv_t0 * (1.0 + DECISION_SLACK) + DECISION_SLACK;
    if a_lo > -ln_u_lo {
        Some(false)
    } else if a_hi < -ln_u_hi {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The annealing loop as it stood before the [`Objective`] split: a
    /// full cost call on a copied proposal point, the temperature and
    /// `σ` recomputed every evaluation, every step drawn through
    /// `standard_sample` and every uphill test through `exp`. The
    /// oracle [`Annealer::anneal`] must reproduce bit for bit.
    fn reference_minimize<F: FnMut(&[usize]) -> f64>(
        config: &AnnealConfig,
        level_counts: &[usize],
        initial: &[usize],
        mut cost: F,
        rng: &mut SimRng,
    ) -> AnnealResult {
        let mut current = initial.to_vec();
        let mut current_cost = cost(&current);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut accepted = 0usize;
        let mut evals = 1usize;
        let t0 = config.initial_temp;
        let mut proposal = current.clone();
        while evals < config.evaluations {
            let temp = config.cooling.temperature(t0, evals);
            proposal.copy_from_slice(&current);
            let dim = rng.index(level_counts.len());
            let sigma = (config.kernel_scale * temp / t0).max(1.0);
            let step = (vastats::normal::standard_sample(rng) * sigma).round() as i64;
            let step = if step == 0 {
                if rng.next_f64() < 0.5 {
                    -1
                } else {
                    1
                }
            } else {
                step
            };
            let max_level = level_counts[dim] as i64 - 1;
            let new_val = (current[dim] as i64 + step).clamp(0, max_level) as usize;
            if new_val == current[dim] {
                evals += 1;
                continue;
            }
            proposal[dim] = new_val;
            let proposal_cost = cost(&proposal);
            evals += 1;
            let delta = proposal_cost - current_cost;
            let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-12)).exp();
            if accept {
                current.copy_from_slice(&proposal);
                current_cost = proposal_cost;
                accepted += 1;
                if current_cost < best_cost {
                    best.copy_from_slice(&current);
                    best_cost = current_cost;
                }
            }
        }
        AnnealResult {
            point: best,
            cost: best_cost,
            evaluations: evals,
            accepted,
        }
    }

    #[test]
    fn loop_matches_reference_bit_for_bit() {
        let mut gen = SimRng::seed_from(0x5a22);
        for case in 0..400 {
            let dims = 1 + gen.index(6);
            let level_counts: Vec<usize> = (0..dims).map(|_| 1 + gen.index(15)).collect();
            let initial: Vec<usize> = level_counts.iter().map(|&c| gen.index(c)).collect();
            // Cost tables spanning flat to cliff-steep, so runs cover
            // accepted, Metropolis-tested and underflow-rejected moves.
            let magnitude = [1e-3, 1.0, 1e3, 1e9][gen.index(4)];
            let table: Vec<Vec<f64>> = level_counts
                .iter()
                .map(|&c| (0..c).map(|_| magnitude * gen.uniform(-1.0, 1.0)).collect())
                .collect();
            let cost = |x: &[usize]| -> f64 { x.iter().zip(&table).map(|(&l, t)| t[l]).sum() };
            let max_evals = [10, 1_000, 20_000][gen.index(3)];
            let config = AnnealConfig {
                initial_temp: [1e-15, 0.1, 10.0, 1e6][gen.index(4)],
                evaluations: 1 + gen.index(max_evals),
                kernel_scale: [0.5, 3.0, 10.0][gen.index(3)],
                cooling: match gen.index(4) {
                    0 => Cooling::Geometric { alpha: 0.9 },
                    1 => Cooling::Geometric { alpha: 0.999 },
                    2 => Cooling::Geometric { alpha: 1.0 },
                    _ => Cooling::Logarithmic,
                },
            };
            let seed = gen.next_u64();
            let mut rng_new = SimRng::seed_from(seed);
            let mut rng_ref = SimRng::seed_from(seed);
            let got = Annealer::new(config).minimize(&level_counts, &initial, cost, &mut rng_new);
            let want = reference_minimize(&config, &level_counts, &initial, cost, &mut rng_ref);
            assert_eq!(got.point, want.point, "case {case}: {config:?}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "case {case}");
            assert_eq!(got.accepted, want.accepted, "case {case}");
            assert_eq!(got.evaluations, want.evaluations, "case {case}");
            assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "case {case}");
        }
    }

    fn exact_round(u: f64, s: f64) -> i64 {
        (u * (-2.0 * s.ln() / s).sqrt()).round() as i64
    }

    #[test]
    fn round_polar_matches_exact_formula_on_rng_pairs() {
        const PAIRS: usize = 10_000_000;
        let mut rng = SimRng::seed_from(20080621);
        let mut fallbacks = 0usize;
        for _ in 0..PAIRS {
            let (u, _, s) = vastats::normal::polar_point(&mut rng);
            let want = exact_round(u, s);
            match certified_round(u, s) {
                Some(k) => assert_eq!(k, want, "u={u:e} s={s:e}"),
                None => fallbacks += 1,
            }
            assert_eq!(round_polar(u, s), want, "u={u:e} s={s:e}");
        }
        // The bracket must decide almost every draw, or the fast path
        // buys nothing.
        assert!(fallbacks * 100_000 < PAIRS, "{fallbacks} fallbacks");
    }

    #[test]
    fn round_polar_matches_exact_formula_at_rounding_thresholds() {
        let mut s_grid: Vec<f64> = vec![
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            1e-300,
            2f64.powi(-1000),
            1e-12,
            0.5,
            0.5f64.next_up(),
            0.5f64.next_down(),
            0.25,
            0.1,
            0.3,
            0.7,
        ];
        for j in 1..=8u64 {
            s_grid.push(f64::from_bits(1f64.to_bits() - j));
            s_grid.push(1.0 - j as f64 * 1e-9);
            s_grid.push(1.0 - j as f64 * 1e-4);
        }
        // Table-cell boundaries m = 1 + i/256 (here halved into [0.5, 1)).
        for i in [1usize, 2, 127, 128, 254, 255] {
            let c = (1.0 + i as f64 / 256.0) / 2.0;
            s_grid.extend([c, c.next_up(), c.next_down()]);
        }
        let mut checked = 0usize;
        for &s in &s_grid {
            let scale = (-2.0 * s.ln() / s).sqrt();
            for k in 0..40 {
                // u that puts z = u·scale on the k+½ boundary, nudged a
                // few ulps either way, for both signs.
                let u0 = (k as f64 + 0.5) / scale;
                if !u0.is_finite() || u0 == 0.0 {
                    continue;
                }
                for d in -4i64..=4 {
                    let u = f64::from_bits((u0.to_bits() as i64 + d) as u64);
                    for u in [u, -u] {
                        assert_eq!(
                            round_polar(u, s),
                            exact_round(u, s),
                            "u={u:e} s={s:e} k={k}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "grid too small: {checked}");
    }

    #[test]
    fn certified_metropolis_agrees_with_exp() {
        let exact = |u: f64, delta: f64, k: usize, t0: f64| {
            u < (-delta / Cooling::Logarithmic.temperature(t0, k).max(1e-12)).exp()
        };
        let mut rng = SimRng::seed_from(746);
        let mut random_decided = 0usize;
        const DRAWS: usize = 200_000;
        for _ in 0..DRAWS {
            let t0 = [1e-9, 0.1, 42.0, 1e6][rng.index(4)];
            let k_max = [10, 100_000, 1 << 40][rng.index(3)];
            let k = 1 + rng.index(k_max);
            let u = rng.next_f64();
            let inv_t0 = 1.0 / t0;
            // A random uphill step, then steps solved to put exp(−Δ/T)
            // within a few ulps of u.
            let random = t0 * 10f64.powf(rng.uniform(-6.0, 3.0));
            let balanced = -u.ln() * Cooling::Logarithmic.temperature(t0, k);
            let nudged =
                (-3i64..=3).map(|d| f64::from_bits((balanced.to_bits() as i64 + d) as u64));
            for (i, delta) in std::iter::once(random).chain(nudged).enumerate() {
                if let Some(accept) = certified_metropolis(u, delta, k, inv_t0) {
                    random_decided += usize::from(i == 0);
                    assert_eq!(
                        accept,
                        exact(u, delta, k, t0),
                        "u={u:e} Δ={delta:e} k={k} T₀={t0}"
                    );
                }
            }
        }
        assert!(
            random_decided * 100 > DRAWS * 99,
            "{random_decided} of {DRAWS} decided"
        );
        // A zero uniform is left to the exact test.
        assert_eq!(certified_metropolis(0.0, 1.0, 5, 1.0), None);
    }

    #[test]
    #[should_panic(expected = "geometric cooling factor")]
    fn heating_geometric_schedule_rejected() {
        Annealer::new(AnnealConfig {
            cooling: Cooling::Geometric { alpha: 1.01 },
            ..AnnealConfig::default()
        });
    }

    #[test]
    fn finds_global_minimum_of_convex_cost() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(1);
        let result = annealer.minimize(
            &[20, 20],
            &[0, 0],
            |x| ((x[0] as f64) - 13.0).powi(2) + ((x[1] as f64) - 4.0).powi(2),
            &mut rng,
        );
        assert_eq!(result.point, vec![13, 4]);
        assert_eq!(result.cost, 0.0);
    }

    #[test]
    fn escapes_local_minimum() {
        // Cost with a local minimum at 2 (cost 1) and global at 17
        // (cost 0), separated by a barrier.
        let annealer = Annealer::new(AnnealConfig {
            initial_temp: 20.0,
            evaluations: 50_000,
            kernel_scale: 4.0,
            cooling: Cooling::Logarithmic,
        });
        let mut rng = SimRng::seed_from(3);
        let cost = |x: &[usize]| -> f64 {
            let v = x[0] as f64;
            if x[0] == 17 {
                0.0
            } else if x[0] == 2 {
                1.0
            } else {
                2.0 + (v - 10.0).abs() * 0.1
            }
        };
        let result = annealer.minimize(&[24], &[2], cost, &mut rng);
        assert_eq!(result.point, vec![17]);
    }

    #[test]
    fn respects_level_bounds() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(5);
        let mut seen_out_of_range = false;
        let result = annealer.minimize(
            &[3, 5],
            &[1, 1],
            |x| {
                if x[0] >= 3 || x[1] >= 5 {
                    seen_out_of_range = true;
                }
                -((x[0] + x[1]) as f64)
            },
            &mut rng,
        );
        assert!(!seen_out_of_range);
        // Maximizing x0+x1 via negated cost: corner (2,4).
        assert_eq!(result.point, vec![2, 4]);
    }

    #[test]
    fn single_level_dimensions_are_fixed() {
        let annealer = Annealer::new(AnnealConfig {
            evaluations: 2_000,
            ..AnnealConfig::default()
        });
        let mut rng = SimRng::seed_from(7);
        let result =
            annealer.minimize(&[1, 10], &[0, 0], |x| (x[1] as f64 - 6.0).powi(2), &mut rng);
        assert_eq!(result.point[0], 0);
        assert_eq!(result.point[1], 6);
    }

    #[test]
    fn deterministic_for_seed() {
        let annealer = Annealer::new(AnnealConfig::default());
        let cost = |x: &[usize]| (x[0] as f64 - 9.0).abs();
        let a = annealer.minimize(&[32], &[0], cost, &mut SimRng::seed_from(9));
        let b = annealer.minimize(&[32], &[0], cost, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
    }

    #[test]
    fn budget_respected() {
        let annealer = Annealer::new(AnnealConfig {
            evaluations: 500,
            ..AnnealConfig::default()
        });
        let mut count = 0usize;
        let mut rng = SimRng::seed_from(13);
        annealer.minimize(
            &[10],
            &[0],
            |x| {
                count += 1;
                x[0] as f64
            },
            &mut rng,
        );
        assert!(count <= 500, "evaluated {count} times");
    }

    #[test]
    fn dimension_heuristic_scales_temperature() {
        let small = AnnealConfig::for_dimensions(2);
        let large = AnnealConfig::for_dimensions(20);
        assert!(large.initial_temp > small.initial_temp);
    }

    #[test]
    fn cooling_schedules_decrease() {
        for cooling in [Cooling::Logarithmic, Cooling::Geometric { alpha: 0.999 }] {
            let mut prev = f64::INFINITY;
            for k in [1usize, 10, 100, 1000, 10000] {
                let t = cooling.temperature(10.0, k);
                assert!(t < prev, "{cooling:?} at k={k}");
                assert!(t > 0.0);
                prev = t;
            }
        }
        // Geometric cools much faster than logarithmic.
        let log_t = Cooling::Logarithmic.temperature(10.0, 10_000);
        let geo_t = Cooling::Geometric { alpha: 0.999 }.temperature(10.0, 10_000);
        assert!(geo_t < log_t / 100.0);
    }

    #[test]
    fn geometric_cooling_still_finds_minimum() {
        let annealer = Annealer::new(AnnealConfig {
            cooling: Cooling::Geometric { alpha: 0.9995 },
            ..AnnealConfig::default()
        });
        let mut rng = SimRng::seed_from(31);
        let result = annealer.minimize(
            &[20, 20],
            &[0, 0],
            |x| ((x[0] as f64) - 6.0).powi(2) + ((x[1] as f64) - 15.0).powi(2),
            &mut rng,
        );
        assert_eq!(result.point, vec![6, 15]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_initial_rejected() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(1);
        annealer.minimize(&[3], &[3], |_| 0.0, &mut rng);
    }
}
