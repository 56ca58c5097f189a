//! Spatially-correlated Gaussian random fields on a grid.
//!
//! VARIUS models the *systematic* component of a process parameter as a
//! zero-mean Gaussian field over the die with a **spherical** spatial
//! correlogram: correlation falls from `ρ(0) = 1` to `ρ(r) = 0` at range
//! `φ` (expressed as a fraction of the chip width) following
//!
//! ```text
//! ρ(r) = 1 − 1.5·(r/φ) + 0.5·(r/φ)³   for r < φ,   0 otherwise.
//! ```
//!
//! The paper generates these fields with R's geoR package at 1M points
//! per chip; we draw them at a configurable grid resolution. Two
//! samplers implement the same distribution:
//!
//! * **Cholesky** (small grids, and the statistical reference): the
//!   dense grid covariance is factorized once (`O(n³)`) and each draw is
//!   a triangular multiply (`O(n²)`). Exact up to the recorded diagonal
//!   jitter.
//! * **Circulant embedding** (large grids): the covariance is embedded
//!   in a block-circulant matrix on a `2nx × 2ny` power-of-two torus
//!   whose eigenvalues are one 2-D FFT of the correlogram; each draw is
//!   one FFT (`O(n log n)`) and yields *two* independent fields, which
//!   [`GaussianField::sample_many`] exploits. This is the
//!   Dietrich–Newsam construction; tiny negative eigenvalues from the
//!   embedding are clipped to zero and the clipped spectral mass is
//!   recorded on the field.
//!
//! [`GaussianField::build`] picks automatically by grid size
//! ([`CHOLESKY_MAX_CELLS`]); `build_cholesky`/`build_circulant` force a
//! sampler (tests pin the two against each other through their
//! empirical correlograms).

use crate::fft::Fft2;
use crate::matrix::{LowerTriangular, SymMatrix};
use crate::normal;
use crate::rng::SimRng;
use std::fmt;

/// Largest grid (in cells) the automatic [`GaussianField::build`] still
/// factorizes densely; bigger grids use circulant embedding. 1024 cells
/// (a 32 × 32 grid) keeps the `O(n³)` setup under ~10⁹ flops.
pub const CHOLESKY_MAX_CELLS: usize = 1024;

/// Largest diagonal jitter [`GaussianField::build`] escalates to before
/// giving up on a borderline-indefinite covariance.
pub const MAX_JITTER: f64 = 1e-6;

/// Largest fraction of spectral mass the circulant embedding may clip
/// (negative eigenvalues zeroed) before the embedding is rejected as
/// not positive definite.
const MAX_CLIPPED_MASS: f64 = 1e-2;

/// Error building a Gaussian field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldError {
    /// Grid dimensions were zero.
    EmptyGrid,
    /// Covariance matrix could not be factorized even after jitter
    /// (Cholesky), or the embedding clipped too much spectral mass
    /// (circulant).
    NotPositiveDefinite,
    /// Correlation range was not positive.
    InvalidRange(f64),
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::EmptyGrid => write!(f, "grid must have at least one point"),
            FieldError::NotPositiveDefinite => {
                write!(f, "covariance matrix is not positive definite")
            }
            FieldError::InvalidRange(r) => write!(f, "correlation range must be positive, got {r}"),
        }
    }
}

impl std::error::Error for FieldError {}

/// Spherical correlogram with range `phi` (in the same normalized units
/// as the grid coordinates; the unit square spans the die).
///
/// # Example
///
/// ```
/// use vastats::field::SphericalCorrelogram;
/// let c = SphericalCorrelogram::new(0.5);
/// assert_eq!(c.rho(0.0), 1.0);
/// assert_eq!(c.rho(0.5), 0.0);
/// assert!(c.rho(0.25) > 0.0 && c.rho(0.25) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalCorrelogram {
    phi: f64,
}

impl SphericalCorrelogram {
    /// Creates a correlogram with range `phi`.
    ///
    /// # Panics
    ///
    /// Panics if `phi <= 0` or non-finite.
    pub fn new(phi: f64) -> Self {
        assert!(phi.is_finite() && phi > 0.0, "phi must be positive");
        Self { phi }
    }

    /// Correlation range φ: the distance at which correlation reaches 0.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Correlation between two points separated by distance `r`.
    pub fn rho(&self, r: f64) -> f64 {
        debug_assert!(r >= 0.0);
        if r >= self.phi {
            0.0
        } else {
            let t = r / self.phi;
            1.0 - 1.5 * t + 0.5 * t * t * t
        }
    }
}

/// Which sampling algorithm a [`GaussianField`] was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Dense Cholesky factorization: `O(n³)` setup, `O(n²)` per draw.
    Cholesky,
    /// Circulant embedding: `O(n log n)` setup and per draw.
    Circulant,
}

impl fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerKind::Cholesky => write!(f, "cholesky"),
            SamplerKind::Circulant => write!(f, "circulant"),
        }
    }
}

/// Sampler state behind a [`GaussianField`].
#[derive(Clone)]
enum Sampler {
    Cholesky {
        factor: LowerTriangular,
    },
    Circulant {
        /// Embedding torus width (power of two, ≥ 2·nx); the height is
        /// `scale.len() / mx`.
        mx: usize,
        /// Per-mode amplitude `sqrt(max(λ, 0) / (mx·my))`, row-major.
        scale: Vec<f64>,
        plan: Fft2,
    },
}

/// A zero-mean, unit-variance Gaussian random field on an
/// `nx × ny` grid over the unit square, with spherical spatial
/// correlation.
///
/// Scale the samples by the desired `σ_sys` and add a mean to obtain a
/// concrete parameter map (done by the `varius` crate).
#[derive(Clone)]
pub struct GaussianField {
    nx: usize,
    ny: usize,
    sampler: Sampler,
    correlogram: SphericalCorrelogram,
    /// Diagonal jitter the Cholesky setup had to add before the
    /// covariance factorized (0 when it factorized outright, and for
    /// the circulant sampler, which records clipping instead).
    jitter: f64,
    /// Fraction of spectral mass the circulant embedding clipped
    /// (negative eigenvalues zeroed); 0 for the Cholesky sampler.
    clipped_mass: f64,
}

/// Factorizes `cov`, escalating diagonal jitter geometrically up to
/// [`MAX_JITTER`]. Returns the factor together with the jitter that was
/// actually applied, so callers can surface that they sampled a
/// perturbed covariance.
fn cholesky_with_jitter(cov: &mut SymMatrix) -> Result<(LowerTriangular, f64), FieldError> {
    let mut jitter = 0.0;
    loop {
        match cov.cholesky() {
            Ok(factor) => return Ok((factor, jitter)),
            Err(_) => {
                let next = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
                if next > MAX_JITTER {
                    return Err(FieldError::NotPositiveDefinite);
                }
                cov.add_diagonal(next - jitter);
                jitter = next;
            }
        }
    }
}

impl GaussianField {
    /// Builds the field generator. Grid points are cell centers of an
    /// `nx × ny` lattice over `[0,1] × [0,1]`.
    ///
    /// Grids up to [`CHOLESKY_MAX_CELLS`] cells factorize the dense
    /// covariance (exact up to recorded jitter); larger grids use
    /// circulant embedding (`O(n log n)` per draw).
    ///
    /// # Errors
    ///
    /// * [`FieldError::EmptyGrid`] if `nx == 0 || ny == 0`.
    /// * [`FieldError::NotPositiveDefinite`] if factorization fails even
    ///   after adding diagonal jitter up to [`MAX_JITTER`], or the
    ///   embedding clips too much spectral mass.
    pub fn build(
        nx: usize,
        ny: usize,
        correlogram: SphericalCorrelogram,
    ) -> Result<Self, FieldError> {
        if nx == 0 || ny == 0 {
            return Err(FieldError::EmptyGrid);
        }
        if nx * ny <= CHOLESKY_MAX_CELLS {
            Self::build_cholesky(nx, ny, correlogram)
        } else {
            Self::build_circulant(nx, ny, correlogram)
        }
    }

    /// Builds the field with the dense Cholesky sampler regardless of
    /// grid size. This is the statistical reference the circulant
    /// sampler is tested against; prefer [`GaussianField::build`].
    ///
    /// # Errors
    ///
    /// As for [`GaussianField::build`].
    pub fn build_cholesky(
        nx: usize,
        ny: usize,
        correlogram: SphericalCorrelogram,
    ) -> Result<Self, FieldError> {
        if nx == 0 || ny == 0 {
            return Err(FieldError::EmptyGrid);
        }
        let n = nx * ny;
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|idx| {
                let ix = idx % nx;
                let iy = idx / nx;
                ((ix as f64 + 0.5) / nx as f64, (iy as f64 + 0.5) / ny as f64)
            })
            .collect();

        let mut cov = SymMatrix::from_fn(n, |i, j| {
            let (xi, yi) = coords[i];
            let (xj, yj) = coords[j];
            let r = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            correlogram.rho(r)
        });

        // The spherical correlogram on a dense grid can be borderline
        // indefinite numerically; escalate jitter geometrically and
        // remember what was applied.
        let (factor, jitter) = cholesky_with_jitter(&mut cov)?;
        Ok(Self {
            nx,
            ny,
            sampler: Sampler::Cholesky { factor },
            correlogram,
            jitter,
            clipped_mass: 0.0,
        })
    }

    /// Builds the field with the circulant-embedding sampler regardless
    /// of grid size. Prefer [`GaussianField::build`].
    ///
    /// # Errors
    ///
    /// As for [`GaussianField::build`].
    pub fn build_circulant(
        nx: usize,
        ny: usize,
        correlogram: SphericalCorrelogram,
    ) -> Result<Self, FieldError> {
        if nx == 0 || ny == 0 {
            return Err(FieldError::EmptyGrid);
        }
        // Embed the nx × ny grid in a power-of-two torus at least twice
        // as large per axis: the minimum-image distance then reaches a
        // full die width, beyond the correlogram's largest admissible
        // range, so wrap-around never aliases correlation mass.
        let mx = (2 * nx).next_power_of_two();
        let my = (2 * ny).next_power_of_two();
        let plan = Fft2::new(mx, my);

        // First row of the block-circulant covariance: ρ at the
        // minimum-image distance of every torus offset. Grid spacing is
        // 1/nx (cell centers), so offset ox maps to distance ox/nx.
        let mut lam = vec![0.0; mx * my];
        for iy in 0..my {
            let oy = iy.min(my - iy) as f64 / ny as f64;
            for ix in 0..mx {
                let ox = ix.min(mx - ix) as f64 / nx as f64;
                lam[iy * mx + ix] = correlogram.rho((ox * ox + oy * oy).sqrt());
            }
        }
        // The torus covariance is diagonalized by the DFT: one forward
        // transform of its first row yields the eigenvalues (real, up
        // to roundoff, by the even symmetry of the row).
        let mut im = vec![0.0; mx * my];
        plan.forward(&mut lam, &mut im);

        // The embedding need not be positive definite; clip small
        // negative eigenvalues and account the clipped mass.
        let mut clipped = 0.0;
        let mut total = 0.0;
        let norm = 1.0 / (mx * my) as f64;
        let scale: Vec<f64> = lam
            .iter()
            .map(|&l| {
                total += l.abs();
                if l < 0.0 {
                    clipped += -l;
                    0.0
                } else {
                    (l * norm).sqrt()
                }
            })
            .collect();
        let clipped_mass = if total > 0.0 { clipped / total } else { 1.0 };
        if !clipped_mass.is_finite() || clipped_mass > MAX_CLIPPED_MASS {
            return Err(FieldError::NotPositiveDefinite);
        }
        Ok(Self {
            nx,
            ny,
            sampler: Sampler::Circulant { mx, scale, plan },
            correlogram,
            jitter: 0.0,
            clipped_mass,
        })
    }

    /// Grid width in points.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in points.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Returns `true` if the grid has no points (never true for a built
    /// field; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The correlogram this field was built with.
    pub fn correlogram(&self) -> SphericalCorrelogram {
        self.correlogram
    }

    /// Which sampler backs this field.
    pub fn sampler_kind(&self) -> SamplerKind {
        match self.sampler {
            Sampler::Cholesky { .. } => SamplerKind::Cholesky,
            Sampler::Circulant { .. } => SamplerKind::Circulant,
        }
    }

    /// Diagonal jitter the Cholesky setup applied before the covariance
    /// factorized. 0 means the exact covariance was factorized;
    /// anything larger means every draw samples a covariance whose
    /// diagonal was inflated by this amount (variance `1 + jitter`
    /// instead of 1). Always 0 for the circulant sampler — see
    /// [`GaussianField::clipped_spectral_mass`] for its counterpart.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Fraction of spectral mass the circulant embedding clipped
    /// (negative eigenvalues zeroed). 0 for an exact embedding and for
    /// the Cholesky sampler.
    pub fn clipped_spectral_mass(&self) -> f64 {
        self.clipped_mass
    }

    /// Draws one field realization: a row-major `nx × ny` vector of
    /// zero-mean, unit-variance, spatially-correlated normals.
    pub fn sample(&self, rng: &mut SimRng) -> Vec<f64> {
        match &self.sampler {
            Sampler::Cholesky { factor } => {
                let z: Vec<f64> = (0..self.len())
                    .map(|_| normal::standard_sample(rng))
                    .collect();
                factor.mul_vec(&z)
            }
            Sampler::Circulant { .. } => {
                let (field, _) = self.sample_pair(rng);
                field
            }
        }
    }

    /// Draws `count` independent realizations.
    ///
    /// For the circulant sampler each FFT yields two independent
    /// fields, so a batch costs roughly half as many transforms as
    /// `count` separate [`GaussianField::sample`] calls — this is the
    /// API die-batch generation amortizes setup through. The batch
    /// consumes the RNG differently from repeated `sample` calls (for
    /// the Cholesky sampler the two are identical).
    pub fn sample_many(&self, count: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        match &self.sampler {
            Sampler::Cholesky { .. } => (0..count).map(|_| self.sample(rng)).collect(),
            Sampler::Circulant { .. } => {
                let mut out = Vec::with_capacity(count);
                while out.len() < count {
                    let (a, b) = self.sample_pair(rng);
                    out.push(a);
                    if out.len() < count {
                        out.push(b);
                    }
                }
                out
            }
        }
    }

    /// One circulant draw: a single FFT of complex white noise shaped
    /// by the eigenvalue amplitudes gives two independent real fields
    /// (real and imaginary parts restricted to the grid).
    ///
    /// # Panics
    ///
    /// Panics if the field uses the Cholesky sampler.
    fn sample_pair(&self, rng: &mut SimRng) -> (Vec<f64>, Vec<f64>) {
        let Sampler::Circulant { mx, scale, plan } = &self.sampler else {
            unreachable!("sample_pair is only called on circulant fields");
        };
        let mut re: Vec<f64> = Vec::with_capacity(scale.len());
        let mut im: Vec<f64> = Vec::with_capacity(scale.len());
        for &s in scale {
            let (a, b) = normal::standard_pair(rng);
            re.push(s * a);
            im.push(s * b);
        }
        // Only the grid's columns are read back.
        plan.forward_cols(&mut re, &mut im, self.nx);
        let take = |buf: &[f64]| -> Vec<f64> {
            let mut field = Vec::with_capacity(self.nx * self.ny);
            for iy in 0..self.ny {
                let s = iy * mx;
                field.extend_from_slice(&buf[s..s + self.nx]);
            }
            field
        };
        (take(&re), take(&im))
    }

    /// Normalized coordinates (cell center) of grid point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn coords(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.len(), "index out of bounds");
        let ix = idx % self.nx;
        let iy = idx / self.nx;
        (
            (ix as f64 + 0.5) / self.nx as f64,
            (iy as f64 + 0.5) / self.ny as f64,
        )
    }
}

impl fmt::Debug for GaussianField {
    /// Compact one-line form: grid, correlation range, sampler, and the
    /// covariance perturbation actually applied (jitter or clipped
    /// spectral mass) — the trace-friendly summary of what was sampled.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaussianField")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("phi", &self.correlogram.phi())
            .field("sampler", &self.sampler_kind())
            .field("jitter", &self.jitter)
            .field("clipped_mass", &self.clipped_mass)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;

    #[test]
    fn correlogram_shape() {
        let c = SphericalCorrelogram::new(0.4);
        assert_eq!(c.rho(0.0), 1.0);
        assert_eq!(c.rho(0.4), 0.0);
        assert_eq!(c.rho(1.0), 0.0);
        // Monotone decreasing on [0, phi].
        let mut prev = 1.0;
        for i in 1..=20 {
            let r = 0.4 * i as f64 / 20.0;
            let v = c.rho(r);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }

    #[test]
    fn field_sample_statistics() {
        let field = GaussianField::build(12, 12, SphericalCorrelogram::new(0.5)).unwrap();
        let mut rng = SimRng::seed_from(3);
        // Average variance across many realizations should be ~1 per point.
        let reps = 300;
        let n = field.len();
        let mut sum_sq = 0.0;
        for _ in 0..reps {
            let s = field.sample(&mut rng);
            sum_sq += s.iter().map(|x| x * x).sum::<f64>();
        }
        let var = sum_sq / (reps * n) as f64;
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }

    #[test]
    fn nearby_points_correlate_more_than_distant() {
        let field = GaussianField::build(10, 10, SphericalCorrelogram::new(0.5)).unwrap();
        let mut rng = SimRng::seed_from(17);
        let reps = 800;
        // Points 0 and 1 are adjacent; points 0 and 99 are opposite corners.
        let (mut c_near, mut c_far) = (0.0, 0.0);
        for _ in 0..reps {
            let s = field.sample(&mut rng);
            c_near += s[0] * s[1];
            c_far += s[0] * s[99];
        }
        c_near /= reps as f64;
        c_far /= reps as f64;
        assert!(
            c_near > c_far + 0.2,
            "near {c_near} should exceed far {c_far}"
        );
        // Far corners are separated by more than phi -> ~uncorrelated.
        assert!(c_far.abs() < 0.15, "far correlation {c_far}");
    }

    #[test]
    fn empirical_correlation_tracks_correlogram() {
        let corr = SphericalCorrelogram::new(0.6);
        let field = GaussianField::build(8, 8, corr).unwrap();
        let mut rng = SimRng::seed_from(29);
        let reps = 2000;
        // Adjacent horizontally: r = 1/8.
        let mut acc = 0.0;
        for _ in 0..reps {
            let s = field.sample(&mut rng);
            acc += s[10] * s[11];
        }
        let emp = acc / reps as f64;
        let expect = corr.rho(1.0 / 8.0);
        assert!((emp - expect).abs() < 0.1, "empirical {emp} vs {expect}");
    }

    #[test]
    fn deterministic_given_seed() {
        let field = GaussianField::build(6, 6, SphericalCorrelogram::new(0.5)).unwrap();
        let a = field.sample(&mut SimRng::seed_from(5));
        let b = field.sample(&mut SimRng::seed_from(5));
        assert_eq!(a, b);
    }

    #[test]
    fn rectangular_grids_work() {
        let field = GaussianField::build(4, 9, SphericalCorrelogram::new(0.3)).unwrap();
        assert_eq!(field.len(), 36);
        let s = field.sample(&mut SimRng::seed_from(1));
        assert_eq!(s.len(), 36);
        let summary = Summary::of(&s);
        assert!(summary.mean.abs() < 3.0); // sanity: finite, not exploded
    }

    #[test]
    fn empty_grid_rejected() {
        assert_eq!(
            GaussianField::build(0, 5, SphericalCorrelogram::new(0.5)).unwrap_err(),
            FieldError::EmptyGrid
        );
        assert_eq!(
            GaussianField::build_circulant(5, 0, SphericalCorrelogram::new(0.5)).unwrap_err(),
            FieldError::EmptyGrid
        );
    }

    #[test]
    fn coords_center_of_cells() {
        let field = GaussianField::build(2, 2, SphericalCorrelogram::new(0.5)).unwrap();
        assert_eq!(field.coords(0), (0.25, 0.25));
        assert_eq!(field.coords(3), (0.75, 0.75));
    }

    #[test]
    fn auto_build_picks_sampler_by_grid_size() {
        let small = GaussianField::build(16, 16, SphericalCorrelogram::new(0.5)).unwrap();
        assert_eq!(small.sampler_kind(), SamplerKind::Cholesky);
        let large = GaussianField::build(40, 40, SphericalCorrelogram::new(0.5)).unwrap();
        assert_eq!(large.sampler_kind(), SamplerKind::Circulant);
    }

    /// The circulant sampler must reproduce the Cholesky sampler's
    /// empirical correlogram on a common grid: unit variance, matching
    /// near-lag correlations, and ~zero correlation beyond φ.
    #[test]
    fn circulant_statistically_equivalent_to_cholesky() {
        let (nx, ny) = (24usize, 24usize);
        let corr = SphericalCorrelogram::new(0.5);
        let chol = GaussianField::build_cholesky(nx, ny, corr).unwrap();
        let circ = GaussianField::build_circulant(nx, ny, corr).unwrap();
        assert!(circ.clipped_spectral_mass() < 1e-3);

        // Empirical correlogram at a handful of lags, pooled over every
        // horizontal pair at that lag and many realizations.
        let lags = [1usize, 3, 6, 16];
        let reps = 250;
        let correlate = |field: &GaussianField, seed: u64| -> Vec<f64> {
            let mut rng = SimRng::seed_from(seed);
            let mut acc = vec![0.0; lags.len()];
            let mut cnt = vec![0usize; lags.len()];
            for s in field.sample_many(reps, &mut rng) {
                for (li, &lag) in lags.iter().enumerate() {
                    for iy in 0..ny {
                        for ix in 0..nx - lag {
                            acc[li] += s[iy * nx + ix] * s[iy * nx + ix + lag];
                            cnt[li] += 1;
                        }
                    }
                }
            }
            acc.iter().zip(&cnt).map(|(a, &c)| a / c as f64).collect()
        };
        let emp_chol = correlate(&chol, 11);
        let emp_circ = correlate(&circ, 12);
        for (li, &lag) in lags.iter().enumerate() {
            let want = corr.rho(lag as f64 / nx as f64);
            assert!(
                (emp_chol[li] - emp_circ[li]).abs() < 0.06,
                "lag {lag}: cholesky {} vs circulant {}",
                emp_chol[li],
                emp_circ[li]
            );
            assert!(
                (emp_circ[li] - want).abs() < 0.06,
                "lag {lag}: circulant {} vs model {want}",
                emp_circ[li]
            );
        }
        // Unit variance on both samplers.
        let var_of = |field: &GaussianField, seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut sum_sq = 0.0;
            for s in field.sample_many(reps, &mut rng) {
                sum_sq += s.iter().map(|x| x * x).sum::<f64>();
            }
            sum_sq / (reps * nx * ny) as f64
        };
        assert!((var_of(&circ, 13) - 1.0).abs() < 0.05);
        assert!((var_of(&chol, 14) - 1.0).abs() < 0.05);
    }

    #[test]
    fn circulant_deterministic_given_seed_and_pairs_independent() {
        let field = GaussianField::build_circulant(20, 20, SphericalCorrelogram::new(0.5)).unwrap();
        let a = field.sample(&mut SimRng::seed_from(7));
        let b = field.sample(&mut SimRng::seed_from(7));
        assert_eq!(a, b);
        // A pair from one FFT must be two *different* fields, and the
        // first of the pair must match the plain sample stream.
        let pair = field.sample_many(2, &mut SimRng::seed_from(7));
        assert_eq!(pair[0], a);
        assert_ne!(pair[0], pair[1]);
        // Pair halves are uncorrelated (independent by construction).
        let dot: f64 = pair[0].iter().zip(&pair[1]).map(|(x, y)| x * y).sum();
        let n = field.len() as f64;
        assert!((dot / n).abs() < 0.2, "pair correlation {}", dot / n);
    }

    /// `sample_pair` with the full 2-D transform, the draw before the
    /// column pass was bounded to the grid's columns.
    fn full_transform_pair(field: &GaussianField, rng: &mut SimRng) -> (Vec<f64>, Vec<f64>) {
        let Sampler::Circulant { mx, scale, plan } = &field.sampler else {
            panic!("circulant field expected");
        };
        let (mut re, mut im): (Vec<f64>, Vec<f64>) = scale
            .iter()
            .map(|&s| {
                let (a, b) = normal::standard_pair(rng);
                (s * a, s * b)
            })
            .unzip();
        plan.forward(&mut re, &mut im);
        let take = |buf: &[f64]| -> Vec<f64> {
            (0..field.ny)
                .flat_map(|iy| buf[iy * mx..iy * mx + field.nx].iter().copied())
                .collect()
        };
        (take(&re), take(&im))
    }

    #[test]
    fn circulant_sample_matches_full_transform() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (nx, ny) in [(60, 60), (12, 40), (33, 7)] {
            let field =
                GaussianField::build_circulant(nx, ny, SphericalCorrelogram::new(0.5)).unwrap();
            let mut want_rng = SimRng::seed_from(20080621);
            let mut got_rng = SimRng::seed_from(20080621);
            for _ in 0..3 {
                let (a, b) = full_transform_pair(&field, &mut want_rng);
                let pair = field.sample_many(2, &mut got_rng);
                assert_eq!(bits(&pair[0]), bits(&a), "{nx}x{ny} real half");
                assert_eq!(bits(&pair[1]), bits(&b), "{nx}x{ny} imaginary half");
            }
            let (a, _) = full_transform_pair(&field, &mut SimRng::seed_from(3));
            assert_eq!(bits(&field.sample(&mut SimRng::seed_from(3))), bits(&a));
        }
    }

    #[test]
    fn circulant_rectangular_and_large_grids() {
        // Rectangular: embedding dimensions pad each axis separately.
        let rect = GaussianField::build_circulant(12, 40, SphericalCorrelogram::new(0.4)).unwrap();
        let s = rect.sample(&mut SimRng::seed_from(3));
        assert_eq!(s.len(), 12 * 40);
        assert!(s.iter().all(|v| v.is_finite()));

        // Large grid (the fleet's per-chip map scale): finite samples,
        // sane variance, near-lag correlation where the model puts it.
        let big = GaussianField::build(64, 64, SphericalCorrelogram::new(0.5)).unwrap();
        assert_eq!(big.sampler_kind(), SamplerKind::Circulant);
        // φ = 0.5 leaves only a handful of independent correlation
        // patches per 64×64 draw, so the variance estimate needs many
        // fields to settle inside the tolerance.
        let mut rng = SimRng::seed_from(9);
        let reps = 120;
        let mut var = 0.0;
        let mut near = 0.0;
        for s in big.sample_many(reps, &mut rng) {
            var += s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64;
            near += (0..s.len() - 1).map(|i| s[i] * s[i + 1]).sum::<f64>() / (s.len() - 1) as f64;
        }
        var /= reps as f64;
        near /= reps as f64;
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
        let want = SphericalCorrelogram::new(0.5).rho(1.0 / 64.0);
        assert!((near - want).abs() < 0.1, "near-lag {near} vs {want}");
    }

    #[test]
    fn sample_many_matches_sequential_for_cholesky() {
        let field = GaussianField::build(8, 8, SphericalCorrelogram::new(0.5)).unwrap();
        let batch = field.sample_many(3, &mut SimRng::seed_from(21));
        let mut rng = SimRng::seed_from(21);
        let seq: Vec<Vec<f64>> = (0..3).map(|_| field.sample(&mut rng)).collect();
        assert_eq!(batch, seq);
    }

    #[test]
    fn exact_factorization_records_zero_jitter() {
        // Tiny grids are comfortably positive definite.
        let field = GaussianField::build(6, 6, SphericalCorrelogram::new(0.5)).unwrap();
        assert_eq!(field.jitter(), 0.0);
        assert_eq!(field.clipped_spectral_mass(), 0.0);
    }

    /// The jitter-escalation path: a singular (rank-deficient) PSD
    /// matrix fails the exact factorization, succeeds once jitter is
    /// applied, and the applied jitter is reported to the caller.
    #[test]
    fn jitter_escalation_is_recorded() {
        // Two identical rows -> exactly singular.
        let mut cov = SymMatrix::from_fn(4, |i, j| {
            let (i, j) = (i.min(2), j.min(2)); // rows 2 and 3 coincide
            if i == j {
                1.0
            } else {
                0.3
            }
        });
        assert!(cov.clone().cholesky().is_err(), "must need jitter");
        let (factor, jitter) = cholesky_with_jitter(&mut cov).expect("jitter rescues it");
        assert!(jitter > 0.0, "applied jitter must be recorded");
        assert!(jitter <= MAX_JITTER);
        // The factor is usable: sampling produces finite values.
        let z = vec![1.0; 4];
        assert!(factor.mul_vec(&z).iter().all(|v| v.is_finite()));
    }

    /// Beyond `MAX_JITTER` the build gives up with the typed error
    /// instead of silently sampling garbage.
    #[test]
    fn hopeless_matrix_exhausts_jitter() {
        // Strongly indefinite: large negative eigenvalue no 1e-6 fixes.
        let mut cov = SymMatrix::from_fn(3, |i, j| if i == j { 1.0 } else { 2.0 });
        assert_eq!(
            cholesky_with_jitter(&mut cov).unwrap_err(),
            FieldError::NotPositiveDefinite
        );
    }

    #[test]
    fn debug_output_surfaces_sampler_and_jitter() {
        let field = GaussianField::build(6, 6, SphericalCorrelogram::new(0.5)).unwrap();
        let dbg = format!("{field:?}");
        assert!(dbg.contains("sampler: Cholesky"), "debug: {dbg}");
        assert!(dbg.contains("jitter"), "debug: {dbg}");
        let big = GaussianField::build(40, 40, SphericalCorrelogram::new(0.5)).unwrap();
        let dbg = format!("{big:?}");
        assert!(dbg.contains("sampler: Circulant"), "debug: {dbg}");
        assert!(dbg.contains("clipped_mass"), "debug: {dbg}");
    }
}
