//! Polynomial (Newton–Chebyshev) preconditioning, and the selection of a
//! preconditioner by value ([`auto_preconditioner`]; `Auto`'s rule is
//! [`auto_ssor`]).
//!
//! A polynomial preconditioner `M⁻¹ = p(G)·D⁻¹` in the Jacobi-scaled
//! operator `G = D⁻¹K` is built from **SpMVs only**: a degree-`k`
//! application is exactly `k` products `K·z`, each followed by one fused
//! pass over the rows — zero color-sweep synchronization
//! (Bergamaschi–Martinez 2020; D'Ambra et al. 2025 for the Chebyshev-basis
//! recipe). It is a pinned pool-path choice ([`PrecondKind::Poly`]);
//! `Auto` does not pick it (see below), and the SPMD executor runs the
//! m-step SSOR only. It is the one polynomial in the Jacobi splitting
//! here: the min-max m-step Jacobi `(Σ αᵢ Gⁱ)·D⁻¹` is the Chebyshev
//! polynomial of degree `m − 1`, one SpMV cheaper per application.
//!
//! `M⁻¹` is symmetric positive definite in the PCG sense:
//! `p(D⁻¹K)·D⁻¹ = D^{-1/2}·p(D^{-1/2}K D^{-1/2})·D^{-1/2}` is congruent to
//! a polynomial in a symmetric matrix, and both recurrences here keep
//! `p > 0` on the estimated spectral interval (the Chebyshev residual
//! polynomial satisfies `|1 − t·p(t)| < 1` inside it).
//!
//! Both recurrences are expressed by one difference scheme, whose scalars
//! and per-row arithmetic one schedule holds, computed once per
//! preconditioner:
//!
//! ```text
//! z₀ = scale₀·D⁻¹r,        d₀ = z₀,
//! step j:   resid = D⁻¹(r − K·zⱼ),   d ← aⱼ·d + bⱼ·resid,   zⱼ₊₁ = zⱼ + d.
//! ```
//!
//! * **Newton** (scaled Richardson / truncated Neumann): with the optimal
//!   damping `ω = 2/(λ₁+λₙ)`: `scale₀ = ω`, `(aⱼ, bⱼ) = (0, ω)`;
//! * **Chebyshev** (Saad, *Iterative Methods*, Alg. 12.1): with
//!   `θ = (λₙ+λ₁)/2`, `δ = (λₙ−λ₁)/2`, `σ = θ/δ`: `scale₀ = 1/θ`,
//!   `ρ₀ = 1/σ`, and step `j` uses `ρⱼ = 1/(2σ − ρⱼ₋₁)`,
//!   `(aⱼ, bⱼ) = (ρⱼρⱼ₋₁, 2ρⱼ/δ)`.
//!
//! The spectral interval comes from [`mspcg_sparse::lanczos`] on the
//! symmetric similar operator `D^{-1/2}K D^{-1/2}`, safeguarded
//! *relatively* on both ends ([`jacobi_spectrum`]) so a small `λ₁` keeps
//! its order of magnitude, and is **cached** in the
//! preconditioner: repeated applications (every PCG iteration) and
//! rebuilt preconditioners over the same matrix
//! ([`PolynomialPreconditioner::with_interval`]) never re-run Lanczos.
//! The m-step SSOR keeps its one estimate ([`SweepTable::ssor_spectrum`])
//! the same way ([`MStepSsorPreconditioner::with_interval`]). Neither
//! estimate returns a lower end that sits on its clamp.
//!
//! ## `Auto`: the paper's parametrized m-step SSOR
//!
//! [`PrecondKind::Auto`] resolves to the m-step multicolor SSOR with
//! min-max coefficients (§2.2), its `m` chosen by the paper's cost model
//! (§4), on both executors through [`auto_ssor`]. One 60-step power
//! iteration estimates `σ(P⁻¹K) ⊆ [1 − ρ, 1]`
//! ([`SweepTable::ssor_spectrum`]); the walk fits
//! [`minimax_alphas`] at `m_default` and steps `m → m + 1`, up to
//! [`AUTO_MAX_M`], while inequality (4.2)
//! ([`step_increase_beneficial`]) predicts a gain. The
//! iteration counts it compares come from the fit
//! ([`predicted_iterations`]); the cost ratio `B/A` from the
//! operator's `n` and `nnz` ([`CostModel::from_traffic`]), so the choice
//! takes no timing and is deterministic. The polynomial is not a
//! candidate: on the Table-3 plates (a = 24, 40, 100, both executors,
//! 2 threads) the degree-4 Chebyshev pick lost to min-max SSOR at every
//! `m` from 2 to 10, and ranking it would cost a Lanczos run at set-up.
//! Matched flops do not decide it either: at a = 100 one Chebyshev degree
//! costs ≈ 165 µs and one SSOR step ≈ 300 µs, but the fitted SSOR needs
//! far fewer iterations (94 against 249 at relative residual 1e-8).

use crate::analysis::{predicted_iterations, step_increase_beneficial, CostModel};
use crate::coeffs::{fit_alphas, minimax_alphas};
use crate::mstep::MStepSsorPreconditioner;
use crate::preconditioner::{checked_recip, Preconditioner};
use crate::ssor::{MulticolorSsor, SweepTable};
use mspcg_sparse::lanczos::{lanczos_extremes, SpectralInterval};
use mspcg_sparse::par::ParSlice;
use mspcg_sparse::tuning::{PolyKind, PrecondKind};
use mspcg_sparse::{vecops, CsrMatrix, Partition, SparseError, SparseOp};
use std::sync::Arc;

/// Step budget of both spectrum estimates: [`jacobi_spectrum`]'s Lanczos
/// (clamped to the operator dimension) and the pool-parallel SSOR power
/// iteration ([`SweepTable::ssor_spectrum`]) of the fitted SSOR and `Auto`.
pub const SPECTRUM_STEPS: usize = 60;

/// Relative safeguard on the **upper** interval end (Ritz values
/// under-estimate `λₙ` from the inside).
pub const UPPER_MARGIN: f64 = 0.02;

/// Relative safeguard on the **lower** interval end: the lower Ritz value
/// is pushed *down* by this factor. The margin is multiplicative — an
/// additive span-proportional widening would annihilate a small `λ₁`
/// entirely (`λ₁ − margin·(λₙ−λ₁) < 0` whenever `κ > 1/margin`), turning
/// the interval into `[ε, λₙ]` on which neither the Chebyshev recurrence
/// nor a min-max m-step fit gains anything — and it is deliberately
/// *small*: the asymptotic Chebyshev
/// damping factor degrades like `√(λ₁/λₙ)`, so every factor of two lost
/// at the lower end costs `√2` in the exponent. Under-bracketing below is
/// safe for SPD: Ritz values never under-estimate `λ₁` (they lie inside
/// the true spectrum), and even for an eigenvalue `t` that does fall
/// below the interval the residual polynomial satisfies `R(t) ∈ (0, 1)`
/// on `(0, λmin)` (the shifted Chebyshev argument is in `(1, σ)` where
/// `C_{k+1}` increases monotonically from the equioscillation bound up to
/// `R(0) = 1`), hence `p(t)·t = 1 − R(t) > 0`. Only the *upper* end can
/// break positivity, which is why [`UPPER_MARGIN`] brackets outward.
pub const LOWER_MARGIN: f64 = 0.1;

/// Estimate the spectral interval of the Jacobi-scaled operator `D⁻¹K`
/// via Lanczos on the similar symmetric operator `D^{-1/2}K D^{-1/2}`,
/// safeguarded relatively on both ends ([`LOWER_MARGIN`] /
/// [`UPPER_MARGIN`]). It is the polynomial family's one estimate.
///
/// # Errors
/// Propagates [`lanczos_extremes`] failures, among them the
/// [`SparseError::DidNotConverge`] of an empty operator, and
/// [`SparseError::NotPositiveDefinite`] (pivot 0, the lower end as value)
/// when an end is not finite or the lower one is not above `1e-12`.
///
/// # Panics
/// Panics if `inv_diag.len() != a.rows()`.
pub fn jacobi_spectrum<A: SparseOp>(
    a: &A,
    inv_diag: &[f64],
) -> Result<SpectralInterval, SparseError> {
    let n = a.rows();
    assert_eq!(inv_diag.len(), n, "jacobi_spectrum: diag length mismatch");
    let dhalf: Vec<f64> = inv_diag.iter().map(|d| d.sqrt()).collect();
    let mut tmp = vec![0.0; n];
    let est = lanczos_extremes(n, SPECTRUM_STEPS, 0x5EED, |x, y| {
        for i in 0..n {
            tmp[i] = dhalf[i] * x[i];
        }
        a.mul_vec_into(&tmp, y);
        for i in 0..n {
            y[i] *= dhalf[i];
        }
    })?;
    let min = est.min * (1.0 - LOWER_MARGIN);
    let max = est.max * (1.0 + UPPER_MARGIN);
    if !(min > 1e-12 && max.is_finite()) {
        return Err(SparseError::NotPositiveDefinite {
            pivot: 0,
            value: min,
        });
    }
    Ok(SpectralInterval {
        min,
        max,
        steps: est.steps,
    })
}

/// The coefficient schedule of one polynomial preconditioner application:
/// the seed scale and the per-step `(aⱼ, bⱼ)` pairs of the unified
/// difference recurrence (module docs), and the arithmetic that applies
/// them. Computed **once** at construction of a
/// [`PolynomialPreconditioner`], its one user.
#[derive(Debug, Clone, PartialEq)]
struct PolySchedule {
    scale0: f64,
    steps: Vec<(f64, f64)>,
}

impl PolySchedule {
    /// Build the schedule for `kind` at `degree` on the (already widened)
    /// interval `[min, max]`.
    ///
    /// A degenerate interval (`max − min` negligible against `θ` — a
    /// scaled identity, or a 1×1 system) makes the Chebyshev three-term
    /// recurrence ill-defined (`δ → 0`), so both kinds then fall back to
    /// the single-point Richardson schedule `(0, 1/θ)`, which is exact in
    /// one step for the operator the interval describes.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] for `degree == 0`;
    /// [`SparseError::NotPositiveDefinite`] when `min ≤ 0` or the ends are
    /// not finite and ordered (the preconditioner would not be SPD).
    fn new(kind: PolyKind, min: f64, max: f64, degree: usize) -> Result<Self, SparseError> {
        if degree == 0 {
            return Err(SparseError::InvalidPartition {
                reason: "polynomial degree must be at least 1".into(),
            });
        }
        if !(min > 0.0 && max >= min && max.is_finite()) {
            return Err(SparseError::NotPositiveDefinite {
                pivot: 0,
                value: min,
            });
        }
        let theta = 0.5 * (max + min);
        let delta = 0.5 * (max - min);
        let degenerate = delta <= theta * 1e-12;
        let schedule = match kind {
            _ if degenerate => PolySchedule {
                scale0: 1.0 / theta,
                steps: vec![(0.0, 1.0 / theta); degree],
            },
            PolyKind::Newton => {
                let omega = 2.0 / (max + min);
                PolySchedule {
                    scale0: omega,
                    steps: vec![(0.0, omega); degree],
                }
            }
            PolyKind::Chebyshev => {
                let sigma = theta / delta;
                let mut rho = 1.0 / sigma;
                let mut steps = Vec::with_capacity(degree);
                for _ in 0..degree {
                    let rho_next = 1.0 / (2.0 * sigma - rho);
                    steps.push((rho_next * rho, 2.0 * rho_next / delta));
                    rho = rho_next;
                }
                PolySchedule {
                    scale0: 1.0 / theta,
                    steps,
                }
            }
        };
        Ok(schedule)
    }

    /// Polynomial degree = SpMVs per application.
    fn degree(&self) -> usize {
        self.steps.len()
    }

    /// The seed `z₀ = scale₀·D⁻¹r` at one row, from that row's `D⁻¹` and
    /// `r`.
    #[inline(always)]
    fn seed(&self, inv_diag: f64, r: f64) -> f64 {
        self.scale0 * inv_diag * r
    }

    /// Step `j` (from 0) of the recurrence on a run of rows, in place,
    /// given `kz = K·zⱼ` on them:
    ///
    /// ```text
    /// d ← aⱼ·d + bⱼ·D⁻¹(r − kz),    z ← zⱼ + d.
    /// ```
    ///
    /// `zⱼ` is read from `z`, except at step 0, where `z₀ = d₀` is the
    /// [`PolySchedule::seed`] of `r` and neither `z` nor `d` is read. Rows
    /// are independent: each pool chunk runs its own run of them.
    ///
    /// # Panics
    /// If the slices differ in length.
    #[inline]
    fn step_rows(
        &self,
        j: usize,
        inv_diag: &[f64],
        r: &[f64],
        kz: &[f64],
        d: &mut [f64],
        z: &mut [f64],
    ) {
        let n = z.len();
        let lens = [inv_diag.len(), r.len(), kz.len(), d.len()];
        assert!(lens == [n; 4], "poly step: length mismatch");
        let (a, b) = self.steps[j];
        let row = |i: usize, zi: f64, di: f64| {
            let resid = inv_diag[i] * (r[i] - kz[i]);
            let di = a * di + b * resid;
            (di, zi + di)
        };
        if j == 0 {
            for i in 0..n {
                let z0 = self.seed(inv_diag[i], r[i]);
                (d[i], z[i]) = row(i, z0, z0);
            }
        } else {
            for i in 0..n {
                (d[i], z[i]) = row(i, z[i], d[i]);
            }
        }
    }
}

/// The degree-`k` polynomial preconditioner `M⁻¹ = p(D⁻¹K)·D⁻¹`, generic
/// over the operator storage ([`SparseOp`]): CSR, SELL-C-σ and `AutoOp`
/// all evaluate through the same fused kernels and produce bitwise
/// identical applications (the SpMV determinism contract). Allocation-free
/// after setup: an application runs on the caller's
/// [`Preconditioner::scratch_len`] values
/// ([`Preconditioner::apply_with`]).
pub struct PolynomialPreconditioner<A: SparseOp = CsrMatrix> {
    a: A,
    inv_diag: Vec<f64>,
    kind: PolyKind,
    interval: SpectralInterval,
    schedule: PolySchedule,
}

impl<A: SparseOp> PolynomialPreconditioner<A> {
    /// Build for `kind` at `degree`, estimating the spectral interval of
    /// `D⁻¹K` with Lanczos ([`jacobi_spectrum`]). The estimate is cached
    /// in the preconditioner — reuse it across rebuilds with
    /// [`PolynomialPreconditioner::with_interval`].
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] / [`SparseError::ZeroDiagonal`] for a
    /// defective matrix, estimation failures, and the schedule's
    /// validation errors: [`SparseError::InvalidPartition`] for
    /// `degree == 0`, [`SparseError::NotPositiveDefinite`] for an
    /// interval whose ends are not positive, finite and ordered.
    pub fn new(a: A, kind: PolyKind, degree: usize) -> Result<Self, SparseError> {
        let inv_diag = checked_inv_diag(&a)?;
        let interval = jacobi_spectrum(&a, &inv_diag)?;
        Self::assemble(a, inv_diag, kind, degree, interval)
    }

    /// Chebyshev recurrence at `degree` (the default kind — min-max
    /// optimal on the estimated interval).
    ///
    /// # Errors
    /// Same classes as [`PolynomialPreconditioner::new`].
    pub fn chebyshev(a: A, degree: usize) -> Result<Self, SparseError> {
        Self::new(a, PolyKind::Chebyshev, degree)
    }

    /// Newton (scaled Richardson) recurrence at `degree`.
    ///
    /// # Errors
    /// Same classes as [`PolynomialPreconditioner::new`].
    pub fn newton(a: A, degree: usize) -> Result<Self, SparseError> {
        Self::new(a, PolyKind::Newton, degree)
    }

    /// Build from an **already estimated** interval — the Lanczos-caching
    /// entry point: a second preconditioner over the same matrix (another
    /// degree, the other kind, a rebuilt solver) reuses the cached
    /// [`PolynomialPreconditioner::interval`] instead of re-running the
    /// eigenvalue estimation.
    ///
    /// # Errors
    /// Matrix validation and the schedule's validation errors (see
    /// [`PolynomialPreconditioner::new`]).
    pub fn with_interval(
        a: A,
        kind: PolyKind,
        degree: usize,
        interval: SpectralInterval,
    ) -> Result<Self, SparseError> {
        let inv_diag = checked_inv_diag(&a)?;
        Self::assemble(a, inv_diag, kind, degree, interval)
    }

    fn assemble(
        a: A,
        inv_diag: Vec<f64>,
        kind: PolyKind,
        degree: usize,
        interval: SpectralInterval,
    ) -> Result<Self, SparseError> {
        let schedule = PolySchedule::new(kind, interval.min, interval.max, degree)?;
        Ok(PolynomialPreconditioner {
            a,
            inv_diag,
            kind,
            interval,
            schedule,
        })
    }

    /// The recurrence family.
    pub fn kind(&self) -> PolyKind {
        self.kind
    }

    /// Polynomial degree (= SpMVs per application).
    pub fn degree(&self) -> usize {
        self.schedule.degree()
    }

    /// The cached spectral-interval estimate of `D⁻¹K` this preconditioner
    /// was built on — feed it to
    /// [`PolynomialPreconditioner::with_interval`] to skip Lanczos on a
    /// rebuild.
    pub fn interval(&self) -> SpectralInterval {
        self.interval
    }

    /// Rebuild at another `degree` (same matrix, same kind), reusing the
    /// cached interval **and** the checked reciprocal diagonal — the
    /// degree-sweep entry point: a sweep over degrees on one matrix runs
    /// Lanczos exactly once, for the first preconditioner.
    ///
    /// # Errors
    /// The schedule's validation errors (see
    /// [`PolynomialPreconditioner::new`]).
    pub fn with_degree(&self, degree: usize) -> Result<Self, SparseError>
    where
        A: Clone,
    {
        Self::assemble(
            self.a.clone(),
            self.inv_diag.clone(),
            self.kind,
            degree,
            self.interval,
        )
    }
}

pub(crate) fn checked_inv_diag<A: SparseOp>(a: &A) -> Result<Vec<f64>, SparseError> {
    let (rows, cols) = a.dims();
    if rows != cols {
        return Err(SparseError::NotSquare { rows, cols });
    }
    let mut diag = vec![0.0; rows];
    a.diag_into(&mut diag);
    checked_recip(&diag)
}

impl<A: SparseOp> Preconditioner for PolynomialPreconditioner<A> {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    /// One SpMV per degree: the polynomial degree `k`.
    fn steps_per_apply(&self) -> usize {
        self.schedule.degree()
    }

    /// `K·z` and the difference carry `d`.
    fn scratch_len(&self) -> usize {
        2 * self.inv_diag.len()
    }

    /// Per step one SpMV and one fused pass over the rows, which steps `z`
    /// in place: the whole `K·zⱼ` is formed before the pass, and each row
    /// reads and writes only its own `zⱼ`, `d` and `zⱼ₊₁`. The first SpMV
    /// reads the seed from `d`, which step 0 writes, not reads.
    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n, "poly apply: r length mismatch");
        assert_eq!(z.len(), n, "poly apply: z length mismatch");
        assert!(scratch.len() >= 2 * n, "poly apply: scratch too short");
        let (kz, d) = scratch.split_at_mut(n);
        let (s, inv_diag, d) = (&self.schedule, &self.inv_diag[..], &mut d[..n]);
        vecops::elementwise::<1>(n, d, |lo, hi, d| {
            for (di, i) in d.iter_mut().zip(lo..hi) {
                *di = s.seed(inv_diag[i], r[i]);
            }
        });
        for j in 0..s.degree() {
            self.a.mul_vec_into(if j == 0 { d } else { z }, kz);
            let (kz, ds) = (&*kz, ParSlice::new(d));
            vecops::elementwise::<1>(n, z, |lo, hi, z| {
                // SAFETY: the chunks are disjoint and each runs once, and
                // nothing else touches `d` during this launch.
                let d = unsafe { ds.slice_mut(lo..hi) };
                s.step_rows(j, &inv_diag[lo..hi], &r[lo..hi], &kz[lo..hi], d, z);
            });
        }
    }

    /// The cached Jacobi-spectrum estimate this preconditioner's schedule
    /// was built on.
    fn spectral_hint(&self) -> Option<SpectralInterval> {
        Some(self.interval)
    }
}

/// The serial preconditioner a [`PrecondKind`] builds
/// ([`auto_preconditioner`]): the paper's m-step multicolor SSOR (`Auto`
/// and a pinned `MStepSsor`) or a pinned polynomial, behind one type so
/// callers can let `Auto` choose per matrix.
pub enum AutoPreconditioner<A: SparseOp = CsrMatrix> {
    /// The paper's m-step multicolor SSOR; its
    /// [`MStepSsorPreconditioner::alphas`] and
    /// [`MStepSsorPreconditioner::interval`] tell a fitted `Auto`
    /// resolution from α = 1.
    MStepSsor(MStepSsorPreconditioner),
    /// The degree-k polynomial alternative.
    Poly(PolynomialPreconditioner<A>),
}

impl<A: SparseOp> AutoPreconditioner<A> {
    /// Which selection was made — never [`PrecondKind::Auto`].
    pub fn selected(&self) -> PrecondKind {
        match self {
            AutoPreconditioner::MStepSsor(p) => PrecondKind::MStepSsor {
                m: p.steps_per_apply(),
            },
            AutoPreconditioner::Poly(p) => PrecondKind::Poly {
                kind: p.kind(),
                degree: p.degree(),
            },
        }
    }
}

impl<A: SparseOp> Preconditioner for AutoPreconditioner<A> {
    fn dim(&self) -> usize {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.dim(),
            AutoPreconditioner::Poly(p) => p.dim(),
        }
    }

    fn steps_per_apply(&self) -> usize {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.steps_per_apply(),
            AutoPreconditioner::Poly(p) => p.steps_per_apply(),
        }
    }

    fn scratch_len(&self) -> usize {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.scratch_len(),
            AutoPreconditioner::Poly(p) => p.scratch_len(),
        }
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.apply_with(r, z, scratch),
            AutoPreconditioner::Poly(p) => p.apply_with(r, z, scratch),
        }
    }

    fn apply_block<const W: usize>(
        &self,
        r: &[f64],
        z: &mut [f64],
        active: &[bool; W],
        scratch: &mut [f64],
    ) {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.apply_block(r, z, active, scratch),
            AutoPreconditioner::Poly(p) => p.apply_block(r, z, active, scratch),
        }
    }

    fn spectral_hint(&self) -> Option<SpectralInterval> {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.spectral_hint(),
            AutoPreconditioner::Poly(p) => p.spectral_hint(),
        }
    }
}

/// Largest `m` the `Auto` walk reaches. In the `(1 − t)ⁱ` basis the
/// min-max coefficients grow about 5× per step (max |α| is 5.3e4 at
/// m = 8 and 1.2e6 at m = 10 on the Table-3 plate), and measured solve
/// time there is flat from m = 4 to 10.
pub const AUTO_MAX_M: usize = 8;

/// The error reduction the `Auto` walk predicts iteration counts for. Only
/// the ratios between counts enter inequality (4.2).
pub const AUTO_PREDICTION_EPS: f64 = 1e-8;

/// `Auto`'s rule, the one both executors run: the paper's parametrized
/// m-step SSOR (module docs) on the operator whose sweep table is
/// `table`. It returns min-max α on the SSOR interval estimated on
/// `table`, with `m` walked up from `m_default` by inequality (4.2), and
/// that interval. It falls back to α = 1 at `m_default` with no interval
/// when the estimate errs (an empty operator, before any step; `G = 0`, a
/// diagonal `K`; a lower end on its clamp) and when the fit fails the SPD
/// check.
pub fn auto_ssor(table: &SweepTable, m_default: usize) -> (Vec<f64>, Option<SpectralInterval>) {
    let mut m = m_default.max(1);
    let unit = (vec![1.0; m], None);
    // An empty operator errs here too, before any step is taken.
    let Ok(interval) = table.ssor_spectrum(1.0, SPECTRUM_STEPS) else {
        return unit;
    };
    let Some((mut alphas, mut n_m)) = minimax_fit(m, interval) else {
        return unit;
    };
    let model = CostModel::from_traffic(table.matrix().rows(), table.matrix().nnz());
    while m < AUTO_MAX_M {
        let Some((next, n_next)) = minimax_fit(m + 1, interval) else {
            break;
        };
        // (4.2) assumes N_{m+1} ≤ N_m; a step that saves no iteration
        // never pays.
        if n_next >= n_m || !step_increase_beneficial(m, n_m, n_next, model).beneficial {
            break;
        }
        (m, alphas, n_m) = (m + 1, next, n_next);
    }
    (alphas, Some(interval))
}

/// Min-max α at `m` on `interval` and the iterations they predict, or
/// `None` when `fit_alphas` errs or the fit bounds no condition number.
fn minimax_fit(m: usize, interval: SpectralInterval) -> Option<(Vec<f64>, usize)> {
    let ends = (interval.min, interval.max);
    let alphas = fit_alphas(m, ends, minimax_alphas).ok()?;
    let n = predicted_iterations(&alphas, ends, AUTO_PREDICTION_EPS)?;
    Some((alphas, n))
}

/// Build the serial preconditioner `selection` names over `a`:
///
/// * [`PrecondKind::Auto`] → the m-step SSOR with [`auto_ssor`]'s
///   coefficients;
/// * a pinned `MStepSsor { m }` → the m-step SSOR at α = 1, no estimate;
/// * a pinned `Poly` → [`PolynomialPreconditioner::new`], on ONE Lanczos
///   estimate of the Jacobi spectrum of `a` ([`jacobi_spectrum`]).
///
/// The m-step SSOR builds its splitting first — one CSR copy of `a`,
/// which the estimate and the sweeps share — so an operator whose
/// `colors` do not decouple is a [`SparseError::InvalidPartition`]; a
/// pinned polynomial needs no coloring.
///
/// # Errors
/// Propagates the splitting's and the chosen constructor's errors.
pub fn auto_preconditioner<A: SparseOp + Clone>(
    a: &A,
    colors: &Partition,
    m_default: usize,
    selection: PrecondKind,
) -> Result<AutoPreconditioner<A>, SparseError> {
    let ssor = || MulticolorSsor::from_op(a, Arc::new(colors.clone()), 1.0);
    let (ssor, (alphas, interval)) = match selection {
        PrecondKind::Auto => {
            let ssor = ssor()?;
            let fit = auto_ssor(ssor.table(), m_default);
            (ssor, fit)
        }
        PrecondKind::MStepSsor { m } => (ssor()?, (vec![1.0; m], None)),
        PrecondKind::Poly { kind, degree } => {
            return Ok(AutoPreconditioner::Poly(PolynomialPreconditioner::new(
                a.clone(),
                kind,
                degree,
            )?));
        }
    };
    Ok(AutoPreconditioner::MStepSsor(
        MStepSsorPreconditioner::from_parts(ssor, alphas, interval)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{pcg_solve, PcgOptions};
    use crate::preconditioner::DiagonalPreconditioner;
    use mspcg_sparse::{CooMatrix, SellCsMatrix};

    fn laplacian(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    /// 5-point Poisson operator on a `g × g` grid. The 2D problem is the
    /// right stage for iteration-count comparisons: diagonal-scaled CG
    /// needs `O(g)` iterations on `n = g²` unknowns, so the κ-bound (not
    /// Krylov finite termination, which caps any 1D tridiagonal test at
    /// `n` steps regardless of preconditioner) governs convergence.
    fn poisson2d(g: usize) -> CsrMatrix {
        let n = g * g;
        let mut a = CooMatrix::new(n, n);
        for r in 0..g {
            for c in 0..g {
                let i = r * g + c;
                a.push(i, i, 4.0).unwrap();
                if c + 1 < g {
                    a.push_sym(i, i + 1, -1.0).unwrap();
                }
                if r + 1 < g {
                    a.push_sym(i, i + g, -1.0).unwrap();
                }
            }
        }
        a.to_csr()
    }

    #[test]
    fn schedule_shapes_and_validation() {
        let s = PolySchedule::new(PolyKind::Chebyshev, 0.5, 2.0, 4).unwrap();
        assert_eq!(s.degree(), 4);
        assert_eq!(s.scale0, 1.0 / 1.25);
        let n = PolySchedule::new(PolyKind::Newton, 0.5, 2.0, 3).unwrap();
        assert_eq!(n.steps, &[(0.0, 0.8); 3]);
        assert_eq!(n.scale0, 0.8);
        assert!(PolySchedule::new(PolyKind::Chebyshev, 0.5, 2.0, 0).is_err());
        assert!(PolySchedule::new(PolyKind::Chebyshev, 0.0, 2.0, 2).is_err());
        assert!(PolySchedule::new(PolyKind::Newton, -1.0, 2.0, 2).is_err());
        assert!(PolySchedule::new(PolyKind::Newton, 1.0, f64::INFINITY, 2).is_err());
        // Degenerate interval: both kinds collapse to Richardson at 1/θ.
        let dg = PolySchedule::new(PolyKind::Chebyshev, 2.0, 2.0, 3).unwrap();
        assert_eq!(dg.steps, &[(0.0, 0.5); 3]);
        assert_eq!(
            dg,
            PolySchedule::new(PolyKind::Newton, 2.0, 2.0, 3).unwrap()
        );
    }

    #[test]
    fn fused_poly_seed_matches_elementwise() {
        let n = 533;
        let s = PolySchedule {
            scale0: 0.25,
            steps: vec![(0.375, 1.25)],
        };
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + (i % 5) as f64)).collect();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let kz: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.1 - 0.5).collect();
        // Overwritten, never read: stale values must not leak.
        let mut d = vec![f64::NAN; n];
        let mut z = vec![f64::NAN; n];
        s.step_rows(0, &inv_diag, &r, &kz, &mut d, &mut z);
        for i in 0..n {
            let z0 = 0.25 * inv_diag[i] * r[i];
            assert_eq!(s.seed(inv_diag[i], r[i]).to_bits(), z0.to_bits());
            let want_d = 0.375 * z0 + 1.25 * (inv_diag[i] * (r[i] - kz[i]));
            assert_eq!(d[i].to_bits(), want_d.to_bits());
            assert_eq!(z[i].to_bits(), (z0 + want_d).to_bits());
        }
    }

    #[test]
    fn fused_poly_step_matches_unfused_sweeps() {
        let n = 321;
        let (a, b) = (0.375, 1.25);
        let s = PolySchedule {
            scale0: 1.0,
            steps: vec![(a, b), (a, b), (0.0, b)],
        };
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / (3.0 + (i % 3) as f64)).collect();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let kz: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.1 - 0.5).collect();
        let d0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let z0: Vec<f64> = (0..n).map(|i| 1.0 - (i % 4) as f64 * 0.3).collect();
        let mut d = d0.clone();
        let mut z = z0.clone();
        s.step_rows(1, &inv_diag, &r, &kz, &mut d, &mut z);
        for i in 0..n {
            let resid = inv_diag[i] * (r[i] - kz[i]);
            let want_d = a * d0[i] + b * resid;
            let want_z = z0[i] + want_d;
            assert_eq!(d[i].to_bits(), want_d.to_bits());
            assert_eq!(z[i].to_bits(), want_z.to_bits());
        }
        // Newton instance: a = 0 drops the previous difference entirely
        // (still multiplied, so finite stale data keeps the check exact).
        let mut dn = d0.clone();
        let mut zn = z0.clone();
        s.step_rows(2, &inv_diag, &r, &kz, &mut dn, &mut zn);
        for i in 0..n {
            let want_d = 0.0 * d0[i] + b * (inv_diag[i] * (r[i] - kz[i]));
            assert_eq!(dn[i].to_bits(), want_d.to_bits());
            assert_eq!(zn[i].to_bits(), (z0[i] + want_d).to_bits());
        }
    }

    #[test]
    fn jacobi_spectrum_interval_of_laplacian() {
        // D⁻¹K for tridiag(-1,2,-1): eigenvalues 1 − cos(kπ/(n+1)) ∈ (0, 2).
        let n = 32;
        let a = laplacian(n);
        let est = jacobi_spectrum(&a, &checked_inv_diag(&a).unwrap()).unwrap();
        let (lo, hi) = (est.min, est.max);
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let exact_lo = 1.0 - h.cos();
        let exact_hi = 1.0 + h.cos();
        assert!(lo > 0.0 && lo < exact_lo * 2.0, "lo {lo} vs {exact_lo}");
        assert!(
            hi > exact_hi * 0.98 && hi < exact_hi * 1.1,
            "hi {hi} vs {exact_hi}"
        );
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push_sym(0, 1, 1.0).unwrap();
        c.push(1, 1, 0.0).unwrap();
        assert!(matches!(
            PolynomialPreconditioner::chebyshev(c.to_csr(), 2),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
        // A negative diagonal entry: the polynomial, the diagonal scaling
        // and the natural-order SSOR reject it through one check.
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 2.0).unwrap();
        c.push_sym(0, 1, 0.5).unwrap();
        c.push(1, 1, -1.0).unwrap();
        let a = c.to_csr();
        let rejected = |r: Result<(), SparseError>| {
            assert!(
                matches!(r, Err(SparseError::ZeroDiagonal { row: 1 })),
                "{r:?}"
            );
        };
        rejected(PolynomialPreconditioner::chebyshev(a.clone(), 2).map(drop));
        rejected(DiagonalPreconditioner::from_diag(&a.diag().unwrap()).map(drop));
        rejected(crate::splitting::NaturalSsorSplitting::new(&a, 1.0).map(drop));
    }

    #[test]
    fn newton_apply_matches_manual_richardson() {
        let a = laplacian(24);
        let pre = PolynomialPreconditioner::newton(a.clone(), 3).unwrap();
        let omega = pre.schedule.scale0;
        let inv_diag: Vec<f64> = a.diag().unwrap().iter().map(|d| 1.0 / d).collect();
        let r: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut z = vec![0.0; 24];
        pre.apply(&r, &mut z);
        // Manual damped-Jacobi (Richardson on D⁻¹K): x ← x + ω·D⁻¹(r − Kx),
        // started from x = ω·D⁻¹r — 3 steps = 3 SpMVs = degree 3.
        let mut x: Vec<f64> = (0..24).map(|i| omega * inv_diag[i] * r[i]).collect();
        for _ in 0..3 {
            let kx = a.mul_vec(&x);
            for i in 0..24 {
                x[i] += omega * inv_diag[i] * (r[i] - kx[i]);
            }
        }
        for (u, v) in z.iter().zip(&x) {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
    }

    #[test]
    fn apply_and_apply_with_are_bitwise_identical() {
        let a = laplacian(40);
        let pre = PolynomialPreconditioner::chebyshev(a, 4).unwrap();
        let r: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let mut z1 = vec![0.0; 40];
        let mut z2 = vec![0.0; 40];
        pre.apply(&r, &mut z1);
        let mut scratch = vec![0.0; pre.scratch_len()];
        pre.apply_with(&r, &mut z2, &mut scratch);
        assert_eq!(
            z1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cached_interval_rebuild_replays_bitwise_without_lanczos() {
        let a = laplacian(32);
        let first = PolynomialPreconditioner::chebyshev(a.clone(), 4).unwrap();
        // Satellite contract: rebuilding over the same matrix reuses the
        // cached interval instead of re-running the Lanczos estimation,
        // and the rebuilt preconditioner is the same operator bitwise.
        let rebuilt =
            PolynomialPreconditioner::with_interval(a, PolyKind::Chebyshev, 4, first.interval())
                .unwrap();
        assert_eq!(first.schedule, rebuilt.schedule);
        let r: Vec<f64> = (0..32).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut z1 = vec![0.0; 32];
        let mut z2 = vec![0.0; 32];
        first.apply(&r, &mut z1);
        rebuilt.apply(&r, &mut z2);
        assert_eq!(
            z1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sellcs_operator_applies_bitwise_identical_to_csr() {
        let a = laplacian(48);
        let sell = SellCsMatrix::from_csr_autotuned(&a);
        let csr_pre = PolynomialPreconditioner::chebyshev(a, 3).unwrap();
        let sell_pre = PolynomialPreconditioner::with_interval(
            sell,
            PolyKind::Chebyshev,
            3,
            csr_pre.interval(),
        )
        .unwrap();
        let r: Vec<f64> = (0..48)
            .map(|i| ((i * 5) % 11) as f64 * 0.25 - 1.0)
            .collect();
        let mut z1 = vec![0.0; 48];
        let mut z2 = vec![0.0; 48];
        csr_pre.apply(&r, &mut z1);
        sell_pre.apply(&r, &mut z2);
        assert_eq!(
            z1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn preconditioner_is_symmetric_in_the_pcg_sense() {
        let a = laplacian(20);
        let pre = PolynomialPreconditioner::chebyshev(a, 4).unwrap();
        let r1: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin()).collect();
        let r2: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut z1 = vec![0.0; 20];
        let mut z2 = vec![0.0; 20];
        pre.apply(&r1, &mut z1);
        pre.apply(&r2, &mut z2);
        let lhs = vecops::dot(&z1, &r2);
        let rhs = vecops::dot(&r1, &z2);
        assert!(
            (lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn scaled_identity_is_inverted_to_margin() {
        // K = 4I: Lanczos finds the degenerate point spectrum {1} of
        // D⁻¹K; the safeguarded interval brackets it and the degree-2
        // Chebyshev application lands close to the exact inverse
        // K⁻¹r = r/4 (within the residual-polynomial bound on the
        // safeguarded interval).
        let n = 10;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0).unwrap();
        }
        let pre = PolynomialPreconditioner::chebyshev(c.to_csr(), 2).unwrap();
        let r: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let mut z = vec![0.0; n];
        pre.apply(&r, &mut z);
        for i in 0..n {
            let want = r[i] / 4.0;
            assert!(
                (z[i] - want).abs() <= 0.05 * want.abs().max(1e-6),
                "{} vs {}",
                z[i],
                want
            );
        }
    }

    #[test]
    fn chebyshev_beats_diagonal_scaling_in_pcg_iterations() {
        let n = 24 * 24;
        let a = poisson2d(24);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let f = a.mul_vec(&x_true);
        let opts = PcgOptions {
            tol: 1e-10,
            max_iterations: 4 * n,
            ..PcgOptions::default()
        };
        let diag = DiagonalPreconditioner::from_diag(&a.diag().unwrap()).unwrap();
        let base = pcg_solve(&a, &f, &diag, &opts).unwrap();
        let poly = PolynomialPreconditioner::chebyshev(a.clone(), 6).unwrap();
        let fast = pcg_solve(&a, &f, &poly, &opts).unwrap();
        assert!(
            fast.iterations * 2 < base.iterations,
            "poly {} vs diagonal {}",
            fast.iterations,
            base.iterations
        );
        for (u, v) in fast.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`poisson2d`] in red/black order, with its two color blocks.
    fn rb_poisson2d(g: usize) -> (CsrMatrix, Partition) {
        let labels: Vec<usize> = (0..g * g).map(|i| (i / g + i % g) % 2).collect();
        let ord = mspcg_coloring::Coloring::from_labels(labels, 2)
            .unwrap()
            .ordering();
        (ord.permute_matrix(&poisson2d(g)).unwrap(), ord.partition)
    }

    #[test]
    fn auto_fits_minimax_ssor_and_pins_pass_through() {
        let (pa, colors) = rb_poisson2d(16);
        // Auto: min-max α fitted on the SSOR interval the parametrized
        // constructors estimate, at an m the walk reached from m_default.
        let auto = auto_preconditioner(&pa, &colors, 2, PrecondKind::Auto).unwrap();
        let AutoPreconditioner::MStepSsor(p) = &auto else {
            panic!("Auto must build the m-step SSOR");
        };
        let interval = p.interval().expect("a fitted Auto reports its interval");
        let ssor = MulticolorSsor::new(pa.clone(), colors.clone(), 1.0).unwrap();
        assert_eq!(
            interval,
            ssor.table().ssor_spectrum(1.0, SPECTRUM_STEPS).unwrap()
        );
        assert!((2..=AUTO_MAX_M).contains(&p.m()), "m = {}", p.m());
        assert_eq!(
            bits(p.alphas()),
            bits(&minimax_alphas(p.m(), (interval.min, interval.max)).unwrap())
        );
        assert_eq!(auto.selected(), PrecondKind::MStepSsor { m: p.m() });
        // A pinned m-step SSOR is α = 1, with no estimate.
        let pinned = auto_preconditioner(&pa, &colors, 2, PrecondKind::MStepSsor { m: 3 }).unwrap();
        let AutoPreconditioner::MStepSsor(p) = &pinned else {
            panic!("a pinned MStepSsor builds the m-step SSOR");
        };
        assert_eq!(p.alphas(), &[1.0; 3]);
        assert_eq!(p.interval(), None);
        assert!(auto_preconditioner(&pa, &colors, 2, PrecondKind::MStepSsor { m: 0 }).is_err());
        // A pinned polynomial is the one its own constructor builds.
        let pinned = auto_preconditioner(
            &pa,
            &colors,
            2,
            PrecondKind::Poly {
                kind: PolyKind::Newton,
                degree: 3,
            },
        )
        .unwrap();
        assert_eq!(
            pinned.selected(),
            PrecondKind::Poly {
                kind: PolyKind::Newton,
                degree: 3
            }
        );
        let AutoPreconditioner::Poly(p) = &pinned else {
            panic!("a pinned Poly builds the polynomial");
        };
        let own = PolynomialPreconditioner::newton(pa.clone(), 3).unwrap();
        assert_eq!(p.schedule, own.schedule);
        assert_eq!(p.interval(), own.interval());
    }

    #[test]
    fn auto_falls_back_to_unit_alphas_on_a_diagonal_operator() {
        // K = 3I in a 2-color blocking: G_SSOR = 0, so the power iteration
        // finds no spectral radius to fit on and errs after 0 steps. Auto
        // keeps m_default steps at α = 1 and says so: no interval.
        let n = 12;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 3.0).unwrap();
        }
        let a = c.to_csr();
        let colors = Partition::from_sizes(&[6, 6]).unwrap();
        let auto = auto_preconditioner(&a, &colors, 2, PrecondKind::Auto).unwrap();
        assert_eq!(auto.selected(), PrecondKind::MStepSsor { m: 2 });
        let AutoPreconditioner::MStepSsor(p) = &auto else {
            panic!("Auto must build the m-step SSOR");
        };
        assert_eq!(p.alphas(), &[1.0, 1.0]);
        assert_eq!(p.interval(), None);
        // A pinned polynomial stays pinned on the same operator: its
        // schedule handles the degenerate interval (Richardson fallback).
        let pinned = auto_preconditioner(
            &a,
            &colors,
            2,
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 2,
            },
        )
        .unwrap();
        assert!(matches!(pinned.selected(), PrecondKind::Poly { .. }));
    }

    #[test]
    fn auto_needs_a_decoupling_coloring_but_a_pinned_polynomial_does_not() {
        // The natural-order 1-D Laplacian in one block couples inside it.
        let a = laplacian(8);
        let one_block = Partition::single(8);
        for selection in [PrecondKind::Auto, PrecondKind::MStepSsor { m: 2 }] {
            assert!(matches!(
                auto_preconditioner(&a, &one_block, 2, selection),
                Err(SparseError::InvalidPartition { .. })
            ));
        }
        let poly = PrecondKind::Poly {
            kind: PolyKind::Chebyshev,
            degree: 2,
        };
        assert_eq!(
            auto_preconditioner(&a, &one_block, 2, poly)
                .unwrap()
                .selected(),
            poly
        );
    }

    /// SpMV-counting wrapper: proves which construction paths run Lanczos.
    #[derive(Clone)]
    struct CountingOp {
        inner: CsrMatrix,
        spmvs: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl SparseOp for CountingOp {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn nnz(&self) -> usize {
            SparseOp::nnz(&self.inner)
        }
        fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: std::ops::Range<usize>) {
            self.inner.mul_vec_range_into(x, y, rows);
        }
        fn mul_vec_axpy_range(
            &self,
            a: f64,
            x: &[f64],
            y: &mut [f64],
            rows: std::ops::Range<usize>,
        ) {
            self.inner.mul_vec_axpy_range(a, x, y, rows);
        }
        fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
            self.inner.visit_row(i, visit);
        }
        fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
            self.spmvs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.mul_vec_into(x, y);
        }
        fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
            self.spmvs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.mul_vec_axpy(a, x, y);
        }
    }

    #[test]
    fn degree_sweep_runs_lanczos_exactly_once() {
        let op = CountingOp {
            inner: laplacian(32),
            spmvs: Default::default(),
        };
        let count = || op.spmvs.load(std::sync::atomic::Ordering::Relaxed);
        let first = PolynomialPreconditioner::new(op.clone(), PolyKind::Chebyshev, 2).unwrap();
        let after_estimate = count();
        assert!(after_estimate > 0, "construction must have run Lanczos");
        // The caching contract of the satellite: sweeping degrees over one
        // operator re-estimates NOTHING — with_degree reuses the cached
        // interval and diagonal, with_interval the cached interval.
        let mut sweep = Vec::new();
        for degree in [3usize, 4, 6, 8] {
            sweep.push(first.with_degree(degree).unwrap());
        }
        let rebuilt = PolynomialPreconditioner::with_interval(
            op.clone(),
            PolyKind::Newton,
            5,
            first.interval(),
        )
        .unwrap();
        assert_eq!(
            count(),
            after_estimate,
            "a degree sweep must not re-run the Lanczos estimation"
        );
        assert_eq!(sweep.last().unwrap().degree(), 8);
        assert_eq!(rebuilt.interval(), first.interval());
        // The swept preconditioners are real operators, not stubs.
        let r: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut z = vec![0.0; 32];
        sweep[0].apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
