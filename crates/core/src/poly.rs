//! Polynomial (Newton–Chebyshev) preconditioning, and the selection of a
//! preconditioner by value ([`resolve_precond`]).
//!
//! A polynomial preconditioner `M⁻¹ = p(G)·D⁻¹` in the Jacobi-scaled
//! operator `G = D⁻¹K` is built from **SpMVs only**: a degree-`k`
//! application is exactly `k` products `K·z` interleaved with fused BLAS-1
//! sweeps ([`mspcg_sparse::vecops::fused_poly_seed`] /
//! [`mspcg_sparse::vecops::fused_poly_step`]) — zero color-sweep
//! synchronization, `k` full barriers per application in SPMD
//! (Bergamaschi–Martinez 2020; D'Ambra et al. 2025 for the Chebyshev-basis
//! recipe). It is a pinned choice ([`PrecondKind::Poly`]); `Auto` does not
//! pick it (see [`resolve_precond`]).
//!
//! `M⁻¹` is symmetric positive definite in the PCG sense:
//! `p(D⁻¹K)·D⁻¹ = D^{-1/2}·p(D^{-1/2}K D^{-1/2})·D^{-1/2}` is congruent to
//! a polynomial in a symmetric matrix, and both recurrences here keep
//! `p > 0` on the estimated spectral interval (the Chebyshev residual
//! polynomial satisfies `|1 − t·p(t)| < 1` inside it).
//!
//! Both recurrences are expressed by one difference scheme so the serial
//! and SPMD paths share bitwise-identical scalars ([`PolySchedule`]):
//!
//! ```text
//! z₀ = scale₀·D⁻¹r,        d₀ = z₀,
//! step j:   resid = D⁻¹(r − K·z),   d ← aⱼ·d + bⱼ·resid,   z ← z + d.
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
//! its order of magnitude — the same estimate
//! [`JacobiSplitting`](crate::splitting::JacobiSplitting)'s
//! [`Splitting::spectrum_interval`](crate::splitting::Splitting::spectrum_interval)
//! returns — and is **cached** in the
//! preconditioner: repeated applications (every PCG iteration) and
//! rebuilt preconditioners over the same matrix
//! ([`PolynomialPreconditioner::with_interval`]) never re-run Lanczos.
//!
//! ## `Auto`: the paper's parametrized m-step SSOR
//!
//! [`PrecondKind::Auto`] resolves to the m-step multicolor SSOR with
//! min-max coefficients (§2.2), its `m` chosen by the paper's cost model
//! (§4). One 60-step power iteration estimates `σ(P⁻¹K) ⊆ [1 − ρ, 1]`
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
use crate::coeffs::{minimax_alphas, spd_margin};
use crate::mstep::{MStep, MStepSsorPreconditioner, SPECTRUM_ITERS};
use crate::preconditioner::Preconditioner;
use crate::ssor::{MulticolorSsor, SweepTable};
use mspcg_sparse::lanczos::{lanczos_extremes, SpectralInterval};
use mspcg_sparse::tuning::{PolyKind, PrecondKind};
use mspcg_sparse::{vecops, CsrMatrix, Partition, SparseError, SparseOp};
use std::sync::{Arc, Mutex};

/// Lanczos step budget when a constructor must estimate the spectral
/// interval itself (matches the m-step constructors' power-iteration
/// budget; `lanczos_extremes` clamps it to the operator dimension).
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
/// [`UPPER_MARGIN`]) with the lower end clamped positive.
///
/// # Errors
/// Propagates [`lanczos_extremes`] failures, among them the
/// [`SparseError::DidNotConverge`] of an empty operator.
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
    Ok(SpectralInterval {
        min: (est.min * (1.0 - LOWER_MARGIN)).max(1e-12),
        max: est.max * (1.0 + UPPER_MARGIN),
        steps: est.steps,
    })
}

/// The coefficient schedule of one polynomial preconditioner application:
/// the seed scale and the per-step `(aⱼ, bⱼ)` pairs of the unified
/// difference recurrence (module docs). Computed **once** at construction
/// and shared verbatim by the serial and SPMD evaluators, so both run
/// bitwise-identical arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct PolySchedule {
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
    pub fn new(kind: PolyKind, min: f64, max: f64, degree: usize) -> Result<Self, SparseError> {
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

    /// The seed scale `scale₀` (`z₀ = scale₀·D⁻¹r`).
    pub fn scale0(&self) -> f64 {
        self.scale0
    }

    /// The `(aⱼ, bⱼ)` pairs, one per degree (= one per SpMV).
    pub fn steps(&self) -> &[(f64, f64)] {
        &self.steps
    }

    /// Polynomial degree = SpMVs per application.
    pub fn degree(&self) -> usize {
        self.steps.len()
    }
}

/// The degree-`k` polynomial preconditioner `M⁻¹ = p(D⁻¹K)·D⁻¹`, generic
/// over the operator storage ([`SparseOp`]): CSR, SELL-C-σ and `AutoOp`
/// all evaluate through the same fused kernels and produce bitwise
/// identical applications (the SpMV determinism contract). Allocation-free
/// after setup via [`Preconditioner::scratch_len`] /
/// [`Preconditioner::apply_with`]; plain [`Preconditioner::apply`] uses an
/// internal locked scratch.
pub struct PolynomialPreconditioner<A: SparseOp = CsrMatrix> {
    a: A,
    inv_diag: Vec<f64>,
    kind: PolyKind,
    interval: SpectralInterval,
    schedule: PolySchedule,
    scratch: Mutex<Vec<f64>>,
}

impl<A: SparseOp> PolynomialPreconditioner<A> {
    /// Build for `kind` at `degree`, estimating the spectral interval of
    /// `D⁻¹K` with Lanczos ([`jacobi_spectrum`]). The estimate is cached
    /// in the preconditioner — reuse it across rebuilds with
    /// [`PolynomialPreconditioner::with_interval`].
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] / [`SparseError::ZeroDiagonal`] for a
    /// defective matrix, estimation failures, and the
    /// [`PolySchedule::new`] validation errors.
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
    /// Matrix validation and [`PolySchedule::new`] errors.
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
        let n = inv_diag.len();
        Ok(PolynomialPreconditioner {
            a,
            inv_diag,
            kind,
            interval,
            schedule,
            scratch: Mutex::new(vec![0.0; 2 * n]),
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

    /// The coefficient schedule (shared with the SPMD evaluator).
    pub fn schedule(&self) -> &PolySchedule {
        &self.schedule
    }

    /// Reciprocal diagonal of `K`.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Borrow the underlying operator.
    pub fn matrix(&self) -> &A {
        &self.a
    }

    /// Rebuild at another `degree` (same matrix, same kind), reusing the
    /// cached interval **and** the checked reciprocal diagonal — the
    /// degree-sweep entry point: a sweep over degrees on one matrix runs
    /// Lanczos exactly once, for the first preconditioner.
    ///
    /// # Errors
    /// [`PolySchedule::new`] validation errors.
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
    let mut inv = Vec::with_capacity(rows);
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 || !d.is_finite() {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        inv.push(1.0 / d);
    }
    Ok(inv)
}

impl<A: SparseOp> Preconditioner for PolynomialPreconditioner<A> {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let mut guard = self.scratch.lock().expect("poly scratch poisoned");
        let scratch = &mut *guard;
        self.apply_with(r, z, scratch);
    }

    /// One SpMV per degree: the polynomial degree `k`.
    fn steps_per_apply(&self) -> usize {
        self.schedule.degree()
    }

    fn scratch_len(&self) -> usize {
        2 * self.inv_diag.len()
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n, "poly apply: r length mismatch");
        assert_eq!(z.len(), n, "poly apply: z length mismatch");
        assert!(scratch.len() >= 2 * n, "poly apply: scratch too short");
        let (kz, d) = scratch.split_at_mut(n);
        let kz = &mut kz[..n];
        let d = &mut d[..n];
        vecops::fused_poly_seed(self.schedule.scale0, &self.inv_diag, r, z, d);
        for &(aj, bj) in self.schedule.steps() {
            self.a.mul_vec_into(z, kz);
            vecops::fused_poly_step(aj, bj, &self.inv_diag, r, kz, d, z);
        }
    }

    /// The cached Jacobi-spectrum estimate this preconditioner's schedule
    /// was built on.
    fn spectral_hint(&self) -> Option<SpectralInterval> {
        Some(self.interval)
    }
}

/// The serial preconditioner a [`PrecondKind`] resolves to: the paper's
/// m-step multicolor SSOR (`Auto` and a pinned `MStepSsor`) or a pinned
/// polynomial, behind one type so callers can let [`resolve_precond`]
/// choose per matrix.
pub enum AutoPreconditioner<A: SparseOp = CsrMatrix> {
    /// The paper's m-step multicolor SSOR; its
    /// [`MStep::alphas`] and [`MStep::interval`] tell a fitted `Auto`
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

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.apply(r, z),
            AutoPreconditioner::Poly(p) => p.apply(r, z),
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

    fn spectral_hint(&self) -> Option<SpectralInterval> {
        match self {
            AutoPreconditioner::MStepSsor(p) => p.spectral_hint(),
            AutoPreconditioner::Poly(p) => p.spectral_hint(),
        }
    }
}

/// A [`PrecondKind`] selection resolved against one operator: what the
/// serial [`auto_preconditioner`] and the SPMD `ParallelMStepPcg::auto`
/// both build.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedPrecond {
    /// The m-step multicolor SSOR with these coefficients (`m` of them).
    MStepSsor {
        /// `alphas[i]` multiplies `Gⁱ P⁻¹`.
        alphas: Vec<f64>,
        /// The SSOR interval the coefficients were fitted on; `None` for
        /// α = 1.
        interval: Option<(f64, f64)>,
    },
    /// A polynomial on the safeguarded Jacobi spectrum.
    Poly {
        /// Recurrence family.
        kind: PolyKind,
        /// Polynomial degree.
        degree: usize,
        /// The safeguarded interval of the one Lanczos estimate.
        interval: SpectralInterval,
    },
}

/// Largest `m` the `Auto` walk reaches. In the `(1 − t)ⁱ` basis the
/// min-max coefficients grow about 5× per step (max |α| is 5.3e4 at
/// m = 8 and 1.2e6 at m = 10 on the Table-3 plate), and measured solve
/// time there is flat from m = 4 to 10.
pub const AUTO_MAX_M: usize = 8;

/// The error reduction the `Auto` walk predicts iteration counts for. Only
/// the ratios between counts enter inequality (4.2).
pub const AUTO_PREDICTION_EPS: f64 = 1e-8;

/// Resolve `selection` for the operator `a`:
///
/// * [`PrecondKind::Auto`] → the paper's parametrized m-step SSOR (module
///   docs): min-max α on the SSOR interval estimated on `table`, `m`
///   walked up from `m_default` by inequality (4.2). It falls back to
///   α = 1 at `m_default` — [`ResolvedPrecond::MStepSsor`] with no
///   interval — when the estimate errs (an empty operator, before any
///   step; `G = 0`, a diagonal `K`) and when the fit fails
///   [`spd_margin`];
/// * a pinned `MStepSsor { m }` → α = 1, no estimate;
/// * a pinned `Poly` → ONE Lanczos estimate of the Jacobi spectrum of `a`
///   ([`jacobi_spectrum`]).
///
/// `table` is the operator's SSOR sweep table: `Auto` needs it, the
/// pinned kinds do not read it.
///
/// # Errors
/// [`SparseError::InvalidPartition`] for `Auto` without a table;
/// [`SparseError::NotSquare`] / [`SparseError::ZeroDiagonal`] for a
/// defective matrix and spectrum-estimation failures on the `Poly` path.
pub fn resolve_precond<A: SparseOp>(
    a: &A,
    table: Option<&SweepTable>,
    m_default: usize,
    selection: PrecondKind,
) -> Result<ResolvedPrecond, SparseError> {
    Ok(match selection {
        PrecondKind::Auto => auto_ssor(
            table.ok_or_else(|| SparseError::InvalidPartition {
                reason: "Auto needs the operator's SSOR sweep table".into(),
            })?,
            m_default,
        ),
        PrecondKind::MStepSsor { m } => ResolvedPrecond::MStepSsor {
            alphas: vec![1.0; m],
            interval: None,
        },
        PrecondKind::Poly { kind, degree } => ResolvedPrecond::Poly {
            kind,
            degree,
            interval: jacobi_spectrum(a, &checked_inv_diag(a)?)?,
        },
    })
}

/// `Auto`'s m-step SSOR (see [`resolve_precond`]).
fn auto_ssor(table: &SweepTable, m_default: usize) -> ResolvedPrecond {
    let mut m = m_default.max(1);
    let unit = ResolvedPrecond::MStepSsor {
        alphas: vec![1.0; m],
        interval: None,
    };
    // An empty operator errs here too, before any step is taken.
    let Ok(interval) = table.ssor_spectrum(1.0, SPECTRUM_ITERS) else {
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
    ResolvedPrecond::MStepSsor {
        alphas,
        interval: Some(interval),
    }
}

/// Min-max α at `m` on `interval` and the iterations they predict, or
/// `None` when the fit errs, fails [`spd_margin`] or bounds no condition
/// number.
fn minimax_fit(m: usize, interval: (f64, f64)) -> Option<(Vec<f64>, usize)> {
    let alphas = minimax_alphas(m, interval).ok()?;
    if spd_margin(&alphas, interval) <= 0.0 {
        return None;
    }
    let n = predicted_iterations(&alphas, interval, AUTO_PREDICTION_EPS)?;
    Some((alphas, n))
}

/// Resolve `selection` ([`resolve_precond`]) and build the chosen serial
/// preconditioner over `a`. `Auto` and a pinned `MStepSsor` build the
/// SSOR splitting first — one CSR copy of `a`, which the estimate and the
/// sweeps share — so an operator whose `colors` do not decouple is a
/// [`SparseError::InvalidPartition`]; a pinned polynomial needs no
/// coloring.
///
/// # Errors
/// Propagates the splitting's, the resolution's and the chosen
/// constructor's errors.
pub fn auto_preconditioner<A: SparseOp + Clone>(
    a: &A,
    colors: &Partition,
    m_default: usize,
    selection: PrecondKind,
) -> Result<AutoPreconditioner<A>, SparseError> {
    let ssor = match selection {
        PrecondKind::Poly { .. } => None,
        _ => Some(MulticolorSsor::from_op(a, Arc::new(colors.clone()), 1.0)?),
    };
    let table = ssor.as_ref().map(MulticolorSsor::table);
    let resolved = resolve_precond(a, table, m_default, selection)?;
    Ok(match resolved {
        ResolvedPrecond::MStepSsor { alphas, interval } => {
            let ssor = ssor.expect("only a polynomial selection skips the splitting");
            AutoPreconditioner::MStepSsor(MStep::fitted(ssor, alphas, interval)?)
        }
        ResolvedPrecond::Poly {
            kind,
            degree,
            interval,
        } => AutoPreconditioner::Poly(PolynomialPreconditioner::with_interval(
            a.clone(),
            kind,
            degree,
            interval,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{pcg_solve, PcgOptions};
    use crate::preconditioner::DiagonalPreconditioner;
    use crate::splitting::Splitting;
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
        assert_eq!(s.scale0(), 1.0 / 1.25);
        let n = PolySchedule::new(PolyKind::Newton, 0.5, 2.0, 3).unwrap();
        assert_eq!(n.steps(), &[(0.0, 0.8); 3]);
        assert_eq!(n.scale0(), 0.8);
        assert!(PolySchedule::new(PolyKind::Chebyshev, 0.5, 2.0, 0).is_err());
        assert!(PolySchedule::new(PolyKind::Chebyshev, 0.0, 2.0, 2).is_err());
        assert!(PolySchedule::new(PolyKind::Newton, -1.0, 2.0, 2).is_err());
        assert!(PolySchedule::new(PolyKind::Newton, 1.0, f64::INFINITY, 2).is_err());
        // Degenerate interval: both kinds collapse to Richardson at 1/θ.
        let dg = PolySchedule::new(PolyKind::Chebyshev, 2.0, 2.0, 3).unwrap();
        assert_eq!(dg.steps(), &[(0.0, 0.5); 3]);
        assert_eq!(
            dg,
            PolySchedule::new(PolyKind::Newton, 2.0, 2.0, 3).unwrap()
        );
    }

    #[test]
    fn newton_apply_matches_manual_richardson() {
        let a = laplacian(24);
        let pre = PolynomialPreconditioner::newton(a.clone(), 3).unwrap();
        let omega = pre.schedule().scale0();
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
        assert_eq!(first.schedule(), rebuilt.schedule());
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
        assert_eq!(interval, ssor.spectrum_interval(SPECTRUM_ITERS).unwrap());
        assert!((2..=AUTO_MAX_M).contains(&p.m()), "m = {}", p.m());
        assert_eq!(
            bits(p.alphas()),
            bits(&minimax_alphas(p.m(), interval).unwrap())
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
        assert_eq!(p.schedule(), own.schedule());
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
        // The resolution itself refuses Auto without the sweep table.
        assert!(resolve_precond(&a, None, 2, PrecondKind::Auto).is_err());
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
