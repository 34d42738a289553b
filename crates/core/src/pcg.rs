//! Algorithm 1: the preconditioned conjugate gradient loop.
//!
//! Direct transcription of the paper's Algorithm 1 (Chandra 1978 form):
//!
//! ```text
//! r⁰ = f − K u⁰;  M r̂⁰ = r⁰;  p⁰ = r̂⁰
//! for k = 0, 1, …:
//!   αₖ = (r̂ᵏ, rᵏ) / (pᵏ, K pᵏ)
//!   u^{k+1} = uᵏ + αₖ pᵏ
//!   stop when ‖u^{k+1} − uᵏ‖∞ < ε          (step (3) of the paper)
//!   r^{k+1} = rᵏ − αₖ K pᵏ
//!   M r̂^{k+1} = r^{k+1}
//!   βₖ = (r̂^{k+1}, r^{k+1}) / (r̂ᵏ, rᵏ)
//!   p^{k+1} = r̂^{k+1} + βₖ pᵏ
//! ```
//!
//! The two inner products per iteration are the paper's motivating cost on
//! vector and array machines; [`PcgStats`] counts them so the machine
//! models in `mspcg-machine` can charge them faithfully. The loop is
//! written once, [`crate::multi::lockstep`], for a lockstep block of
//! right-hand sides on an [`crate::multi::Executor`]: a standalone solve
//! ([`pcg_try_solve_into`]) is the pool path's block of width 1, whose
//! kernels are the plain ones, and the SPMD executor in `mspcg-parallel`
//! runs the same loop at width 1 on each worker's rows.
//!
//! ## Recovery
//!
//! Non-finite reduction scalars (a NaN/Inf out of a corrupted SpMV or
//! preconditioner application) are caught on the scalar before it feeds
//! `α` or `β`, and the loop restarts in place from the current iterate:
//! it re-derives `r = f − K·u`, `r̂` and `p`, the derivation that starts
//! every solve. With auditing on ([`RecoveryPolicy::replacement`]) the
//! same restart replaces a recurrence residual that has drifted from the
//! true one. Both are bounded by [`RecoveryPolicy::max_replacements`] and
//! counted in [`PcgStats`].
//!
//! Breakdown guards double as SPD validation: a nonpositive `(p, Kp)`
//! reveals an indefinite `K`, a nonpositive `(r̂, r)` an indefinite `M`;
//! both return typed errors instead of silently diverging.

use crate::multi::{lockstep, PoolBlock};
use crate::preconditioner::{block_scratch_len, IdentityPreconditioner, Preconditioner};
use crate::recovery::{FaultPlan, RecoveryPolicy};
use mspcg_sparse::{SparseError, SparseOp};

pub use mspcg_sparse::PcgVariant;

/// Convergence test selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoppingCriterion {
    /// `‖u^{k+1} − uᵏ‖∞ < ε` — the paper's test (cheap on the Finite
    /// Element Machine's flag network: no global reduction needed).
    #[default]
    DisplacementChange,
    /// `‖r^{k+1}‖₂ ≤ ε · ‖f‖₂` — the conventional modern test; costs one
    /// extra inner product per iteration.
    RelativeResidual,
}

/// Options for [`pcg_solve`].
#[derive(Debug, Clone, Copy)]
pub struct PcgOptions {
    /// Tolerance ε.
    pub tol: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Which convergence test to run.
    pub criterion: StoppingCriterion,
    /// The recurrence; [`PcgVariant::Classic`] is the only one. Kept only
    /// so the `perfbench` package, which sets it, still compiles.
    pub variant: PcgVariant,
    /// Detection/recovery policy: residual auditing with replacement and
    /// the replacement budget. The default runs no audits, which pins
    /// the exact operation schedule.
    pub recovery: RecoveryPolicy,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tol: 1e-6,
            max_iterations: 50_000,
            criterion: StoppingCriterion::DisplacementChange,
            variant: PcgVariant::Classic,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Operation counters (the quantities the machine cost models consume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcgStats {
    /// Sparse matrix–vector products with `K`.
    pub spmv: usize,
    /// Inner products (global reductions).
    pub inner_products: usize,
    /// Fused **reduction phases** feeding the `α`/`β` recurrence: a phase
    /// is one sweep (one synchronization point on a parallel machine)
    /// regardless of how many scalars it produces. Algorithm 1 performs
    /// two serialized phases per iteration (`(p, Kp)`, then `(r̂, r)`).
    /// Stopping-test norms are not counted: their partials ride the
    /// update kernels' existing phase (the paper's flag network).
    pub reduction_phases: usize,
    /// Preconditioner applications (`M r̂ = r` solves): the initial one
    /// and one per iteration that does not end the solve, so a clean solve
    /// that converges or runs out of budget applies it once per iteration;
    /// each restart adds one.
    pub precond_applications: usize,
    /// Total stationary steps inside the preconditioner
    /// (`applications × m`).
    pub precond_steps: usize,
    /// Always 0: there is no second recurrence to fall back from. Kept
    /// only so the `perfbench` package, which reads it, still compiles.
    pub fallbacks: usize,
    /// Residual audits performed: true-residual recomputations `f − K·u`
    /// (one extra SpMV each) compared against the recurrence residual.
    pub audits: usize,
    /// Residual replacements plus non-finite recovery restarts: times the
    /// carried vectors were re-derived from the current iterate, bounded
    /// by [`RecoveryPolicy::max_replacements`].
    pub replacements: usize,
    /// Non-finite reduction scalars detected by the fused-kernel checks
    /// (injected faults or genuine data corruption).
    pub faults_detected: usize,
}

/// Result of a (P)CG solve.
#[derive(Debug, Clone)]
pub struct PcgSolution {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Iterations performed (the paper's `I` column).
    pub iterations: usize,
    /// Whether the stopping test fired within the budget.
    pub converged: bool,
    /// Final `‖u^{k+1} − uᵏ‖∞`.
    pub final_change: f64,
    /// Final `‖r‖₂ / ‖f‖₂`.
    pub final_relative_residual: f64,
    /// Operation counts.
    pub stats: PcgStats,
}

/// Allocation-free view of a solve's outcome, returned by
/// [`pcg_solve_into`] (the solution lives in the caller's buffer).
#[derive(Debug, Clone, Copy)]
pub struct PcgReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping test fired within the budget.
    pub converged: bool,
    /// Final `‖u^{k+1} − uᵏ‖∞`.
    pub final_change: f64,
    /// Final `‖r‖₂ / ‖f‖₂`.
    pub final_relative_residual: f64,
    /// Operation counts.
    pub stats: PcgStats,
}

/// Reusable storage of the PCG loop: one *lane*, which runs a lockstep
/// block of `w` right-hand sides ([`crate::multi`]); a standalone solve is
/// the block of width 1.
///
/// A lane holds the block vectors `r`, `p` and `t` (`K·p`, then `M⁻¹r`,
/// never live together), `w·n` values each, stored interleaved; the block
/// kernels' scratch ([`block_scratch_len`], at width 1 the
/// preconditioner's [`Preconditioner::scratch_len`]); and one column of
/// `n` values for `f − K·u` — a column's initial residual, its residual
/// audit and its exit report. A standalone solve thus holds `4n` values
/// plus the preconditioner's scratch, audited or not.
///
/// The one-shot entry points ([`pcg_solve`], [`pcg_solve_from`]) allocate
/// a workspace per call; repeated solves over systems of one size — the ω
/// sweep, the condition scans, the Table 2/3 m sweeps — should construct
/// one `PcgWorkspace` and call [`pcg_solve_into`], whose iteration
/// performs **no heap allocation** once the first solve on the workspace
/// has sized the preconditioner scratch.
#[derive(Debug, Clone)]
pub struct PcgWorkspace {
    pub(crate) r: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) t: Vec<f64>,
    pub(crate) scratch: Vec<f64>,
    /// `f − K·u` of one column; its length is the dimension.
    pub(crate) res: Vec<f64>,
}

impl PcgWorkspace {
    /// Workspace for systems of dimension `n`.
    pub fn new(n: usize) -> Self {
        PcgWorkspace {
            r: vec![0.0; n],
            p: vec![0.0; n],
            t: vec![0.0; n],
            scratch: Vec::new(),
            res: vec![0.0; n],
        }
    }

    /// Dimension the workspace is sized for.
    pub fn dim(&self) -> usize {
        self.res.len()
    }

    /// Resize for a different dimension (reallocates only when `n` grows
    /// past the current capacity).
    pub fn resize(&mut self, n: usize) {
        self.prepare(n, 1, 0);
    }

    /// Ready the lane for blocks of up to `w` columns of dimension `n`
    /// whose kernels need `scratch` values of scratch. Slots only grow, so
    /// a warm lane does not allocate.
    pub(crate) fn prepare(&mut self, n: usize, w: usize, scratch: usize) {
        self.res.resize(n, 0.0);
        for v in [&mut self.r, &mut self.p, &mut self.t] {
            if v.len() < w * n {
                v.resize(w * n, 0.0);
            }
        }
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
    }
}

/// Solve `K u = f` by PCG from the zero initial guess.
///
/// ```
/// use mspcg_core::pcg::{pcg_solve, PcgOptions};
/// use mspcg_core::preconditioner::DiagonalPreconditioner;
/// use mspcg_sparse::CooMatrix;
///
/// // 1-D Laplacian, 5 unknowns.
/// let mut coo = CooMatrix::new(5, 5);
/// for i in 0..5 {
///     coo.push(i, i, 2.0)?;
///     if i + 1 < 5 { coo.push_sym(i, i + 1, -1.0)?; }
/// }
/// let k = coo.to_csr();
/// let m = DiagonalPreconditioner::from_diag(&k.diag()?)?;
/// let sol = pcg_solve(&k, &[1.0; 5], &m, &PcgOptions::default())?;
/// assert!(sol.converged && sol.iterations <= 5);
/// # Ok::<(), mspcg_sparse::SparseError>(())
/// ```
///
/// # Errors
/// * [`SparseError::NotSquare`] / [`SparseError::ShapeMismatch`] on shape
///   violations,
/// * [`SparseError::NotPositiveDefinite`] on inner-product breakdown
///   (indefinite `K` or preconditioner),
/// * [`SparseError::DidNotConverge`] when the budget is exhausted.
pub fn pcg_solve<A: SparseOp>(
    k: &A,
    f: &[f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    let x0 = vec![0.0; f.len()];
    pcg_solve_from(k, f, &x0, m, opts)
}

/// Solve `K u = f` by PCG from the initial guess `u0`.
///
/// Allocates a fresh [`PcgWorkspace`]; sweep-style callers should hold one
/// workspace and use [`pcg_solve_into`] directly.
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn pcg_solve_from<A: SparseOp>(
    k: &A,
    f: &[f64],
    u0: &[f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    let mut ws = PcgWorkspace::new(f.len());
    let mut u = u0.to_vec();
    let rep = pcg_solve_into(k, f, &mut u, m, opts, &mut ws)?;
    Ok(PcgSolution {
        x: u,
        iterations: rep.iterations,
        converged: rep.converged,
        final_change: rep.final_change,
        final_relative_residual: rep.final_relative_residual,
        stats: rep.stats,
    })
}

/// Solve `K u = f` by PCG with caller-owned storage: `u` holds the initial
/// guess on entry and the solution on exit, and every scratch vector lives
/// in `ws`.
///
/// This is the zero-allocation entry point: after `ws` is constructed (and
/// sized for `k` and the preconditioner), the iteration loop performs
/// **no heap allocation** — the SpMV, the preconditioner application, both
/// inner products and all vector updates run in place. Reusing one
/// workspace across a parameter sweep (ω scans, m sweeps, repeated
/// right-hand sides) therefore costs zero allocator traffic per solve, and
/// two consecutive calls with the same inputs produce bitwise-identical
/// results.
///
/// The iteration body runs on **fused kernels**
/// ([`vecops::fused_axpy_axpy_norm`], [`vecops::norm2_with_max`]): the
/// `u`/`r` updates and the stopping-test reduction partials are computed
/// in a single pass per iteration instead of three to four, with
/// bitwise-identical results to the unfused kernel sequence
/// (`tests/par_determinism.rs`, `tests/algorithm1_oracle.rs`).
///
/// [`vecops::fused_axpy_axpy_norm`]: mspcg_sparse::vecops::fused_axpy_axpy_norm
/// [`vecops::norm2_with_max`]: mspcg_sparse::vecops::norm2_with_max
///
/// An undersized workspace is resized on entry (that path allocates once).
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn pcg_solve_into<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> Result<PcgReport, SparseError> {
    let rep = pcg_try_solve_into(k, f, u, m, opts, ws)?;
    if rep.converged {
        Ok(rep)
    } else {
        Err(SparseError::DidNotConverge {
            iterations: rep.iterations,
            residual: rep.final_relative_residual,
        })
    }
}

/// [`pcg_solve_into`] with budget exhaustion reported as **data** instead
/// of an error: the returned report has `converged == false` and carries
/// the *true* final relative residual `‖f − K·u‖₂ / ‖f‖₂`, recomputed
/// from the exit iterate rather than read from the recursively updated
/// in-loop residual (which drifts from the true one). Batched callers
/// ([`crate::multi::pcg_solve_multi`]) record it the same way, so one
/// stubborn right-hand side cannot abort a whole batch.
///
/// A zero right-hand side is solved by `u = 0` in no iteration (for SPD
/// `K`, `K u = 0` has exactly the zero solution; a warm-started caller
/// must not get its stale guess back as "the solution").
///
/// # Errors
/// Shape violations and inner-product breakdowns only.
pub fn pcg_try_solve_into<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
) -> Result<PcgReport, SparseError> {
    pcg_try_solve_into_with_faults(k, f, u, m, opts, ws, &FaultPlan::default())
}

/// [`pcg_try_solve_into`] under a [`FaultPlan`] (its faults at `rhs` 0):
/// each planned fault perturbs its element of the `K·p` or `r̂` it names
/// before that phase's reduction, so the returned counters show the
/// detection and recovery path it took. A plan replays bitwise at any
/// thread count.
///
/// # Errors
/// Same classes as [`pcg_try_solve_into`].
pub fn pcg_try_solve_into_with_faults<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    plan: &FaultPlan,
) -> Result<PcgReport, SparseError> {
    let n = k.rows();
    if k.cols() != n {
        return Err(SparseError::NotSquare {
            rows: k.rows(),
            cols: k.cols(),
        });
    }
    if f.len() != n || u.len() != n || m.dim() != n {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len().max(m.dim())),
        });
    }
    validate_inputs(opts.tol, &opts.recovery, f, u)?;
    ws.prepare(n, 1, block_scratch_len(m, 1));
    let [result] = lockstep(
        &mut PoolBlock::<_, _, 1>::new(k, m, f, u, ws),
        opts,
        plan,
        0,
    );
    result
}

/// The input checks every solver entry point — [`pcg_try_solve_into`],
/// [`crate::multi::pcg_solve_multi`] and the SPMD executor — runs before
/// any kernel: a finite positive tolerance, a nonzero audit period, and
/// finite right-hand sides and initial guesses (a NaN anywhere in `f` or
/// `u⁰` poisons every subsequent reduction, so the solve would iterate on
/// garbage until the budget runs out). Pass an empty `u0` for a solve from
/// the zero initial guess.
///
/// # Errors
/// [`SparseError::InvalidTolerance`], [`SparseError::ZeroAuditPeriod`],
/// and [`SparseError::NonFinite`] with phase `"rhs"` or `"initial-guess"`.
pub fn validate_inputs(
    tol: f64,
    recovery: &RecoveryPolicy,
    f: &[f64],
    u0: &[f64],
) -> Result<(), SparseError> {
    if !(tol.is_finite() && tol > 0.0) {
        return Err(SparseError::InvalidTolerance { value: tol });
    }
    if recovery.audit_period == 0 {
        return Err(SparseError::ZeroAuditPeriod);
    }
    if f.iter().any(|v| !v.is_finite()) {
        return Err(SparseError::NonFinite {
            phase: "rhs",
            iteration: 0,
        });
    }
    if u0.iter().any(|v| !v.is_finite()) {
        return Err(SparseError::NonFinite {
            phase: "initial-guess",
            iteration: 0,
        });
    }
    Ok(())
}

/// Plain conjugate gradients (`M = I`) — the paper's `m = 0` baseline rows.
///
/// # Errors
/// Same classes as [`pcg_solve`].
pub fn cg_solve<A: SparseOp>(
    k: &A,
    f: &[f64],
    opts: &PcgOptions,
) -> Result<PcgSolution, SparseError> {
    pcg_solve(k, f, &IdentityPreconditioner::new(f.len()), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::MStepSsorPreconditioner;
    use crate::preconditioner::DiagonalPreconditioner;
    use crate::recovery::{FaultKind, FaultTarget, IterationFault};
    use mspcg_coloring::Coloring;
    use mspcg_sparse::{vecops, CsrMatrix};
    use mspcg_sparse::{CooMatrix, Partition};

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

    fn rb(n: usize) -> (CsrMatrix, Partition) {
        let a = laplacian(n);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
        (ord.permute_matrix(&a).unwrap(), ord.partition)
    }

    #[test]
    fn cg_solves_laplacian_to_direct_accuracy() {
        let n = 24;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let b = a.mul_vec(&x_true);
        let opts = PcgOptions {
            tol: 1e-12,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert!(sol.converged);
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn cg_on_zero_rhs_returns_zero() {
        let a = laplacian(5);
        let sol = cg_solve(&a, &[0.0; 5], &PcgOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.x, vec![0.0; 5]);
    }

    #[test]
    fn pcg_with_mstep_ssor_converges_in_fewer_iterations() {
        let (a, p) = rb(64);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.mul_vec(&x_true);
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let plain = cg_solve(&a, &b, &opts).unwrap();
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let pcg = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(pcg.converged && plain.converged);
        assert!(
            pcg.iterations < plain.iterations,
            "pcg {} !< cg {}",
            pcg.iterations,
            plain.iterations
        );
        // Both reach the true solution.
        for (u, v) in pcg.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn parametrized_beats_unparametrized_at_same_m() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128).map(|i| ((i % 13) as f64) - 6.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        for m in [2usize, 3, 4] {
            let un = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let pa = MStepSsorPreconditioner::parametrized(&a, &p, m).unwrap();
            let s_un = pcg_solve(&a, &b, &un, &opts).unwrap();
            let s_pa = pcg_solve(&a, &b, &pa, &opts).unwrap();
            assert!(
                s_pa.iterations <= s_un.iterations,
                "m = {m}: parametrized {} > unparametrized {}",
                s_pa.iterations,
                s_un.iterations
            );
        }
    }

    #[test]
    fn iterations_decrease_with_m() {
        let (a, p) = rb(128);
        let b: Vec<f64> = (0..128).map(|i| (i as f64 * 0.05).cos()).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let iters: Vec<usize> = [1usize, 2, 4, 8]
            .iter()
            .map(|&m| {
                let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
                pcg_solve(&a, &b, &pre, &opts).unwrap().iterations
            })
            .collect();
        assert!(
            iters.windows(2).all(|w| w[1] <= w[0]),
            "not monotone: {iters:?}"
        );
    }

    #[test]
    fn indefinite_matrix_is_reported() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, -1.0).unwrap();
        let a = c.to_csr();
        let err = cg_solve(&a, &[1.0, 1.0], &PcgOptions::default());
        assert!(matches!(err, Err(SparseError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn tiny_step_does_not_fake_residual_convergence() {
        // A stiff system takes a sub-tolerance *step* in its first
        // iteration while the relative residual is still enormous; under
        // the RelativeResidual criterion the budget exit must not promote
        // that step size to "converged".
        let mut a = laplacian(50);
        for v in a.values_mut() {
            *v *= 1e6;
        }
        let b = vec![1.0; 50];
        let opts = PcgOptions {
            tol: 1e-3,
            max_iterations: 1,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(50);
        let mut u = vec![0.0; 50];
        let rep = pcg_try_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(50),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert!(
            rep.final_change < opts.tol,
            "test premise: step below tol, got {}",
            rep.final_change
        );
        assert!(rep.final_relative_residual > opts.tol);
        assert!(!rep.converged, "step size must not fake convergence");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = PcgOptions {
            tol: 1e-14,
            max_iterations: 2,
            ..Default::default()
        };
        match cg_solve(&a, &b, &opts) {
            Err(SparseError::DidNotConverge { iterations, .. }) => {
                assert_eq!(iterations, 2, "the classic default spends the budget");
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_two_inner_products_per_iteration() {
        let a = laplacian(16);
        let b = vec![1.0; 16];
        let sol = cg_solve(&a, &b, &PcgOptions::default()).unwrap();
        // 1 initial + 2 per iteration, except the converging iteration (or
        // an exact-breakdown probe) skips the second one: ≈ 2·I total —
        // the paper's "two inner products per iteration".
        assert!(
            sol.stats.inner_products >= 2 * sol.iterations
                && sol.stats.inner_products <= 2 * sol.iterations + 2,
            "{} inner products for {} iterations",
            sol.stats.inner_products,
            sol.iterations
        );
        // + initial residual, + an exact-breakdown probe, + the true-residual
        // recompute on the breakdown exit path.
        assert!(sol.stats.spmv >= sol.iterations && sol.stats.spmv <= sol.iterations + 3);
        // Each inner product is its own serialized reduction phase.
        assert!(
            sol.stats.reduction_phases >= 2 * sol.iterations,
            "{} reduction phases for {} iterations",
            sol.stats.reduction_phases,
            sol.iterations
        );
    }

    #[test]
    fn diagonal_preconditioner_equals_cg_on_constant_diagonal() {
        // With a constant diagonal, Jacobi scaling is a scalar multiple:
        // identical iterates, identical counts.
        let a = laplacian(20);
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let opts = PcgOptions {
            tol: 1e-9,
            ..Default::default()
        };
        let cg = cg_solve(&a, &b, &opts).unwrap();
        let dp = DiagonalPreconditioner::from_diag(&a.diag().unwrap()).unwrap();
        let pj = pcg_solve(&a, &b, &dp, &opts).unwrap();
        assert_eq!(cg.iterations, pj.iterations);
    }

    #[test]
    fn warm_start_converges_immediately_at_solution() {
        let a = laplacian(10);
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let pre = IdentityPreconditioner::new(10);
        let sol = pcg_solve_from(&a, &b, &x_true, &pre, &PcgOptions::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.iterations <= 1);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        // Two consecutive solves on one PcgWorkspace must agree bitwise,
        // and both must agree with the allocating wrapper.
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.final_change, rep2.final_change);
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert_eq!(sol.x, u1);
        assert_eq!(sol.iterations, rep1.iterations);
    }

    #[test]
    fn undersized_workspace_resizes_on_entry() {
        let a = laplacian(20);
        let b = vec![1.0; 20];
        let opts = PcgOptions::default();
        let mut ws = PcgWorkspace::new(4); // undersized: must self-resize
        let mut u = vec![0.0; 20];
        let rep = pcg_solve_into(
            &a,
            &b,
            &mut u,
            &IdentityPreconditioner::new(20),
            &opts,
            &mut ws,
        )
        .unwrap();
        assert_eq!(ws.dim(), 20);
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert_eq!(sol.x, u);
        assert_eq!(sol.iterations, rep.iterations);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = laplacian(4);
        let err = cg_solve(&a, &[1.0; 5], &PcgOptions::default());
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn non_finite_inputs_and_tolerances_are_rejected_up_front() {
        let a = laplacian(8);
        let mut b = vec![1.0; 8];
        b[3] = f64::NAN;
        assert!(matches!(
            cg_solve(&a, &b, &PcgOptions::default()),
            Err(SparseError::NonFinite {
                phase: "rhs",
                iteration: 0
            })
        ));
        let b = vec![1.0; 8];
        let mut u0 = vec![0.0; 8];
        u0[0] = f64::INFINITY;
        let pre = IdentityPreconditioner::new(8);
        assert!(matches!(
            pcg_solve_from(&a, &b, &u0, &pre, &PcgOptions::default()),
            Err(SparseError::NonFinite {
                phase: "initial-guess",
                iteration: 0
            })
        ));
        for bad in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            let opts = PcgOptions {
                tol: bad,
                ..Default::default()
            };
            assert!(
                matches!(
                    cg_solve(&a, &b, &opts),
                    Err(SparseError::InvalidTolerance { .. })
                ),
                "tolerance {bad} accepted"
            );
        }
    }

    /// `pcg_try_solve_into_with_faults` from the zero guess, on a fresh
    /// workspace, under `faults` (at `rhs` 0).
    fn faulted_solve(
        a: &CsrMatrix,
        b: &[f64],
        pre: &impl Preconditioner,
        opts: &PcgOptions,
        faults: Vec<IterationFault>,
    ) -> (Vec<f64>, Result<PcgReport, SparseError>) {
        let mut u = vec![0.0; b.len()];
        let plan = FaultPlan::new(faults);
        let mut ws = PcgWorkspace::new(b.len());
        let rep = pcg_try_solve_into_with_faults(a, b, &mut u, pre, opts, &mut ws, &plan);
        (u, rep)
    }

    fn nan_msolve(iteration: usize, index: usize) -> IterationFault {
        IterationFault {
            rhs: 0,
            target: FaultTarget::Msolve,
            iteration,
            index,
            kind: FaultKind::NaN,
        }
    }

    #[test]
    fn classic_recovers_in_place_from_injected_nan_in_msolve() {
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.mul_vec(&x_true);
        // NaN out of the msolve after 2 iterations: the loop must detect
        // it on the (r̂, r) scalar, restart in place, and still converge —
        // no audit and no opt-in needed (non-finite detection is always
        // on).
        let pre = IdentityPreconditioner::new(32);
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let (x, sol) = faulted_solve(&a, &b, &pre, &opts, vec![nan_msolve(2, 7)]);
        let sol = sol.unwrap();
        assert!(sol.converged);
        assert!(sol.final_relative_residual < 1e-10);
        // Exact counters: one detection, one in-place recovery, no audits
        // (the default policy runs none).
        assert_eq!(sol.stats.faults_detected, 1);
        assert_eq!(sol.stats.replacements, 1);
        assert_eq!(sol.stats.fallbacks, 0);
        assert_eq!(sol.stats.audits, 0);
        for (x, y) in x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn exhausted_replacement_budget_surfaces_typed_nonfinite_error() {
        let a = laplacian(16);
        let b = vec![1.0; 16];
        let opts = PcgOptions {
            recovery: RecoveryPolicy {
                max_replacements: 0,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let pre = IdentityPreconditioner::new(16);
        let (_, rep) = faulted_solve(&a, &b, &pre, &opts, vec![nan_msolve(1, 0)]);
        assert!(matches!(
            rep,
            Err(SparseError::NonFinite {
                phase: "msolve-reduction",
                iteration: 1
            })
        ));
    }

    #[test]
    fn audit_catches_silent_spmv_corruption_and_replaces() {
        let a = laplacian(64);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).cos()).collect();
        let b = SparseOp::mul_vec(&a, &x_true);
        // A moderate, FINITE corruption of iteration 4's SpMV output: the
        // poisoned `Kp` feeds `r −= α·Kp` while `u += α·p` uses the clean
        // `p`, so the recurrence residual silently drifts from `f − K·u`.
        // The perturbation is kept small enough that every reduction
        // scalar stays finite and plausible (a huge one would trip the
        // breakdown guards instead), so only the audit can catch it.
        let noise = IterationFault {
            rhs: 0,
            target: FaultTarget::Spmv,
            iteration: 4,
            index: 20,
            kind: FaultKind::ScaledNoise(0.01),
        };
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            recovery: RecoveryPolicy {
                audit_period: 4,
                ..RecoveryPolicy::on()
            },
            ..Default::default()
        };
        let pre = IdentityPreconditioner::new(64);
        let (x, sol) = faulted_solve(&a, &b, &pre, &opts, vec![noise]);
        let sol = sol.unwrap();
        assert!(sol.converged, "replacement did not rescue the solve");
        // The fault landed: the iterate differs from the clean solve's.
        let (clean, _) = faulted_solve(&a, &b, &pre, &opts, vec![]);
        assert_ne!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(sol.stats.audits >= 1, "no audit ran");
        assert!(
            sol.stats.replacements >= 1,
            "drift was never replaced: iters = {}, stats = {:?}",
            sol.iterations,
            sol.stats
        );
        assert_eq!(sol.stats.faults_detected, 0, "corruption was finite");
        // Converged to the TRUE residual tolerance: verify from scratch
        // against the clean matrix.
        let mut rt = b.clone();
        SparseOp::mul_vec_axpy(&a, -1.0, &x, &mut rt);
        let rel = vecops::norm2(&rt) / vecops::norm2(&b);
        assert!(rel < 1e-9, "true relative residual {rel:e}");
    }

    #[test]
    fn clean_audited_solve_replays_bitwise_and_counts_audits_exactly() {
        use crate::recovery::RecoveryPolicy;
        let (a, p) = rb(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 5 + 1) % 19) as f64 - 9.0).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            recovery: RecoveryPolicy {
                audit_period: 3,
                ..RecoveryPolicy::on()
            },
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(64);
        let mut u1 = vec![0.0; 64];
        let rep1 = pcg_solve_into(&a, &b, &mut u1, &pre, &opts, &mut ws).unwrap();
        let mut u2 = vec![0.0; 64];
        let rep2 = pcg_solve_into(&a, &b, &mut u2, &pre, &opts, &mut ws).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(rep1.stats, rep2.stats);
        // Clean solve: audits fire on schedule (iterations 4, 7, 10, …)
        // but never replace.
        let expected_audits = if rep1.iterations > 3 {
            (rep1.iterations - 1) / 3
        } else {
            0
        };
        assert_eq!(rep1.stats.audits, expected_audits);
        assert_eq!(rep1.stats.replacements, 0);
        assert_eq!(rep1.stats.faults_detected, 0);
        // And the audited solution equals the unaudited one bitwise: a
        // non-replacing audit must not perturb the iteration.
        let plain = PcgOptions {
            recovery: RecoveryPolicy::default(),
            ..opts
        };
        let mut u3 = vec![0.0; 64];
        let rep3 = pcg_solve_into(&a, &b, &mut u3, &pre, &plain, &mut ws).unwrap();
        assert_eq!(u1, u3);
        assert_eq!(rep3.stats.audits, 0);
    }
}
