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
//! models in `mspcg-machine` can charge them faithfully. This is the one
//! recurrence the solver stack runs: the batched driver and the SPMD
//! executor in `mspcg-parallel` run it too.
//!
//! ## Recovery
//!
//! Non-finite reduction scalars (a NaN/Inf out of a corrupted SpMV or
//! preconditioner application) are caught on the scalar before it feeds
//! `α` or `β`, and the loop restarts in place from the current iterate:
//! it re-derives `r = f − K·u`, `r̂` and `p`. With auditing on
//! ([`RecoveryPolicy::replacement`]) the same restart replaces a
//! recurrence residual that has drifted from the true one. Both are
//! bounded by [`RecoveryPolicy::max_replacements`] and counted in
//! [`PcgStats`].
//!
//! Breakdown guards double as SPD validation: a nonpositive `(p, Kp)`
//! reveals an indefinite `K`, a nonpositive `(r̂, r)` an indefinite `M`;
//! both return typed errors instead of silently diverging.

use crate::preconditioner::{IdentityPreconditioner, Preconditioner};
use crate::recovery::{audit_due, diverged, AuditPlan, RecoveryPolicy};
use mspcg_sparse::{vecops, SparseError, SparseOp};

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
    /// Record the per-iteration criterion value in
    /// [`PcgSolution::history`].
    pub record_history: bool,
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
            record_history: false,
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
    /// Preconditioner applications (`M r̂ = r` solves).
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
    /// Per-iteration criterion values (empty unless requested).
    pub history: Vec<f64>,
    /// Operation counts.
    pub stats: PcgStats,
}

/// Allocation-free view of a solve's outcome, returned by
/// [`pcg_solve_into`] (the solution lives in the caller's buffer, the
/// history — if recorded — in the [`PcgWorkspace`]).
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

/// Reusable scratch buffers for the PCG loop.
///
/// Algorithm 1 needs four working vectors (`r`, `r̂`, `p`, `Kp`). The
/// one-shot entry points ([`pcg_solve`], [`pcg_solve_from`]) allocate them
/// per call; repeated solves over systems of one size — the ω sweep, the
/// condition scans, the Table 2/3 m sweeps — should construct one
/// `PcgWorkspace` and call [`pcg_solve_into`], whose iteration performs
/// **no heap allocation** after workspace construction (when history
/// recording is off; with it on, [`PcgWorkspace::reserve_history`]
/// preallocates the record too). The audit scratch is sized by the first
/// audited solve — one warm-up allocation, so unaudited workspaces never
/// pay for it.
#[derive(Debug, Clone)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    rhat: Vec<f64>,
    p: Vec<f64>,
    kp: Vec<f64>,
    /// True-residual scratch of the audit pass (`aud = f − K·u`). It
    /// starts empty and is sized by the first audited solve, so
    /// non-audited workspaces never pay for it.
    aud: Vec<f64>,
    /// Preconditioner scratch (sized on first use from
    /// [`Preconditioner::scratch_len`]); lets the hot loop call
    /// [`Preconditioner::apply_with`], bypassing any internal lock.
    precond_scratch: Vec<f64>,
    history: Vec<f64>,
}

impl PcgWorkspace {
    /// Workspace for systems of dimension `n`.
    pub fn new(n: usize) -> Self {
        PcgWorkspace {
            r: vec![0.0; n],
            rhat: vec![0.0; n],
            p: vec![0.0; n],
            kp: vec![0.0; n],
            aud: Vec::new(),
            precond_scratch: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Dimension the workspace is sized for.
    pub fn dim(&self) -> usize {
        self.r.len()
    }

    /// Resize for a different dimension (reallocates only when `n` grows
    /// past the current capacity).
    pub fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.rhat.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.kp.resize(n, 0.0);
        // The audit slot tracks the dimension only once in use.
        if !self.aud.is_empty() {
            self.ensure_audit(n);
        }
    }

    /// Size the audit scratch vector. Called by the first audited solve
    /// on this workspace (allocates once); afterwards a no-op.
    fn ensure_audit(&mut self, n: usize) {
        self.aud.resize(n, 0.0);
    }

    /// Ready the workspace for solves of dimension `n` with a
    /// preconditioner scratch of `scratch_len` values, audited or not, and
    /// clear the history. Allocates only where a slot grows.
    pub(crate) fn prepare(&mut self, n: usize, scratch_len: usize, audited: bool) {
        if self.dim() != n {
            self.resize(n);
        }
        if self.precond_scratch.len() != scratch_len {
            self.precond_scratch.resize(scratch_len, 0.0);
        }
        if audited {
            self.ensure_audit(n);
        }
        self.history.clear();
    }

    /// The residual slot, scratch for the batched solver's per-column
    /// initial residuals and exit reports.
    pub(crate) fn residual_mut(&mut self) -> &mut [f64] {
        &mut self.r
    }

    /// The audit slot (sized by [`PcgWorkspace::prepare`] when audited).
    pub(crate) fn audit_mut(&mut self) -> &mut [f64] {
        &mut self.aud
    }

    /// Preallocate the history record so that solves with
    /// `record_history` stay allocation free up to `iters` iterations.
    pub fn reserve_history(&mut self, iters: usize) {
        self.history.reserve(iters);
    }

    /// Criterion history of the most recent [`pcg_solve_into`] call
    /// (empty unless `record_history` was set).
    pub fn history(&self) -> &[f64] {
        &self.history
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
        history: std::mem::take(&mut ws.history),
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
/// ([`vecops::fused_axpy_axpy_norm`], [`vecops::fused_xpby_dot`],
/// [`vecops::norm2_with_max`]): the `u`/`r` updates and the stopping-test
/// reduction partials are computed in a single pass per iteration instead
/// of three to four, with bitwise-identical results to the unfused
/// kernel sequence (`tests/par_determinism.rs`).
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
/// ([`crate::multi::pcg_solve_multi`]) use this so one stubborn
/// right-hand side cannot abort a whole batch.
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
    ws.prepare(n, m.scratch_len(), opts.recovery.replacement);

    let mut stats = PcgStats::default();

    let f_norm = vecops::norm2(f);
    if f_norm == 0.0 {
        // Trivial system: for SPD `K`, `K u = 0` has exactly the zero
        // solution. Write it — returning with `u` untouched would hand a
        // warm-started caller back its stale guess as "the solution".
        vecops::zero(u);
        return Ok(PcgReport {
            iterations: 0,
            converged: true,
            final_change: 0.0,
            final_relative_residual: 0.0,
            stats,
        });
    }

    let audit = AuditPlan::new(&opts.recovery, opts.tol, f_norm);
    classic_loop(
        k,
        f,
        u,
        m,
        opts,
        ws,
        &mut stats,
        f_norm,
        &audit,
        0,
        f64::INFINITY,
    )
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

/// One audit: recompute the true residual `f − K·u` into `aud` and return
/// its squared deviation from the recurrence residual, column `j` of the
/// `W`-column interleaved block `r` (width 1: `r` itself). The sum of
/// squares propagates NaN (unlike a max-based norm, which swallows it),
/// so a poisoned recurrence residual always reads as divergent.
pub(crate) fn audit_deviation2<A: SparseOp, const W: usize>(
    k: &A,
    f: &[f64],
    u: &[f64],
    (r, j): (&[f64], usize),
    aud: &mut [f64],
    stats: &mut PcgStats,
) -> f64 {
    stats.audits += 1;
    vecops::copy(f, aud);
    k.mul_vec_axpy(-1.0, u, aud);
    stats.spmv += 1;
    aud.iter()
        .zip(r.chunks_exact(W).map(|row| row[j]))
        .map(|(t, ri)| {
            let d = t - ri;
            d * d
        })
        .sum()
}

/// Shared no-stopping-test exit: recompute the TRUE residual `f − K·u`
/// from the exit iterate (the recursively updated in-loop `r` drifts from
/// it over many iterations, so reporting its norm would overstate — or
/// understate — how close the returned iterate actually is).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exit_report<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &[f64],
    r: &mut [f64],
    stats: &mut PcgStats,
    f_norm: f64,
    iterations: usize,
    converged: bool,
    change: f64,
) -> PcgReport {
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;
    let final_rel = vecops::norm2(r) / f_norm.max(1e-300);
    PcgReport {
        iterations,
        converged,
        final_change: change,
        final_relative_residual: final_rel,
        stats: *stats,
    }
}

/// Run [`classic_pass`] from the iterate in `u` until it produces a final
/// report, re-entering it on every in-place recovery restart (audit
/// replacement or budgeted non-finite recovery). Each pass re-derives
/// `r`, `r̂`, `p` from the current iterate `u`, which is exactly the
/// residual-replacement transformation. Termination: audit restarts
/// strictly advance `start` ([`audit_due`]) and non-finite restarts spend
/// the `max_replacements` budget.
///
/// `start` iterations are already charged to `stats` and `change` is the
/// last measured ‖Δu‖∞ — `0` and infinity for a fresh solve; the batched
/// solver enters here with a column that left its lockstep block, so its
/// restart continues exactly like the standalone one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classic_loop<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    mut start: usize,
    mut change: f64,
) -> Result<PcgReport, SparseError> {
    loop {
        match classic_pass(k, f, u, m, opts, ws, stats, f_norm, audit, start, change)? {
            ClassicFlow::Done(report) => return Ok(report),
            ClassicFlow::Restart {
                completed,
                change: c,
            } => {
                start = completed;
                change = c;
            }
        }
    }
}

/// Control flow of one classic pass.
pub(crate) enum ClassicFlow {
    /// The pass produced a final report.
    Done(PcgReport),
    /// In-place recovery after `completed` iterations: re-enter the pass
    /// from the iterate in `u` (already counted against the replacement
    /// budget at the emit site).
    Restart { completed: usize, change: f64 },
}

/// Shared non-finite handling of the classic pass: count the detection,
/// then recover in place while the replacement budget lasts, surfacing
/// the typed error once it is spent.
pub(crate) fn nonfinite_flow(
    stats: &mut PcgStats,
    audit: &AuditPlan,
    phase: &'static str,
    iteration: usize,
    completed: usize,
    change: f64,
) -> Result<ClassicFlow, SparseError> {
    stats.faults_detected += 1;
    if stats.replacements < audit.max_replacements {
        stats.replacements += 1;
        Ok(ClassicFlow::Restart { completed, change })
    } else {
        Err(SparseError::NonFinite { phase, iteration })
    }
}

/// The Algorithm 1 loop (two serialized inner products per iteration),
/// starting from the iterate already in `u`. `start_iter` iterations have
/// been charged against the budget by a preceding pass (0 for the first);
/// `initial_change` is that pass's last measured ‖Δu‖∞ (infinity for the
/// first), reported if the loop body never runs — a restart on the final
/// budgeted iteration must not erase the measured step size.
///
/// Non-finite reduction scalars (a NaN/Inf out of a corrupted SpMV or
/// preconditioner application) are detected on the scalars *before* they
/// feed `α`/`β` — the iterate is still finite at every detection point,
/// so the in-place restart recovers from it (see [`nonfinite_flow`]).
/// When auditing is enabled, every [`AuditPlan::period`] iterations the
/// true residual is compared against the recurrence residual and
/// divergence beyond the bound triggers the same restart (which *is* the
/// replacement: the pass re-derives `r` from `u`). With auditing off and
/// finite scalars, the arithmetic is bit-for-bit the pre-recovery loop.
#[allow(clippy::too_many_arguments)]
fn classic_pass<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    stats: &mut PcgStats,
    f_norm: f64,
    audit: &AuditPlan,
    start_iter: usize,
    initial_change: f64,
) -> Result<ClassicFlow, SparseError> {
    let PcgWorkspace {
        r,
        rhat,
        p,
        kp,
        aud,
        precond_scratch,
        history,
        ..
    } = ws;

    // r⁰ = f − K u⁰.
    vecops::copy(f, r);
    k.mul_vec_axpy(-1.0, u, r);
    stats.spmv += 1;

    m.apply_with(r, rhat, precond_scratch);
    stats.precond_applications += 1;
    stats.precond_steps += m.steps_per_apply();

    // p⁰ ← r̂⁰ and rz₀ = (r̂⁰, r⁰) in one fused pass (b = 0 is an exact
    // copy, so stale workspace contents in p cannot leak).
    let mut rz = vecops::fused_xpby_dot(rhat, 0.0, p, r);
    stats.inner_products += 1;
    stats.reduction_phases += 1;
    if !rz.is_finite() {
        // A corrupted initial msolve (possible on a restart whose own
        // re-derivation hits the fault): recover before iterating.
        return nonfinite_flow(
            stats,
            audit,
            "msolve-reduction",
            start_iter,
            start_iter,
            initial_change,
        );
    }
    if rz < 0.0 {
        return Err(SparseError::NotPositiveDefinite {
            pivot: start_iter,
            value: rz,
        });
    }

    let mut change = initial_change;
    let mut completed = start_iter;
    for iter in start_iter + 1..=opts.max_iterations {
        // Residual audit: compare the recurrence residual against the
        // freshly recomputed true residual (state after iteration
        // `iter − 1`). Skipped once the replacement budget is spent — an
        // audit that cannot act would only burn an SpMV.
        if audit.enabled
            && audit_due(iter, start_iter, audit.period)
            && stats.replacements < audit.max_replacements
        {
            let dev2 = audit_deviation2::<_, 1>(k, f, u, (r, 0), aud, stats);
            if diverged(dev2, audit.bound2) {
                stats.replacements += 1;
                return Ok(ClassicFlow::Restart {
                    completed: iter - 1,
                    change,
                });
            }
        }

        k.mul_vec_into(p, kp);
        stats.spmv += 1;
        let denom = vecops::dot(p, kp);
        stats.inner_products += 1;
        stats.reduction_phases += 1;
        if !denom.is_finite() {
            // Checked before the sign guard: NaN fails `<= 0.0` and would
            // otherwise flow straight into α. `u` has not been touched
            // this iteration, so the restart recovers from a clean
            // iterate.
            return nonfinite_flow(stats, audit, "spmv-reduction", iter, iter - 1, change);
        }
        if denom <= 0.0 {
            if rz == 0.0 {
                // Exact convergence in fewer than n steps: residual is 0.
                break;
            }
            return Err(SparseError::NotPositiveDefinite {
                pivot: iter,
                value: denom,
            });
        }
        completed = iter;
        let alpha = rz / denom;
        // One fused pass: u += αp, r −= α·Kp, and the ‖p‖∞ / ‖r‖∞
        // partials for both stopping tests.
        let norms = vecops::fused_axpy_axpy_norm(alpha, p, kp, u, r);
        // ‖u^{k+1} − uᵏ‖∞ = |α|·‖p‖∞ — no extra vector needed.
        change = alpha.abs() * norms.p_norm_inf;
        if !norms.all_finite() {
            // An Inf slipped past the finite dot (cancelation in the
            // reduction): `r` is poisoned but `u` was updated with the
            // already-validated α and a finite `p`, so the restart's
            // `r = f − K·u` re-derivation recovers. (A NaN in `r` hides
            // from the max-based norm and is caught one step later by the
            // msolve-reduction scalar.)
            return nonfinite_flow(stats, audit, "update", iter, iter, change);
        }

        let crit_value = match opts.criterion {
            StoppingCriterion::DisplacementChange => change,
            StoppingCriterion::RelativeResidual => {
                stats.inner_products += 1;
                vecops::norm2_with_max(r, norms.r_norm_inf) / f_norm.max(1e-300)
            }
        };
        if opts.record_history {
            history.push(crit_value);
        }
        if crit_value < opts.tol {
            let final_rel = vecops::norm2_with_max(r, norms.r_norm_inf) / f_norm.max(1e-300);
            return Ok(ClassicFlow::Done(PcgReport {
                iterations: iter,
                converged: true,
                final_change: change,
                final_relative_residual: final_rel,
                stats: *stats,
            }));
        }

        m.apply_with(r, rhat, precond_scratch);
        stats.precond_applications += 1;
        stats.precond_steps += m.steps_per_apply();
        let rz_new = vecops::dot(rhat, r);
        stats.inner_products += 1;
        stats.reduction_phases += 1;
        if !rz_new.is_finite() {
            // NaN/Inf out of the preconditioner (or a NaN residual the
            // max-norm swallowed above): detected on the scalar before β
            // is formed, while `u` is still finite.
            return nonfinite_flow(stats, audit, "msolve-reduction", iter, iter, change);
        }
        if rz_new < 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                pivot: iter,
                value: rz_new,
            });
        }
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        vecops::xpby(rhat, beta, p);
    }

    // rz == 0 exact-breakdown exit lands here with converged status. The
    // `change < tol` arm is meaningful only for the displacement test:
    // under RelativeResidual a sub-tolerance *step size* says nothing
    // about the residual the caller asked to bound (a stagnating solve
    // must not be reported as converged).
    let converged =
        rz == 0.0 || (opts.criterion == StoppingCriterion::DisplacementChange && change < opts.tol);
    let iterations = if converged {
        completed
    } else {
        opts.max_iterations
    };
    Ok(ClassicFlow::Done(exit_report(
        k, f, u, r, stats, f_norm, iterations, converged, change,
    )))
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
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CsrMatrix;
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
    fn history_is_recorded_and_decreasing_overall() {
        let a = laplacian(32);
        let b = vec![1.0; 32];
        let opts = PcgOptions {
            record_history: true,
            ..Default::default()
        };
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert_eq!(sol.history.len(), sol.iterations);
        let first = sol.history[0];
        let last = *sol.history.last().unwrap();
        assert!(last < first);
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
    fn workspace_records_history_and_resizes() {
        let a = laplacian(20);
        let b = vec![1.0; 20];
        let opts = PcgOptions {
            record_history: true,
            ..Default::default()
        };
        let mut ws = PcgWorkspace::new(4); // undersized: must self-resize
        ws.reserve_history(64);
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
        assert_eq!(ws.history().len(), rep.iterations);
        let sol = cg_solve(&a, &b, &opts).unwrap();
        assert_eq!(sol.history, ws.history());
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

    #[test]
    fn classic_recovers_in_place_from_injected_nan_in_msolve() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner};
        let a = laplacian(32);
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.mul_vec(&x_true);
        // NaN out of msolve application 2 (init is application 0, then
        // one per iteration): the classic loop must detect it on the
        // (r̂, r) scalar, restart in place, and still converge — no audit
        // and no opt-in needed (non-finite detection is always on).
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(32),
            vec![ApplicationFault {
                application: 2,
                index: 7,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let sol = pcg_solve(&a, &b, &pre, &opts).unwrap();
        assert!(sol.converged);
        assert!(sol.final_relative_residual < 1e-10);
        assert_eq!(pre.injected(), 1);
        // Exact counters: one detection, one in-place recovery, no audits
        // (the default policy runs none).
        assert_eq!(sol.stats.faults_detected, 1);
        assert_eq!(sol.stats.replacements, 1);
        assert_eq!(sol.stats.fallbacks, 0);
        assert_eq!(sol.stats.audits, 0);
        for (x, y) in sol.x.iter().zip(&x_true) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn exhausted_replacement_budget_surfaces_typed_nonfinite_error() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner, RecoveryPolicy};
        let a = laplacian(16);
        let b = vec![1.0; 16];
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(16),
            vec![ApplicationFault {
                application: 1,
                index: 0,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            recovery: RecoveryPolicy {
                max_replacements: 0,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            pcg_solve(&a, &b, &pre, &opts),
            Err(SparseError::NonFinite {
                phase: "msolve-reduction",
                ..
            })
        ));
    }

    #[test]
    fn audit_catches_silent_spmv_corruption_and_replaces() {
        use crate::recovery::{ApplicationFault, FaultKind, FaultyOp, RecoveryPolicy};
        let a = laplacian(64);
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).cos()).collect();
        let b = SparseOp::mul_vec(&a, &x_true);
        // A moderate, FINITE corruption of one SpMV output: the poisoned
        // `Kp` feeds `r −= α·Kp` while `u += α·p` uses the clean `p`, so
        // the recurrence residual silently drifts from `f − K·u`. The
        // perturbation is kept small enough that every reduction scalar
        // stays finite and plausible (a huge one would trip the
        // breakdown guards instead), so only the audit can catch it.
        let op = FaultyOp::new(
            a.clone(),
            vec![ApplicationFault {
                application: 4,
                index: 20,
                kind: FaultKind::ScaledNoise(0.01),
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            recovery: RecoveryPolicy {
                audit_period: 4,
                ..RecoveryPolicy::on()
            },
            ..Default::default()
        };
        let sol = pcg_solve(&op, &b, &IdentityPreconditioner::new(64), &opts).unwrap();
        assert!(sol.converged, "replacement did not rescue the solve");
        assert_eq!(op.injected(), 1);
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
        SparseOp::mul_vec_axpy(&a, -1.0, &sol.x, &mut rt);
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
