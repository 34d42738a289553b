//! Batched multi-RHS PCG — and the Algorithm 1 loop every solve runs.
//!
//! [`lockstep`] is the only Algorithm 1 in the workspace. It is written
//! once against [`Executor`], whose methods are the loop's vector phases
//! and return replicated scalars; the loop keeps every scalar, per-column
//! state and counter. Two executors run it: the pool path's lane block
//! (below), and the SPMD worker of `mspcg-parallel`, which runs it at
//! width 1 on its own rows with a barrier per phase — the paper's
//! Algorithm 1 on the CYBER pipeline and its Algorithm 3 on the Finite
//! Element Machine, one loop on two machines.
//!
//! The FEM workloads the paper targets rarely solve one system — a plate
//! is analysed under many load cases, all sharing the stiffness matrix
//! `K` and therefore the multicolor ordering, the SSOR splitting tables
//! and the preconditioner coefficients. [`pcg_solve_multi`] solves a
//! whole batch against one `K` and one shared preconditioner:
//!
//! * **Lanes** — the batch is split into `min(threads, cases)` lanes of
//!   contiguous cases, balanced to within one; each pool participant runs
//!   one lane, whose nested kernel launches run inline. A one-case batch
//!   is one lane on the calling thread, whose kernels fan out on the pool
//!   as a standalone solve's do.
//! * **Lockstep blocks** — a lane solves its range in blocks of up to
//!   [`BLOCK_WIDTH`] right-hand sides. A block stores its residuals,
//!   directions and `K·p` / `M⁻¹r` interleaved, `n × w` (column `j` of row
//!   `i` at `i·w + j`), and its columns run Algorithm 1 in lockstep: one
//!   SpMV ([`SparseOp::mul_block_into`]), one msolve
//!   ([`Preconditioner::apply_block`]) and one pass of each vector kernel
//!   per iteration serve every column, so each stored value, column index,
//!   row pointer and `1/a_ii` is loaded once per block instead of once per
//!   case, and the `w` row sums are independent dependency chains.
//!   *Per column* are α, β, the stopping test, the iteration count, the
//!   audit schedule and [`PcgStats`]; *shared* are the matrix, the
//!   preconditioner and the sweep of the rows. A column leaves the block
//!   when it converges, when an inner product shows an indefinite
//!   operator, when its budget runs out (the exit with the true residual)
//!   and when a non-finite value outlasts its replacement budget. Its
//!   slots of the block then carry zeros; its iterate, written straight
//!   into the caller's column, is not touched again.
//! * **Restart in place** — one re-derivation (`r = f − K·u`, `r̂ = M⁻¹r`,
//!   `p ← r̂`, `(r̂, r)`) starts every column and serves each of its
//!   restarts: a residual audit that diverged, or a non-finite scalar (see
//!   [`crate::recovery`]). The restarting columns re-derive together
//!   before the block's next SpMV, from their own iterates, while the
//!   other columns keep their state. A column whose `(p, K·p)` went
//!   non-finite repeats that iteration, so it rejoins the block one step
//!   later: each column counts iterations, audits and budget on its own,
//!   and so reports exactly its standalone solve.
//! * **Width 1 is the plain kernel** — the block kernels are the
//!   solver's kernels made generic over the column count (the CSR gather,
//!   `SweepTable::sweep`, the `vecops` updates and reductions in their
//!   chunk order), so every column of a block is computed by bitwise the
//!   arithmetic of its standalone solve — which is the block of width 1
//!   ([`crate::pcg::pcg_try_solve_into`]). Operators and preconditioners
//!   without a block kernel take the traits' default, one column after
//!   another through `mul_vec_into` / `apply_with`.
//! * **Shared system, per-lane scratch** — the matrix and preconditioner
//!   are borrowed immutably by every lane; each lane is a [`PcgWorkspace`]
//!   owning its block and the block kernels' scratch (the interleaved
//!   SSOR half-sum cache), so concurrent lanes never serialize on a lock.
//! * **Zero per-solve allocation** — after the workspace is warm, a batch
//!   call performs no heap allocation (`tests/alloc_free_hot_loop.rs`
//!   extends the counting-allocator proof to 32 right-hand sides).
//! * **Determinism** — every right-hand side is solved by the same
//!   chunk-deterministic arithmetic, so each solution, iteration count,
//!   [`PcgStats`] and [`SolveStatus`] is bitwise that of its standalone
//!   [`crate::pcg::pcg_solve_into`] run, for any thread count.
//!
//! Budget exhaustion on one right-hand side is recorded in that RHS's
//! [`RhsOutcome`] (with the *true* recomputed final residual) instead of
//! aborting the batch — see [`crate::pcg::pcg_try_solve_into`]. So is
//! recovery: a right-hand side whose solve restarted in place from its
//! iterate (an audit replacement or a non-finite recovery) reports
//! [`SolveStatus::Replaced`], and one whose replacement budget ran out
//! reports [`SolveStatus::Breakdown`] with the standalone solve's error.
//!
//! A probe of the block path: `cargo run --release --example
//! multi_load_cases` prints every case's iteration count and residual,
//! byte for byte alike at any `MSPCG_THREADS`, and the `multi_rhs` bench
//! asserts in-run that every batch column equals its sequential solve.

use crate::pcg::{
    validate_inputs, PcgOptions, PcgReport, PcgStats, PcgWorkspace, StoppingCriterion,
};
use crate::preconditioner::{block_scratch_len, Preconditioner};
use crate::recovery::{
    audit_due, diverged, perturb, AuditPlan, FaultPlan, FaultTarget, IterationFault,
};
use mspcg_sparse::par::{self, ParSlice};
use mspcg_sparse::vecops::{self, FusedUpdateNorms};
use mspcg_sparse::{SparseError, SparseOp};
use std::ops::Range;

/// Right-hand sides a lane solves in lockstep: the most columns of one
/// block. A lane with fewer cases runs a narrower block.
pub const BLOCK_WIDTH: usize = 8;

/// How one right-hand side of a batch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The stopping test fired within the iteration budget, with no
    /// recovery of any kind — a clean solve.
    Converged,
    /// Converged after one or more residual replacements or in-place
    /// non-finite recoveries (`stats.replacements > 0`): drift or
    /// corruption was caught and repaired from the current iterate.
    Replaced,
    /// The budget ran out; the report carries the true final residual.
    BudgetExhausted,
    /// Inner-product breakdown (indefinite matrix or preconditioner), or
    /// a non-finite value that exhausted the recovery budget.
    Breakdown,
}

impl SolveStatus {
    /// Whether this status means the returned iterate satisfies the
    /// stopping test (cleanly or rescued).
    pub fn is_converged(self) -> bool {
        matches!(self, SolveStatus::Converged | SolveStatus::Replaced)
    }
}

/// Per-RHS result of a [`pcg_solve_multi`] call.
#[derive(Debug, Clone)]
pub struct RhsOutcome {
    /// Outcome class.
    pub status: SolveStatus,
    /// Full per-solve report (for [`SolveStatus::Breakdown`] only the
    /// iteration count is meaningful).
    pub report: PcgReport,
    /// For [`SolveStatus::Breakdown`], the error its standalone
    /// [`crate::pcg::pcg_try_solve_into`] returns (`NotPositiveDefinite` or
    /// `NonFinite`); `None` for every other status.
    pub error: Option<SparseError>,
}

impl RhsOutcome {
    fn placeholder() -> Self {
        RhsOutcome {
            status: SolveStatus::Breakdown,
            report: PcgReport {
                iterations: 0,
                converged: false,
                final_change: f64::INFINITY,
                final_relative_residual: f64::INFINITY,
                stats: PcgStats::default(),
            },
            error: None,
        }
    }

    /// The outcome of one solve's result, classified as
    /// [`crate::pcg::pcg_try_solve_into`] reports it.
    fn of(result: Result<PcgReport, SparseError>) -> Self {
        match result {
            Ok(report) => RhsOutcome {
                status: if !report.converged {
                    SolveStatus::BudgetExhausted
                } else if report.stats.replacements > 0 {
                    SolveStatus::Replaced
                } else {
                    SolveStatus::Converged
                },
                report,
                error: None,
            },
            Err(e) => {
                let mut out = RhsOutcome::placeholder();
                match e {
                    SparseError::NotPositiveDefinite { pivot, .. } => {
                        out.report.iterations = pivot;
                    }
                    // Budget-exhausted non-finite recovery: like an
                    // indefiniteness breakdown, the iteration at which the
                    // solve gave up is the only meaningful number.
                    SparseError::NonFinite { iteration, .. } => {
                        out.report.iterations = iteration;
                    }
                    _ => {}
                }
                out.error = Some(e);
                out
            }
        }
    }
}

/// Batch-level roll-up returned by [`pcg_solve_multi`]; per-RHS detail
/// stays in [`MultiRhsWorkspace::outcomes`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiRhsSummary {
    /// Right-hand sides processed.
    pub solved: usize,
    /// How many converged (cleanly or replaced).
    pub converged: usize,
    /// How many of the converged needed a rescue
    /// ([`SolveStatus::Replaced`]).
    pub rescued: usize,
    /// Iterations summed over the batch.
    pub total_iterations: usize,
    /// Worst final relative residual across the batch.
    pub max_final_relative_residual: f64,
}

/// Reusable storage for batched solves: one lane ([`PcgWorkspace`]) per
/// parallel worker plus the per-RHS outcome table. Like `PcgWorkspace`, an
/// undersized instance is grown on entry (that path allocates once);
/// after that, batch calls are allocation free.
#[derive(Debug)]
pub struct MultiRhsWorkspace {
    lanes: Vec<PcgWorkspace>,
    outcomes: Vec<RhsOutcome>,
    n: usize,
}

impl MultiRhsWorkspace {
    /// Workspace for batches of up to `nrhs` right-hand sides of dimension
    /// `n`. Starts with one lane sized for a width-1 block: the first
    /// (warm-up) [`pcg_solve_multi`] call adds the lanes its batch runs —
    /// one per pool participant it uses — and grows each to its block
    /// width; calls after it are allocation free.
    pub fn new(n: usize, nrhs: usize) -> Self {
        MultiRhsWorkspace {
            lanes: vec![PcgWorkspace::new(n)],
            outcomes: vec![RhsOutcome::placeholder(); nrhs],
            n,
        }
    }

    /// Dimension the lanes are sized for.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Per-RHS outcomes of the most recent [`pcg_solve_multi`] call, in
    /// right-hand-side order.
    pub fn outcomes(&self) -> &[RhsOutcome] {
        &self.outcomes
    }
}

/// Solve `K·uᵢ = fᵢ` for a batch of right-hand sides sharing one matrix
/// and one preconditioner.
///
/// `f` and `u` hold the batch column-contiguously: right-hand side `i`
/// occupies `f[i·n..(i+1)·n]`, its initial guess and solution the same
/// range of `u`, with `n = k.rows()`. Returns the batch summary; per-RHS
/// reports are in [`MultiRhsWorkspace::outcomes`].
///
/// Non-convergence of an individual right-hand side is recorded in its
/// outcome, not returned as an error, so a batch always runs to
/// completion once shapes validate.
///
/// ```
/// use mspcg_core::multi::{pcg_solve_multi, MultiRhsWorkspace, SolveStatus};
/// use mspcg_core::pcg::PcgOptions;
/// use mspcg_core::preconditioner::DiagonalPreconditioner;
/// use mspcg_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(4, 4);
/// for i in 0..4 {
///     coo.push(i, i, 2.0)?;
///     if i + 1 < 4 { coo.push_sym(i, i + 1, -1.0)?; }
/// }
/// let k = coo.to_csr();
/// let m = DiagonalPreconditioner::from_diag(&k.diag()?)?;
/// let f: Vec<f64> = (0..8).map(|i| 1.0 + (i / 4) as f64).collect(); // 2 RHS
/// let mut u = vec![0.0; 8];
/// let mut ws = MultiRhsWorkspace::new(4, 2);
/// let sum = pcg_solve_multi(&k, &f, &mut u, &m, &PcgOptions::default(), &mut ws)?;
/// assert_eq!(sum.converged, 2);
/// assert!(ws.outcomes().iter().all(|o| o.status == SolveStatus::Converged));
/// # Ok::<(), mspcg_sparse::SparseError>(())
/// ```
///
/// # Errors
/// [`SparseError::NotSquare`] for a rectangular matrix,
/// [`SparseError::ShapeMismatch`] when `f.len()` is not a multiple of `n`,
/// `u.len() != f.len()`, or the preconditioner dimension differs.
/// [`SparseError::InvalidTolerance`] for a nonpositive or non-finite
/// tolerance, [`SparseError::ZeroAuditPeriod`] for an audit period of 0,
/// and [`SparseError::NonFinite`] when any right-hand side or initial
/// guess carries a NaN/Inf entry — all rejected up front by
/// [`crate::pcg::validate_inputs`], once for the whole batch, before any
/// lane starts iterating.
pub fn pcg_solve_multi<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &(impl Preconditioner + Sync),
    opts: &PcgOptions,
    ws: &mut MultiRhsWorkspace,
) -> Result<MultiRhsSummary, SparseError> {
    pcg_solve_multi_with_faults(k, f, u, m, opts, ws, &FaultPlan::default())
}

/// [`pcg_solve_multi`] under a [`FaultPlan`]: fault `rhs` indexes the
/// batch, and each case's faults land on that case alone, at any thread
/// count — the case reports exactly its standalone
/// [`crate::pcg::pcg_try_solve_into_with_faults`] under the same faults
/// at `rhs` 0.
///
/// # Errors
/// Same classes as [`pcg_solve_multi`].
pub fn pcg_solve_multi_with_faults<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &(impl Preconditioner + Sync),
    opts: &PcgOptions,
    ws: &mut MultiRhsWorkspace,
    plan: &FaultPlan,
) -> Result<MultiRhsSummary, SparseError> {
    let n = k.rows();
    if k.cols() != n {
        return Err(SparseError::NotSquare {
            rows: k.rows(),
            cols: k.cols(),
        });
    }
    if m.dim() != n || u.len() != f.len() || (n == 0 && !f.is_empty()) {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len().max(m.dim())),
        });
    }
    // Reject bad options and poisoned inputs once for the whole batch,
    // before any lane starts: a NaN smuggled in through one right-hand
    // side would otherwise burn that lane's whole iteration budget (or its
    // replacement budget) on garbage.
    validate_inputs(opts.tol, &opts.recovery, f, u)?;
    if !f.len().is_multiple_of(n) {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len()),
        });
    }
    let nrhs = f.len().checked_div(n).unwrap_or(0);

    // Contiguous RHS ranges per lane (balanced to within one), each solved
    // in blocks of up to `BLOCK_WIDTH`.
    let lanes = par::max_threads().min(nrhs).max(1);
    let (base, extra) = (nrhs / lanes, nrhs % lanes);
    let lane_range = |l: usize| {
        let start = l * base + l.min(extra);
        start..start + base + usize::from(l < extra)
    };
    let width = lane_range(0).len().clamp(1, BLOCK_WIDTH);
    ws.n = n;
    ws.outcomes.resize(nrhs, RhsOutcome::placeholder());
    while ws.lanes.len() < lanes {
        ws.lanes.push(PcgWorkspace::new(n));
    }
    for lane in &mut ws.lanes[..lanes] {
        lane.prepare(n, width, block_scratch_len(m, width));
    }
    let (lane_ws, outcomes, us) = (
        ParSlice::new(&mut ws.lanes[..lanes]),
        ParSlice::new(&mut ws.outcomes),
        ParSlice::new(u),
    );
    par::for_each_chunk(lanes, lanes, &|l| {
        // SAFETY: lane index `l` is claimed exactly once per region;
        // `lane_range(l)` ranges are pairwise disjoint, so lane `l`, the
        // outcome slots and the `u` columns of this range have exactly one
        // user, and nothing reads them until the region's completion
        // barrier.
        let lane = unsafe { &mut lane_ws.slice_mut(l..l + 1)[0] };
        let range = lane_range(l);
        let mut first = range.start;
        while first < range.end {
            let cols = first..(first + BLOCK_WIDTH).min(range.end);
            let (ub, out) = unsafe {
                (
                    us.slice_mut(cols.start * n..cols.end * n),
                    outcomes.slice_mut(cols.clone()),
                )
            };
            let fb = &f[cols.start * n..cols.end * n];
            solve_block(k, fb, ub, m, opts, (plan, cols.start), lane, out);
            first = cols.end;
        }
    });

    let mut summary = MultiRhsSummary {
        solved: nrhs,
        ..Default::default()
    };
    for o in &ws.outcomes {
        if o.status.is_converged() {
            summary.converged += 1;
            if o.status != SolveStatus::Converged {
                summary.rescued += 1;
            }
        }
        summary.total_iterations += o.report.iterations;
        let rel = o.report.final_relative_residual;
        if rel.is_finite() && rel > summary.max_final_relative_residual {
            summary.max_final_relative_residual = rel;
        }
    }
    Ok(summary)
}

/// [`lockstep`] at the block's width, `out.len()` columns, recording each
/// column's outcome; `faults` is the batch's plan and the batch index of
/// the block's first column.
#[allow(clippy::too_many_arguments)]
fn solve_block<A: SparseOp, P: Preconditioner>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &P,
    opts: &PcgOptions,
    faults: (&FaultPlan, usize),
    lane: &mut PcgWorkspace,
    out: &mut [RhsOutcome],
) {
    fn run<A: SparseOp, P: Preconditioner, const W: usize>(
        mut block: PoolBlock<'_, A, P, W>,
        opts: &PcgOptions,
        (plan, first): (&FaultPlan, usize),
        out: &mut [RhsOutcome],
    ) {
        for (o, result) in out.iter_mut().zip(lockstep(&mut block, opts, plan, first)) {
            *o = RhsOutcome::of(result);
        }
    }
    const _: () = assert!(BLOCK_WIDTH == 8, "one arm per block width");
    match out.len() {
        1 => run::<A, P, 1>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        2 => run::<A, P, 2>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        3 => run::<A, P, 3>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        4 => run::<A, P, 4>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        5 => run::<A, P, 5>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        6 => run::<A, P, 6>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        7 => run::<A, P, 7>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        8 => run::<A, P, 8>(PoolBlock::new(k, m, f, u, lane), opts, faults, out),
        w => unreachable!("block of {w} columns"),
    }
}

/// The machine [`lockstep`] runs on: the vector phases of Algorithm 1 on
/// a block of `W` right-hand sides. Each method is one phase over the
/// block's columns and returns its scalars *replicated* — every
/// participant of an executor gets bitwise the same values — so every
/// participant of one solve takes every branch of the loop together. The
/// loop keeps every scalar, counter and per-column state; the executor
/// keeps the vectors: per column the right-hand side `f`, the iterate
/// `u`, the residual `r`, the direction `p`, `K·p` and `r̂ = M⁻¹r`.
///
/// A planned fault reaches the [`Executor::spmv`] or [`Executor::msolve`]
/// call it corrupts, one slot per column: the executor perturbs that
/// element of the column's fresh output before the phase's fused
/// reduction, so a fault means the same thing on every executor.
///
/// Two executors implement it: the pool path's `PoolBlock`, a lane's
/// interleaved block on the `par` pool's kernels, and the SPMD worker of
/// `mspcg-parallel`, one column on the worker's own rows with a barrier
/// per phase.
pub trait Executor<const W: usize> {
    /// `‖f‖₂` of every column.
    fn rhs_norms(&mut self) -> [f64; W];
    /// Preconditioner steps per msolve, counted in
    /// [`PcgStats::precond_steps`].
    fn msolve_steps(&self) -> usize;
    /// `K·p` of the `live` columns, `faults[j]` perturbing its element of
    /// column `j`'s product; returns their `(p, K·p)`.
    fn spmv(&mut self, live: &[bool; W], faults: &[Option<IterationFault>; W]) -> [f64; W];
    /// `u += α·p` and `r −= α·K·p` on the `live` columns, returning their
    /// `‖p‖∞` and updated `‖r‖∞`.
    fn update(&mut self, alpha: &[f64; W], live: &[bool; W]) -> [FusedUpdateNorms; W];
    /// `‖r‖₂` of every column, given its `‖r‖∞` from [`Executor::update`].
    fn residual_norms(&mut self, r_max: &[f64; W]) -> [f64; W];
    /// `r̂ = M⁻¹r` on the columns `cols`, `faults[j]` perturbing its
    /// element of column `j`'s `r̂`, returning their `(r̂, r)`; on a
    /// `restart`, also `p ← r̂` for them.
    fn msolve(
        &mut self,
        cols: &[bool; W],
        restart: bool,
        faults: &[Option<IterationFault>; W],
    ) -> [f64; W];
    /// `p ← r̂ + β·p` on every column.
    fn xpby(&mut self, beta: &[f64; W]);
    /// `f − K·u` of column `j`, put to `to`'s use.
    fn true_residual(&mut self, j: usize, to: TrueResidual) -> f64;
    /// Column `j` left the block with its result: its iterate is final.
    fn retire(&mut self, j: usize);
    /// Set column `j`'s iterate to zero: its right-hand side is zero.
    fn zero_iterate(&mut self, j: usize);
}

/// What [`Executor::true_residual`] does with `f − K·u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrueResidual {
    /// Restart from it: it becomes the column's `r`. Returns 0.
    Restart,
    /// Audit the recurrence: returns `‖(f − K·u) − r‖₂²`, NaN when either
    /// carries one.
    Audit,
    /// Certify an exit: returns `‖f − K·u‖₂`.
    Norm,
}

/// The pool path's [`Executor`]: one block of `W` columns of the caller's
/// `f` and `u` (column `j` at `j·n..(j + 1)·n`) on a lane's interleaved
/// block vectors `r`, `p` and `t` (`K·p`, then `M⁻¹r`), its kernels'
/// scratch and its column `res` of `f − K·u`, run by the block kernels.
pub(crate) struct PoolBlock<'a, A, P, const W: usize> {
    k: &'a A,
    m: &'a P,
    f: &'a [f64],
    u: &'a mut [f64],
    r: &'a mut [f64],
    p: &'a mut [f64],
    t: &'a mut [f64],
    scratch: &'a mut [f64],
    res: &'a mut [f64],
}

impl<'a, A: SparseOp, P: Preconditioner, const W: usize> PoolBlock<'a, A, P, W> {
    /// The block of `f` and `u` on `lane`, prepared for `W` columns of
    /// `k`'s dimension.
    pub(crate) fn new(
        k: &'a A,
        m: &'a P,
        f: &'a [f64],
        u: &'a mut [f64],
        lane: &'a mut PcgWorkspace,
    ) -> Self {
        let n = k.rows();
        PoolBlock {
            k,
            m,
            f,
            u,
            r: &mut lane.r[..W * n],
            p: &mut lane.p[..W * n],
            t: &mut lane.t[..W * n],
            scratch: &mut lane.scratch,
            res: &mut lane.res,
        }
    }

    /// The range of column `j` in `f` and `u`.
    fn col(&self, j: usize) -> Range<usize> {
        let n = self.res.len();
        j * n..(j + 1) * n
    }
}

impl<A: SparseOp, P: Preconditioner, const W: usize> Executor<W> for PoolBlock<'_, A, P, W> {
    fn rhs_norms(&mut self) -> [f64; W] {
        std::array::from_fn(|j| vecops::norm2(&self.f[self.col(j)]))
    }

    fn msolve_steps(&self) -> usize {
        self.m.steps_per_apply()
    }

    fn spmv(&mut self, live: &[bool; W], faults: &[Option<IterationFault>; W]) -> [f64; W] {
        self.k.mul_block_into(self.p, self.t, live, self.scratch);
        inject::<W>(self.t, faults);
        vecops::dot_block::<W>(self.p, self.t)
    }

    fn update(&mut self, alpha: &[f64; W], live: &[bool; W]) -> [FusedUpdateNorms; W] {
        let mut u_cols = self.u.chunks_exact_mut(self.res.len());
        let u_cols = std::array::from_fn(|j| u_cols.next().filter(|_| live[j]));
        vecops::fused_axpy_axpy_norm_block::<W>(alpha, self.p, self.t, u_cols, self.r)
    }

    fn residual_norms(&mut self, r_max: &[f64; W]) -> [f64; W] {
        vecops::norm2_with_max_block::<W>(self.r, r_max)
    }

    fn msolve(
        &mut self,
        cols: &[bool; W],
        restart: bool,
        faults: &[Option<IterationFault>; W],
    ) -> [f64; W] {
        self.m.apply_block(self.r, self.t, cols, self.scratch);
        inject::<W>(self.t, faults);
        let rz = vecops::dot_block::<W>(self.t, self.r);
        for j in (0..W).filter(|&j| restart && cols[j]) {
            set_column::<W>(self.p, j, self.t.chunks_exact(W).map(|row| row[j]));
        }
        rz
    }

    fn xpby(&mut self, beta: &[f64; W]) {
        vecops::xpby_block::<W>(self.t, beta, self.p);
    }

    fn true_residual(&mut self, j: usize, to: TrueResidual) -> f64 {
        let col = self.col(j);
        vecops::copy(&self.f[col.clone()], self.res);
        self.k.mul_vec_axpy(-1.0, &self.u[col], self.res);
        match to {
            TrueResidual::Restart => {
                set_column::<W>(self.r, j, self.res.iter().copied());
                0.0
            }
            TrueResidual::Audit => self
                .res
                .iter()
                .zip(self.r.chunks_exact(W).map(|row| row[j]))
                .map(|(t, ri)| {
                    let d = t - ri;
                    d * d
                })
                .sum(),
            TrueResidual::Norm => vecops::norm2(self.res),
        }
    }

    /// From here on the kernels carry exact zeros in the column's slots.
    fn retire(&mut self, j: usize) {
        for v in [&mut *self.r, &mut *self.p, &mut *self.t] {
            set_column::<W>(v, j, std::iter::repeat(0.0));
        }
    }

    fn zero_iterate(&mut self, j: usize) {
        let col = self.col(j);
        vecops::zero(&mut self.u[col]);
    }
}

/// Where a column of a lockstep block stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Its `r`, `r̂`, `p` and `(r̂, r)` are to be (re-)derived from its
    /// iterate before the block's next SpMV.
    Restart,
    /// Iterating with the block.
    Live,
    /// Left the block with its result.
    Done,
}

/// One column's state in a lockstep block: the scalars and counters of its
/// own solve.
struct Column {
    phase: Phase,
    stats: PcgStats,
    audit: AuditPlan,
    f_norm: f64,
    /// `(r̂, r)` of the current iterate.
    rz: f64,
    /// The last measured ‖Δu‖∞.
    change: f64,
    /// Iterations whose step was taken: the column's next iteration is
    /// `completed + 1`, and it has budget left while `completed` is below
    /// the iteration budget.
    completed: usize,
    /// The iteration of its last restart (0 before any): audits fall due
    /// counted from here ([`audit_due`]), so an audit-triggered restart
    /// strictly advances and the restarts terminate on the budget alone.
    start: usize,
    /// Its result, once it left the block.
    result: Option<Result<PcgReport, SparseError>>,
}

impl Column {
    /// Restart in place from the iterate after `completed` iterations.
    fn restart(&mut self) {
        self.start = self.completed;
        self.phase = Phase::Restart;
    }

    /// Count one msolve and the `(r̂, r)` reduction that follows it.
    fn count_msolve(&mut self, steps: usize) {
        self.stats.precond_applications += 1;
        self.stats.precond_steps += steps;
        self.stats.inner_products += 1;
        self.stats.reduction_phases += 1;
    }

    /// `f − K·u` of column `j`, counted: one SpMV.
    fn true_residual<const W: usize>(
        &mut self,
        exec: &mut impl Executor<W>,
        j: usize,
        to: TrueResidual,
    ) -> f64 {
        self.stats.spmv += 1;
        exec.true_residual(j, to)
    }

    /// Its report after `completed` iterations, the last step `change`.
    fn report(&self, converged: bool, final_relative_residual: f64) -> PcgReport {
        PcgReport {
            iterations: self.completed,
            converged,
            final_change: self.change,
            final_relative_residual,
            stats: self.stats,
        }
    }

    /// The report of a column that stops without its stopping test firing
    /// — its budget ran out, or `(r̂, r) = 0` — with the TRUE residual
    /// `f − K·u` of the exit iterate (the recursively updated in-loop `r`
    /// drifts from it over many iterations, so its norm would overstate —
    /// or understate — how close the returned iterate is).
    fn exit_report<const W: usize>(
        &mut self,
        exec: &mut impl Executor<W>,
        j: usize,
        converged: bool,
    ) -> PcgReport {
        let norm = self.true_residual(exec, j, TrueResidual::Norm);
        self.report(converged, norm / self.f_norm.max(1e-300))
    }

    /// Take column `j` out of the block with its final result.
    fn retire<const W: usize>(
        &mut self,
        exec: &mut impl Executor<W>,
        j: usize,
        result: Result<PcgReport, SparseError>,
    ) {
        self.phase = Phase::Done;
        self.result = Some(result);
        exec.retire(j);
    }

    /// A non-finite scalar of column `j` in `phase` of `iteration`:
    /// counted, then an in-place restart while the column's replacement
    /// budget lasts, and the typed error once it is spent.
    fn fault<const W: usize>(
        &mut self,
        exec: &mut impl Executor<W>,
        j: usize,
        phase: &'static str,
        iteration: usize,
    ) {
        self.stats.faults_detected += 1;
        if self.stats.replacements < self.audit.max_replacements {
            self.stats.replacements += 1;
            self.restart();
        } else {
            self.retire(exec, j, Err(SparseError::NonFinite { phase, iteration }));
        }
    }
}

/// Perturb, for each `faults[j]`, its element of column `j` of the fresh
/// interleaved `W`-column block output `v`.
fn inject<const W: usize>(v: &mut [f64], faults: &[Option<IterationFault>; W]) {
    for (j, fault) in faults.iter().enumerate() {
        if let Some(f) = fault.filter(|f| f.index < v.len() / W) {
            let x = &mut v[f.index * W + j];
            *x = perturb(*x, f.kind);
        }
    }
}

/// Write `values` into column `j` of the interleaved `W`-column block `v`.
fn set_column<const W: usize>(v: &mut [f64], j: usize, values: impl IntoIterator<Item = f64>) {
    for (row, x) in v.chunks_exact_mut(W).zip(values) {
        row[j] = x;
    }
}

/// Which columns are in `phase`: the mask a block kernel takes.
fn mask<const W: usize>(cols: &[Column; W], phase: Phase) -> [bool; W] {
    cols.each_ref().map(|c| c.phase == phase)
}

/// Algorithm 1 on the `W` right-hand sides of one block in lockstep, on
/// `exec`; the result of each column is returned in order. Every column
/// runs the statements of its standalone solve — the width-1 block — in
/// its order, on its own scalars; the block only shares the passes over
/// the rows. Every branch reads only the replicated scalars the
/// executor's phases return, so every participant of an executor runs
/// the same schedule of phases.
///
/// Column `j` is right-hand side `first + j` of `plan`: before each SpMV
/// and msolve the loop looks up the faults due on its columns
/// ([`FaultPlan::fire`]) and hands them to that call.
pub fn lockstep<E: Executor<W>, const W: usize>(
    exec: &mut E,
    opts: &PcgOptions,
    plan: &FaultPlan,
    first: usize,
) -> [Result<PcgReport, SparseError>; W] {
    // The faults due on the columns of `mask` at their `target` call: the
    // `K·p` of iteration `completed + 1`, or the `r̂` after `completed`
    // iterations.
    let mut fired = vec![false; plan.faults.len()];
    let mut due = |target, cols: &[Column; W], mask: &[bool; W]| {
        if plan.faults.is_empty() {
            return [None; W];
        }
        std::array::from_fn(|j| {
            if !mask[j] {
                return None;
            }
            let iteration = cols[j].completed + usize::from(target == FaultTarget::Spmv);
            plan.fire(first + j, target, iteration, &mut fired)
        })
    };
    let steps = exec.msolve_steps();
    let displacement = opts.criterion == StoppingCriterion::DisplacementChange;
    let f_norms = exec.rhs_norms();
    let mut cols: [Column; W] = f_norms.map(|f_norm| Column {
        phase: Phase::Restart,
        stats: PcgStats::default(),
        audit: AuditPlan::new(&opts.recovery, opts.tol, f_norm),
        f_norm,
        rz: 0.0,
        change: f64::INFINITY,
        completed: 0,
        start: 0,
        result: None,
    });

    // A zero right-hand side is solved by u = 0: for SPD `K`, `K u = 0`
    // has exactly the zero solution.
    for (j, c) in cols.iter_mut().enumerate() {
        if c.f_norm == 0.0 {
            exec.zero_iterate(j);
            c.change = 0.0;
            c.retire(exec, j, Ok(c.report(true, 0.0)));
        }
    }

    loop {
        // Residual audits, at the top of each live column's iteration
        // `completed + 1`: the recurrence residual against the true one.
        // Skipped once the replacement budget is spent — an audit that
        // cannot act would only burn an SpMV.
        for (j, c) in cols.iter_mut().enumerate() {
            let due = c.phase == Phase::Live
                && c.completed < opts.max_iterations
                && c.audit.enabled
                && audit_due(c.completed + 1, c.start, c.audit.period)
                && c.stats.replacements < c.audit.max_replacements;
            if due {
                c.stats.audits += 1;
                let dev2 = c.true_residual(exec, j, TrueResidual::Audit);
                if diverged(dev2, c.audit.bound2) {
                    c.stats.replacements += 1;
                    c.restart();
                }
            }
        }

        // (Re-)derive r = f − K·u, r̂ = M⁻¹r, p ← r̂ and (r̂, r) for the
        // restarting columns, again for one whose own msolve went
        // non-finite while its budget lasts.
        loop {
            let restart = mask(&cols, Phase::Restart);
            if !restart.contains(&true) {
                break;
            }
            for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| restart[*j]) {
                c.true_residual(exec, j, TrueResidual::Restart);
            }
            let rz = exec.msolve(&restart, true, &due(FaultTarget::Msolve, &cols, &restart));
            for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| restart[*j]) {
                c.count_msolve(steps);
                c.rz = rz[j];
                if !rz[j].is_finite() {
                    c.fault(exec, j, "msolve-reduction", c.start);
                } else if rz[j] < 0.0 {
                    let e = SparseError::NotPositiveDefinite {
                        pivot: c.start,
                        value: rz[j],
                    };
                    c.retire(exec, j, Err(e));
                } else {
                    c.phase = Phase::Live;
                }
            }
        }

        // No budget left at the loop top — a budget of 0, or a restart at
        // the last iteration: the exit with the true residual. The `change
        // < tol` arm is meaningful only for the displacement test — under
        // the relative residual a sub-tolerance step says nothing about the
        // residual the caller asked to bound.
        for (j, c) in cols.iter_mut().enumerate() {
            if c.phase == Phase::Live && c.completed >= opts.max_iterations {
                let converged = c.rz == 0.0 || (displacement && c.change < opts.tol);
                let report = c.exit_report(exec, j, converged);
                c.retire(exec, j, Ok(report));
            }
        }
        let live = mask(&cols, Phase::Live);
        if !live.contains(&true) {
            break;
        }

        // t = K·p, α = (r̂, r) / (p, K·p).
        let denom = exec.spmv(&live, &due(FaultTarget::Spmv, &cols, &live));
        let mut alpha = [0.0; W];
        for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| live[*j]) {
            c.stats.spmv += 1;
            c.stats.inner_products += 1;
            c.stats.reduction_phases += 1;
            let iter = c.completed + 1;
            if !denom[j].is_finite() {
                // Checked before the sign guard: NaN fails `<= 0.0` and
                // would otherwise flow into α. The iterate has not moved
                // this iteration: the column restarts from it and repeats
                // the iteration one block step later.
                c.fault(exec, j, "spmv-reduction", iter);
            } else if denom[j] <= 0.0 {
                let result = if c.rz == 0.0 {
                    // Exact convergence in fewer than n steps.
                    Ok(c.exit_report(exec, j, true))
                } else {
                    Err(SparseError::NotPositiveDefinite {
                        pivot: iter,
                        value: denom[j],
                    })
                };
                c.retire(exec, j, result);
            } else {
                c.completed = iter;
                alpha[j] = c.rz / denom[j];
            }
        }
        let live = mask(&cols, Phase::Live);
        if !live.contains(&true) {
            continue;
        }

        // u += α·p, r −= α·Kp, and the ‖p‖∞ / ‖r‖∞ partials, in one pass;
        // ‖u^{k+1} − uᵏ‖∞ = |α|·‖p‖∞.
        let norms = exec.update(&alpha, &live);
        for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| live[*j]) {
            c.change = alpha[j].abs() * norms[j].p_norm_inf;
            if !norms[j].all_finite() {
                // An Inf slipped past the finite dot: `r` is poisoned but
                // `u` moved by a validated α along a finite `p`, so the
                // restart's `r = f − K·u` recovers. (A NaN in `r` hides
                // from the max-based norm and is caught one step later by
                // the msolve-reduction scalar.)
                c.fault(exec, j, "update", c.completed);
            }
        }

        // The stopping tests; the relative residuals of the whole block in
        // one pass, when the criterion or a converging column needs them.
        // A column that misses its test on its last budgeted iteration
        // exits here, before an msolve its iterate would never use, with
        // the true residual; a recurrence residual of exactly zero is
        // still exact convergence (`(r̂, r) = 0` for an SPD `M`).
        let live = mask(&cols, Phase::Live);
        let needs_residual = !displacement || (0..W).any(|j| live[j] && cols[j].change < opts.tol);
        let rel = if needs_residual {
            exec.residual_norms(&norms.map(|nj| nj.r_norm_inf))
        } else {
            [0.0; W]
        };
        for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| live[*j]) {
            let final_rel = rel[j] / c.f_norm.max(1e-300);
            let crit = if displacement {
                c.change
            } else {
                c.stats.inner_products += 1;
                final_rel
            };
            if crit < opts.tol {
                c.retire(exec, j, Ok(c.report(true, final_rel)));
            } else if c.completed >= opts.max_iterations {
                let report = c.exit_report(exec, j, norms[j].r_norm_inf == 0.0);
                c.retire(exec, j, Ok(report));
            }
        }
        let live = mask(&cols, Phase::Live);
        if !live.contains(&true) {
            continue;
        }

        // r̂ = M⁻¹r, β = (r̂, r)_new / (r̂, r)_old, p ← r̂ + β·p.
        let rz_new = exec.msolve(&live, false, &due(FaultTarget::Msolve, &cols, &live));
        let mut beta = [0.0; W];
        for (j, c) in cols.iter_mut().enumerate().filter(|(j, _)| live[*j]) {
            c.count_msolve(steps);
            if !rz_new[j].is_finite() {
                // NaN/Inf out of the preconditioner (or a NaN residual the
                // max-norm swallowed above): detected on the scalar before
                // β is formed, while `u` is still finite.
                c.fault(exec, j, "msolve-reduction", c.completed);
            } else if rz_new[j] < 0.0 {
                let e = SparseError::NotPositiveDefinite {
                    pivot: c.completed,
                    value: rz_new[j],
                };
                c.retire(exec, j, Err(e));
            } else {
                beta[j] = rz_new[j] / c.rz.max(1e-300);
                c.rz = rz_new[j];
            }
        }
        exec.xpby(&beta);
    }
    cols.map(|c| {
        c.result
            .expect("every column leaves its block with a result")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::MStepSsorPreconditioner;
    use crate::pcg::pcg_solve_into;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CsrMatrix;
    use mspcg_sparse::{CooMatrix, Partition};

    fn rb_laplacian(n: usize) -> (CsrMatrix, Partition) {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = a.to_csr();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
        (ord.permute_matrix(&a).unwrap(), ord.partition)
    }

    fn batch_rhs(n: usize, nrhs: usize) -> Vec<f64> {
        (0..nrhs * n)
            .map(|i| ((i * 13 + 7) % 29) as f64 * 0.1 - 1.2)
            .collect()
    }

    #[test]
    fn batch_matches_individual_solves_bitwise() {
        let (a, p) = rb_laplacian(96);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let opts = PcgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let nrhs = 7;
        let f = batch_rhs(96, nrhs);
        let mut u = vec![0.0; nrhs * 96];
        let mut ws = MultiRhsWorkspace::new(96, nrhs);
        let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(summary.solved, nrhs);
        assert_eq!(summary.converged, nrhs);

        let mut single_ws = PcgWorkspace::new(96);
        for i in 0..nrhs {
            let mut ui = vec![0.0; 96];
            let rep = pcg_solve_into(
                &a,
                &f[i * 96..(i + 1) * 96],
                &mut ui,
                &pre,
                &opts,
                &mut single_ws,
            )
            .unwrap();
            assert_eq!(
                u[i * 96..(i + 1) * 96]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                ui.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "RHS {i} differs from standalone solve"
            );
            assert_eq!(ws.outcomes()[i].report.iterations, rep.iterations);
        }
    }

    #[test]
    fn warm_starts_are_honored_per_rhs() {
        let (a, p) = rb_laplacian(32);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let x_true: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let f0 = a.mul_vec(&x_true);
        let mut f = f0.clone();
        f.extend_from_slice(&f0);
        // RHS 0 starts at the solution, RHS 1 from zero.
        let mut u = x_true.clone();
        u.extend(std::iter::repeat_n(0.0, 32));
        let mut ws = MultiRhsWorkspace::new(32, 2);
        pcg_solve_multi(&a, &f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert!(ws.outcomes()[0].report.iterations <= 1);
        assert!(ws.outcomes()[1].report.iterations > 1);
    }

    #[test]
    fn budget_exhaustion_is_per_rhs_data_not_batch_error() {
        let (a, p) = rb_laplacian(64);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let opts = PcgOptions {
            tol: 1e-14,
            max_iterations: 1,
            ..Default::default()
        };
        let f = batch_rhs(64, 3);
        let mut u = vec![0.0; 3 * 64];
        let mut ws = MultiRhsWorkspace::new(64, 3);
        let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(summary.converged, 0);
        for o in ws.outcomes() {
            assert_eq!(o.status, SolveStatus::BudgetExhausted);
            assert!(o.report.final_relative_residual.is_finite());
            assert!(o.report.final_relative_residual > 0.0);
        }
    }

    #[test]
    fn empty_batch_and_empty_matrix() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 0);
        let sum = pcg_solve_multi(&a, &[], &mut [], &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert_eq!(sum.solved, 0);
        assert!(ws.outcomes().is_empty());
    }

    #[test]
    fn shape_violations_are_rejected() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 2);
        // Not a multiple of n.
        let err = pcg_solve_multi(
            &a,
            &[1.0; 17],
            &mut [0.0; 17],
            &pre,
            &PcgOptions::default(),
            &mut ws,
        );
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
        // u shorter than f.
        let err = pcg_solve_multi(
            &a,
            &vec![1.0; 32],
            &mut [0.0; 16],
            &pre,
            &PcgOptions::default(),
            &mut ws,
        );
        assert!(matches!(err, Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_rhs_columns_come_back_zero() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut f = batch_rhs(16, 3);
        f[16..32].fill(0.0); // middle RHS is b = 0
        let mut u = vec![0.7; 3 * 16]; // poisoned initial guesses
        let mut ws = MultiRhsWorkspace::new(16, 3);
        let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap();
        assert_eq!(sum.converged, 3);
        assert!(u[16..32].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn poisoned_batch_inputs_are_rejected_up_front() {
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let mut ws = MultiRhsWorkspace::new(16, 2);
        let f = batch_rhs(16, 2);
        let mut u = vec![0.0; 2 * 16];

        let mut bad_f = f.clone();
        bad_f[20] = f64::NAN;
        let err =
            pcg_solve_multi(&a, &bad_f, &mut u, &pre, &PcgOptions::default(), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NonFinite {
                phase: "rhs",
                iteration: 0
            }
        ));

        let mut bad_u = vec![0.0; 2 * 16];
        bad_u[3] = f64::INFINITY;
        let err =
            pcg_solve_multi(&a, &f, &mut bad_u, &pre, &PcgOptions::default(), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NonFinite {
                phase: "initial-guess",
                iteration: 0
            }
        ));

        for tol in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let opts = PcgOptions {
                tol,
                ..Default::default()
            };
            let err = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap_err();
            assert!(matches!(err, SparseError::InvalidTolerance { .. }));
        }
    }

    #[test]
    fn in_place_recovery_surfaces_as_replaced_status() {
        use crate::pcg::StoppingCriterion;
        use crate::preconditioner::IdentityPreconditioner;
        use crate::recovery::FaultKind;

        let (a, _p) = rb_laplacian(32);
        let f = batch_rhs(32, 1);
        let mut u = vec![0.0; 32];
        let pre = IdentityPreconditioner::new(32);
        let plan = FaultPlan::new(vec![IterationFault {
            rhs: 0,
            target: FaultTarget::Msolve,
            iteration: 2,
            index: 5,
            kind: FaultKind::NaN,
        }]);
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let mut ws = MultiRhsWorkspace::new(32, 1);
        let sum = pcg_solve_multi_with_faults(&a, &f, &mut u, &pre, &opts, &mut ws, &plan).unwrap();
        let out = &ws.outcomes()[0];
        // The solve recovers in place: one replacement.
        assert_eq!(out.status, SolveStatus::Replaced);
        assert!(out.status.is_converged());
        assert_eq!(out.report.stats.replacements, 1);
        assert_eq!(out.report.stats.fallbacks, 0);
        assert_eq!(out.report.stats.faults_detected, 1);
        assert_eq!(sum.converged, 1);
        assert_eq!(sum.rescued, 1);
    }

    /// A planned fault perturbs one element of its column's fresh output —
    /// a restart's `p ← r̂` copy included — before the phase's reduction,
    /// and nothing else.
    #[test]
    fn planned_faults_perturb_one_element_of_their_column() {
        use crate::recovery::FaultKind;
        let (a, p) = rb_laplacian(16);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
        let f = batch_rhs(16, 2);
        let mut u = vec![0.0; 32];
        let mut lane = PcgWorkspace::new(16);
        lane.prepare(16, 2, block_scratch_len(&pre, 2));
        let mut block = PoolBlock::<_, _, 2>::new(&a, &pre, &f, &mut u, &mut lane);
        let fault = |target, index, kind| IterationFault {
            rhs: 0,
            target,
            iteration: 0,
            index,
            kind,
        };
        let changed = |clean: &[f64], got: &[f64]| -> Vec<usize> {
            let bits = |v: f64| v.to_bits();
            (0..clean.len())
                .filter(|&e| bits(clean[e]) != bits(got[e]))
                .collect()
        };
        for j in 0..2 {
            block.true_residual(j, TrueResidual::Restart);
        }

        let rz = block.msolve(&[true; 2], true, &[None; 2]);
        let z = block.t.to_vec();
        let noise = fault(FaultTarget::Msolve, 4, FaultKind::ScaledNoise(1.0));
        let rz_hit = block.msolve(&[true; 2], true, &[None, Some(noise)]);
        // Element 4 of column 1, at `4·W + 1`, in `r̂` and in `p`.
        assert_eq!(changed(&z, block.t), [9]);
        assert_eq!(changed(&z, block.p), [9]);
        assert_eq!(rz_hit[0].to_bits(), rz[0].to_bits());
        assert_ne!(rz_hit[1].to_bits(), rz[1].to_bits());

        block.msolve(&[true; 2], true, &[None; 2]);
        let pkp = block.spmv(&[true; 2], &[None; 2]);
        let kp = block.t.to_vec();
        let nan = fault(FaultTarget::Spmv, 3, FaultKind::NaN);
        let past_the_end = fault(FaultTarget::Spmv, 16, FaultKind::NaN);
        let pkp_hit = block.spmv(&[true; 2], &[Some(nan), Some(past_the_end)]);
        assert_eq!(changed(&kp, block.t), [6]);
        assert!(pkp_hit[0].is_nan());
        assert_eq!(pkp_hit[1].to_bits(), pkp[1].to_bits());
    }
}
