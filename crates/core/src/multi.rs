//! Batched multi-RHS PCG: many load cases against one stiffness matrix.
//!
//! The FEM workloads the paper targets rarely solve one system — a plate
//! is analysed under many load cases, all sharing the stiffness matrix
//! `K` and therefore the multicolor ordering, the SSOR splitting tables
//! and the preconditioner coefficients. [`pcg_solve_multi`] solves a
//! whole batch against one `K` and one shared preconditioner:
//!
//! * **Two parallel regimes** — a *large* matrix (at or above
//!   [`tuning::par_min_nnz`] stored entries) keeps the right-hand sides
//!   sequential and lets every kernel inside the solve fan out across the
//!   worker pool (kernel-level parallelism), one standalone
//!   [`pcg_try_solve_into`] after another; a *small* matrix gives each
//!   worker a contiguous range of right-hand sides (RHS-level
//!   parallelism), whose nested kernel launches run inline.
//! * **Lockstep blocks** — in the RHS-level regime a lane solves its range
//!   in blocks of up to [`BLOCK_WIDTH`] right-hand sides. A block stores
//!   its residuals, directions and `K·p` / `M⁻¹r` interleaved, `n × w`
//!   (column `j` of row `i` at `i·w + j`), and its columns run Algorithm 1
//!   in lockstep: one SpMV ([`SparseOp::mul_block_into`]), one msolve
//!   ([`Preconditioner::apply_block`]) and one pass of each vector kernel
//!   per iteration serve every column, so each stored value, column index,
//!   row pointer and `1/a_ii` is loaded once per block instead of once per
//!   case, and the `w` row sums are independent dependency chains.
//!   *Per column* are α, β, the stopping test, the iteration count and
//!   [`PcgStats`]; *shared* are the matrix, the preconditioner and the
//!   sweep of the rows. A column leaves the block when it converges, when
//!   an inner product shows an indefinite operator, when its budget runs
//!   out (all three recorded exactly as [`pcg_try_solve_into`] records
//!   them, the budget exit with the true residual), and when a scalar goes
//!   non-finite or its residual audit diverges: such a column finishes on
//!   the lane's standalone workspace through the classic loop's restart,
//!   from its current iterate and counters, so recovery lives in one
//!   place. Its slots of the block then carry zeros; its iterate, written
//!   straight into the caller's column, is not touched again.
//! * **Width 1 is the plain kernel** — the block kernels are the
//!   solver's kernels made generic over the column count (the CSR gather,
//!   `SweepTable::sweep`, the `vecops` updates and reductions in their
//!   chunk order), so every column of a block is computed by bitwise the
//!   arithmetic of its standalone solve. Operators and preconditioners
//!   without a block kernel take the traits' default, one column after
//!   another through `mul_vec_into` / `apply_with`.
//! * **Shared system, per-lane scratch** — the matrix and preconditioner
//!   are borrowed immutably by every lane; each lane owns its block, the
//!   block kernels' scratch (the interleaved SSOR half-sum cache) and a
//!   [`PcgWorkspace`], so concurrent lanes never serialize on a lock.
//! * **Zero per-solve allocation** — after the workspace is warm, a batch
//!   call performs no heap allocation (`tests/alloc_free_hot_loop.rs`
//!   extends the counting-allocator proof to 32 right-hand sides).
//! * **Determinism** — every right-hand side is solved by the same
//!   chunk-deterministic arithmetic, so each solution, iteration count,
//!   [`PcgStats`] and [`SolveStatus`] is bitwise that of its standalone
//!   [`crate::pcg::pcg_solve_into`] run, for any thread count and either
//!   parallel regime. `record_history` records nothing for a batch.
//!
//! Budget exhaustion on one right-hand side is recorded in that RHS's
//! [`RhsOutcome`] (with the *true* recomputed final residual) instead of
//! aborting the batch — see [`crate::pcg::pcg_try_solve_into`]. So is
//! recovery: a right-hand side whose solve restarted in place from its
//! iterate (an audit replacement or a non-finite recovery, see
//! [`crate::recovery`]) reports [`SolveStatus::Replaced`], and one whose
//! replacement budget ran out reports [`SolveStatus::Breakdown`].
//!
//! A probe of the block path: `cargo run --release --example
//! multi_load_cases` prints every case's iteration count and residual,
//! byte for byte alike at any `MSPCG_THREADS`, and the `multi_rhs` bench
//! asserts in-run that every batch column equals its sequential solve.

use crate::pcg::{
    audit_deviation2, classic_loop, exit_report, nonfinite_flow, pcg_try_solve_into,
    validate_inputs, ClassicFlow, PcgOptions, PcgReport, PcgStats, PcgWorkspace, StoppingCriterion,
};
use crate::preconditioner::{block_scratch_len, Preconditioner};
use crate::recovery::{audit_due, diverged, AuditPlan};
use mspcg_sparse::{par, tuning, vecops, SparseError, SparseOp};
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
#[derive(Debug, Clone, Copy)]
pub struct RhsOutcome {
    /// Outcome class.
    pub status: SolveStatus,
    /// Full per-solve report (for [`SolveStatus::Breakdown`] only the
    /// iteration count is meaningful).
    pub report: PcgReport,
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
        }
    }

    /// The outcome of one solve's result, classified as
    /// [`pcg_try_solve_into`] reports it.
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

/// Reusable storage for batched solves: one lane per parallel worker
/// (its lockstep block and a [`PcgWorkspace`]) plus the per-RHS outcome
/// table. Like `PcgWorkspace`, an undersized instance is grown on entry
/// (that path allocates once); after that, batch calls are allocation
/// free.
#[derive(Debug)]
pub struct MultiRhsWorkspace {
    lanes: Vec<Lane>,
    outcomes: Vec<RhsOutcome>,
    n: usize,
}

/// One lane's storage: the lockstep block — residuals `r`, directions `p`
/// and `t`, which holds `K·p` and then `M⁻¹r` (never live together), each
/// `n × w` interleaved, and the block kernels' scratch — and the
/// standalone workspace a column finishes on when it leaves its block (the
/// kernel-level regime's solves use it too).
#[derive(Debug)]
struct Lane {
    r: Vec<f64>,
    p: Vec<f64>,
    t: Vec<f64>,
    scratch: Vec<f64>,
    ws: PcgWorkspace,
}

impl Lane {
    fn new(n: usize) -> Self {
        Lane {
            r: Vec::new(),
            p: Vec::new(),
            t: Vec::new(),
            scratch: Vec::new(),
            ws: PcgWorkspace::new(n),
        }
    }

    /// Grow the block to `len` values per vector and the scratch to
    /// `scratch` values (never shrinks, so a warm lane does not allocate).
    fn reserve_block(&mut self, len: usize, scratch: usize) {
        for v in [&mut self.r, &mut self.p, &mut self.t] {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        }
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
    }
}

impl MultiRhsWorkspace {
    /// Workspace for batches of up to `nrhs` right-hand sides of dimension
    /// `n`. Starts with a single lane and no block — the kernel-level
    /// regime (large matrices) needs neither more lanes nor a block, so
    /// eagerly sizing for the pool's full capacity would hold dead storage
    /// for the lifetime of the batch. The first (warm-up)
    /// [`pcg_solve_multi`] call grows the lanes to whatever its regime
    /// requires; calls after it are allocation free.
    pub fn new(n: usize, nrhs: usize) -> Self {
        MultiRhsWorkspace {
            lanes: vec![Lane::new(n)],
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

    fn ensure(&mut self, n: usize, nrhs: usize, lanes: usize) {
        if self.n != n {
            self.n = n;
            for lane in &mut self.lanes {
                lane.ws.resize(n);
            }
        }
        while self.lanes.len() < lanes {
            self.lanes.push(Lane::new(n));
        }
        self.outcomes.resize(nrhs, RhsOutcome::placeholder());
    }
}

/// Shared-pointer bundle for the RHS-parallel path: lane `l` exclusively
/// owns `lanes[l]`, the outcome slots and solution columns of its RHS
/// range. Exactly the `SharedVec`/`ParSlice` discipline, generalized to
/// the batch tables.
struct BatchPtrs {
    lanes: *mut Lane,
    outcomes: *mut RhsOutcome,
    u: *mut f64,
}

// SAFETY: all access goes through disjoint lane-indexed ranges inside one
// `for_each_chunk` region (each lane index is claimed exactly once), and
// the region's completion barrier separates it from subsequent reads.
unsafe impl Sync for BatchPtrs {}
unsafe impl Send for BatchPtrs {}

impl BatchPtrs {
    /// Exclusive access to lane `l`.
    ///
    /// # Safety
    /// Lane `l` must be claimed by at most one chunk per parallel region.
    unsafe fn lane<'a>(&self, l: usize) -> &'a mut Lane {
        unsafe { &mut *self.lanes.add(l) }
    }

    /// Exclusive access to the solution values `range`.
    ///
    /// # Safety
    /// `range` must lie in the columns of the claiming lane's RHS range.
    unsafe fn u<'a>(&self, range: Range<usize>) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.u.add(range.start), range.len()) }
    }

    /// Exclusive access to the outcome slots `range`.
    ///
    /// # Safety
    /// `range` must lie in the claiming lane's RHS range.
    unsafe fn outcomes<'a>(&self, range: Range<usize>) -> &'a mut [RhsOutcome] {
        unsafe { std::slice::from_raw_parts_mut(self.outcomes.add(range.start), range.len()) }
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
    if n == 0 {
        ws.ensure(0, 0, 1);
        return Ok(MultiRhsSummary::default());
    }
    if !f.len().is_multiple_of(n) {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (f.len(), u.len()),
        });
    }
    let nrhs = f.len() / n;

    // Regime selection: a matrix whose kernels would fan out across the
    // pool keeps the batch sequential (kernel-level parallelism); below
    // that threshold a whole solve is far cheaper than a pool launch per
    // kernel, so distinct right-hand sides become the unit of parallel
    // work instead.
    if k.nnz() >= tuning::par_min_nnz() {
        ws.ensure(n, nrhs, 1);
        let lane = &mut ws.lanes[0].ws;
        for ((fi, ui), out) in f.chunks(n).zip(u.chunks_mut(n)).zip(&mut ws.outcomes) {
            *out = RhsOutcome::of(pcg_try_solve_into(k, fi, ui, m, opts, lane));
        }
    } else {
        let lanes = par::max_threads().min(nrhs).max(1);
        ws.ensure(n, nrhs, lanes);
        // Contiguous RHS ranges per lane (balanced to within one), each
        // solved in blocks of up to `BLOCK_WIDTH`.
        let (base, extra) = (nrhs / lanes, nrhs % lanes);
        let lane_range = |l: usize| {
            let start = l * base + l.min(extra);
            start..start + base + usize::from(l < extra)
        };
        let width = lane_range(0).len().min(BLOCK_WIDTH);
        for lane in &mut ws.lanes[..lanes] {
            lane.reserve_block(width * n, block_scratch_len(m, width));
            lane.ws
                .prepare(n, m.scratch_len(), opts.recovery.replacement);
        }
        let ptrs = BatchPtrs {
            lanes: ws.lanes.as_mut_ptr(),
            outcomes: ws.outcomes.as_mut_ptr(),
            u: u.as_mut_ptr(),
        };
        par::for_each_chunk(lanes, lanes, &|l| {
            // SAFETY: lane index `l` is claimed exactly once per region;
            // `lane_range(l)` ranges are pairwise disjoint, so lane `l`,
            // the outcome slots and the `u` columns of this range have
            // exactly one writer, and nothing reads them until the
            // region's completion barrier.
            let lane = unsafe { ptrs.lane(l) };
            let range = lane_range(l);
            let mut first = range.start;
            while first < range.end {
                let cols = first..(first + BLOCK_WIDTH).min(range.end);
                let (ub, out) = unsafe {
                    (
                        ptrs.u(cols.start * n..cols.end * n),
                        ptrs.outcomes(cols.clone()),
                    )
                };
                solve_block(k, &f[cols.start * n..cols.end * n], ub, m, opts, lane, out);
                first = cols.end;
            }
        });
    }

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

/// [`lockstep`] at the block's width, `out.len()` columns.
fn solve_block<A: SparseOp, P: Preconditioner>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &P,
    opts: &PcgOptions,
    lane: &mut Lane,
    out: &mut [RhsOutcome],
) {
    const _: () = assert!(BLOCK_WIDTH == 8, "one arm per block width");
    match out.len() {
        1 => lockstep::<A, P, 1>(k, f, u, m, opts, lane, out),
        2 => lockstep::<A, P, 2>(k, f, u, m, opts, lane, out),
        3 => lockstep::<A, P, 3>(k, f, u, m, opts, lane, out),
        4 => lockstep::<A, P, 4>(k, f, u, m, opts, lane, out),
        5 => lockstep::<A, P, 5>(k, f, u, m, opts, lane, out),
        6 => lockstep::<A, P, 6>(k, f, u, m, opts, lane, out),
        7 => lockstep::<A, P, 7>(k, f, u, m, opts, lane, out),
        8 => lockstep::<A, P, 8>(k, f, u, m, opts, lane, out),
        w => unreachable!("block of {w} columns"),
    }
}

/// One column's state in a lockstep block: the locals a standalone
/// `classic_pass` keeps for its solve.
struct Column {
    stats: PcgStats,
    audit: AuditPlan,
    f_norm: f64,
    /// `(r̂, r)` of the current iterate.
    rz: f64,
    /// The last measured ‖Δu‖∞.
    change: f64,
    /// Iterations whose step was taken.
    completed: usize,
}

/// The block's shared state: which columns are still in it, the three
/// interleaved block vectors, and where the outcomes go.
struct Block<'a, const W: usize> {
    active: [bool; W],
    r: &'a mut [f64],
    p: &'a mut [f64],
    t: &'a mut [f64],
    out: &'a mut [RhsOutcome],
}

impl<const W: usize> Block<'_, W> {
    fn any_active(&self) -> bool {
        self.active.contains(&true)
    }

    /// Take column `j` out of the block with its final result, and zero
    /// its slots of the block vectors: from here on the kernels carry
    /// exact zeros for it.
    fn retire(&mut self, j: usize, result: Result<PcgReport, SparseError>) {
        self.out[j] = RhsOutcome::of(result);
        self.active[j] = false;
        for v in [&mut *self.r, &mut *self.p, &mut *self.t] {
            for row in v.chunks_exact_mut(W) {
                row[j] = 0.0;
            }
        }
    }
}

/// Finish a column off its block after `flow`: a restart continues on the
/// lane's standalone workspace through the classic loop, from the iterate
/// in `u` and the column's counters, exactly as the standalone solve
/// restarts; an error is final.
#[allow(clippy::too_many_arguments)]
fn finish_standalone<A: SparseOp>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
    ws: &mut PcgWorkspace,
    c: &mut Column,
    flow: Result<ClassicFlow, SparseError>,
) -> Result<PcgReport, SparseError> {
    match flow? {
        ClassicFlow::Done(report) => Ok(report),
        ClassicFlow::Restart { completed, change } => {
            ws.prepare(f.len(), m.scratch_len(), opts.recovery.replacement);
            let Column {
                stats,
                audit,
                f_norm,
                ..
            } = c;
            classic_loop(
                k, f, u, m, opts, ws, stats, *f_norm, audit, completed, change,
            )
        }
    }
}

/// Algorithm 1 on the `W` right-hand sides of one block in lockstep. `f`
/// and `u` hold the block's columns as the caller stores them (`u` is
/// written in place); `out` receives their outcomes. Every column runs
/// the statements of the standalone `classic_pass`, in its order, on its
/// own scalars; the block only shares the passes over the rows.
fn lockstep<A: SparseOp, P: Preconditioner, const W: usize>(
    k: &A,
    f: &[f64],
    u: &mut [f64],
    m: &P,
    opts: &PcgOptions,
    lane: &mut Lane,
    out: &mut [RhsOutcome],
) {
    let n = k.rows();
    let Lane {
        r,
        p,
        t,
        scratch,
        ws,
    } = lane;
    let scratch = &mut scratch[..block_scratch_len(m, W)];
    let mut b = Block::<W> {
        active: [true; W],
        r: &mut r[..W * n],
        p: &mut p[..W * n],
        t: &mut t[..W * n],
        out,
    };
    let col = |j: usize| j * n..(j + 1) * n;
    let steps = m.steps_per_apply();
    let mut cols: [Column; W] = std::array::from_fn(|j| {
        let f_norm = vecops::norm2(&f[col(j)]);
        Column {
            stats: PcgStats::default(),
            audit: AuditPlan::new(&opts.recovery, opts.tol, f_norm),
            f_norm,
            rz: 0.0,
            change: f64::INFINITY,
            completed: 0,
        }
    });

    // r⁰ = f − K·u⁰ column by column, as the standalone solve forms it; a
    // zero right-hand side is solved by u = 0.
    for (j, c) in cols.iter_mut().enumerate() {
        let uj = &mut u[col(j)];
        if c.f_norm == 0.0 {
            vecops::zero(uj);
            let report = PcgReport {
                iterations: 0,
                converged: true,
                final_change: 0.0,
                final_relative_residual: 0.0,
                stats: c.stats,
            };
            b.retire(j, Ok(report));
            continue;
        }
        let res = ws.residual_mut();
        vecops::copy(&f[col(j)], res);
        k.mul_vec_axpy(-1.0, uj, res);
        c.stats.spmv += 1;
        for (row, &v) in b.r.chunks_exact_mut(W).zip(res.iter()) {
            row[j] = v;
        }
    }
    if !b.any_active() {
        return;
    }

    // r̂⁰ = M⁻¹r⁰, then p⁰ ← r̂⁰ and rz₀ = (r̂⁰, r⁰) in one fused pass.
    m.apply_block(b.r, b.t, &b.active, scratch);
    let rz = vecops::fused_xpby_dot_block::<W>(b.t, 0.0, b.p, b.r);
    for (j, c) in cols.iter_mut().enumerate() {
        if !b.active[j] {
            continue;
        }
        c.stats.precond_applications += 1;
        c.stats.precond_steps += steps;
        c.stats.inner_products += 1;
        c.stats.reduction_phases += 1;
        c.rz = rz[j];
        if !rz[j].is_finite() {
            let flow = nonfinite_flow(&mut c.stats, &c.audit, "msolve-reduction", 0, 0, c.change);
            let res = finish_standalone(k, &f[col(j)], &mut u[col(j)], m, opts, ws, c, flow);
            b.retire(j, res);
        } else if rz[j] < 0.0 {
            b.retire(
                j,
                Err(SparseError::NotPositiveDefinite {
                    pivot: 0,
                    value: rz[j],
                }),
            );
        }
    }

    for iter in 1..=opts.max_iterations {
        // Residual audits: every column still in the block started at
        // iteration 0 and has spent no replacement, so they fall due
        // together.
        for (j, c) in cols.iter_mut().enumerate() {
            let due = b.active[j]
                && c.audit.enabled
                && audit_due(iter, 0, c.audit.period)
                && c.stats.replacements < c.audit.max_replacements;
            if !due {
                continue;
            }
            let (fj, uj) = (&f[col(j)], &mut u[col(j)]);
            let dev2 = audit_deviation2::<_, W>(k, fj, uj, (b.r, j), ws.audit_mut(), &mut c.stats);
            if diverged(dev2, c.audit.bound2) {
                c.stats.replacements += 1;
                let flow = Ok(ClassicFlow::Restart {
                    completed: iter - 1,
                    change: c.change,
                });
                let res = finish_standalone(k, fj, uj, m, opts, ws, c, flow);
                b.retire(j, res);
            }
        }
        if !b.any_active() {
            return;
        }

        k.mul_block_into(b.p, b.t, &b.active, scratch);
        let denom = vecops::dot_block::<W>(b.p, b.t);
        let mut alpha = [0.0; W];
        for (j, c) in cols.iter_mut().enumerate() {
            if !b.active[j] {
                continue;
            }
            c.stats.spmv += 1;
            c.stats.inner_products += 1;
            c.stats.reduction_phases += 1;
            let (fj, uj) = (&f[col(j)], &mut u[col(j)]);
            if !denom[j].is_finite() {
                let flow = nonfinite_flow(
                    &mut c.stats,
                    &c.audit,
                    "spmv-reduction",
                    iter,
                    iter - 1,
                    c.change,
                );
                let res = finish_standalone(k, fj, uj, m, opts, ws, c, flow);
                b.retire(j, res);
            } else if denom[j] <= 0.0 {
                let res = if c.rz == 0.0 {
                    // Exact convergence in fewer than n steps: the
                    // standalone loop's exit, with the true residual.
                    let res = ws.residual_mut();
                    Ok(exit_report(
                        k,
                        fj,
                        uj,
                        res,
                        &mut c.stats,
                        c.f_norm,
                        c.completed,
                        true,
                        c.change,
                    ))
                } else {
                    Err(SparseError::NotPositiveDefinite {
                        pivot: iter,
                        value: denom[j],
                    })
                };
                b.retire(j, res);
            } else {
                c.completed = iter;
                alpha[j] = c.rz / denom[j];
            }
        }
        if !b.any_active() {
            return;
        }

        // u += α·p into the caller's columns, r −= α·Kp, and the ‖p‖∞ /
        // ‖r‖∞ partials, in one pass.
        let mut u_cols: [Option<&mut [f64]>; W] = [const { None }; W];
        for ((slot, uj), &active) in u_cols.iter_mut().zip(u.chunks_exact_mut(n)).zip(&b.active) {
            if active {
                *slot = Some(uj);
            }
        }
        let norms = vecops::fused_axpy_axpy_norm_block::<W>(&alpha, b.p, b.t, u_cols, b.r);
        for (j, c) in cols.iter_mut().enumerate() {
            if !b.active[j] {
                continue;
            }
            c.change = alpha[j].abs() * norms[j].p_norm_inf;
            if !norms[j].all_finite() {
                let flow = nonfinite_flow(&mut c.stats, &c.audit, "update", iter, iter, c.change);
                let res = finish_standalone(k, &f[col(j)], &mut u[col(j)], m, opts, ws, c, flow);
                b.retire(j, res);
            }
        }

        // The stopping tests; the relative residuals of the whole block in
        // one pass, when the criterion or a converging column needs them.
        let displacement = opts.criterion == StoppingCriterion::DisplacementChange;
        let needs_residual =
            !displacement || (0..W).any(|j| b.active[j] && cols[j].change < opts.tol);
        let rel = if needs_residual {
            vecops::norm2_with_max_block::<W>(b.r, &norms.map(|nj| nj.r_norm_inf))
        } else {
            [0.0; W]
        };
        for (j, c) in cols.iter_mut().enumerate() {
            if !b.active[j] {
                continue;
            }
            let final_rel = rel[j] / c.f_norm.max(1e-300);
            let crit = if displacement {
                c.change
            } else {
                c.stats.inner_products += 1;
                final_rel
            };
            if crit < opts.tol {
                let report = PcgReport {
                    iterations: iter,
                    converged: true,
                    final_change: c.change,
                    final_relative_residual: final_rel,
                    stats: c.stats,
                };
                b.retire(j, Ok(report));
            }
        }
        if !b.any_active() {
            return;
        }

        // r̂ = M⁻¹r, β = (r̂, r)_new / (r̂, r)_old, p ← r̂ + β·p.
        m.apply_block(b.r, b.t, &b.active, scratch);
        let rz_new = vecops::dot_block::<W>(b.t, b.r);
        let mut beta = [0.0; W];
        for (j, c) in cols.iter_mut().enumerate() {
            if !b.active[j] {
                continue;
            }
            c.stats.precond_applications += 1;
            c.stats.precond_steps += steps;
            c.stats.inner_products += 1;
            c.stats.reduction_phases += 1;
            if !rz_new[j].is_finite() {
                let flow = nonfinite_flow(
                    &mut c.stats,
                    &c.audit,
                    "msolve-reduction",
                    iter,
                    iter,
                    c.change,
                );
                let res = finish_standalone(k, &f[col(j)], &mut u[col(j)], m, opts, ws, c, flow);
                b.retire(j, res);
            } else if rz_new[j] < 0.0 {
                b.retire(
                    j,
                    Err(SparseError::NotPositiveDefinite {
                        pivot: iter,
                        value: rz_new[j],
                    }),
                );
            } else {
                beta[j] = rz_new[j] / c.rz.max(1e-300);
                c.rz = rz_new[j];
            }
        }
        vecops::xpby_block::<W>(b.t, &beta, b.p);
    }

    // The budget ran out: the standalone loop's exit for every column
    // still in the block, with the true residual of its iterate.
    for (j, c) in cols.iter_mut().enumerate() {
        if !b.active[j] {
            continue;
        }
        let converged = c.rz == 0.0
            || (opts.criterion == StoppingCriterion::DisplacementChange && c.change < opts.tol);
        let iterations = if converged {
            c.completed
        } else {
            opts.max_iterations
        };
        let res = ws.residual_mut();
        let report = exit_report(
            k,
            &f[col(j)],
            &u[col(j)],
            res,
            &mut c.stats,
            c.f_norm,
            iterations,
            converged,
            c.change,
        );
        b.retire(j, Ok(report));
    }
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
        use crate::recovery::{ApplicationFault, FaultKind, FaultyPreconditioner};

        let (a, _p) = rb_laplacian(32);
        // One RHS so the shared application counter is deterministic.
        let f = batch_rhs(32, 1);
        let mut u = vec![0.0; 32];
        let pre = FaultyPreconditioner::new(
            IdentityPreconditioner::new(32),
            vec![ApplicationFault {
                application: 2,
                index: 5,
                kind: FaultKind::NaN,
            }],
        );
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let mut ws = MultiRhsWorkspace::new(32, 1);
        let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(pre.injected(), 1);
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
}
