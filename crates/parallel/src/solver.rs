//! SPMD parallel m-step SSOR PCG on real threads.
//!
//! Worker `t` owns chunk `t` of **every** color block — the Finite
//! Element Machine's node assignment (§3.2: each processor gets "as
//! nearly as possible, an equal number of Red/Black/Green unconstrained
//! nodes"). Each block is cut into one contiguous chunk per worker, row
//! counts equal to within one, so every color phase of the sweeps keeps
//! every worker busy. A worker's `C` chunks are its *strip* below: it
//! writes only its strip in each phase, and its reduction partials are
//! summed chunk by chunk in color order. Every iteration phase is
//! barrier-separated. ω is fixed at 1, the paper's recommendation for
//! multicolor orderings.
//!
//! One msolve: each worker runs [`SweepTable::msolve`] at ω = 1 as
//! participant `t` of the solve's launch, on its chunk of each color
//! ([`mspcg_core::ssor::owned_chunk`]) and crossing the solve's barrier
//! between color phases — the loop, the chunks, the kernel and the update
//! of the pool-path `MulticolorSsor`, which runs it as one launch per
//! msolve. The SPMD executor keeps its fused `(z, r)` tail and its
//! barriers.
//!
//! ## One loop, two executors
//!
//! Every worker runs [`lockstep`], the Algorithm 1 of every pool-path
//! solve, at block width 1 as the loop's [`Executor`]: each phase is an
//! own-strip kernel ending at a barrier, and every worker sums the same
//! per-worker partials in the same order, so all reach bitwise-identical
//! α, β and stopping decisions and take every branch together, with no
//! broadcast phase — the sum/max circuit of the Finite Element Machine.
//! The partials go to two banks in turn, so a fast worker's writes for
//! one reduction never race a slow worker's reads of the one before.
//!
//! The workers are the participants of one `par` pool launch
//! (`for_each_chunk(T, T, …)`, the caller worker 0), held for the whole
//! solve; each writes the loop's typed result into its own slot. Every
//! vector is a local `Vec` that the workers share through a
//! [`ParSlice`] view, under its phase discipline.
//!
//! ## Fused phase schedule
//!
//! Each reduction is **fused into the phase that produces its operands**
//! (the kernel writes its strip, then immediately forms the strip partial
//! — no extra barrier). Per iteration of Algorithm 1 (`C` colors, `m`
//! steps):
//!
//! ```text
//! kp ← K·p  ⊕ (p, Kp) partial          1 barrier
//! u += αp; r −= α·Kp ⊕ ‖p‖∞, ‖r‖∞      1 barrier   (fused vecops kernel)
//! preconditioner, `w₀ = 0` start fused
//!   into the first color sweep and the
//!   (z, r) partial into the last        m·(2C−1) barriers
//! p ← z + βp                            1 barrier
//! ```
//!
//! i.e. `m·(2C−1) + 3` barriers and two reduction phases (`(p, Kp)`, then
//! `(z, r)`) per iteration. A clean solve that converges at iteration `I`
//! crosses `m·(2C−1)` barriers in its initial msolve, `m·(2C−1) + 3` in
//! each of the `I − 1` full iterations and 3 in the last: its SpMV, its
//! update and the `‖r‖₂` its report carries. Plain CG's msolve is one
//! copy phase, one barrier.
//!
//! Both counts are measured, not asserted:
//! [`ParallelSolveReport::barrier_crossings`] /
//! [`ParallelSolveReport::reduction_phases`] come from the instrumented
//! [`SpinBarrier`] and the loop's reduction counter.
//!
//! ## Recovery
//!
//! The loop restarts a column in place here as on the pool path: a
//! non-finite replicated scalar, or (with auditing on) a fused `f − K·u`
//! audit phase that finds the carried residual drifted, makes every worker
//! recompute `r = f − K·u` over its strip and re-derive `z`, `p` and
//! `(z, r)` from the current iterate, within the policy's replacement
//! budget. A restart after a non-finite `(p, K·p)` repeats the iteration.
//! The outcomes are the loop's: a breakdown carries its real pivot and
//! value, and a budget exit the true relative residual `‖f − K·u‖₂ / ‖f‖₂`
//! of its iterate (one fused phase).
//!
//! ## `Auto`: the paper's parametrized m-step SSOR
//!
//! [`ParallelMStepPcg::auto`] fits its coefficients with
//! [`mspcg_core::poly::auto_ssor`], the `Auto` rule the pool-path
//! `auto_preconditioner` runs too: min-max coefficients fitted on the
//! SSOR spectral interval, estimated once on this solver's own
//! [`SweepTable`], with `m` chosen by the paper's cost model (Eq. (4.1),
//! inequality (4.2)) — not by counting barriers: on a 2-vCPU
//! shared-memory VM all 25 barriers of an m = 2 iteration on the Table-3
//! plate cost under 1 % of solve time, and fitted coefficients cost
//! nothing per iteration (the schedule stays `m·(2C−1) + 3`). Both
//! executors fit bitwise the same coefficients.
//!
//! The sweeps are this executor's only msolve. A barrier-free polynomial
//! in `D⁻¹K` (`k + 3` barriers per iteration) was slower than the best
//! α = 1 sweeps in the median on every measured plate and Poisson system,
//! so the polynomial runs on the pool path only
//! (`mspcg_core::PolynomialPreconditioner`).

use mspcg_core::multi::{lockstep, Executor, TrueResidual};
use mspcg_core::pcg::{validate_inputs, PcgOptions, PcgReport};
use mspcg_core::poly::auto_ssor;
use mspcg_core::recovery::{perturb, FaultPlan, IterationFault, RecoveryPolicy};
use mspcg_core::ssor::owned_chunk;
use mspcg_core::SweepTable;
use mspcg_sparse::par::{self, ParSlice, SpinBarrier};
use mspcg_sparse::vecops::{self, FusedUpdateNorms};
use mspcg_sparse::{Partition, PcgVariant, SparseError, SparseOp};
use std::sync::Arc;

/// Options for the threaded solver.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSolverOptions {
    /// Worker count; `0` takes the pool budget [`par::max_threads`]
    /// (`MSPCG_THREADS` or `par::set_max_threads`, else the hardware
    /// parallelism). It is clamped to the problem size and to
    /// [`par::launch_capacity`], the workers one pool launch from the
    /// calling thread runs at once: the pool's capacity, but 1 without the
    /// `par` feature or from inside a pool job, since a barrier across
    /// workers run one after another never opens.
    pub threads: usize,
    /// Stopping tolerance on `‖u^{k+1} − uᵏ‖∞` (the paper's test).
    pub tol: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// The recurrence; [`PcgVariant::Classic`] is the only one. Kept only
    /// so the `perfbench` package, which sets it, still compiles.
    pub variant: PcgVariant,
    /// Residual-audit / replacement policy. The default runs no audit
    /// phase, which pins the exact barrier schedule (counter tests,
    /// benches).
    pub recovery: RecoveryPolicy,
}

impl Default for ParallelSolverOptions {
    fn default() -> Self {
        ParallelSolverOptions {
            threads: 0,
            tol: 1e-6,
            max_iterations: 50_000,
            variant: PcgVariant::Classic,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Outcome of a threaded solve.
#[derive(Debug, Clone)]
pub struct ParallelSolveReport {
    /// Solution in the color-ordered index space.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final `‖Δu‖∞`.
    pub final_change: f64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Total [`SpinBarrier`] crossings of the run, measured by the
    /// instrumented barrier: `S + (I − 1)(S + 3) + 3` for a clean solve
    /// converging at iteration `I`, `S` being the msolve's barriers (see
    /// the module docs), plus one per audit.
    pub barrier_crossings: usize,
    /// Replicated dot-product reduction phases feeding α/β: `2I` for a
    /// clean solve converging at iteration `I` (the init phase stands in
    /// for the one the converging iteration skips). The ‖Δu‖∞ stopping
    /// max is the paper's flag network and is not counted.
    pub reduction_phases: usize,
    /// Split-phase barrier crossings. Always 0: the schedule blocks every
    /// reduction at a [`SpinBarrier`]. Kept so readers of the report
    /// stay source compatible.
    pub split_crossings: usize,
    /// True-residual audit phases performed (each audit is one fused
    /// `f − K·u` phase: +1 barrier, no reduction phase — the deviation sum
    /// feeds no CG scalar).
    pub audits: usize,
    /// Residual replacements plus in-place non-finite recoveries.
    pub replacements: usize,
    /// Always 0: there is no second recurrence to fall back to. Kept only
    /// so the `perfbench` package, which reads it, still compiles.
    pub recoveries: usize,
    /// Non-finite reduction scalars detected.
    pub faults_detected: usize,
}

/// The rows one worker owns: chunk `t` of every color block, in color
/// order (see the module docs). Built per solve, one per worker, by
/// [`OwnedRows::map`].
struct OwnedRows {
    chunks: Vec<std::ops::Range<usize>>,
}

impl OwnedRows {
    /// The ownership map of a `threads`-worker solve: entry `t` holds
    /// chunk `t` of every block of `colors` ([`owned_chunk`], the rule the
    /// pool-path sweeps share).
    fn map(colors: &Partition, threads: usize) -> Vec<OwnedRows> {
        (0..threads)
            .map(|t| OwnedRows {
                chunks: colors
                    .iter()
                    .map(|blk| owned_chunk(blk, t, threads))
                    .collect(),
            })
            .collect()
    }

    /// The owned chunks, in color order.
    #[inline]
    fn chunks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.chunks.iter().cloned()
    }

    /// Whether this worker owns row `i` (the fault-owner lookup).
    fn contains(&self, i: usize) -> bool {
        self.chunks.iter().any(|rows| rows.contains(&i))
    }

    /// The fused tail of an msolve's final phase: this worker's `(z, r)`
    /// partial, the chunk dots summed in color order, and on a restart
    /// (`p0`) the copy `p ← z`, both over the owned rows only — other
    /// workers may still be writing their rows of `z` in this phase.
    ///
    /// # Safety
    /// This worker wrote every owned row of `z` in this or an earlier
    /// phase, no worker writes `r` in this phase, and no other worker
    /// touches the owned rows of `p0`.
    #[inline]
    unsafe fn msolve_tail(&self, z: &ParSlice, r: &ParSlice, p0: Option<&ParSlice>) -> f64 {
        let mut acc = 0.0;
        for rows in self.chunks() {
            // SAFETY: by the contract, these rows of `z` are this worker's
            // own writes and nobody writes `r` or these rows of `p0`.
            unsafe {
                let zc = z.slice(rows.clone());
                if let Some(p) = p0 {
                    p.slice_mut(rows.clone()).copy_from_slice(zc);
                }
                acc += vecops::dot(zc, r.slice(rows));
            }
        }
        acc
    }
}

/// The threaded m-step SSOR PCG solver (ω = 1), constructible from a
/// color-blocked operator in **any** [`SparseOp`] format.
///
/// Both the SSOR color sweeps (half-sums split at the own-color block) and
/// the strip `K·p` products need *indexed row structure*, which no
/// SpMV-oriented format is required to expose — so construction copies
/// the operator once into a validated CSR matrix
/// ([`SparseOp::try_csr_copy`]) and builds the serial splitting's
/// [`SweepTable`] on it; every iteration phase streams that single table,
/// the sweeps through its 8-row slices of half-rows (the rows a strip
/// edge cuts on the CSR row loop) and the strip `K·p` through the CSR row
/// kernel (the source operator is not retained: per-worker strips are
/// tiny, so a format's slice/block kernels could not be engaged anyway,
/// and holding it would double the matrix memory). The
/// copy walks rows in ascending column order, so two formats storing the
/// same matrix produce identical tables and therefore
/// **bitwise-identical** solver runs.
pub struct ParallelMStepPcg {
    /// The color-blocked matrix, its partition and the sweep split.
    table: SweepTable,
    /// The m-step SSOR coefficients every worker sweeps with (`alphas[i]`
    /// multiplies `Gⁱ P⁻¹`); none is plain CG's copy `z ← r`.
    alphas: Vec<f64>,
}

impl ParallelMStepPcg {
    /// Build from a color-blocked operator in any [`SparseOp`] format.
    /// `alphas` empty means plain CG (no preconditioner); otherwise
    /// `alphas[i]` multiplies `Gⁱ P⁻¹` (all-ones = unparametrized m-step).
    ///
    /// # Errors
    /// Same validation as the sequential `MulticolorSsor` (square matrix,
    /// diagonal color blocks, positive diagonal), plus the
    /// [`SparseOp::try_csr_copy`] errors for an operator whose `visit_row`
    /// yields an out-of-range or unsorted column.
    pub fn new<A: SparseOp>(
        matrix: &A,
        colors: &Partition,
        alphas: Vec<f64>,
    ) -> Result<Self, SparseError> {
        Self::shared(matrix, Arc::new(colors.clone()), alphas)
    }

    /// [`ParallelMStepPcg::new`] with a shared partition handle (no
    /// partition copy; the operator is only read during construction).
    ///
    /// # Errors
    /// Same classes as [`ParallelMStepPcg::new`].
    pub fn shared<A: SparseOp>(
        matrix: &A,
        colors: Arc<Partition>,
        alphas: Vec<f64>,
    ) -> Result<Self, SparseError> {
        Ok(ParallelMStepPcg {
            table: SweepTable::new(Arc::new(matrix.try_csr_copy()?), colors)?,
            alphas,
        })
    }

    /// The paper's parametrized m-step SSOR, fitted by
    /// [`mspcg_core::poly::auto_ssor`] — the `Auto` rule of the serial
    /// [`mspcg_core::auto_preconditioner`], fallbacks included: min-max α
    /// on the SSOR interval, estimated on the sweep table this solver
    /// streams (no second matrix copy), with `m` walked up from
    /// `m_default` by inequality (4.2). [`ParallelMStepPcg::alphas`] shows
    /// the result, `m_default` ones when it fell back to α = 1.
    ///
    /// # Errors
    /// The construction errors of [`ParallelMStepPcg::new`].
    pub fn auto<A: SparseOp>(
        matrix: &A,
        colors: &Partition,
        m_default: usize,
    ) -> Result<Self, SparseError> {
        let mut base = Self::new(matrix, colors, Vec::new())?;
        base.alphas = auto_ssor(&base.table, m_default).0;
        Ok(base)
    }

    /// Number of m-step SSOR steps (0 for plain CG).
    pub fn m(&self) -> usize {
        self.alphas.len()
    }

    /// The m-step SSOR coefficients (`alphas[i]` multiplies `Gⁱ P⁻¹`;
    /// empty for plain CG).
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// System dimension.
    #[inline]
    fn dim(&self) -> usize {
        self.table.matrix().rows()
    }

    fn resolve_threads(&self, requested: usize) -> usize {
        let t = if requested == 0 {
            par::max_threads()
        } else {
            requested
        };
        t.clamp(1, self.dim().max(1)).min(par::launch_capacity())
    }

    /// Solve `K u = f` from the zero initial guess.
    ///
    /// A non-finite replicated scalar restarts the solve in place from the
    /// current iterate (the decision is replicated, so every worker takes
    /// it). When [`ParallelSolverOptions::recovery`] turns auditing on,
    /// every `audit_period` iterations a fused `f − K·u` phase compares the
    /// true residual against the recurrence carry; divergence beyond the
    /// replacement bound restarts the same way.
    ///
    /// # Errors
    /// [`SparseError::NotPositiveDefinite`] on breakdown, with its pivot
    /// and value, [`SparseError::DidNotConverge`] on budget exhaustion,
    /// with the true relative residual of the exit iterate,
    /// [`SparseError::NonFinite`] when a non-finite reduction scalar
    /// outlives the replacement budget (or for a NaN/Inf right-hand
    /// side), [`SparseError::InvalidTolerance`] for a nonpositive or
    /// non-finite tolerance, [`SparseError::ZeroAuditPeriod`] for an
    /// audit period of 0, shape errors on bad input.
    pub fn solve(
        &self,
        f: &[f64],
        opts: &ParallelSolverOptions,
    ) -> Result<ParallelSolveReport, SparseError> {
        self.solve_with_faults(f, opts, &FaultPlan::default())
    }

    /// [`ParallelMStepPcg::solve`] under a [`FaultPlan`] (its faults at
    /// `rhs` 0), which the loop consults as on the pool path: the worker
    /// owning a fault's row perturbs the fresh `K·p` or `z` before the
    /// phase's fused partials are formed, so a fault ends where it ends in
    /// a pool-path solve, at every worker count. Each planned fault fires
    /// once. A faulted m-step SSOR msolve crosses one extra barrier,
    /// because other workers read `z` across strips in its final color
    /// phase; plain CG's copy reads none, and crosses no extra barrier.
    ///
    /// # Errors
    /// Same classes as [`ParallelMStepPcg::solve`].
    pub fn solve_with_faults(
        &self,
        f: &[f64],
        opts: &ParallelSolverOptions,
        plan: &FaultPlan,
    ) -> Result<ParallelSolveReport, SparseError> {
        validate_inputs(opts.tol, &opts.recovery, f, &[])?;
        let n = self.dim();
        if f.len() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (f.len(), 1),
            });
        }
        let threads = self.resolve_threads(opts.threads);
        let owned = OwnedRows::map(self.table.colors(), threads);
        let (mut u, mut r) = (vec![0.0; n], f.to_vec());
        let [mut z, mut p, mut kp, mut y] = std::array::from_fn(|_| vec![0.0; n]);
        let mut banks: [Vec<f64>; 2] = std::array::from_fn(|_| vec![0.0; 2 * threads]);
        let mut results: Vec<Option<Result<PcgReport, SparseError>>> = vec![None; threads];
        let barrier = SpinBarrier::new(threads);
        let pcg = PcgOptions {
            tol: opts.tol,
            max_iterations: opts.max_iterations,
            recovery: opts.recovery,
            ..PcgOptions::default()
        };
        let v = Vectors {
            u: ParSlice::new(&mut u),
            r: ParSlice::new(&mut r),
            z: ParSlice::new(&mut z),
            p: ParSlice::new(&mut p),
            kp: ParSlice::new(&mut kp),
            y: ParSlice::new(&mut y),
            banks: banks.each_mut().map(|b| ParSlice::new(b)),
        };
        let slots = ParSlice::new(&mut results);
        let run = |t: usize| {
            let mut worker = Worker {
                solver: self,
                t,
                own: &owned[t],
                v: &v,
                barrier: &barrier,
                f,
                completed: 0,
                exchanges: 0,
            };
            let [result] = lockstep(&mut worker, &pcg, plan, 0);
            // SAFETY: slot `t` is this worker's alone, and nothing reads
            // the slots before the launch returns.
            unsafe { slots.slice_mut(t..t + 1)[0] = Some(result) };
        };
        if threads == 1 {
            // One worker is the calling thread, its kernels inline.
            par::serialized(|| run(0));
        } else {
            // Participant `t` is worker `t`: `resolve_threads` keeps the
            // count within what the launch runs at once, and the workers'
            // nested kernel launches run inline.
            par::for_each_chunk(threads, threads, &run);
        }
        // Every branch of the loop read replicated scalars only, so every
        // worker ends with worker 0's outcome (the Debug form compares the
        // f64 fields bit for bit, NaN included).
        debug_assert!(
            results
                .iter()
                .all(|r| format!("{r:?}") == format!("{:?}", results[0])),
            "SPMD workers disagree: {results:?}"
        );
        let report = results.swap_remove(0).expect("worker 0 reports")?;
        if !report.converged {
            return Err(SparseError::DidNotConverge {
                iterations: report.iterations,
                residual: report.final_relative_residual,
            });
        }
        Ok(ParallelSolveReport {
            x: u,
            iterations: report.iterations,
            converged: true,
            final_change: report.final_change,
            threads,
            barrier_crossings: barrier.crossings(),
            reduction_phases: report.stats.reduction_phases,
            split_crossings: 0,
            audits: report.stats.audits,
            replacements: report.stats.replacements,
            recoveries: 0,
            faults_detected: report.stats.faults_detected,
        })
    }
}

/// The vectors of one SPMD solve: views of the solve's local `Vec`s,
/// shared by its workers under the phase discipline of [`ParSlice`].
struct Vectors<'a> {
    u: ParSlice<'a>,
    r: ParSlice<'a>,
    z: ParSlice<'a>,
    p: ParSlice<'a>,
    /// `K·p`; between its update and the next SpMV, the scratch of an
    /// audit's or an exit's `f − K·u`.
    kp: ParSlice<'a>,
    /// The SSOR half-sum cache.
    y: ParSlice<'a>,
    /// Two partial banks of two slots per worker, used in turn: at least
    /// one barrier separates a bank's readers from its next writer.
    banks: [ParSlice<'a>; 2],
}

/// One SPMD worker as the [`Executor`] of [`lockstep`]'s width-1 block,
/// participant `t` of the solve's launch: every vector phase runs on the
/// worker's strip and ends at the barrier, its msolve is its share of the
/// pool path's [`SweepTable::msolve`] on the same barrier, and every
/// scalar it returns is replicated.
///
/// All `unsafe` blocks below follow the phase discipline documented in
/// [`ParSlice`]: writes go only to owned rows (in a sweep phase,
/// only to the owned chunk of the current color), reads only touch
/// elements finalized before the previous barrier or written by this
/// worker in the current phase.
struct Worker<'a> {
    solver: &'a ParallelMStepPcg,
    t: usize,
    own: &'a OwnedRows,
    v: &'a Vectors<'a>,
    barrier: &'a SpinBarrier,
    f: &'a [f64],
    /// Iterations completed: the updates so far. Until the first, `u = 0`
    /// and `r` holds `f`.
    completed: usize,
    /// Reductions so far: the next one publishes into bank
    /// `exchanges % 2`.
    exchanges: usize,
}

impl Worker<'_> {
    /// Publish this worker's `partial`, cross the barrier, and return
    /// every worker's partials in worker order.
    fn exchange(&mut self, partial: [f64; 2]) -> impl Iterator<Item = [f64; 2]> + '_ {
        let bank = &self.v.banks[self.exchanges % 2];
        self.exchanges += 1;
        // SAFETY: slots `2t`, `2t + 1` are this worker's alone, and every
        // read of this bank's last round came before the barrier of the
        // round in between, which this worker has crossed.
        unsafe { bank.slice_mut(2 * self.t..2 * self.t + 2) }.copy_from_slice(&partial);
        self.barrier.wait();
        // SAFETY: every worker wrote its slots before the barrier, and none
        // writes this bank again before the next round's barrier.
        unsafe { bank.slice(0..bank.len()) }
            .chunks_exact(2)
            .map(|s| [s[0], s[1]])
    }

    /// The replicated sum of every worker's `partial`, in worker order.
    fn sum(&mut self, partial: f64) -> f64 {
        self.exchange([partial, 0.0]).map(|[s, _]| s).sum()
    }

    /// `out ← K·x` over the worker's strip, chunk by chunk in color order.
    /// A `fault` on an owned row perturbs the fresh output, then
    /// `fuse(rows, out_chunk)` runs while the chunk is still hot: the
    /// callers' partials ride it, so no partial needs a barrier of its
    /// own.
    ///
    /// # Safety
    /// The phase discipline of [`ParSlice`]: `x` was finalized before the
    /// last barrier, and no other worker touches `out`'s owned rows this
    /// phase.
    #[inline]
    unsafe fn own_spmv(
        &self,
        x: &[f64],
        out: &ParSlice,
        fault: Option<IterationFault>,
        mut fuse: impl FnMut(std::ops::Range<usize>, &mut [f64]),
    ) {
        for rows in self.own.chunks() {
            // SAFETY: `rows` is owned; the caller's contract makes this
            // worker its only writer and reader in `out` this phase.
            let y = unsafe { out.slice_mut(rows.clone()) };
            self.solver
                .table
                .matrix()
                .mul_vec_range_into(x, y, rows.clone());
            if let Some(f) = fault.filter(|f| rows.contains(&f.index)) {
                y[f.index - rows.start] = perturb(y[f.index - rows.start], f.kind);
            }
            fuse(rows, y);
        }
    }
}

impl Executor<1> for Worker<'_> {
    fn rhs_norms(&mut self) -> [f64; 1] {
        [vecops::norm2(self.f)]
    }

    fn msolve_steps(&self) -> usize {
        self.solver.m()
    }

    /// `kp ← K·p` ⊕ the `(p, Kp)` partial: the strip of `kp` this worker
    /// just wrote is exactly the strip the partial reads, so the dot needs
    /// no barrier of its own.
    fn spmv(&mut self, _live: &[bool; 1], faults: &[Option<IterationFault>; 1]) -> [f64; 1] {
        let mut pkp = 0.0;
        // SAFETY: `p` was finalized before the last barrier, and this
        // worker alone writes its rows of `kp` this phase.
        unsafe {
            let p = self.v.p.slice(0..self.v.p.len());
            self.own_spmv(p, &self.v.kp, faults[0], |rows, out| {
                pkp += vecops::dot(&p[rows], out);
            });
        }
        [self.sum(pkp)]
    }

    /// `u += α·p`, `r −= α·kp` over the strip (the fused vecops kernel,
    /// chunk by chunk) ⊕ this worker's `max|p|` and updated `max|r|`.
    fn update(&mut self, alpha: &[f64; 1], _live: &[bool; 1]) -> [FusedUpdateNorms; 1] {
        let v = self.v;
        let mut own = [0.0f64; 2];
        for rows in self.own.chunks() {
            // SAFETY: `p` and `kp` were finalized before the last barrier;
            // this worker alone touches its rows of `u` and `r` this phase.
            let norms = unsafe {
                let (p, kp) = (v.p.slice(rows.clone()), v.kp.slice(rows.clone()));
                let (u, r) = (v.u.slice_mut(rows.clone()), v.r.slice_mut(rows));
                vecops::fused_axpy_axpy_norm(alpha[0], p, kp, u, r)
            };
            own = [own[0].max(norms.p_norm_inf), own[1].max(norms.r_norm_inf)];
        }
        self.completed += 1;
        let [p_norm_inf, r_norm_inf] = self
            .exchange(own)
            .fold([0.0f64; 2], |[p, r], [pt, rt]| [p.max(pt), r.max(rt)]);
        [FusedUpdateNorms {
            p_norm_inf,
            r_norm_inf,
        }]
    }

    fn residual_norms(&mut self, _r_max: &[f64; 1]) -> [f64; 1] {
        let mut s = 0.0;
        for rows in self.own.chunks() {
            // SAFETY: `r` was finalized by the update's barrier.
            let r = unsafe { self.v.r.slice(rows) };
            s += vecops::dot(r, r);
        }
        [self.sum(s).sqrt()]
    }

    /// The msolve — this worker's share of the pool path's
    /// [`SweepTable::msolve`] at ω = 1 on the solve's barrier, or plain
    /// CG's copy `z ← r` on its rows — then its tail fused into the final
    /// phase: the owner of a planned fault's row perturbs the fresh `z`,
    /// and each worker forms its `(z, r)` partial (and a restart's `p ← z`
    /// copy) on its own rows. The m-step SSOR's final color phase reads
    /// `z` across strips, so a faulted sweep msolve first crosses one
    /// extra barrier; plain CG's copy reads no `z` across strips.
    fn msolve(
        &mut self,
        _cols: &[bool; 1],
        restart: bool,
        faults: &[Option<IterationFault>; 1],
    ) -> [f64; 1] {
        let (solver, v) = (self.solver, self.v);
        // SAFETY: `r` was finalized before the msolve began. Plain CG's
        // copy writes only this worker's rows of `z`. The sweeps' callers
        // are the solve's workers, its launch's participants, each its own
        // `t`, on `n`-value vectors no other phase touches meanwhile.
        unsafe {
            if solver.alphas.is_empty() {
                for rows in self.own.chunks() {
                    v.z.slice_mut(rows.clone()).copy_from_slice(v.r.slice(rows));
                }
            } else {
                let r = v.r.slice(0..v.r.len());
                let (alphas, t) = (&solver.alphas, self.t);
                solver
                    .table
                    .msolve::<1>(alphas, 1.0, r, &v.z, &v.y, t, self.barrier);
            }
        }
        if faults[0].is_some() && solver.m() > 0 {
            self.barrier.wait();
        }
        if let Some(fault) = faults[0].filter(|f| self.own.contains(f.index)) {
            // SAFETY: this worker alone writes row `index` of `z`, in this
            // phase or an earlier one, and no other worker reads it before
            // the next barrier.
            unsafe {
                v.z.set(fault.index, perturb(v.z.get(fault.index), fault.kind))
            };
        }
        // SAFETY: every owned row of `z` was written by this worker in this
        // or an earlier phase, `r` was finalized before the msolve began,
        // and only this worker touches its rows of `p`.
        let partial = unsafe { self.own.msolve_tail(&v.z, &v.r, restart.then_some(&v.p)) };
        [self.sum(partial)]
    }

    fn xpby(&mut self, beta: &[f64; 1]) {
        let v = self.v;
        for rows in self.own.chunks() {
            // SAFETY: `z` was finalized by the msolve's barrier; this
            // worker alone touches its rows of `p` this phase.
            unsafe { vecops::xpby(v.z.slice(rows.clone()), beta[0], v.p.slice_mut(rows)) };
        }
        self.barrier.wait();
    }

    /// `f − K·u` over the strip in one fused phase: into `r` for a
    /// restart, else into the dead `kp` with the audit's squared-deviation
    /// or the exit's squared-norm partial, then the replicated sum.
    fn true_residual(&mut self, _j: usize, to: TrueResidual) -> f64 {
        if to == TrueResidual::Restart && self.completed == 0 {
            // Before the first update `u = 0`, and `r` holds `f`: bitwise
            // `f − K·0`, which every row sum of zero products gives.
            return 0.0;
        }
        let (v, f) = (self.v, self.f);
        let out = if to == TrueResidual::Restart {
            &v.r
        } else {
            &v.kp
        };
        let mut acc = 0.0;
        // SAFETY: `u` was finalized by the update's barrier and an audit
        // reads `r` own-strip only; a restart writes `r` own-strip only,
        // and nobody reads `r` cross-strip before the next barrier (the
        // msolve reads it own-strip).
        unsafe {
            let r = (to == TrueResidual::Audit).then(|| v.r.slice(0..v.r.len()));
            self.own_spmv(v.u.slice(0..v.u.len()), out, None, |rows, out| {
                for (o, i) in rows.enumerate() {
                    out[o] = f[i] - out[o];
                    let d = out[o] - r.map_or(0.0, |r| r[i]);
                    acc += d * d;
                }
            });
        }
        match to {
            TrueResidual::Restart => 0.0,
            TrueResidual::Audit => self.sum(acc),
            TrueResidual::Norm => self.sum(acc).sqrt(),
        }
    }

    /// The solve ends with its only column: nothing to carry.
    fn retire(&mut self, _j: usize) {}

    /// `u` starts at zero and has not moved.
    fn zero_iterate(&mut self, _j: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_core::recovery::{FaultKind, FaultTarget};
    use mspcg_core::{pcg_solve, AutoPreconditioner, MStepSsorPreconditioner, PcgOptions};
    use mspcg_fem::plate::PlaneStressProblem;
    use mspcg_sparse::{CsrMatrix, PolyKind, PrecondKind};

    fn plate(a: usize) -> (CsrMatrix, Partition, Vec<f64>) {
        let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        (ord.matrix, ord.colors, ord.rhs)
    }

    #[test]
    fn matches_sequential_solver() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let rep = par
            .solve(
                &rhs,
                &ParallelSolverOptions {
                    threads: 4,
                    tol: 1e-8,
                    max_iterations: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
        let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).unwrap();
        let seq = pcg_solve(
            &a,
            &rhs,
            &pre,
            &PcgOptions {
                tol: 1e-8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rep.converged);
        // Iteration counts agree to within rounding slack.
        assert!(
            (rep.iterations as isize - seq.iterations as isize).abs() <= 2,
            "par {} vs seq {}",
            rep.iterations,
            seq.iterations
        );
        for (u, v) in rep.x.iter().zip(&seq.x) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn plain_cg_mode_works() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![]).unwrap();
        assert_eq!(par.m(), 0);
        let rep = par
            .solve(
                &rhs,
                &ParallelSolverOptions {
                    threads: 3,
                    tol: 1e-8,
                    max_iterations: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
        let exact = a.to_dense().cholesky().unwrap().solve(&rhs);
        for (u, v) in rep.x.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, colors, rhs) = plate(7);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; 3]).unwrap();
        let opts = ParallelSolverOptions {
            threads: 4,
            tol: 1e-8,
            max_iterations: 10_000,
            ..Default::default()
        };
        let r1 = par.solve(&rhs, &opts).unwrap();
        let r2 = par.solve(&rhs, &opts).unwrap();
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x); // bitwise: fixed reduction order
    }

    #[test]
    fn thread_count_insensitive_result() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let solve = |threads: usize| {
            par.solve(
                &rhs,
                &ParallelSolverOptions {
                    threads,
                    tol: 1e-9,
                    max_iterations: 10_000,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let r1 = solve(1);
        let r4 = solve(4);
        assert_eq!(r1.iterations, r4.iterations);
        for (u, v) in r1.x.iter().zip(&r4.x) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    /// Per-color ownership (§3.2): at every worker count, each worker owns
    /// exactly one contiguous chunk of every color block, the chunks of a
    /// block are disjoint, in worker order and cover it, and their row
    /// counts differ by at most one — so no color phase leaves a worker
    /// idle while the block has a row for it. The fault-owner lookup
    /// agrees: every row has exactly one owner.
    #[test]
    fn every_worker_owns_an_equal_chunk_of_every_color() {
        let (_, plate_colors, _) = plate(8);
        let red_black = mspcg_fem::poisson::poisson5(9)
            .unwrap()
            .coloring
            .ordering()
            .partition;
        assert_eq!(red_black.num_blocks(), 2);
        for colors in [&plate_colors, &red_black] {
            for threads in [1usize, 2, 3, 4, 8] {
                let map = OwnedRows::map(colors, threads);
                assert_eq!(map.len(), threads);
                for own in &map {
                    assert_eq!(own.chunks().count(), colors.num_blocks());
                }
                for (c, blk) in colors.iter().enumerate() {
                    let chunks: Vec<_> =
                        map.iter().map(|own| own.chunks().nth(c).unwrap()).collect();
                    assert_eq!(chunks[0].start, blk.start, "color {c}, {threads} workers");
                    assert_eq!(
                        chunks[threads - 1].end,
                        blk.end,
                        "color {c}, {threads} workers"
                    );
                    for pair in chunks.windows(2) {
                        assert_eq!(pair[0].end, pair[1].start, "color {c}, {threads} workers");
                    }
                    let lens: Vec<usize> = chunks.iter().map(|ch| ch.len()).collect();
                    let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(hi - lo <= 1, "color {c}, {threads} workers: {lens:?}");
                    if blk.len() >= threads {
                        assert!(*lo >= 1, "color {c}, {threads} workers: an idle worker");
                    }
                }
                for i in 0..colors.total_len() {
                    let owners = map.iter().filter(|own| own.contains(i)).count();
                    assert_eq!(owners, 1, "row {i}, {threads} workers");
                }
            }
        }
    }

    /// The acceptance gate of the operator abstraction: the SPMD solver
    /// driven through SELL-C-σ must replay the CSR run bitwise — same
    /// iterates, same iteration count, same final change — at every
    /// thread count.
    #[test]
    fn sellcs_operator_replays_csr_solver_bitwise() {
        let (a, colors, rhs) = plate(8);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let par_sell = ParallelMStepPcg::new(&sell, &colors, vec![1.0; 2]).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let opts = ParallelSolverOptions {
                threads,
                tol: 1e-9,
                max_iterations: 10_000,
                ..Default::default()
            };
            let rc = par_csr.solve(&rhs, &opts).unwrap();
            let rs = par_sell.solve(&rhs, &opts).unwrap();
            assert_eq!(rc.iterations, rs.iterations, "threads = {threads}");
            assert_eq!(
                rc.final_change.to_bits(),
                rs.final_change.to_bits(),
                "threads = {threads}"
            );
            assert!(
                rc.x.iter()
                    .zip(&rs.x)
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "solution differs between formats at threads = {threads}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-14,
                max_iterations: 2,
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(SparseError::DidNotConverge { .. })));
    }

    #[test]
    fn zero_iteration_budget_is_exhaustion_not_convergence() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-8,
                max_iterations: 0,
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 0, .. })
        ));
    }

    /// One loop, one meaning of "budget exhausted": the error carries the
    /// true relative residual `‖f − K·u‖₂ / ‖f‖₂` of the exit iterate,
    /// the pool path's figure at the same budget.
    #[test]
    fn budget_exit_reports_the_true_relative_residual() {
        let (a, colors, rhs) = plate(12);
        let budget = 5;
        let spmd = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).unwrap();
        let pool = pcg_solve(
            &a,
            &rhs,
            &pre,
            &PcgOptions {
                tol: 1e-14,
                max_iterations: budget,
                ..Default::default()
            },
        );
        let Err(SparseError::DidNotConverge {
            iterations,
            residual: expected,
        }) = pool
        else {
            panic!("the pool path must run out of budget: {pool:?}");
        };
        assert_eq!(iterations, budget);
        for threads in [1usize, 2, 4] {
            let opts = ParallelSolverOptions {
                max_iterations: budget,
                ..pinned_opts(threads, 1e-14)
            };
            match spmd.solve(&rhs, &opts) {
                Err(SparseError::DidNotConverge {
                    iterations,
                    residual,
                }) => {
                    assert_eq!(iterations, budget);
                    assert!(
                        (residual - expected).abs() <= 1e-10 * expected,
                        "{threads} workers: {residual} vs the pool path's {expected}"
                    );
                }
                other => panic!("{threads} workers: {other:?}"),
            }
        }
    }

    /// An indefinite `K` breaks down with the pool path's pivot and value
    /// — the iteration whose `(p, K·p)` is nonpositive, and that value.
    #[test]
    fn breakdown_carries_the_pool_paths_pivot_and_value() {
        let mut coo = mspcg_sparse::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push_sym(0, 1, 2.0).unwrap();
        let k = coo.to_csr();
        let colors = Partition::from_sizes(&[1, 1]).unwrap();
        let f = [1.0, -1.0];
        let expected = SparseError::NotPositiveDefinite {
            pivot: 1,
            value: -2.0,
        };
        let opts = PcgOptions::default();
        assert_eq!(
            mspcg_core::cg_solve(&k, &f, &opts).err(),
            Some(expected.clone())
        );
        let spmd = ParallelMStepPcg::new(&k, &colors, vec![]).unwrap();
        for threads in [1usize, 2] {
            let opts = pinned_opts(threads, 1e-8);
            assert_eq!(spmd.solve(&f, &opts).err(), Some(expected.clone()));
        }
    }

    fn pinned_opts(threads: usize, tol: f64) -> ParallelSolverOptions {
        ParallelSolverOptions {
            threads,
            tol,
            max_iterations: 10_000,
            // The default policy runs no audit phase, so the exact
            // crossing counts below hold.
            ..Default::default()
        }
    }

    /// The acceptance gate of the fused schedule: the instrumented
    /// barrier proves `m·(2C−1) + 3` barriers per iteration, and the
    /// loop's reduction counter proves two reduction phases per
    /// iteration.
    #[test]
    fn barrier_counter_proves_classic_sweep_schedule() {
        let (a, colors, rhs) = plate(8);
        let c = colors.num_blocks();
        for m in [1usize, 2, 3] {
            let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; m]).unwrap();
            let sweep = m * (2 * c - 1);
            for threads in [1usize, 4] {
                let rep = par.solve(&rhs, &pinned_opts(threads, 1e-8)).unwrap();
                let k = rep.iterations;
                assert!(k >= 1);
                // Init sweep, k−1 full iterations of sweep + 3 barriers,
                // the converging iteration stops after its second and
                // crosses one more for the `‖r‖₂` of its report.
                assert_eq!(
                    rep.barrier_crossings,
                    sweep + (k - 1) * (sweep + 3) + 3,
                    "barrier count, m = {m}, threads = {threads}"
                );
                // Two reduction phases per iteration (the init phase
                // stands in for the one the converging iteration skips).
                assert_eq!(rep.reduction_phases, 2 * k, "phases, m = {m}");
            }
        }
    }

    #[test]
    fn rejects_unordered_matrix() {
        // A matrix with intra-block coupling must be rejected.
        let asm = PlaneStressProblem::unit_square(5).assemble().unwrap();
        let single = Partition::single(asm.matrix.rows());
        assert!(ParallelMStepPcg::new(&asm.matrix, &single, vec![1.0]).is_err());
    }

    #[test]
    fn more_threads_than_rows_is_clamped() {
        let (a, colors, rhs) = plate(4);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let rep = par
            .solve(
                &rhs,
                &ParallelSolverOptions {
                    threads: 64,
                    tol: 1e-6,
                    max_iterations: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(rep.converged);
        assert!(rep.threads <= a.rows());
        assert!(rep.threads <= par::pool_capacity());
    }

    /// Inside a pool job a launch runs its participants one after another,
    /// so a barrier across them would never open: there the solver runs
    /// one worker, with the bits of a 1-worker solve. The case runs on its
    /// own thread, so a missing guard fails after the timeout instead of
    /// hanging the test.
    #[test]
    fn a_solve_inside_a_pool_job_runs_one_worker() {
        let (a, colors, rhs) = plate(8);
        let spmd = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let one = spmd.solve(&rhs, &pinned_opts(1, 1e-8)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let case = std::thread::spawn(move || {
            let reports = std::sync::Mutex::new(Vec::new());
            par::for_each_chunk(2, 2, &|_| {
                for threads in [2, 4] {
                    let rep = spmd.solve(&rhs, &pinned_opts(threads, 1e-8)).unwrap();
                    reports.lock().unwrap().push(rep);
                }
            });
            tx.send(reports.into_inner().unwrap()).unwrap();
        });
        let reports = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("an SPMD solve inside a pool job hung");
        case.join().expect("the case thread panicked");
        assert_eq!(reports.len(), 4);
        for rep in reports {
            assert_eq!(rep.threads, 1);
            assert_eq!(
                (rep.iterations, rep.barrier_crossings),
                (one.iterations, one.barrier_crossings)
            );
            assert_eq!(bits(&rep.x), bits(&one.x));
        }
    }

    #[test]
    fn rejects_poisoned_inputs_and_bad_tolerance() {
        let (a, colors, rhs) = plate(4);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let mut bad = rhs.clone();
        bad[1] = f64::NAN;
        assert!(matches!(
            par.solve(&bad, &ParallelSolverOptions::default()),
            Err(SparseError::NonFinite { phase: "rhs", .. })
        ));
        bad[1] = f64::INFINITY;
        assert!(matches!(
            par.solve(&bad, &ParallelSolverOptions::default()),
            Err(SparseError::NonFinite { phase: "rhs", .. })
        ));
        for tol in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let opts = ParallelSolverOptions {
                tol,
                ..Default::default()
            };
            assert!(
                matches!(
                    par.solve(&rhs, &opts),
                    Err(SparseError::InvalidTolerance { .. })
                ),
                "tol = {tol}"
            );
        }
    }

    /// The audit acceptance gate: on a clean run the fused `f − K·u`
    /// audit phase costs exactly ONE extra barrier crossing per audit, no
    /// reduction phase, fires `⌊(k − 1)/period⌋` times, never replaces —
    /// and leaves the iterate stream bitwise untouched.
    #[test]
    fn audit_phase_costs_one_barrier_and_nothing_else() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let off = par.solve(&rhs, &pinned_opts(4, 1e-8)).unwrap();
        let mut opts = pinned_opts(4, 1e-8);
        opts.recovery = RecoveryPolicy {
            audit_period: 4,
            ..RecoveryPolicy::on()
        };
        let on = par.solve(&rhs, &opts).unwrap();
        assert!(on.converged);
        assert_eq!(on.iterations, off.iterations);
        // Bitwise identical: the audit observes, it does not touch.
        assert!(on
            .x
            .iter()
            .zip(&off.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
        let audits = (off.iterations - 1) / 4;
        assert_eq!(on.audits, audits);
        assert_eq!(on.barrier_crossings, off.barrier_crossings + audits);
        assert_eq!(on.reduction_phases, off.reduction_phases);
        assert_eq!(
            (on.replacements, on.recoveries, on.faults_detected),
            (0, 0, 0)
        );
    }

    fn exact_solution(a: &CsrMatrix, rhs: &[f64]) -> Vec<f64> {
        a.to_dense().cholesky().unwrap().solve(rhs)
    }

    fn nan_msolve_at(iteration: usize) -> FaultPlan {
        FaultPlan::new(vec![IterationFault {
            rhs: 0,
            target: FaultTarget::Msolve,
            iteration,
            index: 3,
            kind: FaultKind::NaN,
        }])
    }

    #[test]
    fn classic_absorbs_nan_msolve_fault_in_place() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let rep = par
            .solve_with_faults(&rhs, &pinned_opts(4, 1e-8), &nan_msolve_at(2))
            .unwrap();
        assert!(rep.converged);
        // One non-finite β-scalar detection, one in-place restart, no
        // fallback, no audit phases (the default policy runs none).
        assert_eq!(
            (
                rep.faults_detected,
                rep.replacements,
                rep.recoveries,
                rep.audits
            ),
            (1, 1, 0, 0)
        );
        for (x, v) in rep.x.iter().zip(&exact_solution(&a, &rhs)) {
            assert!((x - v).abs() < 1e-5, "{x} vs {v}");
        }
    }

    /// A large-but-finite SpMV corruption slips every non-finite check —
    /// only the residual audit can see it. The solver replaces the drifted
    /// carry and still converges to the true solution.
    #[test]
    fn audit_catches_finite_spmv_corruption_and_replaces() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let mut opts = pinned_opts(4, 1e-10);
        opts.recovery = RecoveryPolicy {
            audit_period: 4,
            ..RecoveryPolicy::on()
        };
        let plan = FaultPlan::new(vec![IterationFault {
            rhs: 0,
            target: FaultTarget::Spmv,
            iteration: 2,
            index: 3,
            kind: FaultKind::ScaledNoise(0.5),
        }]);
        let rep = par.solve_with_faults(&rhs, &opts, &plan).unwrap();
        assert!(rep.converged);
        // The drift is finite: no non-finite detection fires, the audit at
        // iteration 5 replaces once, and later audits stay clean.
        assert_eq!(
            (rep.faults_detected, rep.replacements, rep.recoveries),
            (0, 1, 0)
        );
        assert!(rep.audits >= 1);
        for (x, v) in rep.x.iter().zip(&exact_solution(&a, &rhs)) {
            assert!((x - v).abs() < 1e-5, "{x} vs {v}");
        }
    }

    #[test]
    fn faulted_solves_replay_bitwise() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let opts = pinned_opts(4, 1e-8);
        let plan = nan_msolve_at(2);
        let r1 = par.solve_with_faults(&rhs, &opts, &plan).unwrap();
        let r2 = par.solve_with_faults(&rhs, &opts, &plan).unwrap();
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(
            (
                r1.faults_detected,
                r1.replacements,
                r1.recoveries,
                r1.audits
            ),
            (
                r2.faults_detected,
                r2.replacements,
                r2.recoveries,
                r2.audits
            )
        );
        assert!(r1
            .x
            .iter()
            .zip(&r2.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The serial `Auto` resolution's coefficients and interval.
    fn serial_auto(
        a: &CsrMatrix,
        colors: &Partition,
    ) -> (Vec<f64>, Option<mspcg_sparse::lanczos::SpectralInterval>) {
        match mspcg_core::auto_preconditioner(a, colors, 2, PrecondKind::Auto).unwrap() {
            AutoPreconditioner::MStepSsor(p) => (p.alphas().to_vec(), p.interval()),
            AutoPreconditioner::Poly(_) => panic!("Auto must build the m-step SSOR"),
        }
    }

    #[test]
    fn auto_constructor_resolves_like_the_serial_selector_and_pins_pass_through() {
        let (a, colors, rhs) = plate(24);
        // Auto: the SPMD estimate on its own sweep table fits bitwise the
        // coefficients the serial selector fits on its splitting's.
        let auto = ParallelMStepPcg::auto(&a, &colors, 2).unwrap();
        let (alphas, interval) = serial_auto(&a, &colors);
        assert!(interval.is_some());
        assert_eq!(bits(auto.alphas()), bits(&alphas));
        assert_eq!(auto.m(), alphas.len());
        // A pinned m-step SSOR is α = 1 on both executors: the serial
        // selector's coefficients are the ones `new` takes.
        let pinned = PrecondKind::MStepSsor { m: 3 };
        let AutoPreconditioner::MStepSsor(p) =
            mspcg_core::auto_preconditioner(&a, &colors, 2, pinned).unwrap()
        else {
            panic!("a pinned MStepSsor builds the m-step SSOR");
        };
        assert_eq!(p.alphas(), &[1.0; 3]);
        let ssor = ParallelMStepPcg::new(&a, &colors, p.alphas().to_vec()).unwrap();
        // Both solve the system: true relative residual ≤ 1e-8.
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for par in [&auto, &ssor] {
            let rep = par.solve(&rhs, &pinned_opts(2, 1e-10)).unwrap();
            assert!(rep.converged);
            let ku = a.mul_vec(&rep.x);
            let r: Vec<f64> = rhs.iter().zip(&ku).map(|(f, k)| f - k).collect();
            assert!(norm(&r) <= 1e-8 * norm(&rhs), "m = {}", par.m());
        }
    }

    #[test]
    fn auto_walk_stops_where_inequality_42_does() {
        use mspcg_core::analysis::{predicted_iterations, step_increase_beneficial, CostModel};
        use mspcg_core::minimax_alphas;
        use mspcg_core::poly::{AUTO_MAX_M, AUTO_PREDICTION_EPS};
        let mut picked = Vec::new();
        for size in [12, 24, 40] {
            let (a, colors, _) = plate(size);
            let (alphas, interval) = serial_auto(&a, &colors);
            let interval = interval.expect("the plate has an SSOR spectrum to fit");
            let interval = (interval.min, interval.max);
            let model = CostModel::from_traffic(a.rows(), a.nnz());
            let n = |m: usize| {
                predicted_iterations(
                    &minimax_alphas(m, interval).unwrap(),
                    interval,
                    AUTO_PREDICTION_EPS,
                )
                .unwrap()
            };
            let m = alphas.len();
            assert!((2..=AUTO_MAX_M).contains(&m), "a = {size}: m = {m}");
            // The step into m passed (4.2) ...
            if m > 2 {
                assert!(n(m) < n(m - 1), "a = {size}");
                assert!(step_increase_beneficial(m - 1, n(m - 1), n(m), model).beneficial);
            }
            // ... and the step out of it fails it, unless m is the cap.
            if m < AUTO_MAX_M {
                let (n_m, n_next) = (n(m), n(m + 1));
                assert!(
                    n_next >= n_m || !step_increase_beneficial(m, n_m, n_next, model).beneficial,
                    "a = {size}: m = {m} should have stepped on"
                );
            }
            picked.push(m);
        }
        // The walk lands at different m on different plates, the cap
        // included.
        assert_eq!(picked, [4, 7, AUTO_MAX_M]);
    }

    #[test]
    fn auto_needs_fewer_iterations_than_chebyshev_4_on_the_a24_plate() {
        // The plate's own load at relative residual 1e-8. Before `Auto`
        // built the fitted SSOR it picked degree-4 Chebyshev, which needs
        // 94 iterations here.
        let (a, colors, rhs) = plate(24);
        let opts = PcgOptions {
            tol: 1e-8,
            criterion: mspcg_core::StoppingCriterion::RelativeResidual,
            ..PcgOptions::default()
        };
        let iterations = |selection| {
            let pre = mspcg_core::auto_preconditioner(&a, &colors, 2, selection).unwrap();
            let sol = pcg_solve(&a, &rhs, &pre, &opts).unwrap();
            assert!(sol.converged);
            sol.iterations
        };
        let auto = iterations(PrecondKind::Auto);
        let chebyshev = iterations(PrecondKind::Poly {
            kind: PolyKind::Chebyshev,
            degree: 4,
        });
        assert_eq!(chebyshev, 94);
        assert!(auto < chebyshev, "Auto {auto} vs Chebyshev-4 {chebyshev}");
    }

    #[test]
    fn auto_constructor_falls_back_to_unit_alphas_on_a_diagonal_operator() {
        // K = 3I in a 2-color blocking: G_SSOR = 0, so the estimate errs
        // and the SPMD auto constructor keeps m_default steps at α = 1,
        // exactly like [`mspcg_core::auto_preconditioner`].
        let n = 12;
        let mut c = mspcg_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 3.0).unwrap();
        }
        let a = c.to_csr();
        let colors = Partition::from_sizes(&[6, 6]).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let auto = ParallelMStepPcg::auto(&a, &colors, 2).unwrap();
        assert_eq!(auto.alphas(), &[1.0, 1.0]);
        assert_eq!(serial_auto(&a, &colors), (vec![1.0, 1.0], None));
        let rep = auto.solve(&rhs, &pinned_opts(2, 1e-10)).unwrap();
        assert!(rep.converged);
        for (x, f) in rep.x.iter().zip(&rhs) {
            assert!((x - f / 3.0).abs() < 1e-10, "{x} vs {}", f / 3.0);
        }
    }
}
