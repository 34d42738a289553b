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
//! ## Fused phase schedule
//!
//! Each reduction is **fused into the phase that produces its operands**
//! (the kernel writes its strip, then immediately forms the strip partial
//! — no extra barrier), and the scalar reductions over the per-worker
//! partials are **replicated**: every worker sums the same partials in
//! the same order, so all workers reach bitwise-identical α, β and
//! stopping decisions without a broadcast phase — the sum/max circuit of
//! the Finite Element Machine, minus the dedicated round trips. The
//! partial banks (`dot`, `change`, `rz`) rotate so a fast worker's writes
//! for phase k+1 can never race a slow worker's reads from phase k.
//!
//! Per iteration of Algorithm 1 (`C` colors, `m` steps):
//!
//! ```text
//! kp ← K·p  ⊕ (p, Kp) partial          1 barrier
//! u += αp; r −= α·Kp ⊕ ‖Δu‖∞ partial   1 barrier   (fused vecops kernel)
//! preconditioner, `w₀ = 0` start fused
//!   into the first color sweep and the
//!   (z, r) partial into the last        m·(2C−1) barriers
//! p ← z + βp                            1 barrier
//! ```
//!
//! i.e. `m·(2C−1) + 3` barriers and two reduction phases (`(p, Kp)`, then
//! `(z, r)`) per iteration, down from the unfused `m·(2C−1) + 9` barriers
//! (separate dot/stop/reduce/fill phases). Results are bit-identical to
//! the unfused schedule: the fused kernels perform the same arithmetic in
//! the same order, only without the barriers.
//!
//! Both counts are measured, not asserted:
//! [`ParallelSolveReport::barrier_crossings`] /
//! [`ParallelSolveReport::reduction_phases`] come from the instrumented
//! [`SpinBarrier`] and the replicated-reduction counter.
//!
//! ## Recovery
//!
//! A non-finite replicated scalar, or (with auditing on) a fused
//! `f − K·u` audit phase that finds the carried residual drifted, makes
//! every worker restart in place from the current iterate: recompute the
//! true residual and re-derive `z`, `p` and `(z, r)`, exactly like the
//! serial loop, within the policy's replacement budget.
//!
//! ## Polynomial msolve (barrier-free preconditioning)
//!
//! The schedule above pays `m·(2C−1)` color-sweep barriers per m-step
//! SSOR application. [`ParallelMStepPcg::poly`] swaps the sweeps for the
//! degree-`k` **polynomial preconditioner** of `mspcg_core::poly`
//! (Newton or Chebyshev on the Lanczos-estimated spectrum of the
//! Jacobi-scaled operator): `z = p(D⁻¹K)·D⁻¹r` evaluated as `k` fused
//! SpMV phases, **one full barrier each and zero color sweeps** — the
//! msolve term drops from `m·(2C−1)` to `k`. The recurrence seed is
//! folded into the first SpMV (accumulated on the fly from the msolve
//! input), the `(z, r)` partial and `p⁰` copy into the last, and the
//! iterate banks alternate between the caller's vector and one scratch
//! bank so a phase's cross-strip SpMV reads never race the next phase's
//! writes. The exact-formula counter test pins the
//! resulting schedule: `k + 3` barriers per iteration.
//!
//! ## `Auto`: the paper's parametrized m-step SSOR
//!
//! [`ParallelMStepPcg::auto`] resolves a [`PrecondKind`] through the same
//! [`mspcg_core::poly::resolve_precond`] as the serial
//! `auto_preconditioner`. `Auto` is the m-step SSOR with min-max
//! coefficients fitted on the SSOR spectral interval, estimated once on
//! this solver's own [`SweepTable`], with `m` chosen by the paper's cost
//! model (Eq. (4.1), inequality (4.2)) — not by counting barriers: on a
//! 2-vCPU shared-memory VM all 25 barriers of an m = 2 iteration on the
//! Table-3 plate cost under 1 % of solve time, and fitted coefficients
//! cost nothing per iteration (the schedule stays `m·(2C−1) + 3`). Both
//! executors resolve bitwise the same coefficients.

use crate::barrier::SpinBarrier;
use crate::shared::{slot, ScalarBank, SharedVec};
use mspcg_core::pcg::validate_inputs;
use mspcg_core::poly::{resolve_precond, ResolvedPrecond};
use mspcg_core::recovery::{
    audit_due, diverged, perturb, AuditPlan, FaultKind, FaultPlan, FaultTarget, RecoveryPolicy,
};
use mspcg_core::{PolySchedule, SweepTable};
use mspcg_sparse::{vecops, Partition, PcgVariant, PolyKind, PrecondKind, SparseError, SparseOp};
use std::sync::Arc;

/// Options for the threaded solver.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSolverOptions {
    /// Worker count, clamped to the problem size; `0` takes the pool
    /// budget [`mspcg_sparse::par::max_threads`] (`MSPCG_THREADS` or
    /// `par::set_max_threads`, else the hardware parallelism; always 1
    /// without the `par` feature).
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
    /// Total [`SpinBarrier`] crossings of the run (init + all
    /// iterations), measured by the instrumented barrier: the
    /// synchronization cost the `m·(2C−1) + k` model predicts.
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

/// Status codes passed from worker 0 to the main thread. The zeroed bank
/// (`0.0`) means no outcome was recorded — reachable only with
/// `max_iterations == 0`, which reports as converged-at-the-start.
mod status {
    pub const CONVERGED: f64 = 1.0;
    pub const INDEFINITE_K: f64 = 2.0;
    pub const INDEFINITE_M: f64 = 3.0;
    pub const BUDGET: f64 = 4.0;
    /// A non-finite reduction scalar outlived the replacement budget:
    /// surfaces as `SparseError::NonFinite`.
    pub const NONFINITE: f64 = 6.0;
}

/// The rows one worker owns: chunk `t` of every color block, in color
/// order (see the module docs). Built per solve, one per worker, by
/// [`OwnedRows::map`].
struct OwnedRows {
    chunks: Vec<std::ops::Range<usize>>,
}

impl OwnedRows {
    /// The ownership map of a `threads`-worker solve: entry `t` holds
    /// chunk `t` of every block of `colors`, each block cut into
    /// `threads` contiguous chunks whose row counts differ by at most one.
    fn map(colors: &Partition, threads: usize) -> Vec<OwnedRows> {
        (0..threads)
            .map(|t| OwnedRows {
                chunks: colors
                    .iter()
                    .map(|blk| {
                        let (base, extra) = (blk.len() / threads, blk.len() % threads);
                        let start = blk.start + t * base + t.min(extra);
                        start..start + base + usize::from(t < extra)
                    })
                    .collect(),
            })
            .collect()
    }

    /// The owned chunk of color block `c`.
    #[inline]
    fn chunk(&self, c: usize) -> std::ops::Range<usize> {
        self.chunks[c].clone()
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

    /// This worker's `(x, y)` partial: the chunk dots summed in color
    /// order.
    #[inline]
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for rows in self.chunks() {
            acc += vecops::dot(&x[rows.clone()], &y[rows]);
        }
        acc
    }

    /// Copy the owned rows of `src` into `dst`.
    ///
    /// # Safety
    /// The phase discipline of [`crate::shared`]: `src` is not a view of
    /// `dst`, and no other worker touches `dst`'s owned rows this phase.
    #[inline]
    unsafe fn copy(&self, src: &[f64], dst: &SharedVec) {
        for rows in self.chunks() {
            // SAFETY: `rows` is owned, so the caller's contract makes this
            // worker its only writer and reader this phase.
            unsafe { dst.write(rows.clone()) }.copy_from_slice(&src[rows]);
        }
    }

    /// `u += α·p`, `r −= α·kp` over the owned rows (the fused vecops
    /// kernel, chunk by chunk), returning this worker's ‖Δu‖∞ partial
    /// `|α|·max|p|`.
    ///
    /// # Safety
    /// As for [`OwnedRows::copy`], for both `u` and `r`; neither `p` nor
    /// `kp` is a view of `u` or `r`.
    #[inline]
    unsafe fn fused_update(
        &self,
        alpha: f64,
        p: &[f64],
        kp: &[f64],
        u: &SharedVec,
        r: &SharedVec,
    ) -> f64 {
        let mut p_max = 0.0f64;
        for rows in self.chunks() {
            // SAFETY: `rows` is owned; the caller's contract makes this
            // worker the only writer and reader of it in `u` and `r`.
            let (uo, ro) = unsafe { (u.write(rows.clone()), r.write(rows.clone())) };
            let norms = vecops::fused_axpy_axpy_norm(alpha, &p[rows.clone()], &kp[rows], uo, ro);
            p_max = p_max.max(norms.p_norm_inf);
        }
        alpha.abs() * p_max
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
/// [`SweepTable`] on it; every iteration phase streams that single table
/// through the CSR row kernel (the source operator is not retained:
/// per-worker strips are tiny, so a format's slice/block kernels could not
/// be engaged anyway, and holding it would double the matrix memory). The
/// copy walks rows in ascending column order, so two formats storing the
/// same matrix produce identical tables and therefore
/// **bitwise-identical** solver runs.
pub struct ParallelMStepPcg {
    /// The color-blocked matrix, its partition and the sweep split.
    table: SweepTable,
    alphas: Vec<f64>,
    /// Polynomial msolve configuration (barrier-free alternative to the
    /// SSOR sweeps; mutually exclusive with nonempty `alphas`).
    poly: Option<ParPoly>,
}

/// The polynomial msolve's precomputed schedule, replicated read-only
/// into every worker — the scalars of the serial
/// [`mspcg_core::PolynomialPreconditioner`] over the same operator.
struct ParPoly {
    kind: PolyKind,
    schedule: PolySchedule,
}

/// Shared scratch of the polynomial msolve (zero-length when the
/// configuration runs SSOR sweeps or plain CG): the difference carry `d`
/// and the second iterate bank `zb` of the two-bank rotation.
struct PolyScratch<'a> {
    d: &'a SharedVec,
    zb: &'a SharedVec,
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
            poly: None,
        })
    }

    /// Build the **barrier-free polynomial** configuration: the plain-CG
    /// phase structure with a degree-`degree` polynomial msolve on the
    /// Lanczos-estimated spectrum of the Jacobi-scaled operator — the
    /// SPMD counterpart of [`mspcg_core::PolynomialPreconditioner`],
    /// sharing its spectrum recipe and schedule scalars (and therefore
    /// its cached-interval determinism: two instances over the same
    /// operator replay bitwise).
    ///
    /// # Errors
    /// The construction errors of [`ParallelMStepPcg::new`], plus the
    /// spectrum-estimation and schedule-validation errors of
    /// [`mspcg_core::PolySchedule`] (zero degree, nonpositive interval).
    pub fn poly<A: SparseOp>(
        matrix: &A,
        colors: &Partition,
        kind: PolyKind,
        degree: usize,
    ) -> Result<Self, SparseError> {
        Self::auto(matrix, colors, 0, PrecondKind::Poly { kind, degree })
    }

    /// Resolve `selection` with [`mspcg_core::poly::resolve_precond`] —
    /// the same resolution, fallbacks included, as the serial
    /// [`mspcg_core::auto_preconditioner`] — and build the chosen SPMD
    /// configuration. `Auto` is the paper's parametrized m-step SSOR:
    /// min-max α on the SSOR interval, estimated on the sweep table this
    /// solver streams (no second matrix copy), with `m` walked up from
    /// `m_default` by inequality (4.2); [`ParallelMStepPcg::alphas`] shows
    /// the result, all ones when it fell back to α = 1.
    ///
    /// # Errors
    /// The construction errors of [`ParallelMStepPcg::new`], and the
    /// resolution's and [`mspcg_core::PolySchedule`]'s errors.
    pub fn auto<A: SparseOp>(
        matrix: &A,
        colors: &Partition,
        m_default: usize,
        selection: PrecondKind,
    ) -> Result<Self, SparseError> {
        let mut base = Self::shared(matrix, Arc::new(colors.clone()), Vec::new())?;
        match resolve_precond(matrix, Some(&base.table), m_default, selection)? {
            ResolvedPrecond::MStepSsor { alphas, .. } => base.alphas = alphas,
            ResolvedPrecond::Poly {
                kind,
                degree,
                interval,
            } => {
                let schedule = PolySchedule::new(kind, interval.min, interval.max, degree)?;
                base.poly = Some(ParPoly { kind, schedule });
            }
        }
        Ok(base)
    }

    /// The preconditioner this instance applies — never
    /// [`PrecondKind::Auto`]; `MStepSsor { m: 0 }` is plain CG.
    pub fn precond(&self) -> PrecondKind {
        match &self.poly {
            Some(p) => PrecondKind::Poly {
                kind: p.kind,
                degree: p.schedule.degree(),
            },
            None => PrecondKind::MStepSsor {
                m: self.alphas.len(),
            },
        }
    }

    /// Number of preconditioner steps (0 = plain CG).
    pub fn m(&self) -> usize {
        self.alphas.len()
    }

    /// The m-step SSOR coefficients (`alphas[i]` multiplies `Gⁱ P⁻¹`;
    /// empty for plain CG and the polynomial msolve).
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// System dimension.
    #[inline]
    fn dim(&self) -> usize {
        self.table.matrix().rows()
    }

    /// `out ← K·x` over the worker's strip, chunk by chunk in color order.
    /// A claimed SpMV `fault` perturbs its row of the fresh output, then
    /// `fuse(rows, out_chunk)` runs while the chunk is still hot: the
    /// callers' partials ride it, so no partial needs a barrier of its
    /// own.
    ///
    /// # Safety
    /// The phase discipline of [`crate::shared`]: `x` was finalized
    /// before the last barrier, and no other worker touches `out`'s owned
    /// rows this phase.
    #[inline]
    unsafe fn own_spmv(
        &self,
        own: &OwnedRows,
        x: &[f64],
        out: &SharedVec,
        fault: Option<(usize, FaultKind)>,
        mut fuse: impl FnMut(std::ops::Range<usize>, &mut [f64]),
    ) {
        for rows in own.chunks() {
            // SAFETY: `rows` is owned; the caller's contract makes this
            // worker its only writer and reader in `out` this phase.
            let y = unsafe { out.write(rows.clone()) };
            self.table.matrix().mul_vec_range_into(x, y, rows.clone());
            if let Some((index, kind)) = fault.filter(|(index, _)| rows.contains(index)) {
                y[index - rows.start] = perturb(y[index - rows.start], kind);
            }
            fuse(rows, y);
        }
    }

    fn resolve_threads(&self, requested: usize) -> usize {
        let t = if requested == 0 {
            mspcg_sparse::par::max_threads()
        } else {
            requested
        };
        t.clamp(1, self.dim().max(1))
    }

    /// Solve `K u = f` from the zero initial guess.
    ///
    /// A non-finite replicated scalar restarts the solve in place from the
    /// current iterate (the decision is replicated, so every worker takes
    /// it). When [`ParallelSolverOptions::recovery`] turns auditing on,
    /// every `audit_period` iterations a fused `f − K·u` phase compares the
    /// true residual against the recurrence carry; divergence beyond the
    /// replacement bound replaces the carry the same way.
    ///
    /// # Errors
    /// [`SparseError::NotPositiveDefinite`] on breakdown,
    /// [`SparseError::DidNotConverge`] on budget exhaustion,
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
        self.solve_impl(f, opts, None)
    }

    /// [`ParallelMStepPcg::solve`] under an iteration-indexed
    /// [`FaultPlan`]: at each planned `(target, iteration)` the worker
    /// owning `index` perturbs its freshly computed kernel output before
    /// the fused partials are formed — deterministic at every thread
    /// count, so the returned counters prove the recovery path.
    ///
    /// # Errors
    /// Same classes as [`ParallelMStepPcg::solve`].
    pub fn solve_with_faults(
        &self,
        f: &[f64],
        opts: &ParallelSolverOptions,
        plan: &FaultPlan,
    ) -> Result<ParallelSolveReport, SparseError> {
        self.solve_impl(f, opts, Some(plan))
    }

    fn solve_impl(
        &self,
        f: &[f64],
        opts: &ParallelSolverOptions,
        plan: Option<&FaultPlan>,
    ) -> Result<ParallelSolveReport, SparseError> {
        validate_inputs(opts.tol, &opts.recovery, f, &[])?;
        let n = self.dim();
        if f.len() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (f.len(), 1),
            });
        }
        let f_norm = f.iter().map(|v| v * v).sum::<f64>().sqrt();
        let audit = AuditPlan::new(&opts.recovery, opts.tol, f_norm);
        let threads = self.resolve_threads(opts.threads);

        let owned = OwnedRows::map(self.table.colors(), threads);

        let u = SharedVec::zeros(n);
        let r = SharedVec::from_vec(f.to_vec());
        let z = SharedVec::zeros(n);
        let p = SharedVec::zeros(n);
        let kp = SharedVec::zeros(n);
        let y = SharedVec::zeros(n);
        // Polynomial msolve scratch: the difference carry `d` (own-strip
        // only) and the second iterate bank `zb` of the two-bank rotation
        // (read cross-strip by the chained SpMVs). Zero-length for the
        // sweep and plain-CG configurations.
        let poly_d = SharedVec::zeros(if self.poly.is_some() { n } else { 0 });
        let poly_zb = SharedVec::zeros(if self.poly.is_some() { n } else { 0 });
        // Rotating partial banks: a phase's partial writes must never
        // alias a straggler's replicated-reduction reads of the previous
        // bank (at least one barrier always separates a bank's readers
        // from its next writer).
        let dot_partials = SharedVec::zeros(threads);
        let change_partials = SharedVec::zeros(threads);
        let rz_partials = SharedVec::zeros(threads);
        let bank = ScalarBank::new();
        let barrier = SpinBarrier::new(threads);
        // Audit scratch: the true-residual vector and the deviation
        // partial bank, allocated only when the policy resolved auditing
        // on (their phases never run otherwise).
        let aud = SharedVec::zeros(if audit.enabled { n } else { 0 });
        let dev_partials = SharedVec::zeros(if audit.enabled { threads } else { 0 });
        // [iterations, final_change, reduction_phases, audits,
        //  replacements, faults_detected]
        let iters_out = SharedVec::zeros(6);

        let pscr = PolyScratch {
            d: &poly_d,
            zb: &poly_zb,
        };
        std::thread::scope(|s| {
            for t in 0..threads {
                let own = &owned[t];
                let (u, r, z, p, kp, y, bank, barrier, iters_out) =
                    (&u, &r, &z, &p, &kp, &y, &bank, &barrier, &iters_out);
                let (dot_partials, change_partials, rz_partials) =
                    (&dot_partials, &change_partials, &rz_partials);
                let pscr = &pscr;
                let (aud, dev_partials) = (&aud, &dev_partials);
                let this = &*self;
                // `serialized` pins the shared kernels to this worker:
                // each strip is small by construction, so nested pool
                // launches would only add contention.
                s.spawn(move || {
                    mspcg_sparse::par::serialized(|| {
                        this.worker(
                            t,
                            own,
                            u,
                            r,
                            z,
                            p,
                            kp,
                            y,
                            pscr,
                            dot_partials,
                            change_partials,
                            rz_partials,
                            f,
                            aud,
                            dev_partials,
                            &audit,
                            plan,
                            bank,
                            barrier,
                            iters_out,
                            opts,
                        );
                    });
                });
            }
        });

        let code = unsafe { bank.get(slot::STOP) };
        let out = iters_out.into_vec();
        let iterations = out[0] as usize;
        let final_change = out[1];
        let reduction_phases = out[2] as usize;
        let audits = out[3] as usize;
        let replacements = out[4] as usize;
        let faults_detected = out[5] as usize;
        match code {
            c if c == status::NONFINITE => Err(SparseError::NonFinite {
                phase: "replicated-reduction",
                iteration: iterations,
            }),
            c if c == status::INDEFINITE_K => Err(SparseError::NotPositiveDefinite {
                pivot: iterations,
                value: -1.0,
            }),
            c if c == status::INDEFINITE_M => Err(SparseError::NotPositiveDefinite {
                pivot: iterations,
                value: -2.0,
            }),
            c if c == status::BUDGET => Err(SparseError::DidNotConverge {
                iterations,
                residual: final_change,
            }),
            _ => Ok(ParallelSolveReport {
                x: u.into_vec(),
                iterations,
                converged: true,
                final_change,
                threads,
                barrier_crossings: barrier.crossings(),
                reduction_phases,
                split_crossings: 0,
                audits,
                replacements,
                recoveries: 0,
                faults_detected,
            }),
        }
    }

    /// The SPMD body of Algorithm 1. All `unsafe` blocks follow the phase discipline documented in [`crate::shared`]: writes
    /// go only to owned rows (in a sweep phase, only to the owned chunk of
    /// the current color), reads only touch elements finalized before the
    /// previous barrier or written by this worker in the current phase.
    ///
    /// Scalar reductions (α, β, the stopping test) are **replicated**:
    /// after the barrier that publishes a partial bank, every worker sums
    /// it in ascending index order, obtaining bitwise-identical scalars —
    /// so every control-flow branch below is taken unanimously and no
    /// broadcast phase is needed. Worker 0 alone records the outcome for
    /// the main thread.
    #[allow(clippy::too_many_arguments)]
    fn worker(
        &self,
        t: usize,
        own: &OwnedRows,
        u: &SharedVec,
        r: &SharedVec,
        z: &SharedVec,
        p: &SharedVec,
        kp: &SharedVec,
        y: &SharedVec,
        pscr: &PolyScratch<'_>,
        dot_partials: &SharedVec,
        change_partials: &SharedVec,
        rz_partials: &SharedVec,
        f: &[f64],
        aud: &SharedVec,
        dev_partials: &SharedVec,
        audit: &AuditPlan,
        plan: Option<&FaultPlan>,
        bank: &ScalarBank,
        barrier: &SpinBarrier,
        iters_out: &SharedVec,
        opts: &ParallelSolverOptions,
    ) {
        // Replicated reduction phases consumed so far (worker 0 publishes
        // the count at every exit; the ‖Δu‖∞ flag-network max is not a
        // dot-product phase and is not counted).
        let mut phases = 0usize;
        let mut audits = 0usize;
        let mut replacements = 0usize;
        let mut faults = 0usize;
        // Worker-0 outcome publication (every branch below is taken
        // unanimously — the scalars are replicated).
        macro_rules! finish {
            ($code:expr, $iterations:expr, $change:expr) => {
                if t == 0 {
                    unsafe {
                        bank.set(slot::STOP, $code);
                        iters_out.write_at(0, $iterations as f64);
                        iters_out.write_at(1, $change);
                        iters_out.write_at(2, phases as f64);
                        iters_out.write_at(3, audits as f64);
                        iters_out.write_at(4, replacements as f64);
                        iters_out.write_at(5, faults as f64);
                    }
                }
            };
        }
        // In-place recovery from a non-finite reduction scalar: recompute
        // the true residual `r ← f − K·u` and re-derive z, p, (z, r) —
        // the same restart the serial classic loop performs — looping
        // while the replacement budget lasts, then guard the fresh (z, r)
        // like the init sequence. `rz` holds the fresh scalar afterwards.
        macro_rules! recover_or_return {
            ($rz:ident, $completed:expr) => {{
                faults += 1;
                loop {
                    if replacements >= audit.max_replacements {
                        finish!(status::NONFINITE, $completed, 0.0);
                        return;
                    }
                    replacements += 1;
                    $rz = self.reinit_phase(
                        own,
                        t,
                        f,
                        u,
                        r,
                        z,
                        p,
                        y,
                        pscr,
                        rz_partials,
                        barrier,
                        None,
                    );
                    phases += 1;
                    if $rz.is_finite() {
                        break;
                    }
                    faults += 1;
                }
                if $rz < 0.0 {
                    finish!(status::INDEFINITE_M, $completed, 0.0);
                    return;
                }
                if $rz == 0.0 {
                    finish!(status::CONVERGED, $completed, 0.0);
                    return;
                }
                if $completed >= opts.max_iterations {
                    finish!(status::BUDGET, $completed, f64::INFINITY);
                    return;
                }
            }};
        }

        // --- init: z = M⁻¹ r, with p ← z and the (z, r) partial fused
        // into the preconditioner's final color phase — no extra barriers.
        self.msolve_phases(own, t, r, z, y, pscr, Some(p), rz_partials, barrier);
        self.inject_msolve_fault(plan, 0, own, z, Some(p), barrier);
        let mut rz: f64 = unsafe { rz_partials.read().iter().sum() };
        phases += 1;
        if !rz.is_finite() {
            recover_or_return!(rz, 0);
        }
        if rz < 0.0 {
            finish!(status::INDEFINITE_M, 0, 0.0);
            return;
        }
        if rz == 0.0 {
            finish!(status::CONVERGED, 0, 0.0);
            return;
        }
        if opts.max_iterations == 0 {
            // A zero budget with a nonzero residual is exhaustion, not
            // convergence — the serial solver reports the same.
            finish!(status::BUDGET, 0, f64::INFINITY);
            return;
        }

        for iter in 1..=opts.max_iterations {
            // --- audit: every `period` iterations recompute the true
            // residual in one fused phase (one barrier, no reduction
            // phase) and compare it against the carried r; on divergence
            // beyond the bound, adopt the true residual and re-derive
            // z, p, (z, r) exactly like the init sequence.
            if audit.enabled
                && replacements < audit.max_replacements
                && audit_due(iter, 0, audit.period)
            {
                let dev2 = self.audit_phase(own, t, f, u, r, aud, dev_partials, barrier);
                audits += 1;
                // Iterations completed if a guard fires inside the
                // replacement below (named so the macro's budget test
                // doesn't expand to clippy's int_plus_one pattern).
                let completed = iter - 1;
                // NaN deviation fails `<=` and replaces too.
                if diverged(dev2, audit.bound2) {
                    replacements += 1;
                    rz = self.reinit_phase(
                        own,
                        t,
                        f,
                        u,
                        r,
                        z,
                        p,
                        y,
                        pscr,
                        rz_partials,
                        barrier,
                        Some(aud),
                    );
                    phases += 1;
                    if !rz.is_finite() {
                        recover_or_return!(rz, completed);
                    }
                    if rz < 0.0 {
                        finish!(status::INDEFINITE_M, iter - 1, 0.0);
                        return;
                    }
                    if rz == 0.0 {
                        // The adopted true residual is exactly zero.
                        finish!(status::CONVERGED, iter - 1, 0.0);
                        return;
                    }
                }
            }

            // --- kp = K p ⊕ (p, Kp) partial: the strip of kp this worker
            // just wrote is exactly the strip the partial reads, so the
            // dot needs no barrier of its own.
            unsafe {
                let pv = p.read();
                let fault = claim_fault(plan, FaultTarget::Spmv, iter, own);
                let mut pkp = 0.0;
                self.own_spmv(own, pv, kp, fault, |rows, out| {
                    pkp += vecops::dot(&pv[rows], out);
                });
                dot_partials.write_at(t, pkp);
            }
            barrier.wait();

            // --- α (replicated) ---------------------------------------------
            let denom: f64 = unsafe { dot_partials.read().iter().sum() };
            phases += 1;
            if !denom.is_finite() {
                recover_or_return!(rz, iter);
                continue;
            }
            if denom <= 0.0 {
                finish!(
                    if rz == 0.0 {
                        status::CONVERGED
                    } else {
                        status::INDEFINITE_K
                    },
                    iter - 1,
                    0.0
                );
                return;
            }
            let alpha = rz / denom;

            // --- u += αp; r −= α·Kp ⊕ ‖Δu‖∞ partial (fused kernel) ----------
            unsafe {
                let dx = own.fused_update(alpha, p.read(), kp.read(), u, r);
                change_partials.write_at(t, dx);
            }
            barrier.wait();

            // --- convergence test (replicated flag network) ------------------
            let change = unsafe { change_partials.read().iter().fold(0.0f64, |a, &b| a.max(b)) };
            if !change.is_finite() {
                // The ∞-norm max swallows NaN, but an Inf step surfaces
                // here (u may already be poisoned — the restart budget
                // bounds the damage).
                recover_or_return!(rz, iter);
                continue;
            }
            if change < opts.tol {
                finish!(status::CONVERGED, iter, change);
                return;
            }
            if iter == opts.max_iterations {
                finish!(status::BUDGET, iter, change);
                return;
            }

            // --- z = M⁻¹ r, (z, r) partial fused into the final phase --------
            self.msolve_phases(own, t, r, z, y, pscr, None, rz_partials, barrier);
            self.inject_msolve_fault(plan, iter, own, z, None, barrier);

            // --- β (replicated) ---------------------------------------------
            let rz_new: f64 = unsafe { rz_partials.read().iter().sum() };
            phases += 1;
            if !rz_new.is_finite() {
                recover_or_return!(rz, iter);
                continue;
            }
            if rz_new < 0.0 {
                finish!(status::INDEFINITE_M, iter, change);
                return;
            }
            let beta = rz_new / rz.max(1e-300);
            rz = rz_new;

            // --- p = z + βp (shared xpby kernel) -----------------------------
            unsafe {
                let zv = z.read();
                for rows in own.chunks() {
                    vecops::xpby(&zv[rows.clone()], beta, p.write(rows));
                }
            }
            barrier.wait();
        }
    }

    /// The restart phase, shared by the audit-replace and non-finite
    /// recovery paths: refresh `r` to the true residual —
    /// adopting the audited copy when one is on hand (`fresh`), else
    /// recomputing `r ← f − K·u` over the strip — then re-derive
    /// `z = M⁻¹r`, `p ← z` and the `(z, r)` partial exactly like the init
    /// sequence, returning the replicated fresh scalar.
    ///
    /// No barrier precedes the `r` overwrite: every entry point has just
    /// consumed a replicated scalar (all workers are past its publishing
    /// barrier), and the sweep msolve never reads `r` cross-strip.
    /// The polynomial msolve *does* read `r` cross-strip in its fused
    /// first phase, so one extra barrier separates the overwrite from it.
    #[allow(clippy::too_many_arguments)]
    fn reinit_phase(
        &self,
        own: &OwnedRows,
        t: usize,
        f: &[f64],
        u: &SharedVec,
        r: &SharedVec,
        z: &SharedVec,
        p: &SharedVec,
        y: &SharedVec,
        pscr: &PolyScratch<'_>,
        rz_partials: &SharedVec,
        barrier: &SpinBarrier,
        fresh: Option<&SharedVec>,
    ) -> f64 {
        unsafe {
            match fresh {
                Some(aud) => own.copy(aud.read(), r),
                None => self.own_spmv(own, u.read(), r, None, |rows, ro| {
                    for (k, i) in rows.enumerate() {
                        ro[k] = f[i] - ro[k];
                    }
                }),
            }
        }
        if self.poly.is_some() {
            barrier.wait();
        }
        self.msolve_phases(own, t, r, z, y, pscr, Some(p), rz_partials, barrier);
        unsafe { rz_partials.read().iter().sum() }
    }

    /// The fused audit phase: `aud ← f − K·u`
    /// over the strip ⊕ the squared-deviation partial against the
    /// recurrence carry `r` — one barrier — then the replicated deviation
    /// sum. `u` and `r` were finalized by the previous iteration's
    /// barriers; `aud` and the partial bank are only ever read own-strip
    /// before the next audit, which is at least a period of barriers
    /// away.
    #[allow(clippy::too_many_arguments)]
    fn audit_phase(
        &self,
        own: &OwnedRows,
        t: usize,
        f: &[f64],
        u: &SharedVec,
        r: &SharedVec,
        aud: &SharedVec,
        dev_partials: &SharedVec,
        barrier: &SpinBarrier,
    ) -> f64 {
        unsafe {
            let rv = r.read();
            let mut dev2 = 0.0;
            self.own_spmv(own, u.read(), aud, None, |rows, out| {
                for (k, i) in rows.enumerate() {
                    let rt = f[i] - out[k];
                    out[k] = rt;
                    let d = rt - rv[i];
                    dev2 += d * d;
                }
            });
            dev_partials.write_at(t, dev2);
        }
        barrier.wait();
        unsafe { dev_partials.read().iter().sum() }
    }

    /// Apply a planned preconditioner-output fault *after* the msolve's
    /// final barrier: the owner of `index` perturbs the output (and the
    /// initialized `p⁰` copy, when given — the init fuses `p ← z` into
    /// the sweep, so the fault must land in both). Because the next phase
    /// may read the output cross-strip, every worker crosses one extra
    /// barrier on fault iterations — the lookup is replicated, so the
    /// decision is unanimous and the crossing count stays in lockstep.
    fn inject_msolve_fault(
        &self,
        plan: Option<&FaultPlan>,
        iteration: usize,
        own: &OwnedRows,
        z: &SharedVec,
        p0: Option<&SharedVec>,
        barrier: &SpinBarrier,
    ) {
        if let Some(fault) = plan.and_then(|pl| pl.find(FaultTarget::Msolve, iteration)) {
            if own.contains(fault.index) {
                unsafe {
                    let v = perturb(z.read()[fault.index], fault.kind);
                    z.write_at(fault.index, v);
                    if let Some(p) = p0 {
                        p.write_at(fault.index, v);
                    }
                }
            }
            barrier.wait();
        }
    }

    /// Barrier-per-color m-step SSOR solve `z ← M⁻¹ r` (ω = 1), or a plain
    /// copy when no coefficients are set (plain CG).
    ///
    /// Two fusions remove the surrounding barriers:
    /// * the `w₀ = 0` start is folded into the first forward sweep (step 1
    ///   reads neither `z` outside the current pass nor the `y` cache, so
    ///   the old zero-fill phase and its barrier are gone), exactly like
    ///   the sequential `MulticolorSsor::forward_first`;
    /// * the **final color phase** additionally forms this worker's
    ///   `(z, r)` strip partial in `rz_partials` — every `z` element of
    ///   the strip was written by this worker in this or an earlier phase
    ///   of the solve, so the partial needs no extra barrier — and, during
    ///   initialization (`p0 = Some`), copies the strip into `p⁰`.
    #[allow(clippy::too_many_arguments)]
    fn msolve_phases(
        &self,
        own: &OwnedRows,
        t: usize,
        r: &SharedVec,
        z: &SharedVec,
        y: &SharedVec,
        pscr: &PolyScratch<'_>,
        p0: Option<&SharedVec>,
        rz_partials: &SharedVec,
        barrier: &SpinBarrier,
    ) {
        if let Some(poly) = &self.poly {
            self.poly_msolve_phases(poly, own, t, r, z, y, pscr, p0, rz_partials, barrier);
            return;
        }
        // Tail fused into the final phase, before its barrier. SAFETY of
        // the reads: only own-strip elements of z are touched, and all of
        // them were written by this worker (in color phase `c` it writes
        // its chunk of color `c`); r was finalized before the
        // preconditioner began.
        let tail = || unsafe {
            let zs = z.read();
            if let Some(p) = p0 {
                own.copy(zs, p);
            }
            rz_partials.write_at(t, own.dot(zs, r.read()));
        };
        if self.alphas.is_empty() {
            unsafe { own.copy(r.read(), z) };
            tail();
            barrier.wait();
            return;
        }
        let m = self.alphas.len();
        let nb = self.table.colors().num_blocks();
        let inv_diag = self.table.inv_diag();
        for s in 1..=m {
            let alpha = self.alphas[m - s];
            let first_step = s == 1;
            let last_step = s == m;
            // Forward pass: one barrier per color. Within a color phase,
            // every worker writes its own chunk of the color (one writer
            // per row) and reads only other colors (finalized) — the
            // multicolor guarantee. In the first step the upper half-sums
            // are structurally zero (fused `w₀ = 0` start), so the stale
            // `y` cache is never read.
            for c in 0..nb {
                let last = c == nb - 1;
                unsafe {
                    let rv = r.read();
                    let zv = z.read();
                    let yv = y.read();
                    for i in own.chunk(c) {
                        let lower = self.table.lower_sum(i, zv);
                        let upper = if last || first_step { 0.0 } else { yv[i] };
                        let xi = (alpha * rv[i] - lower - upper) * inv_diag[i];
                        z.write_at(i, xi);
                        y.write_at(i, lower);
                    }
                }
                if last_step && last && nb == 1 {
                    // Single color: no backward pass — this is the final
                    // phase of the whole solve.
                    tail();
                }
                barrier.wait();
            }
            // Backward pass (skip the idempotent last color at ω = 1).
            for c in (0..nb.saturating_sub(1)).rev() {
                unsafe {
                    let rv = r.read();
                    let zv = z.read();
                    let yv = y.read();
                    for i in own.chunk(c) {
                        let upper = self.table.upper_sum(i, zv);
                        let lower = yv[i];
                        let xi = (alpha * rv[i] - lower - upper) * inv_diag[i];
                        z.write_at(i, xi);
                        y.write_at(i, upper);
                    }
                }
                if last_step && c == 0 {
                    tail();
                }
                barrier.wait();
            }
        }
    }

    /// Barrier-free polynomial msolve `z ← p(G)·D⁻¹r`, `G = D⁻¹K`:
    /// exactly `degree` fused SpMV phases, one full barrier each, **zero
    /// color sweeps**.
    ///
    /// Phase 1 folds the recurrence seed (`z₀ = s₀·D⁻¹r`, `d₀ = z₀`) into
    /// the first SpMV: `K·z₀` is accumulated on the fly from the input
    /// `r` — a cross-strip read, which every call site guarantees is
    /// separated from the last write of `r` by a barrier (the sweep
    /// msolve reads `r` own-strip only, so the restart path inserts one
    /// extra barrier for the polynomial — counted in the pinned
    /// formulas). Each phase then applies one difference step own-strip —
    /// the `vecops::poly_step_chunk` arithmetic, term for term, so the
    /// chain is bitwise identical to the serial
    /// [`mspcg_core::PolynomialPreconditioner`] on identical inputs.
    ///
    /// The iterate banks alternate between the caller's `z` and the
    /// scratch bank `zb`, phased so the **final** step lands in the
    /// caller's vector (`z` is written by phase `j` iff `k − j` is even).
    /// A phase's SpMV reads the previous phase's bank cross-strip; the
    /// next write of that bank is separated from those reads by the
    /// intervening phase barrier — the same discipline as the rotating
    /// partial banks. The difference carry `d` and the `K·z` strip (parked
    /// in the SSOR half-sum cache `y`, which the polynomial path never
    /// touches) are own-strip only. The `(z, r)`
    /// partial and the init `p⁰ ← z` copy fuse into the final phase
    /// before its barrier, exactly like the sweep tail.
    #[allow(clippy::too_many_arguments)]
    fn poly_msolve_phases(
        &self,
        poly: &ParPoly,
        own: &OwnedRows,
        t: usize,
        r: &SharedVec,
        z: &SharedVec,
        y: &SharedVec,
        pscr: &PolyScratch<'_>,
        p0: Option<&SharedVec>,
        rz_partials: &SharedVec,
        barrier: &SpinBarrier,
    ) {
        let scale0 = poly.schedule.scale0();
        let steps = poly.schedule.steps();
        let k = steps.len();
        let (d, zb) = (pscr.d, pscr.zb);
        let (a, inv_diag) = (self.table.matrix(), self.table.inv_diag());
        for (step, &(aj, bj)) in steps.iter().enumerate() {
            let j = step + 1;
            let to_z = (k - j).is_multiple_of(2);
            unsafe {
                let rv = r.read();
                let prev = if to_z { zb.read() } else { z.read() };
                for rows in own.chunks() {
                    let kz = y.write(rows.clone());
                    if j == 1 {
                        // kz = K·z₀ with z₀ = scale₀·D⁻¹r formed on the
                        // fly (the same expression as the seed below, so
                        // the virtual z₀ is consistent across both uses).
                        for (o, i) in rows.clone().enumerate() {
                            let mut acc = 0.0;
                            for e in a.row_ptr()[i]..a.row_ptr()[i + 1] {
                                let c = a.col_idx()[e] as usize;
                                acc += a.values()[e] * (scale0 * inv_diag[c] * rv[c]);
                            }
                            kz[o] = acc;
                        }
                    } else {
                        a.mul_vec_range_into(prev, kz, rows.clone());
                    }
                    let dv = d.write(rows.clone());
                    let out = if to_z {
                        z.write(rows.clone())
                    } else {
                        zb.write(rows.clone())
                    };
                    if j == 1 {
                        // Seed and first step in one own-strip pass.
                        for (o, i) in rows.enumerate() {
                            let zi = scale0 * inv_diag[i] * rv[i];
                            let resid = inv_diag[i] * (rv[i] - kz[o]);
                            let di = aj * zi + bj * resid;
                            dv[o] = di;
                            out[o] = zi + di;
                        }
                    } else {
                        for (o, i) in rows.enumerate() {
                            let resid = inv_diag[i] * (rv[i] - kz[o]);
                            let di = aj * dv[o] + bj * resid;
                            dv[o] = di;
                            out[o] = prev[i] + di;
                        }
                    }
                }
                if j == k {
                    // Fused tail: z was fully written own-strip above.
                    let zs = z.read();
                    if let Some(p) = p0 {
                        own.copy(zs, p);
                    }
                    rz_partials.write_at(t, own.dot(zs, rv));
                }
            }
            barrier.wait();
        }
    }
}

/// The fault the worker owning `index` must inject at `(target,
/// iteration)`, if any. Every worker evaluates the same replicated
/// lookup; only the owner acts (SpMV faults are applied to the owner's
/// freshly written strip before its fused partial, so no extra barrier
/// is needed).
fn claim_fault(
    plan: Option<&FaultPlan>,
    target: FaultTarget,
    iteration: usize,
    own: &OwnedRows,
) -> Option<(usize, FaultKind)> {
    plan.and_then(|p| p.find(target, iteration))
        .filter(|fault| own.contains(fault.index))
        .map(|fault| (fault.index, fault.kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_core::{pcg_solve, AutoPreconditioner, MStepSsorPreconditioner, PcgOptions};
    use mspcg_fem::plate::PlaneStressProblem;
    use mspcg_sparse::CsrMatrix;

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
                    let chunks: Vec<_> = map.iter().map(|own| own.chunk(c)).collect();
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
    /// replicated-reduction counter proves two reduction phases per
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
                // the converging iteration stops after its second.
                assert_eq!(
                    rep.barrier_crossings,
                    sweep + (k - 1) * (sweep + 3) + 2,
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
        FaultPlan::new(vec![mspcg_core::recovery::IterationFault {
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
        let plan = FaultPlan::new(vec![mspcg_core::recovery::IterationFault {
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

    // ------------------- polynomial msolve ------------------------------

    #[test]
    fn poly_matches_sequential_polynomial_solver() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, 4).unwrap();
        assert_eq!(
            par.precond(),
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 4
            }
        );
        let rep = par.solve(&rhs, &pinned_opts(4, 1e-8)).unwrap();
        let pre = mspcg_core::PolynomialPreconditioner::chebyshev(a.clone(), 4).unwrap();
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

    /// The acceptance gate of the polynomial msolve, by exact formula: a
    /// degree-`k` application costs exactly `k` full-barrier crossings
    /// (one fused SpMV phase each) — **zero color sweeps** — so the
    /// per-iteration budget is the sweep formula with `sweep → k`:
    /// `k + (I−1)(k+3) + 2` crossings, `2I` reduction phases.
    #[test]
    fn barrier_counter_proves_polynomial_schedule() {
        let (a, colors, rhs) = plate(8);
        for k in [2usize, 4] {
            let par = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, k).unwrap();
            for threads in [1usize, 4] {
                let rep = par.solve(&rhs, &pinned_opts(threads, 1e-8)).unwrap();
                assert!(rep.converged);
                let i = rep.iterations;
                assert!(i >= 1);
                assert_eq!(
                    rep.barrier_crossings,
                    k + (i - 1) * (k + 3) + 2,
                    "poly barrier count, k = {k}, threads = {threads}"
                );
                assert_eq!(rep.reduction_phases, 2 * i);
                assert_eq!(rep.split_crossings, 0);
            }
        }
    }

    #[test]
    fn poly_is_deterministic_and_format_insensitive() {
        let (a, colors, rhs) = plate(7);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, 3).unwrap();
        let par_sell = ParallelMStepPcg::poly(&sell, &colors, PolyKind::Chebyshev, 3).unwrap();
        let opts = pinned_opts(4, 1e-8);
        let r1 = par_csr.solve(&rhs, &opts).unwrap();
        let r2 = par_csr.solve(&rhs, &opts).unwrap();
        // Bitwise reproducible.
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
        // And across storage formats: the SELL-C-σ row kernel is bitwise
        // the CSR row loop, so the Lanczos interval, the schedule, and
        // every iterate replay exactly.
        let rs = par_sell.solve(&rhs, &opts).unwrap();
        assert_eq!(r1.iterations, rs.iterations);
        assert!(
            r1.x.iter()
                .zip(&rs.x)
                .all(|(u, v)| u.to_bits() == v.to_bits()),
            "format divergence"
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The serial `Auto` resolution's coefficients and interval.
    fn serial_auto(a: &CsrMatrix, colors: &Partition) -> (Vec<f64>, Option<(f64, f64)>) {
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
        let auto = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::Auto).unwrap();
        let (alphas, interval) = serial_auto(&a, &colors);
        assert!(interval.is_some());
        assert_eq!(bits(auto.alphas()), bits(&alphas));
        assert_eq!(auto.precond(), PrecondKind::MStepSsor { m: alphas.len() });
        // Pinned selections pass through the auto constructor verbatim.
        let ssor = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::MStepSsor { m: 3 }).unwrap();
        assert_eq!(ssor.precond(), PrecondKind::MStepSsor { m: 3 });
        assert_eq!(ssor.alphas(), &[1.0; 3]);
        let newton = PrecondKind::Poly {
            kind: PolyKind::Newton,
            degree: 5,
        };
        let poly = ParallelMStepPcg::auto(&a, &colors, 2, newton).unwrap();
        assert_eq!(poly.precond(), newton);
        assert!(poly.alphas().is_empty());
        // All three solve the system: true relative residual ≤ 1e-8.
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for par in [&auto, &ssor, &poly] {
            let rep = par.solve(&rhs, &pinned_opts(2, 1e-10)).unwrap();
            assert!(rep.converged);
            let ku = a.mul_vec(&rep.x);
            let r: Vec<f64> = rhs.iter().zip(&ku).map(|(f, k)| f - k).collect();
            assert!(norm(&r) <= 1e-8 * norm(&rhs), "{:?}", par.precond());
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
        let auto = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::Auto).unwrap();
        assert_eq!(auto.precond(), PrecondKind::MStepSsor { m: 2 });
        assert_eq!(auto.alphas(), &[1.0, 1.0]);
        assert_eq!(serial_auto(&a, &colors), (vec![1.0, 1.0], None));
        let rep = auto.solve(&rhs, &pinned_opts(2, 1e-10)).unwrap();
        assert!(rep.converged);
        for (x, f) in rep.x.iter().zip(&rhs) {
            assert!((x - f / 3.0).abs() < 1e-10, "{x} vs {}", f / 3.0);
        }
        // A *pinned* polynomial stays pinned on the same operator: its
        // schedule absorbs the degenerate (safeguard-widened) interval.
        let chebyshev = PrecondKind::Poly {
            kind: PolyKind::Chebyshev,
            degree: 2,
        };
        let pinned = ParallelMStepPcg::auto(&a, &colors, 2, chebyshev).unwrap();
        assert_eq!(pinned.precond(), chebyshev);
    }
}
