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
//! partial banks (`dot`, `change`, `rz` — plus `ps` on the
//! single-reduction schedule) rotate so a fast worker's writes for phase
//! k+1 can never race a slow worker's reads from phase k.
//!
//! Per **classic** iteration (`C` colors, `m` steps):
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
//! i.e. `m·(2C−1) + 3` barriers per iteration, down from the unfused
//! `m·(2C−1) + 9` (separate dot/stop/reduce/fill phases). Results are
//! bit-identical to the unfused schedule: the fused kernels perform the
//! same arithmetic in the same order, only without the barriers.
//!
//! ## Single-reduction schedule
//!
//! The classic floor is its two *serialized* dot products: `(p, Kp)` must
//! close before α can scale the update, and `(z, r)` before β can build
//! the next direction — each pinning one extra barrier. Under
//! [`PcgVariant::SingleReduction`] the Chronopoulos–Gear recurrence
//! removes both waits: `s = Kp` is carried by the recurrence `s ← w + βs`
//! (`w = Kz`), and α/β are reconstructed from the **one** fused reduction
//! phase that rides the `w`-producing SpMV:
//!
//! ```text
//! p ← z + βp; s ← w + βs; u += αp;
//!   r −= αs ⊕ ‖Δu‖∞, (p, s) partials   1 barrier   (one mega-phase)
//! preconditioner (as above)             m·(2C−1) barriers
//! w ← K·z ⊕ (w, z) partial,
//!   (z, r) fused into the last sweep    1 barrier
//! ```
//!
//! i.e. `m·(2C−1) + 2` barriers and **one reduction phase** per iteration
//! (plain CG, `m = 0`: two barriers total, with `z ≡ r`). The recurrence
//! follows a different-but-bounded rounding path, so this schedule is
//! *not* bitwise identical to classic — it is bitwise reproducible within
//! the variant, and on recurrence breakdown (`(p, s) ≤ 0` or a
//! nonpositive reconstructed denominator) [`ParallelMStepPcg::solve`]
//! transparently reruns the solve on the classic schedule. Both barrier
//! and reduction-phase counts are measured, not asserted:
//! [`ParallelSolveReport::barrier_crossings`] /
//! [`ParallelSolveReport::reduction_phases`] come from the instrumented
//! [`SpinBarrier`] and the replicated-reduction counter.
//!
//! ## Pipelined schedule
//!
//! The single-reduction schedule still *blocks* at its one reduction:
//! every worker idles at the w-phase barrier until the partials are
//! replicated. Under [`PcgVariant::Pipelined`] (Ghysels–Vanroose) the
//! recurrence carries two more vectors (`q = M⁻¹s`, `zz = K·q`) and
//! recomputes two auxiliaries (`mv = M⁻¹w`, `nv = K·mv`) so the one
//! reduction reads only vectors finished in the *update* phase — it is
//! **initiated** there ([`SplitBarrier::arrive`]) and **consumed**
//! ([`SplitBarrier::wait`]) only after the preconditioner + SpMV:
//!
//! ```text
//! p ← z + βp; s ← w + βs; q ← mv + βq; zz ← nv + βzz;
//! u += αp; r −= αs; z −= αq; w −= αzz
//!   ⊕ γ′ = (r, z), δ = (w, z), ‖Δu‖∞, (p, s)
//!   partials, arrive()                  0 barriers  (split arrive)
//! mv ← M⁻¹ w                            m·(2C−1) barriers
//! nv ← K·mv, wait()                     0 barriers  (split wait)
//! ```
//!
//! i.e. `m·(2C−1)` full barriers plus **one split crossing** per
//! iteration — *fewer* full barriers than single-reduction, with the
//! reduction latency hidden behind the heaviest phase. The update phase
//! needs no trailing barrier because everything it touches is own-strip;
//! the cross-strip reads (`mv` in the trailing SpMV, the partial banks in
//! the replicated sums) are protected by rotating banks whose next write
//! is always separated from the last read by the following iteration's
//! msolve barriers (for plain CG, `m = 0`: `w` itself rotates and one
//! full barrier per iteration guards the cross-strip `K·w` read). The
//! price of the overlap is one speculative heavy phase on the converging
//! iteration and faster recurrence drift, guarded exactly like the
//! single-reduction schedule (every nonpositive scalar → classic rerun).
//! [`ParallelSolveReport::split_crossings`] measures the in-flight
//! reductions; the exact-formula counter test pins the whole schedule.
//!
//! ## s-step schedule (communication avoidance)
//!
//! The recurrence schedules above still pay **one reduction phase per
//! iteration**. Under [`PcgVariant::SStep`] the Chronopoulos–Gear
//! s-step formulation amortizes that floor: each outer step builds an
//! `s`-dimensional Krylov block with the Chebyshev three-term recurrence
//! on the cached Lanczos interval (near-orthogonal basis, so the block
//! Gram matrix stays well-conditioned where a monomial basis collapses),
//! pays **ONE fused Gram reduction phase for all `s` iterations** — the
//! partials of `VᵀAV`, `AP'ᵀV`, `Vᵀr`, `P'ᵀr` and `(r, r)` all ride the
//! block's final SpMV phase — then finishes with replicated small dense
//! work (coupling solve against the previous block, rank-revealing
//! Cholesky) and `s` own-strip update sub-steps in one mega-phase:
//!
//! ```text
//! v₁ ← M⁻¹r; per j = 2…s: SpMV + M⁻¹ + Chebyshev    s·m(2C−1) + 2(s−1) barriers
//! A·v_s ← K·v_s ⊕ ALL Gram partials                  1 barrier   (THE reduction)
//! replicated dense: B, W = PᵀKP, Cholesky, aⱼ        0 barriers  (unanimous)
//! P ← V + P'B; AP ← AV + AP'B; s sub-steps
//!   u += aⱼpⱼ, r −= aⱼ·apⱼ ⊕ per-sub-step ‖Δu‖∞     1 barrier   (one mega-phase)
//! ```
//!
//! i.e. `s·m(2C−1) + 2s` barriers and one reduction phase per `s`
//! iterations (polynomial msolve: `s(k+2)`; plain CG aliases `v₁ ≡ r`
//! and fuses the Chebyshev step into the SpMV phase: `s + 1`). The
//! stopping scan replays the classic per-iteration `|aⱼ|·‖pⱼ‖∞` test
//! sub-step by sub-step off the replicated change bank — converging at
//! iteration granularity, with the already-applied trailing sub-steps
//! rolled back own-strip. Basis breakdown (a rank-zero Gram factor or
//! any non-finite reduced scalar) steps down the ladder onto the
//! pipelined rung; a rank-*truncated* factor is the endgame (Krylov
//! grade < s), handled in place by running only the factored leading
//! sub-steps and restarting the recurrence.
//!
//! ## Polynomial msolve (barrier-free preconditioning)
//!
//! Every schedule above pays `m·(2C−1)` color-sweep barriers per m-step
//! SSOR application — the dominant synchronization term for realistic
//! color counts. [`ParallelMStepPcg::poly`] swaps the sweeps for the
//! degree-`k` **polynomial preconditioner** of `mspcg_core::poly`
//! (Newton or Chebyshev on the Lanczos-estimated spectrum of the
//! Jacobi-scaled operator): `z = p(D⁻¹K)·D⁻¹r` evaluated as `k` fused
//! SpMV phases, **one full barrier each and zero color sweeps** — the
//! msolve term drops from `m·(2C−1)` to `k` on every schedule. The
//! recurrence seed is folded into the first SpMV (accumulated on the fly
//! from the msolve input), the `(z, r)` partial and `p⁰` copy into the
//! last, and the iterate banks alternate between the caller's vector and
//! one scratch bank so a phase's cross-strip SpMV reads never race the
//! next phase's writes. The exact-formula counter test pins the
//! resulting schedules: per iteration, classic `k + 3` barriers,
//! single-reduction `k + 2`, pipelined `k + 1` (the `+1` is the barrier
//! the cross-strip SpMV input needs where the SSOR sweeps read own-strip
//! only) with the one split crossing unchanged.
//! [`ParallelMStepPcg::auto`] picks between sweeps and polynomial through
//! the same [`mspcg_core::poly::resolve_precond`] as the serial
//! `auto_preconditioner`.

use crate::barrier::{SpinBarrier, SplitBarrier};
use crate::shared::{slot, ScalarBank, SharedVec};
use mspcg_core::pcg::{
    small_cholesky_factor, small_cholesky_solve, validate_inputs, SSTEP_SPECTRUM_SEED,
    SSTEP_SPECTRUM_STEPS,
};
use mspcg_core::poly::{resolve_precond, safeguard_jacobi_interval, ResolvedPrecond};
use mspcg_core::recovery::{
    audit_due, diverged, next_rung, perturb, AuditPlan, FaultKind, FaultPlan, FaultTarget,
    RecoveryPolicy,
};
use mspcg_core::{PolySchedule, SweepTable};
use mspcg_sparse::lanczos::{lanczos_extremes, SpectralInterval};
use mspcg_sparse::{vecops, Partition, PcgVariant, PolyKind, PrecondKind, SparseError, SparseOp};
use std::sync::{Arc, OnceLock};

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
    /// Iteration variant (default [`PcgVariant::Classic`]).
    pub variant: PcgVariant,
    /// Residual-audit / replacement / recovery-ladder policy. Auditing is
    /// resolved **once** from the requested variant and tolerance, so a
    /// ladder rerun on a lower rung inherits the decision. Use
    /// [`RecoveryPolicy::off`] to pin the exact barrier schedule (counter
    /// tests, benches).
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
    /// The schedule that produced this result: the rung the ladder ended
    /// on (classic after a single-reduction breakdown fallback).
    pub variant: PcgVariant,
    /// Total [`SpinBarrier`] crossings of the run (init + all
    /// iterations), measured by the instrumented barrier: the
    /// synchronization cost the `m·(2C−1) + k` model predicts.
    pub barrier_crossings: usize,
    /// Replicated dot-product reduction phases feeding α/β: two per
    /// classic iteration, one per single-reduction or pipelined iteration
    /// (plus one at init), and ONE per `s` iterations on the s-step
    /// schedule (the fused block Gram phase; no init phase). The ‖Δu‖∞
    /// stopping max is the paper's flag network and is not counted.
    pub reduction_phases: usize,
    /// [`SplitBarrier`] crossings of the run: one per reduction **in
    /// flight** on the pipelined schedule (arrive before the
    /// preconditioner + SpMV phase, wait after it). Zero on the classic
    /// and single-reduction schedules, whose reductions block at a
    /// [`SpinBarrier`] instead.
    pub split_crossings: usize,
    /// True-residual audit phases performed, accumulated across ladder
    /// reruns (each audit is one fused `f − K·u` phase: +1 barrier, no
    /// reduction phase — the deviation sum feeds no CG scalar).
    pub audits: usize,
    /// Residual replacements plus in-place non-finite recoveries,
    /// accumulated across reruns. Only the classic schedule replaces (the
    /// recurrence schedules have no same-rung warm restart — they step
    /// down the ladder instead).
    pub replacements: usize,
    /// Ladder step-downs this solve performed (SStep → Pipelined →
    /// SingleReduction → Classic; each is a from-scratch rerun on the
    /// lower rung).
    pub recoveries: usize,
    /// Non-finite reduction scalars detected, accumulated across reruns.
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
    /// Recurrence breakdown or detected corruption on a recurrence
    /// schedule: the caller must rerun on the next rung down.
    pub const FALLBACK: f64 = 5.0;
    /// A non-finite reduction scalar survived the classic schedule's
    /// replacement budget: surfaces as `SparseError::NonFinite`.
    pub const NONFINITE: f64 = 6.0;
}

/// Internal outcome of one pinned-schedule run.
enum SolveOutcome {
    Report(ParallelSolveReport),
    /// Breakdown or detected corruption on a recurrence schedule: rerun
    /// one rung down, carrying the failed run's counters.
    Fallback {
        audits: usize,
        faults_detected: usize,
    },
}

/// The shared-vector bundle of the pipelined schedule (the worker would
/// otherwise take two dozen parameters). Bank pairs rotate by iteration
/// parity — see [`ParallelMStepPcg::worker_pipelined`] for the aliasing
/// argument.
struct PipelinedVecs<'a> {
    u: &'a SharedVec,
    r: &'a SharedVec,
    /// Preconditioned-residual carry (`m ≥ 1`; `z ≡ r` for plain CG).
    z: &'a SharedVec,
    p: &'a SharedVec,
    /// `s = Kp` carry (the workspace's `kp` slot).
    s: &'a SharedVec,
    /// `q = M⁻¹s` carry (`m ≥ 1`; `q ≡ s` for plain CG).
    q: &'a SharedVec,
    /// `K·q` carry.
    zz: &'a SharedVec,
    /// `nv = K·mv` auxiliary (read own-strip only — single bank).
    nv: &'a SharedVec,
    /// `w = Kz` carry; bank-rotated for `m = 0` (where the `K·w` SpMV
    /// reads it cross-strip), single bank `[0]` otherwise.
    w: [&'a SharedVec; 2],
    /// `mv = M⁻¹w` auxiliary, bank-rotated (`m ≥ 1`): the trailing SpMV
    /// reads it cross-strip.
    mv: [&'a SharedVec; 2],
    /// SSOR half-sum cache (own rows only).
    y: &'a SharedVec,
    /// Parity-rotated reduction partial banks: γ′ = (r, z), δ = (w, z),
    /// the ‖Δu‖∞ stopping partial and the (p, s) guard.
    gamma: [&'a SharedVec; 2],
    delta: [&'a SharedVec; 2],
    change: [&'a SharedVec; 2],
    guard: [&'a SharedVec; 2],
}

/// The shared storage of the s-step schedule (zero-length elsewhere):
/// the basis and direction column blocks plus the two partial banks.
/// Both banks are single (not parity-rotated): the Gram bank's readers
/// (the replicated reduction right after the block's final SpMV barrier)
/// and its next writer (the *next* block's final SpMV phase) are always
/// separated by at least the update barrier, and the change bank's
/// readers/writers by at least the Gram barrier — the one-barrier
/// separation the rotating banks exist to provide comes free from the
/// block structure.
struct SStepVecs {
    /// Chebyshev basis columns `v₁ … v_s` (for plain CG, `v₁ ≡ r` and
    /// slot 0 is unused).
    v: Vec<SharedVec>,
    /// `A·V` columns.
    av: Vec<SharedVec>,
    /// Direction block banks: `(pa, apa)`/`(pb, apb)` alternate between
    /// the "current" and "previous" roles each outer step.
    pa: Vec<SharedVec>,
    apa: Vec<SharedVec>,
    pb: Vec<SharedVec>,
    apb: Vec<SharedVec>,
    /// Basis temp `M⁻¹(K·vⱼ)` (zero-length for plain CG, where `M = I`
    /// makes it alias the freshly computed `A·vⱼ`).
    tv: SharedVec,
    /// Fused Gram partial bank, `threads × G` scalars
    /// (G = [`sstep_gram_len`]).
    gram: SharedVec,
    /// Per-sub-step displacement partial bank, `threads × s`.
    change: SharedVec,
}

/// Scalars in one worker's row of the fused Gram bank: the packed lower
/// triangle of `G1 = VᵀAV` (`s(s+1)/2`), the full `G2 = AP'ᵀV` (`s²`),
/// `gv = Vᵀr` and `gp = P'ᵀr` (`s` each), and `(r, r)`.
#[inline]
fn sstep_gram_len(s: usize) -> usize {
    s * (s + 1) / 2 + s * s + 2 * s + 1
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
    /// The one Lanczos interval the s-step basis recurrence reuses across
    /// every solve on this instance — the SPMD half of the
    /// one-estimate-per-operator cache (the polynomial configuration
    /// stores its interval in [`ParPoly`] instead and never fills this).
    sstep_interval: OnceLock<SpectralInterval>,
}

/// The polynomial msolve's precomputed schedule, replicated read-only
/// into every worker — the scalars of the serial
/// [`mspcg_core::PolynomialPreconditioner`] over the same operator.
struct ParPoly {
    kind: PolyKind,
    schedule: PolySchedule,
    /// The (safeguarded) Lanczos interval the schedule was built on,
    /// kept so the s-step basis reuses it across the poly-precond ↔
    /// s-step-basis boundary instead of re-running Lanczos.
    interval: SpectralInterval,
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
            sstep_interval: OnceLock::new(),
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
    /// the same resolution, degenerate-spectrum fallback included, as the
    /// serial [`mspcg_core::auto_preconditioner`] — and build the chosen
    /// SPMD configuration. A polynomial's one Lanczos estimate serves the
    /// schedule AND the s-step basis through `ParPoly::interval`.
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
        match resolve_precond(matrix, colors.num_blocks(), m_default, selection)? {
            ResolvedPrecond::MStepSsor { m } => base.alphas = vec![1.0; m],
            ResolvedPrecond::Poly {
                kind,
                degree,
                interval,
            } => {
                let schedule = PolySchedule::new(kind, interval.min, interval.max, degree)?;
                base.poly = Some(ParPoly {
                    kind,
                    schedule,
                    interval,
                });
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

    /// Whether this configuration runs with **no** preconditioner phase
    /// at all (plain CG): no SSOR coefficients and no polynomial.
    fn no_msolve(&self) -> bool {
        self.alphas.is_empty() && self.poly.is_none()
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
    /// [`ParallelSolverOptions::variant`] selects the schedule; a
    /// recurrence run that hits breakdown or detected corruption is rerun
    /// one **ladder rung** down (SStep → Pipelined → SingleReduction →
    /// Classic)
    /// transparently, counting each step in
    /// [`ParallelSolveReport::recoveries`] (breakdown is decided by
    /// replicated scalars, so every worker — and every rerun — takes the
    /// branch deterministically). When [`ParallelSolverOptions::recovery`]
    /// resolves auditing on, every `audit_period` iterations a fused
    /// `f − K·u` phase compares the true residual against the recurrence
    /// carry; divergence beyond the replacement bound replaces the carry
    /// (classic) or steps down the ladder (recurrence schedules).
    ///
    /// # Errors
    /// [`SparseError::NotPositiveDefinite`] on breakdown,
    /// [`SparseError::DidNotConverge`] on budget exhaustion,
    /// [`SparseError::NonFinite`] when a non-finite reduction scalar
    /// outlives the replacement budget (or for a NaN/Inf right-hand
    /// side), [`SparseError::InvalidTolerance`] for a nonpositive or
    /// non-finite tolerance, [`SparseError::InvalidBlockWidth`] for an
    /// s-step width outside `2..=16`, [`SparseError::ZeroAuditPeriod`]
    /// for an audit period of 0, shape errors on bad input.
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
    /// count. The plan is consulted per rung rerun (a persistent fault
    /// re-fires on each rung), so the returned report proves the full
    /// ladder path.
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
        validate_inputs(opts.tol, opts.variant, &opts.recovery, f, &[])?;
        let f_norm = f.iter().map(|v| v * v).sum::<f64>().sqrt();
        let audit = AuditPlan::new(&opts.recovery, opts.variant, opts.tol, f_norm);
        let mut rung = opts.variant;
        let mut recoveries = 0usize;
        let mut acc_audits = 0usize;
        let mut acc_faults = 0usize;
        loop {
            match self.solve_variant(f, opts, rung, &audit, plan)? {
                SolveOutcome::Report(mut report) => {
                    report.audits += acc_audits;
                    report.faults_detected += acc_faults;
                    report.recoveries = recoveries;
                    return Ok(report);
                }
                SolveOutcome::Fallback {
                    audits,
                    faults_detected,
                } => {
                    acc_audits += audits;
                    acc_faults += faults_detected;
                    recoveries += 1;
                    rung = next_rung(rung).expect("the classic schedule has no fallback exit");
                }
            }
        }
    }

    /// One solve on one pinned schedule.
    fn solve_variant(
        &self,
        f: &[f64],
        opts: &ParallelSolverOptions,
        variant: PcgVariant,
        audit: &AuditPlan,
        plan: Option<&FaultPlan>,
    ) -> Result<SolveOutcome, SparseError> {
        let n = self.dim();
        if f.len() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (f.len(), 1),
            });
        }
        let single_reduction = variant == PcgVariant::SingleReduction;
        let pipelined = variant == PcgVariant::Pipelined;
        let sstep_s = match variant {
            PcgVariant::SStep { s } => s,
            _ => 0,
        };
        let m_zero = self.no_msolve();
        let threads = self.resolve_threads(opts.threads);

        // The s-step basis interval is resolved (and cached) on the main
        // thread before any worker spawns: a failed estimate is a
        // detected setup fault, not a solve-fatal error — the ladder
        // steps down onto the Pipelined rung exactly as for an in-loop
        // breakdown.
        let sstep_interval = if sstep_s > 0 {
            match self.sstep_basis_interval() {
                Ok(interval) => Some(interval),
                Err(_) => {
                    return Ok(SolveOutcome::Fallback {
                        audits: 0,
                        faults_detected: 1,
                    })
                }
            }
        } else {
            None
        };

        let owned = OwnedRows::map(self.table.colors(), threads);

        let u = SharedVec::zeros(n);
        let r = SharedVec::from_vec(f.to_vec());
        let z = SharedVec::zeros(n);
        let p = SharedVec::zeros(n);
        let kp = SharedVec::zeros(n);
        let y = SharedVec::zeros(n);
        // The `w = Kz` carry of the single-reduction and pipelined
        // recurrences.
        let w = SharedVec::zeros(if single_reduction || pipelined { n } else { 0 });
        // Pipelined extras: the `q = M⁻¹s` / `K·q` carries, the `mv`/`nv`
        // auxiliaries, and the second banks of the parity rotation (`mv`
        // rotates for m ≥ 1, `w` rotates for plain CG — see
        // `worker_pipelined`). Zero-length whenever unused.
        let q = SharedVec::zeros(if pipelined && !m_zero { n } else { 0 });
        let zz = SharedVec::zeros(if pipelined { n } else { 0 });
        let nv = SharedVec::zeros(if pipelined { n } else { 0 });
        let mv0 = SharedVec::zeros(if pipelined && !m_zero { n } else { 0 });
        let mv1 = SharedVec::zeros(if pipelined && !m_zero { n } else { 0 });
        let w1 = SharedVec::zeros(if pipelined && m_zero { n } else { 0 });
        // Polynomial msolve scratch: the difference carry `d` (own-strip
        // only) and the second iterate bank `zb` of the two-bank rotation
        // (read cross-strip by the chained SpMVs). Zero-length for the
        // sweep and plain-CG configurations.
        let poly_d = SharedVec::zeros(if self.poly.is_some() { n } else { 0 });
        let poly_zb = SharedVec::zeros(if self.poly.is_some() { n } else { 0 });
        // s-step block storage: six s-column bundles (basis V, A·V and the
        // parity-double-buffered direction blocks P/AP), the basis temp,
        // the one fused Gram partial bank (threads × G scalars, G =
        // s(s+1)/2 + s² + 2s + 1) and the per-sub-step displacement bank
        // (threads × s). All zero-length off the s-step schedule; the
        // freshly zeroed P/AP banks are what makes the first block's Gram
        // sweep over the "previous" parity deterministic.
        let sstep_cols =
            |cnt: usize| -> Vec<SharedVec> { (0..cnt).map(|_| SharedVec::zeros(n)).collect() };
        let sv = SStepVecs {
            v: sstep_cols(sstep_s),
            av: sstep_cols(sstep_s),
            pa: sstep_cols(sstep_s),
            apa: sstep_cols(sstep_s),
            pb: sstep_cols(sstep_s),
            apb: sstep_cols(sstep_s),
            tv: SharedVec::zeros(if sstep_s > 0 && !m_zero { n } else { 0 }),
            gram: SharedVec::zeros(if sstep_s > 0 {
                threads * sstep_gram_len(sstep_s)
            } else {
                0
            }),
            change: SharedVec::zeros(threads * sstep_s),
        };
        // Rotating partial banks: a phase's partial writes must never
        // alias a straggler's replicated-reduction reads of the previous
        // bank (at least one barrier always separates a bank's readers
        // from its next writer). The pipelined schedule rotates dedicated
        // bank *pairs* by iteration parity instead.
        let dot_partials = SharedVec::zeros(threads);
        let change_partials = SharedVec::zeros(threads);
        let rz_partials = SharedVec::zeros(threads);
        let ps_partials = SharedVec::zeros(if single_reduction { threads } else { 0 });
        let plen = if pipelined { threads } else { 0 };
        let pl_gamma = [SharedVec::zeros(plen), SharedVec::zeros(plen)];
        let pl_delta = [SharedVec::zeros(plen), SharedVec::zeros(plen)];
        let pl_change = [SharedVec::zeros(plen), SharedVec::zeros(plen)];
        let pl_guard = [SharedVec::zeros(plen), SharedVec::zeros(plen)];
        let pl = PipelinedVecs {
            u: &u,
            r: &r,
            z: &z,
            p: &p,
            s: &kp,
            q: &q,
            zz: &zz,
            nv: &nv,
            w: [&w, &w1],
            mv: [&mv0, &mv1],
            y: &y,
            gamma: [&pl_gamma[0], &pl_gamma[1]],
            delta: [&pl_delta[0], &pl_delta[1]],
            change: [&pl_change[0], &pl_change[1]],
            guard: [&pl_guard[0], &pl_guard[1]],
        };
        let bank = ScalarBank::new();
        let barrier = SpinBarrier::new(threads);
        let split = SplitBarrier::new(threads);
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
                let (u, r, z, p, kp, y, w, bank, barrier, iters_out) =
                    (&u, &r, &z, &p, &kp, &y, &w, &bank, &barrier, &iters_out);
                let (dot_partials, change_partials, rz_partials, ps_partials) =
                    (&dot_partials, &change_partials, &rz_partials, &ps_partials);
                let (pl, split, pscr, sv) = (&pl, &split, &pscr, &sv);
                let (aud, dev_partials) = (&aud, &dev_partials);
                let this = &*self;
                // `serialized` pins the shared kernels to this worker:
                // each strip is small by construction, so nested pool
                // launches would only add contention.
                s.spawn(move || {
                    mspcg_sparse::par::serialized(|| {
                        if let Some(interval) = sstep_interval {
                            this.worker_sstep(
                                t,
                                own,
                                sstep_s,
                                interval,
                                sv,
                                u,
                                r,
                                y,
                                pscr,
                                f,
                                aud,
                                dev_partials,
                                audit,
                                plan,
                                bank,
                                barrier,
                                iters_out,
                                opts,
                            );
                        } else if pipelined {
                            this.worker_pipelined(
                                t,
                                own,
                                pl,
                                pscr,
                                f,
                                aud,
                                dev_partials,
                                audit,
                                plan,
                                bank,
                                barrier,
                                split,
                                iters_out,
                                opts,
                            );
                        } else if single_reduction {
                            this.worker_single_reduction(
                                t,
                                own,
                                u,
                                r,
                                z,
                                p,
                                kp,
                                y,
                                w,
                                pscr,
                                dot_partials,
                                change_partials,
                                rz_partials,
                                ps_partials,
                                f,
                                aud,
                                dev_partials,
                                audit,
                                plan,
                                bank,
                                barrier,
                                iters_out,
                                opts,
                            );
                        } else {
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
                                audit,
                                plan,
                                bank,
                                barrier,
                                iters_out,
                                opts,
                            );
                        }
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
            c if c == status::FALLBACK => Ok(SolveOutcome::Fallback {
                audits,
                faults_detected,
            }),
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
            _ => Ok(SolveOutcome::Report(ParallelSolveReport {
                x: u.into_vec(),
                iterations,
                converged: true,
                final_change,
                threads,
                variant,
                barrier_crossings: barrier.crossings(),
                reduction_phases,
                split_crossings: split.crossings(),
                audits,
                replacements,
                recoveries: 0,
                faults_detected,
            })),
        }
    }

    /// The SPMD body of the **classic** schedule. All `unsafe` blocks
    /// follow the phase discipline documented in [`crate::shared`]: writes
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
        self.msolve_phases(own, t, r, z, y, pscr, Some(p), Some(rz_partials), barrier);
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
            self.msolve_phases(own, t, r, z, y, pscr, None, Some(rz_partials), barrier);
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

    /// The SPMD body of the **single-reduction** schedule. Same phase
    /// discipline as [`ParallelMStepPcg::worker`]; the differences are the
    /// carried `s = Kp` (in the `kp` vectors) and `w = Kz`, the fused
    /// mega-update phase, and that every scalar the recurrence needs
    /// comes out of the one reduction phase riding the `w = Kz` SpMV.
    ///
    /// For plain CG (`m = 0`) no preconditioner phase exists and `z ≡ r`:
    /// the schedule reads `r` wherever `z` appears, dropping to **two
    /// barriers per iteration**.
    #[allow(clippy::too_many_arguments)]
    fn worker_single_reduction(
        &self,
        t: usize,
        own: &OwnedRows,
        u: &SharedVec,
        r: &SharedVec,
        z: &SharedVec,
        p: &SharedVec,
        s: &SharedVec,
        y: &SharedVec,
        w: &SharedVec,
        pscr: &PolyScratch<'_>,
        wz_partials: &SharedVec,
        change_partials: &SharedVec,
        rz_partials: &SharedVec,
        ps_partials: &SharedVec,
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
        let m_zero = self.no_msolve();
        let mut phases = 0usize;
        let mut audits = 0usize;
        let mut faults = 0usize;
        // Worker-0 outcome publication (every branch below is taken
        // unanimously — the scalars are replicated). The recurrence
        // schedules never replace in place (slot 4 stays 0): corruption
        // and breakdown both step down the ladder via FALLBACK.
        let finish = |code: f64,
                      iterations: usize,
                      change: f64,
                      phases: usize,
                      audits: usize,
                      faults: usize| {
            if t == 0 {
                unsafe {
                    bank.set(slot::STOP, code);
                    iters_out.write_at(0, iterations as f64);
                    iters_out.write_at(1, change);
                    iters_out.write_at(2, phases as f64);
                    iters_out.write_at(3, audits as f64);
                    iters_out.write_at(5, faults as f64);
                }
            }
        };

        // --- init: z = M⁻¹ r with the (z, r) partial fused into the
        // final color phase; for m = 0, z ≡ r and the (r, r) partial
        // rides the w phase instead.
        if !m_zero {
            self.msolve_phases(own, t, r, z, y, pscr, None, Some(rz_partials), barrier);
            self.inject_msolve_fault(plan, 0, own, z, None, barrier);
        }
        self.w_phase(
            own,
            t,
            m_zero,
            r,
            z,
            w,
            wz_partials,
            rz_partials,
            barrier,
            claim_fault(plan, FaultTarget::Spmv, 0, own),
        );

        // --- γ₀, δ₀ (replicated, ONE phase) -----------------------------
        let mut gamma: f64 = unsafe { rz_partials.read().iter().sum() };
        let delta: f64 = unsafe { wz_partials.read().iter().sum() };
        phases += 1;
        if !(gamma.is_finite() && delta.is_finite()) {
            // A poisoned init scalar: no recurrence state worth keeping —
            // step down the ladder before any carry is built.
            faults += 1;
            finish(status::FALLBACK, 0, 0.0, phases, audits, faults);
            return;
        }
        if gamma < 0.0 {
            finish(status::INDEFINITE_M, 0, 0.0, phases, audits, faults);
            return;
        }
        if gamma == 0.0 {
            finish(status::CONVERGED, 0, 0.0, phases, audits, faults);
            return;
        }
        if opts.max_iterations == 0 {
            finish(status::BUDGET, 0, f64::INFINITY, phases, audits, faults);
            return;
        }
        if delta <= 0.0 {
            // (z, Kz) ≤ 0 with z ≠ 0: let the classic schedule's probes
            // produce the canonical error.
            finish(status::FALLBACK, 0, 0.0, phases, audits, faults);
            return;
        }
        let mut alpha = gamma / delta;
        let mut beta = 0.0f64;

        for iter in 1..=opts.max_iterations {
            // --- audit (detector-only on the recurrence schedules): the
            // fused true-residual phase costs one barrier; divergence has
            // no same-rung warm restart here, so it steps down the
            // ladder. The state audited is the one iteration `iter − 1`
            // left behind.
            if audit.enabled && audit_due(iter, 0, audit.period) {
                let dev2 = self.audit_phase(own, t, f, u, r, aud, dev_partials, barrier);
                audits += 1;
                if diverged(dev2, audit.bound2) {
                    finish(status::FALLBACK, iter - 1, 0.0, phases, audits, faults);
                    return;
                }
            }
            // --- mega-update phase: p ← z + βp, s ← w + βs, u += αp,
            // r −= αs ⊕ ‖Δu‖∞ and (p, s) partials — one barrier for all
            // four updates and both partials. The (p, s) strip partial
            // rides the update kernel itself (fused_xpby_xpby_dot), so
            // the strips are traversed once, not re-read by a dot pass.
            unsafe {
                {
                    let zv = if m_zero { r.read() } else { z.read() };
                    let wv = w.read();
                    let mut ps = 0.0;
                    for rows in own.chunks() {
                        ps += vecops::fused_xpby_xpby_dot(
                            &zv[rows.clone()],
                            &wv[rows.clone()],
                            beta,
                            p.write(rows.clone()),
                            s.write(rows),
                        );
                    }
                    ps_partials.write_at(t, ps);
                }
                let dx = own.fused_update(alpha, p.read(), s.read(), u, r);
                change_partials.write_at(t, dx);
            }
            barrier.wait();

            // --- convergence test (replicated flag network) + guards ---------
            let change = unsafe { change_partials.read().iter().fold(0.0f64, |a, &b| a.max(b)) };
            if !change.is_finite() {
                // ‖Δu‖∞ swallows NaN but surfaces Inf: a poisoned update.
                faults += 1;
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            if change < opts.tol {
                finish(status::CONVERGED, iter, change, phases, audits, faults);
                return;
            }
            if iter == opts.max_iterations {
                finish(status::BUDGET, iter, change, phases, audits, faults);
                return;
            }
            let ps: f64 = unsafe { ps_partials.read().iter().sum() };
            if !ps.is_finite() {
                faults += 1;
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            // Directly measured curvature (p, s) ≤ 0: the recurrence can
            // no longer be trusted — rerun one rung down.
            if ps <= 0.0 {
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }

            // --- z = M⁻¹ r, (z, r) partial fused into the final phase,
            // then w = K z ⊕ (w, z) — THE reduction phase ---------------------
            if !m_zero {
                self.msolve_phases(own, t, r, z, y, pscr, None, Some(rz_partials), barrier);
                self.inject_msolve_fault(plan, iter, own, z, None, barrier);
            }
            self.w_phase(
                own,
                t,
                m_zero,
                r,
                z,
                w,
                wz_partials,
                rz_partials,
                barrier,
                claim_fault(plan, FaultTarget::Spmv, iter, own),
            );

            // --- γ′, δ, then β and the reconstructed α (replicated) ----------
            let gamma_new: f64 = unsafe { rz_partials.read().iter().sum() };
            let delta: f64 = unsafe { wz_partials.read().iter().sum() };
            phases += 1;
            if !(gamma_new.is_finite() && delta.is_finite()) {
                // Checked before either scalar feeds α/β, so u is still a
                // valid iterate when the lower rung reruns.
                faults += 1;
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            if gamma_new < 0.0 {
                finish(status::INDEFINITE_M, iter, change, phases, audits, faults);
                return;
            }
            if gamma_new == 0.0 {
                // Exact convergence in fewer than n steps.
                finish(status::CONVERGED, iter, change, phases, audits, faults);
                return;
            }
            let beta_new = gamma_new / gamma.max(1e-300);
            let denom = delta - beta_new * gamma_new / alpha;
            if !(denom.is_finite() && denom > 0.0) {
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            beta = beta_new;
            alpha = gamma_new / denom;
            gamma = gamma_new;
        }
    }

    /// The SPMD body of the **s-step** (communication-avoiding) schedule:
    /// the serial `sstep_loop` arithmetic on barrier-separated phases.
    /// Per outer step (`s` iterations, sweep = `m·(2C−1)` SSOR barriers
    /// or `k` polynomial barriers):
    ///
    /// ```text
    /// v₁ ← M⁻¹r                               sweep barriers
    /// per j = 2…s:
    ///   A·v_{j−1} ← K·v_{j−1}                 1 barrier   (cross-strip read)
    ///   t ← M⁻¹(A·v_{j−1})                    sweep barriers
    ///   vⱼ ← Chebyshev(t, v_{j−1}, v_{j−2})   1 barrier
    /// A·v_s ← K·v_s ⊕ ALL Gram partials       1 barrier   (THE reduction)
    /// replicated: Gram sums, B, W, Cholesky,
    ///   coefficients                           0 barriers  (unanimous)
    /// P/AP ← V/AV + P'/AP'·B; s sub-steps
    ///   u += aⱼpⱼ, r −= aⱼapⱼ ⊕ per-sub-step
    ///   ‖Δu‖∞ partials                         1 barrier   (one mega-phase)
    /// ```
    ///
    /// i.e. `s·m·(2C−1) + 2s` barriers (polynomial: `s·(k+2)`) and **one
    /// reduction phase** per `s` iterations — the `2s`-reductions-per-`s`
    /// -iterations floor of the classic schedule amortized into a single
    /// fused Gram phase. For plain CG (`m = 0`) the basis seed aliases
    /// the residual (`v₁ ≡ r`, no copy phase) and the Chebyshev step
    /// fuses into the SpMV phase that produces its operand: `s + 1`
    /// barriers per outer step.
    ///
    /// The replicated small dense work (coupling solve `B = −W'⁻¹G2`,
    /// Gram assembly, rank-revealing Cholesky) runs identically in every
    /// worker off the replicated reduced scalars — unanimous branching,
    /// no broadcast. A rank-truncated factor (`cols < s`, the endgame
    /// where the Krylov grade runs out mid-block) takes only the leading
    /// `cols` sub-steps and restarts the recurrence, exactly like the
    /// serial rung; `cols == 0` and every non-finite scalar step down
    /// the ladder via FALLBACK (reruns are from scratch, so no rollback
    /// is needed — except on mid-block *convergence*, where the already
    /// applied trailing sub-steps are undone own-strip so the reported
    /// iterate is the accepted one).
    #[allow(clippy::too_many_arguments)]
    fn worker_sstep(
        &self,
        t: usize,
        own: &OwnedRows,
        s: usize,
        interval: SpectralInterval,
        sv: &SStepVecs,
        u: &SharedVec,
        r: &SharedVec,
        y: &SharedVec,
        pscr: &PolyScratch<'_>,
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
        let m_zero = self.no_msolve();
        let threads = sv.change.len() / s;
        let glen = sstep_gram_len(s);
        let mut phases = 0usize;
        let mut audits = 0usize;
        let mut faults = 0usize;
        let finish = |code: f64,
                      iterations: usize,
                      change: f64,
                      phases: usize,
                      audits: usize,
                      faults: usize| {
            if t == 0 {
                unsafe {
                    bank.set(slot::STOP, code);
                    iters_out.write_at(0, iterations as f64);
                    iters_out.write_at(1, change);
                    iters_out.write_at(2, phases as f64);
                    iters_out.write_at(3, audits as f64);
                    iters_out.write_at(5, faults as f64);
                }
            }
        };
        // Basis column j (`v₁ ≡ r` for plain CG — no copy phase).
        let vjs: Vec<&SharedVec> = (0..s)
            .map(|j| if j == 0 && m_zero { r } else { &sv.v[j] })
            .collect();

        let theta = 0.5 * (interval.max + interval.min);
        let delta = 0.5 * (interval.max - interval.min);
        let degenerate = interval.is_degenerate();
        // One Chebyshev basis step on one owned chunk: vⱼ from
        // `t_in = M⁻¹(K·v_{j−1})` and the two previous columns.
        // SAFETY: every call site passes an owned chunk, in a phase where
        // this worker is the only writer of that chunk of vⱼ and the
        // previous columns were finalized by earlier barriers.
        let cheb_step = |j: usize, t_in: &[f64], rows: std::ops::Range<usize>| unsafe {
            let vp = &vjs[j - 1].read()[rows.clone()];
            let vj_out = sv.v[j].write(rows.clone());
            if degenerate {
                // Collapsed interval: scaled-monomial fallback vⱼ = t/θ.
                vecops::fused_cheb_basis(1.0 / theta, 0.0, 0.0, t_in, vp, vp, vj_out);
            } else if j == 1 {
                vecops::fused_cheb_basis(1.0 / delta, theta, 0.0, t_in, vp, vp, vj_out);
            } else {
                let vpp = &vjs[j - 2].read()[rows];
                vecops::fused_cheb_basis(2.0 / delta, theta, 1.0, t_in, vp, vpp, vj_out);
            }
        };

        // Replicated dense scratch: every worker computes these
        // identically from the replicated reduced scalars, so they are
        // plain locals — no sharing, no broadcast.
        let mut g1 = vec![0.0; s * s];
        let mut g2 = vec![0.0; s * s];
        let mut gv = vec![0.0; s];
        let mut gp = vec![0.0; s];
        let mut bmat = vec![0.0; s * s];
        let mut wfac_a = vec![0.0; s * s];
        let mut wfac_b = vec![0.0; s * s];
        let mut gcur = vec![0.0; s];
        let mut acoef = vec![0.0; s];
        let mut red = vec![0.0; glen];

        let mut completed = 0usize;
        let mut change = f64::INFINITY;
        let mut first_block = true;
        let mut parity = false;

        while completed + s <= opts.max_iterations {
            // --- audit between outer steps (state after the previous
            // block), due when any of the block's sub-step indices hits
            // the schedule. Detector-only: divergence steps down the
            // ladder (rung reruns restart from u = 0).
            if audit.enabled
                && (completed + 1..=completed + s).any(|i| audit_due(i, 0, audit.period))
            {
                let dev2 = self.audit_phase(own, t, f, u, r, aud, dev_partials, barrier);
                audits += 1;
                if diverged(dev2, audit.bound2) {
                    finish(status::FALLBACK, completed, change, phases, audits, faults);
                    return;
                }
            }
            let (p_cur, ap_cur, p_prev, ap_prev) = if parity {
                (&sv.pb, &sv.apb, &sv.pa, &sv.apa)
            } else {
                (&sv.pa, &sv.apa, &sv.pb, &sv.apb)
            };
            let (wfac_cur, wfac_prev) = if parity {
                (&mut wfac_b, &wfac_a)
            } else {
                (&mut wfac_a, &wfac_b)
            };

            // --- basis block: v₁ = M⁻¹r, then the Chebyshev three-term
            // recurrence (planned faults land per sub-step index:
            // msolve j at iteration completed + j, SpMV j likewise).
            if !m_zero {
                self.msolve_phases(own, t, r, &sv.v[0], y, pscr, None, None, barrier);
                self.inject_msolve_fault(plan, completed, own, &sv.v[0], None, barrier);
            }
            for j in 1..s {
                unsafe {
                    let vin = vjs[j - 1].read();
                    let fault = claim_fault(plan, FaultTarget::Spmv, completed + j - 1, own);
                    self.own_spmv(own, vin, &sv.av[j - 1], fault, |rows, out| {
                        if m_zero {
                            // M = I: t ≡ A·v_{j−1}, freshly written
                            // own-strip above — the Chebyshev step fuses
                            // into this phase (all operands own-strip).
                            cheb_step(j, out, rows);
                        }
                    });
                }
                barrier.wait();
                if !m_zero {
                    self.msolve_phases(own, t, &sv.av[j - 1], &sv.tv, y, pscr, None, None, barrier);
                    self.inject_msolve_fault(plan, completed + j, own, &sv.tv, None, barrier);
                    // SAFETY: the msolve's final barrier finalized `t`.
                    let tv = unsafe { sv.tv.read() };
                    for rows in own.chunks() {
                        cheb_step(j, &tv[rows.clone()], rows);
                    }
                    barrier.wait();
                }
            }

            // --- final SpMV completes A·V ⊕ ALL Gram partials ride this
            // phase — THE one reduction of the block. Every operand of
            // every partial is own-strip: A·V columns were written by
            // this worker in this block's SpMV phases, V/P'/AP'/r were
            // finalized by earlier barriers.
            unsafe {
                let vin = vjs[s - 1].read();
                let fault = claim_fault(plan, FaultTarget::Spmv, completed + s - 1, own);
                self.own_spmv(own, vin, &sv.av[s - 1], fault, |_, _| {});
                let g = sv.gram.write(t * glen..(t + 1) * glen);
                let mut gi = 0usize;
                for i in 0..s {
                    let avi = sv.av[i].read();
                    for j in 0..=i {
                        g[gi] = own.dot(vjs[j].read(), avi);
                        gi += 1;
                    }
                }
                for i in 0..s {
                    let api = ap_prev[i].read();
                    for j in 0..s {
                        g[gi] = own.dot(api, vjs[j].read());
                        gi += 1;
                    }
                }
                let rv = r.read();
                for j in 0..s {
                    g[gi] = own.dot(vjs[j].read(), rv);
                    gi += 1;
                }
                for j in 0..s {
                    g[gi] = own.dot(p_prev[j].read(), rv);
                    gi += 1;
                }
                g[gi] = own.dot(rv, rv);
            }
            barrier.wait();

            // --- replicated Gram reduction (ascending worker order) ----
            unsafe {
                let bankv = sv.gram.read();
                for x in red.iter_mut() {
                    *x = 0.0;
                }
                for row in 0..threads {
                    let base = row * glen;
                    for (i, x) in red.iter_mut().enumerate() {
                        *x += bankv[base + i];
                    }
                }
            }
            phases += 1;
            if red.iter().any(|x| !x.is_finite()) {
                faults += 1;
                finish(status::FALLBACK, completed, change, phases, audits, faults);
                return;
            }
            let mut gi = 0usize;
            for i in 0..s {
                for j in 0..=i {
                    g1[i * s + j] = red[gi];
                    g1[j * s + i] = red[gi];
                    gi += 1;
                }
            }
            for x in g2.iter_mut() {
                *x = red[gi];
                gi += 1;
            }
            for x in gv.iter_mut() {
                *x = red[gi];
                gi += 1;
            }
            for x in gp.iter_mut() {
                *x = red[gi];
                gi += 1;
            }
            // gv[0] = (M⁻¹r, r) is a fresh quadratic form every block.
            if gv[0] < 0.0 {
                finish(
                    status::INDEFINITE_M,
                    completed,
                    change,
                    phases,
                    audits,
                    faults,
                );
                return;
            }
            if gv[0] == 0.0 {
                // Exact convergence: r = 0 under an SPD preconditioner.
                let c = if change.is_finite() { change } else { 0.0 };
                finish(status::CONVERGED, completed, c, phases, audits, faults);
                return;
            }

            // --- replicated small dense work (identical in every
            // worker): B = −W'⁻¹G2, W = G1 + G2ᵀB, g = gv + Bᵀgp,
            // rank-revealing Cholesky, coefficients. The first block has
            // B = 0 (and freshly zeroed P'/AP' banks), which reduces the
            // generic path to P = V, W = G1, g = gv.
            if first_block {
                for x in bmat.iter_mut() {
                    *x = 0.0;
                }
            } else {
                for j in 0..s {
                    for i in 0..s {
                        acoef[i] = -g2[i * s + j];
                    }
                    small_cholesky_solve(wfac_prev, s, s, &mut acoef);
                    for i in 0..s {
                        bmat[i * s + j] = acoef[i];
                    }
                }
            }
            for i in 0..s {
                for j in 0..=i {
                    let mut sum = g1[i * s + j];
                    for q in 0..s {
                        sum += g2[q * s + i] * bmat[q * s + j];
                    }
                    wfac_cur[i * s + j] = sum;
                }
            }
            for j in 0..s {
                let mut sum = gv[j];
                for i in 0..s {
                    sum += bmat[i * s + j] * gp[i];
                }
                gcur[j] = sum;
            }
            let cols = small_cholesky_factor(wfac_cur, s);
            if cols == 0 {
                // Numerically collapsed basis: step down the ladder.
                finish(status::FALLBACK, completed, change, phases, audits, faults);
                return;
            }
            acoef.copy_from_slice(&gcur);
            small_cholesky_solve(wfac_cur, s, cols, &mut acoef);
            if acoef[..cols].iter().any(|x| !x.is_finite()) {
                faults += 1;
                finish(status::FALLBACK, completed, change, phases, audits, faults);
                return;
            }

            // --- update mega-phase: P = V + P'B, AP = AV + AP'B, then
            // the `cols` local sub-steps on the classic fused update
            // kernel — all own-strip, ONE barrier. The per-sub-step
            // displacement partials ride the kernel itself.
            unsafe {
                for rows in own.chunks() {
                    for j in 0..s {
                        let po = p_cur[j].write(rows.clone());
                        po.copy_from_slice(&vjs[j].read()[rows.clone()]);
                        for i in 0..s {
                            vecops::axpy(bmat[i * s + j], &p_prev[i].read()[rows.clone()], po);
                        }
                        let apo = ap_cur[j].write(rows.clone());
                        apo.copy_from_slice(&sv.av[j].read()[rows.clone()]);
                        for i in 0..s {
                            vecops::axpy(bmat[i * s + j], &ap_prev[i].read()[rows.clone()], apo);
                        }
                    }
                }
                for j in 0..cols {
                    let dx = own.fused_update(acoef[j], p_cur[j].read(), ap_cur[j].read(), u, r);
                    sv.change.write_at(t * s + j, dx);
                }
            }
            barrier.wait();

            // --- replicated per-sub-step stopping scan (flag network):
            // ascending j, first sub-step under tolerance wins.
            let chv = unsafe { sv.change.read() };
            for j in 0..cols {
                let cj = (0..threads).fold(0.0f64, |acc, row| acc.max(chv[row * s + j]));
                if !cj.is_finite() {
                    // ‖Δu‖∞ swallows NaN but surfaces Inf: a poisoned
                    // update — reruns restart from scratch, no rollback.
                    faults += 1;
                    finish(
                        status::FALLBACK,
                        completed + j + 1,
                        cj,
                        phases,
                        audits,
                        faults,
                    );
                    return;
                }
                change = cj;
                if cj < opts.tol {
                    // Converged mid-block: the trailing sub-steps were
                    // already applied — undo them own-strip so the
                    // reported iterate is the accepted one (the scan is
                    // replicated, so the rollback is unanimous; no
                    // barrier needed — only own strips are touched and
                    // the scope join publishes them).
                    for rows in own.chunks() {
                        // SAFETY: the update phase's barrier finalized the
                        // directions, and until the scope join every
                        // worker touches only its own rows of `u`.
                        let uo = unsafe { u.write(rows.clone()) };
                        for jj in j + 1..cols {
                            let alpha = acoef[jj];
                            let pj = unsafe { &p_cur[jj].read()[rows.clone()] };
                            for (k, pk) in pj.iter().enumerate() {
                                uo[k] -= alpha * pk;
                            }
                        }
                    }
                    finish(
                        status::CONVERGED,
                        completed + j + 1,
                        cj,
                        phases,
                        audits,
                        faults,
                    );
                    return;
                }
            }
            completed += cols;
            // An endgame-truncated block leaves no full-rank carried
            // factor to conjugate against — restart the recurrence.
            first_block = cols < s;
            parity = !parity;
        }
        // Budget exhausted (including a final sliver shorter than one
        // block).
        finish(status::BUDGET, completed, change, phases, audits, faults);
    }

    /// The SPMD body of the **pipelined** (Ghysels–Vanroose) schedule.
    /// Same phase discipline as [`ParallelMStepPcg::worker`]; the
    /// differences are the extra recurrence carries (`q = M⁻¹s`,
    /// `zz = K·q`) and recomputed auxiliaries (`mv = M⁻¹w`, `nv = K·mv`),
    /// the bank parity rotation, and that the one reduction phase is
    /// **split**: its partials are published in the update mega-phase and
    /// *initiated* with [`SplitBarrier::arrive`], the preconditioner +
    /// `nv = K·mv` heavy phase runs inside the overlap window, and only
    /// then is the reduction *consumed* with [`SplitBarrier::wait`] — the
    /// reduction latency hides behind the heaviest work of the iteration.
    ///
    /// Why no full barrier borders the update phase (`m ≥ 1`): every
    /// vector the update touches is read and written **own-strip only**,
    /// and the msolve that follows reads its input `w` at own rows only —
    /// the only cross-strip reads anywhere are of the msolve's *output*
    /// (ordered by its internal color barriers, with the fused `w₀ = 0`
    /// start guaranteeing no stale element is ever read) and of the `mv`
    /// bank in the trailing SpMV, which is why `mv` (and the reduction
    /// partial banks) **rotate by iteration parity**: the next write of a
    /// bank is separated from its last cross-strip read by the following
    /// iteration's msolve barriers. For plain CG (`m = 0`, `z ≡ r`,
    /// `q ≡ s`, `mv ≡ w`) the SpMV input is `w` itself, so `w` rotates
    /// instead and one full barrier per iteration separates the w-bank
    /// write from the cross-strip `K·w` read.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn worker_pipelined(
        &self,
        t: usize,
        own: &OwnedRows,
        vecs: &PipelinedVecs<'_>,
        pscr: &PolyScratch<'_>,
        f: &[f64],
        aud: &SharedVec,
        dev_partials: &SharedVec,
        audit: &AuditPlan,
        plan: Option<&FaultPlan>,
        bank: &ScalarBank,
        barrier: &SpinBarrier,
        split: &SplitBarrier,
        iters_out: &SharedVec,
        opts: &ParallelSolverOptions,
    ) {
        let m_zero = self.no_msolve();
        let mut phases = 0usize;
        let mut audits = 0usize;
        let mut faults = 0usize;
        // Worker-0 outcome publication (every branch below is taken
        // unanimously — the scalars are replicated). Slot 4 (replacements)
        // stays zero: the pipelined schedule is detector-only and heals by
        // falling one rung down the ladder.
        let finish = |code: f64,
                      iterations: usize,
                      change: f64,
                      phases: usize,
                      audits: usize,
                      faults: usize| {
            if t == 0 {
                unsafe {
                    bank.set(slot::STOP, code);
                    iters_out.write_at(0, iterations as f64);
                    iters_out.write_at(1, change);
                    iters_out.write_at(2, phases as f64);
                    iters_out.write_at(3, audits as f64);
                    iters_out.write_at(5, faults as f64);
                }
            }
        };

        // --- init: z⁰ = M⁻¹ r⁰ (γ₀ = (z, r) fused into the msolve tail),
        // w⁰ = K z⁰ ⊕ δ₀ = (w, z), then the FIRST overlap window:
        // arrive → mv⁰ = M⁻¹ w⁰, nv⁰ = K mv⁰ → wait.
        if !m_zero {
            self.msolve_phases(
                own,
                t,
                vecs.r,
                vecs.z,
                vecs.y,
                pscr,
                None,
                Some(vecs.gamma[0]),
                barrier,
            );
            self.inject_msolve_fault(plan, 0, own, vecs.z, None, barrier);
            // z⁰ was finalized by the msolve's last internal barrier.
            unsafe {
                let zv = vecs.z.read();
                let fault = claim_fault(plan, FaultTarget::Spmv, 0, own);
                let mut del = 0.0;
                self.own_spmv(own, zv, vecs.w[0], fault, |rows, out| {
                    del += vecops::dot(&zv[rows], out);
                });
                vecs.delta[0].write_at(t, del);
            }
            let ticket = split.arrive();
            // The sweep msolve reads its input w⁰ at own rows only — no
            // barrier. The polynomial msolve's fused first phase reads w⁰
            // cross-strip, so it needs w⁰ finalized: one extra barrier.
            // The auxiliary mv⁰ is not a fault target: the planned msolve
            // fault at iteration 0 lands in z⁰ above.
            if self.poly.is_some() {
                barrier.wait();
            }
            self.msolve_phases(
                own, t, vecs.w[0], vecs.mv[0], vecs.y, pscr, None, None, barrier,
            );
            unsafe { self.own_spmv(own, vecs.mv[0].read(), vecs.nv, None, |_, _| {}) };
            split.wait(ticket);
        } else {
            // z ≡ r = f (read-only so far): w⁰ = K f ⊕ both partials.
            unsafe {
                let rv = vecs.r.read();
                let fault = claim_fault(plan, FaultTarget::Spmv, 0, own);
                let (mut gam, mut del) = (0.0, 0.0);
                self.own_spmv(own, rv, vecs.w[0], fault, |rows, out| {
                    let rs = &rv[rows];
                    gam += vecops::dot(rs, rs);
                    del += vecops::dot(rs, out);
                });
                vecs.gamma[0].write_at(t, gam);
                vecs.delta[0].write_at(t, del);
            }
            let ticket = split.arrive();
            // nv⁰ = K w⁰ reads w⁰ cross-strip: one full barrier.
            barrier.wait();
            unsafe { self.own_spmv(own, vecs.w[0].read(), vecs.nv, None, |_, _| {}) };
            split.wait(ticket);
        }

        // --- γ₀, δ₀ (replicated, consumed after the overlap window) ------
        let mut gamma: f64 = unsafe { vecs.gamma[0].read().iter().sum() };
        let delta0: f64 = unsafe { vecs.delta[0].read().iter().sum() };
        phases += 1;
        if !(gamma.is_finite() && delta0.is_finite()) {
            faults += 1;
            finish(status::FALLBACK, 0, 0.0, phases, audits, faults);
            return;
        }
        if gamma < 0.0 {
            // Fresh quadratic form (no drift yet): indefinite M.
            finish(status::INDEFINITE_M, 0, 0.0, phases, audits, faults);
            return;
        }
        if gamma == 0.0 {
            finish(status::CONVERGED, 0, 0.0, phases, audits, faults);
            return;
        }
        if opts.max_iterations == 0 {
            finish(status::BUDGET, 0, f64::INFINITY, phases, audits, faults);
            return;
        }
        if delta0 <= 0.0 {
            finish(status::FALLBACK, 0, 0.0, phases, audits, faults);
            return;
        }
        let mut alpha = gamma / delta0;
        let mut beta = 0.0f64;

        for iter in 1..=opts.max_iterations {
            // --- audit: recompute the true residual against the previous
            // iterate (u and r were finalized by the split wait above) and
            // fall a rung down on divergence — the pipelined recurrences
            // carry too much coupled state to splice a replacement in.
            if audit.enabled && audit_due(iter, 0, audit.period) {
                let dev2 = self.audit_phase(own, t, f, vecs.u, vecs.r, aud, dev_partials, barrier);
                audits += 1;
                if diverged(dev2, audit.bound2) {
                    finish(status::FALLBACK, iter - 1, 0.0, phases, audits, faults);
                    return;
                }
            }

            // Bank parity: iteration k publishes into bank k mod 2, so a
            // fast worker's next-iteration writes can never alias a
            // straggler's reads of this iteration's banks (the following
            // iteration's barrier — msolve internal or the m = 0 pre-SpMV
            // barrier — separates a bank's readers from its next writer).
            let pk = iter & 1;
            let prev = pk ^ 1;

            // --- fused update mega-phase (own strip only): the four
            // direction carries, the four iterate/carry updates, and all
            // four reduction partials in ONE traversal — then arrive.
            unsafe {
                let mut max_p = 0.0f64;
                let mut ps = 0.0f64;
                let mut gam = 0.0f64;
                let mut del = 0.0f64;
                for rows in own.chunks() {
                    if m_zero {
                        let w_old = &vecs.w[prev].read()[rows.clone()];
                        let nvv = &vecs.nv.read()[rows.clone()];
                        let pv = vecs.p.write(rows.clone());
                        let sv = vecs.s.write(rows.clone());
                        let zzv = vecs.zz.write(rows.clone());
                        let uv = vecs.u.write(rows.clone());
                        let rv = vecs.r.write(rows.clone());
                        let w_new = vecs.w[pk].write(rows.clone());
                        for i in 0..rows.len() {
                            let ri_old = rv[i];
                            let pi = ri_old + beta * pv[i];
                            let si = w_old[i] + beta * sv[i];
                            let zzi = nvv[i] + beta * zzv[i];
                            pv[i] = pi;
                            sv[i] = si;
                            zzv[i] = zzi;
                            uv[i] += alpha * pi;
                            let ri = ri_old - alpha * si;
                            rv[i] = ri;
                            let wi = w_old[i] - alpha * zzi;
                            w_new[i] = wi;
                            let a = pi.abs();
                            if a > max_p {
                                max_p = a;
                            }
                            ps += pi * si;
                            gam += ri * ri;
                            del += wi * ri;
                        }
                    } else {
                        let mvv = &vecs.mv[prev].read()[rows.clone()];
                        let nvv = &vecs.nv.read()[rows.clone()];
                        let pv = vecs.p.write(rows.clone());
                        let sv = vecs.s.write(rows.clone());
                        let qv = vecs.q.write(rows.clone());
                        let zzv = vecs.zz.write(rows.clone());
                        let uv = vecs.u.write(rows.clone());
                        let rv = vecs.r.write(rows.clone());
                        let zv = vecs.z.write(rows.clone());
                        let wv = vecs.w[0].write(rows.clone());
                        for i in 0..rows.len() {
                            let pi = zv[i] + beta * pv[i];
                            let si = wv[i] + beta * sv[i];
                            let qi = mvv[i] + beta * qv[i];
                            let zzi = nvv[i] + beta * zzv[i];
                            pv[i] = pi;
                            sv[i] = si;
                            qv[i] = qi;
                            zzv[i] = zzi;
                            uv[i] += alpha * pi;
                            let ri = rv[i] - alpha * si;
                            rv[i] = ri;
                            let zi = zv[i] - alpha * qi;
                            zv[i] = zi;
                            let wi = wv[i] - alpha * zzi;
                            wv[i] = wi;
                            let a = pi.abs();
                            if a > max_p {
                                max_p = a;
                            }
                            ps += pi * si;
                            gam += ri * zi;
                            del += wi * zi;
                        }
                    }
                }
                vecs.change[pk].write_at(t, alpha.abs() * max_p);
                vecs.guard[pk].write_at(t, ps);
                vecs.gamma[pk].write_at(t, gam);
                vecs.delta[pk].write_at(t, del);
            }
            let ticket = split.arrive();

            // --- overlapped heavy phase: mv = M⁻¹w, nv = K·mv -------------
            // Fault points: the planned msolve fault perturbs mv (the
            // iteration's preconditioner application) behind its final
            // barrier; the planned SpMV fault perturbs the owner's fresh
            // nv strip, which only the owner reads before the next parity
            // rotation — no extra barrier.
            if m_zero {
                // mv ≡ w: the K·w SpMV reads w cross-strip — one barrier.
                barrier.wait();
                let fault = claim_fault(plan, FaultTarget::Spmv, iter, own);
                unsafe { self.own_spmv(own, vecs.w[pk].read(), vecs.nv, fault, |_, _| {}) };
            } else {
                // The polynomial msolve's fused first phase reads its
                // input w cross-strip (the sweep reads own-strip): one
                // extra barrier after the own-strip update above.
                if self.poly.is_some() {
                    barrier.wait();
                }
                self.msolve_phases(
                    own,
                    t,
                    vecs.w[0],
                    vecs.mv[pk],
                    vecs.y,
                    pscr,
                    None,
                    None,
                    barrier,
                );
                self.inject_msolve_fault(plan, iter, own, vecs.mv[pk], None, barrier);
                let fault = claim_fault(plan, FaultTarget::Spmv, iter, own);
                unsafe { self.own_spmv(own, vecs.mv[pk].read(), vecs.nv, fault, |_, _| {}) };
            }
            split.wait(ticket);

            // --- replicated decisions (reduction consumed HERE, after the
            // heavy phase — the wait is the late half of the split) -------
            let change = unsafe { vecs.change[pk].read().iter().fold(0.0f64, |a, &b| a.max(b)) };
            let gamma_new: f64 = unsafe { vecs.gamma[pk].read().iter().sum() };
            let delta: f64 = unsafe { vecs.delta[pk].read().iter().sum() };
            let ps: f64 = unsafe { vecs.guard[pk].read().iter().sum() };
            phases += 1;
            if !change.is_finite() {
                // ‖Δu‖∞ swallows NaN but surfaces Inf: a poisoned update.
                faults += 1;
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            if change < opts.tol {
                finish(status::CONVERGED, iter, change, phases, audits, faults);
                return;
            }
            if iter == opts.max_iterations {
                finish(status::BUDGET, iter, change, phases, audits, faults);
                return;
            }
            if !(gamma_new.is_finite() && delta.is_finite() && ps.is_finite()) {
                faults += 1;
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            // Guards: γ′ = (r, z) is a product of two recurrence carries
            // (not a fresh quadratic form), so every nonpositive scalar
            // routes to the fallback rung — see the serial loop's docs.
            if gamma_new <= 0.0 || ps <= 0.0 {
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            let beta_new = gamma_new / gamma.max(1e-300);
            let denom = delta - beta_new * gamma_new / alpha;
            if !(denom.is_finite() && denom > 0.0) {
                finish(status::FALLBACK, iter, change, phases, audits, faults);
                return;
            }
            beta = beta_new;
            alpha = gamma_new / denom;
            gamma = gamma_new;
        }
    }

    /// The classic schedule's restart phase, shared by the audit-replace
    /// and non-finite recovery paths: refresh `r` to the true residual —
    /// adopting the audited copy when one is on hand (`fresh`), else
    /// recomputing `r ← f − K·u` over the strip — then re-derive
    /// `z = M⁻¹r`, `p ← z` and the `(z, r)` partial exactly like the init
    /// sequence, returning the replicated fresh scalar.
    ///
    /// No barrier precedes the `r` overwrite: every entry point has just
    /// consumed a replicated scalar (all workers are past its publishing
    /// barrier), and the classic schedule never reads `r` cross-strip.
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
        self.msolve_phases(own, t, r, z, y, pscr, Some(p), Some(rz_partials), barrier);
        unsafe { rz_partials.read().iter().sum() }
    }

    /// The fused audit phase shared by every schedule: `aud ← f − K·u`
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

    /// The single-reduction schedule's `w = K·z` phase: write the strip of
    /// `w`, fuse in the `(w, z)` partial — and, for plain CG (`m_zero`,
    /// where `z ≡ r` and no preconditioner phase exists to carry it), the
    /// `(r, r)` partial — then barrier. The strip of `w` this worker just
    /// wrote is exactly the strip the partial reads, so no reduction needs
    /// a barrier of its own. Used verbatim at init and in the iteration
    /// loop: the two reduction points must stay arithmetically identical.
    #[allow(clippy::too_many_arguments)]
    fn w_phase(
        &self,
        own: &OwnedRows,
        t: usize,
        m_zero: bool,
        r: &SharedVec,
        z: &SharedVec,
        w: &SharedVec,
        wz_partials: &SharedVec,
        rz_partials: &SharedVec,
        barrier: &SpinBarrier,
        fault: Option<(usize, FaultKind)>,
    ) {
        unsafe {
            let zv = if m_zero { r.read() } else { z.read() };
            let (mut wz, mut rr) = (0.0, 0.0);
            self.own_spmv(own, zv, w, fault, |rows, out| {
                let zs = &zv[rows];
                wz += vecops::dot(zs, out);
                if m_zero {
                    rr += vecops::dot(zs, zs);
                }
            });
            wz_partials.write_at(t, wz);
            if m_zero {
                rz_partials.write_at(t, rr);
            }
        }
        barrier.wait();
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
    ///   `(z, r)` strip partial when a bank is supplied (`rz_partials =
    ///   Some`; the pipelined schedule's auxiliary solves pass `None`) —
    ///   every `z` element of the strip was written by this worker in
    ///   this or an earlier phase of the solve, so the partial needs no
    ///   extra barrier — and, during initialization (`p0 = Some`), copies
    ///   the strip into `p⁰`.
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
        rz_partials: Option<&SharedVec>,
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
            if let Some(bank) = rz_partials {
                bank.write_at(t, own.dot(zs, r.read()));
            }
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
    /// msolve reads `r` own-strip only, so the pipelined schedule and the
    /// restart path insert one extra barrier for the polynomial — counted
    /// in the pinned formulas). Each phase then applies one difference
    /// step own-strip — the `vecops::poly_step_chunk` arithmetic, term
    /// for term, so the chain is bitwise identical to the serial
    /// [`mspcg_core::PolynomialPreconditioner`] on identical inputs.
    ///
    /// The iterate banks alternate between the caller's `z` and the
    /// scratch bank `zb`, phased so the **final** step lands in the
    /// caller's vector (`z` is written by phase `j` iff `k − j` is even).
    /// A phase's SpMV reads the previous phase's bank cross-strip; the
    /// next write of that bank is separated from those reads by the
    /// intervening phase barrier — the same two-bank discipline as the
    /// pipelined schedule's parity rotation. The difference carry `d` and
    /// the `K·z` strip (parked in the SSOR half-sum cache `y`, which the
    /// polynomial path never touches) are own-strip only. The `(z, r)`
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
        rz_partials: Option<&SharedVec>,
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
                    if let Some(bank) = rz_partials {
                        bank.write_at(t, own.dot(zs, rv));
                    }
                }
            }
            barrier.wait();
        }
    }

    /// Eigenvalue bounds for the s-step Chebyshev basis recurrence —
    /// the SPMD counterpart of the serial solver's interval cache,
    /// sourced in the same priority order:
    ///
    /// 1. the polynomial configuration's construction-time interval
    ///    ([`ParPoly::interval`]) — the poly-precond ↔ s-step-basis half
    ///    of the one-estimate-per-operator cache, no second Lanczos run;
    /// 2. the instance-cached interval from an earlier s-step solve;
    /// 3. a fresh estimate, cached for every later solve: Lanczos (same
    ///    budget/seed/safeguard recipe as the serial rung) on the
    ///    composite `x ↦ M⁻¹(K x)` — `M⁻¹` evaluated by
    ///    [`ParallelMStepPcg::msolve_phases`] itself at one worker, so the
    ///    probed operator is bitwise the workers' — or on `K` itself for
    ///    plain CG. Runs on the main thread before any worker spawns.
    ///
    /// # Errors
    /// Lanczos breakdown ([`SparseError`] pass-through); the caller
    /// treats it as a detected setup fault and steps down the ladder.
    fn sstep_basis_interval(&self) -> Result<SpectralInterval, SparseError> {
        if let Some(p) = &self.poly {
            return Ok(p.interval);
        }
        if let Some(cached) = self.sstep_interval.get() {
            return Ok(*cached);
        }
        let n = self.dim();
        let k = self.table.matrix();
        let est = {
            // One worker owning every row runs the sweep phases back to
            // back on this thread; its 1-party barrier returns at once.
            let own = &OwnedRows::map(self.table.colors(), 1)[0];
            let [kx, z, y] = [(); 3].map(|()| SharedVec::zeros(n));
            let none = SharedVec::zeros(0);
            let pscr = PolyScratch {
                d: &none,
                zb: &none,
            };
            let barrier = SpinBarrier::new(1);
            lanczos_extremes(n, SSTEP_SPECTRUM_STEPS, SSTEP_SPECTRUM_SEED, |x, out| {
                if self.alphas.is_empty() {
                    k.mul_vec_range_into(x, out, 0..n);
                    return;
                }
                // SAFETY: this thread is the only worker; nothing else
                // touches the scratch vectors.
                unsafe { k.mul_vec_range_into(x, kx.write(0..n), 0..n) };
                self.msolve_phases(own, 0, &kx, &z, &y, &pscr, None, None, &barrier);
                // SAFETY: as above.
                out.copy_from_slice(unsafe { z.read() });
            })?
        };
        let interval = safeguard_jacobi_interval(est);
        // A racing second estimate computed the same value (the recipe
        // is deterministic), so first-write-wins is harmless.
        Ok(*self.sstep_interval.get_or_init(|| interval))
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
    use mspcg_core::{pcg_solve, MStepSsorPreconditioner, PcgOptions};
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

    fn variant_opts(variant: PcgVariant, threads: usize, tol: f64) -> ParallelSolverOptions {
        ParallelSolverOptions {
            threads,
            tol,
            max_iterations: 10_000,
            variant,
            // The schedule-pinning tests assert exact crossing counts, so
            // the audit phase must stay off.
            recovery: RecoveryPolicy::off(),
        }
    }

    #[test]
    fn single_reduction_matches_classic_solution() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let classic = par
            .solve(&rhs, &variant_opts(PcgVariant::Classic, 4, 1e-8))
            .unwrap();
        let sr = par
            .solve(&rhs, &variant_opts(PcgVariant::SingleReduction, 4, 1e-8))
            .unwrap();
        assert!(classic.converged && sr.converged);
        assert_eq!(classic.variant, PcgVariant::Classic);
        assert_eq!(sr.variant, PcgVariant::SingleReduction);
        assert!(
            (classic.iterations as isize - sr.iterations as isize).abs() <= 2,
            "classic {} vs single-reduction {}",
            classic.iterations,
            sr.iterations
        );
        for (x, y) in classic.x.iter().zip(&sr.x) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    /// The acceptance gate of the single-reduction schedule: the
    /// instrumented barrier proves `m·(2C−1) + 2` barriers per iteration
    /// (classic: `m·(2C−1) + 3`), and the replicated-reduction counter
    /// proves ONE reduction phase per iteration (classic: two).
    #[test]
    fn barrier_counter_proves_single_reduction_schedule() {
        let (a, colors, rhs) = plate(8);
        let c = colors.num_blocks();
        for m in [1usize, 2, 3] {
            let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; m]).unwrap();
            let sweep = m * (2 * c - 1);
            for threads in [1usize, 4] {
                let classic = par
                    .solve(&rhs, &variant_opts(PcgVariant::Classic, threads, 1e-8))
                    .unwrap();
                let sr = par
                    .solve(
                        &rhs,
                        &variant_opts(PcgVariant::SingleReduction, threads, 1e-8),
                    )
                    .unwrap();
                let (kc, ks) = (classic.iterations, sr.iterations);
                assert!(kc >= 1 && ks >= 1);
                // Classic: init sweep, k−1 full iterations of sweep + 3
                // barriers, converging iteration stops after its second.
                assert_eq!(
                    classic.barrier_crossings,
                    sweep + (kc - 1) * (sweep + 3) + 2,
                    "classic barrier count, m = {m}, threads = {threads}"
                );
                // Single-reduction: init sweep + the w-phase barrier, k−1
                // full iterations of sweep + 2, converging iteration stops
                // after the mega-update barrier.
                assert_eq!(
                    sr.barrier_crossings,
                    sweep + 1 + (ks - 1) * (sweep + 2) + 1,
                    "single-reduction barrier count, m = {m}, threads = {threads}"
                );
                // Reduction phases: two per classic iteration, ONE per
                // single-reduction iteration (init phase included, the
                // converging iteration's phases as scheduled above).
                assert_eq!(classic.reduction_phases, 2 * kc, "classic phases, m = {m}");
                assert_eq!(sr.reduction_phases, ks, "single-reduction phases, m = {m}");
            }
        }
    }

    #[test]
    fn plain_cg_single_reduction_runs_two_barriers_per_iteration() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![]).unwrap();
        let sr = par
            .solve(&rhs, &variant_opts(PcgVariant::SingleReduction, 3, 1e-8))
            .unwrap();
        assert!(sr.converged);
        // z ≡ r drops the preconditioner phases entirely: 1 init barrier,
        // 2 per full iteration, 1 on the converging iteration.
        assert_eq!(sr.barrier_crossings, 2 * sr.iterations);
        let exact = a.to_dense().cholesky().unwrap().solve(&rhs);
        for (x, v) in sr.x.iter().zip(&exact) {
            assert!((x - v).abs() < 1e-5);
        }
    }

    #[test]
    fn single_reduction_is_deterministic_and_format_insensitive() {
        let (a, colors, rhs) = plate(7);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let par_sell = ParallelMStepPcg::new(&sell, &colors, vec![1.0; 2]).unwrap();
        let opts = variant_opts(PcgVariant::SingleReduction, 4, 1e-9);
        let r1 = par_csr.solve(&rhs, &opts).unwrap();
        let r2 = par_csr.solve(&rhs, &opts).unwrap();
        // Bitwise reproducible within the variant.
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
        // And across storage formats (one extracted sweep table).
        let rs = par_sell.solve(&rhs, &opts).unwrap();
        assert_eq!(r1.iterations, rs.iterations);
        assert!(r1
            .x
            .iter()
            .zip(&rs.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    #[test]
    fn single_reduction_budget_and_zero_budget_match_classic_reporting() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-14,
                max_iterations: 2,
                variant: PcgVariant::SingleReduction,
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 2, .. })
        ));
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-8,
                max_iterations: 0,
                variant: PcgVariant::SingleReduction,
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 0, .. })
        ));
    }

    #[test]
    fn pipelined_matches_classic_solution() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let classic = par
            .solve(&rhs, &variant_opts(PcgVariant::Classic, 4, 1e-8))
            .unwrap();
        let pl = par
            .solve(&rhs, &variant_opts(PcgVariant::Pipelined, 4, 1e-8))
            .unwrap();
        assert!(classic.converged && pl.converged);
        assert_eq!(pl.variant, PcgVariant::Pipelined, "fell back unexpectedly");
        assert!(
            (classic.iterations as isize - pl.iterations as isize).abs() <= 3,
            "classic {} vs pipelined {}",
            classic.iterations,
            pl.iterations
        );
        for (x, y) in classic.x.iter().zip(&pl.x) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    /// The acceptance gate of the pipelined schedule, by exact formula.
    ///
    /// `sweep = m·(2C−1)` full-barrier crossings per msolve. For a run of
    /// `I` iterations (the converging iteration runs its full schedule —
    /// its heavy phase is speculative, the price of the overlap):
    ///
    /// * **m ≥ 1 — spin crossings `(I + 2)·sweep`:** init runs TWO
    ///   msolves (`z⁰ = M⁻¹f`, then `mv⁰ = M⁻¹w⁰`) and each iteration
    ///   exactly one. *No other full barrier exists*: the update
    ///   mega-phase touches own strips only, so its trailing barrier is
    ///   replaced by the split `arrive`, and the `nv = K·mv` SpMV needs
    ///   none because `nv` is only ever read own-strip and the `mv` bank
    ///   it reads cross-strip rotates by parity.
    /// * **m = 0 — spin crossings `I + 1`:** the single full barrier per
    ///   iteration (plus one at init) separates the rotated w-bank write
    ///   from the cross-strip `K·w` read; there is no preconditioner.
    /// * **split crossings `I + 1`:** exactly one reduction in flight per
    ///   iteration (plus init) — `arrive` directly after the update
    ///   phase's partials, `wait` only after the preconditioner + SpMV.
    ///   Together with the spin formulas this *proves* the overlap: no
    ///   full barrier sits between the partial publication and the heavy
    ///   phase, so the only reduction synchronization is the split wait,
    ///   which the schedule places after the heavy phase.
    /// * **reduction phases `I + 1`:** one per iteration plus init (the
    ///   converging iteration's γ′/δ ride the same wait as its stopping
    ///   test, so it is counted too).
    ///
    /// The classic and single-reduction schedules must be byte-for-byte
    /// unchanged by the pipelined addition — their formulas are asserted
    /// here as well (at m ≥ 1; the existing counter test pins them too),
    /// along with `split_crossings == 0`: those schedules never touch the
    /// split barrier.
    #[test]
    fn barrier_counter_proves_pipelined_schedule() {
        let (a, colors, rhs) = plate(8);
        let c = colors.num_blocks();
        for m in [0usize, 1, 2, 3] {
            let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; m]).unwrap();
            let sweep = m * (2 * c - 1);
            for threads in [1usize, 4] {
                let pl = par
                    .solve(&rhs, &variant_opts(PcgVariant::Pipelined, threads, 1e-8))
                    .unwrap();
                assert!(pl.converged);
                assert_eq!(
                    pl.variant,
                    PcgVariant::Pipelined,
                    "fell back, m = {m}, threads = {threads}"
                );
                let i = pl.iterations;
                assert!(i >= 1);
                let expected_spin = if m == 0 { i + 1 } else { (i + 2) * sweep };
                assert_eq!(
                    pl.barrier_crossings, expected_spin,
                    "pipelined spin-barrier count, m = {m}, threads = {threads}"
                );
                assert_eq!(
                    pl.split_crossings,
                    i + 1,
                    "pipelined split-barrier count, m = {m}, threads = {threads}"
                );
                assert_eq!(
                    pl.reduction_phases,
                    i + 1,
                    "pipelined reduction phases, m = {m}, threads = {threads}"
                );

                // Classic and single-reduction schedules unchanged (and
                // split-barrier free).
                let classic = par
                    .solve(&rhs, &variant_opts(PcgVariant::Classic, threads, 1e-8))
                    .unwrap();
                let sr = par
                    .solve(
                        &rhs,
                        &variant_opts(PcgVariant::SingleReduction, threads, 1e-8),
                    )
                    .unwrap();
                assert_eq!(classic.split_crossings, 0);
                assert_eq!(sr.split_crossings, 0);
                let (kc, ks) = (classic.iterations, sr.iterations);
                // Classic m = 0 still pays a one-barrier z ← r copy phase
                // where an m ≥ 1 run pays the sweep.
                let msolve = if m == 0 { 1 } else { sweep };
                assert_eq!(
                    classic.barrier_crossings,
                    msolve + (kc - 1) * (msolve + 3) + 2,
                    "classic barrier count changed, m = {m}, threads = {threads}"
                );
                if m == 0 {
                    // SR plain CG: z ≡ r, two barriers per iteration.
                    assert_eq!(sr.barrier_crossings, 2 * ks);
                } else {
                    assert_eq!(
                        sr.barrier_crossings,
                        sweep + 1 + (ks - 1) * (sweep + 2) + 1,
                        "single-reduction barrier count changed, m = {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_is_deterministic_and_format_insensitive() {
        let (a, colors, rhs) = plate(7);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let par_sell = ParallelMStepPcg::new(&sell, &colors, vec![1.0; 2]).unwrap();
        let opts = variant_opts(PcgVariant::Pipelined, 4, 1e-8);
        let r1 = par_csr.solve(&rhs, &opts).unwrap();
        let r2 = par_csr.solve(&rhs, &opts).unwrap();
        // Bitwise reproducible within the variant.
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
        // And across storage formats (one extracted sweep table).
        let rs = par_sell.solve(&rhs, &opts).unwrap();
        assert_eq!(r1.iterations, rs.iterations);
        assert!(r1
            .x
            .iter()
            .zip(&rs.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    #[test]
    fn pipelined_plain_cg_converges_on_one_barrier_per_iteration() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![]).unwrap();
        let pl = par
            .solve(&rhs, &variant_opts(PcgVariant::Pipelined, 3, 1e-8))
            .unwrap();
        assert!(pl.converged);
        assert_eq!(pl.barrier_crossings, pl.iterations + 1);
        assert_eq!(pl.split_crossings, pl.iterations + 1);
        let exact = a.to_dense().cholesky().unwrap().solve(&rhs);
        for (x, v) in pl.x.iter().zip(&exact) {
            assert!((x - v).abs() < 1e-5);
        }
    }

    #[test]
    fn pipelined_budget_and_zero_budget_match_classic_reporting() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-14,
                max_iterations: 2,
                variant: PcgVariant::Pipelined,
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 2, .. })
        ));
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-8,
                max_iterations: 0,
                variant: PcgVariant::Pipelined,
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 0, .. })
        ));
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
    /// and leaves the iterate stream bitwise untouched on every schedule.
    #[test]
    fn audit_phase_costs_one_barrier_and_nothing_else() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        for variant in [
            PcgVariant::Classic,
            PcgVariant::SingleReduction,
            PcgVariant::Pipelined,
        ] {
            let off = par.solve(&rhs, &variant_opts(variant, 4, 1e-8)).unwrap();
            let mut opts = variant_opts(variant, 4, 1e-8);
            opts.recovery = RecoveryPolicy {
                replacement: mspcg_core::recovery::Toggle::On,
                audit_period: 4,
                ..RecoveryPolicy::default()
            };
            let on = par.solve(&rhs, &opts).unwrap();
            assert!(on.converged, "{variant:?}");
            assert_eq!(on.iterations, off.iterations, "{variant:?}");
            // Bitwise identical: the audit observes, it does not touch.
            assert!(
                on.x.iter()
                    .zip(&off.x)
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "{variant:?}"
            );
            let audits = (off.iterations - 1) / 4;
            assert_eq!(on.audits, audits, "{variant:?}");
            assert_eq!(
                on.barrier_crossings,
                off.barrier_crossings + audits,
                "{variant:?}"
            );
            assert_eq!(on.reduction_phases, off.reduction_phases, "{variant:?}");
            assert_eq!(on.split_crossings, off.split_crossings, "{variant:?}");
            assert_eq!(
                (on.replacements, on.recoveries, on.faults_detected),
                (0, 0, 0),
                "{variant:?}"
            );
        }
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
            .solve_with_faults(
                &rhs,
                &variant_opts(PcgVariant::Classic, 4, 1e-8),
                &nan_msolve_at(2),
            )
            .unwrap();
        assert!(rep.converged);
        assert_eq!(rep.variant, PcgVariant::Classic);
        // One non-finite β-scalar detection, one in-place restart, no
        // ladder motion, no audit phases (policy pinned off).
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

    /// The persistent-fault ladder walk: the planned fault is
    /// iteration-indexed and every rung rerun restarts the counter, so it
    /// re-fires on each rung — detector-only rungs step down, the classic
    /// rung absorbs it. Counters prove the exact path.
    #[test]
    fn recurrence_schedules_walk_the_ladder_under_persistent_fault() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let exact = exact_solution(&a, &rhs);

        // SingleReduction: detect at the poisoned γ′ → one step down →
        // classic absorbs the re-fired fault in place.
        let sr = par
            .solve_with_faults(
                &rhs,
                &variant_opts(PcgVariant::SingleReduction, 4, 1e-8),
                &nan_msolve_at(2),
            )
            .unwrap();
        assert!(sr.converged);
        assert_eq!(sr.variant, PcgVariant::Classic);
        assert_eq!(
            (
                sr.faults_detected,
                sr.replacements,
                sr.recoveries,
                sr.audits
            ),
            (2, 1, 1, 0)
        );
        for (x, v) in sr.x.iter().zip(&exact) {
            assert!((x - v).abs() < 1e-5, "{x} vs {v}");
        }

        // Pipelined: the poisoned auxiliary surfaces one iteration later
        // in γ′/δ → two steps down, three detections total.
        let pl = par
            .solve_with_faults(
                &rhs,
                &variant_opts(PcgVariant::Pipelined, 4, 1e-8),
                &nan_msolve_at(2),
            )
            .unwrap();
        assert!(pl.converged);
        assert_eq!(pl.variant, PcgVariant::Classic);
        assert_eq!(
            (
                pl.faults_detected,
                pl.replacements,
                pl.recoveries,
                pl.audits
            ),
            (3, 1, 2, 0)
        );
        for (x, v) in pl.x.iter().zip(&exact) {
            assert!((x - v).abs() < 1e-5, "{x} vs {v}");
        }
    }

    /// A large-but-finite SpMV corruption slips every non-finite check —
    /// only the residual audit can see it. The classic schedule replaces
    /// the drifted carry and still converges to the true solution.
    #[test]
    fn audit_catches_finite_spmv_corruption_and_replaces() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let mut opts = variant_opts(PcgVariant::Classic, 4, 1e-10);
        opts.recovery = RecoveryPolicy {
            replacement: mspcg_core::recovery::Toggle::On,
            audit_period: 4,
            ..RecoveryPolicy::default()
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
        let opts = variant_opts(PcgVariant::Pipelined, 4, 1e-8);
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
        let rep = par
            .solve(&rhs, &variant_opts(PcgVariant::Classic, 4, 1e-8))
            .unwrap();
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
    /// per-iteration budgets are the sweep formulas with `sweep → k`,
    /// plus one extra input-finalization barrier per overlap window on
    /// the pipelined schedule (the fused first phase reads its input
    /// cross-strip where the sweep reads own-strip):
    ///
    /// * classic: `k + (I−1)(k+3) + 2` crossings, `2I` reduction phases,
    /// * single-reduction: `k+1 + (I−1)(k+2) + 1` crossings, `I` phases,
    /// * pipelined: `(I+2)k + I + 1` spin crossings (init `2k+1`, each
    ///   iteration `k+1`), `I+1` split crossings, `I+1` phases.
    #[test]
    fn barrier_counter_proves_polynomial_schedule() {
        let (a, colors, rhs) = plate(8);
        for k in [2usize, 4] {
            let par = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, k).unwrap();
            for threads in [1usize, 4] {
                let classic = par
                    .solve(&rhs, &variant_opts(PcgVariant::Classic, threads, 1e-8))
                    .unwrap();
                let sr = par
                    .solve(
                        &rhs,
                        &variant_opts(PcgVariant::SingleReduction, threads, 1e-8),
                    )
                    .unwrap();
                let pl = par
                    .solve(&rhs, &variant_opts(PcgVariant::Pipelined, threads, 1e-8))
                    .unwrap();
                assert!(classic.converged && sr.converged && pl.converged);
                assert_eq!(classic.variant, PcgVariant::Classic);
                assert_eq!(
                    sr.variant,
                    PcgVariant::SingleReduction,
                    "fell back, k = {k}, threads = {threads}"
                );
                assert_eq!(
                    pl.variant,
                    PcgVariant::Pipelined,
                    "fell back, k = {k}, threads = {threads}"
                );
                let (ic, is, ip) = (classic.iterations, sr.iterations, pl.iterations);
                assert!(ic >= 1 && is >= 1 && ip >= 1);
                assert_eq!(
                    classic.barrier_crossings,
                    k + (ic - 1) * (k + 3) + 2,
                    "classic poly barrier count, k = {k}, threads = {threads}"
                );
                assert_eq!(classic.reduction_phases, 2 * ic);
                assert_eq!(classic.split_crossings, 0);
                assert_eq!(
                    sr.barrier_crossings,
                    k + 1 + (is - 1) * (k + 2) + 1,
                    "single-reduction poly barrier count, k = {k}, threads = {threads}"
                );
                assert_eq!(sr.reduction_phases, is);
                assert_eq!(sr.split_crossings, 0);
                assert_eq!(
                    pl.barrier_crossings,
                    (ip + 2) * k + ip + 1,
                    "pipelined poly spin count, k = {k}, threads = {threads}"
                );
                assert_eq!(pl.split_crossings, ip + 1);
                assert_eq!(pl.reduction_phases, ip + 1);
            }
        }
    }

    #[test]
    fn poly_is_deterministic_and_format_insensitive() {
        let (a, colors, rhs) = plate(7);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, 3).unwrap();
        let par_sell = ParallelMStepPcg::poly(&sell, &colors, PolyKind::Chebyshev, 3).unwrap();
        for variant in [
            PcgVariant::Classic,
            PcgVariant::SingleReduction,
            PcgVariant::Pipelined,
        ] {
            let opts = variant_opts(variant, 4, 1e-8);
            let r1 = par_csr.solve(&rhs, &opts).unwrap();
            let r2 = par_csr.solve(&rhs, &opts).unwrap();
            // Bitwise reproducible within the variant.
            assert_eq!(r1.iterations, r2.iterations, "{variant:?}");
            assert_eq!(r1.x, r2.x, "{variant:?}");
            // And across storage formats: the SELL-C-σ row kernel is
            // bitwise the CSR row loop, so the Lanczos interval, the
            // schedule, and every iterate replay exactly.
            let rs = par_sell.solve(&rhs, &opts).unwrap();
            assert_eq!(r1.iterations, rs.iterations, "{variant:?}");
            assert!(
                r1.x.iter()
                    .zip(&rs.x)
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "format divergence under {variant:?}"
            );
        }
    }

    /// The recovery ladder treats a poisoned polynomial msolve exactly
    /// like a poisoned sweep: same detection points, same rung walk,
    /// same counters.
    #[test]
    fn poly_schedules_walk_the_ladder_under_persistent_fault() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, 2).unwrap();
        let exact = exact_solution(&a, &rhs);
        for (variant, final_variant, counters) in [
            (PcgVariant::Classic, PcgVariant::Classic, (1, 1, 0)),
            (PcgVariant::SingleReduction, PcgVariant::Classic, (2, 1, 1)),
            (PcgVariant::Pipelined, PcgVariant::Classic, (3, 1, 2)),
        ] {
            let rep = par
                .solve_with_faults(&rhs, &variant_opts(variant, 4, 1e-8), &nan_msolve_at(2))
                .unwrap();
            assert!(rep.converged, "{variant:?}");
            assert_eq!(rep.variant, final_variant, "{variant:?}");
            assert_eq!(
                (rep.faults_detected, rep.replacements, rep.recoveries),
                counters,
                "{variant:?}"
            );
            for (x, v) in rep.x.iter().zip(&exact) {
                assert!((x - v).abs() < 1e-5, "{x} vs {v} under {variant:?}");
            }
        }
    }

    #[test]
    fn auto_constructor_respects_pins_and_heuristic() {
        let (a, colors, rhs) = plate(6);
        // Pinned selections pass through the auto constructor verbatim.
        let ssor = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::MStepSsor { m: 3 }).unwrap();
        assert_eq!(ssor.precond(), PrecondKind::MStepSsor { m: 3 });
        let poly = ParallelMStepPcg::auto(
            &a,
            &colors,
            2,
            PrecondKind::Poly {
                kind: PolyKind::Newton,
                degree: 5,
            },
        )
        .unwrap();
        assert_eq!(
            poly.precond(),
            PrecondKind::Poly {
                kind: PolyKind::Newton,
                degree: 5
            }
        );
        // Auto follows the barrier-cost heuristic.
        let auto = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::Auto).unwrap();
        assert_eq!(
            auto.precond(),
            PrecondKind::Auto.resolve(colors.num_blocks(), 2)
        );
        // Both pinned solvers reach the true solution.
        let exact = exact_solution(&a, &rhs);
        for par in [&ssor, &poly] {
            let rep = par
                .solve(&rhs, &variant_opts(PcgVariant::Classic, 2, 1e-8))
                .unwrap();
            assert!(rep.converged);
            for (x, v) in rep.x.iter().zip(&exact) {
                assert!((x - v).abs() < 1e-5, "{x} vs {v}");
            }
        }
    }

    #[test]
    fn auto_heuristic_falls_back_to_ssor_on_degenerate_spectrum() {
        // K = 3I in a 2-color blocking: the barrier-cost heuristic alone
        // picks the polynomial (2C−1 = 3 > 2), but the Jacobi spectrum of
        // a scaled identity is the single point {1} — the RAW Lanczos
        // interval is degenerate, so the SPMD auto constructor must
        // revise the heuristic choice down to m-step SSOR, exactly like
        // [`mspcg_core::auto_preconditioner`].
        let n = 12;
        let mut c = mspcg_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 3.0).unwrap();
        }
        let a = c.to_csr();
        let colors = Partition::from_sizes(&[6, 6]).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        // Sanity: the heuristic alone WOULD pick the polynomial here.
        assert!(matches!(
            PrecondKind::Auto.resolve(colors.num_blocks(), 2),
            PrecondKind::Poly { .. }
        ));
        let auto = ParallelMStepPcg::auto(&a, &colors, 2, PrecondKind::Auto).unwrap();
        assert_eq!(auto.precond(), PrecondKind::MStepSsor { m: 2 });
        let rep = auto
            .solve(&rhs, &variant_opts(PcgVariant::Classic, 2, 1e-10))
            .unwrap();
        assert!(rep.converged);
        for (x, f) in rep.x.iter().zip(&rhs) {
            assert!((x - f / 3.0).abs() < 1e-10, "{x} vs {}", f / 3.0);
        }
        // A *pinned* polynomial stays pinned on the same spectrum: its
        // schedule absorbs the degenerate (safeguard-widened) interval.
        let pinned = ParallelMStepPcg::auto(
            &a,
            &colors,
            2,
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 2,
            },
        )
        .unwrap();
        assert_eq!(
            pinned.precond(),
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 2
            }
        );
    }

    // ------------------- s-step schedule --------------------------------

    #[test]
    fn sstep_matches_classic_solution() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let classic = par
            .solve(&rhs, &variant_opts(PcgVariant::Classic, 4, 1e-8))
            .unwrap();
        for s in [2usize, 4] {
            let st = par
                .solve(&rhs, &variant_opts(PcgVariant::SStep { s }, 4, 1e-8))
                .unwrap();
            assert!(st.converged, "s = {s}");
            assert_eq!(
                st.variant,
                PcgVariant::SStep { s },
                "fell back unexpectedly, s = {s}"
            );
            // Block-granular basis restarts cost at most a block of slack.
            assert!(
                (classic.iterations as isize - st.iterations as isize).abs()
                    <= (2 * s + 2) as isize,
                "classic {} vs s-step({s}) {}",
                classic.iterations,
                st.iterations
            );
            for (x, y) in classic.x.iter().zip(&st.x) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}, s = {s}");
            }
        }
    }

    /// The acceptance gate of the s-step schedule, by exact formula: for
    /// `B = ⌈I/s⌉` outer steps of a converged `I`-iteration run,
    ///
    /// * **reduction phases `B`** — ONE fused Gram phase per `s`
    ///   iterations (no init phase), against the classic `2I` and the
    ///   single-reduction/pipelined `I + 1`;
    /// * **spin crossings `B·(s·sweep + 2s)`** for m ≥ 1 (`sweep =
    ///   m(2C−1)`) and `B·(s + 1)` for plain CG, where `v₁ ≡ r` and the
    ///   Chebyshev step fuses into the SpMV phase;
    /// * **split crossings 0** — every reduction blocks at a spin
    ///   barrier.
    #[test]
    fn barrier_counter_proves_sstep_schedule() {
        let (a, colors, rhs) = plate(8);
        let c = colors.num_blocks();
        for m in [0usize, 1, 2] {
            let par = ParallelMStepPcg::new(&a, &colors, vec![1.0; m]).unwrap();
            let sweep = m * (2 * c - 1);
            for s in [2usize, 4] {
                for threads in [1usize, 4] {
                    let rep = par
                        .solve(&rhs, &variant_opts(PcgVariant::SStep { s }, threads, 1e-8))
                        .unwrap();
                    assert!(rep.converged);
                    assert_eq!(
                        rep.variant,
                        PcgVariant::SStep { s },
                        "fell back, m = {m}, s = {s}, threads = {threads}"
                    );
                    let blocks = rep.iterations.div_ceil(s);
                    assert_eq!(
                        rep.reduction_phases, blocks,
                        "ONE reduction phase per {s} iterations, m = {m}, threads = {threads}"
                    );
                    let per_block = if m == 0 { s + 1 } else { s * sweep + 2 * s };
                    assert_eq!(
                        rep.barrier_crossings,
                        blocks * per_block,
                        "s-step barrier count, m = {m}, s = {s}, threads = {threads}"
                    );
                    assert_eq!(rep.split_crossings, 0);
                }
            }
        }
    }

    /// s-step over the polynomial msolve: `s(k+2)` barriers per outer
    /// step (each of the `s` basis msolves costs `k`, each SpMV and each
    /// Chebyshev step one), still ONE reduction phase per `s` iterations
    /// — and the basis interval is the polynomial's construction-time
    /// estimate, so no second Lanczos run happens (asserted indirectly:
    /// the schedule is exact from the first solve).
    #[test]
    fn barrier_counter_proves_sstep_polynomial_schedule() {
        let (a, colors, rhs) = plate(8);
        for k in [2usize, 4] {
            let par = ParallelMStepPcg::poly(&a, &colors, PolyKind::Chebyshev, k).unwrap();
            for s in [2usize, 4] {
                for threads in [1usize, 4] {
                    let rep = par
                        .solve(&rhs, &variant_opts(PcgVariant::SStep { s }, threads, 1e-8))
                        .unwrap();
                    assert!(rep.converged);
                    assert_eq!(
                        rep.variant,
                        PcgVariant::SStep { s },
                        "fell back, k = {k}, s = {s}, threads = {threads}"
                    );
                    let blocks = rep.iterations.div_ceil(s);
                    assert_eq!(rep.reduction_phases, blocks);
                    assert_eq!(
                        rep.barrier_crossings,
                        blocks * (s * (k + 2)),
                        "s-step poly barrier count, k = {k}, s = {s}, threads = {threads}"
                    );
                    assert_eq!(rep.split_crossings, 0);
                }
            }
        }
    }

    #[test]
    fn sstep_is_deterministic_and_format_insensitive() {
        let (a, colors, rhs) = plate(7);
        let sell = mspcg_sparse::SellCsMatrix::from_csr_default(&a);
        let par_csr = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).unwrap();
        let par_sell = ParallelMStepPcg::new(&sell, &colors, vec![1.0; 2]).unwrap();
        let opts = variant_opts(PcgVariant::SStep { s: 4 }, 4, 1e-8);
        let r1 = par_csr.solve(&rhs, &opts).unwrap();
        let r2 = par_csr.solve(&rhs, &opts).unwrap();
        // Bitwise reproducible within the variant (the cached interval
        // makes the second solve replay the first's basis exactly).
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
        // And across storage formats: the extracted sweep table — and
        // therefore the Lanczos probe and the interval — is identical.
        let rs = par_sell.solve(&rhs, &opts).unwrap();
        assert_eq!(r1.iterations, rs.iterations);
        assert!(r1
            .x
            .iter()
            .zip(&rs.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    #[test]
    fn sstep_thread_count_insensitive_result() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let solve = |threads: usize| {
            par.solve(
                &rhs,
                &variant_opts(PcgVariant::SStep { s: 2 }, threads, 1e-9),
            )
            .unwrap()
        };
        let r1 = solve(1);
        let r4 = solve(4);
        assert_eq!(r1.iterations, r4.iterations);
        for (u, v) in r1.x.iter().zip(&r4.x) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    /// The four-rung ladder walk: the persistent msolve fault poisons the
    /// s-step basis (detected at the fused Gram phase), re-fires on the
    /// pipelined and single-reduction reruns, and is absorbed in place by
    /// the classic rung — four detections, three step-downs, one
    /// replacement.
    #[test]
    fn sstep_walks_the_full_ladder_under_persistent_fault() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let rep = par
            .solve_with_faults(
                &rhs,
                &variant_opts(PcgVariant::SStep { s: 4 }, 4, 1e-8),
                &nan_msolve_at(2),
            )
            .unwrap();
        assert!(rep.converged);
        assert_eq!(rep.variant, PcgVariant::Classic);
        assert_eq!(
            (
                rep.faults_detected,
                rep.replacements,
                rep.recoveries,
                rep.audits
            ),
            (4, 1, 3, 0)
        );
        for (x, v) in rep.x.iter().zip(&exact_solution(&a, &rhs)) {
            assert!((x - v).abs() < 1e-5, "{x} vs {v}");
        }
    }

    /// The audit is detector-only on the s-step rung too: one extra
    /// barrier per audited block, no reduction phase, and a bitwise
    /// untouched iterate stream.
    #[test]
    fn sstep_audit_costs_one_barrier_per_audited_block() {
        let (a, colors, rhs) = plate(8);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        let off = par
            .solve(&rhs, &variant_opts(PcgVariant::SStep { s: 2 }, 4, 1e-8))
            .unwrap();
        let mut opts = variant_opts(PcgVariant::SStep { s: 2 }, 4, 1e-8);
        opts.recovery = RecoveryPolicy {
            replacement: mspcg_core::recovery::Toggle::On,
            audit_period: 4,
            ..RecoveryPolicy::default()
        };
        let on = par.solve(&rhs, &opts).unwrap();
        assert!(on.converged);
        assert_eq!(on.iterations, off.iterations);
        assert!(on
            .x
            .iter()
            .zip(&off.x)
            .all(|(u, v)| u.to_bits() == v.to_bits()));
        assert!(on.audits >= 1);
        assert_eq!(on.barrier_crossings, off.barrier_crossings + on.audits);
        assert_eq!(on.reduction_phases, off.reduction_phases);
        assert_eq!(
            (on.replacements, on.recoveries, on.faults_detected),
            (0, 0, 0)
        );
    }

    #[test]
    fn sstep_budget_and_sliver_are_exhaustion() {
        let (a, colors, rhs) = plate(6);
        let par = ParallelMStepPcg::new(&a, &colors, vec![1.0]).unwrap();
        // An unreachable tolerance exhausts whole blocks.
        let err = par.solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-14,
                max_iterations: 4,
                variant: PcgVariant::SStep { s: 2 },
                ..Default::default()
            },
        );
        assert!(matches!(
            err,
            Err(SparseError::DidNotConverge { iterations: 4, .. })
        ));
        // A budget shorter than one block never starts (the sliver is
        // exhaustion, not convergence) — and so is a zero budget.
        for max_iterations in [2usize, 0] {
            let err = par.solve(
                &rhs,
                &ParallelSolverOptions {
                    threads: 2,
                    tol: 1e-8,
                    max_iterations,
                    variant: PcgVariant::SStep { s: 4 },
                    ..Default::default()
                },
            );
            assert!(
                matches!(err, Err(SparseError::DidNotConverge { iterations: 0, .. })),
                "max_iterations = {max_iterations}"
            );
        }
    }
}
