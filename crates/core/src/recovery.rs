//! Fault injection, residual auditing and in-place recovery.
//!
//! PCG carries the residual `r` by recurrence, so it drifts away from the
//! true residual `f − Ku`; a silent data corruption (a flipped bit in an
//! SpMV output, a NaN out of a preconditioner application) is the same
//! failure mode in concentrated form. This module supplies the two
//! robustness layers both executors thread through every entry point:
//!
//! 1. **Fault injection** — [`FaultyOp`] / [`FaultyPreconditioner`] wrap
//!    any operator/preconditioner and perturb chosen *applications*
//!    deterministically ([`FaultKind`]: bit flips, NaN/Inf, scaled noise),
//!    and [`FaultPlan`] describes iteration-indexed faults for the SPMD
//!    solver (whose sweep table never calls back into the operator). Every
//!    detection and recovery path below is exercised under injection by
//!    `tests/fault_injection.rs` instead of being trusted.
//! 2. **Residual audit + replacement** — with
//!    [`RecoveryPolicy::replacement`] on, every
//!    [`RecoveryPolicy::audit_period`] iterations the solver recomputes the
//!    true residual, compares it with the recurrence residual, and on
//!    divergence beyond [`replacement_bound`] replaces the carried vectors
//!    from the true residual and re-derives the CG scalars (van der
//!    Vorst/Ye-style residual replacement). A non-finite reduction scalar
//!    triggers the same in-place restart from the current iterate whether
//!    or not audits run; it surfaces as
//!    [`SparseError::NonFinite`](mspcg_sparse::SparseError::NonFinite)
//!    only once the [`RecoveryPolicy::max_replacements`] budget is spent.
//!    Both executors read the decision from one [`AuditPlan`].
//!
//! Everything is *measured*: audits, replacements and detected/injected
//! faults are counted in `PcgStats` and `ParallelSolveReport`, exactly
//! like the barrier/reduction counters.

use crate::preconditioner::Preconditioner;
use mspcg_sparse::SparseOp;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default replacement budget: enough for persistent-fault scenarios
/// (a fault re-injected after every restart) while still bounding a
/// pathological always-corrupting operator.
pub const DEFAULT_MAX_REPLACEMENTS: usize = 32;

/// Default iterations between residual audits. One audit costs one extra
/// SpMV (and one extra barrier on the SPMD schedule), so the default
/// trades a few percent of overhead for bounded recurrence drift.
pub const DEFAULT_AUDIT_PERIOD: usize = 32;

/// How a solve detects and recovers from drift and corruption. Carried in
/// `PcgOptions::recovery` / `ParallelSolverOptions::recovery`; `Copy` and
/// cheap so options stay plain-old-data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Residual auditing + replacement switch (default `false`: no audit
    /// phase runs, which pins the exact barrier/reduction schedule).
    pub replacement: bool,
    /// Iterations between audits (default [`DEFAULT_AUDIT_PERIOD`]; `1`
    /// audits every iteration). A solve rejects `0` with
    /// [`SparseError::ZeroAuditPeriod`].
    ///
    /// [`SparseError::ZeroAuditPeriod`]: mspcg_sparse::SparseError::ZeroAuditPeriod
    pub audit_period: usize,
    /// Upper bound on replacements (audit-triggered and non-finite
    /// recoveries) per solve; once exhausted, audit divergence is ignored
    /// and a non-finite scalar surfaces as [`SparseError::NonFinite`].
    ///
    /// [`SparseError::NonFinite`]: mspcg_sparse::SparseError::NonFinite
    pub max_replacements: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            replacement: false,
            audit_period: DEFAULT_AUDIT_PERIOD,
            max_replacements: DEFAULT_MAX_REPLACEMENTS,
        }
    }
}

impl RecoveryPolicy {
    /// Auditing on (period/budget at their defaults).
    pub fn on() -> Self {
        RecoveryPolicy {
            replacement: true,
            ..RecoveryPolicy::default()
        }
    }
}

/// The audit decision of one solve — policy × tolerance × `‖f‖₂` — made
/// once before the loop runs and read by the serial loop and every SPMD
/// worker alike.
#[derive(Debug, Clone, Copy)]
pub struct AuditPlan {
    /// Whether audits run at all.
    pub enabled: bool,
    /// Iterations between audits.
    pub period: usize,
    /// Squared replacement bound: comparing `‖r_true − r‖₂²` against it
    /// avoids a square root, and [`diverged`] reads a NaN deviation
    /// (poisoned residual) as divergent.
    pub bound2: f64,
    /// Replacement budget of the solve.
    pub max_replacements: usize,
}

impl AuditPlan {
    /// Resolve `policy` for a solve at tolerance `tol` whose right-hand
    /// side has norm `f_norm`.
    pub fn new(policy: &RecoveryPolicy, tol: f64, f_norm: f64) -> Self {
        let bound = replacement_bound(tol, f_norm);
        AuditPlan {
            enabled: policy.replacement,
            period: policy.audit_period,
            bound2: bound * bound,
            max_replacements: policy.max_replacements,
        }
    }
}

/// Divergence bound of the residual audit: the recurrence residual is
/// replaced when `‖(f − Ku) − r‖₂` exceeds this. Relative to `‖f‖₂`, an
/// order of magnitude above the stopping tolerance (benign drift below the
/// tolerance cannot block convergence), floored well above machine epsilon
/// so a clean classic solve never replaces.
pub fn replacement_bound(tol: f64, f_norm: f64) -> f64 {
    (10.0 * tol).max(1e3 * f64::EPSILON) * f_norm
}

/// Audit schedule predicate, shared by the serial loop and the SPMD
/// workers: at the *top* of (1-based) iteration `iter`, audit the state
/// left by iteration `iter − 1`. `start` is the iteration the current
/// pass restarted from — requiring `iter − 1 > start` guarantees every
/// audit-triggered restart strictly advances, so the restart loop
/// terminates on the iteration budget alone.
pub fn audit_due(iter: usize, start: usize, period: usize) -> bool {
    let done = iter - 1;
    done > start && done.is_multiple_of(period.max(1))
}

/// Audit verdict: does the squared deviation `‖aud − r‖₂²` exceed the
/// squared [`replacement_bound`]? Written as a *negated* `<=` on purpose:
/// a NaN deviation (corruption reached the residual itself) compares
/// false against any bound and must count as divergence, which `dev2 >
/// bound2` would miss.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn diverged(dev2: f64, bound2: f64) -> bool {
    !(dev2 <= bound2)
}

/// The perturbation a fault applies to one `f64` of a kernel's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// XOR bit `b % 64` of the IEEE-754 representation — the classic
    /// silent-data-corruption model. High exponent bits give the large,
    /// *finite* perturbations only the audit can catch.
    BitFlip(u32),
    /// Replace the value with NaN (poisons every reduction it feeds).
    NaN,
    /// Replace the value with +∞.
    Inf,
    /// Add `scale · max(|v|, 1)` — a large-but-structured analog error.
    ScaledNoise(f64),
}

/// Apply `kind` to `v`.
pub fn perturb(v: f64, kind: FaultKind) -> f64 {
    match kind {
        FaultKind::BitFlip(bit) => f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64))),
        FaultKind::NaN => f64::NAN,
        FaultKind::Inf => f64::INFINITY,
        FaultKind::ScaledNoise(scale) => v + scale * v.abs().max(1.0),
    }
}

/// A fault pinned to one *application* of a wrapped kernel: the
/// `application`-th top-level product (or preconditioner solve) since
/// construction perturbs output element `index`. Application counting is
/// global and deterministic — the serial solvers call the wrapped kernels
/// in a fixed order, so a plan replays bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplicationFault {
    /// 0-based application (top-level `mul_vec_into`/`mul_vec_axpy` or
    /// `apply`/`apply_with` call) at which to inject.
    pub application: usize,
    /// Output element to perturb.
    pub index: usize,
    /// The perturbation.
    pub kind: FaultKind,
}

/// Deterministic seeded fault set: `count` faults at xorshift-derived
/// applications in `0..max_application` and indices in `0..n`, cycling
/// through the perturbation kinds. Purely a convenience for randomized
/// campaign tests — explicit [`ApplicationFault`] lists stay the precise
/// tool.
pub fn seeded_faults(
    seed: u64,
    count: usize,
    n: usize,
    max_application: usize,
) -> Vec<ApplicationFault> {
    // Odd-constant multiply is a bijection on u64, so distinct seeds give
    // distinct streams (plain `seed | 1` would collapse even/odd pairs).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if state == 0 {
        state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let kinds = [
        FaultKind::BitFlip(55),
        FaultKind::NaN,
        FaultKind::Inf,
        FaultKind::ScaledNoise(1e6),
    ];
    (0..count)
        .map(|k| ApplicationFault {
            application: (next() as usize) % max_application.max(1),
            index: (next() as usize) % n.max(1),
            kind: kinds[k % kinds.len()],
        })
        .collect()
}

/// Shared injection bookkeeping of the two wrappers.
#[derive(Debug)]
struct InjectionState {
    faults: Vec<ApplicationFault>,
    applications: AtomicUsize,
    injected: AtomicUsize,
}

impl InjectionState {
    fn new(faults: Vec<ApplicationFault>) -> Self {
        InjectionState {
            faults,
            applications: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Count one application and perturb `out` if a fault is due.
    fn inject(&self, out: &mut [f64]) {
        let app = self.applications.fetch_add(1, Ordering::Relaxed);
        for f in &self.faults {
            if f.application == app && f.index < out.len() {
                out[f.index] = perturb(out[f.index], f.kind);
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A [`SparseOp`] whose **top-level products** (`mul_vec_into` /
/// `mul_vec_axpy`) inject the planned perturbations into their output
/// *after* the clean product — the range kernels and structure hooks
/// delegate untouched, so construction paths (splitting extraction, sweep
/// tables) see the clean matrix and only the solver-facing applications
/// are corrupted. Counters use atomics so the wrapper stays `Sync` like
/// every operator.
#[derive(Debug)]
pub struct FaultyOp<A> {
    inner: A,
    state: InjectionState,
}

impl<A: SparseOp> FaultyOp<A> {
    /// Wrap `inner` with a fault plan.
    pub fn new(inner: A, faults: Vec<ApplicationFault>) -> Self {
        FaultyOp {
            inner,
            state: InjectionState::new(faults),
        }
    }

    /// Top-level applications counted so far.
    pub fn applications(&self) -> usize {
        self.state.applications.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> usize {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// The wrapped (clean) operator.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: SparseOp> SparseOp for FaultyOp<A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_range_into(x, y, rows)
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_axpy_range(a, x, y, rows)
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        self.inner.visit_row(i, visit)
    }

    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        self.inner.chunk_rows(chunk_nnz, c)
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.mul_vec_into(x, y);
        self.state.inject(y);
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        self.inner.mul_vec_axpy(a, x, y);
        self.state.inject(y);
    }
}

/// A [`Preconditioner`] wrapper injecting planned perturbations into the
/// output of chosen `apply`/`apply_with` calls — the msolve analog of
/// [`FaultyOp`].
#[derive(Debug)]
pub struct FaultyPreconditioner<P> {
    inner: P,
    state: InjectionState,
}

impl<P: Preconditioner> FaultyPreconditioner<P> {
    /// Wrap `inner` with a fault plan.
    pub fn new(inner: P, faults: Vec<ApplicationFault>) -> Self {
        FaultyPreconditioner {
            inner,
            state: InjectionState::new(faults),
        }
    }

    /// Applications counted so far.
    pub fn applications(&self) -> usize {
        self.state.applications.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> usize {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// The wrapped (clean) preconditioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Preconditioner> Preconditioner for FaultyPreconditioner<P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.inner.apply(r, z);
        self.state.inject(z);
    }

    fn steps_per_apply(&self) -> usize {
        self.inner.steps_per_apply()
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.inner.apply_with(r, z, scratch);
        self.state.inject(z);
    }
}

/// The kernel a [`FaultPlan`] fault targets inside the SPMD solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The iteration's SpMV product `K·p`.
    Spmv,
    /// The iteration's preconditioner output `z`.
    Msolve,
}

/// A fault pinned to one *iteration* of the SPMD schedule. The
/// `ParallelMStepPcg` extracts a private sweep table at construction and
/// never calls back into the operator, so wrapper injection cannot reach
/// it; instead the workers consult the plan at fixed schedule points —
/// every worker evaluates the (replicated) lookup, only the worker owning
/// `index` writes, so injection is deterministic across thread counts.
/// Iteration numbers are the solver's 1-based loop counter, which an
/// in-place restart does not reset: a planned fault fires once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationFault {
    /// Which kernel's output to perturb.
    pub target: FaultTarget,
    /// 1-based iteration at which to inject.
    pub iteration: usize,
    /// Vector element to perturb.
    pub index: usize,
    /// The perturbation.
    pub kind: FaultKind,
}

/// An iteration-indexed fault plan for the SPMD solver
/// (`ParallelMStepPcg::solve_with_faults`).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The planned faults.
    pub faults: Vec<IterationFault>,
}

impl FaultPlan {
    /// Plan containing the given faults.
    pub fn new(faults: Vec<IterationFault>) -> Self {
        FaultPlan { faults }
    }

    /// The fault due at `(target, iteration)`, if any (first match wins).
    pub fn find(&self, target: FaultTarget, iteration: usize) -> Option<&IterationFault> {
        self.faults
            .iter()
            .find(|f| f.target == target && f.iteration == iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preconditioner::IdentityPreconditioner;
    use mspcg_sparse::CooMatrix;

    fn sample() -> mspcg_sparse::CsrMatrix {
        let mut a = CooMatrix::new(4, 4);
        for i in 0..4 {
            a.push(i, i, 4.0).unwrap();
            if i + 1 < 4 {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    #[test]
    fn perturbations_are_deterministic_and_typed() {
        let v = 1.5f64;
        assert_eq!(
            perturb(v, FaultKind::BitFlip(0)),
            perturb(v, FaultKind::BitFlip(0))
        );
        assert_ne!(perturb(v, FaultKind::BitFlip(52)), v);
        // Flipping the same bit twice round-trips.
        let once = perturb(v, FaultKind::BitFlip(55));
        assert_eq!(perturb(once, FaultKind::BitFlip(55)), v);
        assert!(perturb(v, FaultKind::NaN).is_nan());
        assert!(perturb(v, FaultKind::Inf).is_infinite());
        assert_eq!(perturb(v, FaultKind::ScaledNoise(2.0)), 1.5 + 2.0 * 1.5);
        assert_eq!(perturb(0.0, FaultKind::ScaledNoise(2.0)), 2.0);
    }

    #[test]
    fn faulty_op_injects_only_at_planned_applications() {
        let a = sample();
        let clean = a.clone();
        let op = FaultyOp::new(
            a,
            vec![ApplicationFault {
                application: 1,
                index: 2,
                kind: FaultKind::NaN,
            }],
        );
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        // Application 0: clean.
        SparseOp::mul_vec_into(&op, &x, &mut y);
        assert_eq!(y, SparseOp::mul_vec(&clean, &x));
        assert_eq!(op.injected(), 0);
        // Application 1: element 2 poisoned, the rest clean.
        SparseOp::mul_vec_into(&op, &x, &mut y);
        assert!(y[2].is_nan());
        assert_eq!(y[0], SparseOp::mul_vec(&clean, &x)[0]);
        assert_eq!(op.injected(), 1);
        assert_eq!(op.applications(), 2);
        // Range kernels and structure hooks stay clean (not applications).
        let mut yr = vec![0.0; 4];
        op.mul_vec_range_into(&x, &mut yr, 0..4);
        assert_eq!(yr, SparseOp::mul_vec(&clean, &x));
        assert_eq!(op.applications(), 2);
    }

    #[test]
    fn faulty_preconditioner_counts_and_injects() {
        let p = FaultyPreconditioner::new(
            IdentityPreconditioner::new(3),
            vec![ApplicationFault {
                application: 0,
                index: 1,
                kind: FaultKind::ScaledNoise(10.0),
            }],
        );
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 1.0, 1.0], &mut z);
        assert_eq!(z, vec![1.0, 11.0, 1.0]);
        p.apply(&[1.0, 1.0, 1.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
        assert_eq!(p.injected(), 1);
        assert_eq!(p.applications(), 2);
    }

    #[test]
    fn policy_resolution_and_audit_schedule() {
        // Audits run only when the policy asks for them.
        let plan = |policy: &RecoveryPolicy| AuditPlan::new(policy, 1e-8, 1.0);
        assert!(plan(&RecoveryPolicy::on()).enabled);
        let default = RecoveryPolicy::default();
        assert!(!plan(&default).enabled);
        assert_eq!(default.audit_period, DEFAULT_AUDIT_PERIOD);
        // Schedule: first audit strictly after the warm-start point, then
        // every `period` iterations.
        assert!(!audit_due(1, 0, 4));
        assert!(!audit_due(4, 0, 4));
        assert!(audit_due(5, 0, 4));
        assert!(!audit_due(6, 0, 4));
        assert!(audit_due(9, 0, 4));
        // A pass restarted at iteration 8 must not re-audit state 8.
        assert!(!audit_due(9, 8, 4));
        assert!(audit_due(13, 8, 4));
        // Degenerate period never divides by zero.
        assert!(audit_due(3, 1, 0));
    }

    #[test]
    fn seeded_faults_replay() {
        let a = seeded_faults(42, 8, 100, 50);
        let b = seeded_faults(42, 8, 100, 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|f| f.index < 100 && f.application < 50));
        assert_ne!(seeded_faults(43, 8, 100, 50), a);
    }

    #[test]
    fn replacement_bound_scales_with_tolerance_and_rhs() {
        let b = replacement_bound(1e-8, 2.0);
        assert_eq!(b, 2e-7);
        // Floored above machine-epsilon drift for very tight tolerances.
        assert!(replacement_bound(1e-16, 1.0) >= 1e3 * f64::EPSILON);
    }

    #[test]
    fn fault_plan_lookup_is_by_target_and_iteration() {
        let plan = FaultPlan::new(vec![
            IterationFault {
                target: FaultTarget::Spmv,
                iteration: 3,
                index: 5,
                kind: FaultKind::BitFlip(55),
            },
            IterationFault {
                target: FaultTarget::Msolve,
                iteration: 2,
                index: 1,
                kind: FaultKind::NaN,
            },
        ]);
        assert!(plan.find(FaultTarget::Spmv, 3).is_some());
        assert!(plan.find(FaultTarget::Spmv, 2).is_none());
        assert!(plan.find(FaultTarget::Msolve, 2).is_some());
        assert!(plan.find(FaultTarget::Msolve, 3).is_none());
    }
}
