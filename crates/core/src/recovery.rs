//! Fault injection, residual auditing and in-place recovery.
//!
//! PCG carries the residual `r` by recurrence, so it drifts away from the
//! true residual `f − Ku`; a silent data corruption (a flipped bit in an
//! SpMV output, a NaN out of a preconditioner application) is the same
//! failure mode in concentrated form. This module supplies the two
//! robustness layers every executor threads through every entry point:
//!
//! 1. **Fault injection** — a [`FaultPlan`] names each fault by the
//!    right-hand side it hits, the kernel call ([`FaultTarget`]: the
//!    iteration's `K·p`, or its `r̂ = M⁻¹r`), the iteration, the element
//!    and the perturbation ([`FaultKind`]: bit flips, NaN/Inf, scaled
//!    noise). [`crate::multi::lockstep`], the one Algorithm 1, looks the
//!    plan up for each column and hands each due fault to the kernel call
//!    it corrupts; the executor perturbs that element of the call's fresh
//!    output before the phase's fused reduction, so a fault means the
//!    same thing on the pool path, in a batch and on the SPMD workers.
//!    Every detection and recovery path below is exercised under
//!    injection by `tests/fault_injection.rs` instead of being trusted.
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
//! Everything is *measured*: audits, replacements and detected faults are
//! counted in `PcgStats` and `ParallelSolveReport`, exactly like the
//! barrier/reduction counters.

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
///
/// The default audits nothing: it pins the exact operation schedule, and
/// only a non-finite scalar restarts the solve. A *finite* corruption
/// therefore goes unseen. In one probe a bit-62 flip of one SpMV output
/// made the a = 24 plate's solve (α = 1, m = 2, relative residual 1e-9,
/// 2 threads) take 49 260 iterations instead of 79 and still report
/// converged, every recovery counter at 0; with auditing on and an
/// audit every 4 iterations the same fault cost 84 iterations and one
/// replacement.
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

/// The kernel call a [`FaultPlan`] fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The iteration's SpMV product `K·p`.
    Spmv,
    /// The preconditioner output `r̂ = M⁻¹r`.
    Msolve,
}

/// One planned fault: element `index` of one kernel call's fresh output,
/// on one right-hand side, perturbed by `kind`. An `index` past the
/// dimension perturbs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationFault {
    /// The right-hand side's index in the batch: 0 for a standalone or an
    /// SPMD solve.
    pub rhs: usize,
    /// Which kernel's output to perturb.
    pub target: FaultTarget,
    /// The iteration: for [`FaultTarget::Spmv`] the 1-based iteration
    /// whose `K·p` it corrupts, for [`FaultTarget::Msolve`] the iterations
    /// completed before the msolve (0 for the first).
    pub iteration: usize,
    /// Vector element to perturb.
    pub index: usize,
    /// The perturbation.
    pub kind: FaultKind,
}

/// The fault plan of a solve: every entry point takes one (the plain ones
/// an empty plan). Each planned fault fires once per solve, at the
/// solve's first arrival at its `(rhs, target, iteration)`: an in-place
/// restart repeats the iteration of a non-finite `(p, K·p)`, and the
/// repeat runs clean; a second fault at the same point fires at the
/// second arrival.
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

    /// The first fault due at `(rhs, target, iteration)` whose flag in
    /// `fired` (one per planned fault) is unset; its flag is set on the
    /// way out, so it fires once.
    ///
    /// # Panics
    /// Panics if `fired` is shorter than the plan.
    pub fn fire(
        &self,
        rhs: usize,
        target: FaultTarget,
        iteration: usize,
        fired: &mut [bool],
    ) -> Option<IterationFault> {
        let k = (0..self.faults.len()).find(|&k| {
            let f = &self.faults[k];
            !fired[k] && f.rhs == rhs && f.target == target && f.iteration == iteration
        })?;
        fired[k] = true;
        Some(self.faults[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{
        pcg_try_solve_into_with_faults, PcgOptions, PcgReport, PcgWorkspace, StoppingCriterion,
    };
    use crate::preconditioner::IdentityPreconditioner;
    use mspcg_sparse::{CooMatrix, CsrMatrix, SparseError};

    const N: usize = 16;

    fn sample() -> CsrMatrix {
        let mut a = CooMatrix::new(N, N);
        for i in 0..N {
            a.push(i, i, 4.0).unwrap();
            if i + 1 < N {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    fn fault(
        target: FaultTarget,
        iteration: usize,
        index: usize,
        kind: FaultKind,
    ) -> IterationFault {
        IterationFault {
            rhs: 0,
            target,
            iteration,
            index,
            kind,
        }
    }

    /// A standalone pool solve of `sample()` with the identity
    /// preconditioner, from the zero guess, under `faults`; returns the
    /// iterate's bits.
    fn solve_under(
        faults: Vec<IterationFault>,
        recovery: RecoveryPolicy,
    ) -> (Vec<u64>, Result<PcgReport, SparseError>) {
        let a = sample();
        let b: Vec<f64> = (0..N).map(|i| 1.0 + 0.1 * i as f64).collect();
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            recovery,
            ..Default::default()
        };
        let mut u = vec![0.0; N];
        let mut ws = PcgWorkspace::new(N);
        let pre = IdentityPreconditioner::new(N);
        let plan = FaultPlan::new(faults);
        let rep = pcg_try_solve_into_with_faults(&a, &b, &mut u, &pre, &opts, &mut ws, &plan);
        (u.iter().map(|v| v.to_bits()).collect(), rep)
    }

    /// The plan's SpMV target: a NaN planned into the `K·p` of iteration
    /// `i` poisons that iteration's `(p, K·p)` and no earlier one, and a
    /// fault planned for another case, past the last iteration or past the
    /// last element never fires.
    #[test]
    fn faulty_op_injects_only_at_planned_applications() {
        let no_budget = RecoveryPolicy {
            max_replacements: 0,
            ..RecoveryPolicy::default()
        };
        for i in 1..=3 {
            let nan = fault(FaultTarget::Spmv, i, 2, FaultKind::NaN);
            let (_, rep) = solve_under(vec![nan], no_budget);
            assert_eq!(
                rep.err(),
                Some(SparseError::NonFinite {
                    phase: "spmv-reduction",
                    iteration: i
                }),
                "NaN planned into the K·p of iteration {i}"
            );
        }
        let (clean, rep) = solve_under(vec![], no_budget);
        let clean_rep = rep.unwrap();
        assert!(clean_rep.converged);
        let elsewhere = vec![
            IterationFault {
                rhs: 1,
                ..fault(FaultTarget::Spmv, 2, 2, FaultKind::NaN)
            },
            fault(
                FaultTarget::Spmv,
                clean_rep.iterations + 1,
                2,
                FaultKind::NaN,
            ),
            fault(FaultTarget::Spmv, 2, N, FaultKind::NaN),
        ];
        let (x, rep) = solve_under(elsewhere, no_budget);
        let rep = rep.unwrap();
        assert_eq!(x, clean);
        assert_eq!(rep.iterations, clean_rep.iterations);
        assert_eq!(rep.stats.faults_detected, 0);
    }

    /// The plan's msolve target: noise planned into element 1 of the first
    /// `r̂` lands (the iterate's bits differ from the clean solve's), and a
    /// NaN there fires once, so the restart that repeats that msolve runs
    /// clean: one detection, one replacement, converged.
    #[test]
    fn faulty_preconditioner_counts_and_injects() {
        let policy = RecoveryPolicy::default();
        let (clean, _) = solve_under(vec![], policy);
        let noise = fault(FaultTarget::Msolve, 0, 1, FaultKind::ScaledNoise(10.0));
        let (x, rep) = solve_under(vec![noise], policy);
        let rep = rep.unwrap();
        assert!(rep.converged);
        assert_eq!(rep.stats.faults_detected, 0);
        assert_ne!(x, clean);

        let nan = fault(FaultTarget::Msolve, 0, 1, FaultKind::NaN);
        let (_, rep) = solve_under(vec![nan], policy);
        let rep = rep.unwrap();
        assert!(rep.converged);
        assert!(rep.final_relative_residual < 1e-10);
        let counters = (
            rep.stats.faults_detected,
            rep.stats.replacements,
            rep.stats.fallbacks,
        );
        assert_eq!(counters, (1, 1, 0));
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
                rhs: 0,
                target: FaultTarget::Spmv,
                iteration: 3,
                index: 5,
                kind: FaultKind::BitFlip(55),
            },
            IterationFault {
                rhs: 2,
                target: FaultTarget::Msolve,
                iteration: 2,
                index: 1,
                kind: FaultKind::NaN,
            },
        ]);
        let mut fired = [false; 2];
        assert!(plan.fire(0, FaultTarget::Spmv, 2, &mut fired).is_none());
        assert!(plan.fire(0, FaultTarget::Msolve, 3, &mut fired).is_none());
        assert!(plan.fire(1, FaultTarget::Spmv, 3, &mut fired).is_none());
        assert!(plan.fire(0, FaultTarget::Msolve, 2, &mut fired).is_none());
        assert_eq!(fired, [false, false]);
        assert_eq!(
            plan.fire(0, FaultTarget::Spmv, 3, &mut fired)
                .unwrap()
                .index,
            5
        );
        assert_eq!(
            plan.fire(2, FaultTarget::Msolve, 2, &mut fired)
                .unwrap()
                .index,
            1
        );
        // Each fault fires once: a repeated iteration runs clean.
        assert_eq!(fired, [true, true]);
        assert!(plan.fire(0, FaultTarget::Spmv, 3, &mut fired).is_none());
        assert!(plan.fire(2, FaultTarget::Msolve, 2, &mut fired).is_none());
    }
}
