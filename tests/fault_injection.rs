//! Fault-injection conformance harness.
//!
//! One parameterized loop runs {serial, SPMD at 1/2/4/8 workers} ×
//! {plate, Poisson, arrow} under injected faults and asserts, for every
//! cell:
//!
//! * **(a) rescue** — a NaN out of a preconditioner application and a
//!   large-but-finite SpMV corruption both leave the solve *converged*,
//!   verified by the TRUE recomputed residual against the clean matrix
//!   (never the solver's own recurrence),
//! * **(b) bitwise replay** — the same faulted configuration solved twice
//!   returns bit-identical iterates (one `FaultPlan`, looked up by the
//!   loop, on every executor),
//! * **(c) exact counters** — for the NaN cells, where the detection path
//!   is schedule-determined, `(faults_detected, replacements, fallbacks)`
//!   is pinned at `(1, 1, 0)`: the non-finite scalar is caught once and
//!   the solve restarts in place from its current iterate. The SPMD NaN
//!   cells fault the msolve or the SpMV output at row 3 (first color,
//!   worker 0) and at the last row (last color, last worker), so the
//!   fault-owner lookup is checked for a row worker 0 does not own.
//!
//! The finite-corruption cells run at a tight tolerance under an explicit
//! audit policy: drift beyond the replacement bound is caught by the
//! fused `f − K·u` audit and replaced; drift below the bound is too small
//! to matter at the checked residual level. Either way the cell must
//! converge, and its iterate must differ from the clean solve's, which
//! shows that the fault landed.
//!
//! With no replacement budget a fault ends the solve, and every executor
//! ends it at the same `NonFinite { phase, iteration }`: the standalone
//! pool solve, the same case in a batch and the SPMD solve at 1, 2 and 4
//! workers.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi_with_faults, MultiRhsWorkspace, SolveStatus};
use mspcg::core::pcg::{
    pcg_try_solve_into_with_faults, PcgOptions, PcgReport, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::poly::PolynomialPreconditioner;
use mspcg::core::preconditioner::Preconditioner;
use mspcg::core::recovery::{FaultKind, FaultPlan, FaultTarget, IterationFault, RecoveryPolicy};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CooMatrix, CsrMatrix, Partition, SparseError, SparseOp};

/// Stopping tolerance of the NaN cells.
const TOL: f64 = 1e-8;
/// Tight tolerance of the audited finite-corruption cells.
const TIGHT: f64 = 1e-10;
/// Bound on the TRUE recomputed relative residual at convergence.
const RES_BOUND: f64 = 1e-6;

struct Family {
    name: &'static str,
    matrix: CsrMatrix,
    colors: Partition,
    m: usize,
}

/// Wide-row arrow family in a 3-color blocking (same construction as
/// `variant_conformance.rs`).
fn arrow_family(n: usize) -> (CsrMatrix, Partition) {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0).unwrap();
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    for j in 2..n {
        coo.push_sym(0, j, -2e-3).unwrap();
    }
    let a = coo.to_csr();
    let labels: Vec<usize> = (0..n)
        .map(|i| {
            if i == 0 {
                0
            } else if i % 2 == 1 {
                1
            } else {
                2
            }
        })
        .collect();
    let ord = Coloring::from_labels(labels, 3).unwrap().ordering();
    (ord.permute_matrix(&a).unwrap(), ord.partition)
}

fn families() -> Vec<Family> {
    let plate = {
        let asm = PlaneStressProblem::unit_square(6).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        Family {
            name: "plate",
            matrix: ord.matrix,
            colors: ord.colors,
            m: 2,
        }
    };
    let poisson = {
        let p = poisson5(12).unwrap();
        let ord = p.coloring.ordering();
        Family {
            name: "poisson",
            matrix: ord.permute_matrix(&p.matrix).unwrap(),
            colors: ord.partition,
            m: 3,
        }
    };
    let arrow = {
        let (matrix, colors) = arrow_family(96);
        Family {
            name: "arrow",
            matrix,
            colors,
            m: 1,
        }
    };
    vec![plate, poisson, arrow]
}

fn rhs_for(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 13 + 7) % 29) as f64 * 0.1 - 1.2)
        .collect()
}

/// TRUE relative residual against the clean matrix.
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    SparseOp::mul_vec_axpy(a, -1.0, x, &mut r);
    vecops::norm2(&r) / vecops::norm2(b).max(1e-300)
}

/// Solve twice, assert bitwise replay + TRUE-residual convergence, return
/// the first run's payload for counter checks.
fn run_cell<T>(
    label: &str,
    solve: &mut dyn FnMut() -> (Vec<f64>, T),
    a: &CsrMatrix,
    b: &[f64],
) -> T {
    let (x1, out) = solve();
    let (x2, _) = solve();
    assert!(
        x1.iter().zip(&x2).all(|(u, v)| u.to_bits() == v.to_bits()),
        "{label}: faulted replay is not bitwise identical"
    );
    let res = true_residual(a, b, &x1);
    assert!(res < RES_BOUND, "{label}: true residual {res:e}");
    out
}

/// The pool path's standalone solve of `K u = b` from zero under `faults`.
fn pool_solve(
    a: &CsrMatrix,
    b: &[f64],
    pre: &impl Preconditioner,
    opts: &PcgOptions,
    faults: &[IterationFault],
) -> (Vec<f64>, Result<PcgReport, SparseError>) {
    let mut u = vec![0.0; b.len()];
    let plan = FaultPlan::new(faults.to_vec());
    let mut ws = PcgWorkspace::new(b.len());
    let rep = pcg_try_solve_into_with_faults(a, b, &mut u, pre, opts, &mut ws, &plan);
    (u, rep)
}

/// A fault of a standalone or SPMD solve (right-hand side 0).
fn fault(target: FaultTarget, iteration: usize, index: usize, kind: FaultKind) -> IterationFault {
    IterationFault {
        rhs: 0,
        target,
        iteration,
        index,
        kind,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Exact `(faults_detected, replacements, fallbacks)` of a NaN
/// preconditioner fault: one detection, one in-place restart, and no
/// fallback (there is no second recurrence).
const NAN_COUNTERS: (usize, usize, usize) = (1, 1, 0);

#[test]
fn every_variant_survives_injected_faults_across_executors_and_families() {
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let b = rhs_for(n);
        let spmd = ParallelMStepPcg::new(a, &family.colors, vec![1.0; family.m]).unwrap();

        let ssor = MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m).unwrap();

        // --- serial, NaN out of the msolve after 2 iterations ----------
        {
            let label = format!("{}/serial/nan-msolve", family.name);
            let opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                ..Default::default()
            };
            let nan = [fault(FaultTarget::Msolve, 2, 3, FaultKind::NaN)];
            let stats = run_cell(
                &label,
                &mut || {
                    let (x, sol) = pool_solve(a, &b, &ssor, &opts, &nan);
                    let sol = sol.expect("faulted serial solve");
                    assert!(sol.converged, "did not converge");
                    (x, sol.stats)
                },
                a,
                &b,
            );
            assert_eq!(
                (stats.faults_detected, stats.replacements, stats.fallbacks),
                NAN_COUNTERS,
                "{label}: counters {stats:?}"
            );
            assert_eq!(
                stats.audits, 0,
                "{label}: the default policy audits nothing"
            );
        }

        // --- serial, finite SpMV corruption under an audit policy ----
        {
            let label = format!("{}/serial/audited-spmv", family.name);
            let opts = PcgOptions {
                tol: TIGHT,
                criterion: StoppingCriterion::DisplacementChange,
                recovery: RecoveryPolicy {
                    audit_period: 4,
                    ..RecoveryPolicy::on()
                },
                ..Default::default()
            };
            let flip = [fault(FaultTarget::Spmv, 3, 3, FaultKind::BitFlip(55))];
            let (x, stats) = run_cell(
                &label,
                &mut || {
                    let (x, sol) = pool_solve(a, &b, &ssor, &opts, &flip);
                    let sol = sol.expect("audited serial solve");
                    assert!(sol.converged, "did not converge");
                    (x.clone(), (x, sol.stats))
                },
                a,
                &b,
            );
            let (clean, _) = pool_solve(a, &b, &ssor, &opts, &[]);
            assert_ne!(bits(&x), bits(&clean), "{label}: the fault did not land");
            assert!(stats.audits >= 1, "{label}: no audit ran");
            assert_eq!(
                stats.faults_detected, 0,
                "{label}: a finite corruption must not trip the NaN checks"
            );
        }

        // --- SPMD at every thread count ------------------------------
        for threads in [1usize, 2, 4, 8] {
            // NaN out of the iteration-2 preconditioner application or
            // SpMV, exact counters — at a first-color row and at the
            // last row, which lies in the last color and is owned by the
            // last worker. The NaN `(p, K·p)` restarts the solve before
            // its iterate moves, and the repeated iteration runs clean:
            // a planned fault fires once.
            for (target, what) in [(FaultTarget::Msolve, "msolve"), (FaultTarget::Spmv, "spmv")] {
                for index in [3, n - 1] {
                    let label = format!("{}/spmd{threads}/nan-{what}@{index}", family.name);
                    let opts = ParallelSolverOptions {
                        threads,
                        tol: TOL,
                        max_iterations: 50_000,
                        ..Default::default()
                    };
                    let plan = FaultPlan::new(vec![fault(target, 2, index, FaultKind::NaN)]);
                    let rep = run_cell(
                        &label,
                        &mut || {
                            let rep = spmd
                                .solve_with_faults(&b, &opts, &plan)
                                .expect("faulted spmd solve");
                            assert!(rep.converged, "did not converge");
                            (rep.x.clone(), rep)
                        },
                        a,
                        &b,
                    );
                    assert_eq!(
                        (rep.faults_detected, rep.replacements, rep.recoveries),
                        NAN_COUNTERS,
                        "{label}"
                    );
                    assert_eq!(rep.audits, 0, "{label}: the default policy audits nothing");
                }
            }

            // Finite SpMV corruption at iteration 2 under an audit
            // policy: caught by the fused audit (or harmlessly below
            // its bound), never by the non-finite checks.
            {
                let label = format!("{}/spmd{threads}/audited-spmv", family.name);
                let opts = ParallelSolverOptions {
                    threads,
                    tol: TIGHT,
                    max_iterations: 50_000,
                    recovery: RecoveryPolicy {
                        audit_period: 4,
                        ..RecoveryPolicy::on()
                    },
                    ..Default::default()
                };
                let flip = fault(FaultTarget::Spmv, 2, 3, FaultKind::BitFlip(55));
                let plan = FaultPlan::new(vec![flip]);
                let rep = run_cell(
                    &label,
                    &mut || {
                        let rep = spmd
                            .solve_with_faults(&b, &opts, &plan)
                            .expect("audited spmd solve");
                        assert!(rep.converged, "did not converge");
                        (rep.x.clone(), rep)
                    },
                    a,
                    &b,
                );
                let clean = spmd.solve(&b, &opts).expect("clean spmd solve");
                assert_ne!(
                    bits(&rep.x),
                    bits(&clean.x),
                    "{label}: the fault did not land"
                );
                assert!(rep.audits >= 1, "{label}: no audit ran");
                assert_eq!(
                    rep.faults_detected, 0,
                    "{label}: a finite corruption must not trip the NaN checks"
                );
            }
        }
    }
}

/// Recovery is preconditioner-agnostic: a NaN out of the **polynomial**
/// msolve (a pool-path preconditioner) takes the exact same detection /
/// in-place replacement path as a poisoned SSOR sweep.
#[test]
fn nan_polynomial_msolve_walks_the_same_recovery_ladder() {
    let opts = PcgOptions {
        tol: TOL,
        criterion: StoppingCriterion::DisplacementChange,
        ..Default::default()
    };
    for family in families() {
        let a = &family.matrix;
        let b = rhs_for(a.rows());
        // NaN out of the polynomial msolve after 2 iterations.
        let label = format!("{}/serial/nan-poly-msolve", family.name);
        let pre = PolynomialPreconditioner::chebyshev(a.clone(), 2 * family.m).unwrap();
        let nan = [fault(FaultTarget::Msolve, 2, 3, FaultKind::NaN)];
        let stats = run_cell(
            &label,
            &mut || {
                let (x, sol) = pool_solve(a, &b, &pre, &opts, &nan);
                let sol = sol.expect("faulted serial poly solve");
                assert!(sol.converged, "did not converge");
                (x, sol.stats)
            },
            a,
            &b,
        );
        assert_eq!(
            (stats.faults_detected, stats.replacements, stats.fallbacks),
            NAN_COUNTERS,
            "{label}: counters {stats:?}"
        );
    }
}

/// With no replacement budget a NaN ends the solve where it is detected,
/// and every executor detects it at the same phase and iteration: a NaN
/// in `K·p` of iteration `i` poisons that iteration's `(p, K·p)`, a NaN in
/// the `r̂` after `i` iterations the `(r̂, r)` formed from it.
#[test]
fn every_executor_ends_a_fault_at_the_same_nonfinite_error() {
    let recovery = RecoveryPolicy {
        max_replacements: 0,
        ..RecoveryPolicy::default()
    };
    let opts = PcgOptions {
        tol: TOL,
        criterion: StoppingCriterion::DisplacementChange,
        recovery,
        ..Default::default()
    };
    let points = (1..=3)
        .map(|i| (FaultTarget::Spmv, i, "spmv-reduction"))
        .chain((0..=3).map(|i| (FaultTarget::Msolve, i, "msolve-reduction")));
    let points: Vec<_> = points.collect();
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let b = rhs_for(n);
        let ssor = MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m).unwrap();
        let spmd = ParallelMStepPcg::new(a, &family.colors, vec![1.0; family.m]).unwrap();
        // The faulted case is case 1 of a 3-case batch.
        let batch: Vec<f64> = [0.5, 1.0, 1.5]
            .iter()
            .flat_map(|s| b.iter().map(move |v| s * v))
            .collect();
        for &(target, iteration, phase) in &points {
            for index in [3, n - 1] {
                let label = format!("{}/{target:?}@{iteration}/row {index}", family.name);
                let nan = fault(target, iteration, index, FaultKind::NaN);
                let expected = SparseError::NonFinite { phase, iteration };

                let (_, pool) = pool_solve(a, &b, &ssor, &opts, &[nan]);
                assert_eq!(pool.as_ref().err(), Some(&expected), "{label}: pool");

                let plan = FaultPlan::new(vec![IterationFault { rhs: 1, ..nan }]);
                let mut u = vec![0.0; 3 * n];
                let mut ws = MultiRhsWorkspace::new(n, 3);
                pcg_solve_multi_with_faults(a, &batch, &mut u, &ssor, &opts, &mut ws, &plan)
                    .unwrap();
                let statuses: Vec<_> = ws.outcomes().iter().map(|o| o.status).collect();
                assert_eq!(
                    statuses,
                    [
                        SolveStatus::Converged,
                        SolveStatus::Breakdown,
                        SolveStatus::Converged
                    ],
                    "{label}: batch"
                );
                assert_eq!(ws.outcomes()[1].report.iterations, iteration, "{label}");
                assert_eq!(ws.outcomes()[1].error, Some(expected.clone()), "{label}");

                let plan = FaultPlan::new(vec![nan]);
                for threads in [1usize, 2, 4] {
                    let spmd_opts = ParallelSolverOptions {
                        threads,
                        tol: TOL,
                        max_iterations: 50_000,
                        recovery,
                        ..Default::default()
                    };
                    let got = spmd.solve_with_faults(&b, &spmd_opts, &plan);
                    assert_eq!(
                        got.err(),
                        Some(expected.clone()),
                        "{label}: spmd at {threads} workers"
                    );
                }
            }
        }
    }
}
