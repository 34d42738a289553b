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
//!   returns bit-identical iterates (fault injection is deterministic:
//!   application-indexed wrappers serially, iteration-indexed plans in the
//!   SPMD workers),
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
//! converge.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_solve, PcgOptions, StoppingCriterion};
use mspcg::core::poly::PolynomialPreconditioner;
use mspcg::core::recovery::{
    ApplicationFault, FaultKind, FaultPlan, FaultTarget, FaultyOp, FaultyPreconditioner,
    IterationFault, RecoveryPolicy,
};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CooMatrix, CsrMatrix, Partition, PolyKind, SparseOp};

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

        // --- serial, NaN out of preconditioner application 2 ---------
        {
            let label = format!("{}/serial/nan-msolve", family.name);
            let opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                ..Default::default()
            };
            let stats = run_cell(
                &label,
                &mut || {
                    let pre = FaultyPreconditioner::new(
                        MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m)
                            .unwrap(),
                        vec![ApplicationFault {
                            application: 2,
                            index: 3,
                            kind: FaultKind::NaN,
                        }],
                    );
                    let sol = pcg_solve(a, &b, &pre, &opts).expect("faulted serial solve");
                    assert!(sol.converged, "did not converge");
                    assert_eq!(pre.injected(), 1, "fault was not consumed");
                    (sol.x, sol.stats)
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
            let stats = run_cell(
                &label,
                &mut || {
                    let op = FaultyOp::new(
                        a.clone(),
                        vec![ApplicationFault {
                            application: 3,
                            index: 3,
                            kind: FaultKind::BitFlip(55),
                        }],
                    );
                    let pre = MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m)
                        .unwrap();
                    let sol = pcg_solve(&op, &b, &pre, &opts).expect("audited serial solve");
                    assert!(sol.converged, "did not converge");
                    (sol.x, sol.stats)
                },
                a,
                &b,
            );
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
                    let plan = FaultPlan::new(vec![IterationFault {
                        target,
                        iteration: 2,
                        index,
                        kind: FaultKind::NaN,
                    }]);
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
                let plan = FaultPlan::new(vec![IterationFault {
                    target: FaultTarget::Spmv,
                    iteration: 2,
                    index: 3,
                    kind: FaultKind::BitFlip(55),
                }]);
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
                assert!(rep.audits >= 1, "{label}: no audit ran");
                assert_eq!(
                    rep.faults_detected, 0,
                    "{label}: a finite corruption must not trip the NaN checks"
                );
            }
        }
    }
}

/// Recovery is preconditioner-agnostic: a NaN out of the barrier-free
/// **polynomial** msolve takes the exact same detection / in-place
/// replacement path as a poisoned SSOR sweep, serially and in the SPMD
/// solver.
#[test]
fn nan_polynomial_msolve_walks_the_same_recovery_ladder() {
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let b = rhs_for(n);
        let degree = 2 * family.m;
        let spmd = ParallelMStepPcg::poly(a, &family.colors, PolyKind::Chebyshev, degree).unwrap();

        // --- serial, NaN out of polynomial application 2 -------------
        {
            let label = format!("{}/serial/nan-poly-msolve", family.name);
            let opts = PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                ..Default::default()
            };
            let stats = run_cell(
                &label,
                &mut || {
                    let pre = FaultyPreconditioner::new(
                        PolynomialPreconditioner::chebyshev(a.clone(), degree).unwrap(),
                        vec![ApplicationFault {
                            application: 2,
                            index: 3,
                            kind: FaultKind::NaN,
                        }],
                    );
                    let sol = pcg_solve(a, &b, &pre, &opts).expect("faulted serial poly solve");
                    assert!(sol.converged, "did not converge");
                    assert_eq!(pre.injected(), 1, "fault was not consumed");
                    (sol.x, sol.stats)
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

        // --- SPMD, persistent NaN at the iteration-2 poly msolve, at a
        // first-color row and at the last worker's last-color row -----
        for threads in [1usize, 2, 4, 8] {
            for index in [3, n - 1] {
                let label = format!("{}/spmd{threads}/nan-poly-msolve@{index}", family.name);
                let opts = ParallelSolverOptions {
                    threads,
                    tol: TOL,
                    max_iterations: 50_000,
                    ..Default::default()
                };
                let plan = FaultPlan::new(vec![IterationFault {
                    target: FaultTarget::Msolve,
                    iteration: 2,
                    index,
                    kind: FaultKind::NaN,
                }]);
                let rep = run_cell(
                    &label,
                    &mut || {
                        let rep = spmd
                            .solve_with_faults(&b, &opts, &plan)
                            .expect("faulted spmd poly solve");
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
            }
        }
    }
}
