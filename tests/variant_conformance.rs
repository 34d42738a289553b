//! Executor and format conformance harness.
//!
//! **One** parameterized property loop runs {serial, SPMD 1/2/4/8
//! threads} × {plate, Poisson, arrow} × formats {CSR, SELL-C-σ} and
//! asserts, for every cell of that matrix:
//!
//! * **(a) convergence to the same tolerance** — the solve reports
//!   converged and the TRUE recomputed residual `‖f − Ku‖/‖f‖` is below a
//!   common bound,
//! * **(b) bitwise replay** — the same configuration solved twice returns
//!   bit-identical iterates and identical iteration counts (the
//!   determinism contract; *across* executors only closeness is promised,
//!   the SPMD reductions follow a different rounding path),
//! * **(c) iteration counts within a fixed slack across executors** —
//!   every cell stays within [`ITER_SLACK`] of the serial CSR baseline of
//!   its family.
//!
//! The loop runs three preconditioner axes: the m-step SSOR at α = 1 and
//! at `Auto`'s fitted α on both executors, and the polynomial on the pool
//! path, the one executor that runs it.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_solve, PcgOptions, StoppingCriterion};
use mspcg::core::poly::{auto_preconditioner, AutoPreconditioner, PolynomialPreconditioner};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CooMatrix, CsrMatrix, Partition, PrecondKind, SellCsMatrix};

/// The paper's displacement test, common to the serial and SPMD solvers.
const TOL: f64 = 1e-8;
/// Bound on the TRUE recomputed relative residual at convergence.
const RES_BOUND: f64 = 1e-6;
/// Fixed slack on iteration counts across executors: the SPMD reductions
/// follow a different rounding path, which is why this is a slack, not an
/// equality.
const ITER_SLACK: isize = 10;

mod common;
use common::Rng;

/// One test family: a color-blocked SPD system plus its preconditioner
/// depth.
struct Family {
    name: &'static str,
    matrix: CsrMatrix,
    colors: Partition,
    m: usize,
}

/// The wide-row arrow family (one dense condensation row over a
/// tridiagonal body) in a 3-color blocking: {row 0}, {odd}, {even ≥ 2} —
/// row 0 couples only outwards, body rows couple to the other parity and
/// to row 0, so no color block carries internal coupling.
fn arrow_family(n: usize) -> (CsrMatrix, Partition) {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0).unwrap();
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    // The arrow head: small symmetric couplings from row 0 to the whole
    // body (skipping column 1, already a tridiagonal neighbour). Strict
    // diagonal dominance keeps the matrix SPD.
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
        let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        Family {
            name: "plate",
            matrix: ord.matrix,
            colors: ord.colors,
            m: 2,
        }
    };
    let poisson = {
        let p = poisson5(16).unwrap();
        let ord = p.coloring.ordering();
        Family {
            name: "poisson",
            matrix: ord.permute_matrix(&p.matrix).unwrap(),
            colors: ord.partition,
            m: 3,
        }
    };
    let arrow = {
        let (matrix, colors) = arrow_family(120);
        Family {
            name: "arrow",
            matrix,
            colors,
            m: 1,
        }
    };
    vec![plate, poisson, arrow]
}

/// TRUE relative residual of an iterate (recomputed, not recursive).
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    a.mul_vec_axpy(-1.0, x, &mut r);
    vecops::norm2(&r) / vecops::norm2(b).max(1e-300)
}

/// One conformance cell: solve twice, assert convergence + bitwise
/// replay, return the (replay-checked) iterate and iteration count.
fn run_cell(
    label: &str,
    solve: &mut dyn FnMut() -> (Vec<f64>, usize),
    a: &CsrMatrix,
    b: &[f64],
) -> (Vec<f64>, usize) {
    let (x1, it1) = solve();
    let (x2, it2) = solve();
    // (b) bitwise replay.
    assert_eq!(it1, it2, "{label}: replay changed the iteration count");
    assert!(
        x1.iter().zip(&x2).all(|(u, v)| u.to_bits() == v.to_bits()),
        "{label}: replay is not bitwise identical"
    );
    // (a) convergence to the same tolerance, via the TRUE residual.
    let res = true_residual(a, b, &x1);
    assert!(res < RES_BOUND, "{label}: true residual {res}");
    (x1, it1)
}

/// The parameterized conformance loop: every executor × family × format,
/// in one place.
#[test]
fn every_variant_conforms_across_executors_families_and_formats() {
    let mut rng = Rng::new(0xD1CE);
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let sell = SellCsMatrix::from_csr_default(a);
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let pre = MStepSsorPreconditioner::unparametrized(a, &family.colors, family.m)
            .expect("preconditioner");
        let spmd_csr = ParallelMStepPcg::new(a, &family.colors, vec![1.0; family.m]).unwrap();
        let spmd_sell = ParallelMStepPcg::new(&sell, &family.colors, vec![1.0; family.m]).unwrap();

        let serial_opts = PcgOptions {
            tol: TOL,
            criterion: StoppingCriterion::DisplacementChange,
            ..Default::default()
        };
        // (c) baseline: serial on CSR.
        let baseline = pcg_solve(a, &b, &pre, &serial_opts)
            .expect("baseline")
            .iterations as isize;

        let check_iters = |label: &str, iters: usize| {
            assert!(
                (iters as isize - baseline).abs() <= ITER_SLACK,
                "{label}: {iters} iterations vs baseline {baseline}"
            );
        };

        // Serial executor, both storage formats. The solvers are
        // generic over `SparseOp`; the preconditioner sees identical
        // structure either way.
        {
            let label = format!("{}/serial/csr", family.name);
            let (_, iters) = run_cell(
                &label,
                &mut || {
                    let s = pcg_solve(a, &b, &pre, &serial_opts).expect("serial csr");
                    assert!(s.converged);
                    (s.x, s.iterations)
                },
                a,
                &b,
            );
            check_iters(&label, iters);
        }
        {
            let label = format!("{}/serial/sellcs", family.name);
            let (_, iters) = run_cell(
                &label,
                &mut || {
                    let s = pcg_solve(&sell, &b, &pre, &serial_opts).expect("serial sell");
                    assert!(s.converged);
                    (s.x, s.iterations)
                },
                a,
                &b,
            );
            check_iters(&label, iters);
        }
        // SPMD executor at 1/2/4/8 workers, both formats.
        for threads in [1usize, 2, 4, 8] {
            let spmd_opts = ParallelSolverOptions {
                threads,
                tol: TOL,
                max_iterations: 50_000,
                ..Default::default()
            };
            for (fmt, solver) in [("csr", &spmd_csr), ("sellcs", &spmd_sell)] {
                let label = format!("{}/spmd{threads}/{fmt}", family.name);
                let (_, iters) = run_cell(
                    &label,
                    &mut || {
                        let rep = solver.solve(&b, &spmd_opts).expect("spmd");
                        assert!(rep.converged);
                        (rep.x, rep.iterations)
                    },
                    a,
                    &b,
                );
                check_iters(&label, iters);
            }
        }
    }
}

/// The **polynomial-preconditioner axis** of the same matrix, on the pool
/// path, its one executor: every family × format again, with the
/// Newton–Chebyshev msolve in place of the m-step SSOR sweeps. The degree
/// is `2m` — the flop-matched exchange rate (a degree-`2m` chain streams
/// the matrix as often as `m` forward+backward sweeps) — and the slack
/// baseline is the serial CSR *polynomial* solve of each family, since
/// the two preconditioners converge on different iteration counts.
#[test]
fn every_variant_conforms_with_polynomial_preconditioning() {
    let mut rng = Rng::new(0xCEB1);
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let sell = SellCsMatrix::from_csr_default(a);
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let degree = 2 * family.m;
        let pre =
            PolynomialPreconditioner::chebyshev(a.clone(), degree).expect("poly preconditioner");

        let serial_opts = PcgOptions {
            tol: TOL,
            criterion: StoppingCriterion::DisplacementChange,
            ..Default::default()
        };
        // (c) baseline: serial on CSR, polynomial msolve.
        let baseline = pcg_solve(a, &b, &pre, &serial_opts)
            .expect("baseline")
            .iterations as isize;

        for (fmt, op) in [("csr", None), ("sellcs", Some(&sell))] {
            let label = format!("{}/serial/{fmt}/poly", family.name);
            let (_, iters) = run_cell(
                &label,
                &mut || {
                    let s = match op {
                        None => pcg_solve(a, &b, &pre, &serial_opts),
                        Some(sell) => pcg_solve(sell, &b, &pre, &serial_opts),
                    }
                    .expect("serial poly");
                    assert!(s.converged);
                    (s.x, s.iterations)
                },
                a,
                &b,
            );
            assert!(
                (iters as isize - baseline).abs() <= ITER_SLACK,
                "{label}: {iters} iterations vs baseline {baseline}"
            );
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The **fitted-coefficient axis**: `Auto`'s min-max α on both executors.
/// On every family the SPMD `auto` fits bitwise the α of the pool path's
/// `auto_preconditioner(.., PrecondKind::Auto)`, in both formats, and its
/// cells at 1/2/4/8 workers conform to that pool-path solve under
/// (a)–(c).
#[test]
fn every_variant_conforms_with_fitted_alphas() {
    let mut rng = Rng::new(0xA1FA);
    for family in families() {
        let a = &family.matrix;
        let n = a.rows();
        let sell = SellCsMatrix::from_csr_default(a);
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let AutoPreconditioner::MStepSsor(pre) =
            auto_preconditioner(a, &family.colors, family.m, PrecondKind::Auto).unwrap()
        else {
            panic!("{}: Auto must build the m-step SSOR", family.name);
        };
        assert!(
            pre.interval().is_some(),
            "{}: Auto fell back to α = 1",
            family.name
        );
        let spmd_csr = ParallelMStepPcg::auto(a, &family.colors, family.m).unwrap();
        let spmd_sell = ParallelMStepPcg::auto(&sell, &family.colors, family.m).unwrap();
        for (fmt, solver) in [("csr", &spmd_csr), ("sellcs", &spmd_sell)] {
            assert_eq!(
                bits(solver.alphas()),
                bits(pre.alphas()),
                "{}/spmd/{fmt}: α differs from the pool path's",
                family.name
            );
        }

        let serial_opts = PcgOptions {
            tol: TOL,
            criterion: StoppingCriterion::DisplacementChange,
            ..Default::default()
        };
        // (c) baseline: the pool path's fitted solve on CSR.
        let (_, baseline) = run_cell(
            &format!("{}/serial/csr/auto", family.name),
            &mut || {
                let s = pcg_solve(a, &b, &pre, &serial_opts).expect("serial auto");
                assert!(s.converged);
                (s.x, s.iterations)
            },
            a,
            &b,
        );
        let baseline = baseline as isize;
        for threads in [1usize, 2, 4, 8] {
            let spmd_opts = ParallelSolverOptions {
                threads,
                tol: TOL,
                max_iterations: 50_000,
                ..Default::default()
            };
            for (fmt, solver) in [("csr", &spmd_csr), ("sellcs", &spmd_sell)] {
                let label = format!("{}/spmd{threads}/{fmt}/auto", family.name);
                let (_, iters) = run_cell(
                    &label,
                    &mut || {
                        let rep = solver.solve(&b, &spmd_opts).expect("spmd auto");
                        assert!(rep.converged);
                        (rep.x, rep.iterations)
                    },
                    a,
                    &b,
                );
                assert!(
                    (iters as isize - baseline).abs() <= ITER_SLACK,
                    "{label}: {iters} iterations vs baseline {baseline}"
                );
            }
        }
    }
}
