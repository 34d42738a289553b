//! Cross-crate integration: FEM assembly → multicolor ordering → m-step
//! PCG → solution, validated against dense direct solves and against each
//! other across orderings and preconditioners.

use mspcg::core::ic::IncompleteCholesky;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace, SolveStatus};
use mspcg::core::pcg::{
    cg_solve, pcg_solve, pcg_try_solve_into, PcgOptions, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::poly::{AutoPreconditioner, PolynomialPreconditioner};
use mspcg::core::preconditioner::{DiagonalPreconditioner, IdentityPreconditioner, Preconditioner};
use mspcg::core::splitting::NaturalSsorSplitting;
use mspcg::core::ssor::MulticolorSsor;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CsrMatrix, PolyKind, SparseError};
use std::sync::atomic::{AtomicUsize, Ordering};

fn opts(tol: f64) -> PcgOptions {
    PcgOptions {
        tol,
        criterion: StoppingCriterion::RelativeResidual,
        ..Default::default()
    }
}

#[test]
fn all_preconditioners_reach_the_same_solution() {
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let exact = ord.matrix.to_dense().cholesky().unwrap().solve(&ord.rhs);
    let o = opts(1e-12);

    let mut solutions = Vec::new();
    solutions.push(("cg", cg_solve(&ord.matrix, &ord.rhs, &o).unwrap().x));
    for m in [1usize, 2, 4] {
        let pre = MStepSsorPreconditioner::unparametrized(&ord.matrix, &ord.colors, m).unwrap();
        solutions.push((
            "ssor",
            pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap().x,
        ));
    }
    for m in [2usize, 3] {
        let pre = MStepSsorPreconditioner::parametrized(&ord.matrix, &ord.colors, m).unwrap();
        solutions.push((
            "ssorP",
            pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap().x,
        ));
    }
    // Polynomials in the Jacobi-scaled D⁻¹K, both recurrences.
    for kind in [PolyKind::Newton, PolyKind::Chebyshev] {
        for k in [1usize, 3] {
            let pre = PolynomialPreconditioner::new(ord.matrix.clone(), kind, k).unwrap();
            solutions.push((
                "poly",
                pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap().x,
            ));
        }
    }
    for (name, x) in &solutions {
        let err = x
            .iter()
            .zip(&exact)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-7, "{name}: error {err}");
    }
}

#[test]
fn negative_alpha_is_rejected_as_indefinite_on_both_executors() {
    // α = [−1] makes M⁻¹ = −P⁻¹: (r̂, r) < 0 from the start, so every
    // executor must stop at pivot 0 with a typed error rather than iterate.
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let indefinite = |r: Result<usize, SparseError>| {
        assert!(
            matches!(r, Err(SparseError::NotPositiveDefinite { pivot: 0, value }) if value < 0.0),
            "expected a breakdown at pivot 0, got {r:?}"
        );
    };
    let ssor = MulticolorSsor::new(ord.matrix.clone(), ord.colors.clone(), 1.0).unwrap();
    let pre = MStepSsorPreconditioner::with_coefficients(ssor, vec![-1.0]).unwrap();
    indefinite(pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-10)).map(|s| s.iterations));
    let spmd = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![-1.0]).unwrap();
    for threads in [1, 2] {
        let o = ParallelSolverOptions {
            threads,
            tol: 1e-10,
            ..Default::default()
        };
        indefinite(spmd.solve(&ord.rhs, &o).map(|r| r.iterations));
    }
    // A batch reports the breakdown per column.
    let n = ord.rhs.len();
    let f: Vec<f64> = ord.rhs.iter().chain(&ord.rhs).copied().collect();
    let mut u = vec![0.0; 2 * n];
    let mut ws = MultiRhsWorkspace::new(n, 2);
    let sum = pcg_solve_multi(&ord.matrix, &f, &mut u, &pre, &opts(1e-10), &mut ws).unwrap();
    assert_eq!(sum.converged, 0);
    for out in ws.outcomes() {
        assert_eq!(out.status, SolveStatus::Breakdown);
        assert_eq!(out.report.iterations, 0);
    }
}

/// Diagonal scaling for its first application, its negative after that.
struct TurnsIndefinite {
    inner: DiagonalPreconditioner,
    applied: AtomicUsize,
}

impl Preconditioner for TurnsIndefinite {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.inner.apply_with(r, z, scratch);
        if self.applied.fetch_add(1, Ordering::Relaxed) > 0 {
            z.iter_mut().for_each(|v| *v = -*v);
        }
    }
}

#[test]
fn preconditioner_turning_indefinite_breaks_down_at_that_iteration() {
    // The first msolve is SPD; the one after iteration 1 yields
    // (r̂, r) < 0, so the solve stops with pivot = iteration 1.
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let pre = TurnsIndefinite {
        inner: DiagonalPreconditioner::from_diag(&ord.matrix.diag().unwrap()).unwrap(),
        applied: AtomicUsize::new(0),
    };
    let err = pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-10)).map(|s| s.iterations);
    assert!(
        matches!(err, Err(SparseError::NotPositiveDefinite { pivot: 1, value }) if value < 0.0),
        "expected a breakdown at pivot 1, got {err:?}"
    );
    assert_eq!(pre.applied.load(Ordering::Relaxed), 2);
}

#[test]
fn minimax_jacobi_needs_fewer_iterations_than_plain_cg_on_the_plate() {
    // The min-max polynomial in D⁻¹K — Chebyshev at degree 3, the
    // polynomial of min-max m = 4 Jacobi — is only as good as its
    // interval. Widening the Lanczos extremes by a share of the span
    // pushed the plate's lower end below zero; floored at 1e-12, the fit
    // still passed the SPD check but built a near-singular
    // preconditioner that needed ~7× the iterations of no preconditioner
    // at all.
    let asm = PlaneStressProblem::unit_square(24).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let o = opts(1e-8);
    let cg = cg_solve(&ord.matrix, &ord.rhs, &o).unwrap();
    let pre = PolynomialPreconditioner::chebyshev(ord.matrix.clone(), 3).unwrap();
    let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap();
    assert!(
        sol.iterations < cg.iterations,
        "degree-3 Chebyshev {} vs plain CG {}",
        sol.iterations,
        cg.iterations
    );
    let lo = pre.interval().min;
    assert!(lo > 1e-6, "lower interval end {lo:e} sits on the floor");
}

#[test]
fn ordering_does_not_change_the_physics() {
    // Solve in the natural ordering with natural SSOR, and in the
    // multicolor ordering with multicolor SSOR; map back and compare.
    let asm = PlaneStressProblem::unit_square(7).assemble().unwrap();
    let o = opts(1e-12);

    // Natural ordering path.
    let nat_split = NaturalSsorSplitting::new(&asm.matrix, 1.0).unwrap();
    struct NatPre(NaturalSsorSplitting, usize);
    impl Preconditioner for NatPre {
        fn dim(&self) -> usize {
            self.1
        }
        fn apply_with(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
            self.0.msolve(&[1.0, 1.0], r, z);
        }
    }
    let nat_pre = NatPre(nat_split, asm.matrix.rows());
    let nat = pcg_solve(&asm.matrix, &asm.rhs, &nat_pre, &o).unwrap();

    // Multicolor path.
    let ord = asm.multicolor().unwrap();
    let pre = MStepSsorPreconditioner::unparametrized(&ord.matrix, &ord.colors, 2).unwrap();
    let mc = pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap();
    let mc_nodal = ord.to_nodal(&mc.x);

    for (u, v) in nat.x.iter().zip(&mc_nodal) {
        assert!((u - v).abs() < 1e-7, "{u} vs {v}");
    }
}

#[test]
fn residual_actually_drops_below_tolerance() {
    let asm = PlaneStressProblem::unit_square(10).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let pre = MStepSsorPreconditioner::parametrized(&ord.matrix, &ord.colors, 3).unwrap();
    let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-10)).unwrap();
    // Independent residual check: ‖f − K x‖ / ‖f‖.
    let mut r = ord.rhs.clone();
    ord.matrix.mul_vec_axpy(-1.0, &sol.x, &mut r);
    let rel = vecops::norm2(&r) / vecops::norm2(&ord.rhs);
    assert!(rel < 1e-9, "claimed converged but residual is {rel}");
    assert!((rel - sol.final_relative_residual).abs() < 1e-12);
}

#[test]
fn displacement_and_residual_criteria_agree_on_the_solution() {
    let asm = PlaneStressProblem::unit_square(9).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let pre = MStepSsorPreconditioner::unparametrized(&ord.matrix, &ord.colors, 2).unwrap();
    let by_change = pcg_solve(
        &ord.matrix,
        &ord.rhs,
        &pre,
        &PcgOptions {
            tol: 1e-9,
            criterion: StoppingCriterion::DisplacementChange,
            ..Default::default()
        },
    )
    .unwrap();
    let by_resid = pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-10)).unwrap();
    for (u, v) in by_change.x.iter().zip(&by_resid.x) {
        assert!((u - v).abs() < 1e-6);
    }
}

#[test]
fn larger_plates_need_more_iterations_without_preconditioning() {
    // κ(K) grows like h⁻², so CG iterations grow with a.
    let iters = |a: usize| {
        let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        cg_solve(&ord.matrix, &ord.rhs, &opts(1e-8))
            .unwrap()
            .iterations
    };
    let i6 = iters(6);
    let i12 = iters(12);
    let i18 = iters(18);
    assert!(i12 > i6 && i18 > i12, "{i6}, {i12}, {i18}");
}

#[test]
fn preconditioner_applications_match_iteration_count() {
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let m = 3usize;
    let pre = MStepSsorPreconditioner::unparametrized(&ord.matrix, &ord.colors, m).unwrap();
    let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-8)).unwrap();
    // One application per iteration plus the initial one (±1 at the
    // convergence boundary), each of m steps.
    let apps = sol.stats.precond_applications;
    assert!(
        apps >= sol.iterations && apps <= sol.iterations + 2,
        "{apps} applications over {} iterations",
        sol.iterations
    );
    assert_eq!(sol.stats.precond_steps, apps * m);
}

#[test]
fn budget_exit_applies_the_preconditioner_once_per_iteration() {
    // A solve that runs out of budget stops right after its last stopping
    // test: no msolve, (r̂, r), β or direction update for an iteration it
    // will not take — standalone and as a batch column alike.
    let asm = PlaneStressProblem::unit_square(12).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let pre = MStepSsorPreconditioner::unparametrized(&ord.matrix, &ord.colors, 2).unwrap();
    let n = ord.rhs.len();
    let f: Vec<f64> = ord.rhs.iter().chain(&ord.rhs).copied().collect();
    for budget in [1usize, 5] {
        let o = PcgOptions {
            max_iterations: budget,
            ..opts(1e-12)
        };
        let mut u = vec![0.0; n];
        let mut ws = PcgWorkspace::new(n);
        let alone = pcg_try_solve_into(&ord.matrix, &ord.rhs, &mut u, &pre, &o, &mut ws).unwrap();
        let mut u = vec![0.0; 2 * n];
        let mut ws = MultiRhsWorkspace::new(n, 2);
        pcg_solve_multi(&ord.matrix, &f, &mut u, &pre, &o, &mut ws).unwrap();
        assert!(ws
            .outcomes()
            .iter()
            .all(|out| out.status == SolveStatus::BudgetExhausted));
        for report in std::iter::once(&alone).chain(ws.outcomes().iter().map(|out| &out.report)) {
            assert!(!report.converged);
            assert_eq!(report.iterations, budget);
            let stats = &report.stats;
            assert_eq!(stats.precond_applications, budget, "budget {budget}");
            assert_eq!(stats.precond_steps, 2 * budget);
            assert_eq!(stats.reduction_phases, 2 * budget);
        }
    }
}

/// The provided `apply` (on scratch it allocates) is bitwise `apply_with`
/// on a caller's scratch, whatever that scratch held, for every
/// preconditioner the library implements.
#[test]
fn provided_apply_equals_apply_with_for_every_preconditioner() {
    fn check(name: &str, pre: &impl Preconditioner, r: &[f64]) {
        let mut via_apply = vec![0.0; r.len()];
        pre.apply(r, &mut via_apply);
        let mut via_with = vec![f64::MAX; r.len()];
        pre.apply_with(r, &mut via_with, &mut vec![f64::NAN; pre.scratch_len()]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_apply), bits(&via_with), "{name}");
    }
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let (k, colors, n) = (&ord.matrix, &ord.colors, ord.matrix.rows());
    let r: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
    let unit = || MStepSsorPreconditioner::unparametrized(k, colors, 3).unwrap();
    let fitted = || MStepSsorPreconditioner::parametrized(k, colors, 3).unwrap();
    let newton = || PolynomialPreconditioner::newton(k.clone(), 3).unwrap();
    check("identity", &IdentityPreconditioner::new(n), &r);
    let diagonal = DiagonalPreconditioner::from_diag(&k.diag().unwrap()).unwrap();
    check("diagonal", &diagonal, &r);
    check("IC(0)", &IncompleteCholesky::new(k).unwrap(), &r);
    check("m-step SSOR, α = 1", &unit(), &r);
    check("m-step SSOR, fitted", &fitted(), &r);
    check("Newton", &newton(), &r);
    let chebyshev = PolynomialPreconditioner::chebyshev(k.clone(), 3).unwrap();
    check("Chebyshev", &chebyshev, &r);
    let auto_ssor = AutoPreconditioner::<CsrMatrix>::MStepSsor(fitted());
    check("Auto, SSOR arm", &auto_ssor, &r);
    check(
        "Auto, polynomial arm",
        &AutoPreconditioner::Poly(newton()),
        &r,
    );
}
