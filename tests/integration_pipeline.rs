//! Cross-crate integration: FEM assembly → multicolor ordering → m-step
//! PCG → solution, validated against dense direct solves and against each
//! other across orderings and preconditioners.

use mspcg::core::mstep::{MStep, MStepJacobiPreconditioner, MStepSsorPreconditioner};
use mspcg::core::pcg::{cg_solve, pcg_solve, PcgOptions, StoppingCriterion};
use mspcg::core::preconditioner::Preconditioner;
use mspcg::core::splitting::{JacobiSplitting, NaturalSsorSplitting, Splitting};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::vecops;

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
    // Truncated Neumann (Jacobi) only with odd m: for this matrix
    // λ_max(D⁻¹K) > 2, so even-m Neumann is indefinite — the
    // Dubois–Greenbaum–Rodrigue caveat (§2.1). PCG's breakdown guard
    // detects that; `even_neumann_is_rejected_as_indefinite` below pins it.
    for m in [1usize, 3] {
        let jac = MStepJacobiPreconditioner::neumann(&ord.matrix, m).unwrap();
        solutions.push((
            "jacobi",
            pcg_solve(&ord.matrix, &ord.rhs, &jac, &o).unwrap().x,
        ));
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
fn even_neumann_is_rejected_as_indefinite() {
    // λ_max(D⁻¹K) > 2 for the plate stiffness matrix, so the 2-step
    // truncated Neumann preconditioner is indefinite; the solver must
    // report it as a typed error rather than silently diverge.
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let jac = MStepJacobiPreconditioner::neumann(&ord.matrix, 2).unwrap();
    let err = pcg_solve(&ord.matrix, &ord.rhs, &jac, &opts(1e-10));
    assert!(
        matches!(
            err,
            Err(mspcg::sparse::SparseError::NotPositiveDefinite { .. })
        ),
        "expected indefiniteness detection, got {err:?}"
    );
    // The parametrized constructor refuses to build it in the first place
    // (SPD margin check): either an error, or a positive-margin fit.
    if let Ok(pre) = MStepJacobiPreconditioner::parametrized_jacobi(&ord.matrix, 2) {
        let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts(1e-10)).unwrap();
        assert!(sol.converged);
    }
}

#[test]
fn minimax_jacobi_needs_fewer_iterations_than_plain_cg_on_the_plate() {
    // The min-max fit is only as good as its interval. Widening the
    // Lanczos extremes by a share of the span pushed the plate's lower
    // end below zero; floored at 1e-12, the fit still passed the SPD
    // check but built a near-singular preconditioner that needed ~7×
    // the iterations of no preconditioner at all.
    let asm = PlaneStressProblem::unit_square(24).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let o = opts(1e-8);
    let cg = cg_solve(&ord.matrix, &ord.rhs, &o).unwrap();
    let pre = MStep::new_minimax(JacobiSplitting::new(&ord.matrix).unwrap(), 4).unwrap();
    let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &o).unwrap();
    assert!(
        sol.iterations < cg.iterations,
        "min-max m = 4 Jacobi {} vs plain CG {}",
        sol.iterations,
        cg.iterations
    );
    let (lo, _) = pre.interval().expect("a fitted interval");
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
    struct NatPre(NaturalSsorSplitting);
    impl Preconditioner for NatPre {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            self.0.msolve(&[1.0, 1.0], r, z);
        }
    }
    let nat = pcg_solve(&asm.matrix, &asm.rhs, &NatPre(nat_split), &o).unwrap();

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
