//! Edge cases of the (batched) PCG entry points: empty systems, `1×1`
//! systems, zero right-hand sides, a zero iteration budget, and the
//! honest-residual contract of the `max_iterations` exit path; plus the
//! multicolor SSOR splitting, the spectrum-fitted constructors and the
//! `Auto` selection on an empty system, both spectrum estimates on
//! matrices whose lower end they cannot express, and the audit-period
//! check every entry point shares.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace, SolveStatus};
use mspcg::core::pcg::{
    pcg_solve, pcg_solve_into, pcg_try_solve_into, PcgOptions, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::poly::{
    auto_preconditioner, jacobi_spectrum, AutoPreconditioner, PolynomialPreconditioner,
};
use mspcg::core::preconditioner::{IdentityPreconditioner, Preconditioner};
use mspcg::core::recovery::RecoveryPolicy;
use mspcg::core::MulticolorSsor;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{vecops, CooMatrix, CsrMatrix, Partition, PolyKind, PrecondKind, SparseError};

fn laplacian(n: usize) -> CsrMatrix {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        a.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            a.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    a.to_csr()
}

fn rb_laplacian(n: usize) -> (CsrMatrix, Partition) {
    let a = laplacian(n);
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
    (ord.permute_matrix(&a).unwrap(), ord.partition)
}

#[test]
fn empty_system_converges_immediately() {
    let a = CsrMatrix::identity(0);
    let mut ws = PcgWorkspace::new(0);
    let mut u: Vec<f64> = vec![];
    let rep = pcg_solve_into(
        &a,
        &[],
        &mut u,
        &IdentityPreconditioner::new(0),
        &PcgOptions::default(),
        &mut ws,
    )
    .unwrap();
    assert!(rep.converged);
    assert_eq!(rep.iterations, 0);
    assert_eq!(rep.final_relative_residual, 0.0);
}

#[test]
fn one_by_one_system_solves_exactly() {
    let a = CsrMatrix::from_diag(&[4.0]);
    let sol = pcg_solve(
        &a,
        &[8.0],
        &IdentityPreconditioner::new(1),
        &PcgOptions {
            tol: 1e-14,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(sol.converged);
    assert_eq!(sol.x, vec![2.0]);
    assert_eq!(sol.iterations, 1);
}

#[test]
fn zero_rhs_zeroes_a_stale_output_buffer() {
    // The b = 0 early return must write the (exact) zero solution, not
    // hand the caller back whatever the buffer held.
    let a = laplacian(8);
    let mut ws = PcgWorkspace::new(8);
    let mut u = vec![7.5; 8]; // poisoned warm start
    let rep = pcg_solve_into(
        &a,
        &[0.0; 8],
        &mut u,
        &IdentityPreconditioner::new(8),
        &PcgOptions::default(),
        &mut ws,
    )
    .unwrap();
    assert!(rep.converged);
    assert_eq!(rep.iterations, 0);
    assert_eq!(u, vec![0.0; 8]);
}

#[test]
fn zero_iteration_budget_reports_honest_residual() {
    let a = laplacian(12);
    let b = vec![1.0; 12];
    let mut ws = PcgWorkspace::new(12);
    let mut u = vec![0.0; 12];
    let opts = PcgOptions {
        max_iterations: 0,
        tol: 1e-12,
        ..Default::default()
    };
    let rep = pcg_try_solve_into(
        &a,
        &b,
        &mut u,
        &IdentityPreconditioner::new(12),
        &opts,
        &mut ws,
    )
    .unwrap();
    assert!(!rep.converged);
    assert_eq!(rep.iterations, 0);
    // Nothing happened: u is still the initial guess, the true
    // relative residual is ‖b − K·0‖/‖b‖ = 1.
    assert_eq!(u, vec![0.0; 12]);
    assert!((rep.final_relative_residual - 1.0).abs() < 1e-15);
    // The erroring wrapper reports the same number.
    match pcg_solve_into(
        &a,
        &b,
        &mut u,
        &IdentityPreconditioner::new(12),
        &opts,
        &mut ws,
    ) {
        Err(SparseError::DidNotConverge {
            iterations: 0,
            residual,
        }) => assert!((residual - 1.0).abs() < 1e-15),
        other => panic!("expected DidNotConverge, got {other:?}"),
    }
}

#[test]
fn budget_exit_residual_matches_a_fresh_recomputation() {
    // Stop a hard solve early and verify the reported residual really is
    // ‖f − K·u‖/‖f‖ of the returned iterate, not the in-loop recursion.
    let (a, p) = rb_laplacian(64);
    let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
    let b: Vec<f64> = (0..64).map(|i| ((i * 7 + 2) % 19) as f64 - 9.0).collect();
    let mut ws = PcgWorkspace::new(64);
    let mut u = vec![0.0; 64];
    let opts = PcgOptions {
        tol: 1e-15,
        max_iterations: 3,
        ..Default::default()
    };
    let rep = pcg_try_solve_into(&a, &b, &mut u, &pre, &opts, &mut ws).unwrap();
    assert!(!rep.converged);
    assert!(rep.iterations <= 3, "{} iterations", rep.iterations);
    let mut true_r = b.clone();
    a.mul_vec_axpy(-1.0, &u, &mut true_r);
    let expected = vecops::norm2(&true_r) / vecops::norm2(&b);
    assert_eq!(
        rep.final_relative_residual.to_bits(),
        expected.to_bits(),
        "reported {} vs recomputed {}",
        rep.final_relative_residual,
        expected
    );
}

#[test]
fn fused_loop_agrees_with_manual_unfused_iteration() {
    // Replay Algorithm 1 with the individual (unfused) vecops kernels and
    // require bitwise agreement with pcg_solve_into's fused loop.
    let (a, p) = rb_laplacian(96);
    let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 2).unwrap();
    let b: Vec<f64> = (0..96)
        .map(|i| ((i * 11 + 5) % 31) as f64 * 0.2 - 3.0)
        .collect();
    let opts = PcgOptions {
        tol: 1e-10,
        ..Default::default()
    };
    let mut ws = PcgWorkspace::new(96);
    let mut u_fused = vec![0.0; 96];
    let rep = pcg_solve_into(&a, &b, &mut u_fused, &pre, &opts, &mut ws).unwrap();

    // Manual unfused loop (same algorithm, separate kernel calls).
    use mspcg::core::preconditioner::Preconditioner;
    let n = 96;
    let mut u = vec![0.0; n];
    let mut r = b.clone();
    let mut rhat = vec![0.0; n];
    let mut pv = vec![0.0; n];
    let mut kp = vec![0.0; n];
    pre.apply(&r, &mut rhat);
    pv.copy_from_slice(&rhat);
    let mut rz = vecops::dot(&rhat, &r);
    let mut iters = 0usize;
    for _ in 0..opts.max_iterations {
        a.mul_vec_into(&pv, &mut kp);
        let denom = vecops::dot(&pv, &kp);
        let alpha = rz / denom;
        iters += 1;
        vecops::axpy(alpha, &pv, &mut u);
        let change = alpha.abs() * vecops::norm_inf(&pv);
        vecops::axpy(-alpha, &kp, &mut r);
        if change < opts.tol {
            break;
        }
        pre.apply(&r, &mut rhat);
        let rz_new = vecops::dot(&rhat, &r);
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        vecops::xpby(&rhat, beta, &mut pv);
    }
    assert_eq!(iters, rep.iterations, "iteration count diverged");
    assert_eq!(
        u_fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        u.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "fused pcg_solve_into differs from the manual unfused loop"
    );
}

#[test]
fn multi_rhs_edge_shapes() {
    let (a, p) = rb_laplacian(16);
    let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
    let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
    let opts = PcgOptions::default();

    // Zero RHS in the batch.
    let mut ws = MultiRhsWorkspace::new(16, 0);
    let sum = pcg_solve_multi(&a, &[], &mut [], &pre, &opts, &mut ws).unwrap();
    assert_eq!(sum.solved, 0);

    // Single RHS batch behaves like a standalone solve.
    let mut u_batch = vec![0.0; 16];
    let mut ws = MultiRhsWorkspace::new(16, 1);
    let sum = pcg_solve_multi(&a, &b, &mut u_batch, &pre, &opts, &mut ws).unwrap();
    assert_eq!(sum.converged, 1);
    assert_eq!(ws.outcomes().len(), 1);
    assert_eq!(ws.outcomes()[0].status, SolveStatus::Converged);
    let mut sws = PcgWorkspace::new(16);
    let mut u_single = vec![0.0; 16];
    pcg_solve_into(&a, &b, &mut u_single, &pre, &opts, &mut sws).unwrap();
    assert_eq!(u_batch, u_single);

    // Batch containing a b = 0 column gets the exact zero column back.
    let mut f = b.clone();
    f.extend(std::iter::repeat_n(0.0, 16));
    let mut u = vec![1.0; 32];
    let mut ws = MultiRhsWorkspace::new(16, 2);
    let sum = pcg_solve_multi(&a, &f, &mut u, &pre, &opts, &mut ws).unwrap();
    assert_eq!(sum.converged, 2);
    assert!(u[16..].iter().all(|&v| v == 0.0));
}

#[test]
fn empty_multicolor_ssor_sweeps_nothing() {
    // A 0×0 system with an empty partition: the backward sweep's start
    // block must not underflow (ω = 1 skips one block, ω ≠ 1 none).
    for omega in [1.0, 1.3] {
        let ssor = MulticolorSsor::new(
            CsrMatrix::identity(0),
            Partition::from_sizes(&[]).unwrap(),
            omega,
        )
        .unwrap();
        assert_eq!(ssor.dim(), 0);
        let mut z: Vec<f64> = vec![];
        ssor.msolve_block::<1>(&[1.0, 0.5], &[], &mut z, &mut []);
        ssor.msolve_block::<1>(&[1.0], &[], &mut z, &mut []);
        ssor.step(1.0, &[], &mut z);
        assert!(z.is_empty(), "omega {omega}");
    }
}

#[test]
fn spectrum_fits_on_an_empty_system_are_errors_and_auto_falls_back() {
    let a = CsrMatrix::identity(0);
    let colors = Partition::from_sizes(&[]).unwrap();
    let no_spectrum = |r: Result<(), SparseError>| {
        assert!(
            matches!(r, Err(SparseError::DidNotConverge { iterations: 0, .. })),
            "{r:?}"
        );
    };
    // Every constructor that estimates a spectrum reports that an empty
    // operator has none.
    no_spectrum(MStepSsorPreconditioner::parametrized(&a, &colors, 2).map(drop));
    no_spectrum(MStepSsorPreconditioner::parametrized_minimax(&a, &colors, 2).map(drop));
    no_spectrum(PolynomialPreconditioner::chebyshev(a.clone(), 2).map(drop));
    let chebyshev = PrecondKind::Poly {
        kind: PolyKind::Chebyshev,
        degree: 2,
    };
    no_spectrum(auto_preconditioner(&a, &colors, 2, chebyshev).map(drop));

    // Auto builds on both executors without an estimate: m_default steps
    // at α = 1, and the solves return the empty solution.
    let serial = auto_preconditioner(&a, &colors, 2, PrecondKind::Auto).unwrap();
    let AutoPreconditioner::MStepSsor(p) = &serial else {
        panic!("Auto must build the m-step SSOR");
    };
    assert_eq!(p.alphas(), &[1.0, 1.0]);
    assert_eq!(p.interval(), None);
    assert_eq!(serial.dim(), 0);
    let sol = pcg_solve(&a, &[], &serial, &PcgOptions::default()).unwrap();
    assert!(sol.converged && sol.x.is_empty());
    let spmd = ParallelMStepPcg::auto(&a, &colors, 2).unwrap();
    assert_eq!(spmd.alphas(), &[1.0, 1.0]);
    let rep = spmd.solve(&[], &ParallelSolverOptions::default()).unwrap();
    assert!(rep.converged && rep.x.is_empty());
}

/// `[[1, c], [c, 1]]` with one row per color.
fn two_by_two(c: f64) -> (CsrMatrix, Partition) {
    let mut k = CooMatrix::new(2, 2);
    k.push(0, 0, 1.0).unwrap();
    k.push(1, 1, 1.0).unwrap();
    k.push_sym(0, 1, c).unwrap();
    (k.to_csr(), Partition::from_sizes(&[1, 1]).unwrap())
}

#[test]
fn ssor_estimate_on_its_clamp_is_an_error_and_auto_falls_back() {
    // c = −(1 − 1e-9): σ(P⁻¹K) reaches down to 1 − c² ≈ 2e-9, below the
    // 1e-6 the cap on the power iteration's ρ leaves. The estimate refuses
    // the interval instead of fitting on [1e-6, 1].
    let (a, colors) = two_by_two(-(1.0 - 1e-9));
    let clamped = |r: Result<(), SparseError>| {
        assert!(
            matches!(r, Err(SparseError::NotPositiveDefinite { pivot: 0, value })
                if value > 1e-9 && value < 3e-9),
            "{r:?}"
        );
    };
    let ssor = MulticolorSsor::new(a.clone(), colors.clone(), 1.0).unwrap();
    clamped(ssor.table().ssor_spectrum(1.0, 60).map(drop));
    clamped(MStepSsorPreconditioner::parametrized(&a, &colors, 2).map(drop));
    clamped(MStepSsorPreconditioner::parametrized_minimax(&a, &colors, 2).map(drop));
    // Auto falls back to α = 1 at m_default on both executors.
    let serial = auto_preconditioner(&a, &colors, 3, PrecondKind::Auto).unwrap();
    let AutoPreconditioner::MStepSsor(p) = &serial else {
        panic!("Auto must build the m-step SSOR");
    };
    assert_eq!(p.alphas(), &[1.0; 3]);
    assert_eq!(p.interval(), None);
    let spmd = ParallelMStepPcg::auto(&a, &colors, 3).unwrap();
    assert_eq!(spmd.alphas(), &[1.0; 3]);
    // Away from the clamp the same system estimates and fits.
    let (a, colors) = two_by_two(-0.5);
    let fitted = MStepSsorPreconditioner::parametrized(&a, &colors, 2).unwrap();
    assert_eq!(fitted.interval().unwrap().max, 1.0);
}

#[test]
fn jacobi_estimate_of_an_indefinite_matrix_is_an_error_on_every_path() {
    // Eigenvalues 3 and −1 behind a positive diagonal: the Lanczos lower
    // end is negative. Floored at 1e-12 it built a Chebyshev
    // preconditioner that PCG rejected only at iteration 1.
    let (a, colors) = two_by_two(2.0);
    let indefinite = |r: Result<(), SparseError>| {
        assert!(
            matches!(r, Err(SparseError::NotPositiveDefinite { pivot: 0, value }) if value < 0.0),
            "{r:?}"
        );
    };
    indefinite(jacobi_spectrum(&a, &[1.0, 1.0]).map(drop));
    indefinite(PolynomialPreconditioner::new(a.clone(), PolyKind::Chebyshev, 2).map(drop));
    let chebyshev = PrecondKind::Poly {
        kind: PolyKind::Chebyshev,
        degree: 2,
    };
    indefinite(auto_preconditioner(&a, &colors, 2, chebyshev).map(drop));
}

/// An audit period of 0 iterations has no meaning: the same input check
/// rejects it on every entry point, whether the policy audits or not.
#[test]
fn zero_audit_period_is_rejected_by_every_entry_point() {
    let asm = PlaneStressProblem::unit_square(8).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let (a, colors) = (&ord.matrix, &ord.colors);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(a, colors, 2).unwrap();
    let spmd = ParallelMStepPcg::new(a, colors, vec![1.0; 2]).unwrap();
    let b = vec![1.0; n];
    let batch = vec![1.0; 2 * n];
    let mut ws = MultiRhsWorkspace::new(n, 2);
    for policy in [RecoveryPolicy::on(), RecoveryPolicy::default()] {
        let recovery = RecoveryPolicy {
            audit_period: 0,
            ..policy
        };
        let serial_opts = PcgOptions {
            tol: 1e-8,
            criterion: StoppingCriterion::RelativeResidual,
            recovery,
            ..Default::default()
        };
        let err = Some(SparseError::ZeroAuditPeriod);
        assert_eq!(pcg_solve(a, &b, &pre, &serial_opts).err(), err);
        let mut u = vec![0.0; 2 * n];
        let multi = pcg_solve_multi(a, &batch, &mut u, &pre, &serial_opts, &mut ws);
        assert_eq!(multi.err(), err);
        let par = spmd.solve(
            &b,
            &ParallelSolverOptions {
                threads: 2,
                tol: 1e-8,
                recovery,
                ..Default::default()
            },
        );
        assert_eq!(par.err(), err);
    }
}
