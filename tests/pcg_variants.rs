//! Classic vs single-reduction PCG agreement, end to end.
//!
//! The Chronopoulos–Gear recurrence follows a different-but-bounded
//! rounding path from the classic two-dot loop, so the contract is not
//! bitwise equality across variants — it is:
//!
//! * both variants drive the TRUE relative residual of the plate and
//!   Poisson families below a `κ(K)`-scaled multiple of machine epsilon,
//!   for every thread count (the xorshift property loop below),
//! * each variant is **bitwise reproducible within itself** across thread
//!   counts (the determinism contract of the kernel layer),
//! * recurrence breakdown falls back to the classic loop instead of
//!   failing the solve (unit-tested in `mspcg-core`; exercised here on
//!   the SPMD solver's rerun path),
//! * the batched multi-RHS driver threads the variant through unchanged:
//!   every lane replays its standalone solve bitwise.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{
    pcg_solve, pcg_solve_into, PcgOptions, PcgVariant, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::recovery::RecoveryPolicy;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{par, vecops, CsrMatrix, Partition, SparseError};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The thread budget is process global; sweep one test at a time.
fn sweep_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

mod common;
use common::Rng;

fn ordered_plate(a: usize) -> (CsrMatrix, Partition) {
    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("plate");
    let ord = asm.multicolor().expect("multicolor");
    (ord.matrix, ord.colors)
}

fn ordered_poisson(n: usize) -> (CsrMatrix, Partition) {
    let p = poisson5(n).expect("poisson");
    let ord = p.coloring.ordering();
    let matrix = ord.permute_matrix(&p.matrix).expect("permute");
    (matrix, ord.partition)
}

fn opts(variant: PcgVariant, tol: f64) -> PcgOptions {
    PcgOptions {
        tol,
        criterion: StoppingCriterion::RelativeResidual,
        variant,
        ..Default::default()
    }
}

/// TRUE relative residual of an iterate (recomputed, not recursive).
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    a.mul_vec_axpy(-1.0, x, &mut r);
    vecops::norm2(&r) / vecops::norm2(b).max(1e-300)
}

/// The xorshift property loop of the issue: random right-hand sides
/// against the plate and Poisson families, classic vs single-reduction,
/// at 1/2/4/8 worker threads. Both variants must converge, and both
/// iterates must agree with each other through the TRUE residual to a
/// `50·ε·κ`-style tolerance (κ enters through the solver tolerance: both
/// residuals are < tol, so the iterate gap is bounded by `2·tol·κ` — the
/// assertion below checks the residual form, which is condition-free).
#[test]
fn property_loop_classic_vs_single_reduction_across_thread_counts() {
    let _guard = sweep_lock();
    let systems: Vec<(CsrMatrix, Partition, usize)> = vec![
        {
            let (a, p) = ordered_plate(8);
            (a, p, 2)
        },
        {
            let (a, p) = ordered_plate(11);
            (a, p, 3)
        },
        {
            let (a, p) = ordered_poisson(16);
            (a, p, 1)
        },
        {
            let (a, p) = ordered_poisson(23);
            (a, p, 2)
        },
    ];
    let tol = 1e-10;
    let before = par::max_threads();
    let mut rng = Rng::new(0xC0FFEE);
    for (case, (a, colors, m)) in systems.iter().enumerate() {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let pre = MStepSsorPreconditioner::unparametrized(a, colors, *m).expect("preconditioner");
        let mut reference: Option<(Vec<f64>, Vec<f64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            par::set_max_threads(threads);
            let classic = pcg_solve(a, &b, &pre, &opts(PcgVariant::Classic, tol)).expect("classic");
            let sr = pcg_solve(a, &b, &pre, &opts(PcgVariant::SingleReduction, tol))
                .expect("single-reduction");
            assert!(
                classic.converged && sr.converged,
                "case {case}, threads {threads}"
            );
            // Both variants bound the TRUE residual they report.
            let res_c = true_residual(a, &b, &classic.x);
            let res_s = true_residual(a, &b, &sr.x);
            assert!(res_c < 50.0 * tol, "case {case}: classic residual {res_c}");
            assert!(
                res_s < 50.0 * tol,
                "case {case}: single-reduction residual {res_s}"
            );
            // And the iterates agree to solver accuracy.
            let scale = vecops::norm_inf(&classic.x).max(1.0);
            for (x, y) in classic.x.iter().zip(&sr.x) {
                assert!(
                    (x - y).abs() < 1e-6 * scale,
                    "case {case}, threads {threads}: {x} vs {y}"
                );
            }
            // Bitwise thread-count insensitivity *within* each variant.
            match &reference {
                None => reference = Some((classic.x.clone(), sr.x.clone())),
                Some((cx, sx)) => {
                    assert!(
                        classic
                            .x
                            .iter()
                            .zip(cx)
                            .all(|(u, v)| u.to_bits() == v.to_bits()),
                        "case {case}: classic not thread-count insensitive at {threads}"
                    );
                    assert!(
                        sr.x.iter().zip(sx).all(|(u, v)| u.to_bits() == v.to_bits()),
                        "case {case}: single-reduction not thread-count insensitive at {threads}"
                    );
                }
            }
        }
    }
    par::set_max_threads(before);
}

/// The batched driver threads the variant through untouched: every lane
/// of a single-reduction batch replays its standalone solve bitwise, and
/// the batch stays allocation-compatible with the shared workspace.
#[test]
fn multi_rhs_batch_replays_standalone_single_reduction_bitwise() {
    let (a, colors) = ordered_plate(7);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).expect("preconditioner");
    let solve_opts = opts(PcgVariant::SingleReduction, 1e-9);
    let nrhs = 5usize;
    let mut rng = Rng::new(42);
    let f: Vec<f64> = (0..nrhs * n).map(|_| rng.unit() - 0.5).collect();
    let mut u = vec![0.0; nrhs * n];
    let mut ws = MultiRhsWorkspace::new(n, nrhs);
    let summary = pcg_solve_multi(&a, &f, &mut u, &pre, &solve_opts, &mut ws).expect("batch");
    assert_eq!(summary.converged, nrhs);
    let mut single_ws = PcgWorkspace::new(n);
    for i in 0..nrhs {
        let mut ui = vec![0.0; n];
        let rep = pcg_solve_into(
            &a,
            &f[i * n..(i + 1) * n],
            &mut ui,
            &pre,
            &solve_opts,
            &mut single_ws,
        )
        .expect("standalone");
        assert!(
            u[i * n..(i + 1) * n]
                .iter()
                .zip(&ui)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "RHS {i} differs from standalone single-reduction solve"
        );
        assert_eq!(ws.outcomes()[i].report.iterations, rep.iterations);
        // The counter survives the batch path: one reduction phase per
        // iteration (+1 init; converging relative-residual iterations run
        // theirs).
        assert!(
            ws.outcomes()[i].report.stats.reduction_phases <= rep.iterations + 1,
            "RHS {i}: {} phases for {} iterations",
            ws.outcomes()[i].report.stats.reduction_phases,
            rep.iterations
        );
    }
}

/// SPMD solver: the variant selected through the options struct agrees
/// with the serial solvers, and the report's counters expose the
/// schedule.
#[test]
fn spmd_single_reduction_agrees_with_serial_and_reports_counters() {
    let (a, colors) = ordered_plate(8);
    let rhs: Vec<f64> = (0..a.rows())
        .map(|i| ((i * 13 + 7) % 29) as f64 * 0.1 - 1.2)
        .collect();
    let m = 2usize;
    let par_solver = ParallelMStepPcg::new(&a, &colors, vec![1.0; m]).expect("solver");
    let rep = par_solver
        .solve(
            &rhs,
            &ParallelSolverOptions {
                threads: 4,
                tol: 1e-8,
                max_iterations: 10_000,
                variant: PcgVariant::SingleReduction,
                // Pin the exact schedule: the barrier-count assertion
                // below counts no audit phases.
                recovery: mspcg::core::recovery::RecoveryPolicy::off(),
            },
        )
        .expect("spmd");
    assert!(rep.converged);
    assert_eq!(rep.variant, PcgVariant::SingleReduction);
    assert_eq!(rep.reduction_phases, rep.iterations);
    let sweep = m * (2 * colors.num_blocks() - 1);
    // ≤ m·(2C−1)+2 barriers per iteration, measured.
    assert!(
        rep.barrier_crossings <= sweep + 1 + (rep.iterations - 1) * (sweep + 2) + 1,
        "{} crossings for {} iterations",
        rep.barrier_crossings,
        rep.iterations
    );
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, m).expect("preconditioner");
    let seq = pcg_solve(
        &a,
        &rhs,
        &pre,
        &PcgOptions {
            tol: 1e-8,
            variant: PcgVariant::SingleReduction,
            ..Default::default()
        },
    )
    .expect("serial");
    assert!(
        (rep.iterations as isize - seq.iterations as isize).abs() <= 2,
        "spmd {} vs serial {}",
        rep.iterations,
        seq.iterations
    );
    for (x, y) in rep.x.iter().zip(&seq.x) {
        assert!((x - y).abs() < 1e-6, "{x} vs {y}");
    }
}

/// An audit period of 0 iterations has no meaning: the same input check
/// rejects it on every entry point, whether the policy audits or not.
#[test]
fn zero_audit_period_is_rejected_by_every_entry_point() {
    let (a, colors) = ordered_plate(8);
    let n = a.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&a, &colors, 2).expect("preconditioner");
    let spmd = ParallelMStepPcg::new(&a, &colors, vec![1.0; 2]).expect("solver");
    let b = vec![1.0; n];
    let batch = vec![1.0; 2 * n];
    let mut ws = MultiRhsWorkspace::new(n, 2);
    for policy in [RecoveryPolicy::on(), RecoveryPolicy::off()] {
        let recovery = RecoveryPolicy {
            audit_period: 0,
            ..policy
        };
        let serial_opts = PcgOptions {
            recovery,
            ..opts(PcgVariant::Classic, 1e-8)
        };
        let err = Some(SparseError::ZeroAuditPeriod);
        assert_eq!(pcg_solve(&a, &b, &pre, &serial_opts).err(), err);
        let mut u = vec![0.0; 2 * n];
        let multi = pcg_solve_multi(&a, &batch, &mut u, &pre, &serial_opts, &mut ws);
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
