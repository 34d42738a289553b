//! An independent oracle for the PCG recurrence: the paper's Algorithm 1
//! transcribed statement by statement onto the unfused public kernels —
//! `SparseOp::mul_vec_into` / `mul_vec_axpy`, `Preconditioner::apply_with`
//! and `vecops::{dot, axpy, xpby, norm_inf, norm2}`, one kernel per
//! statement — against which `pcg_try_solve_into`, which runs the fused
//! lockstep loop at width 1, must agree bitwise: solution bits, iteration
//! count, both final norms and the converged flag.
//!
//! The cells are clean solves: both stopping tests; zero, nonzero and
//! at-solution initial guesses; a budget exit; the unparametrized 2-step
//! SSOR, the `Auto` preconditioner and the identity; a plate below
//! `tuning::par_min_nnz` stored entries at 1 and 2 threads (serial
//! kernels) and one above it at 2 threads (pool-parallel kernels).

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_try_solve_into, PcgOptions, PcgWorkspace, StoppingCriterion};
use mspcg::core::poly::auto_preconditioner;
use mspcg::core::preconditioner::{IdentityPreconditioner, Preconditioner};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::{par, tuning, vecops, CsrMatrix, Partition, PrecondKind, SparseOp};
use std::sync::{Mutex, MutexGuard};

mod common;
use common::Rng;

/// The tests of this file set the process-wide pool size.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// What a solve reports, compared bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    u: Vec<u64>,
    iterations: usize,
    converged: bool,
    final_change: u64,
    final_relative_residual: u64,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Algorithm 1 from `u0`, literally:
///
/// ```text
/// r⁰ = f − K u⁰;  M r̂⁰ = r⁰;  p⁰ = r̂⁰
/// for k = 0, 1, …:
///   αₖ = (r̂ᵏ, rᵏ) / (pᵏ, K pᵏ)
///   u^{k+1} = uᵏ + αₖ pᵏ
///   r^{k+1} = rᵏ − αₖ K pᵏ
///   stop when ‖u^{k+1} − uᵏ‖∞ = |αₖ|·‖pᵏ‖∞ < ε  (or ‖r^{k+1}‖₂ < ε‖f‖₂)
///   M r̂^{k+1} = r^{k+1}
///   βₖ = (r̂^{k+1}, r^{k+1}) / (r̂ᵏ, rᵏ)
///   p^{k+1} = r̂^{k+1} + βₖ pᵏ
/// ```
///
/// A zero right-hand side is solved by `u = 0`; a solve that stops
/// without its test firing (budget spent, or `(r̂, r) = 0`) reports the
/// true residual `‖f − K u‖₂ / ‖f‖₂` of its last iterate.
fn algorithm1(
    k: &impl SparseOp,
    f: &[f64],
    u0: &[f64],
    m: &impl Preconditioner,
    opts: &PcgOptions,
) -> Outcome {
    let n = k.rows();
    let f_norm = vecops::norm2(f);
    if f_norm == 0.0 {
        return Outcome {
            u: bits(&vec![0.0; n]),
            iterations: 0,
            converged: true,
            final_change: 0.0f64.to_bits(),
            final_relative_residual: 0.0f64.to_bits(),
        };
    }
    let mut scratch = vec![0.0; m.scratch_len()];
    let mut u = u0.to_vec();
    // r⁰ = f − K u⁰
    let mut r = f.to_vec();
    k.mul_vec_axpy(-1.0, &u, &mut r);
    // M r̂⁰ = r⁰
    let mut rhat = vec![0.0; n];
    m.apply_with(&r, &mut rhat, &mut scratch);
    // p⁰ = r̂⁰
    let mut p = rhat.clone();
    let mut rz = vecops::dot(&rhat, &r);
    let mut kp = vec![0.0; n];
    let mut change = f64::INFINITY;
    let mut iterations = 0;
    for k_iter in 1..=opts.max_iterations {
        // αₖ = (r̂ᵏ, rᵏ) / (pᵏ, K pᵏ)
        k.mul_vec_into(&p, &mut kp);
        let pkp = vecops::dot(&p, &kp);
        if pkp <= 0.0 {
            assert_eq!(rz, 0.0, "indefinite test system");
            break;
        }
        let alpha = rz / pkp;
        // u^{k+1} = uᵏ + αₖ pᵏ
        vecops::axpy(alpha, &p, &mut u);
        change = alpha.abs() * vecops::norm_inf(&p);
        // r^{k+1} = rᵏ − αₖ K pᵏ
        vecops::axpy(-alpha, &kp, &mut r);
        iterations = k_iter;
        let relative_residual = vecops::norm2(&r) / f_norm;
        let criterion = match opts.criterion {
            StoppingCriterion::DisplacementChange => change,
            StoppingCriterion::RelativeResidual => relative_residual,
        };
        if criterion < opts.tol {
            return Outcome {
                u: bits(&u),
                iterations,
                converged: true,
                final_change: change.to_bits(),
                final_relative_residual: relative_residual.to_bits(),
            };
        }
        // M r̂^{k+1} = r^{k+1}
        m.apply_with(&r, &mut rhat, &mut scratch);
        // βₖ = (r̂^{k+1}, r^{k+1}) / (r̂ᵏ, rᵏ)
        let rz_new = vecops::dot(&rhat, &r);
        let beta = rz_new / rz;
        rz = rz_new;
        // p^{k+1} = r̂^{k+1} + βₖ pᵏ
        vecops::xpby(&rhat, beta, &mut p);
    }
    let converged =
        rz == 0.0 || (opts.criterion == StoppingCriterion::DisplacementChange && change < opts.tol);
    let mut true_r = f.to_vec();
    k.mul_vec_axpy(-1.0, &u, &mut true_r);
    Outcome {
        u: bits(&u),
        iterations,
        converged,
        final_change: change.to_bits(),
        final_relative_residual: (vecops::norm2(&true_r) / f_norm).to_bits(),
    }
}

fn plate(a: usize) -> (CsrMatrix, Partition, Vec<f64>) {
    let ord = PlaneStressProblem::unit_square(a)
        .assemble()
        .unwrap()
        .multicolor()
        .unwrap();
    (ord.matrix, ord.colors, ord.rhs)
}

/// Compare the library solve with the oracle on every guess × option set.
fn check(what: &str, k: &CsrMatrix, m: &impl Preconditioner, rhs: &[f64], threads: &[usize]) {
    let n = k.rows();
    let mut rng = Rng::new(0xA160 + n as u64);
    let x: Vec<f64> = (0..n).map(|_| rng.unit() - 0.5).collect();
    let noise: Vec<f64> = (0..n).map(|_| rng.unit() - 0.5).collect();
    let at_solution = k.mul_vec(&x);
    // (name, f, u⁰): the plate load from zero and from a nonzero guess,
    // and a load whose exact solution is the guess.
    let cells = [
        ("zero guess", rhs, vec![0.0; n]),
        ("nonzero guess", rhs, noise),
        ("at-solution guess", &at_solution[..], x),
    ];
    let mut option_sets = Vec::new();
    for criterion in [
        StoppingCriterion::DisplacementChange,
        StoppingCriterion::RelativeResidual,
    ] {
        for max_iterations in [50_000, 5] {
            option_sets.push(PcgOptions {
                tol: 1e-7,
                criterion,
                max_iterations,
                ..Default::default()
            });
        }
    }
    let mut ws = PcgWorkspace::new(n);
    let mut budget_exits = 0;
    for &t in threads {
        par::set_max_threads(t);
        for (cell, f, u0) in &cells {
            for opts in &option_sets {
                let want = algorithm1(k, f, u0, m, opts);
                let mut u = u0.clone();
                let rep = pcg_try_solve_into(k, f, &mut u, m, opts, &mut ws).unwrap();
                let got = Outcome {
                    u: bits(&u),
                    iterations: rep.iterations,
                    converged: rep.converged,
                    final_change: rep.final_change.to_bits(),
                    final_relative_residual: rep.final_relative_residual.to_bits(),
                };
                assert_eq!(got, want, "{what}, {cell}, {t} threads, {opts:?}");
                budget_exits += usize::from(!rep.converged);
            }
        }
    }
    assert!(budget_exits > 0, "{what}: no cell ran out of budget");
}

#[test]
fn standalone_solves_equal_the_literal_algorithm_bitwise() {
    let _guard = threads_lock();
    let before = par::max_threads();
    for a in [10, 28] {
        let (k, colors, rhs) = plate(a);
        let what = format!("a = {a}");
        assert_eq!(
            k.nnz() >= tuning::par_min_nnz(),
            a == 28,
            "{what}: one plate on each side of the parallel threshold"
        );
        let ssor = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
        let auto = auto_preconditioner(&k, &colors, 2, PrecondKind::Auto).unwrap();
        let identity = IdentityPreconditioner::new(k.rows());
        // One thread runs every kernel serially on either plate; two put
        // the large plate's kernels on the pool.
        let threads: &[usize] = if a == 28 { &[2] } else { &[1, 2] };
        check(&format!("{what}, α = 1, m = 2"), &k, &ssor, &rhs, threads);
        check(&format!("{what}, Auto"), &k, &auto, &rhs, threads);
        check(&format!("{what}, identity"), &k, &identity, &rhs, threads);
    }
    par::set_max_threads(before);
}
