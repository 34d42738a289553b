//! The determinism contract of the data-parallel kernel layer, end to
//! end: every kernel — BLAS-1 reductions, CSR SpMV, the multicolor SSOR
//! sweeps, and a *complete* m-step SSOR PCG solve — must produce bitwise
//! identical results for 1, 2, 4 and 8 worker threads, because chunk
//! boundaries and reduction order depend only on the problem size.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{pcg_solve_into, PcgOptions, PcgWorkspace};
use mspcg::core::poly::{auto_preconditioner, AutoPreconditioner};
use mspcg::core::recovery::RecoveryPolicy;
use mspcg::core::ssor::MulticolorSsor;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::fem::poisson::poisson5;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{par, vecops, AutoOp, CsrMatrix, Partition, PrecondKind, SellCsMatrix};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The thread budget is process global; sweep one test at a time.
fn sweep_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Color-blocked red/black Poisson system on an `n × n` grid.
fn ordered_poisson(n: usize) -> (CsrMatrix, Partition, Vec<f64>) {
    let p = poisson5(n).expect("poisson");
    let ord = p.coloring.ordering();
    let matrix = ord.permute_matrix(&p.matrix).expect("permute");
    let rhs = ord.permutation.gather(&p.rhs);
    (matrix, ord.partition, rhs)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn blas1_kernels_bitwise_across_thread_counts() {
    let _guard = sweep_lock();
    let n = 200_000usize;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 1013) as f64 * 1e-3 - 0.5)
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| ((i * 53 + 5) % 911) as f64 * 1e-3 - 0.4)
        .collect();

    let before = par::max_threads();
    par::set_max_threads(1);
    let d1 = vecops::dot(&x, &y);
    let n1 = vecops::norm2(&x);
    let i1 = vecops::norm_inf(&y);
    let mut ax1 = y.clone();
    vecops::axpy(0.37, &x, &mut ax1);
    let mut xb1 = y.clone();
    vecops::xpby(&x, -0.83, &mut xb1);

    for t in [2usize, 4, 8] {
        par::set_max_threads(t);
        assert_eq!(d1.to_bits(), vecops::dot(&x, &y).to_bits(), "dot, t = {t}");
        assert_eq!(n1.to_bits(), vecops::norm2(&x).to_bits(), "norm2, t = {t}");
        assert_eq!(
            i1.to_bits(),
            vecops::norm_inf(&y).to_bits(),
            "norm_inf, t = {t}"
        );
        let mut ax = y.clone();
        vecops::axpy(0.37, &x, &mut ax);
        assert_eq!(bits(&ax1), bits(&ax), "axpy, t = {t}");
        let mut xb = y.clone();
        vecops::xpby(&x, -0.83, &mut xb);
        assert_eq!(bits(&xb1), bits(&xb), "xpby, t = {t}");
    }
    par::set_max_threads(before);
}

/// The fused CG-iteration kernels must agree with the unfused kernel
/// sequence bitwise — and both must be thread-count insensitive. This is
/// the acceptance gate for rewiring `pcg_solve_into` onto the fused path.
#[test]
fn fused_kernels_bitwise_equal_unfused_across_thread_counts() {
    let _guard = sweep_lock();
    let n = 150_000usize;
    let alpha = 0.8125;
    let p: Vec<f64> = (0..n)
        .map(|i| ((i * 31 + 17) % 1009) as f64 * 1e-3 - 0.5)
        .collect();
    let kp: Vec<f64> = (0..n)
        .map(|i| ((i * 43 + 3) % 977) as f64 * 1e-3 - 0.45)
        .collect();
    let u0: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 127) as f64 * 0.01).collect();
    let r0: Vec<f64> = (0..n)
        .map(|i| ((i * 19 + 11) % 113) as f64 * 0.02 - 1.0)
        .collect();

    let before = par::max_threads();
    // Unfused reference at 1 thread.
    par::set_max_threads(1);
    let mut u_ref = u0.clone();
    let mut r_ref = r0.clone();
    vecops::axpy(alpha, &p, &mut u_ref);
    let p_norm_ref = vecops::norm_inf(&p);
    vecops::axpy(-alpha, &kp, &mut r_ref);
    let r_norm_ref = vecops::norm_inf(&r_ref);
    let r2_ref = vecops::norm2(&r_ref);

    for t in [1usize, 2, 4, 8] {
        par::set_max_threads(t);
        let mut u = u0.clone();
        let mut r = r0.clone();
        let norms = vecops::fused_axpy_axpy_norm(alpha, &p, &kp, &mut u, &mut r);
        assert_eq!(bits(&u), bits(&u_ref), "fused u, t = {t}");
        assert_eq!(bits(&r), bits(&r_ref), "fused r, t = {t}");
        assert_eq!(norms.p_norm_inf.to_bits(), p_norm_ref.to_bits(), "t = {t}");
        assert_eq!(norms.r_norm_inf.to_bits(), r_norm_ref.to_bits(), "t = {t}");
        assert_eq!(
            vecops::norm2_with_max(&r, norms.r_norm_inf).to_bits(),
            r2_ref.to_bits(),
            "fused norm2, t = {t}"
        );
    }
    par::set_max_threads(before);
}

/// The batched multi-RHS solver must reproduce the standalone solves
/// bitwise for every thread count: its lanes spread over the pool, each
/// lane's kernels serial. The system is below `par_min_nnz`; the
/// multi-RHS leg of `full_pcg_solve_bitwise_under_both_formats` runs the
/// same lanes on a matrix above it.
#[test]
fn multi_rhs_batch_bitwise_across_thread_counts() {
    let _guard = sweep_lock();
    let (matrix, colors, rhs) = ordered_poisson(48);
    let n = matrix.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&matrix, &colors, 2).unwrap();
    let nrhs = 6;
    let f: Vec<f64> = (0..nrhs)
        .flat_map(|j| rhs.iter().map(move |v| v * (1.0 + 0.25 * j as f64)))
        .collect();

    let before = par::max_threads();
    let opts = PcgOptions {
        tol: 1e-9,
        ..Default::default()
    };
    par::set_max_threads(1);
    let mut ws1 = MultiRhsWorkspace::new(n, nrhs);
    let mut u1 = vec![0.0; nrhs * n];
    pcg_solve_multi(&matrix, &f, &mut u1, &pre, &opts, &mut ws1).unwrap();
    // Every lane replays its standalone solve.
    let mut sws = PcgWorkspace::new(n);
    for (i, fi) in f.chunks(n).enumerate() {
        let mut ui = vec![0.0; n];
        pcg_solve_into(&matrix, fi, &mut ui, &pre, &opts, &mut sws).unwrap();
        assert_eq!(
            bits(&u1[i * n..(i + 1) * n]),
            bits(&ui),
            "lane {i} differs from its standalone solve"
        );
    }
    for t in [2usize, 4, 8] {
        par::set_max_threads(t);
        let mut ws = MultiRhsWorkspace::new(n, nrhs);
        let mut u = vec![0.0; nrhs * n];
        pcg_solve_multi(&matrix, &f, &mut u, &pre, &opts, &mut ws).unwrap();
        assert_eq!(bits(&u1), bits(&u), "batch differs at t = {t}");
    }
    par::set_max_threads(before);
}

/// `threads: 0` sizes the SPMD executor from the one process-wide
/// budget, the pool's: `MSPCG_THREADS` / `set_max_threads`, and one
/// worker in a build without the `par` feature.
#[test]
fn spmd_default_worker_count_is_the_pool_budget() {
    let _guard = sweep_lock();
    let asm = PlaneStressProblem::unit_square(6).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let spmd = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0]).unwrap();
    let opts = ParallelSolverOptions {
        threads: 0,
        tol: 1e-8,
        ..Default::default()
    };
    let before = par::max_threads();
    for budget in [1usize, 3] {
        par::set_max_threads(budget);
        let rep = spmd.solve(&ord.rhs, &opts).unwrap();
        assert!(rep.converged);
        // `max_threads` is the budget itself with `par`, 1 without.
        assert_eq!(rep.threads, par::max_threads(), "budget {budget}");
        if budget == 1 {
            assert_eq!(rep.threads, 1);
        }
    }
    par::set_max_threads(before);
}

/// `Auto` resolves to the same m-step SSOR on both executors at every
/// thread count: the serial selector estimates on its splitting's sweep
/// table, the SPMD constructor on the table it streams, and the kept
/// interval and the fitted coefficients agree bit for bit. The a = 40
/// plate (36 494 stored entries) is above `par_min_nnz`, so its estimate
/// runs its color phases on the pool.
#[test]
fn auto_alphas_bitwise_across_executors_and_thread_counts() {
    let _guard = sweep_lock();
    for a in [24usize, 40] {
        let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        let resolve = || {
            let serial =
                auto_preconditioner(&ord.matrix, &ord.colors, 2, PrecondKind::Auto).unwrap();
            let AutoPreconditioner::MStepSsor(p) = serial else {
                panic!("Auto must build the m-step SSOR");
            };
            let spmd = ParallelMStepPcg::auto(&ord.matrix, &ord.colors, 2).unwrap();
            assert_eq!(
                bits(p.alphas()),
                bits(spmd.alphas()),
                "a = {a}: serial vs SPMD"
            );
            let interval = p.interval().expect("Auto keeps its estimate");
            (bits(&[interval.min, interval.max]), bits(p.alphas()))
        };
        let before = par::max_threads();
        par::set_max_threads(1);
        let reference = resolve();
        assert!(reference.1.len() >= 2);
        for t in [2usize, 4, 8] {
            par::set_max_threads(t);
            assert_eq!(reference, resolve(), "a = {a}, t = {t}");
        }
        par::set_max_threads(before);
    }
}

#[test]
fn spmv_and_ssor_sweeps_bitwise_across_thread_counts() {
    let _guard = sweep_lock();
    let (matrix, colors, rhs) = ordered_poisson(192); // 36 864 unknowns
    let ssor = MulticolorSsor::new(matrix.clone(), colors, 1.0).unwrap();
    let alphas = [1.0, 0.8, 1.1];

    let before = par::max_threads();
    par::set_max_threads(1);
    let spmv1 = matrix.mul_vec(&rhs);
    let (mut z1, mut y) = (vec![0.0; matrix.rows()], vec![0.0; matrix.rows()]);
    ssor.msolve_block::<1>(&alphas, &rhs, &mut z1, &mut y);

    for t in [2usize, 4, 8] {
        par::set_max_threads(t);
        assert_eq!(bits(&spmv1), bits(&matrix.mul_vec(&rhs)), "spmv, t = {t}");
        let mut zt = vec![0.0; matrix.rows()];
        ssor.msolve_block::<1>(&alphas, &rhs, &mut zt, &mut y);
        assert_eq!(bits(&z1), bits(&zt), "msolve, t = {t}");
    }
    par::set_max_threads(before);
}

/// The cross-format leg of the determinism contract: replaying the full
/// m-step SSOR PCG solve through SELL-C-σ — operator
/// *and* preconditioner built from the SELL form — must reproduce the CSR
/// run bitwise, at every thread count. This is what makes the storage
/// format a pure performance decision.
#[test]
fn full_pcg_solve_bitwise_under_both_formats() {
    let _guard = sweep_lock();
    let (matrix, colors, rhs) = ordered_poisson(128);
    let sell = SellCsMatrix::from_csr_default(&matrix);
    let pre_csr = MStepSsorPreconditioner::unparametrized(&matrix, &colors, 2).unwrap();
    let pre_sell = MStepSsorPreconditioner::unparametrized_op(&sell, &colors, 2).unwrap();
    let n = matrix.rows();
    let mut f = rhs.clone();
    f.extend_from_slice(&rhs);

    let before = par::max_threads();
    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    for t in [1usize, 2, 4, 8] {
        par::set_max_threads(t);
        let mut ws = PcgWorkspace::new(n);
        let mut u_csr = vec![0.0; n];
        let rep_csr = pcg_solve_into(&matrix, &rhs, &mut u_csr, &pre_csr, &opts, &mut ws).unwrap();
        let mut u_sell = vec![0.0; n];
        let rep_sell = pcg_solve_into(&sell, &rhs, &mut u_sell, &pre_sell, &opts, &mut ws).unwrap();
        assert_eq!(
            rep_csr.iterations, rep_sell.iterations,
            "iters differ, t = {t}"
        );
        assert_eq!(
            rep_csr.final_relative_residual.to_bits(),
            rep_sell.final_relative_residual.to_bits(),
            "residual differs, t = {t}"
        );
        assert_eq!(bits(&u_csr), bits(&u_sell), "solution differs, t = {t}");

        // The batched multi-RHS path accepts the SELL operator too.
        let mut ub_csr = vec![0.0; 2 * n];
        let mut ub_sell = vec![0.0; 2 * n];
        let mut mws = MultiRhsWorkspace::new(n, 2);
        pcg_solve_multi(&matrix, &f, &mut ub_csr, &pre_csr, &opts, &mut mws).unwrap();
        pcg_solve_multi(&sell, &f, &mut ub_sell, &pre_sell, &opts, &mut mws).unwrap();
        assert_eq!(bits(&ub_csr), bits(&ub_sell), "multi-RHS differs, t = {t}");
    }
    par::set_max_threads(before);
}

/// `AutoOp` dispatches to whichever format it chose; the result must be
/// bitwise identical to the explicit CSR run either way.
#[test]
fn auto_format_solve_matches_csr_bitwise() {
    let _guard = sweep_lock();
    let (matrix, colors, rhs) = ordered_poisson(96);
    let auto = AutoOp::from_csr(matrix.clone());
    let pre_csr = MStepSsorPreconditioner::unparametrized(&matrix, &colors, 2).unwrap();
    let pre_auto = MStepSsorPreconditioner::unparametrized_op(&auto, &colors, 2).unwrap();
    let opts = PcgOptions {
        tol: 1e-9,
        ..Default::default()
    };
    let n = matrix.rows();
    let mut ws = PcgWorkspace::new(n);
    let mut u_csr = vec![0.0; n];
    pcg_solve_into(&matrix, &rhs, &mut u_csr, &pre_csr, &opts, &mut ws).unwrap();
    let mut u_auto = vec![0.0; n];
    pcg_solve_into(&auto, &rhs, &mut u_auto, &pre_auto, &opts, &mut ws).unwrap();
    assert_eq!(
        bits(&u_csr),
        bits(&u_auto),
        "AutoOp ({:?}) solve differs from CSR",
        auto.format()
    );
}

/// A complete solve, unaudited and audited, on a system
/// large enough that its SpMV and SSOR sweeps run in parallel: iteration
/// count and solution bits must not depend on the thread count.
#[test]
fn full_pcg_solve_bitwise_across_thread_counts() {
    let _guard = sweep_lock();
    let (matrix, colors, rhs) = ordered_poisson(128); // 16 384 unknowns
    let pre = MStepSsorPreconditioner::unparametrized(&matrix, &colors, 2).unwrap();
    let mut ws = PcgWorkspace::new(matrix.rows());

    let before = par::max_threads();
    for recovery in [RecoveryPolicy::default(), RecoveryPolicy::on()] {
        let opts = PcgOptions {
            tol: 1e-8,
            recovery,
            ..Default::default()
        };
        let audit = recovery.replacement;
        let mut solve = |t: usize| {
            par::set_max_threads(t);
            let mut u = vec![0.0; matrix.rows()];
            let rep = pcg_solve_into(&matrix, &rhs, &mut u, &pre, &opts, &mut ws).unwrap();
            assert!(rep.converged, "audit {audit:?}, t = {t}");
            assert_eq!(rep.stats.audits > 0, audit);
            (u, rep.iterations)
        };
        let (u1, it1) = solve(1);
        for t in [2usize, 4, 8] {
            let (ut, itt) = solve(t);
            assert_eq!(
                it1, itt,
                "audit {audit:?}: iteration count differs at t = {t}"
            );
            assert_eq!(
                bits(&u1),
                bits(&ut),
                "audit {audit:?}: solution differs at t = {t}"
            );
        }
    }
    par::set_max_threads(before);
}
