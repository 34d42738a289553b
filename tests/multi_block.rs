//! The batched solver's lockstep blocks against standalone solves.
//!
//! Every column of every batch — 1, 7, 8, 9 and 17 cases at 1, 2, 4 and 8
//! threads, so blocks of every width from 1 to 8 and lanes holding one,
//! several and a partial block — must equal its standalone
//! `pcg_try_solve_into` bitwise: solution bits, iteration count,
//! `PcgStats`, `SolveStatus` and both final norms. The batches mix a zero
//! right-hand side, a column warm-started at its solution, columns from
//! nonzero guesses and — under a small budget — columns that run out of
//! it next to columns that converge; they run audited and not, under both
//! stopping tests, with the m-step SSOR (block kernels) and with a
//! polynomial preconditioner and a SELL-C-σ operator, which take the
//! traits' column-by-column defaults.
//!
//! Faults: a NaN out of one column's msolve, a finite corruption of one
//! column's SpMV (caught by the audit), a NaN in one column's SpMV (the
//! restart that repeats an iteration), a NaN in one column's first msolve
//! (a restart at iteration 0), two faults in one column (two restarts) and
//! a fault with no replacement budget (a `Breakdown` column) each hit one
//! column of a block, which restarts in place or breaks down. It then
//! reports exactly the counters and iterate of the same fault in a
//! standalone solve, while the other columns stay bitwise equal to their
//! clean standalone solves.
//!
//! The standalone solve is itself the width-1 block; its independent
//! reference is the literal Algorithm 1 of `tests/algorithm1_oracle.rs`.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace, RhsOutcome, SolveStatus};
use mspcg::core::pcg::{
    pcg_try_solve_into, PcgOptions, PcgReport, PcgWorkspace, StoppingCriterion,
};
use mspcg::core::poly::{auto_preconditioner, PolynomialPreconditioner};
use mspcg::core::preconditioner::Preconditioner;
use mspcg::core::recovery::{
    ApplicationFault, FaultKind, FaultyOp, FaultyPreconditioner, RecoveryPolicy,
};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::{par, CsrMatrix, Partition, PrecondKind, SellCsMatrix, SparseError, SparseOp};
use std::sync::{Mutex, MutexGuard};

mod common;
use common::Rng;

/// The tests of this file sweep the process-wide pool size.
fn sweep_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the pool size when a test ends, passing or not.
struct Threads(usize);

impl Threads {
    fn save() -> Self {
        Threads(par::max_threads())
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        par::set_max_threads(self.0);
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

/// A batch of `cases` right-hand sides and initial guesses: the plate load
/// under per-case scales plus xorshift noise, from zero or a nonzero
/// guess; case 2 is a zero right-hand side with a nonzero guess, case 4
/// starts at its own solution.
fn batch(k: &CsrMatrix, rhs: &[f64], cases: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rhs.len();
    let mut rng = Rng::new(0xBA7C + cases as u64);
    let (mut f, mut u) = (Vec::new(), Vec::new());
    for i in 0..cases {
        let scale = 1.0 + 0.3 * i as f64;
        let mut fi: Vec<f64> = rhs
            .iter()
            .map(|v| scale * v + 0.05 * (rng.unit() - 0.5))
            .collect();
        let mut ui: Vec<f64> = if i % 3 == 1 {
            (0..n).map(|_| rng.unit() - 0.5).collect()
        } else {
            vec![0.0; n]
        };
        if i == 2 {
            fi.fill(0.0);
            ui.fill(0.25);
        }
        if i == 4 {
            // Warm start at the solution: f = K·x for a known x.
            ui = (0..n).map(|_| rng.unit() - 0.5).collect();
            fi = k.mul_vec(&ui);
        }
        f.extend(fi);
        u.extend(ui);
    }
    (f, u)
}

/// How `pcg_solve_multi` classifies a solve's result.
fn status(result: &Result<PcgReport, SparseError>) -> SolveStatus {
    match result {
        Ok(rep) if !rep.converged => SolveStatus::BudgetExhausted,
        Ok(rep) if rep.stats.replacements > 0 => SolveStatus::Replaced,
        Ok(_) => SolveStatus::Converged,
        Err(_) => SolveStatus::Breakdown,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Case `i` of the batch (`got`, `out`) equals `want`, the standalone
/// solve from the same guess.
fn assert_column(
    what: &str,
    i: usize,
    got: &[f64],
    out: &RhsOutcome,
    want_u: &[f64],
    want: &Result<PcgReport, SparseError>,
) {
    assert_eq!(bits(got), bits(want_u), "{what}, case {i}: solution");
    assert_eq!(out.status, status(want), "{what}, case {i}: status");
    match want {
        Ok(rep) => {
            let got = &out.report;
            assert_eq!(
                got.iterations, rep.iterations,
                "{what}, case {i}: iterations"
            );
            assert_eq!(got.stats, rep.stats, "{what}, case {i}: counters");
            assert_eq!(got.converged, rep.converged, "{what}, case {i}");
            assert_eq!(
                (
                    got.final_change.to_bits(),
                    got.final_relative_residual.to_bits()
                ),
                (
                    rep.final_change.to_bits(),
                    rep.final_relative_residual.to_bits()
                ),
                "{what}, case {i}: final norms"
            );
        }
        Err(e) => panic!("{what}, case {i}: the standalone solve failed: {e}"),
    }
}

/// Solve the batch at every thread count and compare each column with
/// its standalone solve (computed once: standalone solves do not depend
/// on the thread count).
fn check_batches<A: SparseOp, P: Preconditioner + Sync>(
    what: &str,
    k: &A,
    m: &P,
    f: &[f64],
    u0: &[f64],
    opts: &PcgOptions,
    threads: &[usize],
) {
    let n = k.rows();
    let mut ws = PcgWorkspace::new(n);
    let want: Vec<_> = f
        .chunks(n)
        .zip(u0.chunks(n))
        .map(|(fi, ui)| {
            let mut u = ui.to_vec();
            let rep = pcg_try_solve_into(k, fi, &mut u, m, opts, &mut ws);
            (u, rep)
        })
        .collect();
    let cases = want.len();
    for &t in threads {
        par::set_max_threads(t);
        let mut mws = MultiRhsWorkspace::new(n, cases);
        let mut u = u0.to_vec();
        pcg_solve_multi(k, f, &mut u, m, opts, &mut mws).unwrap();
        let what = format!("{what}, {cases} cases, {t} threads");
        for (i, (want_u, rep)) in want.iter().enumerate() {
            let got = &u[i * n..(i + 1) * n];
            assert_column(&what, i, got, &mws.outcomes()[i], want_u, rep);
        }
    }
}

/// The option sets a batch runs under: both stopping tests, audited
/// (every 3 iterations) and not, with the default budget and with one so
/// small that the cold columns run out of it.
fn option_sets() -> Vec<PcgOptions> {
    let mut sets = Vec::new();
    for criterion in [
        StoppingCriterion::DisplacementChange,
        StoppingCriterion::RelativeResidual,
    ] {
        for recovery in [
            RecoveryPolicy::default(),
            RecoveryPolicy {
                audit_period: 3,
                ..RecoveryPolicy::on()
            },
        ] {
            for max_iterations in [50_000, 7] {
                sets.push(PcgOptions {
                    tol: 1e-9,
                    criterion,
                    recovery,
                    max_iterations,
                    ..Default::default()
                });
            }
        }
    }
    sets
}

#[test]
fn ssor_batches_match_standalone_solves_bitwise() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    let (k, colors, rhs) = plate(10);
    let pre = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let auto = auto_preconditioner(&k, &colors, 2, PrecondKind::Auto).unwrap();
    for cases in [1, 7, 8, 9, 17] {
        let (f, u0) = batch(&k, &rhs, cases);
        for opts in option_sets() {
            let what = format!("α = 1, {opts:?}");
            check_batches(&what, &k, &pre, &f, &u0, &opts, &[1, 2, 4, 8]);
        }
        let opts = PcgOptions {
            tol: 1e-9,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        check_batches("Auto", &k, &auto, &f, &u0, &opts, &[1, 2, 4]);
    }
}

/// A budget between the fastest and the slowest column: some columns of
/// one block converge while the others run out.
#[test]
fn a_block_can_hold_converged_and_exhausted_columns() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    let (k, colors, rhs) = plate(10);
    let pre = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let (f, u0) = batch(&k, &rhs, 8);
    let opts = PcgOptions {
        tol: 1e-9,
        criterion: StoppingCriterion::RelativeResidual,
        max_iterations: 7,
        ..Default::default()
    };
    check_batches("mixed", &k, &pre, &f, &u0, &opts, &[1]);
    let mut mws = MultiRhsWorkspace::new(k.rows(), 8);
    let mut u = u0.clone();
    par::set_max_threads(1);
    pcg_solve_multi(&k, &f, &mut u, &pre, &opts, &mut mws).unwrap();
    let statuses: Vec<_> = mws.outcomes().iter().map(|o| o.status).collect();
    assert!(statuses.contains(&SolveStatus::Converged), "{statuses:?}");
    assert!(
        statuses.contains(&SolveStatus::BudgetExhausted),
        "{statuses:?}"
    );
}

/// Preconditioners and operators without block kernels go column by
/// column through the traits' defaults, with the same bitwise result.
#[test]
fn default_path_batches_match_standalone_solves_bitwise() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    let (k, colors, rhs) = plate(10);
    let chebyshev = PolynomialPreconditioner::chebyshev(k.clone(), 4).unwrap();
    let sell = SellCsMatrix::from_csr_default(&k);
    let ssor_sell = MStepSsorPreconditioner::unparametrized_op(&sell, &colors, 2).unwrap();
    let opts = PcgOptions {
        tol: 1e-9,
        criterion: StoppingCriterion::RelativeResidual,
        recovery: RecoveryPolicy {
            audit_period: 4,
            ..RecoveryPolicy::on()
        },
        ..Default::default()
    };
    for cases in [1, 9, 17] {
        let (f, u0) = batch(&k, &rhs, cases);
        check_batches("Chebyshev", &k, &chebyshev, &f, &u0, &opts, &[1, 2]);
        check_batches("SELL-C-σ", &sell, &ssor_sell, &f, &u0, &opts, &[1, 2]);
    }
}

/// Column `j` of a 4-column block (one lane: application counting is
/// serial) is hit at its standalone application `s` — the global
/// application `4·s + j` while every column is in the block.
const WIDTH: usize = 4;

/// The fault tests' block: `WIDTH` nonzero loads from zero guesses, so
/// every column is in the block from the first application on.
fn loads(rhs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let f: Vec<f64> = (0..WIDTH)
        .flat_map(|j| rhs.iter().map(move |v| v * (1.0 + 0.4 * j as f64)))
        .collect();
    let u = vec![0.0; f.len()];
    (f, u)
}

#[test]
fn a_nan_msolve_fault_moves_one_column_off_its_block() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(1);
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let ssor = || MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let clean = ssor();
    let (f, u0) = loads(&rhs);
    let opts = PcgOptions {
        tol: 1e-9,
        criterion: StoppingCriterion::RelativeResidual,
        ..Default::default()
    };
    let (hit, at, index) = (1, 3, 7);
    let fault = |application| {
        vec![ApplicationFault {
            application,
            index,
            kind: FaultKind::NaN,
        }]
    };
    let faulty = FaultyPreconditioner::new(ssor(), fault(WIDTH * at + hit));
    let mut mws = MultiRhsWorkspace::new(n, WIDTH);
    let mut u = u0.clone();
    pcg_solve_multi(&k, &f, &mut u, &faulty, &opts, &mut mws).unwrap();
    assert_eq!(faulty.injected(), 1);

    let mut ws = PcgWorkspace::new(n);
    for (j, (fj, uj)) in f.chunks(n).zip(u0.chunks(n)).enumerate() {
        let mut want_u = uj.to_vec();
        let want = if j == hit {
            let standalone = FaultyPreconditioner::new(ssor(), fault(at));
            let rep = pcg_try_solve_into(&k, fj, &mut want_u, &standalone, &opts, &mut ws);
            assert_eq!(standalone.injected(), 1);
            rep
        } else {
            pcg_try_solve_into(&k, fj, &mut want_u, &clean, &opts, &mut ws)
        };
        let out = &mws.outcomes()[j];
        assert_column(
            "NaN msolve fault",
            j,
            &u[j * n..(j + 1) * n],
            out,
            &want_u,
            &want,
        );
        if j == hit {
            let s = out.report.stats;
            assert_eq!(out.status, SolveStatus::Replaced);
            assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
        }
    }
}

#[test]
fn an_audited_spmv_corruption_moves_one_column_off_its_block() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(1);
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let (f, u0) = loads(&rhs);
    let opts = PcgOptions {
        tol: 1e-10,
        criterion: StoppingCriterion::RelativeResidual,
        recovery: RecoveryPolicy {
            audit_period: 4,
            ..RecoveryPolicy::on()
        },
        ..Default::default()
    };
    // A finite corruption of one column's SpMV at its iteration 3: every
    // scalar stays finite, so only the audit at iteration 5 catches it.
    let (hit, at, index) = (3, 3, 20);
    let fault = |application| {
        vec![ApplicationFault {
            application,
            index,
            kind: FaultKind::ScaledNoise(0.01),
        }]
    };
    let op = FaultyOp::new(&k, fault(WIDTH * at + hit));
    let mut mws = MultiRhsWorkspace::new(n, WIDTH);
    let mut u = u0.clone();
    pcg_solve_multi(&op, &f, &mut u, &pre, &opts, &mut mws).unwrap();
    assert_eq!(op.injected(), 1);

    let mut ws = PcgWorkspace::new(n);
    for (j, (fj, uj)) in f.chunks(n).zip(u0.chunks(n)).enumerate() {
        let mut want_u = uj.to_vec();
        let want = if j == hit {
            let standalone = FaultyOp::new(&k, fault(at));
            let rep = pcg_try_solve_into(&standalone, fj, &mut want_u, &pre, &opts, &mut ws);
            assert_eq!(standalone.injected(), 1);
            rep
        } else {
            pcg_try_solve_into(&k, fj, &mut want_u, &pre, &opts, &mut ws)
        };
        let out = &mws.outcomes()[j];
        assert_column(
            "audited SpMV fault",
            j,
            &u[j * n..(j + 1) * n],
            out,
            &want_u,
            &want,
        );
        if j == hit {
            let s = out.report.stats;
            assert_eq!(out.status, SolveStatus::Replaced);
            assert!(
                s.audits > 0 && s.replacements >= 1 && s.faults_detected == 0,
                "{s:?}"
            );
        }
    }
}

/// Compare every column of a batch of `WIDTH` (`u`, `mws`) with
/// `standalone(j, f_j, u_j)`, its standalone solve from the same guess. A
/// standalone solve that fails with a non-finite value must leave the
/// column `Breakdown` at the same iteration, with the same iterate.
fn compare_columns(
    what: &str,
    (f, u0, u): (&[f64], &[f64], &[f64]),
    mws: &MultiRhsWorkspace,
    mut standalone: impl FnMut(usize, &[f64], &mut [f64]) -> Result<PcgReport, SparseError>,
) {
    let n = f.len() / WIDTH;
    for (j, (fj, uj)) in f.chunks(n).zip(u0.chunks(n)).enumerate() {
        let mut want_u = uj.to_vec();
        let want = standalone(j, fj, &mut want_u);
        let (got, out) = (&u[j * n..(j + 1) * n], &mws.outcomes()[j]);
        match want {
            Err(SparseError::NonFinite { iteration, .. }) => {
                assert_eq!(bits(got), bits(&want_u), "{what}, case {j}: solution");
                assert_eq!(out.status, SolveStatus::Breakdown, "{what}, case {j}");
                assert_eq!(out.report.iterations, iteration, "{what}, case {j}");
            }
            _ => assert_column(what, j, got, out, &want_u, &want),
        }
    }
}

/// A NaN out of `ops` — faults pinned to the block's global applications
/// `at` — hits one column of the `WIDTH`-column block of `loads`; the same
/// fault at its standalone applications `standalone_at` hits its
/// standalone solve. `on_msolve` picks the preconditioner's applications,
/// otherwise the operator's. Returns the hit column's outcome.
fn nan_fault_cell(
    what: &str,
    on_msolve: bool,
    (hit, at, standalone_at): (usize, &[usize], &[usize]),
    opts: &PcgOptions,
) -> RhsOutcome {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(1);
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let ssor = || MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let clean = ssor();
    let (f, u0) = loads(&rhs);
    let faults = |applications: &[usize]| -> Vec<ApplicationFault> {
        let nan = |&application| ApplicationFault {
            application,
            index: 7,
            kind: FaultKind::NaN,
        };
        applications.iter().map(nan).collect()
    };
    let none: &[usize] = &[];
    let (block_op, block_pre) = if on_msolve {
        (
            FaultyOp::new(&k, faults(none)),
            FaultyPreconditioner::new(ssor(), faults(at)),
        )
    } else {
        (
            FaultyOp::new(&k, faults(at)),
            FaultyPreconditioner::new(ssor(), faults(none)),
        )
    };
    let mut mws = MultiRhsWorkspace::new(n, WIDTH);
    let mut u = u0.clone();
    pcg_solve_multi(&block_op, &f, &mut u, &block_pre, opts, &mut mws).unwrap();
    assert_eq!(
        block_op.injected() + block_pre.injected(),
        at.len(),
        "{what}"
    );

    let mut ws = PcgWorkspace::new(n);
    compare_columns(what, (&f, &u0, &u), &mws, |j, fj, uj| {
        if j != hit {
            return pcg_try_solve_into(&k, fj, uj, &clean, opts, &mut ws);
        }
        let (op, pre) = if on_msolve {
            let pre = FaultyPreconditioner::new(ssor(), faults(standalone_at));
            (FaultyOp::new(&k, faults(none)), pre)
        } else {
            let op = FaultyOp::new(&k, faults(standalone_at));
            (op, FaultyPreconditioner::new(ssor(), faults(none)))
        };
        let rep = pcg_try_solve_into(&op, fj, uj, &pre, opts, &mut ws);
        assert_eq!(
            op.injected() + pre.injected(),
            standalone_at.len(),
            "{what}"
        );
        rep
    });
    mws.outcomes()[hit]
}

fn relative_residual_opts() -> PcgOptions {
    PcgOptions {
        tol: 1e-9,
        criterion: StoppingCriterion::RelativeResidual,
        ..Default::default()
    }
}

/// A NaN in one column's `K·p` poisons its `(p, K·p)` before its step is
/// taken: the column restarts from its iterate and repeats the iteration.
#[test]
fn a_nan_spmv_fault_repeats_one_columns_iteration() {
    let (hit, at) = (2, 4);
    let opts = relative_residual_opts();
    let out = nan_fault_cell("NaN SpMV", false, (hit, &[WIDTH * at + hit], &[at]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
}

/// A NaN in one column's first msolve: the restart at iteration 0.
#[test]
fn a_nan_in_a_columns_first_msolve_restarts_it_at_iteration_zero() {
    let hit = 3;
    let opts = relative_residual_opts();
    let out = nan_fault_cell("NaN first msolve", true, (hit, &[hit], &[0]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
}

/// Two faults in one column: a NaN msolve at its iteration 3, and another
/// in the msolve of the restart it triggers (the block's next msolve
/// application), so the column restarts twice.
#[test]
fn two_faults_in_one_column_restart_it_twice() {
    let (hit, at) = (1, 3);
    let opts = relative_residual_opts();
    let block = [WIDTH * at + hit, WIDTH * at + WIDTH];
    let out = nan_fault_cell("two NaN msolves", true, (hit, &block, &[at, at + 1]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (2, 2, 0));
}

/// With no replacement budget the faulted column breaks down with the
/// standalone solve's typed error, beside clean columns.
#[test]
fn a_spent_replacement_budget_breaks_down_one_column_beside_clean_ones() {
    let (hit, at) = (0, 3);
    let opts = PcgOptions {
        recovery: RecoveryPolicy {
            max_replacements: 0,
            ..RecoveryPolicy::default()
        },
        ..relative_residual_opts()
    };
    let out = nan_fault_cell("no budget", true, (hit, &[WIDTH * at + hit], &[at]), &opts);
    assert_eq!(out.status, SolveStatus::Breakdown);
    assert_eq!(out.report.iterations, at);
}
