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
//! clean standalone solves. A fault plan names its case, so in a 16-case
//! batch at 1–8 lanes two faults land on their planned cases in every
//! run.
//!
//! The standalone solve is itself the width-1 block; its independent
//! reference is the literal Algorithm 1 of `tests/algorithm1_oracle.rs`.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{
    pcg_solve_multi, pcg_solve_multi_with_faults, MultiRhsWorkspace, RhsOutcome, SolveStatus,
};
use mspcg::core::pcg::{
    pcg_try_solve_into, pcg_try_solve_into_with_faults, PcgOptions, PcgReport, PcgWorkspace,
    StoppingCriterion,
};
use mspcg::core::poly::{auto_preconditioner, PolynomialPreconditioner};
use mspcg::core::preconditioner::Preconditioner;
use mspcg::core::recovery::{FaultKind, FaultPlan, FaultTarget, IterationFault, RecoveryPolicy};
use mspcg::core::ssor::MulticolorSsor;
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
    assert_eq!(
        out.error.as_ref(),
        want.as_ref().err(),
        "{what}, case {i}: error"
    );
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

/// Run `case` on a thread of its own and return what it returns, failing
/// after a minute instead of hanging the suite.
fn within_a_minute<T: Send + 'static>(what: &str, case: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || tx.send(case()).unwrap());
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(out) => {
            thread.join().expect("the case thread ends after sending");
            out
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
        Err(_) => std::panic::resume_unwind(thread.join().unwrap_err()),
    }
}

/// Inside a pool job, such as a batch lane, a launch runs its
/// participants one after another, so a barrier across them would never
/// open: there the m-step SSOR msolve runs one participant. On the a = 40
/// plate (above `par_min_nnz`, so a top-level msolve runs 2 participants)
/// at 2 threads, each case of a 4-case batch (two lanes) equals its
/// standalone solve bitwise, and an msolve called inside a 2-participant
/// launch equals its call from outside.
#[test]
fn a_pool_msolve_inside_a_pool_job_runs_one_participant() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(2);
    #[cfg(feature = "par")]
    assert_eq!(par::max_threads(), 2, "two lanes, two participants");
    let (k, colors, rhs) = plate(40);
    assert!(k.nnz() > mspcg::sparse::tuning::par_min_nnz());
    let n = k.rows();

    let pre = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let (f, u0) = batch(&k, &rhs, 4);
    let opts = PcgOptions {
        tol: 1e-9,
        ..Default::default()
    };
    let batched = (k.clone(), f, u0);
    within_a_minute("a 4-case batch", move || {
        let (k, f, u0) = batched;
        check_batches("α = 1, a = 40", &k, &pre, &f, &u0, &opts, &[2]);
    });

    let ssor = MulticolorSsor::new(k, colors, 1.0).unwrap();
    let msolve = move || {
        let mut z = vec![0.0; n];
        ssor.msolve_block::<1>(&[1.0, 0.75, 1.25], &rhs, &mut z, &mut vec![0.0; n]);
        bits(&z)
    };
    let outside = msolve();
    let inside = within_a_minute("an msolve inside a 2-participant launch", move || {
        let zs = Mutex::new(Vec::new());
        par::for_each_chunk(2, 2, &|_| zs.lock().unwrap().push(msolve()));
        zs.into_inner().unwrap()
    });
    assert_eq!(inside, [outside.clone(), outside]);
}

/// The fault tests' block width: one lane holds one block of `WIDTH`.
const WIDTH: usize = 4;

/// `cases` nonzero loads from zero guesses, so every column is in its
/// block from the first iteration on.
fn loads(rhs: &[f64], cases: usize) -> (Vec<f64>, Vec<f64>) {
    let f: Vec<f64> = (0..cases)
        .flat_map(|j| rhs.iter().map(move |v| v * (1.0 + 0.4 * j as f64)))
        .collect();
    let u = vec![0.0; f.len()];
    (f, u)
}

/// A planned fault on case `rhs`.
fn fault(
    rhs: usize,
    target: FaultTarget,
    iteration: usize,
    index: usize,
    kind: FaultKind,
) -> IterationFault {
    IterationFault {
        rhs,
        target,
        iteration,
        index,
        kind,
    }
}

/// The standalone solve of every case of `f` from `u0`, each under the
/// faults `plan` puts on its case (at `rhs` 0).
fn standalone_solves<A: SparseOp, P: Preconditioner>(
    (k, m, opts): (&A, &P, &PcgOptions),
    (f, u0): (&[f64], &[f64]),
    plan: &FaultPlan,
) -> Vec<(Vec<f64>, Result<PcgReport, SparseError>)> {
    let n = k.rows();
    let mut ws = PcgWorkspace::new(n);
    let cases = f.chunks(n).zip(u0.chunks(n)).enumerate();
    cases
        .map(|(j, (fj, uj))| {
            let own = plan.faults.iter().filter(|f| f.rhs == j);
            let own = FaultPlan::new(own.map(|&f| IterationFault { rhs: 0, ..f }).collect());
            let mut u = uj.to_vec();
            let rep = pcg_try_solve_into_with_faults(k, fj, &mut u, m, opts, &mut ws, &own);
            (u, rep)
        })
        .collect()
}

#[test]
fn a_nan_msolve_fault_moves_one_column_off_its_block() {
    let opts = relative_residual_opts();
    let out = nan_fault_cell("NaN msolve", FaultTarget::Msolve, (1, &[3]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
}

#[test]
fn an_audited_spmv_corruption_moves_one_column_off_its_block() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(1);
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let pre = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let (f, u0) = loads(&rhs, WIDTH);
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
    let hit = 3;
    let noise = fault(hit, FaultTarget::Spmv, 3, 20, FaultKind::ScaledNoise(0.01));
    let plan = FaultPlan::new(vec![noise]);
    let mut mws = MultiRhsWorkspace::new(n, WIDTH);
    let mut u = u0.clone();
    pcg_solve_multi_with_faults(&k, &f, &mut u, &pre, &opts, &mut mws, &plan).unwrap();

    let want = standalone_solves((&k, &pre, &opts), (&f, &u0), &plan);
    let clean = standalone_solves((&k, &pre, &opts), (&f, &u0), &FaultPlan::default());
    for (j, (want_u, want)) in want.iter().enumerate() {
        let out = &mws.outcomes()[j];
        let got = &u[j * n..(j + 1) * n];
        assert_column("audited SpMV fault", j, got, out, want_u, want);
        if j == hit {
            let s = out.report.stats;
            assert_eq!(out.status, SolveStatus::Replaced);
            assert!(
                s.audits > 0 && s.replacements >= 1 && s.faults_detected == 0,
                "{s:?}"
            );
            assert_ne!(bits(got), bits(&clean[j].0), "the fault did not land");
        }
    }
}

/// Compare every column of a batch (`u`, `mws`) with `want`, its
/// standalone solves from the same guesses. A standalone solve that
/// fails with a non-finite value must leave the column `Breakdown` at the
/// same iteration, with the same iterate.
fn compare_columns(
    what: &str,
    u: &[f64],
    mws: &MultiRhsWorkspace,
    want: &[(Vec<f64>, Result<PcgReport, SparseError>)],
) {
    let n = u.len() / want.len();
    for (j, (want_u, want)) in want.iter().enumerate() {
        let (got, out) = (&u[j * n..(j + 1) * n], &mws.outcomes()[j]);
        match want {
            Err(SparseError::NonFinite { iteration, .. }) => {
                assert_eq!(bits(got), bits(want_u), "{what}, case {j}: solution");
                assert_eq!(out.status, SolveStatus::Breakdown, "{what}, case {j}");
                assert_eq!(out.report.iterations, *iteration, "{what}, case {j}");
            }
            _ => assert_column(what, j, got, out, want_u, want),
        }
    }
}

/// A NaN at element 7 of `target`'s output at each of `iterations` hits
/// column `hit` of the `WIDTH`-column block of `loads`, and the same
/// faults hit its standalone solve. Returns the hit column's outcome.
fn nan_fault_cell(
    what: &str,
    target: FaultTarget,
    (hit, iterations): (usize, &[usize]),
    opts: &PcgOptions,
) -> RhsOutcome {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    par::set_max_threads(1);
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let ssor = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let (f, u0) = loads(&rhs, WIDTH);
    let nan = |&i| fault(hit, target, i, 7, FaultKind::NaN);
    let plan = FaultPlan::new(iterations.iter().map(nan).collect());
    let mut mws = MultiRhsWorkspace::new(n, WIDTH);
    let mut u = u0.clone();
    pcg_solve_multi_with_faults(&k, &f, &mut u, &ssor, opts, &mut mws, &plan).unwrap();
    let want = standalone_solves((&k, &ssor, opts), (&f, &u0), &plan);
    compare_columns(what, &u, &mws, &want);
    mws.outcomes()[hit].clone()
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
    let opts = relative_residual_opts();
    let out = nan_fault_cell("NaN SpMV", FaultTarget::Spmv, (2, &[4]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
}

/// A NaN in one column's first msolve: the restart at iteration 0.
#[test]
fn a_nan_in_a_columns_first_msolve_restarts_it_at_iteration_zero() {
    let opts = relative_residual_opts();
    let out = nan_fault_cell("NaN first msolve", FaultTarget::Msolve, (3, &[0]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (1, 1, 0));
}

/// Two faults in one column: a NaN msolve after its iteration 3, and
/// another in the msolve of the restart it triggers, which also follows
/// iteration 3, so the column restarts twice.
#[test]
fn two_faults_in_one_column_restart_it_twice() {
    let opts = relative_residual_opts();
    let out = nan_fault_cell("two NaN msolves", FaultTarget::Msolve, (1, &[3, 3]), &opts);
    let s = out.report.stats;
    assert_eq!(out.status, SolveStatus::Replaced);
    assert_eq!((s.faults_detected, s.replacements, s.fallbacks), (2, 2, 0));
}

/// With no replacement budget the faulted column breaks down with the
/// standalone solve's typed error, beside clean columns.
#[test]
fn a_spent_replacement_budget_breaks_down_one_column_beside_clean_ones() {
    let at = 3;
    let opts = PcgOptions {
        recovery: RecoveryPolicy {
            max_replacements: 0,
            ..RecoveryPolicy::default()
        },
        ..relative_residual_opts()
    };
    let out = nan_fault_cell("no budget", FaultTarget::Msolve, (0, &[at]), &opts);
    assert_eq!(out.status, SolveStatus::Breakdown);
    assert_eq!(out.report.iterations, at);
}

/// A fault plan names its case, so no lane can take another lane's
/// fault: in a 16-case batch, at every lane count and in every run, the
/// NaN SpMV fault of case 4 and the NaN msolve fault of case 11 land on
/// their cases, each then bitwise its standalone faulted solve, and every
/// other case is bitwise its clean solve. Without the `par` feature the
/// pool has one lane only, and only that case runs.
#[test]
fn batched_faults_land_on_their_planned_cases_at_every_lane_count() {
    let _guard = sweep_lock();
    let _restore = Threads::save();
    let (k, colors, rhs) = plate(10);
    let n = k.rows();
    let ssor = MStepSsorPreconditioner::unparametrized(&k, &colors, 2).unwrap();
    let opts = relative_residual_opts();
    let cases = 16;
    let (f, u0) = loads(&rhs, cases);
    let plan = FaultPlan::new(vec![
        fault(4, FaultTarget::Spmv, 3, 7, FaultKind::NaN),
        fault(11, FaultTarget::Msolve, 2, 7, FaultKind::NaN),
    ]);
    let want = standalone_solves((&k, &ssor, &opts), (&f, &u0), &plan);
    let mut mws = MultiRhsWorkspace::new(n, cases);
    for t in 1..=8 {
        par::set_max_threads(t);
        if par::max_threads() != t {
            break;
        }
        for run in 0..20 {
            let mut u = u0.clone();
            pcg_solve_multi_with_faults(&k, &f, &mut u, &ssor, &opts, &mut mws, &plan).unwrap();
            let what = format!("{t} lanes, run {run}");
            compare_columns(&what, &u, &mws, &want);
            for j in [4, 11] {
                let out = &mws.outcomes()[j];
                let s = out.report.stats;
                assert_eq!(out.status, SolveStatus::Replaced, "{what}, case {j}");
                assert_eq!(
                    (s.faults_detected, s.replacements, s.fallbacks),
                    (1, 1, 0),
                    "{what}, case {j}"
                );
            }
        }
    }
}
