//! The three workloads: how each builds its system from source, what one
//! timed call solves, and how every answer is checked. Everything here
//! reaches the solver stack through its public API only.

use crate::inputs::field;
use crate::trace::{Tally, TimedOp, TimedPrecond};
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{pcg_try_solve_into, PcgOptions, PcgStats, PcgWorkspace, StoppingCriterion};
use mspcg::core::{
    auto_preconditioner, AutoPreconditioner, MStepSsorPreconditioner, Preconditioner,
};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg::sparse::{
    tuning, CsrMatrix, Partition, PcgVariant, Permutation, PrecondKind, SparseError, SparseOp,
};
use std::sync::Arc;
use std::time::Instant;

/// Steps of the m-step SSOR, and the `m` the `Auto` preconditioner choice
/// starts from.
const M: usize = 2;
/// Stopping tolerance of every workload (on ‖Δu‖∞ for the SPMD plate, on
/// the relative residual elsewhere).
const TOL: f64 = 1e-8;
/// Table-3 plate: `a × a` nodes, 19 800 unknowns, 235 214 entries, 6
/// colors.
const PLATE_A: usize = 100;
/// The batch workload's plate: 12 686 stored entries, under the
/// 16 384-entry threshold, so `pcg_solve_multi` runs right-hand sides in
/// parallel lanes with serial kernels.
const LOADCASE_A: usize = 24;
/// Right-hand sides per `plate-loadcases` call.
pub const LOAD_CASES: usize = 128;
/// The thread budget of every run: pool threads and SPMD workers.
pub const THREADS: usize = 2;
/// Bound on `‖u_spmd − u_pool‖∞ / ‖u_pool‖∞` between the SPMD solve and
/// the pool-path solve of the same configuration. Both run the same
/// recurrence with reductions summed in different orders, so they agree
/// to rounding (about 1e-14 on the a = 100 plate), not bitwise.
pub const SPMD_CROSS_CHECK: f64 = 1e-10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SsorSpmd,
    Defaults,
    Loadcases,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SsorSpmd, Workload::Defaults, Workload::Loadcases];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SsorSpmd => "plate-ssor-spmd",
            Workload::Defaults => "plate-auto",
            Workload::Loadcases => "plate-loadcases",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The accuracy every answer must reach: a bound on the true
    /// `‖f − K·u‖₂ / ‖f‖₂`, recomputed by the benchmark. `BENCHMARK.json`
    /// states each in its workload's `why`. The SPMD plate stops on the
    /// paper's ‖Δu‖∞ test, which is not an accuracy by itself; its bound
    /// is what that stop reaches on this plate, with margin.
    pub fn accuracy(self) -> f64 {
        match self {
            Workload::SsorSpmd => 1e-8,
            Workload::Defaults | Workload::Loadcases => 2e-8,
        }
    }

    /// Right-hand sides one timed call solves.
    pub fn rhs_per_call(self) -> usize {
        match self {
            Workload::Loadcases => LOAD_CASES,
            _ => 1,
        }
    }

    /// Options of the pool-path solve: the workload's own for `plate-auto`
    /// and the load cases, the SPMD configuration's twin for the SPMD
    /// plate.
    fn pcg_options(self) -> PcgOptions {
        match self {
            Workload::SsorSpmd => PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::DisplacementChange,
                variant: PcgVariant::Classic,
                ..PcgOptions::default()
            },
            Workload::Defaults | Workload::Loadcases => PcgOptions {
                tol: TOL,
                criterion: StoppingCriterion::RelativeResidual,
                ..PcgOptions::default()
            },
        }
    }
}

/// Options of the SPMD solve, with `threads` workers.
pub fn spmd_options(threads: usize) -> ParallelSolverOptions {
    ParallelSolverOptions {
        threads,
        tol: TOL,
        variant: PcgVariant::Classic,
        ..ParallelSolverOptions::default()
    }
}

/// What a workload solves with.
pub enum Solver {
    Spmd(ParallelMStepPcg),
    Ssor(MStepSsorPreconditioner),
    Auto(AutoPreconditioner<CsrMatrix>),
}

/// A built system in the solver's (multicolor) ordering.
pub struct System {
    pub matrix: Arc<CsrMatrix>,
    pub colors: Arc<Partition>,
    /// Maps the natural numbering, in which inputs are generated, to the
    /// solver's ordering.
    perm: Permutation,
    pub solver: Solver,
}

/// Seconds each set-up stage took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `fem`: assembly of the matrix.
    pub assemble: f64,
    /// `coloring`: multicolor ordering and the permuted matrix.
    pub order: f64,
    /// The preconditioner or SPMD solver, Lanczos included.
    pub build: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.assemble + self.order + self.build
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Assemble, order and build the workload's system from scratch.
pub fn build(w: Workload) -> Result<(System, SetupTimes), SparseError> {
    let a = if w == Workload::Loadcases {
        LOADCASE_A
    } else {
        PLATE_A
    };
    let (asm, assemble) = timed(|| PlaneStressProblem::unit_square(a).assemble());
    let (ord, order) = timed(|| asm?.multicolor());
    let ord = ord?;
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let (solver, build) = timed(|| -> Result<Solver, SparseError> {
        Ok(match w {
            Workload::SsorSpmd => Solver::Spmd(ParallelMStepPcg::shared(
                &*matrix,
                Arc::clone(&colors),
                vec![1.0; M],
            )?),
            Workload::Loadcases => Solver::Ssor(MStepSsorPreconditioner::unparametrized_shared(
                Arc::clone(&matrix),
                Arc::clone(&colors),
                M,
            )?),
            Workload::Defaults => Solver::Auto(auto_preconditioner(
                &*matrix,
                &colors,
                M,
                PrecondKind::Auto,
            )?),
        })
    });
    let system = System {
        matrix,
        colors,
        perm: ord.permutation,
        solver: solver?,
    };
    Ok((
        system,
        SetupTimes {
            assemble,
            order,
            build,
        },
    ))
}

impl System {
    pub fn n(&self) -> usize {
        self.matrix.rows()
    }

    /// The right-hand sides of call `call`, column after column, in the
    /// solver's ordering: nodal loads on the plate's free dofs, drawn in
    /// the natural numbering.
    pub fn rhs(&self, w: Workload, seed: u64, call: u64) -> Vec<f64> {
        let n = self.n();
        (0..w.rhs_per_call() as u64)
            .flat_map(|case| self.perm.gather(&field(seed, call, case, n)))
            .collect()
    }

    /// True `‖f − K·u‖₂ / ‖f‖₂` of each column, through the public
    /// `SparseOp` of the solved matrix.
    pub fn rel_residuals(&self, f: &[f64], u: &[f64]) -> Vec<f64> {
        let n = self.n();
        let mut ku = vec![0.0; n];
        f.chunks(n)
            .zip(u.chunks(n))
            .map(|(fi, ui)| {
                self.matrix.mul_vec_into(ui, &mut ku);
                let (num, den) = fi.iter().zip(&ku).fold((0.0, 0.0), |(num, den), (fv, kv)| {
                    (num + (fv - kv) * (fv - kv), den + fv * fv)
                });
                (num / den).sqrt()
            })
            .collect()
    }
}

/// Operation counts summed over the right-hand sides of one or more calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub rhs: usize,
    pub iterations: usize,
    pub reduction_phases: usize,
    pub inner_products: usize,
    pub fallbacks: usize,
    pub audits: usize,
    /// Pool path only: SpMV and preconditioner applications.
    pub spmv: usize,
    pub msolve: usize,
    /// SPMD only: spin-barrier and split-barrier crossings.
    pub barrier_crossings: usize,
    pub split_crossings: usize,
    /// SPMD only: the worker count the solver actually ran with.
    pub spmd_threads: usize,
}

impl Counts {
    fn add_stats(&mut self, iterations: usize, s: &PcgStats) {
        self.rhs += 1;
        self.iterations += iterations;
        self.reduction_phases += s.reduction_phases;
        self.inner_products += s.inner_products;
        self.fallbacks += s.fallbacks;
        self.audits += s.audits;
        self.spmv += s.spmv;
        self.msolve += s.precond_applications;
    }

    pub fn add(&mut self, o: &Counts) {
        self.rhs += o.rhs;
        self.iterations += o.iterations;
        self.reduction_phases += o.reduction_phases;
        self.inner_products += o.inner_products;
        self.fallbacks += o.fallbacks;
        self.audits += o.audits;
        self.spmv += o.spmv;
        self.msolve += o.msolve;
        self.barrier_crossings += o.barrier_crossings;
        self.split_crossings += o.split_crossings;
        self.spmd_threads = self.spmd_threads.max(o.spmd_threads);
    }

    /// `x` per iteration.
    pub fn per_iter(&self, x: usize) -> f64 {
        x as f64 / self.iterations.max(1) as f64
    }
}

/// One timed call: its solutions, whether the solver reported success for
/// each right-hand side, and its operation counts.
pub struct CallOutcome {
    pub secs: f64,
    pub u: Vec<f64>,
    pub solver_ok: Vec<bool>,
    pub counts: Counts,
}

/// The SpMV and msolve tallies of a traced call.
#[derive(Default)]
pub struct Tallies {
    pub spmv: Tally,
    pub msolve: Tally,
}

/// A built workload with the scratch its calls reuse.
pub struct Runner {
    pub w: Workload,
    pub sys: System,
    /// The SPMD plate's pool-path twin (same matrix, m, ω and stop); the
    /// workload's own preconditioner elsewhere lives in `sys.solver`.
    twin: Option<MStepSsorPreconditioner>,
    ws: PcgWorkspace,
    mws: MultiRhsWorkspace,
}

impl Runner {
    /// Wrap a built system. The SPMD plate's pool-path twin is built here,
    /// outside the set-up timing: it serves the correctness cross-check
    /// and the traced stand-in split, not the workload.
    pub fn new(w: Workload, sys: System) -> Result<Self, SparseError> {
        let twin = match sys.solver {
            Solver::Spmd(_) => Some(MStepSsorPreconditioner::unparametrized_shared(
                Arc::clone(&sys.matrix),
                Arc::clone(&sys.colors),
                M,
            )?),
            _ => None,
        };
        let n = sys.n();
        Ok(Runner {
            w,
            sys,
            twin,
            ws: PcgWorkspace::new(n),
            mws: MultiRhsWorkspace::new(n, LOAD_CASES),
        })
    }

    /// One call on the workload's own path.
    pub fn call(&mut self, f: &[f64]) -> CallOutcome {
        match &self.sys.solver {
            Solver::Spmd(spmd) => spmd_call(spmd, f, &spmd_options(THREADS)),
            _ => self.pool_call(f, None),
        }
    }

    /// One call on the pool path — the workload's own for `plate-auto` and
    /// the load cases, the twin for the SPMD plate — through the timing
    /// forwarders when `tallies` is given. A call of one column is a
    /// standalone `pcg_try_solve_into`; more columns go to
    /// `pcg_solve_multi`.
    pub fn pool_call(&mut self, f: &[f64], tallies: Option<&Tallies>) -> CallOutcome {
        let Runner {
            w,
            sys,
            twin,
            ws,
            mws,
        } = self;
        let opts = w.pcg_options();
        let k = &*sys.matrix;
        match (&sys.solver, twin.as_ref()) {
            (_, Some(pre)) | (Solver::Ssor(pre), None) => {
                traced_pool_call(k, pre, &opts, f, tallies, ws, mws)
            }
            (Solver::Auto(pre), None) => traced_pool_call(k, pre, &opts, f, tallies, ws, mws),
            (Solver::Spmd(_), None) => unreachable!("the SPMD plate always has a twin"),
        }
    }

    /// The SPMD solver, on the workload that has one.
    pub fn spmd(&self) -> Option<&ParallelMStepPcg> {
        match &self.sys.solver {
            Solver::Spmd(spmd) => Some(spmd),
            _ => None,
        }
    }

    /// Computed bytes of one pool-path msolve (see the module doc of
    /// `main.rs` for the model).
    pub fn msolve_bytes(&self) -> f64 {
        let (n, nnz) = (self.sys.n() as f64, self.sys.matrix.nnz() as f64);
        let ssor =
            |m: usize| m as f64 * ((nnz - n) * 12.0 + 2.0 * (n + 1.0) * 8.0 + 10.0 * n * 8.0);
        match (&self.sys.solver, &self.twin) {
            (_, Some(p)) | (Solver::Ssor(p), None) => ssor(p.m()),
            (Solver::Auto(AutoPreconditioner::MStepSsor(p)), None) => ssor(p.m()),
            (Solver::Auto(AutoPreconditioner::Poly(p)), None) => {
                4.0 * n * 8.0 + p.degree() as f64 * (spmv_bytes(n, nnz) + 7.0 * n * 8.0)
            }
            (Solver::Spmd(_), None) => unreachable!("the SPMD plate always has a twin"),
        }
    }

    /// Threads the pool kernels of one solve run on: the budget for a
    /// matrix at or above the parallel threshold, otherwise 1 (the batch
    /// then spreads right-hand sides over lanes instead).
    pub fn kernel_threads(&self) -> usize {
        if self.sys.matrix.nnz() >= tuning::par_min_nnz() {
            mspcg::sparse::par::max_threads()
        } else {
            1
        }
    }

    /// Concurrent lanes of a multi-column pool call.
    pub fn lanes(&self) -> usize {
        if self.w.rhs_per_call() > 1 && self.kernel_threads() == 1 {
            mspcg::sparse::par::max_threads().min(self.w.rhs_per_call())
        } else {
            1
        }
    }

    /// The preconditioner the pool path resolved to, for the report.
    pub fn pool_precond(&self) -> PrecondKind {
        match (&self.sys.solver, &self.twin) {
            (_, Some(p)) | (Solver::Ssor(p), None) => PrecondKind::MStepSsor { m: p.m() },
            (Solver::Auto(p), None) => p.selected(),
            (Solver::Spmd(_), None) => unreachable!("the SPMD plate always has a twin"),
        }
    }
}

/// Computed bytes of one CSR SpMV: values and 4-byte column indices once,
/// row pointers once, `x` read and `y` written once each.
pub fn spmv_bytes(n: f64, nnz: f64) -> f64 {
    nnz * 12.0 + (n + 1.0) * 8.0 + 2.0 * n * 8.0
}

/// One timed SPMD solve with `opts`.
pub fn spmd_call(spmd: &ParallelMStepPcg, f: &[f64], opts: &ParallelSolverOptions) -> CallOutcome {
    let (res, secs) = timed(|| spmd.solve(f, opts));
    match res {
        Ok(rep) => CallOutcome {
            secs,
            solver_ok: vec![rep.converged],
            counts: Counts {
                rhs: 1,
                iterations: rep.iterations,
                reduction_phases: rep.reduction_phases,
                audits: rep.audits,
                fallbacks: rep.recoveries,
                barrier_crossings: rep.barrier_crossings,
                split_crossings: rep.split_crossings,
                spmd_threads: rep.threads,
                ..Counts::default()
            },
            u: rep.x,
        },
        Err(e) => {
            eprintln!("SPMD solve failed: {e}");
            CallOutcome {
                secs,
                u: vec![0.0; f.len()],
                solver_ok: vec![false],
                counts: Counts {
                    rhs: 1,
                    ..Counts::default()
                },
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_pool_call<P: Preconditioner + Sync>(
    k: &CsrMatrix,
    pre: &P,
    opts: &PcgOptions,
    f: &[f64],
    tallies: Option<&Tallies>,
    ws: &mut PcgWorkspace,
    mws: &mut MultiRhsWorkspace,
) -> CallOutcome {
    match tallies {
        None => pool_solve(k, pre, opts, f, ws, mws),
        Some(t) => pool_solve(
            &TimedOp {
                inner: k,
                tally: &t.spmv,
            },
            &TimedPrecond {
                inner: pre,
                tally: &t.msolve,
            },
            opts,
            f,
            ws,
            mws,
        ),
    }
}

fn pool_solve<A: SparseOp, P: Preconditioner + Sync>(
    k: &A,
    pre: &P,
    opts: &PcgOptions,
    f: &[f64],
    ws: &mut PcgWorkspace,
    mws: &mut MultiRhsWorkspace,
) -> CallOutcome {
    let n = k.rows();
    let mut u = vec![0.0; f.len()];
    let mut counts = Counts::default();
    if f.len() == n {
        let (res, secs) = timed(|| pcg_try_solve_into(k, f, &mut u, pre, opts, ws));
        let solver_ok = match res {
            Ok(rep) => {
                counts.add_stats(rep.iterations, &rep.stats);
                vec![rep.converged]
            }
            Err(e) => {
                eprintln!("pool solve failed: {e}");
                counts.rhs = 1;
                vec![false]
            }
        };
        CallOutcome {
            secs,
            u,
            solver_ok,
            counts,
        }
    } else {
        let (res, secs) = timed(|| pcg_solve_multi(k, f, &mut u, pre, opts, mws));
        let solver_ok = match res {
            Ok(_) => mws
                .outcomes()
                .iter()
                .map(|o| {
                    counts.add_stats(o.report.iterations, &o.report.stats);
                    o.status.is_converged()
                })
                .collect(),
            Err(e) => {
                eprintln!("batch solve failed: {e}");
                counts.rhs = f.len() / n;
                vec![false; f.len() / n]
            }
        };
        CallOutcome {
            secs,
            u,
            solver_ok,
            counts,
        }
    }
}

/// `‖a − b‖∞ / ‖b‖∞`.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    let scale = b.iter().map(|y| y.abs()).fold(0.0, f64::max);
    diff / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The forwarders only observe: a wrapped solve reproduces the
    /// unwrapped solution bitwise (the repository's determinism contract),
    /// for a standalone solve and for a batch whose lanes share the
    /// tallies, and the tallies count what the solver's own counters say.
    #[test]
    fn forwarded_solves_reproduce_unwrapped_solutions_bitwise() {
        let (sys, _) = build(Workload::Loadcases).unwrap();
        let mut r = Runner::new(Workload::Loadcases, sys).unwrap();
        for cols in [1, 8] {
            let f: Vec<f64> = r.sys.rhs(Workload::Loadcases, 5, 1)[..cols * r.sys.n()].to_vec();
            let plain = r.pool_call(&f, None);
            let t = Tallies::default();
            let traced = r.pool_call(&f, Some(&t));
            assert!(plain.solver_ok.iter().all(|&ok| ok));
            let bits = |u: &[f64]| u.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain.u), bits(&traced.u), "{cols} column(s)");
            // The forwarders see every application the solver counts.
            let c = traced.counts;
            assert_eq!(t.msolve.calls() as usize, c.msolve);
            assert_eq!(t.spmv.calls() as usize, c.spmv);
        }
    }

    #[test]
    fn the_spmd_plate_is_checked_against_its_pool_twin() {
        // A small plate of the same configuration: the cross-check bound
        // holds, and the twin really is a different code path (the SPMD
        // solution is not bitwise the pool one).
        let asm = PlaneStressProblem::unit_square(12).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        let matrix = Arc::new(ord.matrix);
        let colors = Arc::new(ord.colors);
        let spmd = ParallelMStepPcg::shared(&*matrix, Arc::clone(&colors), vec![1.0; M]).unwrap();
        let sys = System {
            matrix,
            colors,
            perm: ord.permutation,
            solver: Solver::Spmd(spmd),
        };
        let mut r = Runner::new(Workload::SsorSpmd, sys).unwrap();
        let f = r.sys.rhs(Workload::SsorSpmd, 9, 0);
        let a = r.call(&f);
        let b = r.pool_call(&f, None);
        assert!(a.solver_ok[0] && b.solver_ok[0]);
        assert_eq!(a.counts.spmd_threads, THREADS);
        assert!(max_rel_diff(&a.u, &b.u) < SPMD_CROSS_CHECK);
        assert!(r.sys.rel_residuals(&f, &a.u)[0] < Workload::SsorSpmd.accuracy());
    }
}
