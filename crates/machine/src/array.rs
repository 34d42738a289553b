//! Finite Element Machine execution of Algorithm 3 (§3.2, Table 3).
//!
//! The machine is simulated phase by phase in lock step; each phase's time
//! is the maximum over processors (the paper's processors synchronize at
//! communications and at the flag network). Per CG iteration:
//!
//! 1. **border exchange** of `p` components with neighbour processors
//!    (one packed record per neighbour per direction),
//! 2. **local compute**: the owned rows of `K·p`, local dot partials and
//!    the three vector updates,
//! 3. **global reductions** for α and β — software tree over the links or
//!    the sum/max hardware circuit,
//! 4. **flag network** convergence test.
//!
//! Per preconditioner step (Algorithm 3): local multicolor sweep compute
//! plus the border `r̂` exchanges issued after every second color
//! (`c mod 2 = 0`), forward and backward — six exchanges per step for six
//! colors, which is why the paper's observation (3) finds preconditioner
//! communication, not inner products, dominating the overhead.

use crate::assign::ProcessorAssignment;
use crate::params::ArrayMachineParams;
use mspcg_core::PcgSolution;
use mspcg_fem::plate::{AssembledProblem, OrderedProblem};
use mspcg_sparse::SparseError;

pub use crate::vector::CoefficientChoice;

/// Per-phase time totals of one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArrayBreakdown {
    /// Arithmetic (max over processors, summed over phases).
    pub compute: f64,
    /// Border exchanges of `p` in the CG loop.
    pub cg_comm: f64,
    /// Border exchanges of `r̂` inside the preconditioner.
    pub precond_comm: f64,
    /// Global α/β reductions.
    pub reductions: f64,
    /// Flag-network convergence tests.
    pub flag: f64,
}

impl ArrayBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.cg_comm + self.precond_comm + self.reductions + self.flag
    }

    /// Overhead fraction: everything that is not arithmetic.
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (t - self.compute) / t
        }
    }
}

/// Result of one simulated Finite Element Machine run.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    /// Processor count.
    pub processors: usize,
    /// m (0 = plain CG).
    pub m: usize,
    /// Parametrized coefficients?
    pub parametrized: bool,
    /// Exact iteration count (identical across processor counts — the
    /// algorithm is deterministic; Table 3 shows the same property).
    pub iterations: usize,
    /// Modelled wall time in seconds.
    pub seconds: f64,
    /// Phase breakdown.
    pub breakdown: ArrayBreakdown,
    /// Solver output.
    pub solution: PcgSolution,
}

impl ArrayReport {
    /// Speedup relative to a baseline (usually the 1-processor run).
    pub fn speedup_over(&self, baseline: &ArrayReport) -> f64 {
        baseline.seconds / self.seconds
    }
}

/// Simulate the m-step SSOR PCG on `p` processors of the Finite Element
/// Machine, with the balanced-strips node assignment (the paper's Fig. 5
/// configuration for the 6×6 plate).
///
/// # Errors
/// Propagates solver, preconditioner and assignment construction errors.
pub fn run_fem_machine(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    m: usize,
    choice: CoefficientChoice,
    p: usize,
    params: &ArrayMachineParams,
    tol: f64,
) -> Result<ArrayReport, SparseError> {
    let assignment = ProcessorAssignment::strips(asm, p)?;
    run_fem_machine_assigned(asm, ord, m, choice, &assignment, params, tol)
}

/// Simulate with an explicit node-to-processor assignment (e.g. the 2-D
/// block layout of Fig. 3, built with [`ProcessorAssignment::blocks`]).
///
/// # Errors
/// Propagates solver and preconditioner construction errors.
pub fn run_fem_machine_assigned(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    m: usize,
    choice: CoefficientChoice,
    assignment: &ProcessorAssignment,
    params: &ArrayMachineParams,
    tol: f64,
) -> Result<ArrayReport, SparseError> {
    let p = assignment.num_processors();
    let solution = choice.solve(ord, m, tol)?;

    // ---- per-processor structural counts ---------------------------------
    // Equations and stored nonzeros owned by each processor (from the
    // node-major reduced matrix; ownership by node).
    let mut eqs = vec![0usize; p];
    let mut nnz = vec![0usize; p];
    for q in 0..p {
        for node in assignment.nodes_of(q) {
            for dof in 0..2 {
                if let Some(row) = asm.free_map.full_to_reduced(2 * node + dof) {
                    eqs[q] += 1;
                    nnz[q] += asm.matrix.row_nnz(row);
                }
            }
        }
    }

    // ---- phase times (max over processors) --------------------------------
    let ft = params.flop_time;
    // CG compute: SpMV (2 flops/nonzero) + 2 dot partials (2 flops/eq each)
    // + 3 vector updates (2 flops/eq each).
    let cg_compute = (0..p)
        .map(|q| (2 * nnz[q] + 4 * eqs[q] + 6 * eqs[q]) as f64 * ft)
        .fold(0.0, f64::max);
    // Border exchange of p: one packed send + one receive per neighbour.
    let cg_comm_per_iter = (0..p)
        .map(|q| {
            assignment
                .neighbor_procs(q)
                .into_iter()
                .map(|o| {
                    let out_words = 2 * assignment.border_nodes(q, o).len();
                    let in_words = 2 * assignment.border_nodes(o, q).len();
                    params.message(out_words) + params.message(in_words)
                })
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let reductions_per_iter = 2.0 * params.global_sum(p);
    let flag_per_iter = if p > 1 { params.flag_sync } else { 0.0 };

    // Preconditioner step: one multicolor SOR sweep of compute (2 flops per
    // nonzero via Conrad–Wallach + divide & adds per equation, performed in
    // both passes) ...
    let precond_compute_per_step = (0..p)
        .map(|q| (2 * nnz[q] + 6 * eqs[q]) as f64 * ft)
        .fold(0.0, f64::max);
    // ... plus border r̂ exchanges after every second color, forward and
    // backward: 6 exchanges per step for 6 colors, each carrying one
    // node-color's border values (≈ border/3 nodes × 2 dofs).
    let colors = ord.colors.num_blocks();
    let exchanges_per_step = colors; // c mod 2 == 0 in both passes
    let precond_comm_per_step = (0..p)
        .map(|q| {
            assignment
                .neighbor_procs(q)
                .into_iter()
                .map(|o| {
                    let border = assignment.border_nodes(q, o).len();
                    let border_in = assignment.border_nodes(o, q).len();
                    let words_out = (2 * border).div_ceil(3);
                    let words_in = (2 * border_in).div_ceil(3);
                    exchanges_per_step as f64
                        * (params.message(words_out) + params.message(words_in))
                })
                .sum::<f64>()
        })
        .fold(0.0, f64::max);

    let iters = solution.iterations as f64;
    let steps = solution.stats.precond_steps as f64;
    let breakdown = ArrayBreakdown {
        compute: iters * cg_compute + steps * precond_compute_per_step,
        cg_comm: if p > 1 { iters * cg_comm_per_iter } else { 0.0 },
        precond_comm: if p > 1 {
            steps * precond_comm_per_step
        } else {
            0.0
        },
        reductions: iters * reductions_per_iter,
        flag: iters * flag_per_iter,
    };

    Ok(ArrayReport {
        processors: p,
        m,
        parametrized: matches!(choice, CoefficientChoice::Parametrized) && m > 0,
        iterations: solution.iterations,
        seconds: breakdown.total(),
        breakdown,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_fem::plate::PlaneStressProblem;

    fn plate6() -> (AssembledProblem, OrderedProblem) {
        let asm = PlaneStressProblem::unit_square(6).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        (asm, ord)
    }

    #[test]
    fn iteration_count_is_processor_independent() {
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        let runs: Vec<ArrayReport> = [1usize, 2, 5]
            .iter()
            .map(|&p| {
                run_fem_machine(
                    &asm,
                    &ord,
                    2,
                    CoefficientChoice::Unparametrized,
                    p,
                    &params,
                    1e-6,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(runs[0].iterations, runs[1].iterations);
        assert_eq!(runs[1].iterations, runs[2].iterations);
    }

    #[test]
    fn speedups_are_in_the_papers_band() {
        // Table 3: speedup ≈ 1.8–1.95 on 2 processors, ≈ 3.0–3.7 on 5.
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        for m in [0usize, 1, 2] {
            let r1 = run_fem_machine(
                &asm,
                &ord,
                m,
                CoefficientChoice::Unparametrized,
                1,
                &params,
                1e-6,
            )
            .unwrap();
            let r2 = run_fem_machine(
                &asm,
                &ord,
                m,
                CoefficientChoice::Unparametrized,
                2,
                &params,
                1e-6,
            )
            .unwrap();
            let r5 = run_fem_machine(
                &asm,
                &ord,
                m,
                CoefficientChoice::Unparametrized,
                5,
                &params,
                1e-6,
            )
            .unwrap();
            let s2 = r2.speedup_over(&r1);
            let s5 = r5.speedup_over(&r1);
            assert!(s2 > 1.5 && s2 < 2.0, "m = {m}: speedup(2) = {s2}");
            assert!(s5 > 2.5 && s5 < 5.0, "m = {m}: speedup(5) = {s5}");
        }
    }

    #[test]
    fn preconditioner_comm_dominates_cg_overhead() {
        // Paper observation (3): for multi-step runs the preconditioner
        // communication exceeds the inner-product overhead.
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        let r = run_fem_machine(
            &asm,
            &ord,
            3,
            CoefficientChoice::Unparametrized,
            5,
            &params,
            1e-6,
        )
        .unwrap();
        assert!(
            r.breakdown.precond_comm > r.breakdown.reductions + r.breakdown.flag,
            "{:?}",
            r.breakdown
        );
    }

    #[test]
    fn single_processor_has_no_overhead() {
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        let r = run_fem_machine(
            &asm,
            &ord,
            2,
            CoefficientChoice::Parametrized,
            1,
            &params,
            1e-6,
        )
        .unwrap();
        assert_eq!(r.breakdown.cg_comm, 0.0);
        assert_eq!(r.breakdown.precond_comm, 0.0);
        assert_eq!(r.breakdown.reductions, 0.0);
        assert_eq!(r.breakdown.flag, 0.0);
        assert!(r.breakdown.overhead_fraction() < 1e-12);
    }

    #[test]
    fn speedup_decreases_with_m() {
        // Paper Table 3: speedup drifts down as m grows (communication of
        // the preconditioner).
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        let speedup = |m: usize| {
            let r1 = run_fem_machine(
                &asm,
                &ord,
                m,
                CoefficientChoice::Unparametrized,
                1,
                &params,
                1e-6,
            )
            .unwrap();
            let r2 = run_fem_machine(
                &asm,
                &ord,
                m,
                CoefficientChoice::Unparametrized,
                2,
                &params,
                1e-6,
            )
            .unwrap();
            r2.speedup_over(&r1)
        };
        let s0 = speedup(0);
        let s4 = speedup(4);
        assert!(s4 <= s0 + 1e-9, "speedup(m=4) = {s4} > speedup(m=0) = {s0}");
    }

    #[test]
    fn block_vs_strip_communication_tradeoff() {
        // Fig. 3's point is about border *volume*: 2-D blocks move fewer
        // words than 1-D strips, but they talk to more neighbours (up to 6
        // links vs 2). Which layout wins therefore depends on the
        // startup/bandwidth ratio of the links — measure both regimes.
        let asm = PlaneStressProblem::unit_square(16).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        let blocks_assign = ProcessorAssignment::blocks(&asm, 3, 3).unwrap();
        let run = |params: &ArrayMachineParams, blocks: bool| {
            if blocks {
                run_fem_machine_assigned(
                    &asm,
                    &ord,
                    2,
                    CoefficientChoice::Unparametrized,
                    &blocks_assign,
                    params,
                    1e-6,
                )
                .unwrap()
            } else {
                run_fem_machine(
                    &asm,
                    &ord,
                    2,
                    CoefficientChoice::Unparametrized,
                    9,
                    params,
                    1e-6,
                )
                .unwrap()
            }
        };
        // Startup-dominated links (the 1983 defaults): strips win — fewer,
        // larger messages.
        let startup_heavy = ArrayMachineParams::default();
        let s1 = run(&startup_heavy, false);
        let b1 = run(&startup_heavy, true);
        assert_eq!(s1.iterations, b1.iterations);
        assert!(s1.breakdown.precond_comm <= b1.breakdown.precond_comm);
        // Bandwidth-dominated links: blocks win — shorter borders.
        let bandwidth_heavy = ArrayMachineParams {
            comm_startup: 1e-5,
            comm_per_word: 2e-3,
            ..Default::default()
        };
        let s2 = run(&bandwidth_heavy, false);
        let b2 = run(&bandwidth_heavy, true);
        assert!(
            b2.breakdown.precond_comm < s2.breakdown.precond_comm,
            "blocks {:?} vs strips {:?}",
            b2.breakdown,
            s2.breakdown
        );
    }

    #[test]
    fn solution_matches_direct_solve() {
        let (asm, ord) = plate6();
        let params = ArrayMachineParams::default();
        let r = run_fem_machine(
            &asm,
            &ord,
            2,
            CoefficientChoice::Parametrized,
            5,
            &params,
            1e-8,
        )
        .unwrap();
        let exact = ord.matrix.to_dense().cholesky().unwrap().solve(&ord.rhs);
        for (u, v) in r.solution.x.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-5);
        }
    }
}
