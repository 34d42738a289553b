//! Finite Element Machine clock of Algorithm 3 (§3.2, Table 3).
//!
//! A finished solve — its iteration and preconditioner-step counts — is
//! priced phase by phase in lock step; each phase's time is the maximum
//! over processors (the paper's processors synchronize at communications
//! and at the flag network). Per CG iteration:
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
use mspcg_fem::plate::{AssembledProblem, OrderedProblem};

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

/// A solve priced on the simulated Finite Element Machine.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    /// Processor count.
    pub processors: usize,
    /// The solve's iteration count (Table 3 column `I`).
    pub iterations: usize,
    /// Modelled wall time in seconds.
    pub seconds: f64,
    /// Phase breakdown.
    pub breakdown: ArrayBreakdown,
}

impl ArrayReport {
    /// Speedup relative to a baseline (usually the 1-processor run).
    pub fn speedup_over(&self, baseline: &ArrayReport) -> f64 {
        baseline.seconds / self.seconds
    }
}

/// Price a finished m-step SSOR PCG solve of the plate — `iterations`
/// outer iterations and `precond_steps` preconditioner steps in all (the
/// solve's `PcgStats::precond_steps`; 0 for plain CG) — on the Finite
/// Element Machine under a node-to-processor `assignment`: the
/// balanced strips of the paper's Fig. 5
/// ([`ProcessorAssignment::strips`]) or the 2-D blocks of Fig. 3
/// ([`ProcessorAssignment::blocks`]).
pub fn run_fem_machine(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    iterations: usize,
    precond_steps: usize,
    assignment: &ProcessorAssignment,
    params: &ArrayMachineParams,
) -> ArrayReport {
    let p = assignment.num_processors();

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

    let iters = iterations as f64;
    let steps = precond_steps as f64;
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

    ArrayReport {
        processors: p,
        iterations,
        seconds: breakdown.total(),
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_solve::{counters, plate};

    /// Price the α = 1, m-step solve of the plate on `p` strips.
    fn priced(
        asm: &AssembledProblem,
        ord: &OrderedProblem,
        m: usize,
        p: usize,
        params: &ArrayMachineParams,
    ) -> ArrayReport {
        let (iterations, steps) = counters(ord, m);
        let strips = ProcessorAssignment::strips(asm, p).unwrap();
        run_fem_machine(asm, ord, iterations, steps, &strips, params)
    }

    #[test]
    fn speedups_are_in_the_papers_band() {
        // Table 3: speedup ≈ 1.8–1.95 on 2 processors, ≈ 3.0–3.7 on 5.
        let (asm, ord) = plate(6);
        let params = ArrayMachineParams::default();
        for m in [0usize, 1, 2] {
            let r1 = priced(&asm, &ord, m, 1, &params);
            let s2 = priced(&asm, &ord, m, 2, &params).speedup_over(&r1);
            let s5 = priced(&asm, &ord, m, 5, &params).speedup_over(&r1);
            assert!(s2 > 1.5 && s2 < 2.0, "m = {m}: speedup(2) = {s2}");
            assert!(s5 > 2.5 && s5 < 5.0, "m = {m}: speedup(5) = {s5}");
        }
    }

    #[test]
    fn preconditioner_comm_dominates_cg_overhead() {
        // Paper observation (3): for multi-step runs the preconditioner
        // communication exceeds the inner-product overhead.
        let (asm, ord) = plate(6);
        let r = priced(&asm, &ord, 3, 5, &ArrayMachineParams::default());
        assert!(
            r.breakdown.precond_comm > r.breakdown.reductions + r.breakdown.flag,
            "{:?}",
            r.breakdown
        );
    }

    #[test]
    fn single_processor_has_no_overhead() {
        let (asm, ord) = plate(6);
        let r = priced(&asm, &ord, 2, 1, &ArrayMachineParams::default());
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
        let (asm, ord) = plate(6);
        let params = ArrayMachineParams::default();
        let speedup = |m: usize| {
            let r1 = priced(&asm, &ord, m, 1, &params);
            priced(&asm, &ord, m, 2, &params).speedup_over(&r1)
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
        let (asm, ord) = plate(16);
        let (iterations, steps) = counters(&ord, 2);
        let blocks = ProcessorAssignment::blocks(&asm, 3, 3).unwrap();
        let strips = ProcessorAssignment::strips(&asm, 9).unwrap();
        let run = |params: &ArrayMachineParams, assignment: &ProcessorAssignment| {
            run_fem_machine(&asm, &ord, iterations, steps, assignment, params)
        };
        // Startup-dominated links (the 1983 defaults): strips win — fewer,
        // larger messages.
        let startup_heavy = ArrayMachineParams::default();
        let s1 = run(&startup_heavy, &strips);
        let b1 = run(&startup_heavy, &blocks);
        assert!(s1.breakdown.precond_comm <= b1.breakdown.precond_comm);
        // Bandwidth-dominated links: blocks win — shorter borders.
        let bandwidth_heavy = ArrayMachineParams {
            comm_startup: 1e-5,
            comm_per_word: 2e-3,
            ..Default::default()
        };
        let s2 = run(&bandwidth_heavy, &strips);
        let b2 = run(&bandwidth_heavy, &blocks);
        assert!(
            b2.breakdown.precond_comm < s2.breakdown.precond_comm,
            "blocks {:?} vs strips {:?}",
            b2.breakdown,
            s2.breakdown
        );
    }
}
