//! # mspcg-machine
//!
//! Deterministic clock models of the two 1983 target machines, standing
//! in for hardware we cannot run:
//!
//! * [`vector`] — the **CDC CYBER 203/205** (§3.1): a pipeline vector
//!   processor where every vector instruction costs
//!   `startup + n·per_element` cycles. The model is calibrated to the
//!   efficiency curve quoted in the paper (≈90 % at n = 1000, ≈50 % at
//!   n = 100, ≈10 % at n = 10) and charges inner products their infamous
//!   partial-sum phase. Sparse products run *by diagonals*
//!   (Madsen–Rodrigue–Karush) on the color-block structure (3.2), with the
//!   control-vector (bit-mask) trick for constrained nodes, which pads
//!   vectors to contiguous full-color length.
//! * [`mod@array`] — **NASA's Finite Element Machine** (§3.2): an MIMD array
//!   of microprocessors with eight nearest-neighbour links, a global flag
//!   network for convergence tests, and an optional sum/max circuit for
//!   O(log P) global reductions. Prices Algorithm 3 phase by phase with
//!   per-processor arithmetic/communication accounting.
//!
//! Both simulators price a solve the caller ran with the real solver from
//! `mspcg-core`: they take its iteration and preconditioner-step counts
//! and model only the clock, so one solve of a table row is priced on
//! every machine and processor count. The iteration counts of Tables 2
//! and 3 are therefore real, and the timing columns are reproduced in
//! *shape* (who wins, where the optimum m sits), not in absolute 1983
//! seconds.

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod array;
pub mod assign;
pub mod params;
pub mod vector;

pub use array::{run_fem_machine, ArrayReport};
pub use assign::ProcessorAssignment;
pub use params::{ArrayMachineParams, VectorMachineParams};
pub use vector::{run_cyber_pcg, CyberReport};

/// The real solves the simulators' tests price.
#[cfg(test)]
mod test_solve {
    use mspcg_core::{cg_solve, pcg_solve, MStepSsorPreconditioner, PcgOptions};
    use mspcg_fem::plate::{AssembledProblem, OrderedProblem, PlaneStressProblem};

    /// The unit-square plate with `a` rows of nodes, assembled and
    /// color-ordered.
    pub fn plate(a: usize) -> (AssembledProblem, OrderedProblem) {
        let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        (asm, ord)
    }

    /// `(iterations, preconditioner steps)` of the α = 1, m-step SSOR PCG
    /// (plain CG at `m = 0`) on `ord`, stopping at ‖Δu‖∞ < 1e-6.
    pub fn counters(ord: &OrderedProblem, m: usize) -> (usize, usize) {
        let (a, f, opts) = (&ord.matrix, &ord.rhs, PcgOptions::default());
        let sol = if m == 0 {
            cg_solve(a, f, &opts)
        } else {
            let pre = MStepSsorPreconditioner::unparametrized(a, &ord.colors, m).unwrap();
            pcg_solve(a, f, &pre, &opts)
        }
        .unwrap();
        (sol.iterations, sol.stats.precond_steps)
    }
}
