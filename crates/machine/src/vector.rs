//! CYBER 203/205 clock of the m-step SSOR PCG (§3.1, Table 2).
//!
//! The simulator prices a finished solve of the color-ordered system —
//! its iteration and preconditioner-step counts — analytically from the
//! matrix structure:
//!
//! * `K·p` is performed **by diagonals** (Madsen–Rodrigue–Karush): one
//!   fused multiply–add vector instruction per occupied diagonal of the
//!   color-blocked matrix (structure (3.2)),
//! * each preconditioner step touches every off-diagonal *block* diagonal
//!   once (Conrad–Wallach) plus per-color divides and adds,
//! * the two inner products per iteration pay the recursive-halving sum
//!   phase — "considerably slower than the other vector operations",
//! * vectors are stored by color **including the constrained nodes**
//!   (control-vector masking), so vector lengths are the padded per-color
//!   node counts, matching the `v` column of Table 2.

use crate::params::VectorMachineParams;
use mspcg_fem::plate::{AssembledProblem, OrderedProblem};
use mspcg_sparse::{CsrMatrix, Partition};

/// Timing breakdown of one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CyberBreakdown {
    /// `K·p` products by diagonals.
    pub spmv: f64,
    /// Inner products (the α and β reductions).
    pub dots: f64,
    /// AXPY-style vector updates (u, r, p).
    pub updates: f64,
    /// Convergence test (vector subtract/abs + max reduction).
    pub convergence: f64,
    /// m-step SSOR preconditioner sweeps.
    pub preconditioner: f64,
}

impl CyberBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.spmv + self.dots + self.updates + self.convergence + self.preconditioner
    }
}

/// A solve priced on the simulated CYBER.
#[derive(Debug, Clone)]
pub struct CyberReport {
    /// The solve's iteration count (Table 2 column `I`).
    pub iterations: usize,
    /// Modelled wall time in seconds (Table 2 column `T`).
    pub seconds: f64,
    /// Maximum vector length of the padded color layout (column `v`).
    pub max_vector_length: usize,
    /// Phase breakdown.
    pub breakdown: CyberBreakdown,
    /// Cost-model constants: `A` = seconds per outer CG iteration.
    pub a_per_iteration: f64,
    /// `B` = seconds per preconditioner step.
    pub b_per_step: f64,
}

/// Structural analysis of the color-blocked matrix used by the clock
/// model: occupied diagonals of the full matrix and of each off-diagonal
/// block.
#[derive(Debug, Clone)]
pub struct BlockDiagonalStructure {
    /// Occupied diagonal count of the full color-blocked matrix.
    pub full_matrix_diagonals: usize,
    /// Per (block-row, block-col) pair, the number of occupied *local*
    /// diagonals of that block (0 when the block is empty).
    pub block_diagonals: Vec<Vec<usize>>,
    /// Block sizes.
    pub block_sizes: Vec<usize>,
}

impl BlockDiagonalStructure {
    /// Analyze a color-blocked matrix.
    pub fn analyze(a: &CsrMatrix, colors: &Partition) -> Self {
        let nb = colors.num_blocks();
        let full = a.diagonal_offsets().len();
        let mut block_diagonals = vec![vec![0usize; nb]; nb];
        let offsets = colors.offsets();
        for (bi, row_range) in colors.iter().enumerate() {
            let mut sets: Vec<std::collections::BTreeSet<isize>> =
                vec![std::collections::BTreeSet::new(); nb];
            for i in row_range.clone() {
                let li = (i - offsets[bi]) as isize;
                for (j, _) in a.row_entries(i) {
                    let bj = colors.block_of(j);
                    let lj = (j - offsets[bj]) as isize;
                    sets[bj].insert(lj - li);
                }
            }
            for (bj, set) in sets.iter().enumerate() {
                block_diagonals[bi][bj] = set.len();
            }
        }
        BlockDiagonalStructure {
            full_matrix_diagonals: full,
            block_diagonals,
            block_sizes: (0..nb).map(|b| colors.block_len(b)).collect(),
        }
    }
}

/// Price a finished m-step SSOR PCG solve of the plate on the simulated
/// CYBER: `iterations` outer iterations and `precond_steps`
/// preconditioner steps in all (the solve's `PcgStats::precond_steps`;
/// 0 for plain CG). The clock constants `A` and `B` do not depend on
/// either count, so zero counts read them without a solve.
///
/// Padded vector lengths come from `asm` (constrained nodes included in
/// the layout); the block structure from the reduced ordered system
/// `ord` the solve ran on.
pub fn run_cyber_pcg(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    iterations: usize,
    precond_steps: usize,
    params: &VectorMachineParams,
) -> CyberReport {
    let structure = BlockDiagonalStructure::analyze(&ord.matrix, &ord.colors);
    // Padded (control-vector) lengths: constrained nodes are stored too.
    let padded_blocks = asm.cyber_color_lengths();
    let n_padded: usize = padded_blocks.iter().sum();
    let max_len = padded_blocks.iter().copied().max().unwrap_or(0);

    // K·p by diagonals of the full blocked matrix: one fused multiply-add
    // per occupied diagonal; each runs at (roughly) full padded length.
    let spmv_time = structure.full_matrix_diagonals as f64 * params.vec_op(n_padded);
    // Two inner products per iteration at full padded length.
    let dots_time = 2.0 * params.dot(n_padded);
    // Vector updates: u += αp, r −= αKp, p = r̂ + βp.
    let updates_time = 3.0 * params.vec_op(n_padded);
    // Convergence: fused |Δu| + max reduction.
    let convergence_time = params.max_reduction(n_padded);
    let a_per_iteration = spmv_time + dots_time + updates_time + convergence_time;

    // One preconditioner step: every off-diagonal block diagonal once
    // (Conrad–Wallach), plus per color a divide and two adds at padded
    // block length (forward + backward ⇒ ~2(C−1)+1 block updates; charge
    // 2 per color for simplicity and one scalar loop per block).
    let mut b_per_step = 0.0;
    for (bi, row) in structure.block_diagonals.iter().enumerate() {
        for (bj, &d) in row.iter().enumerate() {
            if bi != bj {
                let len = padded_blocks[bi.min(padded_blocks.len() - 1)];
                b_per_step += d as f64 * params.vec_op(len);
            }
        }
    }
    for &len in &padded_blocks {
        // divide + two adds, twice per step (forward and backward pass).
        b_per_step += 2.0 * 3.0 * params.vec_op(len);
        b_per_step += params.scalar(2);
    }

    let iters = iterations as f64;
    let breakdown = CyberBreakdown {
        spmv: iters * spmv_time,
        dots: iters * dots_time,
        updates: iters * updates_time,
        convergence: iters * convergence_time,
        preconditioner: precond_steps as f64 * b_per_step,
    };

    CyberReport {
        iterations,
        seconds: breakdown.total(),
        max_vector_length: max_len,
        breakdown,
        a_per_iteration,
        b_per_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_solve::{counters, plate};

    #[test]
    fn blocked_matrix_has_bounded_diagonal_count() {
        // The 6-color block structure keeps the diagonal count small and
        // n-independent (structure (3.2) is what makes storage by diagonals
        // viable).
        let (_, ord1) = plate(6);
        let (_, ord2) = plate(9);
        let s1 = BlockDiagonalStructure::analyze(&ord1.matrix, &ord1.colors);
        let s2 = BlockDiagonalStructure::analyze(&ord2.matrix, &ord2.colors);
        assert!(s2.full_matrix_diagonals <= 3 * s1.full_matrix_diagonals);
        assert!(s1.full_matrix_diagonals < 200);
    }

    #[test]
    fn preconditioning_reduces_iterations_and_adds_precond_time() {
        let (asm, ord) = plate(8);
        let params = VectorMachineParams::default();
        let price = |m: usize| {
            let (iterations, steps) = counters(&ord, m);
            run_cyber_pcg(&asm, &ord, iterations, steps, &params)
        };
        let (cg, m1) = (price(0), price(1));
        assert!(m1.iterations < cg.iterations);
        assert_eq!(cg.breakdown.preconditioner, 0.0);
        assert!(m1.breakdown.preconditioner > 0.0);
    }

    #[test]
    fn max_vector_length_matches_formula() {
        let (asm, ord) = plate(9);
        let r = run_cyber_pcg(&asm, &ord, 0, 0, &VectorMachineParams::default());
        assert_eq!(r.max_vector_length, (9 * 9usize).div_ceil(3));
    }

    #[test]
    fn cost_constants_are_positive_and_consistent() {
        let (asm, ord) = plate(6);
        let (iterations, steps) = counters(&ord, 3);
        let r = run_cyber_pcg(
            &asm,
            &ord,
            iterations,
            steps,
            &VectorMachineParams::default(),
        );
        assert!(r.a_per_iteration > 0.0 && r.b_per_step > 0.0);
        let predicted = iterations as f64 * r.a_per_iteration + steps as f64 * r.b_per_step;
        assert!((predicted - r.seconds).abs() / r.seconds < 1e-9);
    }
}
