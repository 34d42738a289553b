//! CYBER 203/205 execution of the m-step SSOR PCG (§3.1, Table 2).
//!
//! The simulator runs the *real* solver on the color-ordered system for
//! exact iteration counts and then charges the pipeline clock analytically
//! from the matrix structure:
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
use mspcg_core::{
    cg_solve, pcg_solve, MStepSsorPreconditioner, PcgOptions, PcgSolution, StoppingCriterion,
};
use mspcg_fem::plate::{AssembledProblem, OrderedProblem};
use mspcg_sparse::{CsrMatrix, DiaMatrix, Partition, SparseError};

/// Which coefficient set to run (Table 2 rows `m` vs `mP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoefficientChoice {
    /// `αᵢ = 1` (rows `1, 2, 3, 4` of Table 2).
    Unparametrized,
    /// Least-squares parametrized (rows `2P … 10P`).
    Parametrized,
}

impl CoefficientChoice {
    /// The solve both simulators time: plain CG at `m = 0` (the paper's
    /// baseline row), otherwise m-step SSOR PCG with this coefficient set,
    /// both stopping at ‖Δu‖∞ < `tol`.
    pub(crate) fn solve(
        self,
        ord: &OrderedProblem,
        m: usize,
        tol: f64,
    ) -> Result<PcgSolution, SparseError> {
        let opts = PcgOptions {
            tol,
            max_iterations: 100_000,
            criterion: StoppingCriterion::DisplacementChange,
            ..Default::default()
        };
        let (a, colors, f) = (&ord.matrix, &ord.colors, &ord.rhs);
        if m == 0 {
            return cg_solve(a, f, &opts);
        }
        let pre = match self {
            Self::Unparametrized => MStepSsorPreconditioner::unparametrized(a, colors, m),
            Self::Parametrized => MStepSsorPreconditioner::parametrized(a, colors, m),
        }?;
        pcg_solve(a, f, &pre, &opts)
    }
}

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

/// Result of a simulated CYBER run.
#[derive(Debug, Clone)]
pub struct CyberReport {
    /// m (0 = plain CG).
    pub m: usize,
    /// Parametrized or not (meaningless for m = 0).
    pub parametrized: bool,
    /// Exact iteration count (Table 2 column `I`).
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
    /// The solver output (solution vector, stats, convergence data).
    pub solution: PcgSolution,
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
        let full = DiaMatrix::from_csr(a).num_diagonals();
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

    /// Total off-diagonal-block diagonal count (the vector-op count of one
    /// full set of block products).
    pub fn offdiag_block_diagonals(&self) -> usize {
        let nb = self.block_sizes.len();
        let mut s = 0;
        for i in 0..nb {
            for j in 0..nb {
                if i != j {
                    s += self.block_diagonals[i][j];
                }
            }
        }
        s
    }
}

/// Run the m-step SSOR PCG for the plate problem on the simulated CYBER.
///
/// `m == 0` runs plain CG (the paper's baseline row). Padded vector
/// lengths come from `asm` (constrained nodes included in the layout);
/// the solve itself runs on the reduced ordered system `ord`.
///
/// # Errors
/// Propagates solver and preconditioner construction failures.
pub fn run_cyber_pcg(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    m: usize,
    choice: CoefficientChoice,
    params: &VectorMachineParams,
    tol: f64,
) -> Result<CyberReport, SparseError> {
    let solution = choice.solve(ord, m, tol)?;

    // ---- clock model -----------------------------------------------------
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

    let iterations = solution.iterations;
    let precond_time = solution.stats.precond_steps as f64 * b_per_step;
    let breakdown = CyberBreakdown {
        spmv: iterations as f64 * spmv_time,
        dots: iterations as f64 * dots_time,
        updates: iterations as f64 * updates_time,
        convergence: iterations as f64 * convergence_time,
        preconditioner: precond_time,
    };

    Ok(CyberReport {
        m,
        parametrized: matches!(choice, CoefficientChoice::Parametrized) && m > 0,
        iterations,
        seconds: breakdown.total(),
        max_vector_length: max_len,
        breakdown,
        a_per_iteration,
        b_per_step,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_fem::plate::PlaneStressProblem;

    fn plate(a: usize) -> (AssembledProblem, OrderedProblem) {
        let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
        let ord = asm.multicolor().unwrap();
        (asm, ord)
    }

    #[test]
    fn blocked_matrix_has_bounded_diagonal_count() {
        // The 6-color block structure keeps the diagonal count small and
        // n-independent (structure (3.2) is what makes DIA storage viable).
        let (_, ord1) = plate(6);
        let (_, ord2) = plate(9);
        let s1 = BlockDiagonalStructure::analyze(&ord1.matrix, &ord1.colors);
        let s2 = BlockDiagonalStructure::analyze(&ord2.matrix, &ord2.colors);
        assert!(s2.full_matrix_diagonals <= 3 * s1.full_matrix_diagonals);
        assert!(s1.full_matrix_diagonals < 200);
    }

    #[test]
    fn cg_report_matches_direct_solver() {
        let (asm, ord) = plate(6);
        let r = run_cyber_pcg(
            &asm,
            &ord,
            0,
            CoefficientChoice::Unparametrized,
            &VectorMachineParams::default(),
            1e-6,
        )
        .unwrap();
        assert!(r.solution.converged);
        assert!(r.iterations > 0);
        assert!(r.seconds > 0.0);
        assert_eq!(r.breakdown.preconditioner, 0.0);
        // Solution correctness against dense Cholesky.
        let exact = ord.matrix.to_dense().cholesky().unwrap().solve(&ord.rhs);
        for (u, v) in r.solution.x.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations_and_adds_precond_time() {
        let (asm, ord) = plate(8);
        let params = VectorMachineParams::default();
        let cg = run_cyber_pcg(
            &asm,
            &ord,
            0,
            CoefficientChoice::Unparametrized,
            &params,
            1e-6,
        )
        .unwrap();
        let m1 = run_cyber_pcg(
            &asm,
            &ord,
            1,
            CoefficientChoice::Unparametrized,
            &params,
            1e-6,
        )
        .unwrap();
        assert!(m1.iterations < cg.iterations);
        assert!(m1.breakdown.preconditioner > 0.0);
    }

    #[test]
    fn parametrized_flag_recorded() {
        let (asm, ord) = plate(6);
        let params = VectorMachineParams::default();
        let r = run_cyber_pcg(
            &asm,
            &ord,
            2,
            CoefficientChoice::Parametrized,
            &params,
            1e-6,
        )
        .unwrap();
        assert!(r.parametrized);
        assert_eq!(r.m, 2);
    }

    #[test]
    fn max_vector_length_matches_formula() {
        let (asm, ord) = plate(9);
        let params = VectorMachineParams::default();
        let r = run_cyber_pcg(
            &asm,
            &ord,
            0,
            CoefficientChoice::Unparametrized,
            &params,
            1e-4,
        )
        .unwrap();
        assert_eq!(r.max_vector_length, (9 * 9usize).div_ceil(3));
    }

    #[test]
    fn cost_constants_are_positive_and_consistent() {
        let (asm, ord) = plate(6);
        let params = VectorMachineParams::default();
        let r = run_cyber_pcg(
            &asm,
            &ord,
            3,
            CoefficientChoice::Unparametrized,
            &params,
            1e-6,
        )
        .unwrap();
        assert!(r.a_per_iteration > 0.0 && r.b_per_step > 0.0);
        let predicted = r.iterations as f64 * r.a_per_iteration
            + r.solution.stats.precond_steps as f64 * r.b_per_step;
        assert!((predicted - r.seconds).abs() / r.seconds < 1e-9);
    }
}
