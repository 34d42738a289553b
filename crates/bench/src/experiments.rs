//! Experiment runners shared by the table binaries and the in-repo
//! `timing` benches.

use mspcg_core::analysis::{preconditioned_condition_number, CostModel};
use mspcg_core::poly::SPECTRUM_STEPS;
use mspcg_core::{
    cg_solve, least_squares_alphas, pcg_solve, pcg_solve_into, MStepSsorPreconditioner, PcgOptions,
    PcgSolution, PcgWorkspace, StoppingCriterion, SweepTable,
};
use mspcg_fem::plate::{AssembledProblem, OrderedProblem, PlaneStressProblem};
use mspcg_fem::poisson::poisson5;
use mspcg_machine::array::{run_fem_machine, ArrayBreakdown};
use mspcg_machine::vector::run_cyber_pcg;
use mspcg_machine::{ArrayMachineParams, ProcessorAssignment, VectorMachineParams};
use mspcg_sparse::lanczos::SpectralInterval;
use mspcg_sparse::{CsrMatrix, Partition, SparseError};
use std::sync::Arc;

/// The m-rows of Table 2: unparametrized 0–4, parametrized 2P–10P.
pub const MS_TABLE2: &[(usize, bool)] = &[
    (0, false),
    (1, false),
    (2, false),
    (2, true),
    (3, false),
    (3, true),
    (4, false),
    (4, true),
    (5, true),
    (6, true),
    (7, true),
    (8, true),
    (9, true),
    (10, true),
];

/// The m-rows of Table 3.
pub const MS_TABLE3: &[(usize, bool)] = &[
    (0, false),
    (1, false),
    (2, false),
    (2, true),
    (3, false),
    (3, true),
    (4, false),
    (4, true),
    (5, true),
    (6, true),
];

/// Plate sizes of Table 2 (`--quick` trims the sweep for smoke runs).
pub fn table2_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![12, 20]
    } else {
        vec![20, 41, 62, 80]
    }
}

/// One `(m, I, T)` cell of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Preconditioner steps (0 = plain CG).
    pub m: usize,
    /// Parametrized coefficients (`mP` rows).
    pub parametrized: bool,
    /// Iterations (paper column `I`).
    pub iterations: usize,
    /// Simulated CYBER seconds (paper column `T`).
    pub seconds: f64,
    /// Per-iteration cost `A` of the cost model (4.1).
    pub a_cost: f64,
    /// Per-step cost `B` of the cost model (4.1).
    pub b_cost: f64,
}

/// One plate-size column group of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Data {
    /// Rows of nodes (paper's `a`).
    pub a: usize,
    /// Number of unknowns `2·a·(a−1)`.
    pub n: usize,
    /// Max (padded) vector length (paper's `v`).
    pub max_vector_length: usize,
    /// Cells in [`MS_TABLE2`] order (rows that failed to construct are
    /// skipped).
    pub cells: Vec<Table2Cell>,
}

impl Table2Data {
    /// The time-minimizing row.
    pub fn best(&self) -> &Table2Cell {
        self.cells
            .iter()
            .min_by(|x, y| x.seconds.partial_cmp(&y.seconds).unwrap())
            .expect("table has rows")
    }
}

/// Run one plate size of Table 2: solve each row once (the parametrized
/// rows fitted on one SSOR estimate of the plate) and price it on the
/// simulated CYBER.
///
/// # Errors
/// Propagates assembly, estimation and solver failures.
pub fn run_table2(
    a: usize,
    rows: &[(usize, bool)],
    params: &VectorMachineParams,
    tol: f64,
) -> Result<Table2Data, SparseError> {
    let asm = PlaneStressProblem::unit_square(a).assemble()?;
    let ord = asm.multicolor()?;
    let interval = ssor_interval(&ord)?;
    let mut cells = Vec::with_capacity(rows.len());
    for &(m, parametrized) in rows {
        let sol = solve_row(&ord, m, parametrized.then_some(interval), tol)?;
        let rep = run_cyber_pcg(&asm, &ord, sol.iterations, sol.stats.precond_steps, params);
        cells.push(Table2Cell {
            m,
            parametrized: parametrized && m > 0,
            iterations: rep.iterations,
            seconds: rep.seconds,
            a_cost: rep.a_per_iteration,
            b_cost: rep.b_per_step,
        });
    }
    Ok(Table2Data {
        a,
        n: asm.num_unknowns(),
        max_vector_length: asm.max_vector_length(),
        cells,
    })
}

/// One m-row of Table 3 across processor counts.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Preconditioner steps.
    pub m: usize,
    /// Parametrized?
    pub parametrized: bool,
    /// Iterations (processor-independent).
    pub iterations: usize,
    /// Seconds per processor count, aligned with the `procs` argument.
    pub seconds: Vec<f64>,
    /// Speedups vs the first processor count.
    pub speedups: Vec<f64>,
    /// Overhead fraction per processor count (non-arithmetic share).
    pub overhead: Vec<f64>,
    /// Full breakdown at the largest processor count.
    pub breakdown_last: ArrayBreakdown,
}

/// Table 3 data (all m-rows for fixed processor counts).
#[derive(Debug, Clone)]
pub struct Table3Data {
    /// Processor counts (paper: 1, 2, 5).
    pub procs: Vec<usize>,
    /// Rows in [`MS_TABLE3`] order.
    pub rows: Vec<Table3Row>,
}

/// Run Table 3: solve each row once (the parametrized rows fitted on one
/// SSOR estimate of the plate) and price it on the simulated Finite
/// Element Machine at every processor count, on balanced strips.
///
/// # Errors
/// Propagates assembly, assignment, estimation and solver failures.
pub fn run_table3(
    a: usize,
    rows: &[(usize, bool)],
    procs: &[usize],
    params: &ArrayMachineParams,
    tol: f64,
) -> Result<Table3Data, SparseError> {
    let asm = PlaneStressProblem::unit_square(a).assemble()?;
    let ord = asm.multicolor()?;
    let strips = procs
        .iter()
        .map(|&p| ProcessorAssignment::strips(&asm, p))
        .collect::<Result<Vec<_>, _>>()?;
    let interval = ssor_interval(&ord)?;
    let mut out = Vec::with_capacity(rows.len());
    for &(m, parametrized) in rows {
        let sol = solve_row(&ord, m, parametrized.then_some(interval), tol)?;
        let (iterations, steps) = (sol.iterations, sol.stats.precond_steps);
        let mut seconds = Vec::with_capacity(procs.len());
        let mut overhead = Vec::with_capacity(procs.len());
        let mut breakdown_last = ArrayBreakdown::default();
        for assignment in &strips {
            let rep = run_fem_machine(&asm, &ord, iterations, steps, assignment, params);
            seconds.push(rep.seconds);
            overhead.push(rep.breakdown.overhead_fraction());
            breakdown_last = rep.breakdown;
        }
        let speedups = seconds.iter().map(|&s| seconds[0] / s).collect();
        out.push(Table3Row {
            m,
            parametrized: parametrized && m > 0,
            iterations,
            seconds,
            speedups,
            overhead,
            breakdown_last,
        });
    }
    Ok(Table3Data {
        procs: procs.to_vec(),
        rows: out,
    })
}

/// One row of the condition-number study (§2.1).
#[derive(Debug, Clone, Copy)]
pub struct ConditionRow {
    /// Steps.
    pub m: usize,
    /// Parametrized?
    pub parametrized: bool,
    /// κ(M_m⁻¹ K), computed densely.
    pub kappa: f64,
}

/// Exact condition numbers of the preconditioned operator for a small
/// plate, for m in `ms`, both unparametrized and parametrized (least
/// squares, on one SSOR estimate of the plate).
///
/// # Errors
/// Propagates estimation and dense eigensolver failures.
pub fn condition_study(a: usize, ms: &[usize]) -> Result<Vec<ConditionRow>, SparseError> {
    let asm = PlaneStressProblem::unit_square(a).assemble()?;
    let ord = asm.multicolor()?;
    let (k, colors, interval) = (&ord.matrix, &ord.colors, ssor_interval(&ord)?);
    let mut rows = Vec::new();
    for &m in ms {
        let un = MStepSsorPreconditioner::unparametrized(k, colors, m)?;
        rows.push(ConditionRow {
            m,
            parametrized: false,
            kappa: preconditioned_condition_number(k, &un)?,
        });
        if m >= 2 {
            let fit = least_squares_alphas;
            let pa = MStepSsorPreconditioner::with_interval(k, colors, m, interval, fit)?;
            rows.push(ConditionRow {
                m,
                parametrized: true,
                kappa: preconditioned_condition_number(k, &pa)?,
            });
        }
    }
    Ok(rows)
}

/// Iterations of the 1-step multicolor SSOR PCG as a function of ω
/// (§5: ω = 1 is a good choice for multicolor orderings).
///
/// The sweep is the repeated-solve showcase: the matrix and partition are
/// shared via `Arc` across every ω (no deep copies), and all solves reuse
/// one [`PcgWorkspace`] — after the first, each point costs zero heap
/// allocation.
///
/// # Errors
/// Propagates solver failures.
pub fn omega_sweep(a: usize, omegas: &[f64]) -> Result<Vec<(f64, usize)>, SparseError> {
    let asm = PlaneStressProblem::unit_square(a).assemble()?;
    let ord = asm.multicolor()?;
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let opts = PcgOptions {
        tol: 1e-6,
        criterion: StoppingCriterion::DisplacementChange,
        ..Default::default()
    };
    let n = matrix.rows();
    let mut ws = PcgWorkspace::new(n);
    let mut u = vec![0.0; n];
    let mut out = Vec::with_capacity(omegas.len());
    for &w in omegas {
        let pre = MStepSsorPreconditioner::unparametrized_omega_shared(
            Arc::clone(&matrix),
            Arc::clone(&colors),
            1,
            w,
        )?;
        u.fill(0.0);
        let rep = pcg_solve_into(&matrix, &ord.rhs, &mut u, &pre, &opts, &mut ws)?;
        out.push((w, rep.iterations));
    }
    Ok(out)
}

/// Assemble the `n × n` red/black 5-point Poisson problem and permute it
/// into its two color blocks — the serial-vs-parallel kernel benches run
/// on the 512 × 512 instance (262 144 unknowns).
///
/// # Errors
/// Propagates assembly/permutation failures.
pub fn ordered_poisson(n: usize) -> Result<(CsrMatrix, Partition, Vec<f64>), SparseError> {
    let p = poisson5(n)?;
    let ord = p.coloring.ordering();
    let matrix = ord.permute_matrix(&p.matrix)?;
    let rhs = ord.permutation.gather(&p.rhs);
    Ok((matrix, ord.partition, rhs))
}

/// The SSOR spectral interval of an ordered problem, the estimate
/// [`MStepSsorPreconditioner::parametrized`] runs: a parametrized m-sweep
/// estimates it once and fits every m on it.
///
/// # Errors
/// Propagates sweep-table and estimation failures.
pub fn ssor_interval(ord: &OrderedProblem) -> Result<SpectralInterval, SparseError> {
    let table = SweepTable::new(Arc::new(ord.matrix.clone()), Arc::new(ord.colors.clone()))?;
    table.ssor_spectrum(1.0, SPECTRUM_STEPS)
}

/// The one m-row solve of Tables 2 and 3, `ineq42` and the `table2_cyber`
/// bench: plain CG at `m = 0`, otherwise the m-step SSOR PCG with
/// least-squares α fitted on `interval` when one is given (bitwise
/// [`MStepSsorPreconditioner::parametrized`] on that estimate), α = 1
/// otherwise — stopping at ‖Δu‖∞ < `tol`.
///
/// # Errors
/// Propagates fit and solver failures.
pub fn solve_row(
    ord: &OrderedProblem,
    m: usize,
    interval: Option<SpectralInterval>,
    tol: f64,
) -> Result<PcgSolution, SparseError> {
    let opts = PcgOptions {
        tol,
        ..Default::default()
    };
    if m == 0 {
        return cg_solve(&ord.matrix, &ord.rhs, &opts);
    }
    let (a, colors) = (&ord.matrix, &ord.colors);
    let pre = match interval {
        Some(iv) => MStepSsorPreconditioner::with_interval(a, colors, m, iv, least_squares_alphas)?,
        None => MStepSsorPreconditioner::unparametrized(a, colors, m)?,
    };
    pcg_solve(&ord.matrix, &ord.rhs, &pre, &opts)
}

/// Assemble + order a plate (convenience for benches).
///
/// # Errors
/// Propagates assembly failures.
pub fn ordered_plate(a: usize) -> Result<(AssembledProblem, OrderedProblem), SparseError> {
    let asm = PlaneStressProblem::unit_square(a).assemble()?;
    let ord = asm.multicolor()?;
    Ok((asm, ord))
}

/// Cost model of the simulated CYBER for a given plate, for the
/// Eq. (4.2) analysis: `A` and `B` read off its clock, which needs no
/// solve.
pub fn cyber_cost_model(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    params: &VectorMachineParams,
) -> CostModel {
    let clock = run_cyber_pcg(asm, ord, 0, 0, params);
    CostModel {
        a: clock.a_per_iteration,
        b: clock.b_per_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_quick_run_has_expected_shape() {
        let rows: &[(usize, bool)] = &[(0, false), (1, false), (2, false), (2, true)];
        let t = run_table2(10, rows, &VectorMachineParams::default(), 1e-6).unwrap();
        assert_eq!(t.n, 180);
        assert_eq!(t.cells.len(), 4);
        let i: Vec<usize> = t.cells.iter().map(|c| c.iterations).collect();
        assert!(i[1] < i[0], "m=1 beats CG");
        assert!(i[3] <= i[2], "2P beats 2");
    }

    #[test]
    fn table3_speedups_increase_with_processors() {
        let rows: &[(usize, bool)] = &[(0, false), (1, false)];
        let t = run_table3(6, rows, &[1, 2, 5], &ArrayMachineParams::default(), 1e-6).unwrap();
        for row in &t.rows {
            assert!(row.speedups[0] == 1.0);
            assert!(row.speedups[1] > 1.0);
            assert!(row.speedups[2] > row.speedups[1]);
        }
    }

    #[test]
    fn condition_study_monotone() {
        let rows = condition_study(5, &[1, 2, 3]).unwrap();
        let un: Vec<f64> = rows
            .iter()
            .filter(|r| !r.parametrized)
            .map(|r| r.kappa)
            .collect();
        assert!(un.windows(2).all(|w| w[1] <= w[0] * 1.0001), "{un:?}");
    }

    #[test]
    fn omega_one_is_near_optimal() {
        let sweep = omega_sweep(8, &[0.7, 1.0, 1.3, 1.6]).unwrap();
        let at = |w: f64| sweep.iter().find(|(x, _)| (x - w).abs() < 1e-12).unwrap().1;
        let best = sweep.iter().map(|&(_, i)| i).min().unwrap();
        // ω = 1 within 20% of the best of the sweep.
        assert!(
            at(1.0) as f64 <= best as f64 * 1.2 + 2.0,
            "omega=1: {} vs best {}",
            at(1.0),
            best
        );
    }
}
