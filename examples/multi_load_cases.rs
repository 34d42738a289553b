//! Batched multi-RHS workload: one plate stiffness matrix, 32 load cases,
//! one `pcg_solve_multi` call — the "many load cases on one factored
//! system" pattern of structural analysis. The matrix, multicolor
//! ordering and m-step SSOR preconditioner are built once and shared
//! (`Arc`) across every case; each case reports its iteration count and
//! the batch reports the roll-up.
//!
//! ```sh
//! cargo run --release --example multi_load_cases [a] [cases]
//! ```
//!
//! Standard output holds no thread count and no timing (both go to
//! standard error), so it is byte for byte the same at any
//! `MSPCG_THREADS`: every case is bitwise its standalone solve.

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace, SolveStatus};
use mspcg::core::pcg::PcgOptions;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::par;
use std::sync::Arc;

fn main() {
    let a = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24usize);
    let cases = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32usize);

    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("assembly");
    let ord = asm.multicolor().expect("ordering");
    let n = ord.matrix.rows();
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let pre =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), 2)
            .expect("preconditioner");

    println!(
        "plate a = {a}: {n} unknowns, {} stored entries, {cases} load cases",
        matrix.nnz()
    );
    eprintln!("{} worker thread(s)", par::max_threads());

    // Load cases: the assembled edge load rotated through per-case scale
    // factors (a stand-in for a real load-case book).
    let f: Vec<f64> = (0..cases)
        .flat_map(|j| {
            let scale = 1.0 + 0.2 * (j as f64) * (-1.0f64).powi(j as i32);
            ord.rhs.iter().map(move |v| v * scale)
        })
        .collect();
    let mut u = vec![0.0; cases * n];

    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let mut ws = MultiRhsWorkspace::new(n, cases);
    let start = std::time::Instant::now();
    let summary = pcg_solve_multi(&matrix, &f, &mut u, &pre, &opts, &mut ws).expect("batch solve");
    let elapsed = start.elapsed();

    for (j, outcome) in ws.outcomes().iter().enumerate() {
        let tag = match outcome.status {
            SolveStatus::Converged => "ok",
            SolveStatus::Replaced => "ok (replaced)",
            SolveStatus::BudgetExhausted => "BUDGET",
            SolveStatus::Breakdown => "BREAKDOWN",
        };
        println!(
            "  case {j:>2}: {:>4} iterations, final rel. residual {:9.2e}  [{tag}]",
            outcome.report.iterations, outcome.report.final_relative_residual
        );
    }
    println!(
        "batch: {}/{} converged, {} total iterations, worst rel. residual {:9.2e}",
        summary.converged,
        summary.solved,
        summary.total_iterations,
        summary.max_final_relative_residual,
    );
    eprintln!("batch solve: {:.1} ms", elapsed.as_secs_f64() * 1e3);
    assert_eq!(summary.converged, cases, "a load case failed to converge");
}
