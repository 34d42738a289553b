//! Quickstart: solve the paper's plane-stress plate with the m-step
//! multicolor SSOR preconditioned conjugate gradient method.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{cg_solve, pcg_solve, PcgOptions};
use mspcg::fem::plate::PlaneStressProblem;

fn main() {
    // 1. The model problem: a unit-square plate, 20×20 nodes, clamped on
    //    the left edge, unit tension on the right (paper §3).
    let problem = PlaneStressProblem::unit_square(20);
    let assembled = problem.assemble().expect("assembly");
    println!(
        "assembled K: {} unknowns, {} nonzeros (≤ {} per row)",
        assembled.num_unknowns(),
        assembled.matrix.nnz(),
        assembled.matrix.max_row_nnz()
    );

    // 2. Multicolor ordering: 6 colors (R/B/G × u/v) — every diagonal
    //    color block becomes diagonal, so SSOR parallelizes.
    let ordered = assembled.multicolor().expect("multicolor ordering");
    println!(
        "multicolor blocks: {:?}",
        (0..ordered.colors.num_blocks())
            .map(|b| ordered.colors.block_len(b))
            .collect::<Vec<_>>()
    );

    // 3. Solve three ways: plain CG, unparametrized 3-step, parametrized
    //    3-step (least-squares coefficients fitted to the estimated
    //    spectrum of P⁻¹K).
    let opts = PcgOptions {
        tol: 1e-6,
        ..Default::default()
    };
    let cg = cg_solve(&ordered.matrix, &ordered.rhs, &opts).expect("CG");
    println!("\nplain CG            : {:4} iterations", cg.iterations);

    let un = MStepSsorPreconditioner::unparametrized(&ordered.matrix, &ordered.colors, 3)
        .expect("preconditioner");
    let sol_un = pcg_solve(&ordered.matrix, &ordered.rhs, &un, &opts).expect("PCG");
    println!("3-step SSOR         : {:4} iterations", sol_un.iterations);

    let pa = MStepSsorPreconditioner::parametrized(&ordered.matrix, &ordered.colors, 3)
        .expect("preconditioner");
    let interval = pa
        .interval()
        .expect("a fitted preconditioner keeps its interval");
    println!(
        "fitted alphas       : {:?} on sigma(P^-1 K) in {:?}",
        pa.alphas()
            .iter()
            .map(|a| (a * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        (interval.min, interval.max)
    );
    let sol_pa = pcg_solve(&ordered.matrix, &ordered.rhs, &pa, &opts).expect("PCG");
    println!("3-step SSOR (param) : {:4} iterations", sol_pa.iterations);

    // 4. Read out the physics: tip displacement of the loaded edge.
    let nodal = ordered.to_nodal(&sol_pa.x);
    let full = assembled.free_map.expand(&nodal);
    let mesh = assembled.mesh;
    let tip = mesh.node_index(mesh.rows / 2, mesh.cols - 1);
    println!(
        "\nmid-edge tip displacement: u = {:+.5e}, v = {:+.5e}",
        full[2 * tip],
        full[2 * tip + 1]
    );
    println!(
        "converged: {} (final |du|_inf = {:.2e})",
        sol_pa.converged, sol_pa.final_change
    );
}
