//! Generality beyond elasticity: the 5-point Poisson problem with a
//! red/black (2-color) ordering, comparing the m-step SSOR preconditioner
//! against polynomials in the Jacobi-scaled operator `D⁻¹K` — the space
//! of the truncated Neumann series of Dubois–Greenbaum–Rodrigue (1979) and
//! the polynomial preconditioner of Johnson–Micchelli–Paul (1982) that
//! §2.2 builds on — as the Newton (damped Neumann) and Chebyshev (min-max)
//! recurrences at 1, 2 and 4 SpMVs per application.
//!
//! ```sh
//! cargo run --release --example poisson_multicolor [n]
//! ```

use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{cg_solve, pcg_solve, PcgOptions};
use mspcg::core::poly::PolynomialPreconditioner;
use mspcg::fem::poisson::poisson5;
use mspcg::sparse::PolyKind;

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40usize);
    let problem = poisson5(n).expect("poisson");
    println!(
        "-Δu = f on an {n}x{n} interior grid ({} unknowns), manufactured solution",
        problem.matrix.rows()
    );

    // Red/black multicolor ordering (the smallest multicolor family).
    let ordering = problem.coloring.ordering();
    let matrix = ordering.permute_matrix(&problem.matrix).expect("permute");
    let rhs = ordering.permutation.gather(&problem.rhs);
    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };

    println!("\npreconditioner                       iterations");
    let cg = cg_solve(&matrix, &rhs, &opts).expect("CG");
    println!("none (plain CG)                      {:6}", cg.iterations);

    // One Lanczos estimate of σ(D⁻¹K) serves every polynomial below.
    let first = PolynomialPreconditioner::newton(matrix.clone(), 1).expect("newton");
    for (kind, name) in [
        (PolyKind::Newton, "Newton"),
        (PolyKind::Chebyshev, "Chebyshev"),
    ] {
        for k in [1usize, 2, 4] {
            let poly =
                PolynomialPreconditioner::with_interval(matrix.clone(), kind, k, first.interval())
                    .expect("polynomial");
            let sp = pcg_solve(&matrix, &rhs, &poly, &opts).expect("PCG");
            let label = format!("{k}-SpMV {name} polynomial (Jacobi)");
            println!("{label:<37}{:6}", sp.iterations);
        }
    }
    for m in [1usize, 2, 4] {
        let ssor =
            MStepSsorPreconditioner::unparametrized(&matrix, &ordering.partition, m).expect("ssor");
        let ss = pcg_solve(&matrix, &rhs, &ssor, &opts).expect("PCG");
        println!("{m}-step red/black SSOR                {:6}", ss.iterations);
    }
    for m in [2usize, 4] {
        let ssor =
            MStepSsorPreconditioner::parametrized(&matrix, &ordering.partition, m).expect("ssor");
        let ss = pcg_solve(&matrix, &rhs, &ssor, &opts).expect("PCG");
        println!("{m}-step red/black SSOR (param)        {:6}", ss.iterations);
    }

    // Accuracy against the manufactured solution (discretization-limited).
    let ssor =
        MStepSsorPreconditioner::parametrized(&matrix, &ordering.partition, 2).expect("ssor");
    let sol = pcg_solve(&matrix, &rhs, &ssor, &opts).expect("PCG");
    let natural = ordering.permutation.scatter(&sol.x);
    let err = natural
        .iter()
        .zip(&problem.exact)
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |u_h - u_exact| = {err:.3e} (stencil is exact for this polynomial solution)");
    assert!(err < 1e-6, "solver error too large: {err}");
}
