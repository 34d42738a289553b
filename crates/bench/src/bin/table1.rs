//! Regenerates **Table 1** of the paper: the α coefficients of the
//! parametrized m-step SSOR preconditioner, m = 2, 3, 4 (extended to 6),
//! for both fit criteria.
//!
//! The published table is computed for the SSOR splitting of the plate
//! problem; we estimate the spectral interval of `P⁻¹K` from the actual
//! matrix (a = 20 plate by default) and fit on it. The scan of the 1983
//! report is OCR-damaged in Table 1, so the fitted values are not checked
//! against it: the `criteria` binary compares the two fits end to end, in
//! PCG iterations against the unparametrized baseline.

use mspcg_bench::TextTable;
use mspcg_core::ssor::MulticolorSsor;
use mspcg_core::{least_squares_alphas, minimax_alphas};
use mspcg_fem::plate::PlaneStressProblem;

fn main() {
    let a = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20usize);
    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("assembly");
    let ord = asm.multicolor().expect("ordering");
    let ssor = MulticolorSsor::new(ord.matrix.clone(), ord.colors.clone(), 1.0).expect("splitting");
    let est = ssor.table().ssor_spectrum(1.0, 80).expect("spectrum");
    let (lo, hi) = (est.min, est.max);
    println!("Table 1: alpha values for the m-step SSOR PCG method");
    println!("plate a = {a}, sigma(P^-1 K) in [{lo:.4}, {hi:.4}]\n");

    for (name, fit) in [
        (
            "least squares (uniform weight)",
            Box::new(|m: usize| least_squares_alphas(m, (lo, hi)).unwrap())
                as Box<dyn Fn(usize) -> Vec<f64>>,
        ),
        (
            "min-max (Chebyshev)",
            Box::new(|m: usize| minimax_alphas(m, (lo, hi)).unwrap()),
        ),
    ] {
        println!("criterion: {name}");
        let mut t = TextTable::new(vec!["m", "a0", "a1", "a2", "a3", "a4", "a5"]);
        for m in 2..=6usize {
            let alphas = fit(m);
            let mut cells = vec![m.to_string()];
            for i in 0..6 {
                cells.push(alphas.get(i).map(|v| format!("{v:.3}")).unwrap_or_default());
            }
            t.row(cells);
        }
        println!("{}", t.render());
    }
    println!("(paper Table 1 row shape: a0, a1, …, a_{{m-1}} per m; the 1983 scan's");
    println!(
        " numeric values are OCR-damaged — the criteria binary compares both fits end to end)"
    );
}
