//! The §2.1 condition-number study: κ(M_m⁻¹K) as a function of m,
//! computed exactly with the dense symmetric eigensolver.
//!
//! Verifies the two theoretical claims the paper cites from Adams (1982):
//! κ decreases monotonically with m, and the improvement over one step is
//! at most a factor of m. Also shows the parametrized coefficients beating
//! the unparametrized ones spectrally — the mechanism behind Tables 2/3.
//!
//! Usage: `cargo run --release -p mspcg-bench --bin condition [a]`
//! (default plate a = 8; keep a ≲ 12 — the analysis is O(n³)).

use mspcg_bench::{condition_study, TextTable};
use mspcg_core::analysis::cg_iteration_bound;
use mspcg_fem::plate::PlaneStressProblem;

fn main() {
    let a = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8usize);
    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("assembly");
    let kappa_k = asm
        .matrix
        .to_dense()
        .sym_condition_number()
        .expect("kappa(K)");
    println!("plate a = {a}, N = {}", asm.num_unknowns());
    println!("kappa(K) = {kappa_k:.2}\n");

    let rows = condition_study(a, &[1, 2, 3, 4, 5, 6]).expect("study");
    let k1 = rows
        .iter()
        .find(|r| r.m == 1 && !r.parametrized)
        .unwrap()
        .kappa;

    let mut t = TextTable::new(vec![
        "m",
        "kappa(Mm^-1 K)",
        "improvement vs m=1",
        "bound m",
        "CG bound (eps=1e-6)",
    ]);
    for r in &rows {
        let label = if r.parametrized {
            format!("{}P", r.m)
        } else {
            r.m.to_string()
        };
        t.row(vec![
            label,
            format!("{:.3}", r.kappa),
            format!("{:.2}x", k1 / r.kappa),
            r.m.to_string(),
            cg_iteration_bound(r.kappa.max(1.0), 1e-6).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("claims checked:");
    let un: Vec<f64> = rows
        .iter()
        .filter(|r| !r.parametrized)
        .map(|r| r.kappa)
        .collect();
    let monotone = un.windows(2).all(|w| w[1] <= w[0] * 1.0001);
    println!("  kappa monotone nonincreasing in m: {monotone}");
    let bound = rows
        .iter()
        .filter(|r| !r.parametrized && r.m >= 1)
        .all(|r| k1 / r.kappa <= r.m as f64 * 1.1);
    println!("  improvement ratio <= m (10% slack): {bound}");
    let param_wins = rows.iter().filter(|r| r.parametrized).all(|r| {
        let un_same_m = rows
            .iter()
            .find(|q| q.m == r.m && !q.parametrized)
            .unwrap()
            .kappa;
        r.kappa <= un_same_m * 1.0001
    });
    println!("  parametrized kappa <= unparametrized kappa at equal m: {param_wins}");
}
