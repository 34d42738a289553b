//! The §5 remark, tested: for multicolor orderings with few colors,
//! ω = 1 is a good SSOR relaxation parameter — the method "does not face
//! the usual difficulty in choosing the optimal relaxation parameter".
//!
//! Usage: `cargo run --release -p mspcg-bench --bin omega_sweep [a]`

use mspcg_bench::{omega_sweep, TextTable};

fn main() {
    let a = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20usize);
    let omegas: Vec<f64> = (3..=18).map(|k| k as f64 * 0.1).collect();
    let sweep = omega_sweep(a, &omegas).expect("sweep");

    println!("1-step multicolor SSOR PCG iterations vs omega (plate a = {a})\n");
    let mut t = TextTable::new(vec!["omega", "iterations"]);
    let best = sweep.iter().map(|&(_, i)| i).min().unwrap();
    for &(w, i) in &sweep {
        let marker = if i == best { " <- best" } else { "" };
        t.row(vec![format!("{w:.1}"), format!("{i}{marker}")]);
    }
    println!("{}", t.render());
    let at_one = sweep
        .iter()
        .find(|(w, _)| (w - 1.0).abs() < 1e-9)
        .unwrap()
        .1;
    println!(
        "omega = 1.0 gives {at_one} iterations vs sweep best {best} \
         ({:.0}% above optimum) — confirming the paper's choice.",
        100.0 * (at_one as f64 - best as f64) / best as f64
    );
}
