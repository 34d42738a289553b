//! Coefficient-fitting bench (Table 1 machinery): cost of the
//! least-squares normal-equations fit and of the Chebyshev min-max
//! expansion as m grows. Both must stay microseconds-cheap — the
//! parametrization is a setup cost, amortized over the whole solve.

use mspcg_bench::timing::{bench, finish};
use mspcg_core::{least_squares_alphas, minimax_alphas};
use std::hint::black_box;

fn main() {
    let interval = (0.01, 1.0);
    let mut results = Vec::new();
    for m in [2usize, 4, 8, 12] {
        results.push(bench(
            "coefficient_fits",
            &format!("least_squares_m{m}"),
            || {
                black_box(least_squares_alphas(m, black_box(interval)).unwrap());
            },
        ));
        results.push(bench("coefficient_fits", &format!("minimax_m{m}"), || {
            black_box(minimax_alphas(m, black_box(interval)).unwrap());
        }));
    }
    finish(&results);
}
