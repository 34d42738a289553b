//! Table 2 as a *real* wall-clock bench: full m-step SSOR PCG solves of
//! the plate problem across the paper's m sweep, on the host CPU. The
//! simulated-CYBER seconds are produced by the `table2` binary; this bench
//! shows the same U-shape (time vs m) on modern hardware.

use mspcg_bench::experiments::{ordered_plate, solve_row, ssor_interval};
use mspcg_bench::timing::{bench, finish};
use std::hint::black_box;

fn main() {
    let (_, ord) = ordered_plate(30).expect("plate");
    // The parametrized rows fit on one SSOR estimate, taken outside the
    // timed solves.
    let interval = ssor_interval(&ord).expect("spectrum");
    let rows: &[(usize, bool)] = &[
        (0, false),
        (1, false),
        (2, false),
        (2, true),
        (3, true),
        (4, true),
        (6, true),
    ];
    let mut results = Vec::new();
    for &(m, parametrized) in rows {
        let label = if parametrized {
            format!("m{m}P")
        } else {
            format!("m{m}")
        };
        results.push(bench("table2_solve_wall_clock", &label, || {
            let fit_on = parametrized.then_some(interval);
            black_box(solve_row(black_box(&ord), m, fit_on, 1e-6).expect("solve"));
        }));
    }
    finish(&results);
}
