//! # mspcg-bench
//!
//! Experiment harness regenerating **every table and figure** of Adams
//! (ICPP 1983). Each paper artifact has a dedicated binary:
//!
//! | artifact | binary |
//! |---|---|
//! | Table 1 (α values) | `cargo run --release -p mspcg-bench --bin table1` |
//! | Table 2 (CYBER iterations/timings) | `… --bin table2` |
//! | Table 3 (FEM iterations/timings/speedups) | `… --bin table3` |
//! | Eq. (4.2) crossover analysis | `… --bin ineq42` |
//! | least squares vs min-max α, IC(0) baselines (§2.2) | `… --bin criteria` |
//! | Figures 1–5 (plate, stencil, assignments, links) | `… --bin figures` |
//! | κ(M⁻¹K) vs m study (§2.1) | `… --bin condition` |
//! | ω sweep (§5 remark) | `… --bin omega_sweep` |
//!
//! Tables 2 and 3 solve each m-row once and price that solve on the
//! simulated machines (`mspcg-machine`). The benches in `benches/`, plain
//! mains on the in-repo [`timing`] harness, measure the *real* wall-clock
//! cost of the kernels and solvers on the host machine — the modern
//! analogue of the timing columns.

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod experiments;
pub mod table;
pub mod timing;

pub use experiments::{
    condition_study, omega_sweep, run_table2, run_table3, table2_sizes, ConditionRow, Table2Cell,
    Table2Data, Table3Data, Table3Row, MS_TABLE2, MS_TABLE3,
};
pub use table::TextTable;
