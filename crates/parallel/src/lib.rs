//! # mspcg-parallel
//!
//! A **real threaded executor** for the multicolor m-step SSOR PCG — the
//! modern-hardware counterpart of the Finite Element Machine simulation in
//! `mspcg-machine`.
//!
//! The design mirrors Algorithm 3's structure. Each worker thread owns one
//! contiguous chunk of **every** color block, the chunks of a block equal
//! to within one row: the processor node assignment of §3.2, which gives
//! each processor "as nearly as possible, an equal number of
//! Red/Black/Green unconstrained nodes", so every color phase keeps every
//! worker busy. Every phase of the iteration is separated by a barrier
//! (the analogue of the machine's synchronized communication steps), and
//! the inner products are per-worker partials that every worker sums in
//! the same order (the analogue of the sum/max circuit).
//!
//! Because the multicolor ordering guarantees that a row couples only to
//! *other* color blocks, all updates within one color phase write disjoint
//! locations and read only data finalized in earlier phases — the same
//! property that made the method parallel in 1983 makes it data-race free
//! here (see [`shared`] for the exact aliasing contract).

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod barrier;
pub mod shared;
pub mod solver;

pub use barrier::SpinBarrier;
pub use mspcg_core::recovery::{FaultKind, FaultPlan, FaultTarget, IterationFault, RecoveryPolicy};
pub use mspcg_sparse::PcgVariant;
pub use solver::{ParallelMStepPcg, ParallelSolveReport, ParallelSolverOptions};
