//! # mspcg-parallel
//!
//! A **real threaded executor** for the multicolor m-step SSOR PCG — the
//! modern-hardware counterpart of the Finite Element Machine simulation in
//! `mspcg-machine`.
//!
//! Every worker runs the one Algorithm 1 of the workspace,
//! `mspcg_core::multi::lockstep` — the loop of every pool-path solve —
//! with itself as the loop's executor: each vector phase runs on the
//! worker's own rows and ends at a barrier, and every scalar the loop
//! reads is replicated, so all workers take every branch together. The
//! workers are the participants of one `par` pool launch, held for the
//! whole solve: the pool path's threads, each keeping its rows from
//! phase to phase as the machine's processors keep their nodes, and
//! running the pool path's msolve and barrier ([`SpinBarrier`]).
//!
//! The design mirrors Algorithm 3's structure. Each worker owns one
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
//! here (see [`mspcg_sparse::par::ParSlice`] for the exact aliasing
//! contract).

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod solver;

pub use mspcg_sparse::par::SpinBarrier;
pub use solver::{ParallelMStepPcg, ParallelSolveReport, ParallelSolverOptions};
