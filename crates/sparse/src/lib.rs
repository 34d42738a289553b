//! # mspcg-sparse
//!
//! Sparse and dense linear-algebra substrate for the *m-step preconditioned
//! conjugate gradient* workspace (reproduction of Adams, ICPP 1983).
//!
//! The 1983 paper assumes a vendor linear-algebra stack (CYBER vector
//! intrinsics, hand-written FEM kernels). This crate rebuilds the pieces the
//! method actually needs, from scratch:
//!
//! * [`op::SparseOp`] — the **operator abstraction** the whole solver
//!   stack is generic over (serial + parallel SpMV entry points, shape and
//!   work queries, chunk-layout scheduling hooks, structure extraction);
//!   [`op::AutoOp`] picks a format automatically,
//! * [`coo::CooMatrix`] — triplet builder used by the FEM assembler,
//! * [`csr::CsrMatrix`] — compressed sparse row storage with sorted columns,
//!   SpMV, symmetric permutation, transpose and structural queries,
//! * [`sellcs::SellCsMatrix`] — SELL-C-σ (sliced ELL with sorting): the
//!   wide-row SpMV layout, lossless CSR round trip, bitwise-identical
//!   products,
//! * [`dense::DenseMatrix`] — small dense fallback with Cholesky, LU and a
//!   cyclic Jacobi symmetric eigensolver (used for validation and for the
//!   condition-number experiments),
//! * [`lanczos`] — extreme-eigenvalue estimation for large operators,
//! * [`vecops`] — the BLAS-1 kernels PCG is made of,
//! * [`partition`] — contiguous index partitions (the color blocks of the
//!   multicolor ordering),
//! * [`permute`] — permutation vectors and their action on vectors/matrices,
//! * [`tuning`] — every adaptive threshold, and the solver selection types
//!   ([`PcgVariant`], [`PrecondKind`], [`MatrixFormat`]).
//!
//! Everything is `f64`; the solvers in `mspcg-core` are deliberately not
//! generic over the scalar so that the hot kernels stay monomorphic and easy
//! for LLVM to vectorize.
//!
//! ## Performance
//!
//! The hot kernels — CSR SpMV ([`csr::CsrMatrix::mul_vec_into`] /
//! [`csr::CsrMatrix::mul_vec_axpy`]) and the BLAS-1 reductions in
//! [`vecops`] — are **data parallel** behind the `par` feature (on by
//! default). They run on the persistent `std::thread` worker pool in
//! [`par`]; no external runtime is required. Each pool thread runs the
//! same chunks on every launch, so it keeps its slice of the matrix in
//! its own cache across a solve.
//!
//! *Determinism contract.* Every kernel splits its index space into chunks
//! whose boundaries depend only on the problem size, and every reduction
//! combines per-chunk partials in ascending chunk order. Results are
//! therefore **bitwise identical** across thread counts (1, 2, 4, 8, …)
//! and between the serial and parallel code paths — `cargo test` includes
//! `*_thread_count_insensitive` tests that assert exactly this.
//!
//! *Adaptive fallback.* Kernels below a work threshold
//! ([`tuning::par_min_elems`] elements / [`tuning::par_min_nnz`] stored
//! entries) run serially: a 2-thread launch costs ≈ 1 µs (an atomic
//! publish and a spinning worker), which a BLAS-1 loop of 2¹³ elements
//! just repays. Every threshold is a constant in [`tuning`]. Thread
//! budget: hardware parallelism by default, pinned by the
//! `MSPCG_THREADS` environment variable or [`par::set_max_threads`] —
//! the one process-wide setting.
//!
//! *Operator formats.* The solver stack is generic over [`op::SparseOp`],
//! so storage is a pure performance decision: CSR is the general-purpose
//! default, and [`sellcs::SellCsMatrix`] (SELL-C-σ) is the layout for
//! **row-length-irregular** matrices — slices of C rows stored
//! lane-contiguous and padded to the slice's widest row, with rows sorted
//! by length inside σ-row windows so slices stay homogeneous. The padding
//! overhead is `Σ_s C·w_s / nnz − 1` (`w_s` = widest row of slice `s`);
//! when the row-length spread within a σ window is small the overhead is
//! near zero, and [`op::AutoOp`] converts automatically only when the
//! longest row is ≥ 4× the mean *and* the measured overhead stays under
//! 50 % (a caller that wants one format builds that type directly).
//! Because every format accumulates each row in ascending column order,
//! products — and whole solver runs — are **bitwise identical** across
//! formats.
//!
//! Build without the feature (`--no-default-features`) for a strictly
//! serial library with identical numerical results. Measure the speedups
//! with `cargo bench -p mspcg-bench --bench spmv` (serial vs parallel
//! groups on a 512×512 red/black Poisson problem, plus CSR vs SELL-C-σ on
//! the wide-row arrow family).

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod lanczos;
pub mod op;
pub mod par;
pub mod partition;
pub mod permute;
pub mod sellcs;
pub mod tuning;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use op::{AutoOp, SparseOp};
pub use partition::Partition;
pub use permute::Permutation;
pub use sellcs::SellCsMatrix;
pub use tuning::{MatrixFormat, PcgVariant, PolyKind, PrecondKind};
