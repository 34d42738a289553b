//! The operator abstraction the solver stack is generic over.
//!
//! Adams' m-step PCG spends essentially all of its time in two places: the
//! sparse matrix–vector product `K·p` and the multicolor splitting sweeps.
//! The paper's machine analysis (§3–4) assumes those kernels vectorize and
//! parallelize *regardless of the storage layout* — the CYBER runs them by
//! diagonals, the Finite Element Machine by rows. [`SparseOp`] is that
//! assumption as a trait: any format that can
//!
//! 1. report its shape and stored-entry count,
//! 2. run a **serial SpMV over a row range** in ascending-column order, and
//! 3. describe a **work-weighted chunk layout** for the parallel driver
//!
//! plugs into `pcg_solve_into`, `pcg_solve_multi`, the SPMD
//! `ParallelMStepPcg` and the preconditioner constructors without touching
//! any of them. [`crate::csr::CsrMatrix`], [`crate::dense::DenseMatrix`]
//! and [`crate::sellcs::SellCsMatrix`] implement it; future formats (blocked CSR, NUMA-partitioned) drop in
//! the same way.
//!
//! ## Determinism contract
//!
//! [`SparseOp::mul_vec_range_into`] / [`SparseOp::mul_vec_axpy_range`]
//! must accumulate each row into a single scalar in **ascending column
//! order** — the CSR row loop's order. Because every parallel entry point
//! computes each row independently of the chunk layout, two formats that
//! store the same matrix then produce **bitwise-identical** products, for
//! any thread count, and whole solver runs replay identically across
//! formats (`tests/par_determinism.rs` asserts this end to end).
//!
//! ## Scheduling hook
//!
//! The provided [`SparseOp::mul_vec_into`] / [`SparseOp::mul_vec_axpy`]
//! drivers reuse the nnz-weighted chunk machinery of [`crate::par`]: the
//! layout comes from [`par::spmv_layout`]`(self.nnz())` and
//! [`SparseOp::chunk_rows`] maps chunk indices to row ranges. The default
//! `chunk_rows` assumes uniform work per row (exact for dense);
//! formats with a row-length prefix sum (CSR) or slice table (SELL-C-σ)
//! override it — or override the whole driver — so dense-ish row runs
//! cannot serialize the pool.
//!
//! ## Blocks of right-hand sides
//!
//! [`SparseOp::mul_block_into`] multiplies `W` right-hand sides stored
//! interleaved (column `j` of row `i` at `i·W + j`) — the batched solver's
//! lockstep blocks. Its default goes column by column through
//! [`SparseOp::mul_vec_into`] ([`by_column`]), so every format works
//! unchanged; [`CsrMatrix`] overrides it with its row kernel at width `W`,
//! which loads each stored entry once for the whole block. Either way each
//! column is bitwise its own `mul_vec_into`.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::par::{self, ParSlice};
use crate::sellcs::SellCsMatrix;
use crate::tuning::{self, MatrixFormat};
use std::ops::Range;

/// A sparse (or dense) linear operator with deterministic row-parallel
/// SpMV. See the [module docs](self) for the contract.
pub trait SparseOp: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Stored scalars — the work measure the adaptive thresholds and the
    /// nnz-weighted schedules consume. Formats with structural padding
    /// count the padded storage they actually stream.
    fn nnz(&self) -> usize;

    /// `(rows, cols)`.
    fn dims(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Serial SpMV over a row range: `y[k] ← (A·x)[rows.start + k]`, each
    /// row accumulated into one scalar in ascending column order (the
    /// cross-format determinism contract).
    ///
    /// # Panics
    /// Implementations panic if `y.len() != rows.len()`, the range is out
    /// of bounds, or `x.len() != cols()` — a longer `x` as well as a
    /// shorter one (the CSR kernel reads `x` unchecked on the strength of
    /// that one check).
    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>);

    /// Serial fused SpMV-accumulate over a row range:
    /// `y[k] += a·(A·x)[rows.start + k]`, same ordering contract as
    /// [`SparseOp::mul_vec_range_into`].
    ///
    /// # Panics
    /// Same conditions as [`SparseOp::mul_vec_range_into`].
    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>);

    /// Visit the stored entries of row `i` as `(col, value)` pairs in
    /// ascending column order. This is the **structure hook** for
    /// format-generic consumers that need entries rather than products —
    /// splitting construction, diagonal extraction, format conversion —
    /// not a hot-loop API. Formats whose storage cannot distinguish a
    /// stored zero from padding skip zero values.
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64));

    /// Row range owned by chunk `c` of the nnz-weighted parallel schedule,
    /// where `chunk_nnz` comes from [`par::spmv_layout`]`(self.nnz())`.
    /// Chunks must be contiguous, disjoint, ascending and exhaustive over
    /// `0..rows()`, and must depend only on the matrix structure (never
    /// the thread count). The default assumes uniform work per row.
    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        let rows = self.rows();
        let (_, nchunks) = par::spmv_layout(self.nnz());
        debug_assert!(chunk_nnz > 0 && nchunks > 0);
        let per = rows.div_ceil(nchunks.max(1)).max(1);
        (c * per).min(rows)..((c + 1) * per).min(rows)
    }

    /// `y ← A·x`: the adaptive serial/parallel entry point. The provided
    /// driver runs serially below [`tuning::par_min_nnz`] stored entries
    /// and otherwise distributes [`SparseOp::chunk_rows`] chunks over the
    /// worker pool, writing disjoint row ranges — bitwise identical to the
    /// serial path by the row-independence of the range kernel.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()` or `y.len() != rows()`.
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.rows(), "mul_vec: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::par_min_nnz());
        if threads <= 1 {
            self.mul_vec_range_into(x, y, 0..self.rows());
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = self.chunk_rows(chunk_nnz, c);
            // SAFETY: chunk row ranges are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(rows.clone()) };
            self.mul_vec_range_into(x, out, rows);
        });
    }

    /// `y ← y + a·(A·x)`: fused accumulate twin of
    /// [`SparseOp::mul_vec_into`], same driver and determinism contract.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()` or `y.len() != rows()`.
    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "mul_vec_axpy: x length mismatch");
        assert_eq!(y.len(), self.rows(), "mul_vec_axpy: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::par_min_nnz());
        if threads <= 1 {
            self.mul_vec_axpy_range(a, x, y, 0..self.rows());
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = self.chunk_rows(chunk_nnz, c);
            // SAFETY: chunk row ranges are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(rows.clone()) };
            self.mul_vec_axpy_range(a, x, out, rows);
        });
    }

    /// `y ← A·x` on `W` right-hand sides stored interleaved — column `j`
    /// of row `i` at `i·W + j`, in `x` and `y` alike — for the columns
    /// with `active[j]`: each such column of `y` is bitwise the
    /// [`SparseOp::mul_vec_into`] of that column of `x`. An inactive
    /// column of `y` is either left as it is or overwritten with the
    /// product of the same column of `x`.
    ///
    /// The default goes column by column through
    /// [`SparseOp::mul_vec_into`], copying each active column into
    /// `scratch` (at least `rows() + cols()` values) and back.
    /// [`CsrMatrix`] overrides it with a kernel that loads each stored
    /// entry once per block and ignores `scratch`.
    ///
    /// # Panics
    /// Panics if `x.len() != W·cols()` or `y.len() != W·rows()`, and in
    /// the default if `scratch` is too short.
    fn mul_block_into<const W: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        active: &[bool; W],
        scratch: &mut [f64],
    ) {
        let (rows, cols) = self.dims();
        assert_eq!(x.len(), W * cols, "mul_block: x length mismatch");
        assert_eq!(y.len(), W * rows, "mul_block: y length mismatch");
        by_column(x, y, active, scratch, |x, y, _| self.mul_vec_into(x, y));
    }

    /// Allocating `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols()`.
    fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Write the main diagonal into `out` (`0.0` where unstored) — the
    /// hook the Jacobi-scaled polynomial preconditioner builds from.
    ///
    /// # Panics
    /// Panics if `out.len() != rows()`.
    fn diag_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows(), "diag_into: length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let mut d = 0.0;
            self.visit_row(i, &mut |j, v| {
                if j == i {
                    d = v;
                }
            });
            *o = d;
        }
    }

    /// Materialize a CSR copy of the operator, row by row through
    /// [`SparseOp::visit_row`] and validated by
    /// [`CsrMatrix::from_raw_parts`] — the bridge format-generic
    /// constructors (multicolor SSOR, the SPMD solver's sweep table) use.
    /// Entries arrive in ascending column order, so the copy reproduces
    /// the exact stored values and ordering the SpMV kernels stream.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfBounds`] if `visit_row` yields a column
    /// `≥ cols()`, [`SparseError::InvalidPartition`] if it yields a row's
    /// columns out of ascending order or twice.
    fn try_csr_copy(&self) -> Result<CsrMatrix, SparseError> {
        let rows = self.rows();
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for i in 0..rows {
            self.visit_row(i, &mut |j, v| {
                // Saturate rather than wrap, so a column past `u32` cannot
                // alias an in-range one and slip past the bound check.
                col_idx.push(u32::try_from(j).unwrap_or(u32::MAX));
                values.push(v);
            });
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix::from_raw_parts(rows, self.cols(), row_ptr, col_idx, values)
    }

    /// [`SparseOp::try_csr_copy`] for operators known to keep the
    /// `visit_row` contract.
    ///
    /// # Panics
    /// Panics where [`SparseOp::try_csr_copy`] returns an error.
    fn csr_copy(&self) -> CsrMatrix {
        self.try_csr_copy()
            .expect("visit_row produced an invalid row structure")
    }
}

/// The default of the block methods — [`SparseOp::mul_block_into`] and
/// `mspcg-core`'s preconditioner and splitting ones: run `f(x_j, y_j,
/// rest)` on each active column `j` of two interleaved `W`-column blocks
/// (column `j` of row `i` at `i·W + j`), through plain-vector copies of
/// the column kept at the front of `scratch`; `rest` is the scratch after
/// them. Width 1 needs no copy: `f` gets `x`, `y` and all of `scratch`.
///
/// # Panics
/// If a length is not a multiple of `W`, or `scratch` is shorter than one
/// column of `x` and one of `y` together.
pub fn by_column<const W: usize>(
    x: &[f64],
    y: &mut [f64],
    active: &[bool; W],
    scratch: &mut [f64],
    mut f: impl FnMut(&[f64], &mut [f64], &mut [f64]),
) {
    assert!(
        x.len().is_multiple_of(W) && y.len().is_multiple_of(W),
        "by_column: length not a multiple of the block width {W}"
    );
    if W == 1 {
        if active[0] {
            f(x, y, scratch);
        }
        return;
    }
    let (x_col, rest) = scratch.split_at_mut(x.len() / W);
    let (y_col, rest) = rest.split_at_mut(y.len() / W);
    for j in (0..W).filter(|&j| active[j]) {
        for (v, row) in x_col.iter_mut().zip(x.chunks_exact(W)) {
            *v = row[j];
        }
        f(x_col, y_col, rest);
        for (row, &v) in y.chunks_exact_mut(W).zip(y_col.iter()) {
            row[j] = v;
        }
    }
}

/// Forward every method — including the parallel drivers and scheduling
/// hooks a format may have specialized — through a pointer-like wrapper,
/// so `&A` and `Arc<A>` are operators wherever `A` is (the solver stack
/// holds systems behind `Arc`).
macro_rules! deref_sparse_op {
    ([$($g:tt)*] $ty:ty) => {
        impl<$($g)*> SparseOp for $ty {
            fn rows(&self) -> usize {
                (**self).rows()
            }
            fn cols(&self) -> usize {
                (**self).cols()
            }
            fn nnz(&self) -> usize {
                (**self).nnz()
            }
            fn dims(&self) -> (usize, usize) {
                (**self).dims()
            }
            fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
                (**self).mul_vec_range_into(x, y, rows)
            }
            fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
                (**self).mul_vec_axpy_range(a, x, y, rows)
            }
            fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
                (**self).visit_row(i, visit)
            }
            fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
                (**self).chunk_rows(chunk_nnz, c)
            }
            fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
                (**self).mul_vec_into(x, y)
            }
            fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
                (**self).mul_vec_axpy(a, x, y)
            }
            fn mul_block_into<const W: usize>(
                &self,
                x: &[f64],
                y: &mut [f64],
                active: &[bool; W],
                scratch: &mut [f64],
            ) {
                (**self).mul_block_into(x, y, active, scratch)
            }
            fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
                (**self).mul_vec(x)
            }
            fn diag_into(&self, out: &mut [f64]) {
                (**self).diag_into(out)
            }
            fn try_csr_copy(&self) -> Result<CsrMatrix, SparseError> {
                (**self).try_csr_copy()
            }
            fn csr_copy(&self) -> CsrMatrix {
                (**self).csr_copy()
            }
        }
    };
}

deref_sparse_op!(['a, T: SparseOp + ?Sized] &'a T);
deref_sparse_op!([T: SparseOp + Send + Sync + ?Sized] std::sync::Arc<T>);

impl SparseOp for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        CsrMatrix::mul_vec_range_into(self, x, y, rows);
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        CsrMatrix::mul_vec_axpy_range(self, a, x, y, rows);
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        for (j, v) in self.row_entries(i) {
            visit(j, v);
        }
    }

    /// `row_ptr` prefix-sum bucketing ([`par::spmv_chunk_rows`]).
    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        par::spmv_chunk_rows(self.row_ptr(), chunk_nnz, c)
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec_into(self, x, y);
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec_axpy(self, a, x, y);
    }

    /// The interleaved-block row kernel ([`CsrMatrix::mul_block_into`]):
    /// computes every column, active or not, and needs no scratch.
    fn mul_block_into<const W: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        _active: &[bool; W],
        _scratch: &mut [f64],
    ) {
        CsrMatrix::mul_block_into::<W>(self, x, y);
    }

    fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        CsrMatrix::mul_vec(self, x)
    }

    fn try_csr_copy(&self) -> Result<CsrMatrix, SparseError> {
        Ok(self.clone())
    }
}

impl SparseOp for crate::dense::DenseMatrix {
    fn rows(&self) -> usize {
        crate::dense::DenseMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        crate::dense::DenseMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        crate::dense::DenseMatrix::rows(self) * self.cols()
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols(), "dense range mul: x length mismatch");
        assert!(
            rows.end <= crate::dense::DenseMatrix::rows(self),
            "dense range mul: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "dense range mul: y length mismatch");
        for (k, i) in rows.enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (j, &v) in row.iter().enumerate() {
                acc += v * x[j];
            }
            y[k] = acc;
        }
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        assert_eq!(x.len(), self.cols(), "dense range axpy: x length mismatch");
        assert!(
            rows.end <= crate::dense::DenseMatrix::rows(self),
            "dense range axpy: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "dense range axpy: y length mismatch");
        for (k, i) in rows.enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (j, &v) in row.iter().enumerate() {
                acc += v * x[j];
            }
            y[k] += a * acc;
        }
    }

    /// Skips exact zeros, so the CSR copy of a mostly-zero dense matrix is
    /// genuinely sparse.
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        for (j, &v) in self.row(i).iter().enumerate() {
            if v != 0.0 {
                visit(j, v);
            }
        }
    }
}

/// Row-shape irregularity at which [`AutoOp`] prefers SELL-C-σ: the
/// longest row carries at least this many times the mean row length.
pub const AUTO_WIDE_ROW_RATIO: usize = 4;

/// Padding budget for the automatic choice: a SELL-C-σ conversion whose
/// padded storage exceeds the stored entries by more than this fraction is
/// discarded in favor of CSR (the σ-sort failed to homogenize the slices,
/// so the padding would cost more than the layout wins).
pub const AUTO_MAX_PADDING: f64 = 0.5;

/// An operator whose storage format is chosen at construction: CSR for
/// regular row shapes, SELL-C-σ for wide/irregular rows. Consumers stay
/// generic over [`SparseOp`]; `AutoOp` is the convenience dispatcher for
/// callers that want the library to decide — a caller that wants one
/// format builds that type (or the matching `AutoOp` variant) directly.
#[derive(Debug, Clone)]
pub enum AutoOp {
    /// Compressed sparse row.
    Csr(CsrMatrix),
    /// Sliced ELL with sorting.
    SellCs(SellCsMatrix),
}

impl AutoOp {
    /// Choose a format for `a`: SELL-C-σ when the longest row is at least
    /// [`AUTO_WIDE_ROW_RATIO`] × the mean row length (the wide-row shapes
    /// whose chunk imbalance SELL-C-σ exists to fix) **and** the converted
    /// padding overhead stays within [`AUTO_MAX_PADDING`]; CSR otherwise.
    ///
    /// The SELL-C-σ conversion takes its `(C, σ)` from
    /// [`crate::sellcs::autotune_params`], which scans the row-length
    /// histogram instead of assuming the fixed defaults: uniform shapes
    /// get the widest slices with no sorting, heavy-tailed shapes whatever
    /// sliced layout measures the least padding.
    pub fn from_csr(a: CsrMatrix) -> AutoOp {
        let rows = CsrMatrix::rows(&a);
        if rows == 0 || CsrMatrix::nnz(&a) == 0 {
            return AutoOp::Csr(a);
        }
        let mean = CsrMatrix::nnz(&a).div_ceil(rows);
        if a.max_row_nnz() >= AUTO_WIDE_ROW_RATIO * mean.max(1) {
            let sell = SellCsMatrix::from_csr_autotuned(&a);
            if sell.padding_ratio() <= AUTO_MAX_PADDING {
                return AutoOp::SellCs(sell);
            }
        }
        AutoOp::Csr(a)
    }

    /// Which format was chosen.
    pub fn format(&self) -> MatrixFormat {
        match self {
            AutoOp::Csr(_) => MatrixFormat::Csr,
            AutoOp::SellCs(_) => MatrixFormat::SellCs,
        }
    }
}

macro_rules! auto_dispatch {
    ($self:ident, $m:ident ( $($arg:expr),* )) => {
        match $self {
            AutoOp::Csr(a) => SparseOp::$m(a, $($arg),*),
            AutoOp::SellCs(a) => SparseOp::$m(a, $($arg),*),
        }
    };
}

impl SparseOp for AutoOp {
    fn rows(&self) -> usize {
        auto_dispatch!(self, rows())
    }

    fn cols(&self) -> usize {
        auto_dispatch!(self, cols())
    }

    fn nnz(&self) -> usize {
        auto_dispatch!(self, nnz())
    }

    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        auto_dispatch!(self, mul_vec_range_into(x, y, rows))
    }

    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        auto_dispatch!(self, mul_vec_axpy_range(a, x, y, rows))
    }

    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        auto_dispatch!(self, visit_row(i, visit))
    }

    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        auto_dispatch!(self, chunk_rows(chunk_nnz, c))
    }

    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        auto_dispatch!(self, mul_vec_into(x, y))
    }

    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        auto_dispatch!(self, mul_vec_axpy(a, x, y))
    }

    fn mul_block_into<const W: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        active: &[bool; W],
        scratch: &mut [f64],
    ) {
        auto_dispatch!(self, mul_block_into(x, y, active, scratch))
    }

    fn diag_into(&self, out: &mut [f64]) {
        auto_dispatch!(self, diag_into(out))
    }

    fn try_csr_copy(&self) -> Result<CsrMatrix, SparseError> {
        auto_dispatch!(self, try_csr_copy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut a = CooMatrix::new(4, 4);
        for i in 0..4 {
            a.push(i, i, 4.0).unwrap();
            if i + 1 < 4 {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    /// SpMV through a generic `A: SparseOp` — the call shape the solver
    /// stack uses after the refactor.
    fn generic_spmv<A: SparseOp>(a: &A, x: &[f64]) -> Vec<f64> {
        a.mul_vec(x)
    }

    #[test]
    fn trait_dispatch_matches_inherent_for_csr() {
        let a = sample();
        let x = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(generic_spmv(&a, &x), CsrMatrix::mul_vec(&a, &x));
        assert_eq!(SparseOp::nnz(&a), CsrMatrix::nnz(&a));
        assert_eq!(SparseOp::dims(&a), (4, 4));
    }

    #[test]
    fn dense_agrees_with_csr_through_the_trait() {
        let a = sample();
        let dense = a.to_dense();
        let x = [0.25, -1.0, 2.0, 0.125];
        // Power-of-two data: the row-wise gathers agree exactly.
        assert_eq!(generic_spmv(&dense, &x), CsrMatrix::mul_vec(&a, &x));
        let mut acc1 = vec![1.0; 4];
        let mut acc2 = vec![1.0; 4];
        SparseOp::mul_vec_axpy(&a, -2.0, &x, &mut acc1);
        SparseOp::mul_vec_axpy(&dense, -2.0, &x, &mut acc2);
        assert_eq!(acc1, acc2);
    }

    #[test]
    fn default_chunk_rows_partition_all_rows() {
        let dense = crate::dense::DenseMatrix::identity(300);
        let (chunk_nnz, nchunks) = par::spmv_layout(SparseOp::nnz(&dense));
        let mut covered = Vec::new();
        for c in 0..nchunks {
            let r = SparseOp::chunk_rows(&dense, chunk_nnz, c);
            assert!(r.start <= r.end);
            covered.extend(r);
        }
        assert_eq!(covered, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn diag_into_and_csr_copy_round_trip() {
        let a = sample();
        let mut d = vec![0.0; 4];
        SparseOp::diag_into(&a.to_dense(), &mut d);
        assert_eq!(d, vec![4.0; 4]);
        assert_eq!(SparseOp::csr_copy(&a), a);
        assert_eq!(SparseOp::csr_copy(&a.to_dense()), a);
    }

    #[test]
    fn auto_op_keeps_csr_for_regular_rows() {
        let auto = AutoOp::from_csr(sample());
        assert_eq!(auto.format(), MatrixFormat::Csr);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(generic_spmv(&auto, &x), CsrMatrix::mul_vec(&sample(), &x));
    }

    #[test]
    fn auto_op_picks_sellcs_for_arrow_matrix() {
        // Dense head rows over a sparse body: the wide-row family. A full
        // slice of dense rows keeps the padding budget honest (2 dense
        // rows sharing a slice with 6 short ones would be rejected by the
        // padding check, correctly).
        let n = 600usize;
        let head = 8usize;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0).unwrap();
        }
        for d in 0..head {
            for j in head..n {
                coo.push_sym(d, j, -1e-3 * (d + 1) as f64).unwrap();
            }
        }
        let a = coo.to_csr();
        let auto = AutoOp::from_csr(a.clone());
        assert_eq!(auto.format(), MatrixFormat::SellCs);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
        let want = CsrMatrix::mul_vec(&a, &x);
        let got = generic_spmv(&auto, &x);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
