//! Compressed Sparse Row storage.
//!
//! CSR is the workhorse format of the workspace: the FEM assemblers produce
//! it (the plate directly, Poisson via [`crate::coo::CooMatrix`]), the
//! multicolor SSOR preconditioner sweeps over its rows in color order, and
//! every machine simulator derives its own layout from it.
//!
//! Invariants maintained by construction and checked by
//! [`CsrMatrix::from_raw_parts`]:
//!
//! * `row_ptr` is nondecreasing with `row_ptr[0] == 0` and
//!   `row_ptr[rows] == nnz`,
//! * within each row, column indices are strictly increasing (sorted, no
//!   duplicates) and in bounds.
//!
//! ## The row kernel
//!
//! The SpMV range kernels behind the pool SpMV, the batch lanes and the
//! polynomial msolve, and the reference SSOR half-sums, run through one
//! gather: it walks a row's `col_idx`/`values` slices in lockstep and
//! reads `x[col]` **without a per-entry bounds check**. Its
//! soundness is the column bound above: the structure is immutable after
//! construction, so once a kernel has checked `x.len() == cols()` (once
//! per call), every stored column indexes `x` in bounds. Each row is
//! still summed in ascending column order, so the products are bitwise
//! those of the checked loop. The SSOR color sweeps and power steps of
//! `mspcg-core`'s `SweepTable` read `x` the same way.
//!
//! The gather is generic over a column count `W`: on `W` right-hand sides
//! stored interleaved ([`CsrMatrix::mul_block_into`], the batched solver's
//! lockstep blocks) it loads each stored value and column index once for
//! all `W` sums. Each column is still summed in ascending column order, so
//! every column is bitwise its width-1 product, and width 1 is the plain
//! SpMV.

use crate::error::SparseError;
use crate::par;
use crate::permute::Permutation;
use crate::tuning;

/// Sparse matrix in CSR format with sorted, deduplicated columns.
///
/// ```
/// use mspcg_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0)?;
/// coo.push_sym(0, 1, -1.0)?;
/// coo.push(1, 1, 4.0)?;
/// let a = coo.to_csr();
/// assert_eq!(a.mul_vec(&[1.0, 2.0]), vec![2.0, 7.0]);
/// assert!(a.is_symmetric(0.0));
/// # Ok::<(), mspcg_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays, validating every invariant.
    ///
    /// # Errors
    /// * [`SparseError::InvalidPartition`] if `row_ptr` is malformed,
    /// * [`SparseError::IndexOutOfBounds`] for any out-of-range column,
    /// * [`SparseError::InvalidPartition`] if columns are unsorted or
    ///   duplicated within a row.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != rows + 1 || row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len()
        {
            return Err(SparseError::InvalidPartition {
                reason: format!(
                    "row_ptr length {} (expected {}), first {}, last {} (expected nnz {})",
                    row_ptr.len(),
                    rows + 1,
                    row_ptr.first().copied().unwrap_or(usize::MAX),
                    row_ptr.last().copied().unwrap_or(usize::MAX),
                    col_idx.len()
                ),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::ShapeMismatch {
                left: (col_idx.len(), 1),
                right: (values.len(), 1),
            });
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::InvalidPartition {
                    reason: format!("row_ptr decreases at row {r}"),
                });
            }
            let mut prev: Option<u32> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c as usize >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c as usize,
                        bound: cols,
                        axis: "col",
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidPartition {
                            reason: format!("unsorted/duplicate column {c} in row {r}"),
                        });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: d.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array (length `rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at `(i, j)`, or `0.0` when the entry is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "get out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Maximum number of stored entries in any row (the paper's plate
    /// problem guarantees ≤ 14, matching the Fig. 2 stencil).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// `y ← A·x` allocating the result.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y ← A·x` into a caller-provided buffer (no allocation; this is the
    /// hot kernel of every CG iteration).
    ///
    /// Large matrices run row-parallel on the `mspcg-sparse` worker pool
    /// (`par` feature) over **nnz-weighted** chunks (see
    /// [`par::spmv_layout`]): chunk boundaries follow the `row_ptr` prefix
    /// sum, so a run of dense-ish rows is split across chunks instead of
    /// serializing the pool. Rows are independent and chunk boundaries
    /// depend only on the matrix structure, so the result is bitwise
    /// identical to the serial path for any thread count.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_block_into::<1>(x, y);
    }

    /// [`CsrMatrix::mul_vec_into`] on `W` right-hand sides stored
    /// interleaved (column `j` of row `i` at `i·W + j`, in `x` and `y`
    /// alike): every stored value and column index is loaded once for all
    /// `W` products. Column `j` of `y` is bitwise `mul_vec_into` of column
    /// `j` of `x`; width 1 is `mul_vec_into` itself.
    ///
    /// # Panics
    /// Panics if `x.len() != W·cols` or `y.len() != W·rows`.
    pub fn mul_block_into<const W: usize>(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), W * self.cols, "mul_vec: x length mismatch");
        assert_eq!(y.len(), W * self.rows, "mul_vec: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::par_min_nnz());
        if threads <= 1 {
            self.mul_block_range_into::<W>(x, y, 0..self.rows);
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = par::ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = par::spmv_chunk_rows(&self.row_ptr, chunk_nnz, c);
            // SAFETY: row chunks are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(W * rows.start..W * rows.end) };
            self.mul_block_range_into::<W>(x, out, rows);
        });
    }

    /// Serial SpMV over a row range: `y[k] ← (A·x)[rows.start + k]`. The
    /// building block shared by the row-parallel [`CsrMatrix::mul_vec_into`]
    /// and by `mspcg-parallel`'s SPMD strips.
    ///
    /// # Panics
    /// Panics if `y.len() != rows.len()`, the range is out of bounds, or
    /// `x.len() != cols`.
    #[inline]
    pub fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: std::ops::Range<usize>) {
        self.mul_block_range_into::<1>(x, y, rows);
    }

    /// The row loop of [`CsrMatrix::mul_block_into`]: `W` interleaved
    /// columns of the rows `rows`, into `y` (`W·rows.len()` values).
    #[inline]
    fn mul_block_range_into<const W: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        rows: std::ops::Range<usize>,
    ) {
        assert!(rows.end <= self.rows, "mul_vec_range: rows out of bounds");
        assert_eq!(y.len(), W * rows.len(), "mul_vec_range: y length mismatch");
        assert_eq!(x.len(), W * self.cols, "mul_vec_range: x length mismatch");
        for (yk, i) in y.chunks_exact_mut(W).zip(rows) {
            // SAFETY: `x.len() == W·cols` is asserted above.
            let sums =
                unsafe { self.gather::<W>(self.row_ptr[i]..self.row_ptr[i + 1], x.as_ptr()) };
            yk.copy_from_slice(&sums);
        }
    }

    /// `y ← y + a·(A·x)` fused kernel (used by residual updates); row
    /// parallel over nnz-weighted chunks like [`CsrMatrix::mul_vec_into`].
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec_axpy: x length mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec_axpy: y length mismatch");
        let threads = par::threads_for(self.nnz(), tuning::par_min_nnz());
        if threads <= 1 {
            self.mul_vec_axpy_range(a, x, y, 0..self.rows);
            return;
        }
        let (chunk_nnz, nchunks) = par::spmv_layout(self.nnz());
        let ys = par::ParSlice::new(y);
        par::for_each_chunk(nchunks, threads, &|c| {
            let rows = par::spmv_chunk_rows(&self.row_ptr, chunk_nnz, c);
            // SAFETY: row chunks are disjoint and each claimed once.
            let out = unsafe { ys.slice_mut(rows.clone()) };
            self.mul_vec_axpy_range(a, x, out, rows);
        });
    }

    /// Serial fused SpMV-accumulate over a row range:
    /// `y[k] += a·(A·x)[rows.start + k]`.
    ///
    /// # Panics
    /// Panics if `y.len() != rows.len()`, the range is out of bounds, or
    /// `x.len() != cols`.
    #[inline]
    pub fn mul_vec_axpy_range(
        &self,
        a: f64,
        x: &[f64],
        y: &mut [f64],
        rows: std::ops::Range<usize>,
    ) {
        assert!(
            rows.end <= self.rows,
            "mul_vec_axpy_range: rows out of bounds"
        );
        assert_eq!(y.len(), rows.len(), "mul_vec_axpy_range: y length mismatch");
        assert_eq!(x.len(), self.cols, "mul_vec_axpy_range: x length mismatch");
        for (yk, i) in y.iter_mut().zip(rows) {
            // SAFETY: `x.len() == cols` is asserted above.
            let [sum] =
                unsafe { self.gather::<1>(self.row_ptr[i]..self.row_ptr[i + 1], x.as_ptr()) };
            *yk += a * sum;
        }
    }

    /// The one unchecked gather behind every row kernel above:
    /// `Σ values[k]·x[col_idx[k]]` over `entries`, in ascending order, for
    /// each of `W` columns stored interleaved (column `j` of row `c` at
    /// `x[c·W + j]`; width 1 is a plain vector). Every value and column
    /// index is loaded once for all `W` sums, and the `W` sums are
    /// independent dependency chains.
    ///
    /// # Safety
    /// `x` must point at `W·cols` readable `f64`s, none of them written
    /// concurrently at a column of `entries`.
    #[inline(always)]
    unsafe fn gather<const W: usize>(
        &self,
        entries: std::ops::Range<usize>,
        x: *const f64,
    ) -> [f64; W] {
        let cols = &self.col_idx[entries.clone()];
        let vals = &self.values[entries];
        let mut acc = [0.0; W];
        for (&c, &v) in cols.iter().zip(vals) {
            debug_assert!((c as usize) < self.cols, "column {c} out of bounds");
            // SAFETY: every stored column is below `cols` — the invariant
            // `from_raw_parts` checks and every constructor in this module
            // preserves (the structure is never mutated afterwards) — and
            // the caller guarantees `x` spans `W·cols` elements.
            let xc = unsafe { x.add(W * c as usize) };
            for (j, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `j < W`, inside row `c`'s `W` elements.
                *acc += v * unsafe { *xc.add(j) };
            }
        }
        acc
    }

    /// Transpose (always produces sorted CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let dst = row_ptr[c];
                col_idx[dst] = r as u32;
                values[dst] = self.values[k];
                row_ptr[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// Check symmetry to within absolute tolerance `tol`.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] for rectangular input,
    /// [`SparseError::NotSymmetric`] naming the first failing pair.
    pub fn check_symmetric(&self, tol: f64) -> Result<(), SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let t = self.transpose();
        for i in 0..self.rows {
            let mut a = self.row_entries(i);
            let mut b = t.row_entries(i);
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (Some((ca, va)), Some((cb, vb))) => {
                        if ca != cb || (va - vb).abs() > tol {
                            return Err(SparseError::NotSymmetric {
                                row: i,
                                col: ca.min(cb),
                            });
                        }
                    }
                    (Some((c, _)), None) | (None, Some((c, _))) => {
                        return Err(SparseError::NotSymmetric { row: i, col: c });
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience wrapper for `check_symmetric(tol).is_ok()`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.check_symmetric(tol).is_ok()
    }

    /// Extract the diagonal as a dense vector (zeros where unstored).
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] for rectangular input.
    pub fn diag(&self) -> Result<Vec<f64>, SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).collect())
    }

    /// Symmetric two-sided diagonal scaling `D A D` with `D = diag(d)` —
    /// the *eager* counterpart of the matrix-free `D·(A·(D·x))` scaling the
    /// format-generic spectrum estimators apply; kept for callers that
    /// want the scaled matrix itself (the unit-diagonal scaling of
    /// Johnson–Micchelli–Paul §2.2).
    ///
    /// # Panics
    /// Panics if `d.len() != rows`.
    pub fn scale_sym(&self, d: &[f64]) -> CsrMatrix {
        assert_eq!(d.len(), self.rows, "scale_sym: length mismatch");
        assert_eq!(self.rows, self.cols, "scale_sym: matrix must be square");
        let mut out = self.clone();
        for i in 0..self.rows {
            for k in out.row_ptr[i]..out.row_ptr[i + 1] {
                let j = out.col_idx[k] as usize;
                out.values[k] *= d[i] * d[j];
            }
        }
        out
    }

    /// Symmetric permutation `B = A(p, p)`: `B[i][j] = A[p(i)][p(j)]`, where
    /// `p` maps *new* indices to *old* indices. This is how the multicolor
    /// ordering reorders the stiffness matrix into the 6-block form (3.1).
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] if the matrix is rectangular,
    /// [`SparseError::ShapeMismatch`] if the permutation length differs.
    pub fn permute_sym(&self, p: &Permutation) -> Result<CsrMatrix, SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if p.len() != self.rows {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (p.len(), p.len()),
            });
        }
        let inv = p.inverse();
        let mut row_ptr = vec![0usize; self.rows + 1];
        for new_i in 0..self.rows {
            row_ptr[new_i + 1] = row_ptr[new_i] + self.row_nnz(p.new_to_old(new_i));
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        let mut scratch: Vec<(u32, f64)> = Vec::with_capacity(self.max_row_nnz());
        for new_i in 0..self.rows {
            let old_i = p.new_to_old(new_i);
            scratch.clear();
            for (old_j, v) in self.row_entries(old_i) {
                scratch.push((inv.old_to_new(old_j) as u32, v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let base = row_ptr[new_i];
            for (k, &(c, v)) in scratch.iter().enumerate() {
                col_idx[base + k] = c;
                values[base + k] = v;
            }
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Gershgorin bounds `[min_i(a_ii − R_i), max_i(a_ii + R_i)]` where
    /// `R_i` is the off-diagonal absolute row sum. For SPD matrices the lower
    /// bound is clamped at a small positive value when it would be ≤ 0.
    pub fn gershgorin_interval(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.rows {
            let mut d = 0.0;
            let mut radius = 0.0;
            for (j, v) in self.row_entries(i) {
                if j == i {
                    d = v;
                } else {
                    radius += v.abs();
                }
            }
            lo = lo.min(d - radius);
            hi = hi.max(d + radius);
        }
        if self.rows == 0 {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Dense copy (row-major) — for tests and small-problem eigenanalysis.
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// The set of occupied diagonal offsets `j − i`, sorted ascending — the
    /// structure the CYBER "multiplication by diagonals" scheme stores
    /// (Madsen–Rodrigue–Karush 1976).
    pub fn diagonal_offsets(&self) -> Vec<isize> {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..self.rows {
            for (j, _) in self.row_entries(i) {
                seen.insert(j as isize - i as isize);
            }
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut a = CooMatrix::new(3, 3);
        for i in 0..3 {
            a.push(i, i, 4.0).unwrap();
        }
        a.push_sym(0, 1, -1.0).unwrap();
        a.push_sym(1, 2, -1.0).unwrap();
        a.to_csr()
    }

    #[test]
    fn from_raw_parts_validates_row_ptr() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn from_raw_parts_rejects_unsorted_columns() {
        let err = CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::InvalidPartition { .. })));
    }

    #[test]
    fn from_raw_parts_rejects_out_of_bounds_column() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn mul_vec_axpy_accumulates() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        a.mul_vec_axpy(-1.0, &x, &mut y);
        assert_eq!(y, vec![-1.0, -3.0, -9.0]);
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let a = sample();
        assert_eq!(a.transpose(), a);
    }

    #[test]
    fn transpose_rectangular() {
        let mut c = CooMatrix::new(2, 3);
        c.push(0, 2, 5.0).unwrap();
        c.push(1, 0, -2.0).unwrap();
        let a = c.to_csr();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), -2.0);
    }

    #[test]
    fn symmetry_check_detects_asymmetry() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 1, 1.0).unwrap();
        c.push(1, 0, 2.0).unwrap();
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, 1.0).unwrap();
        let a = c.to_csr();
        assert!(!a.is_symmetric(1e-12));
        assert!(a.is_symmetric(1.5));
    }

    #[test]
    fn diag_and_gershgorin() {
        let a = sample();
        assert_eq!(a.diag().unwrap(), vec![4.0, 4.0, 4.0]);
        let (lo, hi) = a.gershgorin_interval();
        assert_eq!(lo, 2.0);
        assert_eq!(hi, 6.0);
    }

    #[test]
    fn permute_sym_reverse_round_trip() {
        let a = sample();
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = a.permute_sym(&p).unwrap();
        assert_eq!(b.get(0, 0), a.get(2, 2));
        assert_eq!(b.get(0, 1), a.get(2, 1));
        let back = b.permute_sym(&p).unwrap(); // reversal is an involution
        assert_eq!(back, a);
    }

    #[test]
    fn permute_preserves_spectrum_witness() {
        // x'Ax is invariant under symmetric permutation of both A and x.
        let a = sample();
        let p = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let b = a.permute_sym(&p).unwrap();
        let x = [0.3, -1.2, 2.0];
        let px: Vec<f64> = (0..3).map(|i| x[p.new_to_old(i)]).collect();
        let ax = a.mul_vec(&x);
        let bpx = b.mul_vec(&px);
        let qa: f64 = x.iter().zip(&ax).map(|(u, v)| u * v).sum();
        let qb: f64 = px.iter().zip(&bpx).map(|(u, v)| u * v).sum();
        assert!((qa - qb).abs() < 1e-12);
    }

    #[test]
    fn identity_and_from_diag() {
        let i3 = CsrMatrix::identity(3);
        assert_eq!(i3.mul_vec(&[5.0, 6.0, 7.0]), vec![5.0, 6.0, 7.0]);
        let d = CsrMatrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d.mul_vec(&[1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn diagonal_offsets_of_tridiagonal() {
        let a = sample();
        assert_eq!(a.diagonal_offsets(), vec![-1, 0, 1]);
    }

    #[test]
    fn multicolor_structure_has_few_diagonals() {
        // A block matrix with diagonal blocks (multicolor structure (3.2))
        // keeps the diagonal count at (#blocks)² worst case, independent of n.
        let n = 12;
        let b = 3;
        let mut c = CooMatrix::new(n, n);
        let bs = n / b;
        for bi in 0..b {
            for bj in 0..b {
                for k in 0..bs {
                    let (i, j) = (bi * bs + k, bj * bs + k);
                    c.push(i, j, 1.0 + (i * n + j) as f64 * 0.01).unwrap();
                }
            }
        }
        assert!(c.to_csr().diagonal_offsets().len() <= b * b);
    }

    #[test]
    fn scale_sym_scales_quadratically() {
        let a = sample();
        let s = a.scale_sym(&[0.5, 0.5, 0.5]);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), -0.25);
    }

    #[test]
    fn range_kernels_match_full_spmv() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let full = a.mul_vec(&x);
        let mut part = vec![0.0; 2];
        a.mul_vec_range_into(&x, &mut part, 1..3);
        assert_eq!(part, &full[1..3]);
        let mut acc = vec![1.0; 2];
        a.mul_vec_axpy_range(-2.0, &x, &mut acc, 0..2);
        assert_eq!(acc[0], 1.0 - 2.0 * full[0]);
        assert_eq!(acc[1], 1.0 - 2.0 * full[1]);
    }

    #[test]
    fn spmv_is_thread_count_insensitive() {
        let _guard = crate::par::thread_sweep_lock();
        // Big enough to cross the parallel threshold.
        let n = 40_000usize;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 13 + 5) % 97) as f64 * 0.03 - 1.0)
            .collect();
        let before = crate::par::max_threads();
        crate::par::set_max_threads(1);
        let y1 = a.mul_vec(&x);
        for t in [2usize, 4, 8] {
            crate::par::set_max_threads(t);
            let yt = a.mul_vec(&x);
            assert!(
                y1.iter().zip(&yt).all(|(u, v)| u.to_bits() == v.to_bits()),
                "spmv differs at t = {t}"
            );
        }
        crate::par::set_max_threads(before);
    }

    #[test]
    fn irregular_spmv_is_thread_count_insensitive() {
        let _guard = crate::par::thread_sweep_lock();
        // Arrow matrix: a handful of dense rows dominate the nnz; the
        // nnz-weighted chunks must still cover every row exactly once and
        // match the serial result bitwise.
        let n = 8_000usize;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0).unwrap();
        }
        for d in 0..4usize {
            // Dense rows at the top, symmetric fill to stay sorted.
            for j in 4..n {
                coo.push_sym(d, j, -1e-3).unwrap();
            }
        }
        let a = coo.to_csr();
        assert!(a.nnz() >= crate::tuning::par_min_nnz());
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 31) as f64 * 0.1).collect();
        let before = crate::par::max_threads();
        crate::par::set_max_threads(1);
        let y1 = a.mul_vec(&x);
        let mut acc1 = vec![0.5; n];
        a.mul_vec_axpy(-2.0, &x, &mut acc1);
        for t in [2usize, 4, 8] {
            crate::par::set_max_threads(t);
            let yt = a.mul_vec(&x);
            assert!(
                y1.iter().zip(&yt).all(|(u, v)| u.to_bits() == v.to_bits()),
                "irregular spmv differs at t = {t}"
            );
            let mut acct = vec![0.5; n];
            a.mul_vec_axpy(-2.0, &x, &mut acct);
            assert!(
                acc1.iter()
                    .zip(&acct)
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "irregular mul_vec_axpy differs at t = {t}"
            );
        }
        crate::par::set_max_threads(before);
    }

    #[test]
    fn max_row_nnz_counts() {
        let a = sample();
        assert_eq!(a.max_row_nnz(), 3);
        assert_eq!(a.row_nnz(0), 2);
    }
}
