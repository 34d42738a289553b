//! Coordinate (triplet) format — the assembly-friendly builder.
//!
//! Finite-element assembly (see `mspcg-fem`) naturally produces duplicate
//! `(row, col, value)` contributions, one per element sharing a node pair.
//! [`CooMatrix`] accumulates them and [`CooMatrix::to_csr`] compresses into
//! sorted, deduplicated CSR in O(nnz), summing duplicates in push order.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A sparse matrix under construction, stored as unsorted triplets.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// New empty builder of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// New builder with pre-reserved triplet capacity (FEM assembly knows
    /// `elements × entries-per-element` in advance).
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Add `value` at `(row, col)`. Duplicates accumulate on compression.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfBounds`] if the coordinates exceed the shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows {
            return Err(SparseError::IndexOutOfBounds {
                index: row,
                bound: self.rows,
                axis: "row",
            });
        }
        if col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                index: col,
                bound: self.cols,
                axis: "col",
            });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Add a symmetric pair: `value` at `(i, j)` and at `(j, i)`.
    /// Diagonal entries (`i == j`) are added once.
    ///
    /// # Errors
    /// Same as [`CooMatrix::push`].
    pub fn push_sym(&mut self, i: usize, j: usize, value: f64) -> Result<(), SparseError> {
        self.push(i, j, value)?;
        if i != j {
            self.push(j, i, value)?;
        }
        Ok(())
    }

    /// Compress into CSR in O(nnz), with no global sort: a counting pass
    /// buckets the triplets by row in push order, each row sums its
    /// duplicates left to right in push order, and only its distinct
    /// entries are sorted by column. Entries whose sum is exactly zero are
    /// kept (FEM cancellation keeping the symbolic stencil is intentional —
    /// the multicolor solver relies on the structural pattern).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // After the counting pass `ends[r]` is one past row `r`'s bucket.
        let mut ends = row_ptr.clone();
        let mut bucket = vec![(0u32, 0.0); self.entries.len()];
        for &(r, c, v) in &self.entries {
            bucket[ends[r as usize]] = (c, v);
            ends[r as usize] += 1;
        }
        // Kept entries move to the front of `bucket`, behind the triplet
        // read; `slot[c]` is column `c`'s kept index if in the row's range.
        let mut slot = vec![usize::MAX; self.cols];
        let (mut start, mut kept) = (0, 0);
        for r in 0..self.rows {
            let first = kept;
            for k in start..ends[r] {
                let (c, v) = bucket[k];
                let s = &mut slot[c as usize];
                if (first..kept).contains(s) {
                    bucket[*s].1 += v;
                } else {
                    *s = kept;
                    bucket[kept] = (c, v);
                    kept += 1;
                }
            }
            bucket[first..kept].sort_unstable_by_key(|&(c, _)| c);
            start = ends[r];
            row_ptr[r + 1] = kept;
        }
        bucket.truncate(kept);
        let (col_idx, values) = bucket.into_iter().unzip();
        CsrMatrix::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("COO compression produced valid CSR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut a = CooMatrix::new(2, 3);
        assert!(matches!(
            a.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { axis: "row", .. })
        ));
        assert!(matches!(
            a.push(0, 3, 1.0),
            Err(SparseError::IndexOutOfBounds { axis: "col", .. })
        ));
    }

    #[test]
    fn duplicates_accumulate() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, 1.0).unwrap();
        a.push(0, 0, 2.5).unwrap();
        a.push(1, 0, -1.0).unwrap();
        let csr = a.to_csr();
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn push_sym_adds_mirror_entry_once_for_diagonal() {
        let mut a = CooMatrix::new(3, 3);
        a.push_sym(0, 1, 2.0).unwrap();
        a.push_sym(2, 2, 5.0).unwrap();
        let csr = a.to_csr();
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(2, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_matrix_compresses() {
        let a = CooMatrix::new(4, 4);
        let csr = a.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.rows(), 4);
        let y = csr.mul_vec(&[1.0; 4]);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn columns_sorted_after_compression() {
        let mut a = CooMatrix::new(1, 5);
        for &c in &[4usize, 1, 3, 0, 2] {
            a.push(0, c, c as f64).unwrap();
        }
        let csr = a.to_csr();
        let cols: Vec<usize> = csr.row_entries(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2, 3, 4]);
    }

    /// Duplicates are summed left to right in push order, whatever the
    /// rounding, and a sum of exactly zero stays stored.
    #[test]
    fn duplicates_sum_in_push_order() {
        let sum = |order: [f64; 3]| {
            let mut a = CooMatrix::new(2, 2);
            a.push(1, 1, 4.0).unwrap();
            for v in order {
                a.push(0, 1, v).unwrap();
            }
            a.to_csr()
        };
        let cancelled = sum([1e16, 1.0, -1e16]);
        assert_eq!(cancelled.get(0, 1).to_bits(), 0.0f64.to_bits());
        assert_eq!(cancelled.nnz(), 2, "a zero sum stays stored");
        assert_eq!(sum([1e16, -1e16, 1.0]).get(0, 1), 1.0);
    }

    #[test]
    fn with_capacity_reserves() {
        let a = CooMatrix::with_capacity(2, 2, 64);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
    }
}
