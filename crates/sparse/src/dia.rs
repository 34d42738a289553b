//! Storage by diagonals and the Madsen–Rodrigue–Karush product.
//!
//! §3.1 of the paper: on the CYBER 203/205 the sparse products `K·p` and the
//! block products `B·r̂` are performed with the *multiplication by diagonals*
//! scheme of Madsen, Rodrigue and Karush (1976), because a diagonal of a
//! banded matrix is one long contiguous vector — exactly what the pipeline
//! wants. After the multicolor renumbering the stiffness matrix has a
//! moderate number of occupied diagonals (structure (3.2)), so
//! `y ← A x` becomes one long vector multiply-add per occupied diagonal.
//!
//! [`DiaMatrix`] stores, for each occupied offset `d = j − i`, the dense
//! diagonal `diag_d[i] = A[i][i + d]` (zero-padded where outside the
//! matrix). [`DiaMatrix::mul_vec_into`] is the reference scalar execution;
//! the CYBER simulator in `mspcg-machine` replays the same loop while
//! charging pipeline cycles per diagonal.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// Sparse matrix stored by diagonals (DIA format).
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    rows: usize,
    cols: usize,
    /// Occupied diagonal offsets, ascending.
    offsets: Vec<isize>,
    /// One dense vector of length `rows` per offset:
    /// `diagonals[k][i] = A[i][i + offsets[k]]` (0 outside).
    diagonals: Vec<Vec<f64>>,
}

impl DiaMatrix {
    /// Convert from CSR, storing every occupied diagonal densely.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let offsets = a.diagonal_offsets();
        let mut diagonals = vec![vec![0.0; a.rows()]; offsets.len()];
        // Map offset -> slot.
        let slot: std::collections::BTreeMap<isize, usize> =
            offsets.iter().enumerate().map(|(k, &d)| (d, k)).collect();
        for i in 0..a.rows() {
            for (j, v) in a.row_entries(i) {
                let d = j as isize - i as isize;
                diagonals[slot[&d]][i] = v;
            }
        }
        DiaMatrix {
            rows: a.rows(),
            cols: a.cols(),
            offsets,
            diagonals,
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

    /// Occupied diagonal offsets (ascending).
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// Number of occupied diagonals — the CYBER vector-op count per SpMV.
    pub fn num_diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// Dense data of diagonal `k` (aligned to row index).
    pub fn diagonal(&self, k: usize) -> &[f64] {
        &self.diagonals[k]
    }

    /// `y ← A x` by diagonals: for each offset `d`,
    /// `y[i] += diag_d[i] · x[i + d]` over the in-bounds range. One fused
    /// multiply-add of a long contiguous vector per diagonal.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dia mul: x length mismatch");
        assert_eq!(y.len(), self.rows, "dia mul: y length mismatch");
        y.fill(0.0);
        for (k, &d) in self.offsets.iter().enumerate() {
            let diag = &self.diagonals[k];
            if d >= 0 {
                let d = d as usize;
                let n = self.rows.min(self.cols.saturating_sub(d));
                for i in 0..n {
                    y[i] += diag[i] * x[i + d];
                }
            } else {
                let d = (-d) as usize;
                let n = self.cols.min(self.rows.saturating_sub(d)) + d;
                for i in d..n.min(self.rows) {
                    y[i] += diag[i] * x[i - d];
                }
            }
        }
    }

    /// Allocating version of [`DiaMatrix::mul_vec_into`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Round-trip back to CSR (drops explicit zeros introduced by padding).
    ///
    /// # Errors
    /// Propagates CSR construction errors (cannot occur for valid DIA data).
    pub fn to_csr(&self) -> Result<CsrMatrix, SparseError> {
        let mut coo = crate::coo::CooMatrix::new(self.rows, self.cols);
        for (k, &d) in self.offsets.iter().enumerate() {
            for i in 0..self.rows {
                let j = i as isize + d;
                if j < 0 || j >= self.cols as isize {
                    continue;
                }
                let v = self.diagonals[k][i];
                if v != 0.0 {
                    coo.push(i, j as usize, v)?;
                }
            }
        }
        Ok(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    #[test]
    fn from_csr_finds_three_diagonals() {
        let d = DiaMatrix::from_csr(&tridiag(5));
        assert_eq!(d.offsets(), &[-1, 0, 1]);
        assert_eq!(d.num_diagonals(), 3);
    }

    #[test]
    fn dia_spmv_matches_csr() {
        let a = tridiag(7);
        let d = DiaMatrix::from_csr(&a);
        let x: Vec<f64> = (0..7).map(|i| (i as f64).cos()).collect();
        let y_csr = a.mul_vec(&x);
        let y_dia = d.mul_vec(&x);
        for (u, v) in y_csr.iter().zip(&y_dia) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn rectangular_dia_spmv() {
        // 2x4 matrix with entries on offsets 0..=2.
        let mut c = CooMatrix::new(2, 4);
        c.push(0, 0, 1.0).unwrap();
        c.push(0, 2, 3.0).unwrap();
        c.push(1, 1, 2.0).unwrap();
        c.push(1, 3, 4.0).unwrap();
        let a = c.to_csr();
        let d = DiaMatrix::from_csr(&a);
        let x = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(d.mul_vec(&x), a.mul_vec(&x));
    }

    #[test]
    fn round_trip_csr() {
        let a = tridiag(6);
        let d = DiaMatrix::from_csr(&a);
        assert_eq!(d.to_csr().unwrap(), a);
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
        let a = c.to_csr();
        let d = DiaMatrix::from_csr(&a);
        assert!(d.num_diagonals() <= b * b);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(d.mul_vec(&x), a.mul_vec(&x));
    }
}
