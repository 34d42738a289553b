//! Small dense matrices: validation oracle and spectral tool.
//!
//! The workspace uses dense linear algebra in three places:
//!
//! 1. **Validation** — integration and property tests compare sparse solver
//!    results against a dense Cholesky direct solve.
//! 2. **Coefficient fitting** — the least-squares α system of §2.2 is a tiny
//!    SPD normal-equations system solved by Cholesky.
//! 3. **Condition-number experiments** (the `condition` binary of
//!    `mspcg-bench`) — the cyclic Jacobi eigensolver computes the full
//!    spectrum of `M_m^{-1}K` on small plates to verify that κ decreases
//!    with m.

use crate::error::SparseError;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
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

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: length mismatch");
        (0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect()
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn mul_mat(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "mul_mat: inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Maximum absolute asymmetry `max |A - Aᵀ|`.
    pub fn asymmetry(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                m = m.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        m
    }

    /// Cholesky factorization `A = L Lᵀ` (lower triangular `L`).
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] or [`SparseError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<Cholesky, SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(SparseError::NotPositiveDefinite { pivot: i, value: s });
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// LU factorization with partial pivoting; returns a solver.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`], or
    /// [`SparseError::NotPositiveDefinite`] when a pivot vanishes (singular).
    pub fn lu(&self) -> Result<Lu, SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(SparseError::NotPositiveDefinite {
                    pivot: k,
                    value: 0.0,
                });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let f = a[i * n + k] / pivot;
                a[i * n + k] = f;
                for j in (k + 1)..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        Ok(Lu { n, a, piv })
    }

    /// Full symmetric eigendecomposition by the cyclic Jacobi rotation
    /// method. Returns eigenvalues sorted ascending.
    ///
    /// Intended for small matrices (n ≲ 500): O(n³) per sweep, typically
    /// 6–10 sweeps.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`], [`SparseError::NotSymmetric`] (tolerance
    /// `1e-8 · max|A|`), or [`SparseError::DidNotConverge`].
    pub fn sym_eigenvalues(&self) -> Result<Vec<f64>, SparseError> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let scale = self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if self.asymmetry() > 1e-8 * scale.max(1.0) {
            return Err(SparseError::NotSymmetric { row: 0, col: 0 });
        }
        let n = self.rows;
        if n == 0 {
            return Ok(vec![]);
        }
        let mut a = self.data.clone();
        // Symmetrize exactly to keep rotations clean.
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (a[i * n + j] + a[j * n + i]);
                a[i * n + j] = avg;
                a[j * n + i] = avg;
            }
        }
        let max_sweeps = 64;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[i * n + j] * a[i * n + j];
                }
            }
            if off.sqrt() <= 1e-14 * scale.max(1e-300) * n as f64 {
                let mut eig: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
                eig.sort_by(|x, y| x.partial_cmp(y).unwrap());
                return Ok(eig);
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Apply rotation J(p, q, θ)ᵀ A J(p, q, θ).
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                }
            }
        }
        Err(SparseError::DidNotConverge {
            iterations: max_sweeps,
            residual: f64::NAN,
        })
    }

    /// Spectral condition number `λ_max / λ_min` of a symmetric matrix.
    ///
    /// # Errors
    /// Propagates [`DenseMatrix::sym_eigenvalues`] errors, plus
    /// [`SparseError::NotPositiveDefinite`] if `λ_min ≤ 0`.
    pub fn sym_condition_number(&self) -> Result<f64, SparseError> {
        let eig = self.sym_eigenvalues()?;
        let (lo, hi) = (eig[0], eig[eig.len() - 1]);
        if lo <= 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                pivot: 0,
                value: lo,
            });
        }
        Ok(hi / lo)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Solve `A x = b`.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "cholesky solve: length mismatch");
        let n = self.n;
        let l = &self.l;
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= l[i * n + k] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= l[k * n + i] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        y
    }

    /// The lower-triangular factor `L` as a dense matrix.
    ///
    /// Used by the condition-number experiments: the eigenvalues of the
    /// preconditioned operator `M⁻¹K` equal those of the *symmetric* matrix
    /// `Lᵀ M⁻¹ L` where `K = L Lᵀ`, which our Jacobi eigensolver can handle.
    pub fn l_matrix(&self) -> DenseMatrix {
        let n = self.n;
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                m[(i, j)] = self.l[i * n + j];
            }
        }
        m
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// LU factors with partial pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    a: Vec<f64>,
    piv: Vec<usize>,
}

impl Lu {
    /// Solve `A x = b`.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "lu solve: length mismatch");
        let n = self.n;
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.a[i * n + k] * x[k];
            }
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.a[i * n + k] * x[k];
            }
            x[i] /= self.a[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[4.0, -1.0, 0.0], &[-1.0, 4.0, -1.0], &[0.0, -1.0, 4.0]])
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = a.cholesky().unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky(),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn lu_solves_unsymmetric() {
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 3.0], &[2.0, 1.0, 0.0]]);
        let x_true = [3.0, -1.0, 2.0];
        let b = a.mul_vec(&x_true);
        let x = a.lu().unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.lu().is_err());
    }

    #[test]
    fn jacobi_eigenvalues_of_known_matrix() {
        // Eigenvalues of tridiag(-1, 4, -1), n = 3: 4 - √2, 4, 4 + √2.
        let eig = spd3().sym_eigenvalues().unwrap();
        let expect = [4.0 - 2f64.sqrt(), 4.0, 4.0 + 2f64.sqrt()];
        for (e, t) in eig.iter().zip(&expect) {
            assert!((e - t).abs() < 1e-10, "{e} vs {t}");
        }
    }

    #[test]
    fn jacobi_rejects_asymmetric() {
        let a = DenseMatrix::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]);
        assert!(a.sym_eigenvalues().is_err());
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let k = DenseMatrix::identity(5).sym_condition_number().unwrap();
        assert!((k - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]);
        assert!(a.sym_condition_number().is_err());
    }

    #[test]
    fn mul_mat_and_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let ab = a.mul_mat(&b);
        assert_eq!(ab[(0, 0)], 2.0);
        assert_eq!(ab[(0, 1)], 1.0);
        assert_eq!(ab[(1, 0)], 4.0);
        assert_eq!(ab[(1, 1)], 3.0);
        let at = a.transpose();
        assert_eq!(at[(0, 1)], 3.0);
    }

    #[test]
    fn empty_eigenproblem() {
        let a = DenseMatrix::zeros(0, 0);
        assert_eq!(a.sym_eigenvalues().unwrap(), Vec::<f64>::new());
    }
}
