//! Incomplete Cholesky IC(0) — the baseline the m-step method argues with.
//!
//! In 1983 the standard PCG preconditioner was incomplete Cholesky
//! (Meijerink–van der Vorst; used throughout Concus–Golub–O'Leary 1976).
//! It is very effective per iteration, but its triangular solves are
//! recurrences along the elimination order — they neither vectorize on a
//! pipeline machine nor parallelize on an array, which is precisely the
//! gap the multicolor m-step SSOR preconditioner fills. This module
//! provides IC(0) so the trade-off can be *measured* (see the `criteria`
//! binary and `ic_vs_mstep` tests) instead of asserted.
//!
//! IC(0) computes `K ≈ L Lᵀ` where `L` has the sparsity of the lower
//! triangle of `K`; fill-in is discarded. For M-matrices the factorization
//! exists; general SPD matrices can break down (nonpositive pivot), which
//! is reported as a typed error — callers may retry with a diagonal shift.

use crate::preconditioner::Preconditioner;
use mspcg_sparse::{CsrMatrix, SparseError};

/// IC(0) preconditioner `M = L Lᵀ` with `L` on the lower pattern of `K`.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    /// Lower factor in CSR (diagonal stored last in each row).
    l: CsrMatrix,
    /// Transpose of `l` (CSR of `Lᵀ`) for the backward solve.
    lt: CsrMatrix,
}

impl IncompleteCholesky {
    /// Factor `K` with zero fill.
    ///
    /// # Errors
    /// * [`SparseError::NotSquare`] for rectangular input,
    /// * [`SparseError::NotPositiveDefinite`] naming the pivot where the
    ///   factorization broke down (`shifted` can be used to retry).
    pub fn new(k: &CsrMatrix) -> Result<Self, SparseError> {
        Self::with_shift(k, 0.0)
    }

    /// Factor `K + shift·diag(K)` — the standard remedy for breakdown on
    /// non-M-matrices (Manteuffel shift).
    ///
    /// # Errors
    /// As [`IncompleteCholesky::new`].
    pub fn with_shift(k: &CsrMatrix, shift: f64) -> Result<Self, SparseError> {
        if k.rows() != k.cols() {
            return Err(SparseError::NotSquare {
                rows: k.rows(),
                cols: k.cols(),
            });
        }
        let n = k.rows();
        // Lower-triangular pattern of K (including diagonal), row by row.
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for i in 0..n {
            let mut has_diag = false;
            for (j, v) in k.row_entries(i) {
                if j < i {
                    col_idx.push(j as u32);
                    values.push(v);
                } else if j == i {
                    has_diag = true;
                    col_idx.push(j as u32);
                    values.push(v * (1.0 + shift));
                }
            }
            if !has_diag {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            row_ptr[i + 1] = col_idx.len();
        }

        // Up-looking IC(0): process rows in order; for each entry (i, j)
        // with j < i subtract the sparse dot of rows i and j of L (columns
        // < j), then divide by l_jj; the diagonal accumulates the squares.
        for i in 0..n {
            let (ri_lo, ri_hi) = (row_ptr[i], row_ptr[i + 1]);
            for idx in ri_lo..ri_hi {
                let j = col_idx[idx] as usize;
                if j == i {
                    // Diagonal: d = a_ii − Σ_{k<i} l_ik².
                    let mut d = values[idx];
                    for kk in ri_lo..idx {
                        d -= values[kk] * values[kk];
                    }
                    if d <= 0.0 {
                        return Err(SparseError::NotPositiveDefinite { pivot: i, value: d });
                    }
                    values[idx] = d.sqrt();
                    continue;
                }
                // Off-diagonal: s = a_ij − Σ l_ik l_jk over shared k < j.
                let mut s = values[idx];
                let (rj_lo, rj_hi) = (row_ptr[j], row_ptr[j + 1]);
                let (mut pi, mut pj) = (ri_lo, rj_lo);
                while pi < idx && pj < rj_hi {
                    let ci = col_idx[pi] as usize;
                    let cj = col_idx[pj] as usize;
                    if cj >= j {
                        break;
                    }
                    match ci.cmp(&cj) {
                        std::cmp::Ordering::Less => pi += 1,
                        std::cmp::Ordering::Greater => pj += 1,
                        std::cmp::Ordering::Equal => {
                            s -= values[pi] * values[pj];
                            pi += 1;
                            pj += 1;
                        }
                    }
                }
                // l_jj is the last entry of row j (diagonal stored last).
                let ljj = values[rj_hi - 1];
                values[idx] = s / ljj;
            }
        }
        let l = CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)?;
        let lt = l.transpose();
        Ok(IncompleteCholesky { l, lt })
    }

    /// The lower factor.
    pub fn factor(&self) -> &CsrMatrix {
        &self.l
    }

    /// Number of stored entries in `L` (the memory cost).
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }
}

impl Preconditioner for IncompleteCholesky {
    fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L Lᵀ z = r`: a forward then a backward substitution — the
    /// inherently *sequential* recurrences the paper's multicolor design
    /// avoids.
    fn apply_with(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        let n = self.dim();
        assert_eq!(r.len(), n, "ic apply: r length mismatch");
        assert_eq!(z.len(), n, "ic apply: z length mismatch");
        // Forward: L y = r (diagonal last in each row of L).
        for i in 0..n {
            let lo = self.l.row_ptr()[i];
            let hi = self.l.row_ptr()[i + 1];
            let mut s = r[i];
            for k in lo..hi - 1 {
                s -= self.l.values()[k] * z[self.l.col_idx()[k] as usize];
            }
            z[i] = s / self.l.values()[hi - 1];
        }
        // Backward: Lᵀ z = y (diagonal first in each row of Lᵀ).
        for i in (0..n).rev() {
            let lo = self.lt.row_ptr()[i];
            let hi = self.lt.row_ptr()[i + 1];
            let mut s = z[i];
            for k in lo + 1..hi {
                s -= self.lt.values()[k] * z[self.lt.col_idx()[k] as usize];
            }
            z[i] = s / self.lt.values()[lo];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{cg_solve, pcg_solve, PcgOptions, StoppingCriterion};
    use mspcg_sparse::CooMatrix;

    fn laplacian_2d(n: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * n + j;
        let mut c = CooMatrix::new(n * n, n * n);
        for i in 0..n {
            for j in 0..n {
                c.push(idx(i, j), idx(i, j), 4.0).unwrap();
                if i + 1 < n {
                    c.push_sym(idx(i, j), idx(i + 1, j), -1.0).unwrap();
                }
                if j + 1 < n {
                    c.push_sym(idx(i, j), idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn exact_on_tridiagonal() {
        // Tridiagonal SPD: the lower pattern suffers no fill, so IC(0) is
        // the exact Cholesky factorization and PCG converges in one step.
        let mut c = CooMatrix::new(6, 6);
        for i in 0..6 {
            c.push(i, i, 2.0).unwrap();
            if i + 1 < 6 {
                c.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = c.to_csr();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let sol = pcg_solve(
            &a,
            &b,
            &ic,
            &PcgOptions {
                tol: 1e-12,
                criterion: StoppingCriterion::RelativeResidual,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sol.iterations <= 2, "{} iterations", sol.iterations);
    }

    #[test]
    fn factor_reproduces_matrix_on_its_pattern() {
        let a = laplacian_2d(5);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let l = ic.factor().to_dense();
        let llt = l.mul_mat(&l.transpose());
        // On stored positions of A, L·Lᵀ must match A exactly (IC(0)
        // property); off-pattern entries are the discarded fill.
        for i in 0..a.rows() {
            for (j, v) in a.row_entries(i) {
                assert!((llt[(i, j)] - v).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn ic_beats_plain_cg_markedly() {
        let a = laplacian_2d(12);
        // Rough right-hand side (all spatial frequencies active) so the
        // iteration counts reflect the full spectrum.
        let b: Vec<f64> = (0..a.rows())
            .map(|i| if i % 3 == 0 { 1.0 } else { -0.7 } * ((i % 11) as f64 - 5.0))
            .collect();
        let opts = PcgOptions {
            tol: 1e-10,
            criterion: StoppingCriterion::RelativeResidual,
            ..Default::default()
        };
        let cg = cg_solve(&a, &b, &opts).unwrap();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let pic = pcg_solve(&a, &b, &ic, &opts).unwrap();
        assert!(
            pic.iterations * 2 <= cg.iterations,
            "ic {} vs cg {}",
            pic.iterations,
            cg.iterations
        );
    }

    #[test]
    fn breakdown_is_reported_and_shift_recovers() {
        // An SPD matrix that is not an M-matrix can break IC(0); build one
        // with large positive off-diagonals.
        let mut c = CooMatrix::new(3, 3);
        c.push(0, 0, 1.0).unwrap();
        c.push(1, 1, 1.0).unwrap();
        c.push(2, 2, 1.0).unwrap();
        c.push_sym(0, 1, 0.9).unwrap();
        c.push_sym(1, 2, 0.9).unwrap();
        c.push_sym(0, 2, -0.5).unwrap();
        let a = c.to_csr();
        // (This particular matrix may or may not break; the API contract is
        // what we test: either a factor or a typed error, and shifting
        // enough always succeeds for diagonally-dominant-after-shift.)
        match IncompleteCholesky::new(&a) {
            Ok(_) => {}
            Err(SparseError::NotPositiveDefinite { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        assert!(IncompleteCholesky::with_shift(&a, 2.0).is_ok());
    }

    #[test]
    fn missing_diagonal_rejected() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push_sym(0, 1, 0.5).unwrap();
        let a = c.to_csr();
        assert!(matches!(
            IncompleteCholesky::new(&a),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
    }

    #[test]
    fn preconditioner_is_symmetric_operator() {
        let a = laplacian_2d(4);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let n = a.rows();
        let apply = |j: usize| {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut z = vec![0.0; n];
            ic.apply(&e, &mut z);
            z
        };
        let z0 = apply(0);
        let zl = apply(n - 1);
        assert!((z0[n - 1] - zl[0]).abs() < 1e-13);
    }
}
