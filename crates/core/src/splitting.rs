//! The natural-order SSOR splitting `K = P − Q` (§2.1): the sequential
//! reference the multicolor sweeps of [`crate::ssor`] are tested against,
//! with its stationary step and the m-step Horner recurrence
//! `w_s = G w_{s−1} + α_{m−s} P⁻¹ r` (§2.2) on top of it.

use crate::preconditioner::checked_recip;
use mspcg_sparse::{CsrMatrix, SparseError};

/// SSOR(ω) in the natural ordering — sequential forward + backward
/// Gauss–Seidel-type sweeps. This is the splitting the literature
/// (Concus–Golub–O'Leary 1976) uses; the multicolor reordering of
/// [`crate::ssor`] makes it parallel.
#[derive(Debug)]
pub struct NaturalSsorSplitting {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    omega: f64,
}

impl NaturalSsorSplitting {
    /// Build with relaxation parameter `ω ∈ (0, 2)`.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`], [`SparseError::ZeroDiagonal`] for a
    /// diagonal entry that is not positive and finite, or
    /// [`SparseError::InvalidPartition`] for ω outside `(0, 2)`.
    pub fn new(a: &CsrMatrix, omega: f64) -> Result<Self, SparseError> {
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SparseError::InvalidPartition {
                reason: format!("SSOR omega {omega} outside (0, 2)"),
            });
        }
        Ok(NaturalSsorSplitting {
            inv_diag: checked_recip(&a.diag()?)?,
            a: a.clone(),
            omega,
        })
    }

    /// One stationary step on `K x = scale·b`, `x ← G x + P⁻¹ (scale·b)`:
    /// a forward sweep over the rows, then a backward one.
    ///
    /// # Panics
    /// If `b` or `x` differs in length from the dimension.
    pub fn step(&self, scale: f64, b: &[f64], x: &mut [f64]) {
        let n = self.a.rows();
        assert_eq!(b.len(), n, "ssor step: b length mismatch");
        assert_eq!(x.len(), n, "ssor step: x length mismatch");
        for i in (0..n).chain((0..n).rev()) {
            let mut s = scale * b[i];
            for (j, v) in self.a.row_entries(i) {
                s -= v * x[j];
            }
            x[i] += self.omega * s * self.inv_diag[i];
        }
    }

    /// m-step Horner solve: `z ← (Σᵢ αᵢ Gⁱ) P⁻¹ r` via
    /// `w_s = G w_{s−1} + α_{m−s} P⁻¹ r`, `w_0 = 0`, `z = w_m`.
    ///
    /// # Panics
    /// If `alphas` is empty, or as [`NaturalSsorSplitting::step`].
    pub fn msolve(&self, alphas: &[f64], r: &[f64], z: &mut [f64]) {
        assert!(!alphas.is_empty(), "msolve needs at least one coefficient");
        z.fill(0.0);
        for &alpha in alphas.iter().rev() {
            self.step(alpha, r, z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_sparse::CooMatrix;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        a.to_csr()
    }

    fn converge(s: &NaturalSsorSplitting, b: &[f64], steps: usize) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        for _ in 0..steps {
            s.step(1.0, b, &mut x);
        }
        x
    }

    #[test]
    fn ssor_iteration_converges_faster_than_jacobi() {
        let a = laplacian(16);
        let x_true: Vec<f64> = (0..16).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b = a.mul_vec(&x_true);
        let ssor = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let err = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&x_true)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max)
        };
        // Jacobi: x ← x + D⁻¹(b − K x), with D = 2I.
        let mut xj = vec![0.0; 16];
        for _ in 0..100 {
            let kx = a.mul_vec(&xj);
            for i in 0..16 {
                xj[i] += (b[i] - kx[i]) / 2.0;
            }
        }
        let xs = converge(&ssor, &b, 100);
        assert!(
            err(&xs) < err(&xj),
            "ssor {} vs jacobi {}",
            err(&xs),
            err(&xj)
        );
    }

    #[test]
    fn msolve_with_unit_alphas_equals_m_steps() {
        let a = laplacian(6);
        let s = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let r: Vec<f64> = (0..6).map(|i| (i as f64).cos()).collect();
        let mut z = vec![0.0; 6];
        s.msolve(&[1.0, 1.0, 1.0], &r, &mut z);
        let manual = converge(&s, &r, 3);
        for (u, v) in z.iter().zip(&manual) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn msolve_single_alpha_scales_p_inverse() {
        let a = laplacian(5);
        let s = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let r = vec![1.0; 5];
        let mut z = vec![0.0; 5];
        s.msolve(&[2.0], &r, &mut z);
        let mut p = vec![0.0; 5];
        s.step(1.0, &r, &mut p);
        for (u, v) in z.iter().zip(&p) {
            assert!((u - 2.0 * v).abs() < 1e-14);
        }
    }

    #[test]
    fn ssor_rejects_bad_omega() {
        let a = laplacian(4);
        assert!(NaturalSsorSplitting::new(&a, 0.0).is_err());
        assert!(NaturalSsorSplitting::new(&a, 2.0).is_err());
        assert!(NaturalSsorSplitting::new(&a, 1.99).is_ok());
    }
}
