//! Splittings `K = P − Q` and the stationary steps they induce.
//!
//! §2.1 of the paper: a preconditioner arises from any splitting whose
//! stationary iteration `x ← G x + P⁻¹ b` (`G = P⁻¹Q`) converges. The
//! [`Splitting`] trait exposes exactly that step, parametrized by a scale
//! on `b` so the m-step Horner recurrence
//! `w_s = G w_{s−1} + α_{m−s} P⁻¹ r` (§2.2) reuses it directly.
//!
//! Implementations here:
//! * [`JacobiSplitting`] — `P = diag(K)`; unparametrized m-step use
//!   reproduces the truncated Neumann series preconditioner of
//!   Dubois–Greenbaum–Rodrigue (1979),
//! * [`NaturalSsorSplitting`] — SSOR(ω) in the natural (sequential)
//!   ordering; the baseline the multicolor ordering competes with.
//!
//! The multicolor SSOR splitting lives in [`crate::ssor`].

use crate::poly::jacobi_spectrum;
use mspcg_sparse::lanczos::power_spectral_radius;
use mspcg_sparse::{CsrMatrix, SparseError, SparseOp};
use std::cell::RefCell;

/// A convergent splitting `K = P − Q` with SPD `P`.
pub trait Splitting {
    /// Operator dimension.
    fn dim(&self) -> usize;

    /// One stationary step on `K x = scale·b`:
    /// `x ← G x + P⁻¹ (scale·b)`.
    fn step(&self, scale: f64, b: &[f64], x: &mut [f64]);

    /// Solve `P z = r` (the 1-step preconditioner application).
    fn solve_p(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        self.step(1.0, r, z);
    }

    /// m-step Horner solve: `z ← (Σᵢ αᵢ Gⁱ) P⁻¹ r` via
    /// `w_s = G w_{s−1} + α_{m−s} P⁻¹ r`, `w_0 = 0`, `z = w_m`.
    ///
    /// # Panics
    /// Panics when `alphas` is empty.
    fn msolve(&self, alphas: &[f64], r: &[f64], z: &mut [f64]) {
        assert!(!alphas.is_empty(), "msolve needs at least one coefficient");
        z.fill(0.0);
        let m = alphas.len();
        for s in 1..=m {
            self.step(alphas[m - s], r, z);
        }
    }

    /// Length of the caller-provided scratch [`Splitting::msolve_with`]
    /// needs; `0` when the splitting keeps no per-solve state.
    fn msolve_scratch_len(&self) -> usize {
        0
    }

    /// [`Splitting::msolve`] with caller-owned scratch of length
    /// [`Splitting::msolve_scratch_len`], so several solves over one
    /// shared splitting (the batched multi-RHS workload) can run
    /// concurrently without contending on internal locked buffers.
    /// Numerically identical to `msolve`. The default ignores the scratch.
    fn msolve_with(&self, alphas: &[f64], r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        self.msolve(alphas, r, z);
    }

    /// Estimated interval `[λ₁, λₙ]` containing the spectrum of `P⁻¹K`.
    ///
    /// Default: power iteration for `ρ(G)` and the generic bracket
    /// `[1 − ρ, 1 + ρ]` (eigenvalues of `P⁻¹K = I − G`). Splittings with
    /// sharper theory (SSOR: `σ(G) ⊆ [0, ρ]` hence `λₙ = 1`) override this.
    ///
    /// # Errors
    /// Propagates eigen-estimation failures.
    fn spectrum_interval(&self, iters: usize) -> Result<(f64, f64), SparseError> {
        let n = self.dim();
        let rho = power_spectral_radius(n, iters, 0x5EED, |x, y| {
            y.copy_from_slice(x);
            self.step(0.0, x, y);
        })?;
        let rho = rho.min(0.999_999);
        Ok(((1.0 - rho).max(1e-12), 1.0 + rho))
    }
}

/// `P = diag(K)` — the Jacobi (point) splitting, over any operator format
/// (the step is one SpMV plus a pointwise diagonal solve, so it needs
/// nothing from the storage beyond [`SparseOp::mul_vec_into`] and the
/// [`SparseOp::diag_into`] hook).
#[derive(Debug)]
pub struct JacobiSplitting<A: SparseOp = CsrMatrix> {
    a: A,
    inv_diag: Vec<f64>,
    scratch: RefCell<Vec<f64>>,
}

impl<A: SparseOp + Clone> JacobiSplitting<A> {
    /// Build from an SPD matrix in any [`SparseOp`] format.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`] or [`SparseError::ZeroDiagonal`].
    pub fn new(a: &A) -> Result<Self, SparseError> {
        let (rows, cols) = a.dims();
        if rows != cols {
            return Err(SparseError::NotSquare { rows, cols });
        }
        let mut diag = vec![0.0; rows];
        a.diag_into(&mut diag);
        let mut inv_diag = Vec::with_capacity(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(JacobiSplitting {
            a: a.clone(),
            inv_diag,
            scratch: RefCell::new(vec![0.0; diag.len()]),
        })
    }
}

impl<A: SparseOp> JacobiSplitting<A> {
    /// The underlying matrix.
    pub fn matrix(&self) -> &A {
        &self.a
    }
}

impl<A: SparseOp> Splitting for JacobiSplitting<A> {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn step(&self, scale: f64, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "jacobi step: b length mismatch");
        assert_eq!(x.len(), self.dim(), "jacobi step: x length mismatch");
        let mut t = self.scratch.borrow_mut();
        // t = K x; x_i ← x_i + (scale·b_i − t_i)/d_i.
        self.a.mul_vec_into(x, &mut t);
        for i in 0..x.len() {
            x[i] += (scale * b[i] - t[i]) * self.inv_diag[i];
        }
    }

    /// The interval of `σ(D⁻¹K)` that [`jacobi_spectrum`] estimates: the
    /// extremes of a [`crate::poly::SPECTRUM_STEPS`]-step Lanczos run on
    /// the similar symmetric operator `D^{-1/2} K D^{-1/2}`, each end
    /// widened relative to itself, so a small `λ₁` keeps its order of
    /// magnitude. That step budget replaces `iters`.
    fn spectrum_interval(&self, _iters: usize) -> Result<(f64, f64), SparseError> {
        let est = jacobi_spectrum(&self.a, &self.inv_diag)?;
        Ok((est.min, est.max))
    }
}

/// SSOR(ω) in the natural ordering — sequential forward + backward
/// Gauss–Seidel-type sweeps. This is the splitting the literature
/// (Concus–Golub–O'Leary 1976) uses; the multicolor reordering of
/// [`crate::ssor`] makes it parallel.
#[derive(Debug)]
pub struct NaturalSsorSplitting {
    a: CsrMatrix,
    diag: Vec<f64>,
    omega: f64,
}

impl NaturalSsorSplitting {
    /// Build with relaxation parameter `ω ∈ (0, 2)`.
    ///
    /// # Errors
    /// [`SparseError::NotSquare`], [`SparseError::ZeroDiagonal`], or
    /// [`SparseError::InvalidPartition`] for ω outside `(0, 2)`.
    pub fn new(a: &CsrMatrix, omega: f64) -> Result<Self, SparseError> {
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SparseError::InvalidPartition {
                reason: format!("SSOR omega {omega} outside (0, 2)"),
            });
        }
        let diag = a.diag()?;
        if let Some(i) = diag.iter().position(|&d| d == 0.0 || !d.is_finite()) {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        Ok(NaturalSsorSplitting {
            a: a.clone(),
            diag,
            omega,
        })
    }

    /// The relaxation parameter.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    fn sweep(&self, scale: f64, b: &[f64], x: &mut [f64], reverse: bool) {
        let n = self.dim();
        let run = |i: usize, x: &mut [f64]| {
            let mut s = scale * b[i];
            for (j, v) in self.a.row_entries(i) {
                s -= v * x[j];
            }
            x[i] += self.omega * s / self.diag[i];
        };
        if reverse {
            for i in (0..n).rev() {
                run(i, x);
            }
        } else {
            for i in 0..n {
                run(i, x);
            }
        }
    }
}

impl Splitting for NaturalSsorSplitting {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn step(&self, scale: f64, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "ssor step: b length mismatch");
        assert_eq!(x.len(), self.dim(), "ssor step: x length mismatch");
        self.sweep(scale, b, x, false);
        self.sweep(scale, b, x, true);
    }

    fn spectrum_interval(&self, iters: usize) -> Result<(f64, f64), SparseError> {
        // SSOR of an SPD matrix has σ(G) ⊆ [0, ρ] ⇒ σ(P⁻¹K) ⊆ [1 − ρ, 1].
        let n = self.dim();
        let rho = power_spectral_radius(n, iters, 0x5EED, |x, y| {
            y.copy_from_slice(x);
            self.step(0.0, x, y);
        })?;
        let rho = rho.min(0.999_999);
        Ok(((1.0 - rho).max(1e-12), 1.0))
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

    fn converge<S: Splitting>(s: &S, b: &[f64], steps: usize) -> Vec<f64> {
        let mut x = vec![0.0; s.dim()];
        for _ in 0..steps {
            s.step(1.0, b, &mut x);
        }
        x
    }

    #[test]
    fn jacobi_iteration_converges_to_solution() {
        let a = laplacian(8);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.mul_vec(&x_true);
        let s = JacobiSplitting::new(&a).unwrap();
        let x = converge(&s, &b, 2000);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn ssor_iteration_converges_faster_than_jacobi() {
        let a = laplacian(16);
        let x_true: Vec<f64> = (0..16).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b = a.mul_vec(&x_true);
        let jac = JacobiSplitting::new(&a).unwrap();
        let ssor = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let err = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&x_true)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max)
        };
        let xj = converge(&jac, &b, 100);
        let xs = converge(&ssor, &b, 100);
        assert!(
            err(&xs) < err(&xj),
            "ssor {} vs jacobi {}",
            err(&xs),
            err(&xj)
        );
    }

    #[test]
    fn solve_p_matches_one_step_from_zero() {
        let a = laplacian(6);
        let s = NaturalSsorSplitting::new(&a, 1.2).unwrap();
        let r: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let mut z1 = vec![0.0; 6];
        s.solve_p(&r, &mut z1);
        let mut z2 = vec![0.0; 6];
        s.step(1.0, &r, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn msolve_with_unit_alphas_equals_m_steps() {
        let a = laplacian(6);
        let s = JacobiSplitting::new(&a).unwrap();
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
        let s = JacobiSplitting::new(&a).unwrap();
        let r = vec![1.0; 5];
        let mut z = vec![0.0; 5];
        s.msolve(&[2.0], &r, &mut z);
        let mut p = vec![0.0; 5];
        s.solve_p(&r, &mut p);
        for (u, v) in z.iter().zip(&p) {
            assert!((u - 2.0 * v).abs() < 1e-14);
        }
    }

    #[test]
    fn jacobi_spectrum_interval_of_laplacian() {
        // D⁻¹K for tridiag(-1,2,-1): eigenvalues 1 − cos(kπ/(n+1)) ∈ (0, 2).
        let n = 32;
        let a = laplacian(n);
        let s = JacobiSplitting::new(&a).unwrap();
        let (lo, hi) = s.spectrum_interval(32).unwrap();
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let exact_lo = 1.0 - h.cos();
        let exact_hi = 1.0 + h.cos();
        assert!(lo > 0.0 && lo < exact_lo * 2.0, "lo {lo} vs {exact_lo}");
        assert!(
            hi > exact_hi * 0.98 && hi < exact_hi * 1.1,
            "hi {hi} vs {exact_hi}"
        );
    }

    #[test]
    fn ssor_spectrum_upper_end_is_one() {
        let a = laplacian(12);
        let s = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let (lo, hi) = s.spectrum_interval(60).unwrap();
        assert_eq!(hi, 1.0);
        assert!(lo > 0.0 && lo < 1.0);
    }

    #[test]
    fn ssor_rejects_bad_omega() {
        let a = laplacian(4);
        assert!(NaturalSsorSplitting::new(&a, 0.0).is_err());
        assert!(NaturalSsorSplitting::new(&a, 2.0).is_err());
        assert!(NaturalSsorSplitting::new(&a, 1.99).is_ok());
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push_sym(0, 1, 1.0).unwrap();
        c.push(1, 1, 0.0).unwrap();
        assert!(JacobiSplitting::new(&c.to_csr()).is_err());
    }
}
