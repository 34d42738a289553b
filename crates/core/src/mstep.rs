//! The m-step preconditioner — the paper's contribution, packaged.
//!
//! `M_m⁻¹ = (Σ_{i<m} αᵢ Gⁱ) P⁻¹` for a splitting `K = P − Q`, evaluated by
//! the Horner recurrence `w_s = G w_{s−1} + α_{m−s} P⁻¹ r` (`w_0 = 0`),
//! which the [`crate::splitting::Splitting::msolve`] implementations
//! perform — for the multicolor SSOR splitting, with the Conrad–Wallach
//! cost of one SOR sweep per step (Algorithm 2).
//!
//! Constructors cover the paper's whole design space:
//! * **unparametrized** (`αᵢ = 1`): m steps of the stationary method, the
//!   truncated Neumann series `Σ Gⁱ` of `(I − G)⁻¹`,
//! * **parametrized**: least-squares or min-max coefficients on the
//!   estimated spectral interval of `P⁻¹K` (§2.2). Construction *fails*
//!   with [`SparseError::NotPositiveDefinite`] if the fitted polynomial is
//!   not positive on the interval — the §2.1 SPD requirement.
//!
//! The splittings are the multicolor SSOR ([`MStepSsorPreconditioner`])
//! and the natural-order SSOR baseline. A polynomial in the Jacobi
//! splitting `P = diag(K)` is the space
//! [`crate::poly::PolynomialPreconditioner`] covers, with a stable
//! three-term recurrence instead of Horner.

use crate::coeffs::{least_squares_alphas, minimax_alphas, spd_margin};
use crate::preconditioner::Preconditioner;
use crate::splitting::Splitting;
use crate::ssor::MulticolorSsor;
use mspcg_sparse::{CsrMatrix, Partition, SparseError, SparseOp};
use std::sync::Arc;

/// Power-iteration budget used when a constructor must estimate the
/// spectral interval itself (and by `Auto`'s SSOR estimate, so both fit
/// on bitwise the same interval).
pub(crate) const SPECTRUM_ITERS: usize = 60;

/// An m-step preconditioner over any splitting.
#[derive(Debug)]
pub struct MStep<S: Splitting> {
    splitting: S,
    alphas: Vec<f64>,
    interval: Option<(f64, f64)>,
}

impl<S: Splitting> MStep<S> {
    /// Unparametrized m-step preconditioner (`αᵢ = 1`).
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] if `m == 0`.
    pub fn new_unparametrized(splitting: S, m: usize) -> Result<Self, SparseError> {
        if m == 0 {
            return Err(SparseError::InvalidPartition {
                reason: "m must be at least 1".into(),
            });
        }
        Ok(MStep {
            splitting,
            alphas: vec![1.0; m],
            interval: None,
        })
    }

    /// Explicit coefficients (`alphas[i]` multiplies `Gⁱ P⁻¹`).
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] for an empty coefficient vector.
    pub fn new_with_coefficients(splitting: S, alphas: Vec<f64>) -> Result<Self, SparseError> {
        if alphas.is_empty() {
            return Err(SparseError::InvalidPartition {
                reason: "coefficient vector must be nonempty".into(),
            });
        }
        Ok(MStep {
            splitting,
            alphas,
            interval: None,
        })
    }

    /// Least-squares parametrized preconditioner; the spectral interval of
    /// `P⁻¹K` is estimated from the splitting.
    ///
    /// # Errors
    /// Estimation/fit failures, or [`SparseError::NotPositiveDefinite`] if
    /// the fitted symbol is not positive on the interval (M would not be
    /// SPD, violating §2.1).
    pub fn new_least_squares(splitting: S, m: usize) -> Result<Self, SparseError> {
        let interval = splitting.spectrum_interval(SPECTRUM_ITERS)?;
        let alphas = least_squares_alphas(m, interval)?;
        Self::checked(splitting, alphas, interval)
    }

    /// Min-max (Chebyshev) parametrized preconditioner.
    ///
    /// # Errors
    /// Same classes as [`MStep::new_least_squares`].
    pub fn new_minimax(splitting: S, m: usize) -> Result<Self, SparseError> {
        let interval = splitting.spectrum_interval(SPECTRUM_ITERS)?;
        let alphas = minimax_alphas(m, interval)?;
        Self::checked(splitting, alphas, interval)
    }

    fn checked(splitting: S, alphas: Vec<f64>, interval: (f64, f64)) -> Result<Self, SparseError> {
        let margin = spd_margin(&alphas, interval);
        if margin <= 0.0 {
            return Err(SparseError::NotPositiveDefinite {
                pivot: 0,
                value: margin,
            });
        }
        Self::fitted(splitting, alphas, Some(interval))
    }

    /// Coefficients fitted and checked elsewhere: `interval` is the
    /// spectral interval they were fitted on, `None` for coefficients
    /// that need none (α = 1) — what [`crate::poly::resolve_precond`]
    /// hands back.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] if `alphas` is empty (`m == 0`).
    pub(crate) fn fitted(
        splitting: S,
        alphas: Vec<f64>,
        interval: Option<(f64, f64)>,
    ) -> Result<Self, SparseError> {
        if alphas.is_empty() {
            return Err(SparseError::InvalidPartition {
                reason: "m must be at least 1".into(),
            });
        }
        Ok(MStep {
            splitting,
            alphas,
            interval,
        })
    }

    /// Number of steps `m`.
    pub fn m(&self) -> usize {
        self.alphas.len()
    }

    /// Coefficients (length `m`); all ones when unparametrized.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The spectral interval used for fitting, when one was estimated;
    /// `None` for α = 1, including an `Auto` resolution that fell back to
    /// it.
    pub fn interval(&self) -> Option<(f64, f64)> {
        self.interval
    }

    /// Borrow the underlying splitting.
    pub fn splitting(&self) -> &S {
        &self.splitting
    }
}

impl<S: Splitting> Preconditioner for MStep<S> {
    fn dim(&self) -> usize {
        self.splitting.dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.splitting.msolve(&self.alphas, r, z);
    }

    fn steps_per_apply(&self) -> usize {
        self.alphas.len()
    }

    fn scratch_len(&self) -> usize {
        self.splitting.msolve_scratch_len()
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.splitting.msolve_with(&self.alphas, r, z, scratch);
    }

    fn apply_block<const W: usize>(
        &self,
        r: &[f64],
        z: &mut [f64],
        active: &[bool; W],
        scratch: &mut [f64],
    ) {
        self.splitting
            .msolve_block(&self.alphas, r, z, active, scratch);
    }
}

/// The paper's headline configuration: m-step **multicolor SSOR** PCG.
pub type MStepSsorPreconditioner = MStep<MulticolorSsor>;

impl MStepSsorPreconditioner {
    /// Unparametrized m-step SSOR (ω = 1) on a color-blocked matrix.
    ///
    /// Clones the matrix and partition once; sweep-style callers building
    /// many preconditioners over one system should use
    /// [`MStepSsorPreconditioner::unparametrized_shared`].
    ///
    /// # Errors
    /// Propagates [`MulticolorSsor::new`] validation errors.
    pub fn unparametrized(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        Self::unparametrized_shared(Arc::new(a.clone()), Arc::new(colors.clone()), m)
    }

    /// Unparametrized m-step SSOR (ω = 1) from a color-blocked operator in
    /// **any** [`SparseOp`] format: the SSOR sweep structure is
    /// materialized via [`MulticolorSsor::from_op`], so a solver driving
    /// its SpMV through SELL-C-σ (or any future format) gets a
    /// preconditioner bitwise identical to the CSR-built one.
    ///
    /// # Errors
    /// Propagates [`MulticolorSsor::new`] validation errors.
    pub fn unparametrized_op<A: SparseOp>(
        a: &A,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        let s = MulticolorSsor::from_op(a, Arc::new(colors.clone()), 1.0)?;
        Self::new_unparametrized(s, m)
    }

    /// Unparametrized m-step SSOR (ω = 1) sharing the system via `Arc` —
    /// no matrix or partition copy.
    ///
    /// # Errors
    /// Propagates [`MulticolorSsor::new`] validation errors.
    pub fn unparametrized_shared(
        a: Arc<CsrMatrix>,
        colors: Arc<Partition>,
        m: usize,
    ) -> Result<Self, SparseError> {
        let s = MulticolorSsor::new(a, colors, 1.0)?;
        Self::new_unparametrized(s, m)
    }

    /// Parametrized m-step SSOR (ω = 1) with least-squares coefficients on
    /// the estimated `σ(P⁻¹K)` interval — the paper's `mP` rows of
    /// Tables 2 and 3.
    ///
    /// # Errors
    /// Propagates construction, estimation and SPD-check errors.
    pub fn parametrized(a: &CsrMatrix, colors: &Partition, m: usize) -> Result<Self, SparseError> {
        let s = MulticolorSsor::new(a.clone(), colors.clone(), 1.0)?;
        Self::new_least_squares(s, m)
    }

    /// Parametrized with the min-max (Chebyshev) criterion instead.
    ///
    /// # Errors
    /// Propagates construction, estimation and SPD-check errors.
    pub fn parametrized_minimax(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        let s = MulticolorSsor::new(a.clone(), colors.clone(), 1.0)?;
        Self::new_minimax(s, m)
    }

    /// Unparametrized with an explicit relaxation parameter (the ω-sweep
    /// ablation; the paper fixes ω = 1), sharing the system via `Arc` — the
    /// sweep builds one splitting per ω without ever copying the matrix.
    ///
    /// # Errors
    /// Propagates construction errors (including ω ∉ (0, 2)).
    pub fn unparametrized_omega_shared(
        a: Arc<CsrMatrix>,
        colors: Arc<Partition>,
        m: usize,
        omega: f64,
    ) -> Result<Self, SparseError> {
        let s = MulticolorSsor::new(a, colors, omega)?;
        Self::new_unparametrized(s, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CooMatrix;

    fn rb_system(n: usize) -> (CsrMatrix, Partition) {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                a.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = a.to_csr();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
        (ord.permute_matrix(&a).unwrap(), ord.partition)
    }

    #[test]
    fn zero_steps_rejected() {
        let (a, p) = rb_system(6);
        assert!(MStepSsorPreconditioner::unparametrized(&a, &p, 0).is_err());
    }

    #[test]
    fn parametrized_records_interval() {
        let (a, p) = rb_system(10);
        let pre = MStepSsorPreconditioner::parametrized(&a, &p, 3).unwrap();
        let (lo, hi) = pre.interval().unwrap();
        assert!(lo > 0.0 && hi == 1.0);
        assert_eq!(pre.m(), 3);
        assert_eq!(pre.steps_per_apply(), 3);
    }

    #[test]
    fn unparametrized_alphas_are_ones() {
        let (a, p) = rb_system(8);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 4).unwrap();
        assert_eq!(pre.alphas(), &[1.0, 1.0, 1.0, 1.0]);
        assert!(pre.interval().is_none());
    }

    #[test]
    fn apply_with_m1_equals_p_solve() {
        let (a, p) = rb_system(8);
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
        let r: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let mut z1 = vec![0.0; 8];
        pre.apply(&r, &mut z1);
        let mut z2 = vec![0.0; 8];
        pre.splitting().solve_p(&r, &mut z2);
        for (u, v) in z1.iter().zip(&z2) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn neumann_matches_manual_series() {
        // Unparametrized m-step: z = Σ_{i<m} Gⁱ P⁻¹ r, the truncated
        // Neumann series of (I − G)⁻¹ = P K⁻¹ applied to P⁻¹ r.
        let (a, p) = rb_system(6);
        let m = 3;
        let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
        let r: Vec<f64> = (0..6).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut z = vec![0.0; 6];
        pre.apply(&r, &mut z);

        let split = pre.splitting();
        let mut term = vec![0.0; 6];
        split.solve_p(&r, &mut term);
        let mut sum = term.clone();
        for _ in 1..m {
            // term ← G term: one stationary step on a zero right-hand side.
            split.step(0.0, &r, &mut term);
            for i in 0..6 {
                sum[i] += term[i];
            }
        }
        for (u, v) in z.iter().zip(&sum) {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
    }

    #[test]
    fn explicit_coefficients_are_used_verbatim() {
        let (a, p) = rb_system(6);
        let s = MulticolorSsor::new(a.clone(), p.clone(), 1.0).unwrap();
        let pre = MStep::new_with_coefficients(s, vec![2.0]).unwrap();
        let r = vec![1.0; 6];
        let mut z = vec![0.0; 6];
        pre.apply(&r, &mut z);
        let mut half = vec![0.0; 6];
        pre.splitting().solve_p(&r, &mut half);
        for (u, v) in z.iter().zip(&half) {
            assert!((u - 2.0 * v).abs() < 1e-14);
        }
    }

    #[test]
    fn empty_coefficients_rejected() {
        let (a, p) = rb_system(6);
        let s = MulticolorSsor::new(a.clone(), p.clone(), 1.0).unwrap();
        assert!(MStep::new_with_coefficients(s, vec![]).is_err());
    }
}
