//! The m-step preconditioner — the paper's contribution, packaged.
//!
//! `M_m⁻¹ = (Σ_{i<m} αᵢ Gⁱ) P⁻¹` for the multicolor SSOR splitting
//! `K = P − Q`, evaluated by the Horner recurrence
//! `w_s = G w_{s−1} + α_{m−s} P⁻¹ r` (`w_0 = 0`) at the Conrad–Wallach
//! cost of one SOR sweep per step ([`MulticolorSsor::msolve_block`],
//! Algorithm 2). Constructors cover the paper's design space:
//! * **unparametrized** (`αᵢ = 1`): m steps of the stationary method, the
//!   truncated Neumann series `Σ Gⁱ` of `(I − G)⁻¹`,
//! * **parametrized**: least-squares or min-max coefficients on the
//!   spectral interval of `P⁻¹K` (§2.2), from the one SSOR estimate
//!   ([`crate::ssor::SweepTable::ssor_spectrum`]) or from an interval the
//!   caller kept ([`MStepSsorPreconditioner::with_interval`]), so a sweep
//!   over m estimates once. Every fit *fails* with
//!   [`SparseError::NotPositiveDefinite`] if the fitted polynomial is not
//!   positive on the interval — the §2.1 SPD requirement,
//! * **explicit** coefficients, unchecked
//!   ([`MStepSsorPreconditioner::with_coefficients`]).
//!
//! A polynomial in the Jacobi splitting `P = diag(K)` is the space
//! [`crate::poly::PolynomialPreconditioner`] covers, with a stable
//! three-term recurrence instead of Horner.

use crate::coeffs::{fit_alphas, least_squares_alphas, minimax_alphas, Fit};
use crate::poly::SPECTRUM_STEPS;
use crate::preconditioner::Preconditioner;
use crate::ssor::MulticolorSsor;
use mspcg_sparse::lanczos::SpectralInterval;
use mspcg_sparse::{CsrMatrix, Partition, SparseError, SparseOp};
use std::sync::Arc;

/// The paper's headline configuration: m-step **multicolor SSOR**, with
/// its coefficients and the interval they were fitted on.
#[derive(Debug)]
pub struct MStepSsorPreconditioner {
    ssor: MulticolorSsor,
    alphas: Vec<f64>,
    interval: Option<SpectralInterval>,
}

impl MStepSsorPreconditioner {
    /// Explicit coefficients over a built splitting (`alphas[i]`
    /// multiplies `Gⁱ P⁻¹`), unchecked: an indefinite choice such as
    /// α = [−1] builds, and PCG reports it at its first iteration.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] for an empty coefficient vector.
    pub fn with_coefficients(ssor: MulticolorSsor, alphas: Vec<f64>) -> Result<Self, SparseError> {
        Self::from_parts(ssor, alphas, None)
    }

    /// Coefficients and the interval they were fitted on (`None` for
    /// α = 1), as [`crate::poly::auto_ssor`] hands them back.
    pub(crate) fn from_parts(
        ssor: MulticolorSsor,
        alphas: Vec<f64>,
        interval: Option<SpectralInterval>,
    ) -> Result<Self, SparseError> {
        if alphas.is_empty() {
            return Err(SparseError::InvalidPartition {
                reason: "m must be at least 1".into(),
            });
        }
        Ok(MStepSsorPreconditioner {
            ssor,
            alphas,
            interval,
        })
    }

    /// Unparametrized m-step SSOR (ω = 1) on a color-blocked matrix. Clones
    /// the matrix and partition once; callers building many
    /// preconditioners over one system should use
    /// [`MStepSsorPreconditioner::unparametrized_shared`].
    ///
    /// # Errors
    /// [`MulticolorSsor::new`] validation errors, and
    /// [`SparseError::InvalidPartition`] if `m == 0`.
    pub fn unparametrized(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        Self::unparametrized_shared(Arc::new(a.clone()), Arc::new(colors.clone()), m)
    }

    /// Unparametrized m-step SSOR (ω = 1) from a color-blocked operator in
    /// **any** [`SparseOp`] format ([`MulticolorSsor::from_op`]): a solver
    /// driving its SpMV through SELL-C-σ gets a preconditioner bitwise
    /// identical to the CSR-built one.
    ///
    /// # Errors
    /// As [`MStepSsorPreconditioner::unparametrized`].
    pub fn unparametrized_op<A: SparseOp>(
        a: &A,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        let ssor = MulticolorSsor::from_op(a, Arc::new(colors.clone()), 1.0)?;
        Self::with_coefficients(ssor, vec![1.0; m])
    }

    /// Unparametrized m-step SSOR (ω = 1) sharing the system via `Arc` —
    /// no matrix or partition copy.
    ///
    /// # Errors
    /// As [`MStepSsorPreconditioner::unparametrized`].
    pub fn unparametrized_shared(
        a: Arc<CsrMatrix>,
        colors: Arc<Partition>,
        m: usize,
    ) -> Result<Self, SparseError> {
        Self::unparametrized_omega_shared(a, colors, m, 1.0)
    }

    /// Unparametrized with an explicit relaxation parameter (the ω-sweep
    /// ablation; the paper fixes ω = 1), sharing the system via `Arc`.
    ///
    /// # Errors
    /// As [`MStepSsorPreconditioner::unparametrized`], and for
    /// ω ∉ (0, 2).
    pub fn unparametrized_omega_shared(
        a: Arc<CsrMatrix>,
        colors: Arc<Partition>,
        m: usize,
        omega: f64,
    ) -> Result<Self, SparseError> {
        Self::with_coefficients(MulticolorSsor::new(a, colors, omega)?, vec![1.0; m])
    }

    /// Parametrized m-step SSOR (ω = 1) with least-squares coefficients on
    /// the estimated `σ(P⁻¹K)` interval — the paper's `mP` rows of
    /// Tables 2 and 3.
    ///
    /// # Errors
    /// Construction errors, the estimate's (a lower end on its clamp among
    /// them) and the fit's.
    pub fn parametrized(a: &CsrMatrix, colors: &Partition, m: usize) -> Result<Self, SparseError> {
        Self::estimated(a, colors, m, least_squares_alphas)
    }

    /// Parametrized with the min-max (Chebyshev) criterion instead.
    ///
    /// # Errors
    /// As [`MStepSsorPreconditioner::parametrized`].
    pub fn parametrized_minimax(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
    ) -> Result<Self, SparseError> {
        Self::estimated(a, colors, m, minimax_alphas)
    }

    /// Parametrized m-step SSOR (ω = 1) fitted by `fit` on a kept interval
    /// (an earlier [`MStepSsorPreconditioner::interval`], or
    /// [`crate::ssor::SweepTable::ssor_spectrum`]) without estimating
    /// again: bitwise what `parametrized` (`fit` = [`least_squares_alphas`])
    /// or `parametrized_minimax` builds on that interval.
    ///
    /// # Errors
    /// Construction errors and the fit's.
    pub fn with_interval(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
        interval: SpectralInterval,
        fit: Fit,
    ) -> Result<Self, SparseError> {
        let ssor = MulticolorSsor::new(a.clone(), colors.clone(), 1.0)?;
        let alphas = fit_alphas(m, (interval.min, interval.max), fit)?;
        Self::from_parts(ssor, alphas, Some(interval))
    }

    fn estimated(
        a: &CsrMatrix,
        colors: &Partition,
        m: usize,
        fit: Fit,
    ) -> Result<Self, SparseError> {
        let ssor = MulticolorSsor::new(a.clone(), colors.clone(), 1.0)?;
        let interval = ssor.table().ssor_spectrum(1.0, SPECTRUM_STEPS)?;
        let alphas = fit_alphas(m, (interval.min, interval.max), fit)?;
        Self::from_parts(ssor, alphas, Some(interval))
    }

    /// Number of steps `m`.
    pub fn m(&self) -> usize {
        self.alphas.len()
    }

    /// Coefficients (length `m`); all ones when unparametrized.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The SSOR interval the coefficients were fitted on; `None` for
    /// explicit coefficients and α = 1 (an `Auto` fallback included).
    pub fn interval(&self) -> Option<SpectralInterval> {
        self.interval
    }
}

impl Preconditioner for MStepSsorPreconditioner {
    fn dim(&self) -> usize {
        self.ssor.dim()
    }

    fn steps_per_apply(&self) -> usize {
        self.alphas.len()
    }

    /// The Conrad–Wallach half-sum cache: one `f64` per unknown.
    fn scratch_len(&self) -> usize {
        self.ssor.dim()
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.ssor.msolve_block::<1>(&self.alphas, r, z, scratch);
    }

    /// Every column, active or not, in one block msolve.
    fn apply_block<const W: usize>(
        &self,
        r: &[f64],
        z: &mut [f64],
        _active: &[bool; W],
        scratch: &mut [f64],
    ) {
        self.ssor.msolve_block::<W>(&self.alphas, r, z, scratch);
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
        let interval = pre.interval().unwrap();
        assert!(interval.min > 0.0 && interval.max == 1.0);
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
        let split = MulticolorSsor::new(a, p, 1.0).unwrap();
        split.step(1.0, &r, &mut z2);
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

        let split = MulticolorSsor::new(a, p, 1.0).unwrap();
        let mut term = vec![0.0; 6];
        split.step(1.0, &r, &mut term);
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
        let pre = MStepSsorPreconditioner::with_coefficients(s, vec![2.0]).unwrap();
        let r = vec![1.0; 6];
        let mut z = vec![0.0; 6];
        pre.apply(&r, &mut z);
        let mut half = vec![0.0; 6];
        let split = MulticolorSsor::new(a, p, 1.0).unwrap();
        split.step(1.0, &r, &mut half);
        for (u, v) in z.iter().zip(&half) {
            assert!((u - 2.0 * v).abs() < 1e-14);
        }
    }

    #[test]
    fn empty_coefficients_rejected() {
        let (a, p) = rb_system(6);
        let s = MulticolorSsor::new(a.clone(), p.clone(), 1.0).unwrap();
        assert!(MStepSsorPreconditioner::with_coefficients(s, vec![]).is_err());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn m_sweep_fits_on_one_kept_interval() {
        // The m-step counterpart of the polynomial degree sweep: one
        // estimate, kept, serves every m. Each fit reports the kept
        // interval bit for bit and the α a fresh estimate fits.
        let (a, p) = rb_system(24);
        let first = MStepSsorPreconditioner::parametrized(&a, &p, 2).unwrap();
        let kept = first.interval().unwrap();
        let table = MulticolorSsor::new(a.clone(), p.clone(), 1.0).unwrap();
        assert_eq!(
            kept,
            table.table().ssor_spectrum(1.0, SPECTRUM_STEPS).unwrap()
        );
        let ends = |i: SpectralInterval| (i.min.to_bits(), i.max.to_bits(), i.steps);
        for m in 2..=6 {
            for (fit, fresh) in [
                (
                    least_squares_alphas as Fit,
                    MStepSsorPreconditioner::parametrized(&a, &p, m).unwrap(),
                ),
                (
                    minimax_alphas,
                    MStepSsorPreconditioner::parametrized_minimax(&a, &p, m).unwrap(),
                ),
            ] {
                let swept = MStepSsorPreconditioner::with_interval(&a, &p, m, kept, fit).unwrap();
                assert_eq!(ends(swept.interval().unwrap()), ends(kept), "m = {m}");
                assert_eq!(bits(swept.alphas()), bits(fresh.alphas()), "m = {m}");
            }
        }
    }
}
