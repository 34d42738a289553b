//! The preconditioner abstraction of Algorithm 1.
//!
//! Step (6) of the PCG loop solves `M r̂^{k+1} = r^{k+1}`; a
//! [`Preconditioner`] performs exactly that solve. Implementations must
//! represent a symmetric positive definite `M` — PCG checks the induced
//! inner products at runtime and reports a typed error if they turn
//! nonpositive, which is the observable symptom of an indefinite `M`.

use mspcg_sparse::lanczos::SpectralInterval;
use mspcg_sparse::op::by_column;
use mspcg_sparse::SparseError;

/// Application of `M⁻¹`: `z ← M⁻¹ r`.
///
/// [`Preconditioner::apply_with`] is the one application an implementation
/// writes: every solve reaches it, through [`Preconditioner::apply_block`]
/// (whose default runs it column by column) or through a block override
/// that is bitwise the same per column. It works on scratch the caller
/// owns, so an implementation holds no per-application state and the
/// concurrent solves of a batch share one preconditioner without a lock.
/// [`Preconditioner::apply`] is `apply_with` on freshly allocated scratch.
pub trait Preconditioner {
    /// Dimension of the operator.
    fn dim(&self) -> usize;

    /// Solve `M z = r` with caller-owned scratch of at least
    /// [`Preconditioner::scratch_len`] values, whose contents on entry do
    /// not matter.
    ///
    /// # Panics
    /// Implementations may panic if `r.len() != dim()`,
    /// `z.len() != dim()` or the scratch is too short.
    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]);

    /// Solve `M z = r`: [`Preconditioner::apply_with`] on a scratch it
    /// allocates, for one-off applications (the dense analyses, tests).
    ///
    /// # Panics
    /// As [`Preconditioner::apply_with`].
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_with(r, z, &mut vec![0.0; self.scratch_len()]);
    }

    /// Cost of one application in *preconditioner steps* (the `m` of the
    /// paper's Eq. (4.1) cost model `T_m = N_m (A + mB)`). Identity returns
    /// 0, an m-step preconditioner returns `m`.
    fn steps_per_apply(&self) -> usize {
        1
    }

    /// Length of the caller-provided scratch [`Preconditioner::apply_with`]
    /// needs; `0` when the implementation needs none.
    fn scratch_len(&self) -> usize {
        0
    }

    /// [`Preconditioner::apply_with`] on `W` right-hand sides stored
    /// interleaved — column `j` of row `i` at `i·W + j`, in `r` and `z`
    /// alike — for the columns with `active[j]`: each such column of `z` is
    /// bitwise the `apply_with` of that column of `r`. An inactive column
    /// of `z` is left as it is or overwritten with the solve of the same
    /// column of `r`.
    ///
    /// `scratch` holds at least [`block_scratch_len`]`(self, W)` values.
    /// The default goes column by column through `apply_with`
    /// ([`by_column`]). The m-step multicolor SSOR overrides it, through
    /// [`MulticolorSsor::msolve_block`](crate::ssor::MulticolorSsor::msolve_block),
    /// with sweeps that load each stored entry once per block.
    ///
    /// # Panics
    /// If `r` or `z` is not `W·dim()` long or `scratch` is too short.
    fn apply_block<const W: usize>(
        &self,
        r: &[f64],
        z: &mut [f64],
        active: &[bool; W],
        scratch: &mut [f64],
    ) {
        let (n, s) = (self.dim(), self.scratch_len());
        assert_eq!(r.len(), W * n, "apply_block: r length mismatch");
        assert_eq!(z.len(), W * n, "apply_block: z length mismatch");
        by_column(r, z, active, scratch, |r, z, scratch| {
            self.apply_with(r, z, &mut scratch[..s]);
        });
    }

    /// A spectral interval this preconditioner already paid a Lanczos run
    /// for, if it has one: the [`crate::poly::PolynomialPreconditioner`]
    /// returns its cached Jacobi-scaled spectrum, so a consumer that needs
    /// eigenvalue bounds on the same operator can reuse that estimate
    /// instead of re-running Lanczos. No solver in this crate reads it.
    /// `None` (the default) means the preconditioner holds no estimate.
    fn spectral_hint(&self) -> Option<SpectralInterval> {
        None
    }
}

/// The scratch [`Preconditioner::apply_block`] needs on `w` columns:
/// `w·s` for a block kernel and `s + 2·dim()` for the column-by-column
/// default (`s` = [`Preconditioner::scratch_len`]), so the larger of the
/// two — except at width 1, where the default copies no column and `s`
/// is all either needs. It also covers [`SparseOp::mul_block_into`]'s
/// default on an operator of the same dimension.
///
/// [`SparseOp::mul_block_into`]: mspcg_sparse::SparseOp::mul_block_into
pub fn block_scratch_len(m: &impl Preconditioner, w: usize) -> usize {
    let s = m.scratch_len();
    if w == 1 {
        s
    } else {
        (w * s).max(s + 2 * m.dim())
    }
}

/// `M = I`: plain conjugate gradients.
#[derive(Debug, Clone)]
pub struct IdentityPreconditioner {
    n: usize,
}

impl IdentityPreconditioner {
    /// Identity of dimension `n`.
    pub fn new(n: usize) -> Self {
        IdentityPreconditioner { n }
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        assert_eq!(r.len(), self.n, "identity: length mismatch");
        z.copy_from_slice(r);
    }

    fn steps_per_apply(&self) -> usize {
        0
    }
}

/// `M = diag(K)`: one-step Jacobi (diagonal) scaling.
#[derive(Debug, Clone)]
pub struct DiagonalPreconditioner {
    inv_diag: Vec<f64>,
}

impl DiagonalPreconditioner {
    /// Build from the matrix diagonal.
    ///
    /// # Errors
    /// [`SparseError::ZeroDiagonal`] at the first entry that is not
    /// positive and finite.
    pub fn from_diag(diag: &[f64]) -> Result<Self, SparseError> {
        Ok(DiagonalPreconditioner {
            inv_diag: checked_recip(diag)?,
        })
    }
}

/// `1/dᵢ` for a matrix diagonal, or [`SparseError::ZeroDiagonal`] at its
/// first entry that is not positive and finite (an SPD matrix has a
/// strictly positive diagonal) — the one check the diagonal scaling, the
/// polynomial and the natural-order SSOR share.
pub(crate) fn checked_recip(diag: &[f64]) -> Result<Vec<f64>, SparseError> {
    match diag.iter().position(|&d| !(d > 0.0 && d.is_finite())) {
        Some(row) => Err(SparseError::ZeroDiagonal { row }),
        None => Ok(diag.iter().map(|d| 1.0 / d).collect()),
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply_with(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "diagonal: length mismatch");
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_copies() {
        let p = IdentityPreconditioner::new(3);
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
        assert_eq!(p.steps_per_apply(), 0);
    }

    #[test]
    fn diagonal_inverts() {
        let p = DiagonalPreconditioner::from_diag(&[2.0, 4.0]).unwrap();
        let mut z = vec![0.0; 2];
        p.apply(&[2.0, 2.0], &mut z);
        assert_eq!(z, vec![1.0, 0.5]);
    }

    #[test]
    fn diagonal_rejects_nonpositive() {
        assert!(matches!(
            DiagonalPreconditioner::from_diag(&[1.0, 0.0]),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
        assert!(DiagonalPreconditioner::from_diag(&[1.0, -3.0]).is_err());
    }
}
