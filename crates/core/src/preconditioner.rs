//! The preconditioner abstraction of Algorithm 1.
//!
//! Step (6) of the PCG loop solves `M r̂^{k+1} = r^{k+1}`; a
//! [`Preconditioner`] performs exactly that solve. Implementations must
//! represent a symmetric positive definite `M` — PCG checks the induced
//! inner products at runtime and reports a typed error if they turn
//! nonpositive, which is the observable symptom of an indefinite `M`.

use mspcg_sparse::lanczos::SpectralInterval;
use mspcg_sparse::SparseError;

/// Application of `M⁻¹`: `z ← M⁻¹ r`.
pub trait Preconditioner {
    /// Dimension of the operator.
    fn dim(&self) -> usize;

    /// Solve `M z = r`.
    ///
    /// # Panics
    /// Implementations may panic if `r.len() != dim()` or
    /// `z.len() != dim()`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Cost of one application in *preconditioner steps* (the `m` of the
    /// paper's Eq. (4.1) cost model `T_m = N_m (A + mB)`). Identity returns
    /// 0, an m-step preconditioner returns `m`.
    fn steps_per_apply(&self) -> usize {
        1
    }

    /// Length of the caller-provided scratch [`Preconditioner::apply_with`]
    /// needs; `0` when the implementation keeps no per-apply state.
    fn scratch_len(&self) -> usize {
        0
    }

    /// Solve `M z = r` with caller-owned scratch of length
    /// [`Preconditioner::scratch_len`]. Numerically identical to
    /// [`Preconditioner::apply`], but implementations with internal locked
    /// buffers (the multicolor SSOR half-sum cache) use the scratch
    /// instead, so concurrent solves sharing one preconditioner — the
    /// batched multi-RHS workload — never serialize on a lock. The default
    /// ignores the scratch.
    fn apply_with(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        self.apply(r, z);
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

    fn apply(&self, r: &[f64], z: &mut [f64]) {
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
    /// [`SparseError::ZeroDiagonal`] if any entry is zero or not positive
    /// (an SPD matrix has a strictly positive diagonal).
    pub fn from_diag(diag: &[f64]) -> Result<Self, SparseError> {
        let mut inv = Vec::with_capacity(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            inv.push(1.0 / d);
        }
        Ok(DiagonalPreconditioner { inv_diag: inv })
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
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
