//! Extreme-eigenvalue estimation for symmetric operators.
//!
//! The parametrized preconditioner of §2.2 needs the interval `[λ₁, λₙ]`
//! containing the spectrum of `P⁻¹K`. For small problems the dense Jacobi
//! eigensolver suffices; for realistic plates we estimate the extremes with
//! a Lanczos process with full reorthogonalization (cheap because we only
//! run a few dozen steps); the caller safeguards the Ritz extremes
//! (`mspcg_core::poly::jacobi_spectrum` widens each end relative to
//! itself).
//!
//! The operator is supplied as a closure `apply(x, y)` computing `y = A x`,
//! so both explicit matrices and matrix-free preconditioned operators (e.g.
//! `G = I − P⁻¹K`) can be analyzed.

use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::vecops;

/// Result of a spectral estimation: Lanczos, or the SSOR power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralInterval {
    /// Estimated smallest eigenvalue.
    pub min: f64,
    /// Estimated largest eigenvalue.
    pub max: f64,
    /// Lanczos steps performed, or the SSOR power iteration's budget.
    pub steps: usize,
}

impl SpectralInterval {
    /// Condition-number style ratio `max/min` (∞ when `min ≤ 0`).
    pub fn ratio(self) -> f64 {
        if self.min <= 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Deterministic pseudo-random unit starting vector (xorshift; avoids an
/// external RNG dependency in this substrate crate and keeps runs
/// reproducible).
fn seeded_unit_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to (-1, 1).
        v.push((state as f64 / u64::MAX as f64) * 2.0 - 1.0);
    }
    let nrm = vecops::norm2(&v);
    if nrm > 0.0 {
        vecops::scale(1.0 / nrm, &mut v);
    }
    v
}

/// Estimate the extreme eigenvalues of a symmetric operator of dimension
/// `n` using at most `max_steps` Lanczos iterations with full
/// reorthogonalization.
///
/// # Errors
/// [`SparseError::DidNotConverge`] after 0 steps for an empty operator
/// (`n == 0` has no spectrum), and when the Krylov space collapses at
/// step 0 (zero operator on a zero start vector — practically impossible
/// with the seeded start).
pub fn lanczos_extremes<F>(
    n: usize,
    max_steps: usize,
    seed: u64,
    mut apply: F,
) -> Result<SpectralInterval, SparseError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    if n == 0 {
        return Err(SparseError::DidNotConverge {
            iterations: 0,
            residual: f64::NAN,
        });
    }
    let m = max_steps.min(n).max(1);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    basis.push(seeded_unit_vector(n, seed));
    let mut w = vec![0.0; n];

    for j in 0..m {
        apply(&basis[j], &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            vecops::axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        let alpha = vecops::dot(&basis[j], &w);
        vecops::axpy(-alpha, &basis[j], &mut w);
        // Full reorthogonalization: two passes of modified Gram–Schmidt
        // (each coefficient is taken against the already-updated `w`).
        for _ in 0..2 {
            for q in &basis {
                let c = vecops::dot(q, &w);
                if c != 0.0 {
                    vecops::axpy(-c, q, &mut w);
                }
            }
        }
        alphas.push(alpha);
        let beta = vecops::norm2(&w);
        if beta <= 1e-13 * alpha.abs().max(1.0) {
            // Invariant subspace found: Ritz values are exact.
            break;
        }
        betas.push(beta);
        let mut next = w.clone();
        vecops::scale(1.0 / beta, &mut next);
        basis.push(next);
    }

    let k = alphas.len();
    if k == 0 {
        return Err(SparseError::DidNotConverge {
            iterations: 0,
            residual: f64::NAN,
        });
    }
    // Eigenvalues of the k×k tridiagonal Ritz matrix via the dense solver.
    let mut t = DenseMatrix::zeros(k, k);
    for i in 0..k {
        t[(i, i)] = alphas[i];
        if i + 1 < k {
            t[(i, i + 1)] = betas[i];
            t[(i + 1, i)] = betas[i];
        }
    }
    let eig = t.sym_eigenvalues()?;
    Ok(SpectralInterval {
        min: eig[0],
        max: eig[k - 1],
        steps: k,
    })
}

/// Spectral-radius estimate by power iteration (used for `ρ(G)` of the
/// splitting iteration matrix, §2.1). Returns the dominant `|λ|`.
///
/// # Errors
/// [`SparseError::DidNotConverge`] after 0 iterations for an empty
/// operator (`n == 0`) or when the first iterate collapses to zero.
pub fn power_spectral_radius<F>(
    n: usize,
    iterations: usize,
    seed: u64,
    mut apply: F,
) -> Result<f64, SparseError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    if n == 0 {
        return Err(SparseError::DidNotConverge {
            iterations: 0,
            residual: 0.0,
        });
    }
    let mut x = seeded_unit_vector(n, seed);
    let mut y = vec![0.0; n];
    let mut rho = 0.0;
    for it in 0..iterations {
        apply(&x, &mut y);
        let nrm = vecops::norm2(&y);
        if nrm == 0.0 {
            if it == 0 {
                return Err(SparseError::DidNotConverge {
                    iterations: it,
                    residual: 0.0,
                });
            }
            return Ok(0.0);
        }
        rho = nrm;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / nrm;
        }
    }
    Ok(rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
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
    fn lanczos_recovers_1d_laplacian_extremes() {
        let n = 64;
        let a = laplacian_1d(n);
        let est = lanczos_extremes(n, 48, 7, |x, y| a.mul_vec_into(x, y)).unwrap();
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let exact_min = 2.0 - 2.0 * h.cos();
        let exact_max = 2.0 + 2.0 * (n as f64 * h).cos().abs();
        assert!((est.max - exact_max).abs() / exact_max < 1e-3, "{est:?}");
        // λmin is harder; allow 10% and the interval must bracket from inside.
        assert!(
            est.min >= exact_min * 0.5 && est.min <= exact_min * 1.5,
            "{est:?}"
        );
    }

    #[test]
    fn lanczos_exact_on_small_matrix() {
        // n = 3 runs to completion -> exact eigenvalues.
        let a = laplacian_1d(3);
        let est = lanczos_extremes(3, 3, 1, |x, y| a.mul_vec_into(x, y)).unwrap();
        assert!((est.min - (2.0 - 2f64.sqrt())).abs() < 1e-10);
        assert!((est.max - (2.0 + 2f64.sqrt())).abs() < 1e-10);
    }

    #[test]
    fn lanczos_diagonal_operator() {
        let d = [1.0, 5.0, 9.0, 13.0];
        let est = lanczos_extremes(4, 4, 3, |x, y| {
            for i in 0..4 {
                y[i] = d[i] * x[i];
            }
        })
        .unwrap();
        assert!((est.min - 1.0).abs() < 1e-9);
        assert!((est.max - 13.0).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_dominant_eigenvalue() {
        let d = [0.3, -0.9, 0.5];
        let rho = power_spectral_radius(3, 200, 11, |x, y| {
            for i in 0..3 {
                y[i] = d[i] * x[i];
            }
        })
        .unwrap();
        assert!((rho - 0.9).abs() < 1e-6);
    }

    #[test]
    fn power_iteration_zero_operator() {
        let r = power_spectral_radius(3, 10, 5, |_x, y| y.fill(0.0));
        assert!(r.is_err() || r.unwrap() == 0.0);
    }

    #[test]
    fn lanczos_one_by_one_operator_is_exact() {
        // n = 1: the Krylov space is the whole space; both extremes equal
        // the single entry regardless of the requested step budget.
        let est = lanczos_extremes(1, 16, 9, |x, y| y[0] = 3.5 * x[0]).unwrap();
        assert_eq!(est.min, 3.5);
        assert_eq!(est.max, 3.5);
        assert_eq!(est.steps, 1);
    }

    #[test]
    fn lanczos_scaled_identity_breaks_early_with_degenerate_interval() {
        // A pure-diagonal operator with equal entries: the first Lanczos
        // step finds an invariant subspace, so the estimate is exact and
        // degenerate (λmin = λmax) after one step.
        let est = lanczos_extremes(8, 8, 2, |x, y| {
            for i in 0..8 {
                y[i] = 2.0 * x[i];
            }
        })
        .unwrap();
        assert!((est.min - 2.0).abs() < 1e-12, "{est:?}");
        assert!((est.max - 2.0).abs() < 1e-12, "{est:?}");
        assert_eq!(est.steps, 1);
    }

    #[test]
    fn empty_operator_is_an_error_not_a_panic() {
        let never = |_: &[f64], _: &mut [f64]| unreachable!("no operator to apply");
        assert!(matches!(
            lanczos_extremes(0, 8, 1, never),
            Err(SparseError::DidNotConverge { iterations: 0, .. })
        ));
        assert!(matches!(
            power_spectral_radius(0, 8, 1, never),
            Err(SparseError::DidNotConverge { iterations: 0, .. })
        ));
    }

    #[test]
    fn ratio_of_nonpositive_interval_is_infinite() {
        let s = SpectralInterval {
            min: 0.0,
            max: 2.0,
            steps: 1,
        };
        assert!(s.ratio().is_infinite());
    }
}
