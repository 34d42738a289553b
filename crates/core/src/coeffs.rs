//! Parametrization of the m-step preconditioner (§2.2, Table 1).
//!
//! With `G = P⁻¹Q` and `t` ranging over the spectrum of `P⁻¹K ⊆ [λ₁, λₙ]`,
//! the preconditioned operator's eigenvalues are
//!
//! ```text
//! q(t) = t · Σ_{i=0}^{m−1} αᵢ (1 − t)ⁱ
//! ```
//!
//! Johnson–Micchelli–Paul (1983) choose the `αᵢ` so `q(t) ≈ 1` on
//! `[λ₁, λₙ]` under either a **least-squares** or a **min-max** criterion;
//! Adams applies the same idea to arbitrary splittings (SSOR in
//! particular). Unparametrized means `αᵢ = 1`, i.e. plain m-step stationary
//! iteration.
//!
//! * [`least_squares_alphas`] — minimizes `∫ (1 − q(t))² dt` by
//!   solving the (tiny, SPD) normal equations with exact Gauss–Legendre
//!   quadrature and dense Cholesky,
//! * [`minimax_alphas`] — the Chebyshev min-max solution
//!   `1 − q(t) = T_m(μ(t)) / T_m(μ(0))`, expanded into the `(1 − t)ⁱ`
//!   basis by interpolation,
//! * [`residual_at`] / [`spd_margin`] — evaluation helpers used by tests
//!   and by the SPD validity check of §2.1 (necessary and sufficient: the
//!   symbol `σ(g) = Σ αᵢ gⁱ` must stay positive on the spectrum of `G`),
//! * `fit_alphas` — the one fit every parametrized m-step preconditioner
//!   runs, `Auto`'s included: a criterion, then that check.

use crate::quadrature::gauss_legendre;
use mspcg_sparse::{DenseMatrix, SparseError};

/// A fit criterion of §2.2: [`least_squares_alphas`] or [`minimax_alphas`].
pub type Fit = fn(usize, (f64, f64)) -> Result<Vec<f64>, SparseError>;

/// Fit `m` coefficients by `fit` on the interval `ends`, then check §2.1:
/// `M` is SPD iff the symbol is positive on the spectrum of `G`
/// ([`spd_margin`]).
///
/// # Errors
/// The fit's, and [`SparseError::NotPositiveDefinite`] (pivot 0, the margin
/// as value) for a nonpositive margin.
pub(crate) fn fit_alphas(m: usize, ends: (f64, f64), fit: Fit) -> Result<Vec<f64>, SparseError> {
    let alphas = fit(m, ends)?;
    let margin = spd_margin(&alphas, ends);
    if margin <= 0.0 {
        return Err(SparseError::NotPositiveDefinite {
            pivot: 0,
            value: margin,
        });
    }
    Ok(alphas)
}

/// Least-squares coefficients: minimize `∫_{λ₁}^{λₙ} (1 − q(t))² dt`
/// over `q(t) = t Σ αᵢ (1−t)ⁱ`, degree `m − 1` polynomial `p`.
///
/// # Errors
/// * [`SparseError::InvalidPartition`] for `m == 0` or a degenerate
///   interval,
/// * [`SparseError::NotPositiveDefinite`] if the normal equations are
///   numerically singular (interval too small for the requested degree).
pub fn least_squares_alphas(m: usize, interval: (f64, f64)) -> Result<Vec<f64>, SparseError> {
    validate(m, interval)?;
    let (lo, hi) = interval;
    // Basis φᵢ(t) = t(1−t)ⁱ. Normal equations: A αᵃ = b with
    // A_ik = ∫ φᵢ φ_k, b_i = ∫ φᵢ. Integrands are polynomials of degree
    // ≤ 2m + 2: exact with enough Gauss points.
    let quad_n = (2 * m + 8).max(16);
    let (nodes, weights) = gauss_legendre(quad_n);
    let c = 0.5 * (lo + hi);
    let h = 0.5 * (hi - lo);

    let mut a = DenseMatrix::zeros(m, m);
    let mut b = vec![0.0; m];
    let mut phi = vec![0.0; m];
    for (x, w) in nodes.iter().zip(&weights) {
        let t = c + h * x;
        let wt = w * h;
        let mut g = 1.0; // (1−t)^i
        for item in phi.iter_mut() {
            *item = t * g;
            g *= 1.0 - t;
        }
        for i in 0..m {
            b[i] += wt * phi[i];
            for k in 0..m {
                a[(i, k)] += wt * phi[i] * phi[k];
            }
        }
    }
    let chol = a.cholesky()?;
    Ok(chol.solve(&b))
}

/// Min-max (Chebyshev) coefficients: the residual
/// `1 − q(t) = T_m(μ(t)) / T_m(μ(0))`, `μ(t) = (λₙ + λ₁ − 2t)/(λₙ − λ₁)`,
/// is the minimal-∞-norm residual among degree-m polynomials with
/// `residual(0) = 1`. The resulting `q(t)/t` is expanded in the
/// `(1 − t)ⁱ` basis by solving an interpolation system at Chebyshev points.
///
/// # Errors
/// Same classes as [`least_squares_alphas`].
pub fn minimax_alphas(m: usize, interval: (f64, f64)) -> Result<Vec<f64>, SparseError> {
    validate(m, interval)?;
    let (lo, hi) = interval;
    let mu = |t: f64| (hi + lo - 2.0 * t) / (hi - lo);
    let tm0 = cheb_t(m, mu(0.0));
    if tm0.abs() < 1e-300 {
        return Err(SparseError::NotPositiveDefinite {
            pivot: 0,
            value: tm0,
        });
    }
    // p(t) = (1 − T_m(μ(t))/T_m(μ(0))) / t has degree m−1; interpolate at m
    // Chebyshev points of the interval (none of which is 0 since lo > 0).
    let mut ts = Vec::with_capacity(m);
    for k in 0..m {
        let theta = std::f64::consts::PI * (k as f64 + 0.5) / m as f64;
        ts.push(0.5 * (lo + hi) + 0.5 * (hi - lo) * theta.cos());
    }
    let mut v = DenseMatrix::zeros(m, m);
    let mut rhs = vec![0.0; m];
    for (r, &t) in ts.iter().enumerate() {
        let mut g = 1.0;
        for c in 0..m {
            v[(r, c)] = g;
            g *= 1.0 - t;
        }
        rhs[r] = (1.0 - cheb_t(m, mu(t)) / tm0) / t;
    }
    let lu = v.lu()?;
    Ok(lu.solve(&rhs))
}

/// Chebyshev polynomial `T_n(x)` (stable for `|x| > 1` via cosh form).
fn cheb_t(n: usize, x: f64) -> f64 {
    if x.abs() <= 1.0 {
        ((n as f64) * x.acos()).cos()
    } else {
        let s = x.signum();
        let y = x.abs();
        // T_n(x) = cosh(n·arccosh|x|)·sign(x)ⁿ.
        let t = ((n as f64) * (y + (y * y - 1.0).sqrt()).ln()).cosh();
        if n.is_multiple_of(2) {
            t
        } else {
            s * t
        }
    }
}

/// Residual `1 − q(t)` of a coefficient vector at `t`.
pub fn residual_at(alphas: &[f64], t: f64) -> f64 {
    1.0 - t * symbol_at(alphas, 1.0 - t)
}

/// The symbol `σ(g) = Σ αᵢ gⁱ` at `g` (Horner).
pub fn symbol_at(alphas: &[f64], g: f64) -> f64 {
    let mut s = 0.0;
    for &a in alphas.iter().rev() {
        s = s * g + a;
    }
    s
}

/// Minimum of the symbol `σ(g)` over `g ∈ [1 − λₙ, 1 − λ₁]` (dense
/// sampling). §2.1: the m-step preconditioner `M` is SPD **iff** this
/// margin is positive (given SPD `P`), so callers should reject
/// coefficient sets with a nonpositive margin.
pub fn spd_margin(alphas: &[f64], interval: (f64, f64)) -> f64 {
    let (lo, hi) = interval;
    let (glo, ghi) = (1.0 - hi, 1.0 - lo);
    let samples = 512;
    let mut min = f64::INFINITY;
    for k in 0..=samples {
        let g = glo + (ghi - glo) * k as f64 / samples as f64;
        min = min.min(symbol_at(alphas, g));
    }
    min
}

/// Maximum |residual| over the interval (dense sampling) — the quantity the
/// min-max criterion minimizes; used to compare criteria in tests/benches.
pub fn residual_sup(alphas: &[f64], interval: (f64, f64)) -> f64 {
    let (lo, hi) = interval;
    let samples = 512;
    let mut sup = 0.0f64;
    for k in 0..=samples {
        let t = lo + (hi - lo) * k as f64 / samples as f64;
        sup = sup.max(residual_at(alphas, t).abs());
    }
    sup
}

fn validate(m: usize, interval: (f64, f64)) -> Result<(), SparseError> {
    let (lo, hi) = interval;
    if m == 0 {
        return Err(SparseError::InvalidPartition {
            reason: "m must be at least 1".into(),
        });
    }
    if !(lo > 0.0 && hi > lo && hi.is_finite()) {
        return Err(SparseError::InvalidPartition {
            reason: format!("invalid spectral interval [{lo}, {hi}]"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SSOR_LIKE: (f64, f64) = (0.05, 1.0);
    const JACOBI_LIKE: (f64, f64) = (0.05, 1.95);

    #[test]
    fn m1_least_squares_is_projection_scalar() {
        // m = 1: q(t) = α₀ t; minimizing ∫ (1 − α₀t)² dt gives
        // α₀ = ∫t / ∫t² over the interval.
        let (lo, hi) = SSOR_LIKE;
        let a = least_squares_alphas(1, SSOR_LIKE).unwrap();
        let num = (hi * hi - lo * lo) / 2.0;
        let den = (hi * hi * hi - lo * lo * lo) / 3.0;
        assert!((a[0] - num / den).abs() < 1e-12, "{a:?}");
    }

    #[test]
    fn closed_form_m2_on_unit_interval() {
        // On (0, 1] with uniform weight the m = 2 optimum has the closed
        // form derived from the shifted-Legendre kernel: α₀ = 2/3,
        // α₁ = 10/3 at interval [0, 1]. With lo → 0 we approach it.
        let a = least_squares_alphas(2, (1e-9, 1.0)).unwrap();
        assert!((a[0] - 2.0 / 3.0).abs() < 1e-5, "{a:?}");
        assert!((a[1] - 10.0 / 3.0).abs() < 1e-4, "{a:?}");
    }

    #[test]
    fn least_squares_beats_unparametrized_residual() {
        for m in 2..=6 {
            let a = least_squares_alphas(m, SSOR_LIKE).unwrap();
            let ones = vec![1.0; m];
            // Compare the integral of squared residuals by sampling.
            let err = |al: &[f64]| -> f64 {
                let mut s = 0.0;
                for k in 0..=200 {
                    let t = SSOR_LIKE.0 + (SSOR_LIKE.1 - SSOR_LIKE.0) * k as f64 / 200.0;
                    s += residual_at(al, t).powi(2);
                }
                s
            };
            assert!(err(&a) < err(&ones), "m = {m}");
        }
    }

    #[test]
    fn minimax_residual_is_equioscillating_and_small() {
        let m = 4;
        let a = minimax_alphas(m, SSOR_LIKE).unwrap();
        let sup = residual_sup(&a, SSOR_LIKE);
        // Theoretical value: 1/T_m(μ(0)).
        let mu0 = (SSOR_LIKE.1 + SSOR_LIKE.0) / (SSOR_LIKE.1 - SSOR_LIKE.0);
        let expect = 1.0 / super::cheb_t(m, mu0);
        assert!((sup - expect).abs() < 1e-6, "sup {sup} vs {expect}");
    }

    #[test]
    fn minimax_beats_least_squares_in_sup_norm() {
        for m in 2..=6 {
            let ls = least_squares_alphas(m, JACOBI_LIKE).unwrap();
            let mm = minimax_alphas(m, JACOBI_LIKE).unwrap();
            assert!(
                residual_sup(&mm, JACOBI_LIKE) <= residual_sup(&ls, JACOBI_LIKE) + 1e-12,
                "m = {m}"
            );
        }
    }

    #[test]
    fn parametrized_residual_shrinks_with_m() {
        let mut prev = f64::INFINITY;
        for m in 1..=8 {
            let a = minimax_alphas(m, SSOR_LIKE).unwrap();
            let sup = residual_sup(&a, SSOR_LIKE);
            assert!(sup < prev, "m = {m}: {sup} !< {prev}");
            prev = sup;
        }
    }

    #[test]
    fn spd_margin_positive_for_computed_coefficients() {
        for m in 1..=6 {
            let ls = least_squares_alphas(m, SSOR_LIKE).unwrap();
            assert!(spd_margin(&ls, SSOR_LIKE) > 0.0, "LS m = {m}");
            let mm = minimax_alphas(m, SSOR_LIKE).unwrap();
            assert!(spd_margin(&mm, SSOR_LIKE) > 0.0, "MM m = {m}");
        }
    }

    #[test]
    fn unparametrized_margin_positive_on_ssor_interval() {
        // σ(g) = 1 + g + … + g^{m−1} > 0 on g ∈ [0, 1): always SPD for SSOR.
        for m in 1..=10 {
            assert!(spd_margin(&vec![1.0; m], SSOR_LIKE) > 0.0);
        }
    }

    #[test]
    fn unparametrized_even_m_can_fail_on_jacobi_interval() {
        // Known Dubois–Greenbaum–Rodrigue caveat: for the Jacobi splitting
        // with eigenvalues of G near −1 (t near 2), even m gives
        // σ(g) = 1 + g + … which can vanish: 1 + g = 0 at g = −1.
        let margin = spd_margin(&[1.0; 2], (0.01, 1.999));
        assert!(margin < 0.05, "margin {margin}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(least_squares_alphas(0, SSOR_LIKE).is_err());
        assert!(least_squares_alphas(3, (0.0, 1.0)).is_err());
        assert!(least_squares_alphas(3, (0.5, 0.4)).is_err());
        assert!(minimax_alphas(0, SSOR_LIKE).is_err());
    }

    #[test]
    fn cheb_t_matches_recurrence_outside_unit_interval() {
        // T_3(x) = 4x³ − 3x.
        for x in [1.5f64, 2.0, -1.7, 0.3, -0.9] {
            let direct = 4.0 * x.powi(3) - 3.0 * x;
            assert!((super::cheb_t(3, x) - direct).abs() < 1e-10 * direct.abs().max(1.0));
        }
    }

    #[test]
    fn residual_at_zero_is_one() {
        // q(0) = 0 always: the residual polynomial is pinned at t = 0.
        for m in 1..=5 {
            let a = minimax_alphas(m, SSOR_LIKE).unwrap();
            assert!((residual_at(&a, 0.0) - 1.0).abs() < 1e-12);
        }
    }
}
