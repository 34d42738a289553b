//! Cost model and spectral analysis — Eq. (4.1), inequality (4.2), and the
//! κ(M⁻¹K)-vs-m study backing §2.1.
//!
//! The paper models the execution time of the m-step method as
//!
//! ```text
//! T_m = N_m (A + m·B)                                  (4.1)
//! ```
//!
//! where `N_m` is the iteration count, `A` the cost of one outer CG
//! iteration and `B` the cost of one preconditioner step. Taking `m+1`
//! steps instead of `m` is beneficial iff either
//!
//! 1. `(m+1)·N_{m+1} − m·N_m < 0` (fewer total inner steps), or
//! 2. `B/A < (N_m − N_{m+1}) / ((m+1)·N_{m+1} − m·N_m)`      (4.2)
//!
//! — the crossover the paper evaluates for m = 9 → 10 on the CYBER.

use crate::coeffs::residual_sup;
use crate::preconditioner::Preconditioner;
use mspcg_sparse::{CsrMatrix, SparseError};

/// Machine constants of Eq. (4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// `A`: time of one outer CG iteration (SpMV + 2 inner products +
    /// vector updates).
    pub a: f64,
    /// `B`: time of one preconditioner step (one multicolor SOR sweep).
    pub b: f64,
}

impl CostModel {
    /// `A` and `B` as the bytes one outer iteration and one SSOR step
    /// stream on a CSR operator with `n` rows and `nnz` stored entries —
    /// a cost from the operator's shape alone, with no timer, so a choice
    /// made on it is deterministic:
    ///
    /// * `A = 12·nnz + 136·n`: the SpMV (values and 4-byte column indices,
    ///   row pointers, `x` and `y`), the fused `u`/`r` update, two dots,
    ///   the residual norm and the direction update;
    /// * `B = 12·(nnz − n) + 96·n + 16`: one Conrad–Wallach SSOR step
    ///   touches each off-diagonal entry once, both row-pointer arrays,
    ///   and ten 8-byte words per row (diagonal position, inverse
    ///   diagonal, right-hand side, iterate and half-sum cache).
    ///
    /// `B/A ≈ 0.81` on the Table-3 plate.
    pub fn from_traffic(n: usize, nnz: usize) -> Self {
        let (n, nnz) = (n as f64, nnz as f64);
        CostModel {
            a: 12.0 * nnz + 136.0 * n,
            b: 12.0 * (nnz - n) + 96.0 * n + 16.0,
        }
    }

    /// Predicted time `T_m = N_m (A + m B)`.
    pub fn time(&self, m: usize, n_m: usize) -> f64 {
        n_m as f64 * (self.a + m as f64 * self.b)
    }

    /// The machine's `B/A` ratio (left side of inequality (4.2)-(2)).
    pub fn b_over_a(&self) -> f64 {
        self.b / self.a
    }
}

/// Outcome of the (4.2) test for one m → m+1 transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecision {
    /// Condition (1): total inner steps decrease.
    pub inner_loops_decrease: bool,
    /// Left side of condition (2): the machine ratio `B/A`.
    pub lhs: f64,
    /// Right side of condition (2):
    /// `(N_m − N_{m+1}) / ((m+1)N_{m+1} − mN_m)` (`∞` when condition (1)
    /// already holds).
    pub rhs: f64,
    /// Whether taking `m+1` steps is predicted to beat `m` steps.
    pub beneficial: bool,
}

/// Evaluate inequality (4.2) for the transition `m → m+1`.
///
/// # Panics
/// Panics if `n_m1 > n_m` (the paper's assumption `N_{m+1} ≤ N_m` — callers
/// should not ask about transitions that *increase* the iteration count;
/// those are never beneficial).
pub fn step_increase_beneficial(
    m: usize,
    n_m: usize,
    n_m1: usize,
    model: CostModel,
) -> StepDecision {
    assert!(
        n_m1 <= n_m,
        "inequality (4.2) assumes N_(m+1) <= N_m ({n_m1} > {n_m})"
    );
    let s = (m as f64 + 1.0) * n_m1 as f64 - m as f64 * n_m as f64;
    let delta = n_m as f64 - n_m1 as f64;
    if s < 0.0 {
        return StepDecision {
            inner_loops_decrease: true,
            lhs: model.b_over_a(),
            rhs: f64::INFINITY,
            beneficial: true,
        };
    }
    if s == 0.0 {
        // Equal inner-loop totals: m+1 wins iff it saves outer iterations.
        return StepDecision {
            inner_loops_decrease: false,
            lhs: model.b_over_a(),
            rhs: f64::INFINITY,
            beneficial: delta > 0.0,
        };
    }
    let rhs = delta / s;
    StepDecision {
        inner_loops_decrease: false,
        lhs: model.b_over_a(),
        rhs,
        beneficial: model.b_over_a() < rhs,
    }
}

/// Classical CG iteration bound: to reduce the energy-norm error by `eps`,
/// CG needs at most `⌈√κ · ln(2/eps) / 2⌉` iterations. Applied to
/// `κ(M_m⁻¹K)` this links the §2.1 condition-number theory to the observed
/// Table-2 iteration counts (the bound is pessimistic — CG exploits
/// eigenvalue clustering — but the *ratios* across m track well).
///
/// # Panics
/// Panics for nonpositive `kappa` or `eps` outside `(0, 1)`.
pub fn cg_iteration_bound(kappa: f64, eps: f64) -> usize {
    assert!(kappa >= 1.0, "condition number must be >= 1, got {kappa}");
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1), got {eps}");
    (kappa.sqrt() * (2.0 / eps).ln() / 2.0).ceil() as usize
}

/// Iterations CG is predicted to need under the m-step coefficients
/// `alphas` fitted on the spectral interval `interval` of `P⁻¹K`: the
/// residual sup `s` ([`residual_sup`]) puts `σ(M⁻¹K)` in `[1 − s, 1 + s]`,
/// so `κ ≤ (1 + s)/(1 − s)`, and [`cg_iteration_bound`] turns κ into
/// iterations to reduce the error by `eps`. `None` when `s ≥ 1` (or is not
/// a number): the fit then bounds no condition number.
///
/// # Panics
/// Panics for `eps` outside `(0, 1)`.
pub fn predicted_iterations(alphas: &[f64], interval: (f64, f64), eps: f64) -> Option<usize> {
    let s = residual_sup(alphas, interval);
    (s < 1.0).then(|| cg_iteration_bound((1.0 + s) / (1.0 - s), eps))
}

/// Pick the time-minimizing m from measured `(m, N_m)` pairs under a cost
/// model. Returns `(m, predicted_time)`.
///
/// # Panics
/// Panics on an empty slice.
pub fn optimal_m(counts: &[(usize, usize)], model: CostModel) -> (usize, f64) {
    assert!(
        !counts.is_empty(),
        "optimal_m needs at least one data point"
    );
    counts
        .iter()
        .map(|&(m, n)| (m, model.time(m, n)))
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
        .unwrap()
}

/// Spectral condition number of the preconditioned operator `M⁻¹K`,
/// computed *exactly* (dense) via the symmetric similarity
/// `S = Lᵀ M⁻¹ L`, `K = L Lᵀ` — `σ(S) = σ(M⁻¹K)` and `S` is symmetric, so
/// the cyclic Jacobi eigensolver applies.
///
/// O(n³); intended for the small plates of the condition-number experiment
/// (n ≲ 500).
///
/// # Errors
/// Propagates Cholesky and eigensolver failures;
/// [`SparseError::NotPositiveDefinite`] if the preconditioned spectrum is
/// not strictly positive (indefinite `M`).
pub fn preconditioned_condition_number(
    k: &CsrMatrix,
    pre: &impl Preconditioner,
) -> Result<f64, SparseError> {
    let spectrum = preconditioned_spectrum(k, pre)?;
    let (lo, hi) = (spectrum[0], spectrum[spectrum.len() - 1]);
    if lo <= 0.0 {
        return Err(SparseError::NotPositiveDefinite {
            pivot: 0,
            value: lo,
        });
    }
    Ok(hi / lo)
}

/// Full (sorted ascending) spectrum of `M⁻¹K` by the same dense method.
///
/// # Errors
/// Propagates Cholesky and eigensolver failures.
pub fn preconditioned_spectrum(
    k: &CsrMatrix,
    pre: &impl Preconditioner,
) -> Result<Vec<f64>, SparseError> {
    let n = k.rows();
    if pre.dim() != n {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (pre.dim(), pre.dim()),
        });
    }
    let chol = k.to_dense().cholesky()?;
    let l = chol.l_matrix();
    // C = M⁻¹ L, column by column.
    let mut c = mspcg_sparse::DenseMatrix::zeros(n, n);
    let mut col = vec![0.0; n];
    let mut z = vec![0.0; n];
    for j in 0..n {
        for (i, item) in col.iter_mut().enumerate() {
            *item = l[(i, j)];
        }
        pre.apply(&col, &mut z);
        for (i, &v) in z.iter().enumerate() {
            c[(i, j)] = v;
        }
    }
    // S = Lᵀ C, symmetrized against rounding.
    let mut s = l.transpose().mul_mat(&c);
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (s[(i, j)] + s[(j, i)]);
            s[(i, j)] = avg;
            s[(j, i)] = avg;
        }
    }
    s.sym_eigenvalues()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::MStepSsorPreconditioner;
    use crate::preconditioner::IdentityPreconditioner;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::{CooMatrix, Partition};

    fn rb(n: usize) -> (CsrMatrix, Partition) {
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
    fn cost_model_time_is_affine_in_m() {
        let model = CostModel { a: 2.0, b: 0.5 };
        assert_eq!(model.time(0, 100), 200.0);
        assert_eq!(model.time(4, 50), 50.0 * 4.0);
        assert_eq!(model.b_over_a(), 0.25);
    }

    #[test]
    fn condition_one_dominates() {
        // N: 100 -> 40 at m = 1 -> 2: 2·40 − 1·100 = −20 < 0.
        let d = step_increase_beneficial(1, 100, 40, CostModel { a: 1.0, b: 100.0 });
        assert!(d.inner_loops_decrease);
        assert!(d.beneficial);
    }

    #[test]
    fn condition_two_crossover() {
        // N: 100 -> 80 at m = 4 -> 5: S = 5·80 − 4·100 = 0? no: 400−400 = 0.
        let d = step_increase_beneficial(4, 100, 80, CostModel { a: 1.0, b: 1.0 });
        assert!(d.beneficial); // equal inner loops, fewer outer iterations

        // N: 100 -> 90 at m = 4 -> 5: S = 450 − 400 = 50, Δ = 10, rhs = 0.2.
        let cheap = step_increase_beneficial(4, 100, 90, CostModel { a: 1.0, b: 0.1 });
        assert!(cheap.beneficial); // B/A = 0.1 < 0.2
        let dear = step_increase_beneficial(4, 100, 90, CostModel { a: 1.0, b: 0.5 });
        assert!(!dear.beneficial); // B/A = 0.5 > 0.2
        assert!((dear.rhs - 0.2).abs() < 1e-12);
    }

    #[test]
    fn optimal_m_matches_brute_force() {
        let counts = [(0usize, 271usize), (1, 111), (2, 77), (3, 61), (4, 65)];
        let model = CostModel { a: 1.0, b: 0.6 };
        let (m_star, t_star) = optimal_m(&counts, model);
        let brute: Vec<f64> = counts.iter().map(|&(m, n)| model.time(m, n)).collect();
        let best = brute
            .iter()
            .enumerate()
            .min_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap();
        assert_eq!(counts[best.0].0, m_star);
        assert!((t_star - best.1).abs() < 1e-12);
    }

    #[test]
    fn identity_preconditioner_recovers_kappa_of_k() {
        let (a, _) = rb(12);
        let id = IdentityPreconditioner::new(12);
        let kappa_pre = preconditioned_condition_number(&a, &id).unwrap();
        let kappa_direct = a.to_dense().sym_condition_number().unwrap();
        assert!((kappa_pre - kappa_direct).abs() / kappa_direct < 1e-8);
    }

    #[test]
    fn condition_number_decreases_with_m() {
        let (a, p) = rb(24);
        let mut prev = f64::INFINITY;
        for m in 1..=4 {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let kappa = preconditioned_condition_number(&a, &pre).unwrap();
            assert!(kappa < prev, "m = {m}: {kappa} !< {prev}");
            assert!(kappa >= 1.0 - 1e-9);
            prev = kappa;
        }
    }

    #[test]
    fn improvement_ratio_bounded_by_m() {
        // Adams 1982: κ(M₁⁻¹K)/κ(M_m⁻¹K) ≤ m (asymptotically). Allow a
        // small slack for finite problems.
        let (a, p) = rb(24);
        let k1 = {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, 1).unwrap();
            preconditioned_condition_number(&a, &pre).unwrap()
        };
        for m in 2..=5 {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let km = preconditioned_condition_number(&a, &pre).unwrap();
            assert!(
                k1 / km <= m as f64 * 1.1,
                "m = {m}: ratio {} exceeds bound",
                k1 / km
            );
        }
    }

    #[test]
    fn preconditioned_spectrum_clusters_toward_one() {
        let (a, p) = rb(16);
        let pre = MStepSsorPreconditioner::parametrized(&a, &p, 3).unwrap();
        let spec = preconditioned_spectrum(&a, &pre).unwrap();
        assert!(spec[0] > 0.0);
        // All eigenvalues within (0, ~1.5] and the bulk near 1.
        assert!(spec[spec.len() - 1] < 2.0);
    }

    #[test]
    #[should_panic(expected = "assumes")]
    fn increasing_iteration_count_panics() {
        step_increase_beneficial(1, 50, 60, CostModel { a: 1.0, b: 1.0 });
    }

    #[test]
    fn iteration_bound_shrinks_like_sqrt_kappa() {
        let b1 = cg_iteration_bound(100.0, 1e-6);
        let b2 = cg_iteration_bound(400.0, 1e-6);
        assert!(b2 >= 2 * b1 - 2 && b2 <= 2 * b1 + 2, "{b1} vs {b2}");
        assert_eq!(cg_iteration_bound(1.0, 0.5), 1);
    }

    #[test]
    fn iteration_bound_dominates_measured_iterations() {
        // The bound must upper-bound real CG behaviour on the
        // preconditioned operator (eigenvalue clustering only helps).
        use crate::pcg::{pcg_solve, PcgOptions, StoppingCriterion};
        let (a, p) = rb(32);
        let rhs: Vec<f64> = (0..32).map(|i| ((i % 9) as f64) - 4.0).collect();
        for m in [1usize, 2, 3] {
            let pre = MStepSsorPreconditioner::unparametrized(&a, &p, m).unwrap();
            let kappa = preconditioned_condition_number(&a, &pre).unwrap();
            let eps = 1e-8;
            let sol = pcg_solve(
                &a,
                &rhs,
                &pre,
                &PcgOptions {
                    tol: eps,
                    criterion: StoppingCriterion::RelativeResidual,
                    ..Default::default()
                },
            )
            .unwrap();
            let bound = cg_iteration_bound(kappa, eps);
            assert!(
                sol.iterations <= bound,
                "m = {m}: {} iterations > bound {bound} (kappa {kappa})",
                sol.iterations
            );
        }
    }

    #[test]
    fn traffic_model_matches_the_plate_ratio() {
        // Table-3 plate, a = 100: 19 800 unknowns, 235 214 stored entries.
        let model = CostModel::from_traffic(19_800, 235_214);
        assert!(
            (model.b_over_a() - 0.813).abs() < 1e-3,
            "{}",
            model.b_over_a()
        );
    }

    #[test]
    fn predicted_iterations_track_the_fitted_residual() {
        use crate::coeffs::minimax_alphas;
        let interval = (0.01, 1.0);
        let mut prev = usize::MAX;
        for m in 1..=6 {
            let alphas = minimax_alphas(m, interval).unwrap();
            let s = residual_sup(&alphas, interval);
            let n = predicted_iterations(&alphas, interval, 1e-8).unwrap();
            assert_eq!(n, cg_iteration_bound((1.0 + s) / (1.0 - s), 1e-8));
            assert!(n < prev, "m = {m}: {n} !< {prev}");
            prev = n;
        }
        // A residual reaching 1 bounds no condition number.
        assert_eq!(predicted_iterations(&[0.0], interval, 1e-8), None);
    }

    #[test]
    #[should_panic(expected = "condition number")]
    fn iteration_bound_rejects_bad_kappa() {
        cg_iteration_bound(0.5, 1e-6);
    }
}
