//! Property-based tests over the core invariants of the reproduction:
//! sparse-format round trips, coloring validity, SPD preservation,
//! preconditioner symmetry and solver correctness on randomly generated
//! diagonally-dominant SPD systems.
//!
//! The container has no property-testing framework, so the tests drive a
//! deterministic xorshift case generator: each property runs over a fixed
//! set of pseudo-random configurations (sizes, densities, seeds), which
//! keeps failures reproducible by construction.

use mspcg::coloring::{greedy_coloring, GreedyStrategy};
use mspcg::core::coeffs::{least_squares_alphas, residual_sup, spd_margin};
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::pcg::{pcg_solve, PcgOptions, StoppingCriterion};
use mspcg::core::preconditioner::Preconditioner;
use mspcg::sparse::{CooMatrix, CsrMatrix, Permutation, SellCsMatrix, SparseOp};

/// Cases per property (matches the old proptest configuration).
const CASES: u64 = 24;

mod common;
use common::Rng;

/// Random sparse symmetric strictly-diagonally-dominant (hence SPD)
/// matrix of order `n` with roughly `extra` off-diagonal pairs.
fn random_spd(n: usize, extra: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng::new(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for _ in 0..extra {
        let i = rng.range(0, n);
        let j = rng.range(0, n);
        if i == j {
            continue;
        }
        let v = -1.0 - (rng.next() % 100) as f64 / 50.0;
        coo.push_sym(i, j, v).unwrap();
        row_sums[i] += v.abs();
        row_sums[j] += v.abs();
    }
    for (i, &rs) in row_sums.iter().enumerate() {
        coo.push(i, i, rs * 2.0 + 1.0 + (rng.next() % 7) as f64 * 0.3)
            .unwrap();
    }
    coo.to_csr()
}

#[test]
fn csr_round_trips_through_dense() {
    let mut rng = Rng::new(1);
    for case in 0..CASES {
        let n = rng.range(2, 12);
        let extra = rng.range(0, 30);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        let d = a.to_dense();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if d[(i, j)] != 0.0 {
                    coo.push(i, j, d[(i, j)]).unwrap();
                }
            }
        }
        assert_eq!(coo.to_csr(), a, "case {case}");
    }
}

/// CSR ↔ SELL-C-σ must be a lossless round trip for random sparsity
/// patterns and random (C, σ) layouts, and the SELL SpMV must agree with
/// the CSR kernel **bitwise** (the ascending-column per-row summation
/// contract of `SparseOp`).
#[test]
fn sellcs_round_trips_and_matches_csr_bitwise() {
    let mut rng = Rng::new(7);
    for case in 0..CASES {
        let n = rng.range(2, 90);
        let extra = rng.range(0, 4 * n);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        let c = 1 << rng.range(0, 6); // C ∈ {1, 2, 4, 8, 16, 32}
        let sigma = c * (1 + rng.range(0, 8)); // σ a random multiple of C
        let sell = SellCsMatrix::from_csr(&a, c, sigma).unwrap();
        assert_eq!(sell.to_csr(), a, "case {case}: C = {c}, σ = {sigma}");
        // Padding accounting: the real entries are conserved and the
        // per-slice tallies sum to the totals.
        assert_eq!(sell.nnz(), a.nnz(), "case {case}");
        let padded: usize = (0..sell.num_slices())
            .map(|s| sell.slice_width(s) * c.min(n - s * c))
            .sum();
        assert_eq!(padded, sell.padded_len(), "case {case}");
        let real: usize = (0..sell.num_slices()).map(|s| sell.slice_nnz(s)).sum();
        assert_eq!(real, sell.nnz(), "case {case}");

        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 29 + 3) % 23) as f64 * 0.17 - 1.9)
            .collect();
        let y_csr = a.mul_vec(&x);
        let y_sell = SparseOp::mul_vec(&sell, &x);
        assert!(
            y_csr
                .iter()
                .zip(&y_sell)
                .all(|(u, v)| u.to_bits() == v.to_bits()),
            "case {case}: SELL-C-{c}-σ{sigma} SpMV differs from CSR"
        );
    }
}

/// The wide-row family (arrow matrices with a random dense head): the
/// shapes SELL-C-σ exists for must also round-trip and multiply bitwise
/// identically, including through the fused accumulate kernel.
#[test]
fn sellcs_wide_row_spmv_equals_csr() {
    let mut rng = Rng::new(11);
    for case in 0..CASES {
        let n = rng.range(20, 200);
        let head = rng.range(1, 9).min(n / 2);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0 + (rng.next() % 5) as f64).unwrap();
        }
        for d in 0..head {
            for j in head..n {
                coo.push_sym(d, j, -1e-3 * ((d + j) % 7 + 1) as f64)
                    .unwrap();
            }
        }
        let a = coo.to_csr();
        let sell = SellCsMatrix::from_csr_default(&a);
        assert_eq!(sell.to_csr(), a, "case {case}");
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) % 17) as f64 * 0.3).collect();
        let y_csr = a.mul_vec(&x);
        let y_sell = SparseOp::mul_vec(&sell, &x);
        assert!(
            y_csr
                .iter()
                .zip(&y_sell)
                .all(|(u, v)| u.to_bits() == v.to_bits()),
            "case {case}: arrow SpMV differs"
        );
        let mut acc_csr = vec![0.25; n];
        let mut acc_sell = vec![0.25; n];
        a.mul_vec_axpy(-1.5, &x, &mut acc_csr);
        SparseOp::mul_vec_axpy(&sell, -1.5, &x, &mut acc_sell);
        assert!(
            acc_csr
                .iter()
                .zip(&acc_sell)
                .all(|(u, v)| u.to_bits() == v.to_bits()),
            "case {case}: arrow axpy differs"
        );
    }
}

#[test]
fn symmetric_permutation_preserves_quadratic_form() {
    let mut rng = Rng::new(3);
    for case in 0..CASES {
        let n = rng.range(2, 10);
        let extra = rng.range(0, 25);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        // Random permutation via seeded shuffle.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.range(0, i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        let b = a.permute_sym(&p).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let px = p.gather(&x);
        let qa: f64 = x.iter().zip(&a.mul_vec(&x)).map(|(u, v)| u * v).sum();
        let qb: f64 = px.iter().zip(&b.mul_vec(&px)).map(|(u, v)| u * v).sum();
        assert!(
            (qa - qb).abs() < 1e-10 * qa.abs().max(1.0),
            "case {case}: {qa} vs {qb}"
        );
    }
}

#[test]
fn greedy_coloring_is_always_valid() {
    let mut rng = Rng::new(4);
    for case in 0..CASES {
        let n = rng.range(2, 20);
        let extra = rng.range(0, 60);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        for strategy in [
            GreedyStrategy::Natural,
            GreedyStrategy::LargestDegreeFirst,
            GreedyStrategy::SmallestDegreeLast,
        ] {
            let c = greedy_coloring(&a, strategy).unwrap();
            assert!(c.verify_for(&a).is_ok(), "case {case}, {strategy:?}");
        }
    }
}

#[test]
fn multicolor_mstep_pcg_solves_random_spd() {
    let mut rng = Rng::new(5);
    for case in 0..CASES {
        let n = rng.range(4, 24);
        let extra = rng.range(2, 50);
        let m = rng.range(1, 4);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        let coloring = greedy_coloring(&a, GreedyStrategy::Natural).unwrap();
        let ord = coloring.ordering();
        let b = ord.permute_matrix(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let rhs = b.mul_vec(&x_true);
        let pre = MStepSsorPreconditioner::unparametrized(&b, &ord.partition, m).unwrap();
        let sol = pcg_solve(
            &b,
            &rhs,
            &pre,
            &PcgOptions {
                tol: 1e-12,
                criterion: StoppingCriterion::RelativeResidual,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sol.converged, "case {case}");
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6, "case {case}: {u} vs {v}");
        }
    }
}

#[test]
fn mstep_preconditioner_is_symmetric_operator() {
    let mut rng = Rng::new(6);
    for case in 0..CASES {
        let n = rng.range(3, 12);
        let extra = rng.range(2, 25);
        let m = rng.range(1, 5);
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        let coloring = greedy_coloring(&a, GreedyStrategy::Natural).unwrap();
        let ord = coloring.ordering();
        let b = ord.permute_matrix(&a).unwrap();
        let pre = MStepSsorPreconditioner::unparametrized(&b, &ord.partition, m).unwrap();
        // Check (M⁻¹eᵢ)ⱼ == (M⁻¹eⱼ)ᵢ for the extreme index pair.
        let n = b.rows();
        let apply = |j: usize| {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut z = vec![0.0; n];
            pre.apply(&e, &mut z);
            z
        };
        let z0 = apply(0);
        let zl = apply(n - 1);
        assert!(
            (z0[n - 1] - zl[0]).abs() < 1e-10,
            "case {case}: {} vs {}",
            z0[n - 1],
            zl[0]
        );
    }
}

#[test]
fn least_squares_residual_improves_with_m() {
    let mut rng = Rng::new(7);
    for case in 0..CASES {
        let lo = 0.01 + (rng.next() % 490) as f64 * 1e-3; // 0.01..0.5
        let m = rng.range(2, 7);
        let interval = (lo, 1.0);
        let a_small = least_squares_alphas(m - 1, interval).unwrap();
        let a_large = least_squares_alphas(m, interval).unwrap();
        // The sup-norm proxy should not get (much) worse with higher degree.
        assert!(
            residual_sup(&a_large, interval) <= residual_sup(&a_small, interval) * 1.01,
            "case {case} (lo = {lo}, m = {m})"
        );
        assert!(spd_margin(&a_large, interval) > 0.0, "case {case}");
    }
}

#[test]
fn pcg_iterations_bounded_by_dimension() {
    let mut rng = Rng::new(8);
    for case in 0..CASES {
        let n = rng.range(3, 16);
        let extra = rng.range(0, 30);
        // Exact-arithmetic CG terminates in ≤ n steps; allow rounding slack.
        let a = random_spd(n, extra, 1 + rng.next() % 5000);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).recip()).collect();
        let sol = mspcg::core::pcg::cg_solve(
            &a,
            &rhs,
            &PcgOptions {
                tol: 1e-10,
                criterion: StoppingCriterion::RelativeResidual,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            sol.iterations <= 3 * n + 10,
            "case {case}: {} iterations for n = {}",
            sol.iterations,
            n
        );
    }
}
