//! Preconditioner bench: (a) m-step solve cost must scale linearly in m
//! (the `m·B` term of Eq. (4.1)); (b) the Conrad–Wallach cached sweep vs
//! the uncached step (every upper half-sum fresh: 1.5 passes a step) — the
//! paper's "one SSOR step costs one SOR sweep" claim, as a measured
//! ablation; (c) serial vs pool-parallel m-step `msolve` on the 512×512
//! red/black Poisson problem — the per-color parallel sweep speedup; (d)
//! the pool-path polynomial (Newton–Chebyshev) preconditioner vs m-step
//! SSOR at **matched flops** (degree `2m` streams the matrix as often as
//! `m` forward+backward sweeps): single-application cost and bitwise
//! thread-count determinism of the chunked chain; then the SPMD
//! executor's own two configurations, α = 1 at m = 2 and `Auto`'s fitted
//! α, in full solves — iterations × barriers × wall time, with the exact
//! barrier formula `m·(2C−1) + 3` per iteration *asserted* in-run for
//! both, not just recorded; (e) the SSOR spectrum
//! estimate the fitted m-step SSOR and `Auto` run at set-up, on the
//! a = 100 plate at 1 and 2 threads, its interval asserted bitwise equal
//! across the two; (f) the width-1 m-step msolve on the same plate at
//! m = 5 and m = 2 (the benchmark workloads' sweeps, sliced half-rows and
//! all), at 1 and 2 threads, `z` asserted bitwise equal across the two.
//!
//! Run: `cargo bench -p mspcg-bench --bench precond` (add `-- --json
//! FILE` to keep the numbers; CI runs it for the in-run asserts only).

use mspcg_bench::experiments::{ordered_plate, ordered_poisson};
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_core::poly::SPECTRUM_STEPS;
use mspcg_core::preconditioner::Preconditioner;
use mspcg_core::ssor::MulticolorSsor;
use mspcg_core::PolynomialPreconditioner;
use mspcg_parallel::{ParallelMStepPcg, ParallelSolverOptions};
use mspcg_sparse::par;
use std::hint::black_box;

fn bench_msolve_scaling(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(40).expect("plate");
    let n = ord.matrix.rows();
    let ssor = MulticolorSsor::new(ord.matrix.clone(), ord.colors.clone(), 1.0).expect("splitting");
    let r: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let (mut z, mut y) = (vec![0.0; n], vec![0.0; n]);

    for m in [1usize, 2, 4, 8] {
        let alphas = vec![1.0; m];
        results.push(bench("msolve_vs_m", &format!("m{m}"), || {
            ssor.msolve_block::<1>(black_box(&alphas), black_box(&r), black_box(&mut z), &mut y);
        }));
    }
}

fn bench_conrad_wallach(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(40).expect("plate");
    let n = ord.matrix.rows();
    let ssor = MulticolorSsor::new(ord.matrix.clone(), ord.colors.clone(), 1.0).expect("splitting");
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).cos()).collect();
    let (mut z, mut y) = (vec![0.0; n], vec![0.0; n]);
    let m = 4usize;
    let alphas = vec![1.0; m];

    results.push(bench("conrad_wallach_ablation", "cached_msolve", || {
        ssor.msolve_block::<1>(black_box(&alphas), black_box(&r), black_box(&mut z), &mut y);
    }));
    results.push(bench("conrad_wallach_ablation", "uncached_steps", || {
        z.fill(0.0);
        for s in 1..=m {
            ssor.step(alphas[m - s], black_box(&r), black_box(&mut z));
        }
    }));
}

fn bench_serial_vs_parallel_msolve(results: &mut Vec<BenchResult>) {
    let (matrix, colors, _) = ordered_poisson(512).expect("poisson 512");
    let n = matrix.rows();
    let ssor = MulticolorSsor::new(matrix, colors, 1.0).expect("splitting");
    let r: Vec<f64> = (0..n)
        .map(|i| ((i * 13 + 5) % 89) as f64 * 0.02 - 0.9)
        .collect();
    let (mut z, mut y) = (vec![0.0; n], vec![0.0; n]);

    let hw = par::max_threads();
    for m in [2usize, 4] {
        let alphas = vec![1.0; m];
        par::set_max_threads(1);
        let serial = bench("msolve_poisson512", &format!("m{m}_serial"), || {
            ssor.msolve_block::<1>(black_box(&alphas), black_box(&r), black_box(&mut z), &mut y);
        });
        let serial_mean = serial.mean_ns;
        results.push(serial);
        for t in [2usize, 4, 8] {
            if t > par::pool_capacity() {
                break;
            }
            par::set_max_threads(t);
            let rp = bench("msolve_poisson512", &format!("m{m}_par{t}"), || {
                ssor.msolve_block::<1>(
                    black_box(&alphas),
                    black_box(&r),
                    black_box(&mut z),
                    &mut y,
                );
            });
            println!(
                "    speedup vs serial at {t} threads: {:.2}x",
                serial_mean / rp.mean_ns
            );
            results.push(rp);
        }
    }
    par::set_max_threads(hw);
}

/// (d1) Single application at matched flops: one degree-`2m` Chebyshev
/// chain vs one m-step SSOR msolve on the plate. The polynomial streams
/// the matrix the same number of times but crosses zero color-sweep
/// synchronization points — serially the two should be in the same
/// ballpark.
fn bench_poly_vs_mstep_apply(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(40).expect("plate");
    let n = ord.matrix.rows();
    let ssor = MulticolorSsor::new(ord.matrix.clone(), ord.colors.clone(), 1.0).expect("splitting");
    let r: Vec<f64> = (0..n)
        .map(|i| ((i * 7 + 3) % 23) as f64 * 0.05 - 0.5)
        .collect();
    let (mut z, mut y) = (vec![0.0; n], vec![0.0; n]);
    // One Lanczos run serves the whole degree sweep: rebuild at each
    // degree with `with_degree`, which reuses the cached interval and
    // the checked reciprocal diagonal.
    let base = PolynomialPreconditioner::chebyshev(ord.matrix.clone(), 2).expect("poly");
    for m in [1usize, 2, 4] {
        let alphas = vec![1.0; m];
        results.push(bench("poly_vs_mstep_apply", &format!("mstep_m{m}"), || {
            ssor.msolve_block::<1>(black_box(&alphas), black_box(&r), black_box(&mut z), &mut y);
        }));
        let k = 2 * m;
        let pre = base.with_degree(k).expect("poly");
        let mut scratch = vec![0.0; pre.scratch_len()];
        results.push(bench("poly_vs_mstep_apply", &format!("cheby_k{k}"), || {
            pre.apply_with(black_box(&r), black_box(&mut z), black_box(&mut scratch));
        }));
    }
}

/// (d2) The chunk-determinism contract, asserted in-run: the serial
/// polynomial application is **bitwise identical** at 1/2/4/8 kernel
/// threads (fixed chunk boundaries, fixed combination order).
fn bench_poly_thread_determinism(results: &mut Vec<BenchResult>) {
    let (matrix, _, _) = ordered_poisson(256).expect("poisson 256");
    let n = matrix.rows();
    let pre = PolynomialPreconditioner::chebyshev(matrix, 4).expect("poly");
    let r: Vec<f64> = (0..n)
        .map(|i| ((i * 13 + 5) % 89) as f64 * 0.02 - 0.9)
        .collect();
    let mut z = vec![0.0; n];
    let mut scratch = vec![0.0; pre.scratch_len()];
    let hw = par::max_threads();
    let mut reference: Option<Vec<u64>> = None;
    for t in [1usize, 2, 4, 8] {
        par::set_max_threads(t);
        results.push(bench(
            "poly_apply_poisson256_k4",
            &format!("par{t}"),
            || {
                pre.apply_with(black_box(&r), black_box(&mut z), black_box(&mut scratch));
            },
        ));
        let bits: Vec<u64> = z.iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                want, &bits,
                "polynomial apply is not bitwise thread-count deterministic at {t} threads"
            ),
        }
    }
    par::set_max_threads(hw);
}

/// (d3) The SPMD executor's own two configurations: full solves on the
/// plate at α = 1, m = 2 and at `Auto`'s fitted α
/// ([`ParallelMStepPcg::auto`]), per worker count. Wall time is measured;
/// `iterations`, `m`, `barriers_per_iter`, `reductions_per_iter` and
/// `colors` ride the record as extras, and the exact barrier formula is
/// asserted for both before anything is recorded.
fn bench_spmd_auto_vs_mstep(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(40).expect("plate");
    let c = ord.colors.num_blocks();
    let rhs = &ord.rhs;
    let ssor = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0; 2]).expect("spmd ssor");
    let auto = ParallelMStepPcg::auto(&ord.matrix, &ord.colors, 2).expect("spmd auto");
    for threads in [1usize, 4] {
        let opts = ParallelSolverOptions {
            threads,
            tol: 1e-8,
            max_iterations: 50_000,
            ..ParallelSolverOptions::default()
        };
        let group = "spmd_auto_vs_mstep_plate40";
        for (label, solver) in [("mstep_m2", &ssor), ("auto", &auto)] {
            let rep = solver.solve(rhs, &opts).expect("spmd solve");
            assert!(rep.converged, "{group}/{label} did not converge");
            let i = rep.iterations;
            // `m·(2C−1)` sweep barriers per msolve, `+ 3` per iteration;
            // the converging iteration crosses its SpMV, its update and
            // the `‖r‖₂` of its report.
            let sweep = solver.m() * (2 * c - 1);
            let expected = sweep + (i - 1) * (sweep + 3) + 3;
            assert_eq!(
                rep.barrier_crossings, expected,
                "{group}/{label}: barrier schedule changed (threads = {threads})"
            );
            let iters = i as f64;
            let run = bench(group, &format!("{label}_t{threads}"), || {
                black_box(solver.solve(black_box(rhs), &opts).expect("spmd solve"));
            })
            .with_extra("iterations", iters)
            .with_extra("m", solver.m() as f64)
            .with_extra("barriers_per_iter", rep.barrier_crossings as f64 / iters)
            .with_extra("reductions_per_iter", rep.reduction_phases as f64 / iters)
            .with_extra("colors", c as f64);
            results.push(run);
        }
    }
}

/// (e) The set-up estimate: `SPECTRUM_STEPS` SSOR power steps on the
/// a = 100 plate, each color phase one pool launch. Rows of one color
/// are independent, so the interval must be bitwise the same at 1 and
/// 2 threads.
fn bench_ssor_estimate(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(100).expect("plate");
    let ssor = MulticolorSsor::new(ord.matrix, ord.colors, 1.0).expect("splitting");
    let estimate = || {
        let interval = ssor
            .table()
            .ssor_spectrum(1.0, SPECTRUM_STEPS)
            .expect("estimate");
        (interval.min.to_bits(), interval.max.to_bits())
    };
    let hw = par::max_threads();
    let mut intervals = Vec::new();
    for t in [1usize, 2] {
        par::set_max_threads(t);
        results.push(bench("ssor_estimate", &format!("plate100_t{t}"), || {
            black_box(estimate());
        }));
        intervals.push(estimate());
    }
    par::set_max_threads(hw);
    assert_eq!(
        intervals[0], intervals[1],
        "the SSOR estimate differs between 1 and 2 threads"
    );
}

/// (f) The benchmark plate's sweeps: the width-1 m-step msolve on the
/// a = 100 plate at m = 5 (`Auto`'s m there) and m = 2 (the SPMD
/// workload's), at 1 and 2 threads. Rows of one color are independent,
/// so `z` must be bitwise the same at both thread counts.
fn bench_plate_msolve(results: &mut Vec<BenchResult>) {
    let (_, ord) = ordered_plate(100).expect("plate");
    let n = ord.matrix.rows();
    let ssor = MulticolorSsor::new(ord.matrix, ord.colors, 1.0).expect("splitting");
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut z, mut y) = (vec![0.0; n], vec![0.0; n]);
    let hw = par::max_threads();
    for m in [5usize, 2] {
        let alphas: Vec<f64> = (0..m).map(|i| 1.0 + 0.25 * i as f64).collect();
        let mut solutions = Vec::new();
        for t in [1usize, 2] {
            par::set_max_threads(t);
            results.push(bench("msolve_plate100", &format!("m{m}_t{t}"), || {
                ssor.msolve_block::<1>(
                    black_box(&alphas),
                    black_box(&r),
                    black_box(&mut z),
                    &mut y,
                );
            }));
            solutions.push(z.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
        }
        assert_eq!(
            solutions[0], solutions[1],
            "the m = {m} msolve differs between 1 and 2 threads"
        );
    }
    par::set_max_threads(hw);
}

fn main() {
    let mut results = Vec::new();
    bench_msolve_scaling(&mut results);
    bench_conrad_wallach(&mut results);
    bench_serial_vs_parallel_msolve(&mut results);
    bench_poly_vs_mstep_apply(&mut results);
    bench_poly_thread_determinism(&mut results);
    bench_spmd_auto_vs_mstep(&mut results);
    bench_ssor_estimate(&mut results);
    bench_plate_msolve(&mut results);
    finish(&results);
}
