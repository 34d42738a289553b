//! Bench for PR 2's two hot paths:
//!
//! (a) **fused vs unfused per-iteration vector work** — the CG update
//!     (`u += αp`, `r −= α·Kp`, `‖p‖∞`, `‖r‖∞`) as four separate sweeps
//!     vs one fused kernel, on 512×512-Poisson-sized vectors (262 144
//!     elements);
//! (b) **batched multi-RHS solves** — 32 load cases against one plate
//!     stiffness matrix via `pcg_solve_multi` (lanes of lockstep blocks,
//!     on a small plate below `tuning::par_min_nnz` stored entries and on
//!     a large one above it) vs the same 32 solves issued sequentially
//!     through `pcg_solve_into`, whose kernels fan out on the pool on the
//!     large plate. Each row asserts in-run that every batch column is
//!     bitwise its sequential solve, iteration count included.
//!
//! Run: `cargo bench -p mspcg-bench --bench multi_rhs` (add `-- --json
//! FILE` to keep the numbers).

use mspcg_bench::experiments::ordered_plate;
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_core::{
    pcg_solve_into, pcg_solve_multi, MStepSsorPreconditioner, MultiRhsWorkspace, PcgOptions,
    PcgWorkspace,
};
use mspcg_sparse::{par, vecops};
use std::hint::black_box;
use std::sync::Arc;

const N_VEC: usize = 512 * 512;
const N_CASES: usize = 32;

fn bench_fused_vs_unfused(results: &mut Vec<BenchResult>) {
    let p: Vec<f64> = (0..N_VEC)
        .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3 - 0.5)
        .collect();
    let kp: Vec<f64> = (0..N_VEC)
        .map(|i| ((i * 43 + 3) % 977) as f64 * 1e-3 - 0.45)
        .collect();
    let mut u = vec![0.0f64; N_VEC];
    let mut r = vec![1.0f64; N_VEC];
    let alpha = 0.8125;

    // The per-iteration update as pcg_solve_into performed it before the
    // fusion: four separate sweeps over the vectors.
    results.push(bench("pcg_iteration_update", "unfused", || {
        vecops::axpy(alpha, black_box(&p), black_box(&mut u));
        let pn = vecops::norm_inf(black_box(&p));
        vecops::axpy(-alpha, black_box(&kp), black_box(&mut r));
        let rn = vecops::norm_inf(black_box(&r));
        black_box((pn, rn));
    }));
    results.push(bench("pcg_iteration_update", "fused", || {
        let norms =
            vecops::fused_axpy_axpy_norm(alpha, black_box(&p), black_box(&kp), &mut u, &mut r);
        black_box(norms);
    }));
}

/// 32 load cases: the assembled plate load scaled per case.
fn load_cases(rhs: &[f64]) -> Vec<f64> {
    (0..N_CASES)
        .flat_map(|j| {
            let scale = 1.0 + 0.1 * j as f64;
            rhs.iter().map(move |v| v * scale)
        })
        .collect()
}

fn bench_multi_rhs(results: &mut Vec<BenchResult>, a: usize) {
    let (_, ord) = ordered_plate(a).expect("plate");
    let n = ord.matrix.rows();
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let pre =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), 2)
            .expect("preconditioner");
    let opts = PcgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let f = load_cases(&ord.rhs);
    let mut u = vec![0.0; N_CASES * n];

    let mut single_ws = PcgWorkspace::new(n);
    results.push(bench(
        &format!("multi_rhs_plate{a}_lanes"),
        "sequential_into",
        || {
            for i in 0..N_CASES {
                let (fi, ui) = (&f[i * n..(i + 1) * n], &mut u[i * n..(i + 1) * n]);
                ui.fill(0.0);
                pcg_solve_into(&matrix, fi, ui, &pre, &opts, &mut single_ws).expect("solve");
            }
        },
    ));

    let sequential = u.clone();
    let iterations: Vec<usize> = f
        .chunks(n)
        .map(|fi| {
            let mut ui = vec![0.0; n];
            let rep = pcg_solve_into(&matrix, fi, &mut ui, &pre, &opts, &mut single_ws);
            rep.expect("solve").iterations
        })
        .collect();

    let mut ws = MultiRhsWorkspace::new(n, N_CASES);
    results.push(bench(
        &format!("multi_rhs_plate{a}_lanes"),
        &format!("batch_par{}", par::max_threads()),
        || {
            u.fill(0.0);
            pcg_solve_multi(&matrix, &f, &mut u, &pre, &opts, &mut ws).expect("batch");
        },
    ));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, (got, want)) in u.chunks(n).zip(sequential.chunks(n)).enumerate() {
        assert_eq!(
            bits(got),
            bits(want),
            "plate {a}: case {i} differs from its sequential solve"
        );
        let out = &ws.outcomes()[i];
        assert!(
            out.status.is_converged(),
            "plate {a}: case {i} did not converge"
        );
        assert_eq!(
            out.report.iterations, iterations[i],
            "plate {a}: case {i} iterations"
        );
    }
}

fn main() {
    let mut results = Vec::new();
    bench_fused_vs_unfused(&mut results);
    // Both plates run the batch in lanes of lockstep blocks; the a = 60
    // plate is above the nnz threshold of the pool kernels, so there the
    // sequential solves fan out on the pool instead.
    bench_multi_rhs(&mut results, 20);
    bench_multi_rhs(&mut results, 60);
    finish(&results);
}
