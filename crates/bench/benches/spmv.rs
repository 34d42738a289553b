//! Kernel bench: (a) CSR row-wise SpMV on the color-blocked plate matrix
//! at three sizes; (b) serial vs pool-parallel CSR SpMV on a 512×512
//! red/black Poisson problem (262 144 unknowns, ~1.3 M stored entries) —
//! the data-parallel kernel layer's headline speedup; (c) CSR vs SELL-C-σ
//! on the wide-row (arrow) family — the row-length-irregular shapes the
//! SELL layout exists for.
//!
//! Run: `cargo bench -p mspcg-bench --bench spmv` (add `-- --json FILE`
//! to keep the numbers).

use mspcg_bench::experiments::{ordered_plate, ordered_poisson};
use mspcg_bench::timing::{bench, finish, BenchResult};
use mspcg_sparse::{par, CooMatrix, SellCsMatrix, SparseOp};
use std::hint::black_box;

fn bench_plate(results: &mut Vec<BenchResult>) {
    for a in [20usize, 40, 60] {
        let (_, ord) = ordered_plate(a).expect("plate");
        let n = ord.matrix.rows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y = vec![0.0; n];

        results.push(bench("spmv_plate", &format!("csr_n{n}"), || {
            ord.matrix.mul_vec_into(black_box(&x), black_box(&mut y));
        }));
    }
}

fn bench_serial_vs_parallel(results: &mut Vec<BenchResult>) {
    let (matrix, _, _) = ordered_poisson(512).expect("poisson 512");
    let n = matrix.rows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3)
        .collect();
    let mut y = vec![0.0; n];

    let hw = par::max_threads();
    par::set_max_threads(1);
    let serial = bench("spmv_poisson512", "serial", || {
        matrix.mul_vec_into(black_box(&x), black_box(&mut y));
    });
    let serial_mean = serial.mean_ns;
    results.push(serial);

    for t in [2usize, 4, 8] {
        if t > par::pool_capacity() {
            break;
        }
        par::set_max_threads(t);
        let r = bench("spmv_poisson512", &format!("par{t}"), || {
            matrix.mul_vec_into(black_box(&x), black_box(&mut y));
        });
        println!(
            "    speedup vs serial at {t} threads: {:.2}x",
            serial_mean / r.mean_ns
        );
        results.push(r);
    }
    par::set_max_threads(hw);

    // Fused SpMV-accumulate, both paths, at the full budget.
    par::set_max_threads(1);
    results.push(bench("spmv_axpy_poisson512", "serial", || {
        matrix.mul_vec_axpy(-1.0, black_box(&x), black_box(&mut y));
    }));
    par::set_max_threads(hw);
    results.push(bench("spmv_axpy_poisson512", &format!("par{hw}"), || {
        matrix.mul_vec_axpy(-1.0, black_box(&x), black_box(&mut y));
    }));
}

/// The wide-row family: `head` dense rows over a short (tridiagonal) body
/// — the arrow shape multipoint constraints and boundary condensation
/// produce, where CSR pays a per-row loop for every 3-entry body row and
/// row-count chunking lets the dense head serialize a pool. SELL-C-σ
/// groups the dense rows into their own slices (σ-sort) and streams the
/// short-row body C rows per loop.
fn arrow_matrix(n: usize, head: usize) -> mspcg_sparse::CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0).unwrap();
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    for d in 0..head {
        for j in head..n {
            coo.push(d, j, -1e-3 * (d + 1) as f64).unwrap();
        }
    }
    coo.to_csr()
}

fn bench_csr_vs_sellcs_wide_rows(results: &mut Vec<BenchResult>) {
    for (n, head) in [(60_000usize, 8usize), (120_000, 16)] {
        let a = arrow_matrix(n, head);
        let sell = SellCsMatrix::from_csr_default(&a);
        println!(
            "    arrow n = {n}, head = {head}: nnz = {}, SELL padding = {:.1}%",
            a.nnz(),
            sell.padding_ratio() * 100.0
        );
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3)
            .collect();
        let mut y = vec![0.0; n];

        let hw = par::max_threads();
        par::set_max_threads(1);
        let csr_serial = bench(&format!("spmv_arrow_n{n}"), "csr_serial", || {
            a.mul_vec_into(black_box(&x), black_box(&mut y));
        });
        let sell_serial = bench(&format!("spmv_arrow_n{n}"), "sellcs_serial", || {
            SparseOp::mul_vec_into(&sell, black_box(&x), black_box(&mut y));
        });
        println!(
            "    SELL-C-σ vs CSR (serial): {:.2}x",
            csr_serial.mean_ns / sell_serial.mean_ns
        );
        let csr_mean = csr_serial.mean_ns;
        let sell_mean = sell_serial.mean_ns;
        results.push(csr_serial);
        results.push(sell_serial);

        for t in [2usize, 4, 8] {
            if t > par::pool_capacity() {
                break;
            }
            par::set_max_threads(t);
            let rc = bench(&format!("spmv_arrow_n{n}"), &format!("csr_par{t}"), || {
                a.mul_vec_into(black_box(&x), black_box(&mut y));
            });
            let rs = bench(
                &format!("spmv_arrow_n{n}"),
                &format!("sellcs_par{t}"),
                || {
                    SparseOp::mul_vec_into(&sell, black_box(&x), black_box(&mut y));
                },
            );
            println!(
                "    SELL-C-σ vs CSR at {t} threads: {:.2}x (CSR {:.2}x / SELL {:.2}x over serial)",
                rc.mean_ns / rs.mean_ns,
                csr_mean / rc.mean_ns,
                sell_mean / rs.mean_ns
            );
            results.push(rc);
            results.push(rs);
        }
        par::set_max_threads(hw);
    }
}

fn main() {
    let mut results = Vec::new();
    bench_plate(&mut results);
    bench_serial_vs_parallel(&mut results);
    bench_csr_vs_sellcs_wide_rows(&mut results);
    finish(&results);
}
