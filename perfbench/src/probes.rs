//! Isolated layer probes: each times one public entry point on its own,
//! outside any solve, to give the per-layer ceiling or fixed cost.

use crate::stats::median;
use mspcg::core::poly::jacobi_spectrum;
use mspcg::parallel::SpinBarrier;
use mspcg::sparse::par::{self, ParSlice};
use mspcg::sparse::{vecops, CsrMatrix, SparseError};
use std::time::Instant;

/// Median per-call seconds of `f`, over `batches` batches of `per_batch`
/// back-to-back calls.
pub fn per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Calls of a kernel taking `call_s` seconds that fill about `budget_s`.
pub fn calls_for(call_s: f64, budget_s: f64) -> usize {
    ((budget_s / call_s.max(1e-9)) as usize).clamp(1, 1_000_000)
}

/// STREAM triad `a ← b + s·c` bandwidth at 1 and 2 threads on the `par`
/// pool, from computed bytes (24 per element: two reads, one write).
pub struct Triad {
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    pub gbs_t1: f64,
    pub gbs_t2: f64,
}

/// Run the triad on three arrays of `array_bytes` each.
pub fn triad(array_bytes: u64) -> Triad {
    let len = usize::try_from(array_bytes / 8).expect("triad array too large");
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let scalar = 3.0;
    let nchunks = 64;
    let chunk = len.div_ceil(nchunks);
    let mut run = |threads: usize| -> f64 {
        let out = ParSlice::new(&mut a);
        let start = Instant::now();
        par::for_each_chunk(nchunks, threads, &|ci| {
            let lo = (ci * chunk).min(len);
            let hi = (lo + chunk).min(len);
            // SAFETY: chunk ranges are disjoint, inside `0..len`, and each
            // chunk index is claimed by exactly one participant; nothing
            // reads `a` during the region.
            let dst = unsafe { out.slice_mut(lo..hi) };
            for ((d, x), y) in dst.iter_mut().zip(&b[lo..hi]).zip(&c[lo..hi]) {
                *d = x + scalar * y;
            }
        });
        let secs = start.elapsed().as_secs_f64();
        24.0 * len as f64 / secs * 1e-9
    };
    // First pass touches `a`'s pages.
    run(2);
    let reps = 5;
    let gbs_t1 = median(&(0..reps).map(|_| run(1)).collect::<Vec<_>>());
    let gbs_t2 = median(&(0..reps).map(|_| run(2)).collect::<Vec<_>>());
    std::hint::black_box(&a);
    Triad {
        array_bytes,
        gbs_t1,
        gbs_t2,
    }
}

/// Microseconds of an empty `par::for_each_chunk` fork-join at 2 threads.
pub fn fork_join_us() -> f64 {
    per_call(7, 2_000, || {
        par::for_each_chunk(2, 2, &|c| {
            std::hint::black_box(c);
        })
    }) * 1e6
}

/// Nanoseconds per `SpinBarrier::wait` crossing with 2 threads.
pub fn barrier_crossing_ns() -> f64 {
    let crossings = 100_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let barrier = SpinBarrier::new(2);
            let elapsed = std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..crossings {
                        barrier.wait();
                    }
                });
                let start = Instant::now();
                for _ in 0..crossings {
                    barrier.wait();
                }
                start.elapsed()
            });
            elapsed.as_nanos() as f64 / crossings as f64
        })
        .collect();
    median(&samples)
}

/// Microseconds of `vecops::fused_axpy_axpy_norm` and `vecops::dot` at
/// length `n` under the current thread budget.
pub fn vecops_us(n: usize) -> (f64, f64) {
    let p = vec![0.5f64; n];
    let kp = vec![0.25f64; n];
    let mut u = vec![1.0f64; n];
    let mut r = vec![1.0f64; n];
    // Alternating signs keep `u` and `r` bounded however often it runs.
    let mut sign = 1e-9;
    let mut update = || {
        sign = -sign;
        std::hint::black_box(vecops::fused_axpy_axpy_norm(sign, &p, &kp, &mut u, &mut r));
    };
    let probe = per_call(1, 3, &mut update);
    let per_batch = calls_for(probe, 0.05);
    let fused = per_call(7, per_batch, update) * 1e6;
    let mut dot = || {
        std::hint::black_box(vecops::dot(&p, &kp));
    };
    let probe = per_call(1, 3, &mut dot);
    let per_batch = calls_for(probe, 0.05);
    let dot_us = per_call(7, per_batch, dot) * 1e6;
    (fused, dot_us)
}

/// Seconds of `poly::jacobi_spectrum` alone on `a` (the Lanczos estimate
/// the polynomial preconditioner pays for at set-up): the median of up to
/// five runs that fit in about a second, and at least one.
pub fn lanczos_s(a: &CsrMatrix) -> Result<f64, SparseError> {
    let inv_diag: Vec<f64> = a.diag()?.iter().map(|d| 1.0 / d).collect();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (start.elapsed().as_secs_f64() < 1.0 && samples.len() < 5) {
        let t = Instant::now();
        std::hint::black_box(jacobi_spectrum(a, &inv_diag)?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}
