//! BLAS-1 style vector kernels.
//!
//! The conjugate gradient iteration (Algorithm 1 of the paper) is built
//! almost entirely from these operations. They are written as plain indexed
//! loops over equal-length slices, which LLVM auto-vectorizes; the explicit
//! `assert_eq!` length checks hoist the bounds checks out of the loops.
//!
//! The paper's central performance observation — that the two *inner
//! products* per CG iteration are the expensive part on both vector machines
//! and processor arrays — is modelled in `mspcg-machine`; here we provide
//! the numerically careful reference kernels *and* their data-parallel
//! forms.
//!
//! ## Determinism contract
//!
//! Every reduction (dot, norms) is computed over the fixed chunk layout of
//! [`crate::par::reduction_layout`]: one partial per chunk, partials
//! combined in ascending chunk order. Chunk boundaries depend only on the
//! vector length, so results are **bitwise identical** across thread counts
//! and between the serial and parallel code paths. Elementwise kernels
//! (axpy, xpby, …) write disjoint chunks and are trivially deterministic.
//! Large inputs run on the `mspcg-sparse` worker pool (behind the `par`
//! feature); small inputs take the serial path (see
//! [`crate::tuning::par_min_elems`]).
//!
//! ## Blocks of right-hand sides
//!
//! The `_block` kernels run the same kernels on `W` columns stored
//! interleaved: column `j` of row `i` sits at `i·W + j`, so one pass over
//! the rows serves every column. The chunk layout is that of the `n` rows,
//! and each column is combined exactly as the plain kernel combines a
//! vector, so column `j` of a block result is bitwise the plain kernel's
//! result on column `j`. The plain kernels are the width-1 instances.

use crate::par;
use crate::tuning;

/// Serial dot kernel over one chunk of `W` interleaved columns: per column,
/// four independent partial accumulators over the rows, which both enables
/// vectorization and reduces the rounding error compared to a single
/// serial accumulator.
#[inline(always)]
fn dot_chunk<const W: usize>(x: &[f64], y: &[f64]) -> [f64; W] {
    let mut acc = [[0.0f64; W]; 4];
    let (xq, yq) = (x.chunks_exact(4 * W), y.chunks_exact(4 * W));
    let (x_tail, y_tail) = (xq.remainder(), yq.remainder());
    for (xq, yq) in xq.zip(yq) {
        for (k, acc) in acc.iter_mut().enumerate() {
            let rows = k * W..(k + 1) * W;
            for ((a, xi), yi) in acc.iter_mut().zip(&xq[rows.clone()]).zip(&yq[rows]) {
                *a += xi * yi;
            }
        }
    }
    let mut tail = [0.0f64; W];
    for (xr, yr) in x_tail.chunks_exact(W).zip(y_tail.chunks_exact(W)) {
        for ((t, xi), yi) in tail.iter_mut().zip(xr).zip(yr) {
            *t += xi * yi;
        }
    }
    std::array::from_fn(|j| (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j]) + tail[j])
}

/// The fixed-layout sum behind every reduction here, over `n` rows:
/// `chunk(lo, hi)` returns the partials of rows `lo..hi`, one per column,
/// and the partials of the chunks are added in ascending chunk order from
/// `0.0` — serially, or chunk by chunk on the pool for large inputs,
/// bitwise alike.
#[inline(always)]
fn sum_chunks<const W: usize>(
    n: usize,
    chunk: impl Fn(usize, usize) -> [f64; W] + Sync,
) -> [f64; W] {
    let (len, nchunks) = par::reduction_layout(n);
    let bounds = |c: usize| (c * len, (c * len + len).min(n));
    let mut acc = [0.0f64; W];
    let threads = par::threads_for(n, tuning::par_min_elems());
    if threads <= 1 {
        for c in 0..nchunks {
            let (lo, hi) = bounds(c);
            for (a, v) in acc.iter_mut().zip(chunk(lo, hi)) {
                *a += v;
            }
        }
        return acc;
    }
    let mut partials = [[0.0f64; W]; par::MAX_PARTIALS];
    {
        let ps = par::ParSlice::new(partials.as_flattened_mut());
        par::for_each_chunk(nchunks, threads, &|c| {
            let (lo, hi) = bounds(c);
            for (j, v) in chunk(lo, hi).into_iter().enumerate() {
                // SAFETY: each chunk index is claimed exactly once, and
                // chunk `c` alone writes slots `c·W..(c + 1)·W`.
                unsafe { ps.set(c * W + j, v) };
            }
        });
    }
    for part in &partials[..nchunks] {
        for (a, v) in acc.iter_mut().zip(part) {
            *a += v;
        }
    }
    acc
}

/// Rows of a block of `W` interleaved columns of total length `len`.
#[inline(always)]
fn block_rows<const W: usize>(len: usize, what: &str) -> usize {
    assert!(
        len.is_multiple_of(W),
        "{what}: length {len} is not a multiple of the block width {W}"
    );
    len / W
}

/// Dot product `xᵀy`, chunk-deterministic (see the module docs).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    let [d] = dot_block::<1>(x, y);
    d
}

/// [`dot`] of each of `W` interleaved columns: entry `j` is bitwise the
/// `dot` of column `j` of `x` and `y`.
///
/// # Panics
/// Panics if `x.len() != y.len()` or the length is not a multiple of `W`.
#[inline]
pub fn dot_block<const W: usize>(x: &[f64], y: &[f64]) -> [f64; W] {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = block_rows::<W>(x.len(), "dot");
    sum_chunks::<W>(n, |lo, hi| {
        let rows = lo * W..hi * W;
        dot_chunk::<W>(&x[rows.clone()], &y[rows])
    })
}

/// Distribute an elementwise update of `W` interleaved columns over the
/// fixed chunk layout of its `n` rows: `body(lo, hi, yc)` updates rows
/// `lo..hi`, whose elements `yc` holds — serially, or chunk by chunk on
/// the pool from [`tuning::par_min_elems`] rows on. Every elementwise
/// kernel here and the polynomial preconditioner's passes run through it.
///
/// # Panics
/// If `y` holds fewer than `W·n` values.
#[inline]
pub fn elementwise<const W: usize>(
    n: usize,
    y: &mut [f64],
    body: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let threads = par::threads_for(n, tuning::par_min_elems());
    let (chunk, nchunks) = par::reduction_layout(n);
    if threads <= 1 {
        for c in 0..nchunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            body(lo, hi, &mut y[lo * W..hi * W]);
        }
        return;
    }
    let ys = par::ParSlice::new(y);
    par::for_each_chunk(nchunks, threads, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: chunks are disjoint and each claimed exactly once.
        let yc = unsafe { ys.slice_mut(lo * W..hi * W) };
        body(lo, hi, yc);
    });
}

/// `y ← y + a·x` (the classic AXPY).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    elementwise::<1>(x.len(), y, |lo, hi, yc| {
        for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
            *yi += a * xi;
        }
    });
}

/// `y ← x + b·y` (scale-and-add used by the CG direction update
/// `p ← r̂ + β p`).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    xpby_block::<1>(x, &[b], y);
}

/// [`xpby`] on each of `W` interleaved columns, column `j` scaled by its
/// own `b[j]`.
///
/// # Panics
/// Panics if `x.len() != y.len()` or the length is not a multiple of `W`.
#[inline]
pub fn xpby_block<const W: usize>(x: &[f64], b: &[f64; W], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    let n = block_rows::<W>(x.len(), "xpby");
    elementwise::<W>(n, y, |lo, hi, yc| {
        // Element `k` of the chunk belongs to column `k % W`.
        for (k, (yi, xi)) in yc.iter_mut().zip(&x[lo * W..hi * W]).enumerate() {
            *yi = xi + b[k % W] * *yi;
        }
    });
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    elementwise::<1>(x.len(), x, |_, _, xc| {
        for xi in xc.iter_mut() {
            *xi *= a;
        }
    });
}

/// Copy `src` into `dst`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Set every element to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    x.fill(0.0);
}

/// Max-style chunk-deterministic reduction shared by the ∞-norm kernels.
#[inline]
fn max_reduce(n: usize, chunk_max: impl Fn(usize, usize) -> f64 + Sync) -> f64 {
    let (chunk, nchunks) = par::reduction_layout(n);
    let threads = par::threads_for(n, tuning::par_min_elems());
    if threads <= 1 {
        let mut m = 0.0f64;
        for c in 0..nchunks {
            let v = chunk_max(c * chunk, (c * chunk + chunk).min(n));
            if v > m {
                m = v;
            }
        }
        return m;
    }
    let mut partials = [0.0f64; par::MAX_PARTIALS];
    {
        let ps = par::ParSlice::new(&mut partials);
        par::for_each_chunk(nchunks, threads, &|c| {
            // SAFETY: each chunk index is claimed exactly once.
            unsafe { ps.set(c, chunk_max(c * chunk, (c * chunk + chunk).min(n))) };
        });
    }
    let mut m = 0.0f64;
    for &v in &partials[..nchunks] {
        if v > m {
            m = v;
        }
    }
    m
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow for very
/// large components.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_with_max(x, norm_inf(x))
}

/// The scaled-sum pass of [`norm2`] with the `‖x‖∞` pass already done —
/// callers that obtained `maxabs` from a fused kernel (see
/// [`fused_axpy_axpy_norm`]) skip one full sweep over `x`. Bitwise
/// identical to `norm2(x)` whenever `maxabs == norm_inf(x)`.
#[inline]
pub fn norm2_with_max(x: &[f64], maxabs: f64) -> f64 {
    let [v] = norm2_with_max_block::<1>(x, &[maxabs]);
    v
}

/// [`norm2_with_max`] of each of `W` interleaved columns, column `j` with
/// its own `maxabs[j]`.
///
/// # Panics
/// Panics if the length of `x` is not a multiple of `W`.
#[inline]
pub fn norm2_with_max_block<const W: usize>(x: &[f64], maxabs: &[f64; W]) -> [f64; W] {
    let n = block_rows::<W>(x.len(), "norm2_with_max");
    let scaled = maxabs.map(|m| m != 0.0 && m.is_finite());
    if !scaled.contains(&true) {
        return *maxabs;
    }
    let inv = maxabs.map(|m| 1.0 / m);
    let s = sum_chunks::<W>(n, |lo, hi| {
        let mut s = [0.0f64; W];
        for row in x[lo * W..hi * W].chunks_exact(W) {
            for ((s, xi), inv) in s.iter_mut().zip(row).zip(&inv) {
                let t = xi * inv;
                *s += t * t;
            }
        }
        s
    });
    std::array::from_fn(|j| {
        if scaled[j] {
            maxabs[j] * s[j].sqrt()
        } else {
            maxabs[j]
        }
    })
}

/// Max norm `‖x‖∞` — the norm the paper's convergence test uses
/// (`|u^{k+1} − u^k|_∞ < ε`, Algorithm 1 step (3)).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    max_reduce(x.len(), |lo, hi| {
        let mut m = 0.0f64;
        for &xi in &x[lo..hi] {
            let a = xi.abs();
            if a > m {
                m = a;
            }
        }
        m
    })
}

/// Reduction partials of [`fused_axpy_axpy_norm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FusedUpdateNorms {
    /// `‖p‖∞` of the (unchanged) direction vector — multiply by `|α|` for
    /// the displacement-change stopping test.
    pub p_norm_inf: f64,
    /// `‖r‖∞` of the **updated** residual — feed [`norm2_with_max`] for
    /// the relative-residual test without another full sweep.
    pub r_norm_inf: f64,
}

impl FusedUpdateNorms {
    /// Both norms are finite. Note the caveat of [`norm_inf`]: `f64::max`
    /// ignores NaN operands, so a NaN element can hide behind a larger
    /// finite one — an `Inf` always surfaces, but NaN detection must rely
    /// on the dot-product scalars of the same iteration (where one NaN
    /// poisons the whole sum).
    pub fn all_finite(&self) -> bool {
        self.p_norm_inf.is_finite() && self.r_norm_inf.is_finite()
    }
}

/// One chunk of the fused CG update on `W` columns: `u_j ← u_j + α_j·p_j`
/// for every column with an iterate, then `r ← r + (−α)·kp` row by row,
/// returning per column `(max|p|, max|r_new|)` for the chunk (`max|p|` is
/// 0 for a column without an iterate). The per-element arithmetic and max
/// logic replicate [`axpy`] and [`norm_inf`] exactly.
#[inline(always)]
fn fused_update_chunk<const W: usize>(
    alpha: &[f64; W],
    p: &[f64],
    kp: &[f64],
    u: [Option<&mut [f64]>; W],
    r: &mut [f64],
) -> ([f64; W], [f64; W]) {
    let mut max_p = [0.0f64; W];
    for (j, (uj, max_p)) in u.into_iter().zip(&mut max_p).enumerate() {
        let Some(uj) = uj else { continue };
        for (ui, pr) in uj.iter_mut().zip(p.chunks_exact(W)) {
            let pi = pr[j];
            *ui += alpha[j] * pi;
            let a = pi.abs();
            if a > *max_p {
                *max_p = a;
            }
        }
    }
    let neg_alpha = alpha.map(|a| -a);
    let mut max_r = [0.0f64; W];
    for (rr, kr) in r.chunks_exact_mut(W).zip(kp.chunks_exact(W)) {
        let lanes = rr.iter_mut().zip(kr).zip(&neg_alpha).zip(&mut max_r);
        for (((ri, ki), neg_alpha), max_r) in lanes {
            *ri += neg_alpha * ki;
            let a = ri.abs();
            if a > *max_r {
                *max_r = a;
            }
        }
    }
    (max_p, max_r)
}

/// The fused CG iteration update: in **one pass** over the fixed chunk
/// layout, perform `u ← u + α·p` and `r ← r − α·kp` and accumulate the
/// `‖p‖∞` / `‖r_new‖∞` reduction partials. Replaces the three to four
/// separate sweeps (`axpy`, `norm_inf`, `axpy`, and the `norm_inf` half of
/// [`norm2`]) of the unfused loop — one memory traversal and, on the
/// worker pool, one kernel launch instead of three.
///
/// **Bitwise identical to the unfused path** for any thread count: chunk
/// boundaries come from the same [`crate::par::reduction_layout`], the
/// per-element update arithmetic matches [`axpy`], and the max reductions
/// combine per-chunk partials in ascending chunk order exactly like
/// [`norm_inf`] (`tests/par_determinism.rs` asserts this).
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn fused_axpy_axpy_norm(
    alpha: f64,
    p: &[f64],
    kp: &[f64],
    u: &mut [f64],
    r: &mut [f64],
) -> FusedUpdateNorms {
    let [norms] = fused_axpy_axpy_norm_block::<1>(&[alpha], p, kp, [Some(u)], r);
    norms
}

/// [`fused_axpy_axpy_norm`] on `W` columns, column `j` with its own
/// `alpha[j]`: `p`, `kp` and `r` are interleaved blocks, and `u[j]` is
/// column `j`'s iterate as a plain vector of the rows — or `None` for a
/// column whose iterate must not move, whose `p_norm_inf` then reads 0.
/// Column `j` of the result and of `r`, and `u[j]`, are bitwise what
/// `fused_axpy_axpy_norm` gives on that column alone.
///
/// # Panics
/// Panics if `p`, `kp` and `r` differ in length, the length is not a
/// multiple of `W`, or an iterate is not one row-length long.
pub fn fused_axpy_axpy_norm_block<const W: usize>(
    alpha: &[f64; W],
    p: &[f64],
    kp: &[f64],
    u: [Option<&mut [f64]>; W],
    r: &mut [f64],
) -> [FusedUpdateNorms; W] {
    assert_eq!(
        kp.len(),
        p.len(),
        "fused_axpy_axpy_norm: kp length mismatch"
    );
    assert_eq!(r.len(), p.len(), "fused_axpy_axpy_norm: r length mismatch");
    let n = block_rows::<W>(p.len(), "fused_axpy_axpy_norm");
    assert!(
        u.iter().flatten().all(|uj| uj.len() == n),
        "fused_axpy_axpy_norm: u length mismatch"
    );
    let (chunk, nchunks) = par::reduction_layout(n);
    let us = u.map(|uj| uj.map(par::ParSlice::new));
    let rs = par::ParSlice::new(r);
    let chunk_norms = |c: usize| {
        let (lo, hi) = (c * chunk, (c * chunk + chunk).min(n));
        let rows = lo * W..hi * W;
        // SAFETY: chunks are disjoint and each claimed exactly once.
        unsafe {
            let uc = us
                .each_ref()
                .map(|uj| uj.as_ref().map(|uj| uj.slice_mut(lo..hi)));
            let rc = rs.slice_mut(rows.clone());
            fused_update_chunk::<W>(alpha, &p[rows.clone()], &kp[rows], uc, rc)
        }
    };
    let mut out = [FusedUpdateNorms::default(); W];
    let mut fold = |max_p: &[f64; W], max_r: &[f64; W]| {
        for ((o, &mp), &mr) in out.iter_mut().zip(max_p).zip(max_r) {
            if mp > o.p_norm_inf {
                o.p_norm_inf = mp;
            }
            if mr > o.r_norm_inf {
                o.r_norm_inf = mr;
            }
        }
    };
    let threads = par::threads_for(n, tuning::par_min_elems());
    if threads <= 1 {
        for c in 0..nchunks {
            let (max_p, max_r) = chunk_norms(c);
            fold(&max_p, &max_r);
        }
        return out;
    }
    let mut p_partials = [[0.0f64; W]; par::MAX_PARTIALS];
    let mut r_partials = [[0.0f64; W]; par::MAX_PARTIALS];
    {
        let pps = par::ParSlice::new(p_partials.as_flattened_mut());
        let rps = par::ParSlice::new(r_partials.as_flattened_mut());
        par::for_each_chunk(nchunks, threads, &|c| {
            let (max_p, max_r) = chunk_norms(c);
            for (j, (mp, mr)) in max_p.into_iter().zip(max_r).enumerate() {
                // SAFETY: chunk `c` alone writes slots `c·W..(c + 1)·W`.
                unsafe {
                    pps.set(c * W + j, mp);
                    rps.set(c * W + j, mr);
                }
            }
        });
    }
    for (max_p, max_r) in p_partials.iter().zip(&r_partials).take(nchunks) {
        fold(max_p, max_r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_handles_short_vectors() {
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_crossing_chunk_boundaries_matches_naive() {
        let n = crate::par::MIN_REDUCTION_CHUNK * 3 + 17;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
            .collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 53 + 5) % 97) as f64 * 0.01).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let d = dot(&x, &y);
        assert!(
            (d - naive).abs() < 1e-9 * naive.abs().max(1.0),
            "{d} vs {naive}"
        );
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn xpby_is_direction_update() {
        let r = [1.0, 1.0];
        let mut p = [4.0, 8.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [3.0, 5.0]);
    }

    #[test]
    fn norms_agree_on_simple_vector() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn norm2_resists_overflow() {
        let big = 1e200;
        let x = [big, big];
        assert!((norm2(&x) - big * std::f64::consts::SQRT_2).abs() / norm2(&x) < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0; 8]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = [1.0, 2.0];
        scale(3.0, &mut x);
        assert_eq!(x, [3.0, 6.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0]);
    }

    /// Fused CG update == unfused kernel sequence, bitwise, on a vector
    /// crossing several chunk boundaries.
    #[test]
    fn fused_axpy_axpy_norm_matches_unfused_sequence() {
        let n = crate::par::MIN_REDUCTION_CHUNK * 2 + 39;
        let alpha = 0.731;
        let p: Vec<f64> = (0..n)
            .map(|i| ((i * 13 + 5) % 211) as f64 * 0.01 - 1.0)
            .collect();
        let kp: Vec<f64> = (0..n)
            .map(|i| ((i * 29 + 1) % 173) as f64 * 0.02 - 1.5)
            .collect();
        let u0: Vec<f64> = (0..n).map(|i| ((i * 7 + 2) % 97) as f64 * 0.1).collect();
        let r0: Vec<f64> = (0..n)
            .map(|i| ((i * 11 + 3) % 89) as f64 * 0.05 - 2.0)
            .collect();

        let mut u_ref = u0.clone();
        let mut r_ref = r0.clone();
        axpy(alpha, &p, &mut u_ref);
        let p_norm = norm_inf(&p);
        axpy(-alpha, &kp, &mut r_ref);
        let r_norm = norm_inf(&r_ref);

        let mut u = u0;
        let mut r = r0;
        let norms = fused_axpy_axpy_norm(alpha, &p, &kp, &mut u, &mut r);
        assert_eq!(
            u.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            u_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(norms.p_norm_inf.to_bits(), p_norm.to_bits());
        assert_eq!(norms.r_norm_inf.to_bits(), r_norm.to_bits());
        // And norm2 can be finished from the fused max without a fresh
        // ∞-norm pass.
        assert_eq!(
            norm2_with_max(&r, norms.r_norm_inf).to_bits(),
            norm2(&r).to_bits()
        );
    }

    #[test]
    fn fused_kernels_handle_empty_and_tiny() {
        let mut e: [f64; 0] = [];
        let mut e2: [f64; 0] = [];
        let norms = fused_axpy_axpy_norm(2.0, &[], &[], &mut e, &mut e2);
        assert_eq!(norms, FusedUpdateNorms::default());
        let mut u = [1.0];
        let mut r = [4.0];
        let norms = fused_axpy_axpy_norm(0.5, &[2.0], &[6.0], &mut u, &mut r);
        assert_eq!(u, [2.0]);
        assert_eq!(r, [1.0]);
        assert_eq!(norms.p_norm_inf, 2.0);
        assert_eq!(norms.r_norm_inf, 1.0);
    }

    /// The determinism contract, at unit level: serial result == parallel
    /// result, bitwise, for every configured thread count.
    #[test]
    fn reductions_are_thread_count_insensitive() {
        let _guard = crate::par::thread_sweep_lock();
        let n = crate::tuning::par_min_elems() + 4321;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 31 + 7) % 1013) as f64 * 1e-3 - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 17 + 3) % 911) as f64 * 1e-3 - 0.4)
            .collect();
        let before = crate::par::max_threads();
        crate::par::set_max_threads(1);
        let d1 = dot(&x, &y);
        let n1 = norm2(&x);
        for t in [2usize, 4, 8] {
            crate::par::set_max_threads(t);
            assert_eq!(d1.to_bits(), dot(&x, &y).to_bits(), "dot at t = {t}");
            assert_eq!(n1.to_bits(), norm2(&x).to_bits(), "norm2 at t = {t}");
        }
        crate::par::set_max_threads(before);
    }

    /// The reduction scalars are the solver's non-finite detectors: one
    /// poisoned element must surface through the dot product, while the
    /// ∞-norm partials of the fused update surface only an Inf.
    #[test]
    fn fused_reduction_scalars_detect_non_finite_elements() {
        let n = 64usize;
        let mut r: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let z: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        assert!(dot(&r, &z).is_finite());
        r[n / 2] = f64::NAN;
        assert!(!dot(&r, &z).is_finite(), "NaN in r must poison (r, z)");
        r[n / 2] = f64::INFINITY;
        assert!(!dot(&r, &z).is_finite(), "Inf in r must poison (r, z)");

        // The ∞-norm caveat the docs state: a NaN behind a larger finite
        // element is swallowed by max, so FusedUpdateNorms::all_finite is
        // a weaker (Inf-only) detector than the dot scalars.
        let alpha = 0.5;
        let mut u = vec![0.0; 4];
        let mut rr = vec![1.0, f64::INFINITY, 3.0, 4.0];
        let norms = fused_axpy_axpy_norm(alpha, &[1.0; 4], &[1.0; 4], &mut u, &mut rr);
        assert!(!norms.all_finite(), "Inf residual element must surface");
    }
}
