//! Timing forwarders for the traced run. They implement the library's
//! public `SparseOp` and `Preconditioner` traits around a real operator
//! and preconditioner, so a real solve calls through them and each layer's
//! busy time and call count are measured from outside the solver crates.
//! Every method forwards to the wrapped value unchanged, so a wrapped
//! solve computes bitwise the same iterate as an unwrapped one.

use mspcg::core::Preconditioner;
use mspcg::sparse::lanczos::SpectralInterval;
use mspcg::sparse::{CsrMatrix, SparseOp};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls and busy nanoseconds of one layer, summed over every thread that
/// calls it (the lanes of a batched solve run concurrently).
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: no other data is published through these.
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy seconds recorded.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// An operator whose matrix–vector products are timed.
pub struct TimedOp<'a, A> {
    pub inner: &'a A,
    pub tally: &'a Tally,
}

impl<A: SparseOp> SparseOp for TimedOp<'_, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }
    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_range_into(x, y, rows)
    }
    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_axpy_range(a, x, y, rows)
    }
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        self.inner.visit_row(i, visit)
    }
    fn chunk_rows(&self, chunk_nnz: usize, c: usize) -> Range<usize> {
        self.inner.chunk_rows(chunk_nnz, c)
    }
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.tally.time(|| self.inner.mul_vec_into(x, y))
    }
    fn mul_vec_axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        self.tally.time(|| self.inner.mul_vec_axpy(a, x, y))
    }
    fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        self.tally.time(|| self.inner.mul_vec(x))
    }
    fn diag_into(&self, out: &mut [f64]) {
        self.inner.diag_into(out)
    }
    fn csr_copy(&self) -> CsrMatrix {
        self.inner.csr_copy()
    }
}

/// A preconditioner whose applications are timed.
pub struct TimedPrecond<'a, P> {
    pub inner: &'a P,
    pub tally: &'a Tally,
}

impl<P: Preconditioner> Preconditioner for TimedPrecond<'_, P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.tally.time(|| self.inner.apply(r, z))
    }
    fn steps_per_apply(&self) -> usize {
        self.inner.steps_per_apply()
    }
    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }
    fn apply_with(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.tally.time(|| self.inner.apply_with(r, z, scratch))
    }
    fn spectral_hint(&self) -> Option<SpectralInterval> {
        self.inner.spectral_hint()
    }
}
