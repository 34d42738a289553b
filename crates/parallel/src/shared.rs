//! Phase-disciplined shared vectors.
//!
//! The SPMD solver shares `f64` vectors between worker threads with a
//! strict *phase discipline* enforced by barriers:
//!
//! * within one phase, every element is written by **at most one** worker
//!   (each worker owns one contiguous chunk of every color block — the
//!   paper's §3.2 node assignment — and writes only its own rows, or in a
//!   color-sweep phase only its chunk of the current color),
//! * elements *read* during a phase are never written in that same phase
//!   (the multicolor property: a row's off-diagonal couplings point into
//!   other color blocks, which the current phase does not touch),
//! * phases are separated by barriers, which establish happens-before
//!   edges between all writes of phase k and all reads of phase k+1.
//!
//! Rust cannot express this aliasing pattern with `&mut` splitting because
//! readers need the whole vector while writers hold disjoint parts, so
//! [`SharedVec`] wraps an `UnsafeCell` and exposes `unsafe` accessors whose
//! contracts restate the discipline. Nothing checks the discipline at run
//! time: the solver's per-color ownership map upholds it, and the
//! bitwise-replay tests are the only evidence.

use mspcg_sparse::par::ParSlice;
use std::cell::UnsafeCell;

/// A fixed-length `f64` vector shared across the worker pool, stored as a
/// boxed slice of `UnsafeCell`s so element access never materializes a
/// reference to the whole container (the aliasing-correct pattern for
/// shared numeric buffers).
pub struct SharedVec {
    buf: Box<[UnsafeCell<f64>]>,
}

// SAFETY: all concurrent access goes through the `unsafe` accessors below,
// whose contracts (single writer per element per phase, no read of
// same-phase writes, barrier-separated phases) make every access either
// data-race free or unreachable. The type is only usable from this crate's
// solver, which upholds the discipline structurally.
unsafe impl Sync for SharedVec {}

impl SharedVec {
    /// Zero-initialized vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        SharedVec {
            buf: (0..n).map(|_| UnsafeCell::new(0.0)).collect(),
        }
    }

    /// Take ownership of an existing vector.
    pub fn from_vec(v: Vec<f64>) -> Self {
        SharedVec {
            buf: v.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Read-only view of the whole vector.
    ///
    /// # Safety
    /// No worker may concurrently write any element during the current
    /// phase (i.e. all writes to this vector happened before the last
    /// barrier).
    #[inline]
    pub unsafe fn read(&self) -> &[f64] {
        // SAFETY: UnsafeCell<f64> has the same layout as f64; the
        // forwarded contract rules out concurrent writers this phase.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const f64, self.buf.len()) }
    }

    /// Read-only view of a sub-range — what a worker reads of a vector
    /// other workers are writing elsewhere in the same phase.
    ///
    /// # Safety
    /// No worker may concurrently write any element of `range` during the
    /// current phase.
    #[inline]
    pub unsafe fn read_range(&self, range: std::ops::Range<usize>) -> &[f64] {
        debug_assert!(range.end <= self.buf.len(), "read range out of bounds");
        // SAFETY: layout as in `read`; the forwarded contract rules out a
        // concurrent writer of these elements.
        unsafe {
            std::slice::from_raw_parts(
                self.buf.as_ptr().add(range.start) as *const f64,
                range.len(),
            )
        }
    }

    /// Mutable view of a sub-range.
    ///
    /// # Safety
    /// The range must be disjoint from every other worker's write range in
    /// the current phase, and no worker may read these elements during the
    /// phase.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn write(&self, range: std::ops::Range<usize>) -> &mut [f64] {
        debug_assert!(range.end <= self.buf.len(), "write range out of bounds");
        // SAFETY: layout as above; the forwarded contract guarantees the
        // range is exclusively owned by the caller this phase.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.buf.as_ptr().add(range.start) as *mut f64,
                range.len(),
            )
        }
    }

    /// The vector behind the raw element accessors of a [`ParSlice`], for
    /// the color-sweep kernel: unlike [`SharedVec::read`], this borrows no
    /// element, so one worker's sweep may read other chunks while it
    /// writes its own.
    #[inline]
    pub fn par_slice(&self) -> ParSlice<'_> {
        // SAFETY: `UnsafeCell<f64>` has the layout of `f64` and permits
        // writes through a shared reference; every access through the
        // accessors is `unsafe` and carries the phase discipline.
        unsafe { ParSlice::from_raw_parts(UnsafeCell::raw_get(self.buf.as_ptr()), self.buf.len()) }
    }

    /// Single-element write (ownership: one writer per index per phase).
    ///
    /// # Safety
    /// Same contract as [`SharedVec::write`] for the single index.
    #[inline]
    pub unsafe fn write_at(&self, i: usize, v: f64) {
        debug_assert!(i < self.buf.len(), "write index out of bounds");
        // SAFETY: forwarded contract — unique writer for index i.
        unsafe {
            *self.buf[i].get() = v;
        }
    }

    /// Consume into a plain vector (main thread, after all workers have
    /// joined).
    pub fn into_vec(self) -> Vec<f64> {
        self.buf
            .into_vec()
            .into_iter()
            .map(|c| c.into_inner())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn single_threaded_round_trip() {
        let v = SharedVec::zeros(4);
        unsafe {
            v.write(1..3).copy_from_slice(&[5.0, 6.0]);
            assert_eq!(v.read(), &[0.0, 5.0, 6.0, 0.0]);
            v.write_at(0, -1.0);
        }
        assert_eq!(v.into_vec(), vec![-1.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn barrier_separated_multi_writer() {
        // Two threads write disjoint halves, barrier, then both read all.
        let v = SharedVec::zeros(8);
        let b = Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let v = &v;
                let b = &b;
                s.spawn(move || {
                    let range = t * 4..(t + 1) * 4;
                    unsafe {
                        for (k, x) in v.write(range.clone()).iter_mut().enumerate() {
                            *x = (t * 4 + k) as f64;
                        }
                    }
                    b.wait();
                    let all = unsafe { v.read() };
                    let sum: f64 = all.iter().sum();
                    assert_eq!(sum, 28.0);
                });
            }
        });
    }
}
