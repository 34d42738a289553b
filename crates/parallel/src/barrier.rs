//! A sense-reversing spin barrier.
//!
//! The SPMD solver synchronizes `m·(2C−1) + 3` times per classic CG
//! iteration (`C` colors, `m` steps): once per color phase of the
//! preconditioner, plus three fused update phases. `std::sync::Barrier`
//! parks threads through the OS on every wait — microseconds each — which
//! swamps the numeric work for all but huge plates. HPC barriers spin instead: when all workers
//! arrive within a few hundred nanoseconds of each other (the common case
//! when every worker owns an equal chunk of every color), a
//! generation-counter spin costs ~100 ns.
//!
//! The implementation is the classic central counter + generation
//! ("sense") flag. Memory ordering: every worker's pre-barrier writes
//! happen-before its `fetch_add` (release); the last arriver's `fetch_add`
//! (acquire) therefore sees them all, and its generation bump (release) is
//! what the spinners acquire — transitively ordering all pre-barrier
//! writes before all post-barrier reads.
//!
//! To stay polite under oversubscription the spin yields to the scheduler
//! every 64 polls.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A reusable spin barrier for a fixed number of workers.
///
/// The barrier **counts its crossings** ([`SpinBarrier::crossings`]): one
/// increment per generation, regardless of worker count. The SPMD solver
/// publishes the count so the per-iteration synchronization cost of a
/// schedule — the quantity the paper's whole argument optimizes — is a
/// measured number, not a claim (a relaxed store by the last arriver;
/// nothing is added to the spin loop).
pub struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    crossings: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    /// Barrier for `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one worker");
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            crossings: AtomicUsize::new(0),
            total: n,
        }
    }

    /// Completed barrier crossings (generations) since construction. One
    /// crossing = one synchronization of all `n` workers — the unit the
    /// `m·(2C−1) + k` per-iteration cost model counts.
    pub fn crossings(&self) -> usize {
        self.crossings.load(Ordering::Relaxed)
    }

    /// Block (spinning) until all `n` workers have called `wait`.
    pub fn wait(&self) {
        if self.total == 1 {
            self.crossings.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            // Last arriver: reset and release the generation.
            self.count.store(0, Ordering::Relaxed);
            self.crossings.fetch_add(1, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_worker_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
        assert_eq!(b.crossings(), 10);
    }

    #[test]
    fn crossings_count_generations_not_waits() {
        const T: usize = 4;
        const ROUNDS: usize = 50;
        let b = SpinBarrier::new(T);
        std::thread::scope(|s| {
            for _ in 0..T {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        b.wait();
                    }
                });
            }
        });
        // 4 workers × 50 waits = 50 crossings.
        assert_eq!(b.crossings(), ROUNDS);
    }

    #[test]
    fn orders_phases_across_threads() {
        // Classic message-passing test: phase-1 writes must be visible
        // after the barrier in every thread, for many generations.
        const T: usize = 4;
        const ROUNDS: usize = 200;
        let b = SpinBarrier::new(T);
        let cells: Vec<AtomicU64> = (0..T).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..T {
                let b = &b;
                let cells = &cells;
                s.spawn(move || {
                    for round in 1..=ROUNDS as u64 {
                        cells[t].store(round, Ordering::Relaxed);
                        b.wait();
                        for c in cells {
                            assert_eq!(c.load(Ordering::Relaxed), round);
                        }
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        SpinBarrier::new(0);
    }
}
