//! A sense-reversing spin barrier.
//!
//! The SPMD solver synchronizes ~`8 + m·(2C−1)` times per CG iteration
//! (one per color phase). `std::sync::Barrier` parks threads through the
//! OS on every wait — microseconds each — which swamps the numeric work
//! for all but huge plates. HPC barriers spin instead: when all workers
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

/// A **split-phase** spin barrier: [`SplitBarrier::arrive`] announces this
/// worker's phase is complete (publishing its pre-arrive writes) and
/// returns immediately with a generation ticket; [`SplitBarrier::wait`]
/// blocks until *every* worker of that generation has arrived. Work placed
/// between the two calls overlaps the other workers' straggling — the
/// split-phase analogue of `MPI_Iallreduce`: the pipelined PCG schedule
/// *initiates* its one reduction (arrive, right after the partials are
/// written) before the preconditioner + SpMV phase and only *consumes* it
/// (wait) afterwards, hiding the synchronization latency behind the
/// heaviest work of the iteration.
///
/// Memory ordering is the [`SpinBarrier`] argument verbatim: each worker's
/// pre-arrive writes happen-before its `fetch_add` (release); the last
/// arriver's `fetch_add` (acquire) sees them all and its generation bump
/// (release) is what `wait` acquires — so everything written before *any*
/// `arrive` is visible after *every* `wait` of that generation.
///
/// Contract: each worker alternates `arrive`/`wait` strictly (one
/// outstanding ticket per worker). A worker may `arrive` for generation
/// `g+1` while another still spins in `wait(g)` — tickets pin the
/// generation at arrival time, so a late `wait` whose generation already
/// completed returns immediately (the common case when enough work was
/// overlapped).
///
/// Crossings are instrumented exactly like [`SpinBarrier::crossings`]: one
/// increment per completed generation, by the last arriver.
pub struct SplitBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    crossings: AtomicUsize,
    total: usize,
}

impl SplitBarrier {
    /// Split barrier for `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one worker");
        SplitBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            crossings: AtomicUsize::new(0),
            total: n,
        }
    }

    /// Completed generations since construction (the unit the pipelined
    /// schedule's cost model counts: one reduction in flight per
    /// crossing).
    pub fn crossings(&self) -> usize {
        self.crossings.load(Ordering::Relaxed)
    }

    /// Announce arrival at the current generation and return its ticket
    /// (to be passed to [`SplitBarrier::wait`]). Never blocks.
    pub fn arrive(&self) -> usize {
        if self.total == 1 {
            self.crossings.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            // Last arriver: reset and release the generation.
            self.count.store(0, Ordering::Relaxed);
            self.crossings.fetch_add(1, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        }
        gen
    }

    /// Block (spinning) until every worker has arrived at the ticket's
    /// generation. Returns immediately when that generation already
    /// completed — the payoff case, where the overlapped work outlasted
    /// the stragglers.
    pub fn wait(&self, ticket: usize) {
        if self.total == 1 {
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == ticket {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// `arrive` + `wait` back to back: a plain full barrier (the zero
    /// overlap-window degenerate case).
    pub fn arrive_and_wait(&self) {
        let ticket = self.arrive();
        self.wait(ticket);
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

    #[test]
    fn split_single_worker_never_blocks() {
        // 1-thread degenerate case: arrive returns instantly, wait is a
        // no-op, crossings still count generations.
        let b = SplitBarrier::new(1);
        for _ in 0..10 {
            let t = b.arrive();
            b.wait(t);
        }
        assert_eq!(b.crossings(), 10);
        // A stale ticket must not deadlock a single worker either.
        b.wait(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn split_zero_workers_rejected() {
        SplitBarrier::new(0);
    }

    #[test]
    fn split_crossings_count_generations_not_arrivals() {
        const T: usize = 4;
        const ROUNDS: usize = 50;
        let b = SplitBarrier::new(T);
        std::thread::scope(|s| {
            for _ in 0..T {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        b.arrive_and_wait();
                    }
                });
            }
        });
        // 4 workers × 50 arrive/wait pairs = 50 crossings.
        assert_eq!(b.crossings(), ROUNDS);
    }

    #[test]
    fn split_orders_arrive_side_writes_before_wait_side_reads() {
        // The split-phase analogue of the message-passing test: every
        // write made before *any* arrive of generation g must be visible
        // after *every* wait of generation g, with an overlap window of
        // unrelated work in between, across many reused generations.
        const T: usize = 4;
        const ROUNDS: usize = 200;
        let b = SplitBarrier::new(T);
        let cells: Vec<AtomicU64> = (0..T).map(|_| AtomicU64::new(0)).collect();
        let scratch: Vec<AtomicU64> = (0..T).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..T {
                let b = &b;
                let cells = &cells;
                let scratch = &scratch;
                s.spawn(move || {
                    for round in 1..=ROUNDS as u64 {
                        cells[t].store(round, Ordering::Relaxed);
                        let ticket = b.arrive();
                        // Overlap window: private work that must not
                        // disturb the in-flight generation.
                        scratch[t].store(round * round, Ordering::Relaxed);
                        b.wait(ticket);
                        for c in cells {
                            assert_eq!(c.load(Ordering::Relaxed), round);
                        }
                        // Second (full) crossing separates the rounds so a
                        // fast worker's next store cannot race the check.
                        b.arrive_and_wait();
                    }
                });
            }
        });
        assert_eq!(b.crossings(), 2 * ROUNDS);
    }

    #[test]
    fn split_interleaving_stress_with_randomized_delays() {
        // Loom-style interleaving smoke: per-thread xorshift delays jitter
        // the arrive→wait window so fast workers routinely arrive for
        // generation g+1 while slow ones still sit before wait(g). The
        // phase-1 visibility invariant must hold in every interleaving.
        const T: usize = 4;
        const ROUNDS: usize = 500;
        let b = SplitBarrier::new(T);
        let cells: Vec<AtomicU64> = (0..T).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..T {
                let b = &b;
                let cells = &cells;
                s.spawn(move || {
                    let mut state = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
                    let mut rng = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for round in 1..=ROUNDS as u64 {
                        cells[t].store(round, Ordering::Relaxed);
                        let ticket = b.arrive();
                        // Randomized overlap delay (0–255 spin hints).
                        for _ in 0..(rng() & 0xFF) {
                            std::hint::spin_loop();
                        }
                        b.wait(ticket);
                        for c in cells {
                            assert_eq!(c.load(Ordering::Relaxed), round);
                        }
                        // Randomized post-wait delay before the separating
                        // crossing, to jitter the read side too.
                        for _ in 0..(rng() & 0xFF) {
                            std::hint::spin_loop();
                        }
                        b.arrive_and_wait();
                    }
                });
            }
        });
        assert_eq!(b.crossings(), 2 * ROUNDS);
    }

    #[test]
    fn split_late_wait_returns_immediately_after_generation_completes() {
        // Reuse across generations with a deliberately late wait: worker 0
        // holds its ticket while the others complete the generation; its
        // wait must then pass without any further arrivals.
        const T: usize = 3;
        let b = SplitBarrier::new(T);
        let gate = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..T {
                let b = &b;
                let gate = &gate;
                s.spawn(move || {
                    let ticket = b.arrive();
                    gate.fetch_add(1, Ordering::SeqCst);
                    if t == 0 {
                        // Last to wait: by now the generation may already
                        // be complete — wait must not hang on a stale
                        // ticket.
                        while gate.load(Ordering::SeqCst) < T {
                            std::hint::spin_loop();
                        }
                    }
                    b.wait(ticket);
                });
            }
        });
        assert_eq!(b.crossings(), 1);
    }
}
