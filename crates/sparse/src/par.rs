//! Data-parallel execution engine for the numeric kernels.
//!
//! The multicolor machinery of the paper makes every hot loop of the m-step
//! SSOR PCG *embarrassingly parallel per color block* (rows within one color
//! update independently) and every BLAS-1 kernel embarrassingly parallel per
//! element. This module provides the shared substrate the kernels in
//! [`crate::vecops`], [`crate::csr`] and `mspcg-core`'s multicolor SSOR run
//! on:
//!
//! * a **persistent worker pool** built on `std` threads (no external
//!   runtime): a launch publishes its job with one atomic store and
//!   unparks only the workers it uses; between launches a worker spins
//!   briefly, then parks — and never spins when the launch has more
//!   participants than the hardware has threads,
//! * **fixed chunking**: every kernel splits its index space into chunks
//!   whose boundaries depend only on the problem size — *never* on the
//!   thread count — and distributes whole chunks to workers,
//! * **fixed ownership**: participant `p` of `T` runs the chunks
//!   `p·N/T .. (p+1)·N/T` of an `N`-chunk launch, the same on every
//!   launch, so across the hundreds of kernels of one solve each core
//!   keeps streaming the same slice of the matrix and vectors from its
//!   own cache (§3.2's fixed node-to-processor assignment),
//! * **deterministic reductions**: dot products and norms accumulate one
//!   partial per chunk and combine the partials in ascending chunk order,
//!   so the result is bitwise identical for 1, 2, 4 or 8 threads, and
//!   bitwise identical between the serial and parallel code paths,
//! * an **adaptive serial fallback**: kernels below a work threshold (or
//!   when one thread is configured) run inline with zero synchronization,
//! * **one shared buffer**, [`ParSlice`], through which every parallel
//!   region (kernel chunks, batch lanes, SPMD workers) shares mutable
//!   memory under one phase discipline, and **one barrier**,
//!   [`SpinBarrier`], that ends each phase of a multi-phase launch (the
//!   m-step SSOR msolve's color phases, the SPMD solver's vector phases).
//!
//! ## Feature gating
//!
//! With the `par` feature disabled the pool is compiled out entirely and
//! every entry point degenerates to the serial path; results are unchanged
//! because the chunked reduction layout is shared by both paths.
//!
//! ## Thread count
//!
//! The pool holds a fixed set of workers sized at first use. The *effective*
//! thread count defaults to the hardware parallelism, can be pinned with the
//! `MSPCG_THREADS` environment variable, and can be changed at runtime with
//! [`set_max_threads`] (the determinism tests sweep 1, 2, 4, 8 this way).

use crate::tuning;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on reduction partials (and on chunks handed out per kernel
/// launch). Chosen so partial arrays fit on the stack while still giving
/// 16 threads a ≥ 16-way load-balancing margin.
pub const MAX_PARTIALS: usize = 256;

/// Minimum elements per reduction chunk: below this, splitting buys nothing
/// and the partial array would be dominated by loop overhead.
pub const MIN_REDUCTION_CHUNK: usize = 1024;

/// Chunk layout for a deterministic reduction over `n` elements: returns
/// `(chunk_size, num_chunks)` with `num_chunks <= MAX_PARTIALS`. Depends
/// only on `n`, which is what makes the reduction thread-count-insensitive.
#[inline]
pub fn reduction_layout(n: usize) -> (usize, usize) {
    if n == 0 {
        return (1, 0);
    }
    let chunk = n.div_ceil(MAX_PARTIALS).max(MIN_REDUCTION_CHUNK);
    (chunk, n.div_ceil(chunk))
}

/// Chunk layout for **nnz-weighted** sparse row kernels: returns
/// `(chunk_nnz, num_chunks)` so that each chunk covers roughly `chunk_nnz`
/// stored entries rather than a fixed row count. Row-count chunking lets a
/// run of dense-ish rows serialize the pool on irregular FEM matrices; the
/// nnz weighting balances actual work. Depends only on `nnz` (and the
/// constant [`tuning::min_spmv_chunk_nnz`] threshold), never on the
/// thread count, so layouts stay deterministic.
#[inline]
pub fn spmv_layout(nnz: usize) -> (usize, usize) {
    if nnz == 0 {
        return (1, 0);
    }
    let chunk = nnz.div_ceil(MAX_PARTIALS).max(tuning::min_spmv_chunk_nnz());
    (chunk, nnz.div_ceil(chunk))
}

/// Row range owned by nnz-weighted chunk `c` of a CSR matrix with row
/// pointer array `row_ptr` (any prefix sum starting at 0 works: the
/// SELL-C-σ kernel feeds its per-slice sums through here): row `r`
/// belongs to chunk `row_ptr[r] / chunk_nnz` (prefix-sum bucketing), so
/// consecutive chunks hold disjoint, exhaustive, ascending row ranges
/// whose stored-entry counts are within one row of `chunk_nnz`. The final
/// chunk absorbs any trailing empty rows.
#[inline]
pub fn spmv_chunk_rows(row_ptr: &[usize], chunk_nnz: usize, c: usize) -> Range<usize> {
    let n = row_ptr.len() - 1;
    let (_, nchunks) = spmv_layout(row_ptr[n]);
    let starts = &row_ptr[..n];
    let lo = starts.partition_point(|&x| x < c * chunk_nnz);
    let hi = if c + 1 >= nchunks {
        n
    } else {
        starts.partition_point(|&x| x < (c + 1) * chunk_nnz)
    };
    lo..hi
}

/// A shared mutable slice: the one buffer through which a parallel region
/// shares mutable memory (pool kernels, the batch lanes, the SPMD
/// workers).
///
/// Neither the multicolor contract ("each row inside a color block is
/// written by exactly one chunk, reads touch only other blocks") nor the
/// SPMD phases (each worker writes its own rows, then reads every worker's
/// after a barrier) can be expressed with `&mut` splitting, so access goes
/// through raw-pointer accessors whose safety contracts restate the phase
/// discipline:
///
/// * within one phase, every element is written by at most one
///   participant;
/// * an element written in a phase is read in that phase by its writer
///   only;
/// * phases end at a barrier or at the end of the launch, which orders
///   every write of one phase before every read of the next.
///
/// Nothing checks the discipline at run time: the callers' chunk and row
/// ownership upholds it, and the bitwise-replay tests are the evidence.
pub struct ParSlice<'a, T = f64> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` describe a slice borrowed mutably for `'a`, and
// all access to it goes through the `unsafe` accessors below, whose
// contracts require disjoint writes and no read/write overlap within one
// phase; phases are separated by a barrier or the end of a launch. Other
// threads write and drop elements (`T: Send`) and share reads of them
// (`T: Sync`).
unsafe impl<T: Send + Sync> Sync for ParSlice<'_, T> {}
unsafe impl<T: Send> Send for ParSlice<'_, T> {}

impl<'a, T> ParSlice<'a, T> {
    /// Wrap a mutable slice for the duration of one parallel region.
    pub fn new(data: &'a mut [T]) -> Self {
        ParSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared view of `range`.
    ///
    /// # Safety
    /// `range` must lie in `0..len()` (checked only by a `debug_assert!`),
    /// and no participant may write any of its elements in this phase.
    #[inline]
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: in bounds and no concurrent writer, by the forwarded
        // contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }

    /// Exclusive view of `range`, for its one writer.
    ///
    /// # Safety
    /// `range` must lie in `0..len()` (checked only by a `debug_assert!`),
    /// be disjoint from every other participant's write range, and not be
    /// read by another participant in this phase.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: disjointness by the forwarded contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

impl<T: Copy> ParSlice<'_, T> {
    /// Read element `i`.
    ///
    /// # Safety
    /// `i < len()` (checked only by a `debug_assert!`), and no other
    /// participant may write index `i` in this phase.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        // SAFETY: in bounds and no concurrent writer, by the forwarded
        // contract.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i < len()` (checked only by a `debug_assert!`), and index `i` must
    /// be written by at most one participant in this phase, and read by
    /// no other.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        // SAFETY: as above.
        unsafe { *self.ptr.add(i) = v }
    }
}

/// A sense-reversing spin barrier for the participants of one launch,
/// which must all run at once (at most [`launch_capacity`] of them).
///
/// It ends each phase of the m-step SSOR msolve (`m·(2C−1)` color phases,
/// `C` colors, `m` steps) on either executor and of the SPMD solver's
/// vector phases. `std::sync::Barrier` parks through the OS on every wait,
/// microseconds each; this generation-counter spin costs ~100 ns when the
/// participants arrive together (each owns an equal chunk of every
/// color), and yields to the scheduler every 64 polls under
/// oversubscription. A barrier of one returns at once.
///
/// Memory ordering: each participant's writes precede its release
/// `fetch_add` of the counter, which the last arriver acquires before its
/// release bump of the generation, which the spinners acquire.
///
/// It **counts its crossings** ([`SpinBarrier::crossings`]), one per
/// generation, so the SPMD solver reports its synchronization cost as a
/// measured number (a relaxed add by the last arriver, none in the spin).
pub struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    crossings: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    /// Barrier for `n` participants.
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

    /// The participants that cross it.
    pub fn participants(&self) -> usize {
        self.total
    }

    /// Completed barrier crossings (generations) since construction. One
    /// crossing = one synchronization of all participants — the unit the
    /// `m·(2C−1) + k` per-iteration cost model counts.
    pub fn crossings(&self) -> usize {
        self.crossings.load(Ordering::Relaxed)
    }

    /// Block (spinning) until all participants have called `wait`.
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

/// Parse an `MSPCG_THREADS` value: `Some(n)` for a positive integer,
/// `None` for anything else (`0`, empty, non-numeric, overflow). A budget
/// of zero threads is meaningless — it would describe an empty pool — so
/// it is invalid rather than silently promoted. Follows the
/// [`tuning::parse_positive`] rules.
pub fn parse_thread_budget(raw: &str) -> Option<usize> {
    tuning::parse_positive(raw)
}

/// Effective thread count for a kernel touching `work` scalar items: 1 when
/// parallelism is disabled, unconfigured, or the kernel is too small to
/// amortize a pool launch.
#[inline]
pub fn threads_for(work: usize, min_work: usize) -> usize {
    let t = max_threads();
    if t <= 1 || work < min_work {
        1
    } else {
        t
    }
}

/// Run `body(chunk_index)` for every chunk in `0..nchunks`, distributing
/// whole chunks across `threads` participants (the calling thread plus
/// pool workers, at most [`pool_capacity`] and at most `nchunks`). With
/// `threads <= 1` or a single chunk the loop runs inline. Participant `p`
/// of `T` runs chunks `p·N/T .. (p+1)·N/T` in ascending order — the
/// calling thread is participant 0 — so a launch with the same chunk
/// count and participants puts every chunk on the same thread as the
/// previous one. Results must still depend only on chunk boundaries,
/// which the layout functions fix; ownership is a cache-locality
/// property, not part of the determinism contract.
///
/// All `T ≤ pool_capacity()` participants of a launch run at once, each
/// on its own thread, so participants may wait for one another (the SPMD
/// workers cross barriers); [`launch_capacity`] is that count for a
/// launch from the calling thread. A launch holds the pool for its whole
/// body: launches from other threads wait for it, and launches from
/// inside the body run inline. A panic in the body reaches the caller
/// once every participant has finished: as raised when the calling
/// thread's share panicked, as the pool's own panic when only a worker's
/// did.
pub fn for_each_chunk(nchunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    if threads <= 1 || nchunks <= 1 {
        for c in 0..nchunks {
            body(c);
        }
        return;
    }
    imp::run_chunked(nchunks, threads, body);
}

pub use imp::{launch_capacity, max_threads, pool_capacity, serialized, set_max_threads};

#[cfg(feature = "par")]
mod imp {
    //! The persistent worker pool (compiled only with the `par` feature).
    //!
    //! A launch writes its job into one slot and publishes it with a single
    //! release store of a packed word: the launch epoch above
    //! `LIMIT_BITS`, the participant count below. A worker acquires the
    //! word, so the epoch and the participant count it acts on always
    //! belong to the same launch, and only a worker whose index is below
    //! that count reads the slot. The launcher then unparks exactly the
    //! participating workers, runs participant 0's share itself, and waits
    //! until `active` — the participating workers still running — drains
    //! to zero; only after that may the slot be written again.
    //!
    //! Waiting (a worker for the next launch, the launcher for its
    //! workers) polls for `SPIN_POLLS` rounds before parking, but only
    //! when the launch's participants fit in the hardware threads: an
    //! oversubscribed launch parks at once, so a spinning thread never
    //! holds the core a participant needs.

    use std::cell::{Cell, UnsafeCell};
    use std::ops::Range;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::thread::{self, Thread};

    /// Low bits of the published word that hold the participant count;
    /// the launch epoch sits above them. The pool has at most 16 slots.
    const LIMIT_BITS: u32 = 8;

    /// Polls a waiting thread makes before it parks, when the launch fits
    /// the hardware threads: ≈ 0.34 ms on a 2-vCPU Xeon VM, far longer
    /// than the serial gap between two kernels of one solve and far
    /// shorter than a solve.
    const SPIN_POLLS: u32 = 1 << 14;

    /// The current launch's job.
    struct Job {
        /// Chunk body; `None` before the first launch. Its lifetime is
        /// erased: the launcher does not return before `active` drains.
        body: Option<*const (dyn Fn(usize) + Sync + 'static)>,
        nchunks: usize,
        /// The launching thread, which the last worker to finish unparks.
        caller: Option<Thread>,
    }

    struct Shared {
        /// `epoch << LIMIT_BITS | participants` of the latest launch.
        word: AtomicU64,
        /// Participating workers that have not finished the current launch.
        active: AtomicUsize,
        panicked: AtomicBool,
        /// Written only by a launcher holding `Pool::run_lock`, before it
        /// publishes `word`; read only by that launch's participating
        /// workers, before they decrement `active`.
        job: UnsafeCell<Job>,
        /// Hardware threads (`hardware_threads`).
        hardware: usize,
    }

    // SAFETY: `word`, `active` and `panicked` are atomics. `job` is written
    // by one launcher at a time (the run lock) and only while no worker
    // reads it: the release store of `word` orders the write before the
    // participants' acquire loads, and each participant's last read comes
    // before its release decrement of `active`, which the launcher
    // acquires before the next write. The body pointer targets a `Sync`
    // closure, `Thread` is `Sync`, and `hardware` never changes.
    unsafe impl Sync for Shared {}

    struct Pool {
        shared: &'static Shared,
        /// Worker `w` is participant `w`; it sits at `workers[w - 1]`.
        workers: Vec<Thread>,
        /// Serializes launches from different calling threads.
        run_lock: Mutex<()>,
    }

    /// Hardware threads, read once: `available_parallelism` reads cgroup
    /// files on every call (≈ 22 µs on a 2-vCPU VM), and every msolve asks
    /// for `launch_capacity`.
    fn hardware_threads() -> usize {
        static HARDWARE: OnceLock<usize> = OnceLock::new();
        *HARDWARE.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()))
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let shared: &'static Shared = Box::leak(Box::new(Shared {
                word: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
                job: UnsafeCell::new(Job {
                    body: None,
                    nchunks: 0,
                    caller: None,
                }),
                hardware: hardware_threads(),
            }));
            let workers = (1..pool_capacity())
                .map(|w| {
                    thread::Builder::new()
                        .name(format!("mspcg-par-{w}"))
                        .spawn(move || worker_loop(shared, w))
                        .expect("failed to spawn pool worker")
                        .thread()
                        .clone()
                })
                .collect();
            Pool {
                shared,
                workers,
                run_lock: Mutex::new(()),
            }
        })
    }

    /// The chunks participant `p` of `participants` runs: the same
    /// contiguous range on every launch with the same chunk count.
    fn owned(p: usize, participants: usize, nchunks: usize) -> Range<usize> {
        p * nchunks / participants..(p + 1) * nchunks / participants
    }

    /// Poll `ready` until it yields, spinning first when `spin` and then
    /// parking between polls. Whoever makes `ready` succeed unparks this
    /// thread after doing so, so no wake-up is lost.
    fn wait_for<T>(spin: bool, mut ready: impl FnMut() -> Option<T>) -> T {
        for _ in 0..if spin { SPIN_POLLS } else { 0 } {
            if let Some(v) = ready() {
                return v;
            }
            std::hint::spin_loop();
        }
        loop {
            if let Some(v) = ready() {
                return v;
            }
            thread::park();
        }
    }

    fn worker_loop(shared: &'static Shared, index: usize) {
        // Kernels launched from a job body run inline on the worker.
        IN_JOB.with(|c| c.set(true));
        let mut seen = 0u64;
        let mut spin = false;
        let mut caller: Option<Thread> = None;
        loop {
            let word = wait_for(spin, || {
                let w = shared.word.load(Ordering::Acquire);
                (w >> LIMIT_BITS != seen).then_some(w)
            });
            seen = word >> LIMIT_BITS;
            let participants = (word & ((1 << LIMIT_BITS) - 1)) as usize;
            spin = index < participants && participants <= shared.hardware;
            if index >= participants {
                continue;
            }
            let (body, nchunks) = {
                // SAFETY: the acquire load of `word` ordered the
                // launcher's write of this launch's job before this read,
                // and the launcher writes the slot again only after
                // `active` drains, which waits for this worker's
                // decrement below.
                let job = unsafe { &*shared.job.get() };
                let new_caller = job.caller.as_ref().map(Thread::id);
                if caller.as_ref().map(Thread::id) != new_caller {
                    caller.clone_from(&job.caller);
                }
                (
                    job.body.expect("a published launch has a body"),
                    job.nchunks,
                )
            };
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                for c in owned(index, participants, nchunks) {
                    // SAFETY: the launcher keeps the closure alive until
                    // `active` drains, which waits for the decrement below.
                    unsafe { (*body)(c) }
                }
            }));
            if result.is_err() {
                shared.panicked.store(true, Ordering::Relaxed);
            }
            // Release: publishes this worker's writes (and `panicked`) to
            // the launcher's acquire load of `active`.
            if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(caller) = &caller {
                    caller.unpark();
                }
            }
        }
    }

    thread_local! {
        /// Set while this thread executes inside a pool job — nested kernel
        /// launches then run inline instead of deadlocking on the run lock.
        static IN_JOB: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn run_chunked(nchunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
        if IN_JOB.with(Cell::get) {
            for c in 0..nchunks {
                body(c);
            }
            return;
        }
        let pool = pool();
        let participants = threads.min(nchunks).min(pool.workers.len() + 1);
        let shared = pool.shared;
        let _serial = pool.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: lifetime erasure is sound because this function does not
        // return until `active` drains, i.e. until no worker can touch
        // `body`.
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(body as *const (dyn Fn(usize) + Sync))
        };
        {
            // SAFETY: the run lock makes this the only launcher, and the
            // previous launch returned only after acquiring every
            // participant's decrement of `active`, which each makes after
            // its last read of the slot; other workers never read it.
            let job = unsafe { &mut *shared.job.get() };
            job.body = Some(erased);
            job.nchunks = nchunks;
            job.caller = Some(thread::current());
        }
        shared.active.store(participants - 1, Ordering::Relaxed);
        let epoch = (shared.word.load(Ordering::Relaxed) >> LIMIT_BITS) + 1;
        // Release: publishes the job and `active` with the word.
        shared
            .word
            .store(epoch << LIMIT_BITS | participants as u64, Ordering::Release);
        for worker in &pool.workers[..participants - 1] {
            worker.unpark();
        }
        IN_JOB.with(|c| c.set(true));
        let main_result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for c in owned(0, participants, nchunks) {
                body(c);
            }
        }));
        IN_JOB.with(|c| c.set(false));
        wait_for(participants <= shared.hardware, || {
            (shared.active.load(Ordering::Acquire) == 0).then_some(())
        });
        // Consume the worker-panic flag *before* resuming a main-thread
        // panic, so a caught main panic cannot leave it set to poison the
        // next unrelated kernel launch. The acquire load of `active` that
        // ended the wait ordered every worker's store of the flag.
        let worker_panicked = shared.panicked.swap(false, Ordering::Relaxed);
        if let Err(p) = main_result {
            std::panic::resume_unwind(p);
        }
        if worker_panicked {
            panic!("mspcg-par: a pool worker panicked inside a parallel kernel");
        }
    }

    fn default_threads() -> usize {
        // An empty value (`MSPCG_THREADS= cargo test`) counts as unset.
        if let Ok(v) = std::env::var("MSPCG_THREADS").map(|v| v.trim().to_owned()) {
            if !v.is_empty() {
                // Invalid values (`0`, non-numeric) used to be accepted
                // silently — `0` clamped up, garbage fell through to the
                // hardware default, both masking a misconfiguration. Fail
                // loudly in debug builds and pin the budget to a single
                // thread otherwise, which is the conservative reading of
                // "the user asked for almost no parallelism".
                return match super::parse_thread_budget(&v) {
                    Some(n) => n.min(pool_capacity()),
                    None => {
                        debug_assert!(false, "MSPCG_THREADS must be a positive integer, got {v:?}");
                        1
                    }
                };
            }
        }
        hardware_threads().min(pool_capacity())
    }

    fn threads_cell() -> &'static AtomicUsize {
        static THREADS: OnceLock<AtomicUsize> = OnceLock::new();
        THREADS.get_or_init(|| AtomicUsize::new(default_threads()))
    }

    /// Total execution slots (workers + the calling thread), at least 8
    /// so the determinism tests exercise real multi-thread schedules even
    /// on small CI boxes. Pure: consulting it does not spawn the pool, so
    /// serial-only processes (small kernels, `MSPCG_THREADS=1`) never spawn
    /// idle workers; workers start at the first parallel launch.
    pub fn pool_capacity() -> usize {
        hardware_threads().clamp(8, 16)
    }

    /// Participants a launch from the calling thread runs at once:
    /// [`pool_capacity`], but 1 inside a pool job or [`serialized`], where
    /// a launch runs its chunks inline, one after another.
    pub fn launch_capacity() -> usize {
        if IN_JOB.with(Cell::get) {
            1
        } else {
            pool_capacity()
        }
    }

    /// Effective thread budget for parallel kernels.
    pub fn max_threads() -> usize {
        threads_cell().load(Ordering::Relaxed)
    }

    /// Set the thread budget (clamped to `1..=pool_capacity()`). Intended
    /// for experiments and the determinism test sweep; kernels pick it up
    /// on their next launch.
    pub fn set_max_threads(n: usize) {
        threads_cell().store(n.clamp(1, pool_capacity()), Ordering::Relaxed);
    }

    /// Run `f` with pool launches from this thread forced inline: any
    /// kernel `f` calls executes serially on the calling thread, as it
    /// does inside a pool job. For code that must stay on one thread (e.g.
    /// a one-worker SPMD solve) while it calls the shared kernels.
    pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                IN_JOB.with(|c| c.set(self.0));
            }
        }
        let _guard = Restore(IN_JOB.with(|c| c.replace(true)));
        f()
    }
}

#[cfg(not(feature = "par"))]
mod imp {
    //! Serial stand-ins when the `par` feature is disabled.

    pub(super) fn run_chunked(nchunks: usize, _threads: usize, body: &(dyn Fn(usize) + Sync)) {
        for c in 0..nchunks {
            body(c);
        }
    }

    /// Always 1 without the `par` feature.
    pub fn pool_capacity() -> usize {
        1
    }

    /// Always 1 without the `par` feature.
    pub fn launch_capacity() -> usize {
        1
    }

    /// Always 1 without the `par` feature.
    pub fn max_threads() -> usize {
        1
    }

    /// No-op without the `par` feature.
    pub fn set_max_threads(_n: usize) {}

    /// Without the `par` feature every kernel is already serial.
    pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Serializes tests that sweep the global thread budget, so concurrent
/// test threads cannot interleave `set_max_threads` calls with assertions
/// on `max_threads()` itself.
#[cfg(test)]
pub(crate) fn thread_sweep_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn reduction_layout_is_size_only() {
        let (c0, n0) = reduction_layout(0);
        assert_eq!((c0, n0), (1, 0));
        let (c, k) = reduction_layout(10);
        assert_eq!((c, k), (MIN_REDUCTION_CHUNK, 1));
        let (c, k) = reduction_layout(1 << 20);
        assert!(k <= MAX_PARTIALS);
        assert!(c * k >= 1 << 20);
        assert!(c * (k - 1) < 1 << 20);
    }

    #[test]
    fn spmv_layout_is_size_only() {
        assert_eq!(spmv_layout(0), (1, 0));
        let (c, k) = spmv_layout(100);
        assert_eq!((c, k), (tuning::min_spmv_chunk_nnz(), 1));
        let (c, k) = spmv_layout(1 << 22);
        assert!(k <= MAX_PARTIALS);
        assert!(c * k >= 1 << 22);
        assert!(c * (k - 1) < 1 << 22);
    }

    #[test]
    fn spmv_chunk_rows_partition_by_nnz_not_row_count() {
        // 6 rows: one dense-ish row up front, then sparse rows. Row-count
        // chunking would pair the dense row with half the sparse ones;
        // nnz weighting must isolate it.
        let row_ptr = vec![0usize, 1000, 1002, 1004, 1006, 1008, 1010];
        let chunk = 512usize;
        let nchunks = 1010usize.div_ceil(chunk);
        let mut covered = Vec::new();
        let mut prev_end = 0usize;
        for c in 0..nchunks {
            let r = spmv_chunk_rows(&row_ptr, chunk, c);
            assert_eq!(r.start, prev_end, "chunks must be contiguous");
            prev_end = r.end;
            covered.extend(r);
        }
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
        // The dense row sits alone in its first chunk(s): chunk 0 covers
        // only row 0 (its 1000 entries span targets 0 and 512).
        assert_eq!(spmv_chunk_rows(&row_ptr, chunk, 0), 0..1);
    }

    #[test]
    fn spmv_chunk_rows_absorb_trailing_empty_rows() {
        // Trailing empty rows (row_ptr pinned at nnz) must land in the
        // last chunk, not be dropped.
        let row_ptr = vec![0usize, 600, 1200, 1200, 1200];
        let (chunk, nchunks) = spmv_layout(1200);
        let mut covered = Vec::new();
        for c in 0..nchunks {
            covered.extend(spmv_chunk_rows(&row_ptr, chunk, c));
        }
        assert_eq!(covered, (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn thread_budget_parsing_rejects_invalid() {
        assert_eq!(parse_thread_budget("4"), Some(4));
        assert_eq!(parse_thread_budget(" 2 "), Some(2));
        assert_eq!(parse_thread_budget(" 512 "), Some(512));
        assert_eq!(parse_thread_budget("0"), None);
        assert_eq!(parse_thread_budget(""), None);
        assert_eq!(parse_thread_budget("abc"), None);
        assert_eq!(parse_thread_budget("-3"), None);
        assert_eq!(parse_thread_budget("2.5"), None);
    }

    #[test]
    fn for_each_chunk_visits_every_chunk_once() {
        for threads in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            for_each_chunk(hits.len(), threads, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_slice_disjoint_writes() {
        let mut data = vec![0.0f64; 64];
        {
            let ps = ParSlice::new(&mut data);
            for_each_chunk(8, max_threads().max(2), &|c| {
                let range = c * 8..(c + 1) * 8;
                let chunk = unsafe { ps.slice_mut(range.clone()) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (range.start + k) as f64;
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn par_slice_round_trip() {
        let mut data = vec![0.0f64; 4];
        let ps = ParSlice::new(&mut data);
        // SAFETY: one thread, in bounds, and no view outlives its use.
        unsafe {
            ps.slice_mut(1..3).copy_from_slice(&[5.0, 6.0]);
            assert_eq!(ps.slice(0..4), &[0.0, 5.0, 6.0, 0.0]);
            ps.set(0, -1.0);
            assert_eq!(ps.get(0), -1.0);
        }
        assert_eq!(data, [-1.0, 5.0, 6.0, 0.0]);
        // Any element type goes through the slice views.
        let mut names = vec![String::new(); 2];
        let ps = ParSlice::new(&mut names);
        // SAFETY: as above.
        unsafe { ps.slice_mut(1..2)[0].push('b') };
        assert_eq!(unsafe { ps.slice(0..2) }, ["", "b"]);
    }

    /// Every participant of a `T`-chunk, `T`-thread launch writes its
    /// range, waits until all `T` have arrived, then reads every range: a
    /// barrier across the launch. A launch that ran its participants one
    /// after another would leave the first waiting alone, so the wait has
    /// a deadline and fails instead of hanging.
    #[test]
    fn launch_participants_run_at_once() {
        use std::time::{Duration, Instant};
        #[cfg(feature = "par")]
        let counts = vec![1, 2, 4, pool_capacity()];
        #[cfg(not(feature = "par"))]
        let counts = vec![1];
        for t in counts {
            let mut data = vec![0.0f64; 3 * t];
            let arrived = AtomicUsize::new(0);
            let ps = ParSlice::new(&mut data);
            for_each_chunk(t, t, &|p| {
                // SAFETY: participant `p` alone writes this range, and
                // nobody reads it before the arrival count is complete.
                for (k, v) in unsafe { ps.slice_mut(3 * p..3 * p + 3) }
                    .iter_mut()
                    .enumerate()
                {
                    *v = (3 * p + k) as f64;
                }
                arrived.fetch_add(1, Ordering::Release);
                let deadline = Instant::now() + Duration::from_secs(10);
                while arrived.load(Ordering::Acquire) < t {
                    assert!(
                        Instant::now() < deadline,
                        "{t} participants: not all ran at once"
                    );
                    std::thread::yield_now();
                }
                // SAFETY: every participant wrote its range before its
                // release increment, which the acquire load above saw;
                // nobody writes `data` again in this launch.
                let all = unsafe { ps.slice(0..3 * t) };
                assert!(all.iter().enumerate().all(|(i, v)| *v == i as f64));
            });
        }
    }

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
        use std::sync::atomic::AtomicU64;
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
    fn threads_for_respects_threshold() {
        assert_eq!(threads_for(10, 1000), 1);
        let t = threads_for(1_000_000, 1000);
        assert!(t >= 1);
        assert_eq!(t, max_threads());
    }

    #[cfg(feature = "par")]
    #[test]
    fn set_max_threads_round_trips() {
        let _guard = thread_sweep_lock();
        let before = max_threads();
        set_max_threads(2);
        assert_eq!(max_threads(), 2);
        set_max_threads(10_000);
        assert_eq!(max_threads(), pool_capacity());
        set_max_threads(before.max(1));
    }

    /// Thread that ran each chunk of one `for_each_chunk` launch.
    #[cfg(feature = "par")]
    fn chunk_owners(nchunks: usize, threads: usize) -> Vec<std::thread::ThreadId> {
        let owners: Vec<std::sync::OnceLock<std::thread::ThreadId>> =
            (0..nchunks).map(|_| std::sync::OnceLock::new()).collect();
        for_each_chunk(nchunks, threads, &|c| {
            owners[c]
                .set(std::thread::current().id())
                .expect("chunk ran twice");
        });
        owners
            .into_iter()
            .map(|o| o.into_inner().expect("chunk skipped"))
            .collect()
    }

    #[cfg(feature = "par")]
    #[test]
    fn each_participant_owns_one_fixed_contiguous_range() {
        let caller = std::thread::current().id();
        for threads in [2usize, 3, 4, 8] {
            for nchunks in [1usize, 2, 7, 97, 256] {
                let first = chunk_owners(nchunks, threads);
                let second = chunk_owners(nchunks, threads);
                let case = format!("{threads} threads, {nchunks} chunks");
                assert_eq!(first, second, "{case}: chunk ownership moved");
                assert_eq!(first[0], caller, "{case}: the caller is participant 0");
                // One contiguous range per participant: a thread whose run
                // of chunks has ended never appears again.
                let mut ended = Vec::new();
                for pair in first.windows(2) {
                    if pair[0] != pair[1] {
                        ended.push(pair[0]);
                        assert!(!ended.contains(&pair[1]), "{case}: split range");
                    }
                }
                assert_eq!(
                    ended.len() + 1,
                    threads.min(nchunks),
                    "{case}: participants"
                );
            }
        }
    }

    #[cfg(feature = "par")]
    #[test]
    fn concurrent_callers_run_every_chunk_once_per_launch() {
        // Participant counts cycle so that consecutive launches publish
        // different epoch/limit pairs, including inline (1) and
        // oversubscribed (8 on a small machine) ones.
        const COUNTS: [usize; 5] = [8, 2, 5, 1, 3];
        const NCHUNKS: usize = 13;
        std::thread::scope(|s| {
            for caller in 0..2 {
                s.spawn(move || {
                    let hits: Vec<AtomicUsize> =
                        (0..NCHUNKS).map(|_| AtomicUsize::new(0)).collect();
                    for launch in 0..2_500 {
                        let threads = COUNTS[(launch + caller) % COUNTS.len()];
                        for_each_chunk(NCHUNKS, threads, &|c| {
                            hits[c].fetch_add(1, Ordering::Relaxed);
                        });
                        for (c, h) in hits.iter().enumerate() {
                            assert_eq!(
                                h.swap(0, Ordering::Relaxed),
                                1,
                                "caller {caller}, launch {launch}, {threads} threads, chunk {c}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[cfg(feature = "par")]
    #[test]
    fn worker_panic_reaches_the_caller_and_leaves_the_pool_usable() {
        for threads in [2usize, 8] {
            let nchunks = 8;
            // The last chunk belongs to the last participant, a pool worker.
            let launch = std::panic::catch_unwind(|| {
                for_each_chunk(nchunks, threads, &|c| {
                    if c == nchunks - 1 {
                        panic!("chunk {c} fails");
                    }
                });
            });
            let payload = launch.expect_err("the worker's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("mspcg-par: a pool worker panicked inside a parallel kernel"),
                "{threads} threads"
            );
            // The next launch neither hangs on the panicked worker nor
            // inherits its panic, and runs every chunk once.
            let hits: Vec<AtomicUsize> = (0..nchunks).map(|_| AtomicUsize::new(0)).collect();
            for_each_chunk(nchunks, threads, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[cfg(feature = "par")]
    #[test]
    fn nested_launch_runs_inline() {
        // A kernel body that itself launches a kernel must not deadlock.
        let outer = AtomicUsize::new(0);
        for_each_chunk(4, 4, &|_| {
            for_each_chunk(4, 4, &|_| {
                outer.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 16);
    }
}
