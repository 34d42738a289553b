//! # mspcg — m-step preconditioned conjugate gradient for parallel computation
//!
//! Facade crate for the reproduction of **L. Adams, “An M-Step
//! Preconditioned Conjugate Gradient Method for Parallel Computation”,
//! ICPP 1983 / NASA CR-172150**. It re-exports the workspace crates so an
//! application needs a single dependency:
//!
//! * [`sparse`] — sparse/dense linear algebra substrate,
//! * [`coloring`] — multicolor orderings (Adams–Ortega),
//! * [`fem`] — plane-stress finite-element model problems,
//! * [`core`] — PCG, splittings and the m-step parametrized preconditioners,
//! * [`machine`] — CYBER 203/205 and Finite Element Machine clock models
//!   that price a finished solve's iteration and step counts,
//! * [`parallel`] — real threaded executor for the multicolor method.
//!
//! ## Quickstart
//!
//! ```
//! use mspcg::fem::plate::PlaneStressProblem;
//! use mspcg::core::mstep::MStepSsorPreconditioner;
//! use mspcg::core::pcg::{pcg_solve, PcgOptions};
//!
//! // The paper's test problem: a unit-square plate, clamped on the left
//! // edge, loaded on the right, discretized with linear triangles.
//! let problem = PlaneStressProblem::unit_square(8).assemble().unwrap();
//! let ordered = problem.multicolor().unwrap();
//!
//! // 3-step parametrized SSOR preconditioner (least-squares coefficients).
//! let pre = MStepSsorPreconditioner::parametrized(&ordered.matrix, &ordered.colors, 3).unwrap();
//! let sol = pcg_solve(&ordered.matrix, &ordered.rhs, &pre, &PcgOptions::default()).unwrap();
//! assert!(sol.converged);
//! ```
//!
//! ## Performance
//!
//! The solver stack runs on a shared **data-parallel kernel layer** in
//! `mspcg-sparse` (the `par` feature, on by default): CSR SpMV and the
//! BLAS-1 reductions are row/chunk parallel, and the per-color row loops
//! of the multicolor SSOR sweeps — the loops the paper identifies as
//! embarrassingly parallel — run on a persistent `std::thread` worker
//! pool. Like the paper's fixed node-to-processor assignment (§3.2),
//! each pool thread runs the same chunks of every kernel on every
//! launch, so it keeps its share of the matrix in its own cache across a
//! solve; a launch costs ≈ 1 µs at 2 threads (one atomic publish, workers
//! that spin briefly before parking). The contracts:
//!
//! * **Determinism** — chunk boundaries depend only on problem size and
//!   reductions combine per-chunk partials in a fixed order, so results
//!   are bitwise identical across thread counts and between the serial
//!   and parallel paths (`tests/par_determinism.rs` asserts this for a
//!   full PCG solve). Thread budget: hardware default, `MSPCG_THREADS`
//!   env var (positive integers only — `0`/garbage pins the budget to one
//!   thread, with a debug assertion), or
//!   `mspcg::sparse::par::set_max_threads`. It is the one process-wide
//!   setting: it sizes the pool kernels and the SPMD executor's
//!   `threads: 0` default alike. Everything else a solve uses arrives as
//!   a value — `PcgOptions`, `ParallelSolverOptions`, `PrecondKind`,
//!   `RecoveryPolicy`, or the operator type the caller builds.
//! * **One checked-once CSR row kernel** — every CSR product a solve
//!   runs goes through one gather in `mspcg_sparse::csr`: the SpMV range
//!   kernels behind the pool SpMV, the batch blocks, the polynomial
//!   msolve and the SPMD strip products. (The SSOR half-sums of both
//!   executors run in the color-phase sweep kernel, below, on the same
//!   column bound.) The gather checks `x.len() == cols()` once per call, then walks a row's
//!   `col_idx`/`values` slices in lockstep and reads `x[col]` with no
//!   per-entry bounds check. What backs that unchecked read is the
//!   column-bound invariant `CsrMatrix::from_raw_parts` enforces: the
//!   structure is immutable after construction, a `debug_assert!`
//!   re-checks each column (CI runs the release tests with debug
//!   assertions on), and an operator whose `visit_row` yields a bad
//!   column is refused by `SparseOp::try_csr_copy` before a table is
//!   built on it. Rows are still summed in ascending column order, so
//!   every product is bitwise that of the checked loop. The three
//!   per-entry checks, not memory bandwidth, were what held the kernels
//!   back: on a 2-vCPU VM the Table-3 plate's SpMV (a = 100) runs in
//!   ≈ 187 µs instead of ≈ 238 µs on one thread, and the degree-4
//!   Chebyshev `plate-auto` benchmark solves ≈ 27 % faster.
//! * **Fused iteration kernels** — the CG hot loop computes `u += αp`,
//!   `r −= α·Kp` and the `‖p‖∞`/`‖r‖∞` stopping-test partials in **one
//!   pass** per iteration (`vecops::fused_axpy_axpy_norm`; the relative
//!   residual reuses its `‖r‖∞` in `vecops::norm2_with_max`), bitwise
//!   identical to the unfused sweeps (`tests/algorithm1_oracle.rs` replays
//!   Algorithm 1 on them). The SPMD `ParallelMStepPcg` fuses every
//!   reduction into the phase producing its operands and replicates the
//!   scalar reductions across workers: `m·(2C−1) + 3` barriers per
//!   iteration (C colors, m steps), down from `m·(2C−1) + 9`. Both
//!   executors run one loop, `core::multi::lockstep`, written against the
//!   `core::multi::Executor` trait, whose methods are the loop's vector
//!   phases: the pool path's lane block and each SPMD worker implement
//!   them, and the loop branches only on the replicated scalars they
//!   return.
//! * **One recurrence** — every executor runs Algorithm 1, whose two
//!   inner products per iteration are serialized: `(p, Kp)` before α,
//!   `(r̂, r)` before β. Per-iteration cost model:
//!
//!   | configuration | reduction phases | SPMD barriers |
//!   |---|---|---|
//!   | m-step SSOR, `C` colors | 2 | `m·(2C−1) + 3` |
//!   | plain CG (`m = 0`) | 2 | 4 |
//!   | polynomial degree `k` (pool path only) | 2 | — |
//!
//!   Both counts are *measured*, not asserted: `PcgStats` carries
//!   `reduction_phases`, and the SPMD report carries `barrier_crossings` /
//!   `reduction_phases` from the instrumented barrier; counter tests pin
//!   the formulas. A clean SPMD solve that converges at iteration `I`
//!   crosses `S + (I − 1)(S + 3) + 3` barriers, `S` being the msolve's
//!   share of the table (`m·(2C−1)`, or 1 for plain CG's copy): its
//!   initial msolve, `I − 1` full iterations, and the last iteration's
//!   SpMV, update and the `‖r‖₂` its report carries; each audit adds one. A Chronopoulos–Gear single-reduction recurrence (one
//!   reduction phase, one barrier fewer per iteration) used to be the
//!   alternative. On shared memory a reduction is one spin barrier, so
//!   the saved barrier bought little: on a 2-vCPU VM the 25 barriers of
//!   an m = 2 SPMD iteration on the Table-3 plate cost 0.6 % of solve
//!   time, and the variant's median solve time ran between 0.92× and
//!   1.11× classic's on the plates a = 24, 40 and 100, on both executors.
//! * **Polynomial (Newton–Chebyshev) preconditioning, pool path only** —
//!   `mspcg::core::poly::PolynomialPreconditioner` evaluates
//!   `z = p(G)·D⁻¹r`, `G = D⁻¹K`, as a degree-`k` chain of SpMVs, each
//!   followed by one fused pass over the rows: zero color sweeps,
//!   allocation-free after setup (`scratch_len`/`apply_with`), generic
//!   over `SparseOp`, and bitwise identical across thread counts and
//!   storage formats. The coefficient schedule (Chebyshev min-max on the
//!   estimated interval, or Newton/scaled-Richardson) is built once from
//!   a Lanczos estimate of the Jacobi-scaled spectrum
//!   (`poly::jacobi_spectrum`, cached on the preconditioner for reuse at
//!   other degrees). The SPMD executor does not run it. Its `k + 3`
//!   barriers per iteration undercut the sweeps' `m·(2C−1) + 3`, but on a
//!   2-vCPU VM, at ‖Δu‖∞ < 1e-8 on plates a = 24, 40, 100 and Poisson
//!   n = 64, 150 at 1 and 2 workers, the fastest Chebyshev (k = 1–8) or
//!   Newton (k = 1–4) solve took 1.04–1.63× as long as α = 1 SSOR at its
//!   best `m` and 1.12–1.94× as long as `Auto` (medians over four runs of
//!   seven rotated rounds). It is the one polynomial
//!   in the Jacobi splitting: the m-step Jacobi family (truncated Neumann,
//!   least-squares) spanned the same space in Horner form and is gone —
//!   min-max m-step Jacobi at m = 4 took exactly the iterations of
//!   Chebyshev degree 3 for one more SpMV per application, and Neumann
//!   m = 2 is indefinite on the plates.
//! * **`Auto` is the paper's parametrized m-step SSOR** — selection is
//!   `PrecondKind::{Auto, MStepSsor, Poly}` on the pool path
//!   (`core::poly::auto_preconditioner`). `Auto` is one rule,
//!   `core::poly::auto_ssor`, which `auto_preconditioner` and the SPMD
//!   `ParallelMStepPcg::auto` both call. It fits
//!   min-max coefficients (§2.2) on the SSOR interval `[1 − ρ, 1]` from one
//!   60-step power iteration, then steps `m` up from the caller's default,
//!   to at most 8, while inequality (4.2) predicts a gain: iteration counts
//!   from the fitted polynomial's κ bound, `B/A` from the bytes an outer
//!   iteration and an SSOR step stream (`analysis::CostModel::from_traffic`,
//!   ≈ 0.81 on the Table-3 plate). No timer is read, so the choice is
//!   deterministic and both executors fit bitwise the same coefficients.
//!   A kept interval fits another `m` without estimating again
//!   (`MStepSsorPreconditioner::with_interval`), and every fit runs the
//!   one SPD check. An empty operator, a failed
//!   estimate (a diagonal `K`; a lower end on its clamp, which is
//!   `NotPositiveDefinite { pivot: 0, .. }` on both families) or a fit
//!   failing the SPD check keeps α = 1 at the default `m`. Barrier counts do not
//!   decide it: on a 2-vCPU VM the Table-3 plate's 25 SPMD barriers per
//!   iteration cost under 1 % of solve time, one Chebyshev degree costs
//!   ≈ 165 µs against ≈ 300 µs for one SSOR step at a = 100 and 2
//!   threads, and still the former degree-4 Chebyshev pick lost to
//!   min-max SSOR at every `m` from 2 to 10 on the a = 24, 40 and 100
//!   plates. On the a = 100 plate `Auto` picks m = 5 and the pool path
//!   needs 94 iterations instead of Chebyshev's 249 (relative residual
//!   1e-8).
//! * **Operator abstraction + SELL-C-σ** — every solver entry point
//!   (`pcg_solve_into`, `pcg_solve_multi`, the SPMD `ParallelMStepPcg`,
//!   the splitting/preconditioner constructors) is generic over
//!   `mspcg::sparse::SparseOp`, so the storage format is a pure
//!   performance decision: CSR by default, SELL-C-σ
//!   (`mspcg::sparse::SellCsMatrix`, sliced ELL with slice height C and
//!   sort window σ) for wide/irregular rows — ~1.3–1.6× CSR throughput on
//!   the arrow-matrix family (`cargo bench -p mspcg-bench --bench spmv`,
//!   measured on one core) with bitwise-identical products and solver
//!   runs. `AutoOp` picks the format from the row
//!   shape (longest row ≥ 4× mean, padding ≤ 50 %); a caller that wants
//!   one format builds that type, and the conformance harness solves on
//!   both. Future formats (blocked CSR,
//!   NUMA-partitioned) implement one trait and drop in.
//! * **nnz-weighted SpMV chunking** — parallel SpMV splits rows at
//!   `row_ptr` prefix-sum boundaries (`par::spmv_layout`), so a run of
//!   dense-ish rows on an irregular FEM matrix cannot serialize the pool;
//!   layouts stay thread-count independent. All thresholds are
//!   constants in `mspcg::sparse::tuning`.
//! * **One SSOR msolve** — both executors run
//!   `mspcg::core::SweepTable::msolve`: participant `p` of `T` sweeps
//!   chunk `p` of every color block (`mspcg::core::ssor::owned_chunk`,
//!   the paper's §3.2 assignment) through one color-phase kernel,
//!   `SweepTable::sweep`, crossing `par::SpinBarrier` between color
//!   phases. The pool path runs it as one launch per msolve (and the SSOR
//!   estimate one per power step); the SPMD workers are the participants
//!   of one launch held for the whole solve, sharing their vectors
//!   through `par::ParSlice`, the one phase-disciplined buffer. The kernel
//!   slices the table once per call and reads `x` unchecked under the
//!   validated column bound; a single right-hand side sweeps 8 rows at a
//!   time in lockstep from a sliced copy of the half-rows, bitwise the
//!   row loop.
//! * **Adaptive fallback** — kernels below a work threshold
//!   (`tuning::par_min_elems` elements, set at the measured launch
//!   break-even, or `tuning::par_min_nnz` stored entries) run serially;
//!   a `--no-default-features` build is strictly serial with identical
//!   results.
//! * **Zero-allocation hot loop** — `pcg_solve_into` with a reusable
//!   `PcgWorkspace` performs no heap allocation per solve (verified by a
//!   counting-allocator test over the ω sweep); `MulticolorSsor` shares
//!   the matrix/partition via `Arc` instead of deep-cloning.
//! * **Batched multi-RHS** — `mspcg::core::multi::pcg_solve_multi` solves
//!   many load cases against one matrix + preconditioner in
//!   `min(threads, cases)` lanes of contiguous cases, at every matrix size
//!   (`MultiRhsWorkspace` holds one `PcgWorkspace` per lane, with the
//!   lane's own preconditioner scratch, so no lane waits on a lock). Each
//!   lane solves its cases in
//!   **lockstep blocks** of up to `multi::BLOCK_WIDTH` = 8, stored
//!   interleaved `n × w`: one block SpMV (`SparseOp::mul_block_into`), one
//!   block msolve (`Preconditioner::apply_block`) and one pass of each
//!   vector kernel per iteration serve every column, each with its own α,
//!   β, stopping test, audit schedule and counters. The block kernels are
//!   the solver's kernels — the CSR gather, `SweepTable::sweep`, the
//!   `vecops` updates and reductions — made generic over the column
//!   count, width 1 being the plain kernel, and the block loop is the one
//!   Algorithm 1 in `mspcg-core`: a standalone `pcg_solve_into` is the
//!   block of width 1, and a one-case batch runs it on the calling thread
//!   with its kernels fanned out on the pool. So every column is bitwise
//!   its standalone solve; operators and preconditioners without a block
//!   kernel go column by column through the traits' defaults. A column
//!   that converges, breaks down or runs out of budget leaves the block
//!   with the standalone solve's outcome; one whose scalar goes non-finite
//!   or whose audit diverges restarts in place, re-derived from its own
//!   iterate while the other columns keep iterating. On the a = 24 plate
//!   (2-vCPU VM) a width-8 block runs the SpMV 3.4× and the 2-step SSOR
//!   msolve 3.0× faster per right-hand side than width 1. Zero per-solve
//!   allocation after warm-up. See `examples/multi_load_cases.rs`.
//!
//! ## Robustness
//!
//! `mspcg::core::recovery` makes every solver entry point fault-tolerant,
//! with the same discipline as the performance work: every rescue is
//! *counted*, every cost is *pinned*. Input validation comes first, then
//! two recovery layers.
//!
//! * **Input validation** — a NaN/Inf right-hand side or initial guess is
//!   rejected up front as `SparseError::NonFinite { phase, .. }`, a
//!   nonpositive or non-finite tolerance as
//!   `SparseError::InvalidTolerance`, an audit period of 0 as
//!   `SparseError::ZeroAuditPeriod`, before any kernel runs — by one
//!   function (`core::pcg::validate_inputs`) that the serial, multi-RHS
//!   and SPMD entry points all call.
//! * **Fault injection, first-class** — one `FaultPlan` serves every
//!   executor: each fault names its right-hand side, the kernel call
//!   (the `K·p` of an iteration, or the `r̂` after one) and the element
//!   it perturbs (bit-flips, NaN/Inf, scaled noise). The one Algorithm 1
//!   loop looks the plan up and hands each due fault to the call it
//!   corrupts, which perturbs the fresh output before the phase's
//!   reduction — `pcg_try_solve_into_with_faults`,
//!   `pcg_solve_multi_with_faults` (a fault lands on its planned case at
//!   any lane count) and `ParallelMStepPcg::solve_with_faults`, so a
//!   fault ends at the same phase and iteration on every executor.
//!   `tests/fault_injection.rs` runs executor × family under both fault
//!   classes with bitwise replay and exact counters: a NaN msolve or SpMV
//!   fault costs exactly 1 detection, 1 in-place replacement and 0
//!   fallbacks. A planned fault fires once, so the iteration a restart
//!   repeats runs clean.
//! * **Audit with in-place replacement** — with
//!   `RecoveryPolicy::replacement` on, every `audit_period` iterations
//!   (default 32) the solver recomputes the TRUE residual `f − K·u` and
//!   compares it to the recurrence residual. Deviation beyond
//!   `max(10·tol, 10³·ε)·‖f‖` restarts the loop from the current iterate:
//!   it re-derives `r`, `r̂` and `p` from the recomputed residual (van der
//!   Vorst/Ye-style replacement) — the derivation that starts every solve,
//!   and in a batch only for the column concerned. A non-finite reduction
//!   scalar triggers the same restart whether or not audits run, while the
//!   `max_replacements` budget lasts; an exhausted budget surfaces
//!   `SparseError::NonFinite { phase, iteration }` instead of silent
//!   garbage. Cost model, asserted by counter tests: the SPMD audit is
//!   ONE fused extra phase — **+1 barrier crossing, zero extra reduction
//!   phases** — and a clean audited solve stays *bitwise identical* to
//!   the unaudited run (an audit that finds no drift only observes). The
//!   policy resolves once per solve into the `AuditPlan` both executors
//!   read. All of it lands in `PcgStats` / `ParallelSolveReport`
//!   (`audits`, `replacements`, `faults_detected`), and per-RHS in
//!   `multi::SolveStatus::Replaced`. The default policy audits nothing —
//!   that pins the exact operation schedule — so a *finite* corruption
//!   goes unseen: in one probe a bit-62 flip of one SpMV output made the
//!   a = 24 solve take 49 260 iterations instead of 79 and still report
//!   `converged`.
//! * **One set of outcomes** — every executor reports how a solve ended
//!   through the one loop: `SparseError::NotPositiveDefinite { pivot,
//!   value }` with the iteration and the nonpositive inner product,
//!   `SparseError::NonFinite { phase, iteration }` once the replacement
//!   budget is spent, and on budget exhaustion the true relative residual
//!   `‖f − K·u‖₂ / ‖f‖₂` of the exit iterate — as data (`converged =
//!   false`) from the serial and batched entry points, as
//!   `SparseError::DidNotConverge { residual, .. }` from the SPMD
//!   `solve`.
//!
//! Measure time to solution with the benchmark `BENCHMARK.json` declares,
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload W --seed N --seconds S --trace 0|1`, run from the
//! repository root: three workloads on the paper's plate, end-to-end
//! seconds and memory with `--trace 0`, a per-module split with
//! `--trace 1`. The in-repo kernel benches (`cargo bench -p mspcg-bench
//! --bench spmv|precond|multi_rhs`, `-- --json FILE` to keep the numbers)
//! print per-kernel timings and assert their counter formulas in-run; no
//! record of them is kept in the repository.

pub use mspcg_coloring as coloring;
pub use mspcg_core as core;
pub use mspcg_fem as fem;
pub use mspcg_machine as machine;
pub use mspcg_parallel as parallel;
pub use mspcg_sparse as sparse;
