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
//! * [`machine`] — CYBER 203/205 and Finite Element Machine simulators,
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
//! * **One checked-once CSR row kernel** — every CSR row loop a solve
//!   runs goes through one gather in `mspcg_sparse::csr`: the SpMV range
//!   kernels behind the pool SpMV, the batch lanes and the polynomial
//!   msolve, and the SSOR half-sums of both executors (`MulticolorSsor`
//!   and the SPMD `ParallelMStepPcg` stream one `core::ssor::SweepTable`).
//!   It checks `x.len() == cols()` once per call, then walks a row's
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
//!   pass** per iteration (`vecops::fused_axpy_axpy_norm`; the direction
//!   initialization uses `vecops::fused_xpby_dot`), bitwise identical to
//!   the unfused sweeps. The SPMD `ParallelMStepPcg` fuses every
//!   reduction into the phase producing its operands and replicates the
//!   scalar reductions across workers: `m·(2C−1) + 3` barriers per
//!   iteration (C colors, m steps), down from `m·(2C−1) + 9`.
//! * **Single-reduction (communication-avoiding) variant** — classic PCG
//!   serializes two inner products per iteration: `(p, Kp)` before α,
//!   `(r̂, r)` before β. `PcgVariant::SingleReduction` runs the
//!   Chronopoulos–Gear two-term recurrence instead — carry `s = Kp` and
//!   `w = Kz`, reconstruct `α = γ′/(δ − β·γ′/α)` — so both scalars come
//!   out of **one** fused reduction phase (`vecops::fused_dot3_norm`:
//!   `(r, z)`, `(w, z)`, the `(p, s)` breakdown guard and the stopping
//!   norm, in one sweep). Per-iteration cost model:
//!
//!   | schedule | reduction phases | SPMD barriers | reduction overlap window |
//!   |---|---|---|---|
//!   | classic | 2 (serialized) | `m·(2C−1) + 3` | — (both block) |
//!   | single-reduction | **1** | `m·(2C−1) + 2` | — (fused, still blocks) |
//!   | pipelined | **1, in flight** | **`m·(2C−1)`** + 1 split crossing | the whole `M⁻¹w` + `K·mv` phase |
//!   | classic, plain CG (`m = 0`) | 2 | 4 | — |
//!   | single-reduction, plain CG | **1** | **2** (`z ≡ r`) | — |
//!   | pipelined, plain CG | **1, in flight** | **1** + 1 split crossing | the `K·w` SpMV |
//!   | classic, polynomial degree `k` | 2 | **`k + 3`** | — |
//!   | single-reduction, polynomial | **1** | **`k + 2`** | — |
//!   | pipelined, polynomial | **1, in flight** | **`k + 1`** + 1 split crossing | the `p(G)D⁻¹w` chain + `K·mv` |
//!   | s-step, block size `s` | **1 per `s` iterations** | `s·m(2C−1) + 2s` per block | — (fused block Gram) |
//!   | s-step, plain CG | **1 per `s` iterations** | **`s + 1`** per block (`v₁ ≡ r`) | — |
//!   | s-step, polynomial | **1 per `s` iterations** | **`s·(k + 2)`** per block | — |
//!
//!   Both counts are *measured*, not asserted: `PcgStats` carries
//!   `reduction_phases` (and `fallbacks`), the SPMD report carries
//!   `barrier_crossings` / `reduction_phases` / `split_crossings` from
//!   instrumented barriers, and `BENCH_pr5.json` records them per
//!   variant on the Table-3 family. The recurrences have
//!   different-but-bounded rounding paths, so the contract is bitwise
//!   determinism across thread counts *within* each variant and
//!   cross-variant agreement to a residual tolerance
//!   (`tests/pcg_variants.rs`, `tests/variant_conformance.rs`); on
//!   recurrence breakdown (`(p, s) ≤ 0`, a nonpositive reconstructed
//!   denominator, or — pipelined — a nonpositive carried `γ′`) every
//!   entry point falls back to the classic loop — serial solves continue
//!   from the current iterate, the SPMD solver reruns the solve.
//!   Selection: `PcgOptions::variant` / `ParallelSolverOptions::variant`
//!   (default `Classic`); the conformance and fault harnesses iterate
//!   every variant through every executor.
//! * **Pipelined (Ghysels–Vanroose) variant** — the single-reduction
//!   schedule still *blocks* at its one reduction barrier.
//!   `PcgVariant::Pipelined` carries two more recurrence vectors
//!   (`q = M⁻¹s`, `K·q`) and recomputes `mv = M⁻¹w` / `nv = K·mv` each
//!   iteration, so the γ/δ reduction reads only vectors finished in the
//!   update phase: the SPMD executor **initiates** it there
//!   (`SplitBarrier::arrive`, a new split-phase primitive in
//!   `mspcg-parallel`) and **consumes** it (`wait`) only after the
//!   preconditioner + SpMV — the reduction latency hides behind the
//!   heaviest phase, and the update mega-phase needs *no trailing
//!   barrier at all* (own-strip analysis + parity-rotated `mv`/partial
//!   banks), which is why the pipelined iteration runs on `m·(2C−1)`
//!   full barriers where single-reduction needs `+ 2`. Costs: one
//!   speculative heavy phase on the converging iteration, ~4 extra
//!   vector carries, and faster drift (hence the stricter guards). The
//!   exact schedule — full-barrier, split-crossing and reduction-phase
//!   formulas at `m ∈ {0..3}` — is pinned by counter tests; honest
//!   1-core caveat: this container cannot show the latency win, only the
//!   counter proof (`BENCH_pr5.json` records both).
//! * **s-step (communication-avoiding) variant** — the pipelined
//!   schedule still pays one reduction *per iteration*; it merely hides
//!   the latency. `PcgVariant::SStep { s }` amortizes the count itself:
//!   each outer step builds an `s`-dimensional Krylov block with the
//!   **Chebyshev three-term recurrence** on the cached Lanczos interval
//!   (well-conditioned where the naive monomial basis collapses —
//!   Chronopoulos–Gear blocked, Carson/Demmel-style basis), then fuses
//!   *every* inner product of the next `s` iterations — the `s(s+1)/2`
//!   block Gram entries, the `s×s` direction coupling, the projections
//!   and the stopping norm — into **ONE** reduction phase, solved
//!   replicated by a small dense Cholesky (with a rank-revealing pivot
//!   floor: an endgame-degenerate block truncates to its numerical rank
//!   and restarts the recurrence instead of dividing by noise). The
//!   serial solver and the multi-RHS driver share one loop
//!   (`sstep_loop`); the SPMD executor runs its own worker
//!   (`worker_sstep`) on `s·m(2C−1) + 2s` barriers per block (table
//!   above) with **zero** split crossings and no init phase. Breakdown
//!   steps down warm onto the pipelined rung. The exact block schedule
//!   is pinned by counter tests at `s ∈ {2, 4}` × 1/4 threads × CSR /
//!   SELL-C-σ, bitwise-deterministic across runs and formats;
//!   `BENCH_pr10.json` records the `s`-sweep against the ladder, with
//!   the formulas asserted in-run.
//! * **Barrier-free polynomial (Newton–Chebyshev) preconditioning** — the
//!   multicolor SSOR sweeps cost `2C−1` barriers per step: the
//!   *color structure itself* is the synchronization bill.
//!   `mspcg::core::poly::PolynomialPreconditioner` replaces the sweeps
//!   with `z = p(G)·D⁻¹r`, `G = D⁻¹K`, evaluated as a degree-`k` chain of
//!   fused SpMV + BLAS-1 kernels (`vecops::fused_poly_seed` /
//!   `fused_poly_step`): **`k` barriers per application, zero color
//!   sweeps**, allocation-free after setup (`scratch_len`/`apply_with`),
//!   generic over `SparseOp`, and bitwise identical across thread counts
//!   and storage formats. The coefficient schedule (Chebyshev min-max on
//!   the estimated interval, or Newton/scaled-Richardson) is built once
//!   from a Lanczos estimate of the Jacobi-scaled spectrum
//!   (`poly::jacobi_spectrum`, cached on the preconditioner for reuse at
//!   other degrees) and shared verbatim by the serial evaluator and the
//!   SPMD `ParallelMStepPcg::poly` msolve — `k` fused SpMV phases, whose
//!   exact barrier/split/reduction formulas (table above; the pipelined
//!   overlap window pays one input-finalization barrier) are pinned by
//!   counter tests at every variant. Selection:
//!   `PrecondKind::{Auto, MStepSsor, Poly}` on the auto constructors
//!   (`core::poly::auto_preconditioner`, `ParallelMStepPcg::auto`), which
//!   share one resolution (`core::poly::resolve_precond`); the `Auto`
//!   heuristic picks the polynomial at matched flops (degree `2m` ≈ `m`
//!   sweeps) whenever `2C−1 > 2`, i.e. for every genuinely multicolor
//!   matrix. The conformance and fault harnesses run every variant with
//!   the polynomial msolve, and `BENCH_pr8.json` records iterations /
//!   barriers / wall time of degree-`k` vs m-step at matched flops.
//! * **Operator abstraction + SELL-C-σ** — every solver entry point
//!   (`pcg_solve_into`, `pcg_solve_multi`, the SPMD `ParallelMStepPcg`,
//!   the splitting/preconditioner constructors) is generic over
//!   `mspcg::sparse::SparseOp`, so the storage format is a pure
//!   performance decision: CSR by default, SELL-C-σ
//!   (`mspcg::sparse::SellCsMatrix`, sliced ELL with slice height C and
//!   sort window σ) for wide/irregular rows — ~1.3–1.6× CSR throughput on
//!   the arrow-matrix family (`BENCH_pr3.json`) with bitwise-identical
//!   products and solver runs. `AutoOp` picks the format from the row
//!   shape (longest row ≥ 4× mean, padding ≤ 50 %); a caller that wants
//!   one format builds that type, and the conformance harness solves
//!   every variant on both. Future formats (blocked CSR,
//!   NUMA-partitioned) implement one trait and drop in.
//! * **nnz-weighted SpMV chunking** — parallel SpMV splits rows at
//!   `row_ptr` prefix-sum boundaries (`par::spmv_layout`), so a run of
//!   dense-ish rows on an irregular FEM matrix cannot serialize the pool;
//!   layouts stay thread-count independent. The multicolor SSOR color
//!   sweeps chunk the same way (`par::spmv_chunk_rows_range` within each
//!   color block). All thresholds are constants in
//!   `mspcg::sparse::tuning`.
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
//!   many load cases against one matrix + preconditioner
//!   (`MultiRhsWorkspace` holds per-lane scratch, so the shared SSOR
//!   cache is never a lock point): right-hand sides become the unit of
//!   parallelism for small matrices, kernels for large ones, with zero
//!   per-solve allocation after warm-up and bitwise-standalone-identical
//!   solutions. See `examples/multi_load_cases.rs`.
//!
//! ## Robustness
//!
//! `mspcg::core::recovery` makes every solver entry point fault-tolerant,
//! with the same discipline as the performance work: every rescue is
//! *counted*, every cost is *pinned*.
//!
//! * **Input validation** — a NaN/Inf right-hand side or initial guess is
//!   rejected up front as `SparseError::NonFinite { phase, .. }`, a
//!   nonpositive or non-finite tolerance as
//!   `SparseError::InvalidTolerance`, an s-step width outside `2..=16` as
//!   `SparseError::InvalidBlockWidth`, an audit period of 0 as
//!   `SparseError::ZeroAuditPeriod`, before any kernel runs — by one
//!   function (`core::pcg::validate_inputs`) that the serial, multi-RHS
//!   and SPMD entry points all call.
//! * **Residual audit + replacement** — every `audit_period` iterations
//!   the solver recomputes the TRUE residual `f − K·u` and compares it to
//!   the recurrence residual. Deviation beyond
//!   `max(10·tol, 10³·ε)·‖f‖` replaces the recurrence state from the
//!   recomputed residual (van der Vorst/Ye-style). Cost model, asserted
//!   by counter tests and recorded in `BENCH_pr6.json`: the SPMD audit is
//!   ONE fused extra phase — **+1 barrier crossing, zero extra reduction
//!   phases** — and a clean audited solve stays *bitwise identical* to
//!   the unaudited run (an audit that finds no drift only observes).
//!   Policy: `RecoveryPolicy` on `PcgOptions` / `ParallelSolverOptions`
//!   (`Auto` enables auditing for the drift-prone single-reduction,
//!   pipelined and s-step recurrences at tolerances ≤ 1e-11;
//!   `audit_period` defaults to 32), resolved once per solve into the
//!   `AuditPlan` both executors read; `tests/fault_injection.rs` runs
//!   audited solves of every variant on both executors.
//! * **Recovery ladder** — a non-finite reduction scalar (or an audit
//!   divergence in a recurrence schedule) walks SStep → Pipelined →
//!   SingleReduction → Classic: the recurrence rungs are *detectors*
//!   (they hand the current iterate down one rung, counted as a
//!   `recovery`/`fallback`), the classic rung *self-heals in place*
//!   (recompute `f − K·u`, re-derive the direction, counted as a
//!   `replacement`, budget `max_replacements`); an exhausted budget
//!   surfaces `SparseError::NonFinite { phase, iteration }` instead of
//!   silent garbage. All of it lands in `PcgStats` /
//!   `ParallelSolveReport` (`audits`, `replacements`, `recoveries`,
//!   `faults_detected`), and per-RHS in `multi::SolveStatus::{Recovered,
//!   Replaced}`.
//! * **Fault injection, first-class** — `FaultyOp` /
//!   `FaultyPreconditioner` wrap any operator/preconditioner with
//!   application-indexed faults (bit-flips, NaN/Inf, scaled noise) for
//!   the serial stack; `ParallelMStepPcg::solve_with_faults` takes an
//!   iteration-indexed `FaultPlan` injected deterministically at every
//!   thread count. The two models differ on purpose: a wrapper fault is
//!   consumed once (lower rungs run clean), a plan fault is *persistent*
//!   (it re-fires on every ladder rung, so the full walk is exercised —
//!   a pipelined start under a NaN preconditioner fault proves exactly 3
//!   detections, 2 step-downs, 1 classic in-place replacement; an s-step
//!   start proves the full 4-rung walk: 4 detections, 3 step-downs, 1
//!   replacement).
//!   `tests/fault_injection.rs` runs every variant × executor × family
//!   under both fault classes with bitwise replay and exact counters.
//!
//! Measure time to solution with the benchmark `BENCHMARK.json` declares,
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload W --seed N --seconds S --trace 0|1`, run from the
//! repository root: three workloads on the paper's plate, end-to-end
//! seconds and memory with `--trace 0`, a per-module split with
//! `--trace 1`. The in-repo kernel benches (`cargo bench -p mspcg-bench
//! --bench spmv|precond|multi_rhs|pcg_variants|recovery|sstep -- --json
//! FILE`) record per-kernel numbers; the committed `BENCH_pr*.json`
//! records predate the 2-core runner and are not comparable across PRs.

pub use mspcg_coloring as coloring;
pub use mspcg_core as core;
pub use mspcg_fem as fem;
pub use mspcg_machine as machine;
pub use mspcg_parallel as parallel;
pub use mspcg_sparse as sparse;
