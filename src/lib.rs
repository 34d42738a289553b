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
//! * **One recurrence** — every executor runs Algorithm 1, whose two
//!   inner products per iteration are serialized: `(p, Kp)` before α,
//!   `(r̂, r)` before β. Per-iteration cost model:
//!
//!   | configuration | reduction phases | SPMD barriers |
//!   |---|---|---|
//!   | m-step SSOR, `C` colors | 2 | `m·(2C−1) + 3` |
//!   | plain CG (`m = 0`) | 2 | 4 |
//!   | polynomial degree `k` | 2 | **`k + 3`** |
//!
//!   Both counts are *measured*, not asserted: `PcgStats` carries
//!   `reduction_phases`, and the SPMD report carries `barrier_crossings` /
//!   `reduction_phases` from the instrumented barrier; counter tests pin
//!   the formulas. A Chronopoulos–Gear single-reduction recurrence (one
//!   reduction phase, one barrier fewer per iteration) used to be the
//!   alternative. On shared memory a reduction is one spin barrier, so
//!   the saved barrier bought little: on a 2-vCPU VM the 25 barriers of
//!   an m = 2 SPMD iteration on the Table-3 plate cost 0.6 % of solve
//!   time, and the variant's median solve time ran between 0.92× and
//!   1.11× classic's on the plates a = 24, 40 and 100, on both executors.
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
//!   exact barrier and reduction formulas (table above) are pinned by
//!   counter tests. The conformance and fault harnesses run the
//!   polynomial msolve on both executors.
//! * **`Auto` is the paper's parametrized m-step SSOR** — selection is
//!   `PrecondKind::{Auto, MStepSsor, Poly}` on the auto constructors
//!   (`core::poly::auto_preconditioner`, `ParallelMStepPcg::auto`), which
//!   share one resolution (`core::poly::resolve_precond`). `Auto` fits
//!   min-max coefficients (§2.2) on the SSOR interval `[1 − ρ, 1]` from one
//!   60-step power iteration, then steps `m` up from the caller's default,
//!   to at most 8, while inequality (4.2) predicts a gain: iteration counts
//!   from the fitted polynomial's κ bound, `B/A` from the bytes an outer
//!   iteration and an SSOR step stream (`analysis::CostModel::from_traffic`,
//!   ≈ 0.81 on the Table-3 plate). No timer is read, so the choice is
//!   deterministic and both executors fit bitwise the same coefficients.
//!   An empty operator, a failed estimate (a diagonal `K`) or a fit failing
//!   the SPD check keeps α = 1 at the default `m`. Barrier counts do not
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
//! * **Fault injection, first-class** — `FaultyOp` /
//!   `FaultyPreconditioner` wrap any operator/preconditioner with
//!   application-indexed faults (bit-flips, NaN/Inf, scaled noise) for
//!   the serial stack; `ParallelMStepPcg::solve_with_faults` takes an
//!   iteration-indexed `FaultPlan` injected deterministically at every
//!   thread count. `tests/fault_injection.rs` runs executor × family
//!   under both fault classes with bitwise replay and exact counters: a
//!   NaN preconditioner fault costs exactly 1 detection, 1 in-place
//!   replacement and 0 fallbacks.
//! * **Audit with in-place replacement** — with
//!   `RecoveryPolicy::replacement` on, every `audit_period` iterations
//!   (default 32) the solver recomputes the TRUE residual `f − K·u` and
//!   compares it to the recurrence residual. Deviation beyond
//!   `max(10·tol, 10³·ε)·‖f‖` restarts the loop from the current iterate:
//!   it re-derives `r`, `r̂` and `p` from the recomputed residual (van der
//!   Vorst/Ye-style replacement). A non-finite reduction scalar triggers
//!   the same restart whether or not audits run, while the
//!   `max_replacements` budget lasts; an exhausted budget surfaces
//!   `SparseError::NonFinite { phase, iteration }` instead of silent
//!   garbage. Cost model, asserted by counter tests: the SPMD audit is
//!   ONE fused extra phase — **+1 barrier crossing, zero extra reduction
//!   phases** — and a clean audited solve stays *bitwise identical* to
//!   the unaudited run (an audit that finds no drift only observes). The
//!   policy resolves once per solve into the `AuditPlan` both executors
//!   read. All of it lands in `PcgStats` / `ParallelSolveReport`
//!   (`audits`, `replacements`, `faults_detected`), and per-RHS in
//!   `multi::SolveStatus::Replaced`.
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
