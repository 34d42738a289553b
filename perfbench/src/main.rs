//! Time-to-solution benchmark of the mspcg solver stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plate-ssor-spmd --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. Each run builds its workload's system
//! from seeded inputs, makes one checked warm-up call, then times calls on
//! fresh seeded right-hand sides for `--seconds` seconds in one process
//! (a closed loop: the next call starts when the previous one returns),
//! checks every answer, and prints one JSON line last. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones. The thread
//! budget is fixed at 2 pool threads and 2 SPMD workers. Any `MSPCG_*`
//! environment variable makes the run refuse to start: those rewrite the
//! variant, preconditioner, format, thresholds and threads process-wide.
//!
//! Seeds: develop against seed 1 and check a claim on the held-out
//! seed 1983 as well. A seed fixes every right-hand side and nothing else.
//!
//! # Workloads
//!
//! * `plate-ssor-spmd` — the paper's method on the paper's problem and
//!   executor: Table-3 plane-stress plate a = 100 (19 800 unknowns, 6
//!   colors), random nodal loads, unparametrized 2-step SSOR, classic
//!   PCG, ‖Δu‖∞ < 1e-8, `ParallelMStepPcg` with 2 workers. It stresses the
//!   SPMD sweeps and barriers in L2.
//! * `plate-auto` — what a user gets from the defaults on the same plate:
//!   `auto_preconditioner(PrecondKind::Auto, 2)` (it picks Chebyshev of
//!   degree 4), `PcgVariant::Auto`, relative residual 1e-8, the serial
//!   solver on the 2-thread pool. It stresses parallel SpMV, the
//!   polynomial msolve, Lanczos set-up and the `Auto` choice, with no
//!   color sweeps and no SPMD barriers.
//! * `plate-loadcases` — the same SSOR and SpMV code used differently:
//!   plate a = 24 (12 686 entries, under the parallel-kernel threshold),
//!   128 random load cases per `pcg_solve_multi` call, 2-step SSOR,
//!   relative residual 1e-8. It stresses batch lanes, per-call overhead
//!   and pool dispatch, all in cache.
//!
//! A bandwidth-bound workload (red/black Poisson 512², ≈ 25 MB working
//! set, `Auto` defaults) was tried and left out: on a 2-vCPU Xeon VM
//! sharing its host, its median solve moved from 3.3 s to 6.9 s within an
//! hour as other tenants loaded the memory system, and ten seeds spread by
//! 0.52 of their median, beyond any usable regression bound. `plate-auto`
//! keeps its layers (Lanczos, the polynomial msolve, the `Auto` choice)
//! in cache.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! The JSON line carries `solve_s` (median seconds per call; a call is
//! one batch on `plate-loadcases`), `setup_s` (median over several builds
//! of assembly, ordering and preconditioner or SPMD solver, Lanczos
//! included) and `peak_rss_mb`. Two timings are printed above it but kept
//! out of the JSON, because on that VM, whose per-core speed drifts by up
//! to 2× over minutes, they spread across ten seeds by more than any bound
//! a regression check could use: `solve_s_tail`, the highest percentile
//! with at least ten samples beyond it, printed with that percentile and
//! the sample count (spread 0.27 of its median on `plate-ssor-spmd`), and
//! `rhs_per_s`, right-hand sides over summed call time, a mean that the
//! slow stretches of a run pull (spread 0.29 on `plate-loadcases`). Every
//! call's answers are checked: the true `‖f − K·u‖/‖f‖`, recomputed
//! through `SparseOp`, must meet the workload's accuracy bound, and the
//! SPMD plate's first and last solutions must match the pool-path solve
//! of the same configuration. The worst residual (`rel_residual`) and
//! `failed_frac` are printed too; any failure makes the run exit
//! non-zero, so a passing run always has `failed_frac` = 0.
//!
//! # Per-layer metrics (`--trace 1`), and what each should move
//!
//! Layers are timed from outside, around calls into their public
//! functions: the operator and preconditioner are wrapped in forwarders
//! implementing `SparseOp` and `Preconditioner`; the rest are isolated
//! probes. `ParallelMStepPcg` keeps no operator, so on the SPMD plate the
//! SpMV/msolve/pcg split comes from a pool-path solve of the same
//! configuration and is printed as a stand-in.
//!
//! * `fem.assemble_s`, `coloring.order_s`, `coloring.colors` → `setup_s`
//!   everywhere.
//! * `lanczos.s` (`poly::jacobi_spectrum` alone) → `setup_s` on
//!   `plate-auto`; predicted no change on the other two, whose set-up
//!   runs no Lanczos.
//! * `precond.build_s` → `setup_s` everywhere.
//! * `spmv.calls_per_solve`, `spmv.us`, `spmv.gbs`, `spmv.pct_triad`,
//!   `spmv.share` → `solve_s` on `plate-auto`; little effect predicted on
//!   `plate-loadcases`.
//! * `msolve.calls_per_solve`, `msolve.us`, `msolve.gbs`, `msolve.share` →
//!   `solve_s` on all three.
//! * `pcg.iterations`, `pcg.reductions_per_iter`,
//!   `pcg.inner_products_per_iter`, `pcg.fallbacks`, `pcg.audits`,
//!   `pcg.self_share` (traced solve time not inside SpMV or msolve calls)
//!   → `solve_s` everywhere; a change to `Auto` moves `pcg.iterations` on
//!   `plate-auto` only.
//! * `vecops.fused_update_us`, `vecops.dot_us` (at the workload's n) →
//!   `solve_s` on `plate-auto`.
//! * `par.triad_gbs_t1`, `par.triad_gbs_t2`: the bandwidth ceiling;
//!   `par.fork_join_us` (an empty `for_each_chunk` at 2 threads) →
//!   `solve_s` (per batch) on `plate-loadcases`.
//! * `multi.lane_speedup` (128 × standalone solve median ÷ batch median)
//!   → `solve_s` (per batch) on `plate-loadcases`.
//! * `spmd.barriers_per_iter`, `spmd.reductions_per_iter`,
//!   `spmd.splits_per_iter`, `spmd.fixed_ms` (a solve cut off after one
//!   iteration: thread spawn and set-up), `spmd.t1_solve_s`,
//!   `spmd.speedup_2v1`, `spmd.vs_pool` (pool-path ÷ SPMD `solve_s`) →
//!   `solve_s` on `plate-ssor-spmd`; predicted no change elsewhere.
//! * `barrier.crossing_ns` (`SpinBarrier::wait` alone at 2 threads) and
//!   `barrier.est_share` (crossings × crossing_ns ÷ `solve_s`) → `solve_s`
//!   on `plate-ssor-spmd`.
//! * `trace.overhead`: traced ÷ untraced pool-path `solve_s` − 1, from
//!   alternating pairs of calls on the same inputs.
//!
//! A layer a workload does not run reports 0: the SPMD metrics off the
//! SPMD plate, `multi.lane_speedup` off the batch workload.
//!
//! Computed bytes per call (bandwidths divide them by busy time; they
//! ignore cache reuse and misses): SpMV = 12·nnz + 8·(n+1) + 16·n; one
//! SSOR step = 12·(nnz − n) + 16·(n+1) + 80·n; a degree-k polynomial
//! msolve = 32·n + k·(SpMV + 56·n). `spmv.pct_triad` compares SpMV
//! with the triad at the thread count its kernels run on (2 for pool
//! kernels, 1 inside batch lanes). The triad uses 3 arrays of 4 × the
//! reported LLC each, capped at 128 MiB; the run prints both sizes.

mod host;
mod inputs;
mod json;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Args;
use std::process::ExitCode;
use workloads::{Workload, THREADS};

/// The seed to develop against.
const DEV_SEED: u64 = 1;
/// The seed kept back for checking claims.
const HELDOUT_SEED: u64 = 1983;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let overrides = host::mspcg_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "refusing to run with {} set: these rewrite the solver configuration process-wide",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    // The result line must carry exactly the metrics the manifest declares.
    if let Err(e) = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|m| report::check_manifest(&m))
    {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    mspcg::sparse::par::set_max_threads(THREADS);

    println!(
        "workload {} seed {} (development seed {DEV_SEED}, held-out seed {HELDOUT_SEED}), {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {}, LLC {}, git rev {}, {}",
        host::nproc(),
        host::llc().map_or("not reported".to_string(), |(level, bytes)| format!(
            "L{level} {} KiB",
            bytes >> 10
        )),
        host::git_rev(),
        host::rustc()
    );

    let result = if args.trace {
        run::traced(&args)
    } else {
        run::untraced(&args)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            registry,
            &outcome.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload plate-auto --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Defaults);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload plate-auto --seed 1 --seconds 1",
            "--workload plate-auto --seed 1 --seconds 0 --trace 0",
            "--workload plate-auto --seed 1 --seconds 1 --trace 2",
            "--workload plate-auto --seed -1 --seconds 1 --trace 0",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
