//! The two kinds of run. An untraced run times the workload's own calls
//! and yields the end-to-end metrics; a traced run splits the same calls
//! across layers from outside and yields the per-layer metrics.

use crate::host;
use crate::probes;
use crate::stats::{median, tail};
use crate::trace::Tally;
use crate::workloads::{
    build, max_rel_diff, spmd_call, spmd_options, spmv_bytes, CallOutcome, Counts, Runner,
    SetupTimes, System, Tallies, Workload, LOAD_CASES, SPMD_CROSS_CHECK, THREADS,
};
use mspcg::sparse::{par, SparseError, SparseOp};
use std::time::Instant;

/// Calls every timed loop makes at least, whatever its time budget.
const MIN_CALLS: usize = 3;
/// Set-up repetitions: at least this many, then more while the time
/// budget below lasts, so the reported median rests on several builds.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
/// Largest triad array. The 4 × LLC rule asks for more than a shared
/// host should hand one probe when the reported LLC is the host's whole
/// L3; the run prints both sizes when the cap applies.
const TRIAD_CAP_BYTES: u64 = 128 << 20;

/// A run's command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports: the verdict and its metrics by name.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Vec<(&'static str, f64)>,
}

/// Counts checked right-hand sides and the ones that failed.
struct Checker {
    accuracy: f64,
    attempted: usize,
    failed: usize,
    worst: f64,
}

impl Checker {
    fn new(accuracy: f64) -> Self {
        Checker {
            accuracy,
            attempted: 0,
            failed: 0,
            worst: 0.0,
        }
    }

    /// Recompute each column's true residual; a column fails when the
    /// solver reported an error or no convergence, or its residual misses
    /// the workload's accuracy bound.
    fn check(&mut self, sys: &System, f: &[f64], out: &CallOutcome) {
        let residuals = sys.rel_residuals(f, &out.u);
        for (col, (&ok, &rel)) in out.solver_ok.iter().zip(&residuals).enumerate() {
            self.attempted += 1;
            self.worst = self
                .worst
                .max(if rel.is_nan() { f64::INFINITY } else { rel });
            if !(ok && rel <= self.accuracy) {
                self.violation(format!(
                    "column {col}: solver ok = {ok}, true relative residual {rel:e} (bound {:e})",
                    self.accuracy
                ));
            }
        }
    }

    fn violation(&mut self, what: String) {
        self.failed += 1;
        eprintln!("check failed: {what}");
    }
}

/// Build the system repeatedly; returns the last build and every build's
/// stage times.
fn setup(w: Workload) -> Result<(System, Vec<SetupTimes>), SparseError> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<System> = None;
    while times.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        // Free the previous build first, so peak memory holds one system.
        drop(last.take());
        let (sys, t) = build(w)?;
        times.push(t);
        last = Some(sys);
    }
    Ok((last.expect("at least one build"), times))
}

fn stage_median(times: &[SetupTimes], stage: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(stage).collect::<Vec<_>>())
}

/// The SPMD solution of `f` must match the pool-path solve of the same
/// configuration to the stop's accuracy.
fn cross_check(r: &mut Runner, chk: &mut Checker, f: &[f64], u_spmd: &[f64]) {
    let pool = r.pool_call(f, None);
    chk.check(&r.sys, f, &pool);
    let d = max_rel_diff(u_spmd, &pool.u);
    println!(
        "SPMD vs pool-path solution: max relative difference {d:e} (bound {SPMD_CROSS_CHECK:e})"
    );
    if d.is_nan() || d > SPMD_CROSS_CHECK {
        chk.violation(format!(
            "SPMD and pool-path solutions differ by {d:e} relative (bound {SPMD_CROSS_CHECK:e})"
        ));
    }
}

/// Set up, make one checked warm-up call (it fills caches and starts the
/// worker pool; users of a long-lived solver do not pay for either per
/// solve), and cross-check the SPMD plate against its pool twin.
fn prepare(a: &Args) -> Result<(Runner, Vec<SetupTimes>, Checker), SparseError> {
    let w = a.workload;
    let (sys, setups) = setup(w)?;
    let mut r = Runner::new(w, sys)?;
    let mut chk = Checker::new(w.accuracy());
    let f = r.sys.rhs(w, a.seed, 0);
    let out = r.call(&f);
    chk.check(&r.sys, &f, &out);
    if r.spmd().is_some() {
        cross_check(&mut r, &mut chk, &f, &out.u);
    }
    Ok((r, setups, chk))
}

/// Timed calls on the workload's own path for `budget_s` seconds (and at
/// least [`MIN_CALLS`]), each on fresh seeded inputs and each checked.
struct Loop {
    secs: Vec<f64>,
    counts: Counts,
    /// The last call's inputs and solutions.
    last: Option<(Vec<f64>, Vec<f64>)>,
}

fn timed_loop(r: &mut Runner, chk: &mut Checker, a: &Args, first_call: u64, budget_s: f64) -> Loop {
    let start = Instant::now();
    let mut l = Loop {
        secs: Vec::new(),
        counts: Counts::default(),
        last: None,
    };
    let mut call = first_call;
    while start.elapsed().as_secs_f64() < budget_s || l.secs.len() < MIN_CALLS {
        let f = r.sys.rhs(a.workload, a.seed, call);
        let out = r.call(&f);
        chk.check(&r.sys, &f, &out);
        l.secs.push(out.secs);
        l.counts.add(&out.counts);
        l.last = Some((f, out.u));
        call += 1;
    }
    l
}

fn describe_threads(r: &Runner, counts: &Counts) -> String {
    match r.spmd() {
        Some(_) => format!("SPMD workers {} (requested {THREADS})", counts.spmd_threads),
        None => format!(
            "pool budget {}, kernel threads {}, batch lanes {}",
            par::max_threads(),
            r.kernel_threads(),
            r.lanes()
        ),
    }
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(a: &Args) -> Result<Outcome, SparseError> {
    let (mut r, setups, mut chk) = prepare(a)?;
    let l = timed_loop(&mut r, &mut chk, a, 1, a.seconds);
    if r.spmd().is_some() {
        let (f, u) = l.last.as_ref().expect("the loop makes at least one call");
        cross_check(&mut r, &mut chk, f, u);
    }

    let solve_s = median(&l.secs);
    let rhs_per_s = l.counts.rhs as f64 / l.secs.iter().sum::<f64>();
    let setup_s = stage_median(&setups, SetupTimes::total);
    let peak_rss_mb = host::peak_rss_bytes() as f64 / 1e6;

    println!("threads: {}", describe_threads(&r, &l.counts));
    println!("solve_s = {solve_s} s, median of {} calls", l.secs.len());
    match tail(&l.secs) {
        Some(t) => println!(
            "solve_s_tail = {} s at p{:.1}: {} of {} samples beyond it",
            t.value, t.percentile, t.beyond, t.samples
        ),
        None => println!(
            "solve_s_tail: no percentile of {} samples has ten beyond it; the slowest took {} s",
            l.secs.len(),
            l.secs.iter().copied().fold(0.0, f64::max)
        ),
    }
    println!(
        "rhs_per_s = {rhs_per_s} 1/s over {} right-hand sides",
        l.counts.rhs
    );
    println!("setup_s = {setup_s} s, median of {} set-ups", setups.len());
    println!("peak_rss_mb = {peak_rss_mb} MB");
    println!(
        "rel_residual = {:e}: worst true ‖f − K·u‖/‖f‖ of {} checked solves (bound {:e})",
        chk.worst,
        chk.attempted,
        a.workload.accuracy()
    );
    println!(
        "failed_frac = {}: {} of {} solves failed",
        chk.failed as f64 / chk.attempted as f64,
        chk.failed,
        chk.attempted
    );
    Ok(Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        values: vec![
            ("solve_s", solve_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
        ],
    })
}

/// Busy time, calls and computed bandwidth of one wrapped layer.
struct LayerSplit {
    calls_per_solve: f64,
    us: f64,
    gbs: f64,
    share: f64,
}

fn split(t: &Tally, bytes_per_call: f64, solves: usize, lane_seconds: f64) -> LayerSplit {
    let calls = t.calls() as f64;
    let busy = t.seconds();
    LayerSplit {
        calls_per_solve: calls / solves.max(1) as f64,
        us: busy / calls.max(1.0) * 1e6,
        gbs: calls * bytes_per_call / busy.max(1e-12) * 1e-9,
        share: busy / lane_seconds,
    }
}

/// The traced run: the per-layer metrics. Layers a workload does not run
/// report 0 (the SPMD metrics off the SPMD plate, the lane speed-up off
/// the batch workload).
pub fn traced(a: &Args) -> Result<Outcome, SparseError> {
    let w = a.workload;
    let (mut r, setups, mut chk) = prepare(a)?;
    let n = r.sys.n();
    let mut v: Vec<(&'static str, f64)> = vec![
        ("fem.assemble_s", stage_median(&setups, |t| t.assemble)),
        ("coloring.order_s", stage_median(&setups, |t| t.order)),
        ("coloring.colors", r.sys.colors.num_blocks() as f64),
        ("precond.build_s", stage_median(&setups, |t| t.build)),
        ("lanczos.s", probes::lanczos_s(&r.sys.matrix)?),
    ];

    // The SPMD plate first times its own solves: the SPMD counters and the
    // base of every SPMD ratio.
    let spmd_loop = r
        .spmd()
        .is_some()
        .then(|| timed_loop(&mut r, &mut chk, a, 1, 0.35 * a.seconds));

    // Pairs of untraced and traced pool-path calls on the same inputs:
    // the pairing cancels drift in the machine's speed out of
    // `trace.overhead`, and the traced solution must equal the untraced
    // one bitwise.
    let pair_share = match w {
        Workload::SsorSpmd => 0.35,
        Workload::Defaults => 0.7,
        Workload::Loadcases => 0.6,
    };
    let tallies = Tallies::default();
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut traced_counts = Counts::default();
    let start = Instant::now();
    let mut call = 1_000_000;
    while start.elapsed().as_secs_f64() < pair_share * a.seconds || plain_secs.len() < MIN_CALLS {
        let f = r.sys.rhs(w, a.seed, call);
        let plain = r.pool_call(&f, None);
        chk.check(&r.sys, &f, &plain);
        let traced = r.pool_call(&f, Some(&tallies));
        chk.check(&r.sys, &f, &traced);
        if plain
            .u
            .iter()
            .zip(&traced.u)
            .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            chk.violation(format!(
                "call {call}: the traced solve is not bitwise the untraced one"
            ));
        }
        plain_secs.push(plain.secs);
        traced_secs.push(traced.secs);
        traced_counts.add(&traced.counts);
        call += 1;
    }

    let triad_bytes =
        host::llc().map_or(TRIAD_CAP_BYTES, |(_, llc)| (4 * llc).min(TRIAD_CAP_BYTES));
    let triad = probes::triad(triad_bytes);
    let triad_for = |threads: usize| {
        if threads > 1 {
            triad.gbs_t2
        } else {
            triad.gbs_t1
        }
    };
    let nnz = r.sys.matrix.nnz() as f64;
    let lane_seconds = traced_secs.iter().sum::<f64>() * r.lanes() as f64;
    let spmv = split(
        &tallies.spmv,
        spmv_bytes(n as f64, nnz),
        traced_counts.rhs,
        lane_seconds,
    );
    let msolve = split(
        &tallies.msolve,
        r.msolve_bytes(),
        traced_counts.rhs,
        lane_seconds,
    );
    let (fused_us, dot_us) = probes::vecops_us(n);
    let iterations = spmd_loop.as_ref().map_or(traced_counts, |l| l.counts);
    v.extend([
        ("spmv.calls_per_solve", spmv.calls_per_solve),
        ("spmv.us", spmv.us),
        ("spmv.gbs", spmv.gbs),
        (
            "spmv.pct_triad",
            100.0 * spmv.gbs / triad_for(r.kernel_threads()),
        ),
        ("spmv.share", spmv.share),
        ("msolve.calls_per_solve", msolve.calls_per_solve),
        ("msolve.us", msolve.us),
        ("msolve.gbs", msolve.gbs),
        ("msolve.share", msolve.share),
        (
            "pcg.iterations",
            iterations.iterations as f64 / iterations.rhs.max(1) as f64,
        ),
        (
            "pcg.reductions_per_iter",
            traced_counts.per_iter(traced_counts.reduction_phases),
        ),
        (
            "pcg.inner_products_per_iter",
            traced_counts.per_iter(traced_counts.inner_products),
        ),
        ("pcg.fallbacks", traced_counts.fallbacks as f64),
        ("pcg.audits", traced_counts.audits as f64),
        ("pcg.self_share", 1.0 - spmv.share - msolve.share),
        ("vecops.fused_update_us", fused_us),
        ("vecops.dot_us", dot_us),
        ("par.triad_gbs_t1", triad.gbs_t1),
        ("par.triad_gbs_t2", triad.gbs_t2),
        ("par.fork_join_us", probes::fork_join_us()),
        (
            "trace.overhead",
            median(&traced_secs) / median(&plain_secs) - 1.0,
        ),
    ]);

    // Standalone solves of single load cases: the base of the batch's
    // lane speed-up.
    let lane_speedup = if w == Workload::Loadcases {
        let start = Instant::now();
        let mut single = Vec::new();
        let mut call = 2_000_000;
        while start.elapsed().as_secs_f64() < 0.15 * a.seconds || single.len() < MIN_CALLS {
            let f = r.sys.rhs(w, a.seed, call);
            let out = r.pool_call(&f[..n], None);
            chk.check(&r.sys, &f[..n], &out);
            single.push(out.secs);
            call += 1;
        }
        LOAD_CASES as f64 * median(&single) / median(&plain_secs)
    } else {
        0.0
    };
    v.push(("multi.lane_speedup", lane_speedup));

    let crossing_ns = probes::barrier_crossing_ns();
    v.push(("barrier.crossing_ns", crossing_ns));
    let spmd = match (r.spmd(), &spmd_loop) {
        (Some(spmd), Some(l)) => {
            let spmd_s = median(&l.secs);
            // Thread spawn and set-up: a solve cut off after one iteration
            // (it reports budget exhaustion, which is the point).
            let f = r.sys.rhs(w, a.seed, 3_000_000);
            let one_iteration = mspcg::parallel::ParallelSolverOptions {
                max_iterations: 1,
                ..spmd_options(THREADS)
            };
            let fixed_s = median(
                &(0..15)
                    .map(|_| {
                        let start = Instant::now();
                        std::hint::black_box(spmd.solve(&f, &one_iteration).ok());
                        start.elapsed().as_secs_f64()
                    })
                    .collect::<Vec<_>>(),
            );
            let t1: Vec<f64> = (0..3)
                .map(|i| {
                    let f = r.sys.rhs(w, a.seed, 4_000_000 + i);
                    let out = spmd_call(spmd, &f, &spmd_options(1));
                    chk.check(&r.sys, &f, &out);
                    out.secs
                })
                .collect();
            let t1_s = median(&t1);
            let c = &l.counts;
            [
                c.per_iter(c.barrier_crossings),
                c.per_iter(c.reduction_phases),
                c.per_iter(c.split_crossings),
                fixed_s * 1e3,
                t1_s,
                t1_s / spmd_s,
                median(&plain_secs) / spmd_s,
                c.barrier_crossings as f64 / c.rhs as f64 * crossing_ns * 1e-9 / spmd_s,
            ]
        }
        _ => [0.0; 8],
    };
    v.extend(
        [
            "spmd.barriers_per_iter",
            "spmd.reductions_per_iter",
            "spmd.splits_per_iter",
            "spmd.fixed_ms",
            "spmd.t1_solve_s",
            "spmd.speedup_2v1",
            "spmd.vs_pool",
            "barrier.est_share",
        ]
        .into_iter()
        .zip(spmd),
    );

    println!(
        "threads: {}",
        describe_threads(&r, spmd_loop.as_ref().map_or(&traced_counts, |l| &l.counts))
    );
    println!("pool-path preconditioner: {:?}", r.pool_precond());
    match host::llc() {
        Some((level, llc)) => println!(
            "triad: 3 arrays of {} MiB each; reported LLC L{level} {} MiB{}",
            triad.array_bytes >> 20,
            llc >> 20,
            if triad.array_bytes < 4 * llc {
                format!(
                    " (4 x LLC would be {} MiB per array; capped)",
                    (4 * llc) >> 20
                )
            } else {
                String::new()
            }
        ),
        None => println!(
            "triad: 3 arrays of {} MiB each; LLC not reported",
            triad.array_bytes >> 20
        ),
    }
    println!(
        "spmv.gbs and msolve.gbs are computed bytes per call over busy time, not measured traffic"
    );
    if r.spmd().is_some() {
        println!(
            "stand-in: the SPMD solver keeps no operator to wrap, so spmv.*, msolve.*, pcg.* \
             (except pcg.iterations) and trace.overhead come from the pool-path solve of the same \
             configuration; spmd.*, barrier.* come from the SPMD solver"
        );
    }
    Ok(Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        values: v,
    })
}
