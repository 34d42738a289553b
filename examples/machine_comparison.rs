//! Three machines, one algorithm: solve with the m-step SSOR PCG once,
//! price that solve on the simulated CYBER 203 pipeline and the simulated
//! Finite Element Machine array, run it on the host machine's real
//! threads — and compare where each spends its time.
//!
//! ```sh
//! cargo run --release --example machine_comparison [a]
//! ```

use mspcg::core::{pcg_solve, MStepSsorPreconditioner, PcgOptions};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::machine::array::run_fem_machine;
use mspcg::machine::vector::run_cyber_pcg;
use mspcg::machine::{ArrayMachineParams, ProcessorAssignment, VectorMachineParams};
use mspcg::parallel::{ParallelMStepPcg, ParallelSolverOptions};
use std::time::Instant;

fn main() {
    let a = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(56usize);
    let m = 3usize;
    let asm = PlaneStressProblem::unit_square(a)
        .assemble()
        .expect("assembly");
    let ord = asm.multicolor().expect("ordering");
    println!(
        "plate a = {a} ({} unknowns), preconditioner: {m}-step parametrized SSOR\n",
        asm.num_unknowns()
    );

    // One solve (the default options stop at ‖Δu‖∞ < 1e-6), priced on
    // both 1983 machines.
    let pre = MStepSsorPreconditioner::parametrized(&ord.matrix, &ord.colors, m).expect("fit");
    let sol = pcg_solve(&ord.matrix, &ord.rhs, &pre, &PcgOptions::default()).expect("solve");
    let (iterations, steps) = (sol.iterations, sol.stats.precond_steps);

    // --- CYBER 203 (simulated pipeline) ---------------------------------
    let cyber = run_cyber_pcg(
        &asm,
        &ord,
        iterations,
        steps,
        &VectorMachineParams::default(),
    );
    println!("CYBER 203 (simulated):");
    println!(
        "  {} iterations, {:.4} modelled s (max vector length {})",
        cyber.iterations, cyber.seconds, cyber.max_vector_length
    );
    println!(
        "  breakdown: spmv {:.1}%, dots {:.1}%, updates {:.1}%, precond {:.1}%",
        100.0 * cyber.breakdown.spmv / cyber.seconds,
        100.0 * cyber.breakdown.dots / cyber.seconds,
        100.0 * (cyber.breakdown.updates + cyber.breakdown.convergence) / cyber.seconds,
        100.0 * cyber.breakdown.preconditioner / cyber.seconds
    );

    // --- Finite Element Machine (simulated array) ------------------------
    let aparams = ArrayMachineParams::default();
    println!("\nFinite Element Machine (simulated):");
    let mut t1 = 0.0;
    for p in [1usize, 2, 5] {
        let strips = ProcessorAssignment::strips(&asm, p).expect("assignment");
        let rep = run_fem_machine(&asm, &ord, iterations, steps, &strips, &aparams);
        if p == 1 {
            t1 = rep.seconds;
        }
        println!(
            "  {p} proc(s): {:8.2} modelled s   speedup {:.2}   overhead {:.1}%",
            rep.seconds,
            t1 / rep.seconds,
            100.0 * rep.breakdown.overhead_fraction()
        );
    }

    // --- this machine (real threads) --------------------------------------
    // Standard output holds what every run reproduces bit for bit: the
    // solver's iterations and barrier crossings at each worker count. The
    // real seconds, speedups and core count go to standard error.
    println!("\nhost machine (real threads, SPMD with barriers):");
    let solver = ParallelMStepPcg::new(&ord.matrix, &ord.colors, vec![1.0; m]).expect("solver");
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4] {
        let opts = ParallelSolverOptions {
            threads,
            tol: 1e-6,
            max_iterations: 50_000,
            ..Default::default()
        };
        // Warm up once, then time a few repeats.
        let rep = solver.solve(&ord.rhs, &opts).expect("solve");
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = solver.solve(&ord.rhs, &opts).expect("solve");
        }
        let secs = t0.elapsed().as_secs_f64() / reps as f64;
        if threads == 1 {
            base = secs;
        }
        // The workers that ran: a build without `par` runs one.
        println!(
            "  {} worker(s): {} iterations, {} barrier crossings",
            rep.threads, rep.iterations, rep.barrier_crossings
        );
        eprintln!(
            "  {} worker(s): {:9.4} real s   speedup {:.2}",
            rep.threads,
            secs,
            base / secs
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!("\nNote: this host reports {cores} CPU core(s). Each worker owns an equal");
    eprintln!("chunk of every color (the §3.2 node assignment), so every color phase");
    eprintln!("is shared by all workers. Speedup is bounded by the physical cores,");
    eprintln!("by the memory bandwidth they share, and by one barrier per color phase,");
    eprintln!("which dominates when a worker's chunk of a color is small (small plates,");
    eprintln!("many workers) — the surface-to-volume economics of the Finite Element");
    eprintln!("Machine.");
}
