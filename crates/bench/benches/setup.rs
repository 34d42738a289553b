//! Set-up bench: what a plate solve pays before its first iteration, on
//! the a = 24 plate (the load-case workload's) and the a = 100 plate (the
//! paper's Table-3 plate). Rows per plate:
//!
//! * `assemble` — [`PlaneStressProblem::assemble`], the slot assembly of
//!   the reduced stiffness matrix;
//! * `multicolor` — [`AssembledProblem::multicolor`], the six-color
//!   ordering and the permuted matrix;
//! * `ssor_new` — [`MulticolorSsor::new`] on the shared ordered system:
//!   the sweep table and its sliced half-rows;
//! * `spmd_setup` — the three stages of a whole SPMD set-up: assembly,
//!   ordering and [`ParallelMStepPcg::shared`] at α = 1, m = 2.
//!
//! Each row reports its first call in a fresh process (cold: the process
//! re-runs itself once per row, with untimed inputs built first) and the
//! median of its warm calls here, each with the minor page faults it took
//! (from `/proc/self/stat`; "n/a" where that file is not readable). A
//! build's result is dropped before the next build starts, outside the
//! clock. A fresh page costs about as much as the work that fills it, so
//! the fault counts explain the cold-to-warm gap.
//!
//! The run asserts that the a = 24 assembly is bitwise a triplet assembly
//! through [`CooMatrix::to_csr`].
//!
//! Run: `cargo bench -p mspcg-bench --bench setup` (add `-- --json FILE`
//! to keep the numbers; CI runs it for the in-run assert only).

use mspcg_bench::timing::{budget_nanos, finish, fmt_ns, BenchResult};
use mspcg_core::ssor::MulticolorSsor;
use mspcg_fem::element::cst_stiffness;
use mspcg_fem::plate::{AssembledProblem, PlaneStressProblem};
use mspcg_parallel::ParallelMStepPcg;
use mspcg_sparse::{par, CooMatrix, CsrMatrix};
use std::any::Any;
use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const PLATES: [usize; 2] = [24, 100];
const ROWS: [&str; 4] = ["assemble", "multicolor", "ssor_new", "spmd_setup"];

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`), or `None` where that file is not readable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces: count from its `)`.
    let fields = &stat[stat.rfind(')')? + 1..];
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// One call of `f`: its result, nanoseconds and minor faults (NaN where
/// they are not readable).
fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = minor_faults();
    let start = Instant::now();
    let out = black_box(f());
    let ns = start.elapsed().as_nanos() as f64;
    let faults = before
        .zip(minor_faults())
        .map_or(f64::NAN, |(b, a)| (a - b) as f64);
    (out, ns, faults)
}

/// Row `row` on the a = `a` plate: its inputs, built here untimed, and
/// the timed call on them. The call returns its build, so that the
/// caller drops it outside the clock.
fn row_call(a: usize, row: &str) -> Box<dyn FnMut() -> Box<dyn Any>> {
    let plate = PlaneStressProblem::unit_square(a);
    match row {
        "assemble" => Box::new(move || Box::new(plate.assemble().expect("plate"))),
        "multicolor" => {
            let asm = plate.assemble().expect("plate");
            Box::new(move || Box::new(asm.multicolor().expect("ordering")))
        }
        "ssor_new" => {
            let ord = plate
                .assemble()
                .and_then(|p| p.multicolor())
                .expect("ordering");
            let (matrix, colors) = (Arc::new(ord.matrix), Arc::new(ord.colors));
            Box::new(move || {
                let table = MulticolorSsor::new(Arc::clone(&matrix), Arc::clone(&colors), 1.0);
                Box::new(table.expect("sweep table"))
            })
        }
        "spmd_setup" => Box::new(move || {
            let ord = plate
                .assemble()
                .and_then(|p| p.multicolor())
                .expect("ordering");
            let colors = Arc::new(ord.colors);
            let spmd = ParallelMStepPcg::shared(&ord.matrix, colors, vec![1.0; 2]);
            Box::new((ord.matrix, spmd.expect("SPMD solver")))
        }),
        _ => panic!("unknown set-up row {row}"),
    }
}

/// The first call of `row` in a fresh process: this bench re-run with
/// `--cold a row`, which prints the call's nanoseconds and faults.
fn cold(a: usize, row: &str) -> (f64, f64) {
    let exe = std::env::current_exe().expect("bench executable");
    let out = Command::new(exe)
        .args(["--cold", &a.to_string(), row])
        .output()
        .expect("cold set-up process");
    assert!(out.status.success(), "cold {row} on a = {a} failed");
    let line = String::from_utf8(out.stdout).expect("cold output");
    let fields: Vec<f64> = line
        .split_whitespace()
        .map(|f| f.parse().expect("cold figure"))
        .collect();
    (fields[0], fields[1])
}

/// The child side of [`cold`].
fn run_cold(args: &[String]) {
    let a = args[0].parse().expect("plate size");
    let mut call = row_call(a, &args[1]);
    let (build, ns, faults) = measure(&mut call);
    drop(build);
    println!("{ns} {faults}");
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn faults_text(f: f64) -> String {
    if f.is_nan() {
        "n/a".to_string()
    } else {
        format!("{f:.0}")
    }
}

/// Cold call, then warm calls until the time budget is spent (at least
/// 5) after one untimed warm-up.
fn bench_row(a: usize, row: &str) -> BenchResult {
    let (first_ns, first_faults) = cold(a, row);
    let mut call = row_call(a, row);
    drop(call());
    let (budget, mut total) = (budget_nanos() as f64, 0.0);
    let (mut times, mut faults) = (Vec::new(), Vec::new());
    while times.len() < 5 || (total < budget && times.len() < 1000) {
        let (build, ns, f) = measure(&mut call);
        drop(build);
        total += ns;
        times.push(ns);
        faults.push(f);
    }
    let (warm_ns, warm_faults) = (median(times.clone()), median(faults));
    let result = BenchResult {
        group: format!("setup_plate{a}"),
        label: row.to_string(),
        samples: times.len() as u64,
        mean_ns: total / times.len() as f64,
        min_ns: times.iter().copied().fold(f64::INFINITY, f64::min),
        threads: par::max_threads(),
        extras: Vec::new(),
    };
    println!(
        "{:<28} first {:>11} ({:>5} faults)   warm median {:>11} ({:>5} faults)  ({} samples)",
        result.id(),
        fmt_ns(first_ns),
        faults_text(first_faults),
        fmt_ns(warm_ns),
        faults_text(warm_faults),
        result.samples,
    );
    result
        .with_extra("first_ns", first_ns)
        .with_extra("median_ns", warm_ns)
        .with_extra("first_minflt", first_faults)
        .with_extra("median_minflt", warm_faults)
}

/// A triplet assembly: every nonzero entry of two free dofs pushed in
/// element order, duplicates summed in push order by
/// [`CooMatrix::to_csr`].
fn triplet_reference(plate: &PlaneStressProblem, asm: &AssembledProblem) -> CsrMatrix {
    let (mesh, free) = (plate.mesh, &asm.free_map);
    let n = free.num_free();
    let mut coo = CooMatrix::with_capacity(n, n, mesh.num_triangles() * 36);
    for tri in mesh.triangles() {
        let [p0, p1, p2] = tri.map(|node| mesh.node_coords(node));
        let ke = cst_stiffness(p0, p1, p2, &plate.material);
        for (r, c) in (0..6).flat_map(|r| (0..6).map(move |c| (r, c))) {
            let (gi, gj) = (2 * tri[r / 2] + r % 2, 2 * tri[c / 2] + c % 2);
            if let (Some(i), Some(j), true) = (
                free.full_to_reduced(gi),
                free.full_to_reduced(gj),
                ke[r][c] != 0.0,
            ) {
                coo.push(i, j, ke[r][c]).expect("in range");
            }
        }
    }
    coo.to_csr()
}

fn assert_assembly_is_the_triplet_reference(a: usize) {
    let plate = PlaneStressProblem::unit_square(a);
    let asm = plate.assemble().expect("plate");
    let want = triplet_reference(&plate, &asm);
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        asm.matrix.row_ptr(),
        want.row_ptr(),
        "a = {a}: row pointers"
    );
    assert_eq!(asm.matrix.col_idx(), want.col_idx(), "a = {a}: columns");
    assert!(bits(&asm.matrix) == bits(&want), "a = {a}: value bits");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|arg| arg == "--cold") {
        run_cold(&args[at + 1..]);
        return;
    }
    assert_assembly_is_the_triplet_reference(24);
    let mut results = Vec::new();
    for a in PLATES {
        for row in ROWS {
            results.push(bench_row(a, row));
        }
    }
    finish(&results);
}
