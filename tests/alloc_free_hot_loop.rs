//! The zero-allocation contract of the PCG hot loop, verified with a
//! counting global allocator: after a [`PcgWorkspace`] is constructed (and
//! warmed once), repeated `pcg_solve_into` calls — the ω-sweep pattern —
//! perform **no heap allocation at all**, audited or not, and so does a
//! warm `pcg_solve_multi` batch. Both run the
//! unparametrized m-step SSOR and the `Auto`-built plate preconditioner
//! (fitted m-step SSOR).
//!
//! Only allocations made on the measuring test thread and on the pool
//! workers count: the harness's own threads (result printing, other
//! tests' set-up) allocate whenever they like.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{pcg_solve_into, PcgOptions, PcgWorkspace};
use mspcg::core::poly::{auto_preconditioner, AutoPreconditioner};
use mspcg::core::preconditioner::Preconditioner;
use mspcg::core::recovery::RecoveryPolicy;
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::{par, tuning, CooMatrix, CsrMatrix, Partition, PrecondKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// System allocator that counts allocation events made on threads whose
/// [`COUNTED`] flag is set.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. A `const` `Cell<bool>`
    /// needs no allocation and no destructor, so the allocator may read it
    /// at any point of a thread's life.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn record() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Start counting on the calling test thread and on every pool worker:
/// one launch of `P` chunks on `P` participants, `P` the pool's capacity,
/// runs exactly one chunk on each participant. The workers stay counted
/// for the rest of the process, which is why the tests also hold
/// [`measure_lock`].
fn count_this_thread_and_the_pool() {
    let p = par::pool_capacity();
    par::for_each_chunk(p, p, &|_| COUNTED.with(|c| c.set(true)));
    COUNTED.with(|c| c.set(true));
}

/// The pool workers are shared by every test of this file, so one test's
/// set-up could run kernels in the other's measured window: the tests of
/// this file run one at a time.
fn measure_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `Auto`-built preconditioner of the `a`-plate, with the plate's
/// matrix, colors and load: the fitted m-step SSOR.
fn auto_plate(a: usize) -> (Arc<CsrMatrix>, Arc<Partition>, Vec<f64>, AutoPreconditioner) {
    let ord = PlaneStressProblem::unit_square(a)
        .assemble()
        .unwrap()
        .multicolor()
        .unwrap();
    let pre = auto_preconditioner(&ord.matrix, &ord.colors, 2, PrecondKind::Auto).unwrap();
    match &pre {
        AutoPreconditioner::MStepSsor(p) => assert!(p.interval().is_some(), "fitted"),
        AutoPreconditioner::Poly(_) => panic!("Auto must build the m-step SSOR"),
    }
    (Arc::new(ord.matrix), Arc::new(ord.colors), ord.rhs, pre)
}

/// Unaudited and audited (every 4 iterations, so even a short solve
/// audits). The first solve of a configuration sizes the workspace slots
/// only it uses (the audit vector); every later solve on that workspace
/// must reuse them.
fn configurations() -> [PcgOptions; 2] {
    let audited = RecoveryPolicy {
        audit_period: 4,
        ..RecoveryPolicy::on()
    };
    [RecoveryPolicy::default(), audited].map(|recovery| PcgOptions {
        tol: 1e-9,
        recovery,
        ..Default::default()
    })
}

/// Red/black 1-D Laplacian in color-blocked form.
fn rb_laplacian(n: usize) -> (CsrMatrix, Partition) {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        a.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            a.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    let a = a.to_csr();
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
    (ord.permute_matrix(&a).unwrap(), ord.partition)
}

#[test]
fn omega_sweep_solves_allocate_nothing_after_workspace_construction() {
    let _guard = measure_lock();
    count_this_thread_and_the_pool();
    let n = 256usize;
    let (a, p) = rb_laplacian(n);
    let matrix = Arc::new(a);
    let colors = Arc::new(p);
    let rhs: Vec<f64> = (0..n)
        .map(|i| ((i * 7 + 3) % 23) as f64 * 0.1 - 1.0)
        .collect();
    let configs = configurations();

    // Preconditioner construction allocates (splitting tables, coefficient
    // vectors) — that is setup, not the hot loop.
    let omegas = [0.6, 0.8, 1.0, 1.2, 1.4];
    let pres: Vec<_> = omegas
        .iter()
        .map(|&w| {
            MStepSsorPreconditioner::unparametrized_omega_shared(
                Arc::clone(&matrix),
                Arc::clone(&colors),
                2,
                w,
            )
            .unwrap()
        })
        .collect();

    let mut ws = PcgWorkspace::new(n);
    let mut u = vec![0.0; n];

    // Warm every configuration once on the shared workspace (the first
    // call may also fault in lazily initialized runtime state).
    for opts in &configs {
        u.fill(0.0);
        let warm = pcg_solve_into(&matrix, &rhs, &mut u, &pres[0], opts, &mut ws).unwrap();
        assert!(warm.converged);
        assert_eq!(warm.stats.audits > 0, opts.recovery.replacement);
    }

    for opts in &configs {
        let mut iteration_total = 0usize;
        let before = allocation_count();
        for pre in &pres {
            u.fill(0.0);
            let rep = pcg_solve_into(&matrix, &rhs, &mut u, pre, opts, &mut ws).unwrap();
            assert!(rep.converged);
            iteration_total += rep.iterations;
        }
        let after = allocation_count();
        assert!(iteration_total > 0);
        assert_eq!(
            after - before,
            0,
            "audit {:?}: PCG hot loop allocated {} time(s) across {} ω-sweep solves",
            opts.recovery.replacement,
            after - before,
            omegas.len()
        );
    }

    // The `Auto`-built plate preconditioner, on a plate whose SpMV runs on
    // the pool (more stored entries than `tuning::par_min_nnz`).
    let (matrix, _, rhs, pre) = auto_plate(32);
    assert!(matrix.nnz() >= tuning::par_min_nnz());
    let n = matrix.rows();
    let mut ws = PcgWorkspace::new(n);
    let mut u = vec![0.0; n];
    for opts in &configs {
        u.fill(0.0);
        let warm = pcg_solve_into(&matrix, &rhs, &mut u, &pre, opts, &mut ws).unwrap();
        assert!(warm.converged);
    }
    for opts in &configs {
        u.fill(0.0);
        let before = allocation_count();
        let rep = pcg_solve_into(&matrix, &rhs, &mut u, &pre, opts, &mut ws).unwrap();
        let after = allocation_count();
        assert!(rep.converged && rep.iterations > 0);
        assert_eq!(
            after - before,
            0,
            "audit {:?}: Auto-preconditioned solve allocated {} time(s)",
            opts.recovery.replacement,
            after - before
        );
    }
}

#[test]
fn multi_rhs_batch_solves_allocate_nothing_after_workspace_construction() {
    // The batched solver's contract: 32 load cases against one plate
    // stiffness matrix, zero heap allocation per batch once the workspace
    // is warm, for the unparametrized m-step SSOR and the `Auto` choice.
    let _guard = measure_lock();
    count_this_thread_and_the_pool();
    let nrhs = 32usize;
    let (matrix, colors, rhs, auto) = auto_plate(10);
    let n = matrix.rows();
    let unit =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), 2)
            .unwrap();
    // 32 load cases: the assembled edge load under per-case scale factors.
    let f: Vec<f64> = (0..nrhs)
        .flat_map(|j| {
            let scale = 1.0 + 0.1 * j as f64;
            rhs.iter().map(move |v| v * scale)
        })
        .collect();
    let mut ws = MultiRhsWorkspace::new(n, nrhs);
    batches_allocate_nothing("α = 1", &matrix, &f, &unit, &mut ws);
    batches_allocate_nothing("Auto", &matrix, &f, &auto, &mut ws);
}

/// Warm every configuration once on `ws` — which sizes every lane
/// workspace (including the per-lane preconditioner scratch) and the
/// outcome table — then assert that one more batch per configuration
/// allocates nothing.
fn batches_allocate_nothing<P: Preconditioner + Sync>(
    name: &str,
    matrix: &CsrMatrix,
    f: &[f64],
    pre: &P,
    ws: &mut MultiRhsWorkspace,
) {
    let n = matrix.rows();
    let nrhs = f.len() / n;
    let mut u = vec![0.0; f.len()];
    let configs = configurations();
    for opts in &configs {
        u.fill(0.0);
        let warm = pcg_solve_multi(matrix, f, &mut u, pre, opts, ws).unwrap();
        assert_eq!(warm.converged, nrhs, "{name}");
        let audited = opts.recovery.replacement;
        assert!(
            ws.outcomes()
                .iter()
                .all(|o| (o.report.stats.audits > 0) == audited),
            "{name}"
        );
    }
    for opts in &configs {
        u.fill(0.0);
        let before = allocation_count();
        let sum = pcg_solve_multi(matrix, f, &mut u, pre, opts, ws).unwrap();
        let after = allocation_count();
        assert_eq!(sum.converged, nrhs);
        assert!(sum.total_iterations > 0);
        assert_eq!(
            after - before,
            0,
            "{name}, audit {:?}: multi-RHS batch allocated {} time(s) across {} solves",
            opts.recovery.replacement,
            after - before,
            nrhs
        );
    }
}
