//! The zero-allocation contract of the PCG hot loop, verified with a
//! counting global allocator: after a [`PcgWorkspace`] is constructed (and
//! warmed once), repeated `pcg_solve_into` calls — the ω-sweep pattern —
//! perform **no heap allocation at all**, for every variant, audited or
//! not.

use mspcg::coloring::Coloring;
use mspcg::core::mstep::MStepSsorPreconditioner;
use mspcg::core::multi::{pcg_solve_multi, MultiRhsWorkspace};
use mspcg::core::pcg::{pcg_solve_into, PcgOptions, PcgWorkspace};
use mspcg::core::recovery::{RecoveryPolicy, Toggle};
use mspcg::fem::plate::PlaneStressProblem;
use mspcg::sparse::{CooMatrix, CsrMatrix, Partition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

mod common;
use common::ALL_VARIANTS;

/// System allocator with an allocation-event counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// The counter is process wide and the test harness runs tests on
/// parallel threads, so one test's setup would land in the other's
/// measured window: the tests of this file run one at a time.
fn measure_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every variant, unaudited and audited (every 4 iterations, so even a
/// short solve audits). The first solve of a configuration sizes the
/// workspace slots only it uses (the audit vector); every later solve on
/// that workspace must reuse them.
fn configurations() -> Vec<PcgOptions> {
    let audited = RecoveryPolicy {
        audit_period: 4,
        ..RecoveryPolicy::on()
    };
    ALL_VARIANTS
        .into_iter()
        .flat_map(|variant| {
            [RecoveryPolicy::off(), audited].map(|recovery| PcgOptions {
                tol: 1e-9,
                variant,
                recovery,
                ..Default::default()
            })
        })
        .collect()
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
        assert!(warm.converged, "{:?}", opts.variant);
        let audited = opts.recovery.replacement == Toggle::On;
        assert_eq!(warm.stats.audits > 0, audited, "{:?}", opts.variant);
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
            "{:?}, audit {:?}: PCG hot loop allocated {} time(s) across {} ω-sweep solves",
            opts.variant,
            opts.recovery.replacement,
            after - before,
            omegas.len()
        );
    }
}

#[test]
fn multi_rhs_batch_solves_allocate_nothing_after_workspace_construction() {
    // The batched solver's contract: 32 load cases against one plate
    // stiffness matrix, zero heap allocation per batch once the workspace
    // is warm.
    let _guard = measure_lock();
    let nrhs = 32usize;
    let asm = PlaneStressProblem::unit_square(10).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    let n = ord.matrix.rows();
    let matrix = Arc::new(ord.matrix);
    let colors = Arc::new(ord.colors);
    let pre =
        MStepSsorPreconditioner::unparametrized_shared(Arc::clone(&matrix), Arc::clone(&colors), 2)
            .unwrap();
    // 32 load cases: the assembled edge load under per-case scale factors.
    let f: Vec<f64> = (0..nrhs)
        .flat_map(|j| {
            let scale = 1.0 + 0.1 * j as f64;
            ord.rhs.iter().map(move |v| v * scale)
        })
        .collect();
    let mut u = vec![0.0; nrhs * n];
    let configs = configurations();
    let mut ws = MultiRhsWorkspace::new(n, nrhs);

    // Warm every configuration once: sizes every lane workspace (including
    // the per-lane preconditioner scratch) and the outcome table.
    for opts in &configs {
        u.fill(0.0);
        let warm = pcg_solve_multi(&matrix, &f, &mut u, &pre, opts, &mut ws).unwrap();
        assert_eq!(warm.converged, nrhs, "{:?}", opts.variant);
        let audited = opts.recovery.replacement == Toggle::On;
        assert!(
            ws.outcomes()
                .iter()
                .all(|o| (o.report.stats.audits > 0) == audited),
            "{:?}",
            opts.variant
        );
    }

    for opts in &configs {
        u.fill(0.0);
        let before = allocation_count();
        let sum = pcg_solve_multi(&matrix, &f, &mut u, &pre, opts, &mut ws).unwrap();
        let after = allocation_count();
        assert_eq!(sum.converged, nrhs);
        assert!(sum.total_iterations > 0);
        assert_eq!(
            after - before,
            0,
            "{:?}, audit {:?}: multi-RHS batch allocated {} time(s) across {} solves",
            opts.variant,
            opts.recovery.replacement,
            after - before,
            nrhs
        );
    }
}
