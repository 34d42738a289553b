//! The CSR row kernel that every SpMV range kernel runs on, and the SSOR
//! color-phase kernel both executors sweep with, read `x[col]` without a
//! per-entry bounds check. These tests pin what that rests on:
//!
//! * xorshift property loops over random CSR matrices (empty rows,
//!   one-entry rows, rows longer than 64 entries, non-square shapes) and
//!   random color-blocked ones check the range kernels and the
//!   color-phase sweeps (both half-sums included) **bitwise** against
//!   naive loops kept here, with `x` holding ±0.0, NaN and ±∞ (a NaN
//!   result need only be a NaN: see [`same_value`]);
//! * the same kernels on blocks of 1 to 8 interleaved right-hand sides —
//!   the CSR block SpMV and the trait's column-by-column default, the
//!   color-phase sweep and the block msolve, the BLAS-1 updates and
//!   reductions — give every column bitwise its width-1 result, on the
//!   same special values;
//! * an `x` of the wrong length panics instead of being read;
//! * an operator whose `visit_row` breaks its contract (a column past
//!   `cols()`, unsorted columns) is refused with a [`SparseError`] by
//!   both SSOR constructors, before any table is built on it.

use mspcg::coloring::Coloring;
use mspcg::core::ssor::{owned_chunk, Sweep};
use mspcg::core::{MulticolorSsor, SweepTable};
use mspcg::parallel::ParallelMStepPcg;
use mspcg::sparse::par::{self, ParSlice};
use mspcg::sparse::{CooMatrix, CsrMatrix, Partition, SparseError, SparseOp};
use std::ops::Range;
use std::sync::Arc;

mod common;
use common::Rng;

/// Cases per property.
const CASES: u64 = 40;

/// The reference: `Σ values[k]·x[col_idx[k]]` over `entries`, summed in
/// ascending order from `0.0` with checked indexing.
fn naive(a: &CsrMatrix, entries: Range<usize>, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for k in entries {
        acc += a.values()[k] * x[a.col_idx()[k] as usize];
    }
    acc
}

/// Bit for bit, signed zeros included — except that a NaN reference needs
/// only a NaN: Rust leaves the sign and payload of a NaN result
/// unspecified, and optimized code may commute `acc + v·x`, so the kernels
/// and the naive loops may return different NaNs for the same sum.
fn same_value(got: f64, want: f64) -> bool {
    if want.is_nan() {
        got.is_nan()
    } else {
        got.to_bits() == want.to_bits()
    }
}

/// A value of `x`: mostly finite, with probability `special` one of
/// ±0.0, NaN, ±∞.
fn draw(rng: &mut Rng, special: f64) -> f64 {
    if rng.unit() < special {
        [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.range(0, 5)]
    } else {
        rng.unit() * 4.0 - 2.0
    }
}

/// A stored value: finite, occasionally a signed zero.
fn value(rng: &mut Rng) -> f64 {
    match rng.range(0, 16) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.unit() * 2.0 - 1.0,
    }
}

/// `len` distinct columns from `pool`, sorted ascending.
fn pick(rng: &mut Rng, pool: &mut [u32], len: usize) -> Vec<u32> {
    for k in 0..len {
        let j = rng.range(k, pool.len());
        pool.swap(k, j);
    }
    let mut cols = pool[..len].to_vec();
    cols.sort_unstable();
    cols
}

/// A row length over `avail` candidate columns: empty, one entry, short,
/// or long (more than 64 whenever `avail` allows).
fn row_len(rng: &mut Rng, avail: usize) -> usize {
    match rng.range(0, 4) {
        0 => 0,
        1 => avail.min(1),
        2 => rng.range(0, avail.min(8) + 1),
        _ => rng.range(avail.min(65), avail + 1),
    }
}

fn random_csr(rng: &mut Rng, rows: usize, cols: usize) -> CsrMatrix {
    let mut pool: Vec<u32> = (0..cols as u32).collect();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..rows {
        let len = row_len(rng, cols);
        for c in pick(rng, &mut pool, len) {
            col_idx.push(c);
            values.push(value(rng));
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values).unwrap()
}

/// A random color-blocked matrix: each row holds its positive diagonal
/// and random couplings to columns outside its own block.
fn random_blocked(rng: &mut Rng) -> (CsrMatrix, Partition) {
    let sizes: Vec<usize> = (0..rng.range(1, 5)).map(|_| rng.range(1, 50)).collect();
    let colors = Partition::from_sizes(&sizes).unwrap();
    let n = colors.total_len();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for blk in colors.iter() {
        let mut outside: Vec<u32> = (0..n as u32)
            .filter(|&j| !blk.contains(&(j as usize)))
            .collect();
        for i in blk.clone() {
            let len = row_len(rng, outside.len());
            let mut cols = pick(rng, &mut outside, len);
            cols.push(i as u32);
            cols.sort_unstable();
            for c in cols {
                col_idx.push(c);
                values.push(if c as usize == i {
                    1.0 + rng.unit()
                } else {
                    value(rng)
                });
            }
            row_ptr.push(col_idx.len());
        }
    }
    let a = CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values).unwrap();
    (a, colors)
}

const SHAPES: [(usize, usize); 8] = [
    (0, 0),
    (1, 1),
    (5, 0),
    (7, 3),
    (3, 90),
    (40, 130),
    (120, 70),
    (90, 90),
];

#[test]
fn range_kernels_match_the_naive_loop_bitwise() {
    let mut long_rows = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0xC5 + case);
        let (rows, cols) = SHAPES[case as usize % SHAPES.len()];
        let a = random_csr(&mut rng, rows, cols);
        long_rows += (0..rows).filter(|&i| a.row_nnz(i) > 64).count();
        let special = [0.0, 0.05, 0.3][case as usize % 3];
        let x: Vec<f64> = (0..cols).map(|_| draw(&mut rng, special)).collect();
        let lo = rng.range(0, rows + 1);
        let hi = rng.range(lo, rows + 1);
        let scale = rng.unit() * 3.0 - 1.5;
        let mut y = vec![f64::NAN; hi - lo];
        a.mul_vec_range_into(&x, &mut y, lo..hi);
        let seed: Vec<f64> = (lo..hi).map(|_| draw(&mut rng, special)).collect();
        let mut acc = seed.clone();
        a.mul_vec_axpy_range(scale, &x, &mut acc, lo..hi);
        for (k, i) in (lo..hi).enumerate() {
            let row = a.row_ptr()[i]..a.row_ptr()[i + 1];
            let want = naive(&a, row, &x);
            assert!(
                same_value(y[k], want),
                "case {case} row {i}: {} vs {want}",
                y[k]
            );
            let want = seed[k] + scale * want;
            assert!(
                same_value(acc[k], want),
                "case {case} axpy row {i}: {} vs {want}",
                acc[k]
            );
        }
        // The whole-matrix drivers land on the same kernel.
        let full = a.mul_vec(&x);
        for (i, v) in full.iter().enumerate() {
            let want = naive(&a, a.row_ptr()[i]..a.row_ptr()[i + 1], &x);
            assert!(same_value(*v, want), "case {case} mul_vec row {i}");
        }
    }
    assert!(
        long_rows > 0,
        "the generator must produce rows past 64 entries"
    );
}

/// A relaxation update `(x_i, s, 1/a_ii) ↦ x_i'` as the executors pass it.
type Update = fn(f64, f64, f64, f64) -> f64;

/// The updates the executors sweep with, at relaxation factor `w`: the
/// pool path's first step from `x = 0`, its SOR(ω) step, and the SPMD
/// executor's ω = 1 form.
const UPDATES: [(&str, Update); 3] = [
    ("from zero", |w, _, s, inv| w * s * inv),
    ("sor", |w, x_i, s, inv| (1.0 - w) * x_i + w * s * inv),
    ("unit", |_, _, s, inv| s * inv),
];

/// One color phase over `blk`, row by row with checked indexing: the
/// fresh half-sum, both halves subtracted from `scale·b_i` in the order
/// lower, upper (the upper half zero when not cached), the update, and
/// the fresh half into the cache.
#[allow(clippy::too_many_arguments)]
fn naive_sweep(
    a: &CsrMatrix,
    blk: Range<usize>,
    sweep: Sweep,
    update: impl Fn(f64, f64, f64) -> f64,
    scale: f64,
    b: &[f64],
    x: &mut [f64],
    y: &mut [f64],
) {
    let snapshot = x.to_vec();
    for i in blk.clone() {
        let row = a.row_ptr()[i]..a.row_ptr()[i + 1];
        let split = |bound: usize| {
            row.start + a.col_idx()[row.clone()].partition_point(|&j| (j as usize) < bound)
        };
        let lower = naive(a, row.start..split(blk.start), &snapshot);
        let upper = naive(a, split(blk.end)..row.end, &snapshot);
        let (s, fresh) = match sweep {
            Sweep::Forward {
                cached_upper: false,
            } => (scale * b[i] - lower, lower),
            Sweep::Forward { cached_upper: true } => (scale * b[i] - lower - y[i], lower),
            Sweep::Backward => (scale * b[i] - y[i] - upper, upper),
        };
        let diag = a.values()[split(blk.start)];
        x[i] = update(x[i], s, 1.0 / diag);
        y[i] = fresh;
    }
}

#[test]
fn sweep_kernel_matches_a_naive_sweep_bitwise() {
    let sweeps = [
        Sweep::Forward {
            cached_upper: false,
        },
        Sweep::Forward { cached_upper: true },
        Sweep::Backward,
    ];
    let mut long_rows = 0;
    for case in 0..CASES / 2 {
        let mut rng = Rng::new(0x5EE9 + case);
        let (a, colors) = random_blocked(&mut rng);
        let n = a.rows();
        long_rows += (0..n).filter(|&i| a.row_nnz(i) > 64).count();
        let special = [0.0, 0.05, 0.3][case as usize % 3];
        let x0: Vec<f64> = (0..n).map(|_| draw(&mut rng, special)).collect();
        let y0: Vec<f64> = (0..n).map(|_| draw(&mut rng, special)).collect();
        let b: Vec<f64> = (0..n).map(|_| draw(&mut rng, special)).collect();
        let scale = rng.unit() * 3.0 - 1.5;
        let table = SweepTable::new(Arc::new(a.clone()), Arc::new(colors.clone())).unwrap();
        for (c, blk) in colors.iter().enumerate() {
            for sweep in sweeps {
                for (name, update) in UPDATES {
                    for w in [1.0, 0.7] {
                        let update = |x_i, s, inv| update(w, x_i, s, inv);
                        let (mut want_x, mut want_y) = (x0.clone(), y0.clone());
                        naive_sweep(
                            &a,
                            blk.clone(),
                            sweep,
                            update,
                            scale,
                            &b,
                            &mut want_x,
                            &mut want_y,
                        );
                        for parts in [1usize, 2, 3, 8] {
                            let (mut got_x, mut got_y) = (x0.clone(), y0.clone());
                            let (x, y) = (ParSlice::new(&mut got_x), ParSlice::new(&mut got_y));
                            par::for_each_chunk(parts, parts, &|p| {
                                let rows = owned_chunk(blk.clone(), p, parts);
                                // SAFETY: disjoint chunks of one color block.
                                unsafe { table.sweep::<1>(rows, sweep, scale, &b, &x, &y, update) }
                            });
                            for i in 0..n {
                                assert!(
                                    same_value(got_x[i], want_x[i])
                                        && same_value(got_y[i], want_y[i]),
                                    "case {case} color {c} {sweep:?} {name} w = {w}, \
                                     {parts} participants, row {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        long_rows > 0,
        "the generator must produce rows past 64 entries"
    );
}

fn small() -> CsrMatrix {
    let mut a = CooMatrix::new(3, 4);
    a.push(0, 3, 1.0).unwrap();
    a.push(1, 0, 2.0).unwrap();
    a.push(2, 2, 3.0).unwrap();
    a.to_csr()
}

#[test]
#[should_panic(expected = "x length mismatch")]
fn range_kernel_rejects_a_short_x() {
    small().mul_vec_range_into(&[1.0; 3], &mut [0.0; 3], 0..3);
}

#[test]
#[should_panic(expected = "x length mismatch")]
fn range_kernel_rejects_a_long_x() {
    small().mul_vec_range_into(&[1.0; 5], &mut [0.0; 3], 0..3);
}

#[test]
#[should_panic(expected = "x length mismatch")]
fn axpy_range_kernel_rejects_a_short_x() {
    small().mul_vec_axpy_range(1.0, &[1.0; 3], &mut [0.0; 2], 1..3);
}

#[test]
#[should_panic(expected = "x length mismatch")]
fn axpy_range_kernel_rejects_a_long_x() {
    small().mul_vec_axpy_range(1.0, &[1.0; 5], &mut [0.0; 2], 1..3);
}

#[test]
#[should_panic(expected = "sweep: vector length mismatch")]
fn sweep_kernel_rejects_a_short_x() {
    let (a, colors) = rb_system(9);
    let table = SweepTable::new(Arc::new(a), Arc::new(colors)).unwrap();
    let (mut x, mut y) = (vec![0.0; 8], vec![0.0; 9]);
    let (x, y) = (ParSlice::new(&mut x), ParSlice::new(&mut y));
    // SAFETY: one thread.
    unsafe {
        table.sweep::<1>(
            0..4,
            Sweep::Backward,
            1.0,
            &[1.0; 9],
            &x,
            &y,
            |_, s, inv| s * inv,
        )
    }
}

/// Red/black-ordered 1-D Laplacian: a valid color-blocked system.
fn rb_system(n: usize) -> (CsrMatrix, Partition) {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        a.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            a.push_sym(i, i + 1, -1.0).unwrap();
        }
    }
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let ord = Coloring::from_labels(labels, 2).unwrap().ordering();
    (ord.permute_matrix(&a.to_csr()).unwrap(), ord.partition)
}

/// How an [`Adversarial`] operator breaks the `visit_row` contract on
/// its chosen row.
#[derive(Clone, Copy)]
enum Flaw {
    /// An extra entry at this column (`≥ cols()`).
    Column(usize),
    /// The row's entries in descending column order.
    Unsorted,
}

/// A valid matrix whose `visit_row` misreports one row.
struct Adversarial {
    inner: CsrMatrix,
    row: usize,
    flaw: Flaw,
}

impl SparseOp for Adversarial {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn mul_vec_range_into(&self, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_range_into(x, y, rows)
    }
    fn mul_vec_axpy_range(&self, a: f64, x: &[f64], y: &mut [f64], rows: Range<usize>) {
        self.inner.mul_vec_axpy_range(a, x, y, rows)
    }
    fn visit_row(&self, i: usize, visit: &mut dyn FnMut(usize, f64)) {
        let mut entries: Vec<(usize, f64)> = self.inner.row_entries(i).collect();
        if i == self.row {
            match self.flaw {
                Flaw::Column(j) => entries.push((j, -1.0)),
                Flaw::Unsorted => entries.reverse(),
            }
        }
        for (j, v) in entries {
            visit(j, v);
        }
    }
}

#[test]
fn malformed_operators_are_refused_by_both_ssor_constructors() {
    let (a, colors) = rb_system(9);
    let colors = Arc::new(colors);
    let n = a.cols();
    let cases = [
        (Flaw::Column(n), "column = cols()"),
        (Flaw::Column(n + 1000), "column past cols()"),
        // Would wrap to column 1 if narrowed to u32 unchecked.
        (Flaw::Column((1usize << 32) + 1), "column past u32"),
        (Flaw::Unsorted, "unsorted columns"),
    ];
    for (flaw, what) in cases {
        let op = Adversarial {
            inner: a.clone(),
            row: 2,
            flaw,
        };
        let ok = |e: &SparseError| match flaw {
            Flaw::Column(_) => matches!(e, SparseError::IndexOutOfBounds { .. }),
            Flaw::Unsorted => matches!(e, SparseError::InvalidPartition { .. }),
        };
        let e = op.try_csr_copy().unwrap_err();
        assert!(ok(&e), "{what}: try_csr_copy gave {e:?}");
        let e = MulticolorSsor::from_op(&op, Arc::clone(&colors), 1.0).unwrap_err();
        assert!(ok(&e), "{what}: MulticolorSsor::from_op gave {e:?}");
        let e = ParallelMStepPcg::shared(&op, Arc::clone(&colors), vec![1.0; 2])
            .err()
            .unwrap();
        assert!(ok(&e), "{what}: ParallelMStepPcg::shared gave {e:?}");
    }
    // The same operator without a flaw builds both.
    let honest = Adversarial {
        inner: a,
        row: usize::MAX,
        flaw: Flaw::Unsorted,
    };
    MulticolorSsor::from_op(&honest, Arc::clone(&colors), 1.0).unwrap();
    ParallelMStepPcg::shared(&honest, colors, vec![1.0; 2]).unwrap();
}

/// Run `check::<W>(args)` at every block width from 1 to 8.
macro_rules! at_every_width {
    ($check:ident($($arg:expr),*)) => {{
        $check::<1>($($arg),*);
        $check::<2>($($arg),*);
        $check::<3>($($arg),*);
        $check::<4>($($arg),*);
        $check::<5>($($arg),*);
        $check::<6>($($arg),*);
        $check::<7>($($arg),*);
        $check::<8>($($arg),*);
    }};
}

/// Column `j` of a `W`-column interleaved block.
fn column<const W: usize>(block: &[f64], j: usize) -> Vec<f64> {
    block.chunks_exact(W).map(|row| row[j]).collect()
}

/// Every value of `got` is [`same_value`] as `want`'s.
fn same_values(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| same_value(g, w))
}

/// The block SpMV — the CSR kernel, its trait override, and the trait's
/// column-by-column default on `copy`, another format of `a` — against the
/// width-1 product of each column. The default leaves inactive columns as
/// they were.
fn check_block_spmv<const W: usize>(case: u64, a: &CsrMatrix, copy: &impl SparseOp, rng: &mut Rng) {
    let (rows, cols) = (a.rows(), a.cols());
    let special = [0.0, 0.05, 0.3][case as usize % 3];
    let x: Vec<f64> = (0..W * cols).map(|_| draw(rng, special)).collect();
    let stale: Vec<f64> = (0..W * rows).map(|_| draw(rng, special)).collect();
    let active: [bool; W] = std::array::from_fn(|_| rng.unit() < 0.75);
    let mut y_kernel = stale.clone();
    a.mul_block_into::<W>(&x, &mut y_kernel);
    let mut y_trait = stale.clone();
    SparseOp::mul_block_into(a, &x, &mut y_trait, &active, &mut []);
    let mut y_default = stale.clone();
    let mut scratch = vec![0.0; rows + cols];
    copy.mul_block_into(&x, &mut y_default, &active, &mut scratch);
    for (j, &active) in active.iter().enumerate() {
        let xj = column::<W>(&x, j);
        let want = a.mul_vec(&xj);
        let what = format!("case {case}, {rows}×{cols}, width {W}, column {j}");
        assert!(
            same_values(&column::<W>(&y_kernel, j), &want),
            "{what}: kernel"
        );
        assert!(
            same_values(&column::<W>(&y_trait, j), &want),
            "{what}: trait"
        );
        let want = if active {
            copy.mul_vec(&xj)
        } else {
            column::<W>(&stale, j)
        };
        assert!(
            same_values(&column::<W>(&y_default, j), &want),
            "{what}: default, active {active}"
        );
    }
}

#[test]
fn block_spmv_columns_match_width_one_bitwise() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xB10C + case);
        let (rows, cols) = SHAPES[case as usize % SHAPES.len()];
        let a = random_csr(&mut rng, rows, cols);
        at_every_width!(check_block_spmv(case, &a, &a.to_dense(), &mut rng));
    }
    // Past the parallel threshold, so the nnz-weighted chunks of the
    // block driver run on the pool.
    let n = 6_000;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.25).unwrap();
        }
    }
    let a = coo.to_csr();
    assert!(a.nnz() >= mspcg::sparse::tuning::par_min_nnz());
    let mut rng = Rng::new(0xB10D);
    let sell = mspcg::sparse::SellCsMatrix::from_csr_default(&a);
    at_every_width!(check_block_spmv(1, &a, &sell, &mut rng));
}

/// One color phase of `sweep::<W>` on 1 and 3 participants against
/// `sweep::<1>` on each column, for every sweep kind, update and ω; and
/// the multicolor SSOR's block msolve against `msolve` per column.
fn check_block_sweep<const W: usize>(case: u64) {
    let mut rng = Rng::new(0x5EEB + case);
    let (a, colors) = random_blocked(&mut rng);
    let n = a.rows();
    let special = [0.0, 0.05, 0.3][case as usize % 3];
    let block = |rng: &mut Rng| -> Vec<f64> { (0..W * n).map(|_| draw(rng, special)).collect() };
    let (x0, y0, b) = (block(&mut rng), block(&mut rng), block(&mut rng));
    let scale = rng.unit() * 3.0 - 1.5;
    let table = SweepTable::new(Arc::new(a.clone()), Arc::new(colors.clone())).unwrap();
    let sweeps = [
        Sweep::Forward {
            cached_upper: false,
        },
        Sweep::Forward { cached_upper: true },
        Sweep::Backward,
    ];
    for (c, blk) in colors.iter().enumerate() {
        for sweep in sweeps {
            for (name, update) in UPDATES {
                for w in [1.0, 0.7] {
                    let update = |x_i, s, inv| update(w, x_i, s, inv);
                    let mut want = Vec::new();
                    for j in 0..W {
                        let (mut xj, mut yj) = (column::<W>(&x0, j), column::<W>(&y0, j));
                        let bj = column::<W>(&b, j);
                        let (x, y) = (ParSlice::new(&mut xj), ParSlice::new(&mut yj));
                        // SAFETY: one thread.
                        unsafe { table.sweep::<1>(blk.clone(), sweep, scale, &bj, &x, &y, update) };
                        want.push((xj, yj));
                    }
                    for parts in [1usize, 3] {
                        let (mut got_x, mut got_y) = (x0.clone(), y0.clone());
                        let (x, y) = (ParSlice::new(&mut got_x), ParSlice::new(&mut got_y));
                        par::for_each_chunk(parts, parts, &|p| {
                            let rows = owned_chunk(blk.clone(), p, parts);
                            // SAFETY: disjoint chunks of one color block.
                            unsafe { table.sweep::<W>(rows, sweep, scale, &b, &x, &y, update) }
                        });
                        for (j, (want_x, want_y)) in want.iter().enumerate() {
                            assert!(
                                same_values(&column::<W>(&got_x, j), want_x)
                                    && same_values(&column::<W>(&got_y, j), want_y),
                                "case {case} color {c} {sweep:?} {name} ω = {w}, width {W}, \
                                 {parts} participants, column {j}"
                            );
                        }
                    }
                }
            }
        }
    }
    for omega in [1.0, 0.7] {
        let ssor = MulticolorSsor::new(a.clone(), colors.clone(), omega).unwrap();
        let alphas = [1.0, scale, 0.5];
        let mut z = x0.clone();
        let mut scratch = vec![f64::NAN; W * n];
        ssor.msolve_block::<W>(&alphas, &b, &mut z, &mut scratch);
        for j in 0..W {
            let mut zj = vec![0.0; n];
            ssor.msolve_block::<1>(&alphas, &column::<W>(&b, j), &mut zj, &mut vec![0.0; n]);
            assert!(
                same_values(&column::<W>(&z, j), &zj),
                "case {case} msolve ω = {omega}, width {W}, column {j}"
            );
        }
    }
}

#[test]
fn block_sweep_columns_match_width_one_bitwise() {
    for case in 0..CASES / 4 {
        at_every_width!(check_block_sweep(case));
    }
}

/// The block BLAS-1 kernels against their width-1 forms, column by
/// column, on lengths around and past the reduction chunk and the
/// parallel threshold.
fn check_block_vecops<const W: usize>(case: u64) {
    use mspcg::sparse::vecops;
    let mut rng = Rng::new(0xB1A5 + case);
    let n = [0, 1, 7, 1030, 9_000][case as usize % 5];
    let special = [0.0, 0.02, 0.2][case as usize % 3];
    let mut block = || -> Vec<f64> { (0..W * n).map(|_| draw(&mut rng, special)).collect() };
    let (x, y, p, kp, r) = (block(), block(), block(), block(), block());
    let scalars = |rng: &mut Rng| -> [f64; W] {
        std::array::from_fn(|_| match rng.range(0, 4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.unit() * 3.0 - 1.5,
        })
    };
    let (b, alpha) = (scalars(&mut rng), scalars(&mut rng));
    let what =
        |kernel: &str, j: usize| format!("case {case}, n = {n}, width {W}: {kernel}, column {j}");

    let dots = vecops::dot_block::<W>(&x, &y);
    let mut xpby = y.clone();
    vecops::xpby_block::<W>(&x, &b, &mut xpby);
    let maxabs: [f64; W] = std::array::from_fn(|j| match case % 4 {
        0 => 0.0,
        1 => f64::INFINITY,
        _ => vecops::norm_inf(&column::<W>(&x, j)),
    });
    let norms2 = vecops::norm2_with_max_block::<W>(&x, &maxabs);
    for (j, (&bj, &mj)) in b.iter().zip(&maxabs).enumerate() {
        let (xj, mut yj) = (column::<W>(&x, j), column::<W>(&y, j));
        assert!(
            same_value(dots[j], vecops::dot(&xj, &yj)),
            "{}",
            what("dot", j)
        );
        assert!(
            same_value(norms2[j], vecops::norm2_with_max(&xj, mj)),
            "{}",
            what("norm2_with_max", j)
        );
        vecops::xpby(&xj, bj, &mut yj);
        assert!(
            same_values(&column::<W>(&xpby, j), &yj),
            "{}",
            what("xpby", j)
        );
    }

    let mut u: Vec<Vec<f64>> = (0..W)
        .map(|_| (0..n).map(|_| draw(&mut rng, special)).collect())
        .collect();
    let moving: [bool; W] = std::array::from_fn(|j| j % 3 != 1);
    let u0 = u.clone();
    let mut got_r = r.clone();
    let mut cols = u.iter_mut();
    let u_block: [Option<&mut [f64]>; W] = std::array::from_fn(|j| {
        let uj = cols.next().unwrap();
        moving[j].then_some(uj.as_mut_slice())
    });
    let norms = vecops::fused_axpy_axpy_norm_block::<W>(&alpha, &p, &kp, u_block, &mut got_r);
    for j in 0..W {
        let (mut uj, mut rj) = (u0[j].clone(), column::<W>(&r, j));
        let want = vecops::fused_axpy_axpy_norm(
            alpha[j],
            &column::<W>(&p, j),
            &column::<W>(&kp, j),
            &mut uj,
            &mut rj,
        );
        let want_p = if moving[j] { want.p_norm_inf } else { 0.0 };
        let want_u = if moving[j] { &uj } else { &u0[j] };
        assert!(
            same_values(&u[j], want_u)
                && same_values(&column::<W>(&got_r, j), &rj)
                && same_value(norms[j].p_norm_inf, want_p)
                && same_value(norms[j].r_norm_inf, want.r_norm_inf),
            "{} (moving {})",
            what("fused_axpy_axpy_norm", j),
            moving[j]
        );
    }
}

#[test]
fn block_vecops_columns_match_width_one_bitwise() {
    for case in 0..15 {
        at_every_width!(check_block_vecops(case));
    }
}
