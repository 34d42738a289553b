//! Multicolor block SSOR — paper Algorithm 2.
//!
//! After the multicolor renumbering, the matrix has the block form (3.1):
//! every diagonal color block `D_c` is *diagonal*, so the SOR sweeps of
//! SSOR reduce to, per color, an off-diagonal block multiply followed by a
//! pointwise diagonal solve — long vector operations / embarrassingly
//! parallel loops.
//!
//! ## One msolve, one ownership rule
//!
//! The m-step msolve is written once, [`SweepTable::msolve`]: participant
//! `p` of `T` runs every color phase through one kernel,
//! [`SweepTable::sweep`], on chunk `p` of its color block ([`owned_chunk`],
//! the paper's §3.2 node assignment) and waits at a [`SpinBarrier`]
//! between phases, as Algorithm 3's processors keep their nodes for a
//! whole msolve. [`MulticolorSsor::msolve_block`] runs it as one pool
//! launch per msolve, `mspcg-parallel`'s SPMD workers inside their solve's
//! launch; the spectrum estimate's power step runs on the same phase loop.
//! Rows within one color update independently (the multicolor guarantee),
//! so a sweep is bitwise identical for any participant count.
//!
//! The kernel is generic over a column count `W`: the batched solver's
//! lockstep blocks sweep `W` interleaved right-hand sides at once
//! ([`MulticolorSsor::msolve_block`]), loading each stored entry, `diag_at` and
//! `1/a_ii` once for all of them. Every column is bitwise its width-1
//! sweep, and both executors' solves are width 1.
//!
//! ## Sliced half-rows
//!
//! A color phase is a vector operation over independent rows, but a CSR
//! row loop does per-row work for rows this short (0 to 11 entries per
//! half on the plate), and it pulls both halves of every row into cache to
//! read one of them. So the width-1 sweep reads a second, lane-contiguous
//! copy of the half-rows: the sliced ELLPACK layout of
//! [`mspcg_sparse::sellcs`], without its sorting or padding.
//!
//! * **Layout.** Each color block is cut into slices of `SLICE` = 8
//!   consecutive rows, aligned to the block's first row; a block's last
//!   `len % 8` rows form no slice. Each half (lower, upper) of a slice
//!   stores the first `w` entries of its 8 rows' halves, `w` the shortest
//!   row's half length, column-major: entry `j` of lane `l` at `8j + l`
//!   from the half's offset. Every lower half comes first, then every
//!   upper half, so a sweep streams only the half it reads.
//! * **Uniform and ragged.** A half is *uniform* when all 8 rows hold
//!   exactly `w` entries there, and then it is the rows' whole half. A
//!   *ragged* half's longer rows keep the rest of it, their tail, in the
//!   CSR arrays only.
//! * **Kernel.** The width-1 sweep walks each slice inside its rows 8
//!   entries at a time into 8 accumulators, then each lane of a ragged
//!   half over its tail, then updates the 8 rows. The rows of a slice that
//!   an [`owned_chunk`] edge cuts, and a block's last `len % 8` rows, run
//!   the CSR row loop.
//! * **Bits.** Each lane adds its row's products in the row's stored
//!   order (stored prefix, then tail) into one accumulator that starts at
//!   +0.0, as the row loop does, and no padding is ever multiplied. So
//!   every row is bitwise its row-loop result for every input (NaN and ±∞
//!   included) at every participant count; rows of one color read `x` only
//!   in other colors, so summing 8 of them before updating any changes
//!   nothing.
//! * **Memory.** A stored entry costs 12 B (an `f64` value and a `u32`
//!   column), in one exact-capacity array each: ≈ 2.5 MB on the a = 100
//!   plate, whose slices are at least 90 % uniform in each sweep kind's
//!   rows.
//! * **Width.** Blocks of `W > 1` columns keep the row loop: their `W`
//!   columns already give independent sums and contiguous `x` loads.
//!
//! ## The Conrad–Wallach auxiliary vector
//!
//! A textbook SSOR step touches every off-diagonal entry twice (once in the
//! forward sweep, once in the backward sweep). Conrad & Wallach (1979)
//! observed that the half-sums can be cached: the forward update of row `i`
//! (color `c`) needs `lower_i = Σ_{color(j)<c} a_ij x_j` (which must be
//! computed fresh, those x just changed) and `upper_i = Σ_{color(j)>c} a_ij
//! x_j` (unchanged since the previous backward pass — read it from the cache
//! `y`). Symmetrically the backward pass computes `upper` fresh and reads
//! `lower` from `y`. Every off-diagonal entry is then touched **once per
//! SSOR step**, which is the paper's claim that the m-step SSOR
//! preconditioner costs only m multicolor SOR sweeps.
//!
//! The m-step msolve additionally *fuses* the `w_0 = 0` initialization
//! into the first forward sweep: since every lower half-sum of step 1 reads
//! only rows already updated in that same pass and every upper half-sum is
//! structurally zero, the first sweep writes every element of `z` and of
//! the cache without reading either — no `fill(0)` passes over the full
//! vectors, and each color block is swept exactly once per step.
//!
//! ## Schedule details (paper Algorithm 2/3 loop bounds)
//!
//! With `ω = 1` the backward re-update of the *last* color is the identity
//! (the forward update already used final values for every lower color and
//! there are no upper colors), so the backward sweep runs from the
//! next-to-last color — the paper's `c = 5 down to 2` plus its trailing
//! color-1 solve with `α₀`. We run the backward sweep down to color 1
//! (0-indexed color 0) *inside* the loop with the step's own coefficient:
//! algebraically identical (the intermediate color-1 value is overwritten
//! unread by the next forward pass — with `ω = 1` the update has no
//! self-term — and the final step's backward color-1 solve uses `α₀`, which
//! is exactly the paper's trailing step (3)), and it keeps the `y` cache for
//! color 1 fresh, which the paper's OCR-garbled loop bounds leave implicit.
//! With `ω ≠ 1` the last color's backward update has a genuine `(1−ω)x`
//! self-term, so the full backward sweep is performed.

use mspcg_sparse::lanczos::{power_spectral_radius, SpectralInterval};
use mspcg_sparse::par::{self, ParSlice, SpinBarrier};
use mspcg_sparse::{sellcs, tuning, CsrMatrix, Partition, SparseError, SparseOp};
use std::ops::Range;
use std::sync::Arc;

/// Rows per slice of the sliced half-rows (module docs).
const SLICE: usize = sellcs::DEFAULT_CHUNK;

/// The half-sum a color phase of [`SweepTable::sweep`] computes fresh,
/// and where the other half comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Fresh lower half. The upper half is read from the cache, or is zero:
    /// structurally in the last color, and in every color of a first step
    /// fused with the `w₀ = 0` start.
    Forward {
        /// Whether the upper half is read from the cache.
        cached_upper: bool,
    },
    /// Fresh upper half; the lower half is read from the cache.
    Backward,
}

/// The half-sums a row of the sweep row loop computes fresh: the lower,
/// the upper, or (the spectrum step's forward pass) both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fresh {
    Lo,
    Up,
    Both,
}
use Fresh::{Both, Lo, Up};

/// Participant `p`'s rows of `block` when `parts` participants share it:
/// contiguous chunks in participant order whose row counts differ by at
/// most one (the first `len % parts` participants take the longer ones).
/// This is the paper's fixed node assignment (§3.2), and both executors
/// sweep on it: pool participant `p` and SPMD worker `p` own the same
/// chunk of every color block.
pub fn owned_chunk(block: Range<usize>, p: usize, parts: usize) -> Range<usize> {
    let (base, extra) = (block.len() / parts, block.len() % parts);
    let start = block.start + p * base + p.min(extra);
    start..start + base + usize::from(p < extra)
}

/// One half (lower or upper) of one slice: the first `width` entries of
/// that half of each of its rows, entry `j` of lane `l` at
/// `at + SLICE·j + l` in [`Slices`]' arrays. `width` is the shortest row's
/// half length: the half is *uniform* when every row's is `width`, and
/// otherwise *ragged*, its longer rows keeping the rest of their half (the
/// tail) in the CSR arrays only.
#[derive(Debug, Clone, Copy, Default)]
struct Lanes {
    at: usize,
    width: usize,
    ragged: bool,
}

/// The sliced half-rows of a sweep table (module docs, "Sliced
/// half-rows").
#[derive(Debug)]
struct Slices {
    /// Per color block, the index of its first slice; block `c` holds
    /// slices `first[c]..first[c + 1]`, `len_c / SLICE` of them.
    first: Vec<usize>,
    /// Per slice, its lower and upper half.
    halves: Vec<[Lanes; 2]>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Slices {
    /// Slice the half-rows of the validated table's matrix `a`, split at
    /// `diag_at`: the slices' shapes from the row pointers first, then
    /// their entries into arrays of exactly their size.
    fn new(a: &CsrMatrix, colors: &Partition, diag_at: &[usize]) -> Self {
        let row_ptr = a.row_ptr();
        let half = |i: usize, h: usize| {
            if h == 0 {
                row_ptr[i]..diag_at[i]
            } else {
                diag_at[i] + 1..row_ptr[i + 1]
            }
        };
        let starts = || {
            colors
                .iter()
                .flat_map(|blk| blk.clone().step_by(SLICE).take(blk.len() / SLICE))
        };
        let mut first = vec![0];
        for blk in colors.iter() {
            first.push(first[first.len() - 1] + blk.len() / SLICE);
        }
        // Every lower half, then every upper half, each in row order: a
        // sweep streams one half, so the other stays out of its cache lines.
        let mut halves = vec![[Lanes::default(); 2]; first[first.len() - 1]];
        let mut len = 0;
        for h in [0, 1] {
            for (r0, lanes) in starts().zip(&mut halves) {
                let lens = (r0..r0 + SLICE).map(|i| half(i, h).len());
                let (width, longest) =
                    lens.fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                let ragged = longest != width;
                lanes[h] = Lanes {
                    at: len,
                    width,
                    ragged,
                };
                len += SLICE * width;
            }
        }
        let (mut cols, mut vals) = (vec![0; len], vec![0.0; len]);
        let (col_idx, values) = (a.col_idx(), a.values());
        for h in [0, 1] {
            for (r0, lanes) in starts().zip(&halves) {
                let Lanes { at, width, .. } = lanes[h];
                let entries = at..at + SLICE * width;
                let (col_chunks, _) = cols[entries.clone()].as_chunks_mut::<SLICE>();
                let (val_chunks, _) = vals[entries].as_chunks_mut::<SLICE>();
                // Lane by lane: entry `j` of lane `l` into chunk `j`.
                for l in 0..SLICE {
                    let e = half(r0 + l, h).start;
                    let lane = col_idx[e..e + width].iter().zip(&values[e..e + width]);
                    let chunks = col_chunks.iter_mut().zip(val_chunks.iter_mut());
                    for ((col_chunk, val_chunk), (&c, &v)) in chunks.zip(lane) {
                        col_chunk[l] = c;
                        val_chunk[l] = v;
                    }
                }
            }
        }
        Slices {
            first,
            halves,
            cols,
            vals,
        }
    }
}

/// The sweep table of a color-blocked matrix: the matrix and its color
/// partition, the inverse diagonal, per row the position of the diagonal
/// entry, which splits the row's stored entries into its lower half
/// (columns in earlier colors) and its upper half (later colors), and the
/// sliced copy of those halves that width-1 sweeps read (module docs,
/// "Sliced half-rows").
///
/// Both multicolor SSOR executors stream this table — [`MulticolorSsor`]
/// here and `mspcg-parallel`'s SPMD solver — so [`SweepTable::new`] is
/// the one place that validates the color blocks and slices the halves.
/// Both run its one msolve, [`SweepTable::msolve`], and the spectrum
/// estimate's power steps ([`SweepTable::ssor_spectrum`]) run on the same
/// phase loop and kernel, one pool launch per step.
#[derive(Debug)]
pub struct SweepTable {
    a: Arc<CsrMatrix>,
    colors: Arc<Partition>,
    inv_diag: Vec<f64>,
    /// Per row: CSR index of its diagonal entry, the only entry inside its
    /// own color block.
    diag_at: Vec<usize>,
    slices: Slices,
}

impl SweepTable {
    /// Validate the color blocks of `a` and build its table.
    ///
    /// # Errors
    /// * [`SparseError::NotSquare`] / shape mismatch with the partition,
    /// * [`SparseError::InvalidPartition`] if an off-diagonal entry lies
    ///   inside its own color block (the coloring failed to decouple),
    /// * [`SparseError::ZeroDiagonal`] for missing/nonpositive diagonals.
    pub fn new(a: Arc<CsrMatrix>, colors: Arc<Partition>) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if colors.total_len() != a.rows() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (colors.total_len(), 1),
            });
        }
        let n = a.rows();
        let mut inv_diag = vec![0.0; n];
        let mut diag_at = vec![0usize; n];
        for (c, blk) in colors.iter().enumerate() {
            for i in blk.clone() {
                let row_lo = a.row_ptr()[i];
                let cols = &a.col_idx()[row_lo..a.row_ptr()[i + 1]];
                let lo = row_lo + cols.partition_point(|&j| (j as usize) < blk.start);
                let hi = row_lo + cols.partition_point(|&j| (j as usize) < blk.end);
                // Entries in [lo, hi) lie inside the block: must be the
                // diagonal alone.
                match hi - lo {
                    0 => return Err(SparseError::ZeroDiagonal { row: i }),
                    1 => {
                        let j = a.col_idx()[lo] as usize;
                        if j != i {
                            return Err(SparseError::InvalidPartition {
                                reason: format!(
                                    "off-diagonal entry ({i}, {j}) inside color block {c}"
                                ),
                            });
                        }
                        let d = a.values()[lo];
                        if d <= 0.0 || !d.is_finite() {
                            return Err(SparseError::ZeroDiagonal { row: i });
                        }
                        inv_diag[i] = 1.0 / d;
                    }
                    _ => {
                        return Err(SparseError::InvalidPartition {
                            reason: format!("multiple in-block entries in row {i} (block {c})"),
                        });
                    }
                }
                diag_at[i] = lo;
            }
        }
        let slices = Slices::new(&a, &colors, &diag_at);
        Ok(SweepTable {
            a,
            colors,
            inv_diag,
            diag_at,
            slices,
        })
    }

    /// The (color-blocked) matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The color partition.
    pub fn colors(&self) -> &Partition {
        &self.colors
    }

    /// `1 / a_ii` per row.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// One color phase of a cached sweep over `rows`, a range of one color
    /// block, on `W` right-hand sides stored interleaved (column `j` of row
    /// `i` at `i·W + j` in `b`, `x` and `y`; width 1 is a plain vector).
    /// Per row and column it forms the fresh half-sum (the lower half going
    /// forward, the upper half going backward), subtracts both halves from
    /// `scale·b_i` in the order lower, upper, sets `x_i` to
    /// `relax(x_i, s, 1/a_ii)` where `s` is that difference, and caches the
    /// fresh half in `y_i` for the opposite pass (Conrad–Wallach). Every
    /// msolve sweeps here ([`SweepTable::msolve`] passes the update it
    /// derives from ω as `relax`). Each
    /// stored value and column index of a row is loaded once for all `W`
    /// columns, and every column is bitwise its width-1 sweep.
    ///
    /// At width 1, each 8-row slice of the sliced half-rows that lies
    /// inside `rows` runs as 8 lanes in lockstep, a ragged half's tails
    /// read from the CSR arrays, and every other row on the CSR row loop;
    /// each row's result is bitwise the row loop's (module docs, "Sliced
    /// half-rows").
    ///
    /// `row_ptr`, `diag_at`, `inv_diag` and `b` are sliced once per call.
    /// `x` is read at the rows' columns without a bounds check: every
    /// stored column of the validated, square matrix is below its
    /// dimension (the slices hold copies of them), and `x.len()` is
    /// asserted equal to `W` times it once per call (each read re-checks
    /// it in a `debug_assert!`).
    ///
    /// # Safety
    /// While the call runs, no other thread writes `x` at a column of the
    /// fresh halves of `rows`, or reads or writes `x` or `y` at a row of
    /// `rows`. Concurrent calls on disjoint chunks of one color block meet
    /// this: a row's off-diagonal columns lie in other color blocks.
    ///
    /// # Panics
    /// If `x`, `y` or `b` differs in length from `W` times the dimension,
    /// or `rows` runs past it.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn sweep<const W: usize>(
        &self,
        rows: Range<usize>,
        sweep: Sweep,
        scale: f64,
        b: &[f64],
        x: &ParSlice<'_>,
        y: &ParSlice<'_>,
        relax: impl Fn(f64, f64, f64) -> f64,
    ) {
        let n = W * self.a.rows();
        assert!(
            x.len() == n && y.len() == n && b.len() == n,
            "sweep: vector length mismatch"
        );
        // One kernel per sweep kind, free of row branches on it.
        // SAFETY: forwarded contract.
        unsafe {
            match sweep {
                Sweep::Forward {
                    cached_upper: false,
                } => self.sweep_rows::<W>(rows, Lo, scale, b, x, y, |b, lo, _| b - lo, relax),
                Sweep::Forward { cached_upper: true } => {
                    self.sweep_rows::<W>(rows, Lo, scale, b, x, y, |b, lo, up| b - lo - up, relax)
                }
                Sweep::Backward => {
                    self.sweep_rows::<W>(rows, Up, scale, b, x, y, |b, up, lo| b - lo - up, relax)
                }
            }
        }
    }

    /// The kernel of [`SweepTable::sweep`] and of the spectrum step, with
    /// `rhs(scale·b_i, first, other)` forming its difference `s`: `first` is the fresh lower half (`Lo`,
    /// `Both`) or upper half (`Up`), cached in `y`; `other` is read from
    /// `y`, or is the fresh upper half (`Both`). At width 1 each slice
    /// inside `rows` runs in lockstep ([`SweepTable::sweep_slice`]), every
    /// other row on the row loop.
    ///
    /// # Safety
    /// As for [`SweepTable::sweep`], whose length checks it relies on.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn sweep_rows<const W: usize>(
        &self,
        rows: Range<usize>,
        fresh: Fresh,
        scale: f64,
        b: &[f64],
        x: &ParSlice<'_>,
        y: &ParSlice<'_>,
        rhs: impl Fn(f64, f64, f64) -> f64,
        relax: impl Fn(f64, f64, f64) -> f64,
    ) {
        // The first row not yet swept.
        let mut loose = rows.start;
        // SAFETY: forwarded contract; the slices lie inside `rows`.
        unsafe {
            if W == 1 && !rows.is_empty() {
                for (r0, halves) in self.slices_inside(rows.clone()) {
                    if loose < r0 {
                        self.row_loop::<W>(loose..r0, fresh, scale, b, x, y, &rhs, &relax);
                    }
                    self.sweep_slice(r0, halves, fresh, scale, b, x, y, &rhs, &relax);
                    loose = r0 + SLICE;
                }
            }
            self.row_loop::<W>(loose..rows.end, fresh, scale, b, x, y, &rhs, &relax);
        }
    }

    /// The slices that lie inside `rows` (a non-empty range of one color
    /// block), in row order: each slice's first row and its lower and
    /// upper half.
    fn slices_inside(&self, rows: Range<usize>) -> impl Iterator<Item = (usize, [Lanes; 2])> + '_ {
        let c = self.colors.block_of(rows.start);
        let (first, start) = (self.slices.first[c], self.colors.range(c).start);
        let k0 = first + (rows.start - start).div_ceil(SLICE);
        let k1 = self.slices.first[c + 1].min(first + (rows.end - start) / SLICE);
        (k0..k1).map(move |k| (start + SLICE * (k - first), self.slices.halves[k]))
    }

    /// One slice, rows `r0..r0 + SLICE`, as 8 lanes in lockstep: each lane
    /// sums its row's fresh half (both, for `Both`) in stored order from
    /// +0.0, the slice's stored prefix first and a ragged half's tail from
    /// the CSR arrays after it; then the 8 rows update as in
    /// [`SweepTable::row_loop`], so each is bitwise its row-loop result.
    ///
    /// # Safety
    /// As for [`SweepTable::sweep`], whose length checks it relies on.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn sweep_slice(
        &self,
        r0: usize,
        halves: [Lanes; 2],
        fresh: Fresh,
        scale: f64,
        b: &[f64],
        x: &ParSlice<'_>,
        y: &ParSlice<'_>,
        rhs: &impl Fn(f64, f64, f64) -> f64,
        relax: &impl Fn(f64, f64, f64) -> f64,
    ) {
        // SAFETY: forwarded contract.
        let sums = |h: usize| unsafe { self.slice_sums(r0, h, halves[h], x) };
        let (sums, other) = match fresh {
            Lo => (sums(0), None),
            Up => (sums(1), None),
            Both => (sums(0), Some(sums(1))),
        };
        let rows = r0..r0 + SLICE;
        // SAFETY: the rows lie below `n`, and the caller makes this thread
        // the only one touching them; the sums above read other colors.
        let (x, y) = unsafe { (x.slice_mut(rows.clone()), y.slice_mut(rows.clone())) };
        let table = x
            .iter_mut()
            .zip(y)
            .zip(&b[rows.clone()])
            .zip(&self.inv_diag[rows]);
        for (l, (((x_i, y_i), &b_i), &inv_diag)) in table.enumerate() {
            let other = other.map_or(*y_i, |up| up[l]);
            let s = rhs(scale * b_i, sums[l], other);
            *x_i = relax(*x_i, s, inv_diag);
            *y_i = sums[l];
        }
    }

    /// The 8 lanes' sums of half `h` (0 lower, 1 upper) of the slice of
    /// rows `r0..r0 + SLICE`, each over its row's half in stored order from
    /// +0.0: the stored prefix in lockstep, then a ragged half's tails from
    /// the CSR arrays.
    ///
    /// # Safety
    /// As for [`SweepTable::sweep`], whose length checks it relies on.
    #[inline(always)]
    unsafe fn slice_sums(
        &self,
        r0: usize,
        h: usize,
        lanes: Lanes,
        x: &ParSlice<'_>,
    ) -> [f64; SLICE] {
        let Lanes { at, width, ragged } = lanes;
        let entries = at..at + SLICE * width;
        let (cols, _) = self.slices.cols[entries.clone()].as_chunks::<SLICE>();
        let (vals, _) = self.slices.vals[entries].as_chunks::<SLICE>();
        let mut acc = [0.0; SLICE];
        for (cols, vals) in cols.iter().zip(vals) {
            for ((acc, &c), &v) in acc.iter_mut().zip(cols).zip(vals) {
                // SAFETY: `c < n`, copied from the validated matrix, and
                // `x.len() == n` (asserted by the caller); the caller rules
                // out a concurrent write at a fresh column.
                *acc += v * unsafe { x.get(c as usize) };
            }
        }
        if ragged {
            let (row_ptr, cols, vals) = (self.a.row_ptr(), self.a.col_idx(), self.a.values());
            for (acc, i) in acc.iter_mut().zip(r0..) {
                let d = self.diag_at[i];
                let tail = if h == 0 {
                    row_ptr[i] + width..d
                } else {
                    d + 1 + width..row_ptr[i + 1]
                };
                // SAFETY: the validated column bound, and the forwarded
                // contract.
                [*acc] = unsafe { add_entries([*acc], &cols[tail.clone()], &vals[tail], x) };
            }
        }
        acc
    }

    /// The CSR row loop of [`SweepTable::sweep_rows`] on `W` columns.
    ///
    /// # Safety
    /// As for [`SweepTable::sweep`], whose length checks it relies on.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn row_loop<const W: usize>(
        &self,
        rows: Range<usize>,
        fresh: Fresh,
        scale: f64,
        b: &[f64],
        x: &ParSlice<'_>,
        y: &ParSlice<'_>,
        rhs: &impl Fn(f64, f64, f64) -> f64,
        relax: &impl Fn(f64, f64, f64) -> f64,
    ) {
        let row_ptr = &self.a.row_ptr()[rows.start..=rows.end];
        let (cols, vals) = (self.a.col_idx(), self.a.values());
        // SAFETY: the validated column bound, and the forwarded contract.
        let half =
            |e: Range<usize>| unsafe { add_entries([0.0; W], &cols[e.clone()], &vals[e], x) };
        let table = row_ptr
            .windows(2)
            .zip(&self.diag_at[rows.clone()])
            .zip(&self.inv_diag[rows.clone()])
            .zip(b[W * rows.start..W * rows.end].chunks_exact(W));
        for ((((ends, &d), &inv_diag), b_i), i) in table.zip(rows) {
            let (lower, upper) = (ends[0]..d, d + 1..ends[1]);
            let sums = half(if fresh == Up { upper.clone() } else { lower });
            let fresh_upper = (fresh == Both).then(|| half(upper));
            for (j, (&sum, &b_ij)) in sums.iter().zip(b_i).enumerate() {
                let k = W * i + j;
                // SAFETY: `k < W·n`, and the caller makes this thread the
                // only one touching row `i`.
                unsafe {
                    let other = fresh_upper.map_or_else(|| y.get(k), |up| up[j]);
                    let s = rhs(scale * b_ij, sum, other);
                    x.set(k, relax(x.get(k), s, inv_diag));
                    y.set(k, sum);
                }
            }
        }
    }

    /// One past the block the backward sweep starts from: with ω = 1 the
    /// last color's backward update is the identity and is skipped (paper's
    /// `c = 5 down to 2` optimization); otherwise it is required. The
    /// subtraction saturates, so an empty partition sweeps nothing.
    fn backward_end(&self, omega: f64) -> usize {
        let nb = self.colors.num_blocks();
        if omega == 1.0 {
            nb.saturating_sub(1)
        } else {
            nb
        }
    }

    /// The one phase loop of every sweep: participant `p` of the
    /// `barrier`'s runs `phase(step, rows, sweep)` on its [`owned_chunk`]
    /// of each phase's color block, waiting at `barrier` between phases.
    /// Each step `1..=m` sweeps forward over every color, then backward
    /// down to color 0, from the next-to-last color when ω = 1 (see
    /// `backward_end`). The first step is fused with the `w₀ = 0` start,
    /// so its upper halves are zero; later steps read them from the cache,
    /// except in the last color, which has none (with ω = 1 the backward
    /// pass skips that color, leaving a stale lower half in its cache).
    fn sweep_schedule(
        &self,
        m: usize,
        omega: f64,
        p: usize,
        barrier: &SpinBarrier,
        mut phase: impl FnMut(usize, Range<usize>, Sweep),
    ) {
        let (nb, end) = (self.colors.num_blocks(), self.backward_end(omega));
        let phases = (1..=m).flat_map(|s| {
            let forward = (0..nb).map(move |c| {
                let cached_upper = s > 1 && c + 1 < nb;
                (s, c, Sweep::Forward { cached_upper })
            });
            forward.chain((0..end).rev().map(move |c| (s, c, Sweep::Backward)))
        });
        for (k, (s, c, sweep)) in phases.enumerate() {
            if k > 0 {
                barrier.wait();
            }
            let rows = owned_chunk(self.colors.range(c), p, barrier.participants());
            phase(s, rows, sweep);
        }
    }

    /// One launch of `share(p, barrier)` on each participant: the pool's
    /// thread budget above the parallel threshold, but never more than a
    /// launch runs at once ([`par::launch_capacity`]), so 1 inside a pool
    /// job such as a batch lane, where a barrier would never open.
    fn launch(&self, share: impl Fn(usize, &SpinBarrier) + Sync) {
        let parts =
            par::threads_for(self.a.nnz(), tuning::par_min_nnz()).min(par::launch_capacity());
        let barrier = SpinBarrier::new(parts);
        par::for_each_chunk(parts, parts, &|p| share(p, &barrier));
    }

    /// Participant `p`'s share of the m-step SSOR(ω) msolve of
    /// [`MulticolorSsor::msolve_block`], the one every executor runs: `z`
    /// in `x`, the half-sum cache in `y`, each phase of the schedule a
    /// [`SweepTable::sweep`] of `p`'s [`owned_chunk`], and a wait at
    /// `barrier` between phases, not after the last. The update, chosen
    /// once per phase, is `ω·s/a_ii` on the first forward pass (the fused
    /// `w₀ = 0` start) and `(1 − ω)·x_i + ω·s/a_ii` on every other.
    ///
    /// # Safety
    /// Participants `0..barrier.participants()` run this at once, each
    /// with its own `p` and the same other arguments, and nothing else
    /// touches `x` or `y` or writes `r` meanwhile.
    ///
    /// # Panics
    /// If `x`, `y` or `r` differs in length from `W` times the dimension.
    /// Check before the launch: the other participants would wait forever.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn msolve<const W: usize>(
        &self,
        alphas: &[f64],
        omega: f64,
        r: &[f64],
        x: &ParSlice<'_>,
        y: &ParSlice<'_>,
        p: usize,
        barrier: &SpinBarrier,
    ) {
        let m = alphas.len();
        self.sweep_schedule(m, omega, p, barrier, |step, rows, sweep| {
            let alpha = alphas[m - step];
            // SAFETY: by the contract, participants sweep disjoint chunks
            // of the phase's block, whose rows read `x` only in other
            // blocks, finalized before the last barrier.
            if step == 1 && sweep != Sweep::Backward {
                self.sweep::<W>(rows, sweep, alpha, r, x, y, |_, s, inv| omega * s * inv);
            } else {
                self.sweep::<W>(rows, sweep, alpha, r, x, y, |x_i, s, inv| {
                    (1.0 - omega) * x_i + omega * s * inv
                });
            }
        });
    }

    /// One full SSOR(ω) step `x ← G x + P⁻¹(scale·b)` from an *arbitrary*
    /// starting vector: the step the spectrum estimate iterates, one
    /// launch on the msolve's phase loop and owners. The forward pass
    /// keeps each row's fresh lower half in `lower` for the backward pass:
    /// no lower-color element of `x` changes in between, so the step is
    /// bitwise the serial two-fresh-halves step at any thread count.
    fn ssor_step(&self, omega: f64, scale: f64, b: &[f64], x: &mut [f64], lower: &mut [f64]) {
        let n = self.a.rows();
        assert_eq!([b.len(), x.len(), lower.len()], [n; 3], "step lengths");
        let (x, y) = (ParSlice::new(x), ParSlice::new(lower));
        // IEEE addition commutes: `first + other` is `lower + upper` both ways.
        let rhs = |b: f64, first: f64, other: f64| b - (first + other);
        let relax = |x_i: f64, s: f64, inv: f64| (1.0 - omega) * x_i + omega * s * inv;
        self.launch(|p, barrier| {
            self.sweep_schedule(1, omega, p, barrier, |_, rows, sweep| {
                // SAFETY: lengths asserted above; participants sweep
                // disjoint chunks of the phase's block, whose rows read `x`
                // in other blocks, and the launch runs them at once.
                unsafe {
                    if sweep == Sweep::Backward {
                        self.sweep_rows::<1>(rows, Up, scale, b, &x, &y, rhs, relax);
                    } else {
                        self.sweep_rows::<1>(rows, Both, scale, b, &x, &y, rhs, relax);
                    }
                }
            });
        });
    }

    /// The interval `[1 − ρ, 1]` containing `σ(P⁻¹K)` of the SSOR(ω)
    /// splitting: `σ(G_SSOR) ⊆ [0, ρ]` for SPD `K` and ω ∈ (0, 2), with `ρ`
    /// from `iters` power-iteration steps on `G`, each one pool launch
    /// (bitwise the same interval at any thread count). The one
    /// SSOR estimate: the fitted constructors and `Auto` on both executors
    /// estimate here (the SPMD solver on the table it streams, so no second
    /// copy of the matrix is made), and a kept interval fits any `m` again
    /// ([`crate::mstep::MStepSsorPreconditioner::with_interval`]).
    ///
    /// # Errors
    /// * [`SparseError::DidNotConverge`] for an empty operator and when `G`
    ///   annihilates the start vector (`G = 0`, e.g. a diagonal `K`),
    /// * [`SparseError::NotPositiveDefinite`] (pivot 0, the lower end
    ///   `1 − ρ` as value) when `ρ` is not finite or reaches its cap
    ///   0.999999: no fit can use a lower end that close to 0 (or below it,
    ///   for an indefinite `K`).
    pub fn ssor_spectrum(&self, omega: f64, iters: usize) -> Result<SpectralInterval, SparseError> {
        let mut lower = vec![0.0; self.a.rows()];
        let rho = power_spectral_radius(self.a.rows(), iters, 0x5EED, |x, y| {
            y.copy_from_slice(x);
            self.ssor_step(omega, 0.0, x, y, &mut lower);
        })?;
        let min = 1.0 - rho;
        if !(rho.is_finite() && rho < 0.999_999) {
            return Err(SparseError::NotPositiveDefinite {
                pivot: 0,
                value: min,
            });
        }
        Ok(SpectralInterval {
            min,
            max: 1.0,
            steps: iters,
        })
    }
}

/// `sums[j]` plus the products of one row's run of stored entries
/// (`cols`, `vals`) with column `j` of the `W`-column `x`, added in stored
/// order: the gather of the sweep's CSR row loop and of a ragged slice's
/// tails.
///
/// # Safety
/// Every column is below `n` and `x.len() == W·n`, and no other thread
/// writes `x` at these columns while the call runs.
#[inline(always)]
unsafe fn add_entries<const W: usize>(
    mut sums: [f64; W],
    cols: &[u32],
    vals: &[f64],
    x: &ParSlice<'_>,
) -> [f64; W] {
    for (&c, &v) in cols.iter().zip(vals) {
        let base = W * c as usize;
        for (j, sum) in sums.iter_mut().enumerate() {
            // SAFETY: `base + j < W·n = x.len()`, and no concurrent write,
            // by the contract.
            *sum += v * unsafe { x.get(base + j) };
        }
    }
    sums
}

/// Multicolor SSOR(ω) splitting of a color-blocked SPD matrix.
///
/// Constructed from a matrix already permuted into contiguous color blocks
/// (see `mspcg-coloring`); validates that each diagonal block is diagonal.
/// The matrix and partition are held by [`Arc`], so building many
/// splittings over one system (the ω sweep, the condition studies, the
/// Table 2/3 m sweeps) shares the data instead of deep-cloning it.
#[derive(Debug)]
pub struct MulticolorSsor {
    table: SweepTable,
    omega: f64,
}

impl MulticolorSsor {
    /// Build from a color-blocked matrix. `ω = 1` is the paper's choice
    /// (§5: for multicolor orderings with few colors, `ω = 1` is good).
    /// Pass `Arc`s to share one system across many splittings (no copy),
    /// or owned values to move them in.
    ///
    /// # Errors
    /// * [`SparseError::InvalidPartition`] for ω outside `(0, 2)`,
    /// * the [`SweepTable::new`] errors: not square, shape mismatch with
    ///   the partition, coupling inside a color block, bad diagonal.
    pub fn new(
        a: impl Into<Arc<CsrMatrix>>,
        colors: impl Into<Arc<Partition>>,
        omega: f64,
    ) -> Result<Self, SparseError> {
        if !(omega > 0.0 && omega < 2.0) {
            return Err(SparseError::InvalidPartition {
                reason: format!("SSOR omega {omega} outside (0, 2)"),
            });
        }
        let table = SweepTable::new(a.into(), colors.into())?;
        Ok(MulticolorSsor { table, omega })
    }

    /// Build from a color-blocked operator in **any** [`SparseOp`]
    /// format: the splitting's sweep structure (split CSR arrays walked
    /// row-by-row in color order) is materialized once via
    /// [`SparseOp::try_csr_copy`]. Because the copy reproduces the stored
    /// entries in ascending-column order, the resulting splitting is
    /// bitwise identical to one built from the original CSR matrix —
    /// solving through SELL-C-σ replays the CSR preconditioner exactly.
    ///
    /// # Errors
    /// Same classes as [`MulticolorSsor::new`], plus those of
    /// [`SparseOp::try_csr_copy`] for an operator whose `visit_row`
    /// yields an out-of-range or unsorted column.
    pub fn from_op<A: SparseOp>(
        a: &A,
        colors: impl Into<Arc<Partition>>,
        omega: f64,
    ) -> Result<Self, SparseError> {
        Self::new(Arc::new(a.try_csr_copy()?), colors, omega)
    }

    /// The sweep table this splitting streams, and the one it estimates
    /// its spectrum on ([`SweepTable::ssor_spectrum`]).
    pub fn table(&self) -> &SweepTable {
        &self.table
    }

    /// Operator dimension.
    pub fn dim(&self) -> usize {
        self.table.a.rows()
    }

    /// One full SSOR step `x ← G x + P⁻¹(scale·b)` from an *arbitrary*
    /// starting vector, every half-sum computed within the step: the step
    /// the spectrum estimate iterates (one pool launch), and the reference
    /// the cached msolve is tested against.
    pub fn step(&self, scale: f64, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "mc-ssor step: b length mismatch");
        assert_eq!(x.len(), self.dim(), "mc-ssor step: x length mismatch");
        let mut lower = vec![0.0; self.dim()];
        self.table.ssor_step(self.omega, scale, b, x, &mut lower);
    }

    /// Algorithm 2: the m-step solve `z ← (Σᵢ αᵢ Gⁱ) P⁻¹ r` by the Horner
    /// recurrence `w_s = G w_{s−1} + α_{m−s} P⁻¹ r`, `w_0 = 0`, with the
    /// Conrad–Wallach cache carried across steps (the final backward
    /// color-1 update runs with `α₀`, the paper's trailing step (3)), on
    /// `W` right-hand sides stored interleaved (column `j` of row `i` at
    /// `i·W + j`; a single solve is `W = 1`). The cache is the first
    /// `W·dim()` values of the caller's `scratch`, so concurrent callers
    /// sharing one splitting never contend. The `w_0 = 0`, `y = 0` start
    /// is fused into the first forward sweep, which writes `z` and the
    /// cache before reading them — no zero-fill passes, each color block
    /// swept once per step. The msolve is one pool launch of
    /// [`SweepTable::msolve`], whose participants cross a barrier between
    /// color phases, streaming the sweep table once for all `W` columns,
    /// and every column is bitwise its width-1 solve.
    pub fn msolve_block<const W: usize>(
        &self,
        alphas: &[f64],
        r: &[f64],
        z: &mut [f64],
        scratch: &mut [f64],
    ) {
        // Every check before the launch: a participant that panicked
        // alone would leave the others waiting at the barrier.
        assert!(!alphas.is_empty(), "msolve needs at least one coefficient");
        let n = W * self.dim();
        assert_eq!(r.len(), n, "mc-ssor msolve: r length mismatch");
        assert_eq!(z.len(), n, "mc-ssor msolve: z length mismatch");
        let (x, y) = (ParSlice::new(z), ParSlice::new(&mut scratch[..n]));
        let t = &self.table;
        // SAFETY: the launch runs its participants at once, each with its
        // own `p`, and nothing else touches `z` or the cache meanwhile.
        t.launch(|p, barrier| unsafe { t.msolve::<W>(alphas, self.omega, r, &x, &y, p, barrier) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitting::NaturalSsorSplitting;
    use mspcg_coloring::Coloring;
    use mspcg_sparse::CooMatrix;

    /// Red/black 1-D Laplacian, already permuted into two color blocks.
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
        let coloring = Coloring::from_labels(labels, 2).unwrap();
        let ord = coloring.ordering();
        let b = ord.permute_matrix(&a).unwrap();
        (b, ord.partition)
    }

    /// One m-step solve on a half-sum cache of its own.
    fn msolve(mc: &MulticolorSsor, alphas: &[f64], r: &[f64], z: &mut [f64]) {
        mc.msolve_block::<1>(alphas, r, z, &mut vec![0.0; mc.dim()]);
    }

    #[test]
    fn new_rejects_coupling_inside_block() {
        // Natural-ordered Laplacian with a single block: rows couple inside.
        let mut c = CooMatrix::new(4, 4);
        for i in 0..4 {
            c.push(i, i, 2.0).unwrap();
            if i + 1 < 4 {
                c.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = c.to_csr();
        let p = Partition::single(4);
        assert!(matches!(
            MulticolorSsor::new(a, p, 1.0),
            Err(SparseError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn new_rejects_missing_diagonal() {
        let mut c = CooMatrix::new(2, 2);
        c.push_sym(0, 1, -1.0).unwrap();
        c.push(0, 0, 2.0).unwrap(); // row 1 has no diagonal
        let a = c.to_csr();
        let p = Partition::from_sizes(&[1, 1]).unwrap();
        assert!(matches!(
            MulticolorSsor::new(a, p, 1.0),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
    }

    #[test]
    fn shared_handles_are_not_cloned() {
        let (a, p) = rb_laplacian(8);
        let a = Arc::new(a);
        let p = Arc::new(p);
        let mc = MulticolorSsor::new(Arc::clone(&a), Arc::clone(&p), 1.0).unwrap();
        assert!(std::ptr::eq(mc.table().matrix(), &*a));
        assert!(std::ptr::eq(mc.table().colors(), &*p));
        // Two splittings over the same system share the same storage.
        let mc2 = MulticolorSsor::new(Arc::clone(&a), Arc::clone(&p), 1.5).unwrap();
        assert!(std::ptr::eq(mc.table().matrix(), mc2.table().matrix()));
    }

    #[test]
    fn step_matches_natural_ssor_on_same_matrix() {
        // On the *permuted* matrix, natural-order SSOR and multicolor SSOR
        // are the same iteration (colors are contiguous ascending blocks) —
        // up to the skipped idempotent last-color backward update at ω = 1.
        let (a, p) = rb_laplacian(8);
        let mc = MulticolorSsor::new(a.clone(), p, 1.0).unwrap();
        let nat = NaturalSsorSplitting::new(&a, 1.0).unwrap();
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let mut x1 = vec![0.25; 8];
        let mut x2 = x1.clone();
        mc.step(1.0, &b, &mut x1);
        nat.step(1.0, &b, &mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
    }

    #[test]
    fn step_matches_natural_ssor_with_omega() {
        let (a, p) = rb_laplacian(9);
        let mc = MulticolorSsor::new(a.clone(), p, 1.4).unwrap();
        let nat = NaturalSsorSplitting::new(&a, 1.4).unwrap();
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let mut x1 = vec![0.0; 9];
        let mut x2 = vec![0.0; 9];
        for _ in 0..3 {
            mc.step(1.0, &b, &mut x1);
            nat.step(1.0, &b, &mut x2);
        }
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn cached_msolve_equals_generic_msolve() {
        // Algorithm 2's auxiliary-vector path must agree with the naive
        // "m independent full steps" Horner evaluation.
        let (a, p) = rb_laplacian(10);
        for omega in [1.0, 0.8, 1.5] {
            let mc = MulticolorSsor::new(a.clone(), p.clone(), omega).unwrap();
            let r: Vec<f64> = (0..10).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
            for alphas in [vec![1.0], vec![1.0, 1.0, 1.0], vec![0.5, 2.0, -0.25, 1.25]] {
                let mut z_fast = vec![0.0; 10];
                msolve(&mc, &alphas, &r, &mut z_fast);
                // Reference path: m independent full steps.
                let mut z_ref = vec![0.0; 10];
                let m = alphas.len();
                for s in 1..=m {
                    mc.step(alphas[m - s], &r, &mut z_ref);
                }
                for (u, v) in z_fast.iter().zip(&z_ref) {
                    assert!(
                        (u - v).abs() < 1e-12,
                        "omega {omega}, alphas {alphas:?}: {u} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn msolve_ignores_stale_output_buffer() {
        // The fused first sweep must not read z or the cache: poisoning
        // both beforehand may not change the result.
        let (a, p) = rb_laplacian(10);
        let mc = MulticolorSsor::new(a, p, 1.3).unwrap();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.9).cos()).collect();
        let alphas = [1.0, -0.5, 2.0];
        let mut z1 = vec![0.0; 10];
        mc.msolve_block::<1>(&alphas, &r, &mut z1, &mut [0.0; 10]);
        let mut z2 = vec![f64::MAX; 10];
        mc.msolve_block::<1>(&alphas, &r, &mut z2, &mut [f64::NAN; 10]);
        assert_eq!(z1, z2);
    }

    #[test]
    fn msolve_is_linear_in_r() {
        let (a, p) = rb_laplacian(8);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let alphas = [1.0, 2.0, 0.5];
        let r1: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let r2: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
        let rsum: Vec<f64> = r1.iter().zip(&r2).map(|(a, b)| a + b).collect();
        let mut z1 = vec![0.0; 8];
        let mut z2 = vec![0.0; 8];
        let mut zs = vec![0.0; 8];
        msolve(&mc, &alphas, &r1, &mut z1);
        msolve(&mc, &alphas, &r2, &mut z2);
        msolve(&mc, &alphas, &rsum, &mut zs);
        for i in 0..8 {
            assert!((zs[i] - z1[i] - z2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn preconditioner_matrix_is_symmetric() {
        // M⁻¹ = p(G) P⁻¹ must be symmetric: check e_iᵀ M⁻¹ e_j == e_jᵀ M⁻¹ e_i.
        let (a, p) = rb_laplacian(6);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let alphas = [1.0, 3.0, -0.5];
        let n = 6;
        let mut minv = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut z = vec![0.0; n];
            msolve(&mc, &alphas, &e, &mut z);
            for i in 0..n {
                minv[i][j] = z[i];
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (minv[i][j] - minv[j][i]).abs() < 1e-12,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn m_steps_reduce_stationary_error() {
        let (a, p) = rb_laplacian(12);
        let mc = MulticolorSsor::new(a.clone(), p, 1.0).unwrap();
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).cos()).collect();
        let r = a.mul_vec(&x_true);
        let err = |m: usize| -> f64 {
            let mut z = vec![0.0; 12];
            msolve(&mc, &vec![1.0; m], &r, &mut z);
            z.iter()
                .zip(&x_true)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max)
        };
        let e1 = err(1);
        let e3 = err(3);
        let e6 = err(6);
        assert!(e3 < e1 && e6 < e3, "{e1} {e3} {e6}");
    }

    #[test]
    fn spectrum_interval_upper_is_one() {
        let (a, p) = rb_laplacian(16);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let est = mc.table().ssor_spectrum(1.0, 80).unwrap();
        assert_eq!((est.max, est.steps), (1.0, 80));
        assert!(est.min > 0.0 && est.min < 1.0);
    }

    /// The shared ownership rule: for every block length and participant
    /// count — blocks shorter than the participant count included — the
    /// chunks are contiguous, disjoint and in participant order, cover the
    /// block, and differ in length by at most one.
    #[test]
    fn owned_chunks_split_a_block_evenly() {
        for len in 0..=17 {
            let block = 5..5 + len;
            for parts in 1..=9 {
                let chunks: Vec<_> = (0..parts)
                    .map(|p| owned_chunk(block.clone(), p, parts))
                    .collect();
                let what = format!("{len} rows, {parts} participants: {chunks:?}");
                assert_eq!(chunks[0].start, block.start, "{what}");
                assert_eq!(chunks[parts - 1].end, block.end, "{what}");
                assert!(chunks.iter().all(|c| c.start <= c.end), "{what}");
                assert!(chunks.windows(2).all(|w| w[0].end == w[1].start), "{what}");
                let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "{what}");
            }
        }
    }

    /// The serial step the pool step replaced, kept literally as its
    /// reference: both half-sums fresh, each a naive loop over the row's
    /// stored entries on its side of the diagonal, one row loop per block.
    fn serial_step(t: &SweepTable, omega: f64, scale: f64, b: &[f64], x: &mut [f64]) {
        let a = &t.a;
        let half = |entries: Range<usize>, x: &[f64]| {
            let mut sum = 0.0;
            for e in entries {
                sum += a.values()[e] * x[a.col_idx()[e] as usize];
            }
            sum
        };
        let backward = (0..t.backward_end(omega)).rev();
        for rows in t.colors.iter().chain(backward.map(|c| t.colors.range(c))) {
            for i in rows {
                let lower = half(a.row_ptr()[i]..t.diag_at[i], x);
                let upper = half(t.diag_at[i] + 1..a.row_ptr()[i + 1], x);
                let s = scale * b[i] - (lower + upper);
                x[i] = (1.0 - omega) * x[i] + omega * s * t.inv_diag[i];
            }
        }
    }

    /// A color-blocked matrix whose aligned 8-row runs mostly share their
    /// lower and upper half lengths (0 to 3 entries each, random columns
    /// and values), one run in four drawing them row by row instead: the
    /// sliced half-rows get uniform and ragged slices of every kind.
    fn sliced_random(sizes: &[usize], random: &mut impl FnMut() -> f64) -> (CsrMatrix, Partition) {
        let colors = Partition::from_sizes(sizes).unwrap();
        let n = colors.total_len();
        let mut c = CooMatrix::new(n, n);
        for blk in colors.iter() {
            // The columns of the lower and of the upper half.
            let sides = [0..blk.start, blk.end..n];
            let lens = |random: &mut dyn FnMut() -> f64| {
                sides
                    .clone()
                    .map(|side| ((random() + 0.5) * 4.0) as usize % (side.len() + 1))
            };
            for run in blk.clone().step_by(SLICE) {
                let ragged = random() < -0.25;
                let mut run_lens = lens(random);
                for i in run..blk.end.min(run + SLICE) {
                    if ragged {
                        run_lens = lens(random);
                    }
                    c.push(i, i, 6.0).unwrap();
                    for (side, &len) in sides.iter().zip(&run_lens) {
                        let from = ((random() + 0.5) * 1e6) as usize;
                        for k in 0..len {
                            let j = side.start + (from + k) % side.len();
                            c.push(i, j, random()).unwrap();
                        }
                    }
                }
            }
        }
        (c.to_csr(), colors)
    }

    /// The pool step, whose backward pass reuses the forward pass's lower
    /// half-sums, is bitwise the serial step at every thread count and ω,
    /// above the parallel threshold, on two three-color matrices: a banded
    /// one (middle-color rows have both halves) and [`sliced_random`]'s,
    /// whose slices the forward pass, which forms both halves fresh, meets
    /// uniform in both halves, in one, and in neither (its tails then read
    /// from the CSR arrays).
    #[test]
    fn pool_step_is_bitwise_the_serial_step() {
        let n = 12_000;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 6.0).unwrap();
            for j in [i + 1, i + 2].into_iter().filter(|&j| j < n) {
                c.push_sym(i, j, -1.0 - (i % 7) as f64 * 0.1).unwrap();
            }
        }
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let ord = Coloring::from_labels(labels, 3).unwrap().ordering();
        let a = ord.permute_matrix(&c.to_csr()).unwrap();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sliced = sliced_random(&[4003, 3998, 4005], &mut random);
        let t = SweepTable::new(Arc::new(sliced.0.clone()), Arc::new(sliced.1.clone())).unwrap();
        for fresh in [Lo, Up, Both] {
            let rows = uniform_rows(&t, fresh);
            assert!(
                0 < rows && rows < 12_000,
                "{fresh:?}: {rows} rows in uniform slices"
            );
        }
        let before = par::max_threads();
        for (a, colors) in [(a, ord.partition), sliced] {
            assert!(a.nnz() > tuning::par_min_nnz());
            let n = a.rows();
            let (b, x0): (Vec<f64>, Vec<f64>) = (0..n).map(|_| (random(), random())).unzip();
            for omega in [1.0, 1.4] {
                let mc = MulticolorSsor::new(a.clone(), colors.clone(), omega).unwrap();
                let mut want = x0.clone();
                for _ in 0..3 {
                    serial_step(mc.table(), omega, 0.5, &b, &mut want);
                }
                for t in [1usize, 2, 4] {
                    par::set_max_threads(t);
                    let mut got = x0.clone();
                    for _ in 0..3 {
                        mc.step(0.5, &b, &mut got);
                    }
                    assert!(
                        got.iter()
                            .zip(&want)
                            .all(|(u, v)| u.to_bits() == v.to_bits()),
                        "omega {omega}, t = {t}"
                    );
                }
            }
        }
        par::set_max_threads(before);
    }

    /// The rows of `t` that lie in a slice whose `fresh` halves are
    /// uniform, so the width-1 sweep runs them in lockstep without a tail.
    fn uniform_rows(t: &SweepTable, fresh: Fresh) -> usize {
        let uniform = |[lower, upper]: &[Lanes; 2]| match fresh {
            Lo => !lower.ragged,
            Up => !upper.ragged,
            Both => !lower.ragged && !upper.ragged,
        };
        SLICE
            * t.slices
                .halves
                .iter()
                .filter(|halves| uniform(halves))
                .count()
    }

    /// The benchmark plate (a = 100, six colors) takes the lockstep path:
    /// at least 90 % of each sweep kind's rows lie in uniform slices, and
    /// the slices store exactly their halves' stored prefixes.
    #[test]
    fn benchmark_plate_sweeps_mostly_in_lockstep() {
        let ord = mspcg_fem::PlaneStressProblem::unit_square(100)
            .assemble()
            .unwrap()
            .multicolor()
            .unwrap();
        let mc = MulticolorSsor::new(ord.matrix, ord.colors, 1.0).unwrap();
        let t = mc.table();
        let n = t.a.rows();
        for fresh in [Lo, Up, Both] {
            let rows = uniform_rows(t, fresh);
            assert!(
                10 * rows >= 9 * n,
                "{fresh:?}: {rows} of {n} rows in uniform slices"
            );
        }
        let stored: usize = t.slices.halves.iter().flatten().map(|h| h.width).sum();
        assert_eq!(t.slices.vals.len(), SLICE * stored);
        assert_eq!(t.slices.vals.capacity(), t.slices.vals.len());
        assert_eq!(t.slices.cols.capacity(), t.slices.cols.len());
    }

    /// Parallel sweeps must agree bitwise with the serial path across
    /// thread counts — the SSOR leg of the determinism contract. The
    /// problem is sized past the parallel threshold.
    #[test]
    fn msolve_is_thread_count_insensitive() {
        let (a, p) = rb_laplacian(40_000);
        let mc = MulticolorSsor::new(a, p, 1.0).unwrap();
        let r: Vec<f64> = (0..40_000)
            .map(|i| ((i * 29 + 13) % 89) as f64 * 0.02 - 0.9)
            .collect();
        let alphas = [1.0, 0.75, 1.25];
        let before = par::max_threads();
        par::set_max_threads(1);
        let mut z1 = vec![0.0; 40_000];
        msolve(&mc, &alphas, &r, &mut z1);
        for t in [2usize, 4, 8] {
            par::set_max_threads(t);
            let mut zt = vec![0.0; 40_000];
            msolve(&mc, &alphas, &r, &mut zt);
            assert!(
                z1.iter().zip(&zt).all(|(u, v)| u.to_bits() == v.to_bits()),
                "msolve differs at t = {t}"
            );
        }
        par::set_max_threads(before);
    }
}
