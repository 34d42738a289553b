//! Multicolor block SSOR — paper Algorithm 2.
//!
//! After the multicolor renumbering, the matrix has the block form (3.1):
//! every diagonal color block `D_c` is *diagonal*, so the SOR sweeps of
//! SSOR reduce to, per color, an off-diagonal block multiply followed by a
//! pointwise diagonal solve — long vector operations / embarrassingly
//! parallel loops.
//!
//! ## One kernel, one ownership rule
//!
//! Both executors sweep through one color-phase kernel,
//! [`SweepTable::sweep`], in one phase order,
//! [`SweepTable::sweep_schedule`], on one row ownership, [`owned_chunk`]:
//! each of `T` participants owns chunk `p` of every color block, the
//! paper's fixed node assignment (§3.2). [`MulticolorSsor`] runs each
//! color phase as one `T`-participant pool launch (`par` feature);
//! `mspcg-parallel`'s SPMD workers run the same kernel on the same chunks
//! between barriers. Rows within one color update independently (the
//! multicolor guarantee), so a sweep is bitwise identical for any
//! participant count. Each executor passes the kernel its own relaxation
//! update, so each keeps its arithmetic.
//!
//! The kernel is generic over a column count `W`: the batched solver's
//! lockstep blocks sweep `W` interleaved right-hand sides at once
//! ([`MulticolorSsor::msolve_block`]), loading each stored entry, `diag_at` and
//! `1/a_ii` once for all of them. Every column is bitwise its width-1
//! sweep, and both executors' solves are width 1.
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
use mspcg_sparse::par::{self, ParSlice};
use mspcg_sparse::{tuning, CsrMatrix, Partition, SparseError, SparseOp};
use std::ops::Range;
use std::sync::Arc;

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

/// The sweep table of a color-blocked matrix: the matrix and its color
/// partition, the inverse diagonal, and per row the position of the
/// diagonal entry, which splits the row's stored entries into its lower
/// half (columns in earlier colors) and its upper half (later colors).
///
/// Both multicolor SSOR executors stream this table — [`MulticolorSsor`]
/// here and `mspcg-parallel`'s SPMD solver — so [`SweepTable::new`] is
/// the one place that validates the color blocks. Their sweeps run on
/// [`SweepTable::sweep`], and the spectrum estimate's power steps
/// ([`SweepTable::ssor_spectrum`]) on the same row loop, color phase by
/// color phase on the pool.
#[derive(Debug)]
pub struct SweepTable {
    a: Arc<CsrMatrix>,
    colors: Arc<Partition>,
    inv_diag: Vec<f64>,
    /// Per row: CSR index of its diagonal entry, the only entry inside its
    /// own color block.
    diag_at: Vec<usize>,
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
        Ok(SweepTable {
            a,
            colors,
            inv_diag,
            diag_at,
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
    /// fresh half in `y_i` for the opposite pass (Conrad–Wallach). Both
    /// executors sweep here, each passing its own update as `relax`. Each
    /// stored value and column index of a row is loaded once for all `W`
    /// columns, and every column is bitwise its width-1 sweep.
    ///
    /// `row_ptr`, `diag_at`, `inv_diag` and `b` are sliced once per call.
    /// `x` is read at the rows' columns without a bounds check: every
    /// stored column of the validated, square matrix is below its
    /// dimension, and `x.len()` is asserted equal to `W` times it once per
    /// call (each read re-checks it in a `debug_assert!`).
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
        // One row loop per sweep kind, free of row branches on it.
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

    /// The row loop of [`SweepTable::sweep`] and of the spectrum step, with
    /// `rhs(scale·b_i, first, other)` forming its difference `s`: `first`
    /// is the fresh lower half (`Lo`, `Both`) or upper half (`Up`), cached
    /// in `y`; `other` is read from `y`, or is the fresh upper half (`Both`).
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
        let row_ptr = &self.a.row_ptr()[rows.start..=rows.end];
        let (cols, vals) = (self.a.col_idx(), self.a.values());
        let half = |entries: Range<usize>| {
            let mut sums = [0.0; W];
            for (&c, &v) in cols[entries.clone()].iter().zip(&vals[entries]) {
                let base = W * c as usize;
                for (j, sum) in sums.iter_mut().enumerate() {
                    // SAFETY: `c < n` (the validated column bound) and
                    // `x.len() == W·n` (asserted by the caller); the caller
                    // rules out a concurrent write at a fresh column.
                    *sum += v * unsafe { x.get(base + j) };
                }
            }
            sums
        };
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

    /// The color phases of an `m`-step SSOR(ω) msolve, in order: step `s`
    /// of `1..=m`, color block `c` and its [`Sweep`]. Both executors run
    /// this schedule: each step sweeps forward over every color, then
    /// backward down to color 0, from the next-to-last color when ω = 1
    /// (see `backward_end`). The first step is fused with the `w₀ = 0`
    /// start, so its upper halves are zero; later steps read them from the
    /// cache, except in the last color, which has none (with ω = 1 the
    /// backward pass skips that color, leaving a stale lower half in its
    /// cache).
    pub fn sweep_schedule(
        &self,
        m: usize,
        omega: f64,
    ) -> impl Iterator<Item = (usize, usize, Sweep)> {
        let (nb, end) = (self.colors.num_blocks(), self.backward_end(omega));
        (1..=m).flat_map(move |s| {
            let forward = (0..nb).map(move |c| {
                let cached_upper = s > 1 && c + 1 < nb;
                (s, c, Sweep::Forward { cached_upper })
            });
            forward.chain((0..end).rev().map(move |c| (s, c, Sweep::Backward)))
        })
    }

    /// One full SSOR(ω) step `x ← G x + P⁻¹(scale·b)` from an *arbitrary*
    /// starting vector: the step the spectrum estimate iterates, in the
    /// msolve's phases, owners and pool launches. The forward pass keeps
    /// each row's fresh lower half in `lower` for the backward pass: no
    /// lower-color element of `x` changes in between, so the step is
    /// bitwise the serial two-fresh-halves step at any thread count.
    fn ssor_step(&self, omega: f64, scale: f64, b: &[f64], x: &mut [f64], lower: &mut [f64]) {
        let n = self.a.rows();
        assert_eq!([b.len(), x.len(), lower.len()], [n; 3], "step lengths");
        let threads = par::threads_for(self.a.nnz(), tuning::par_min_nnz());
        let (x, y) = (ParSlice::new(x), ParSlice::new(lower));
        // IEEE addition commutes: `first + other` is `lower + upper` both ways.
        let rhs = |b: f64, first: f64, other: f64| b - (first + other);
        let relax = |x_i: f64, s: f64, inv: f64| (1.0 - omega) * x_i + omega * s * inv;
        for (_, c, sweep) in self.sweep_schedule(1, omega) {
            par::for_each_chunk(threads, threads, &|p| {
                let rows = owned_chunk(self.colors.range(c), p, threads);
                // SAFETY: lengths asserted above; participants sweep disjoint
                // chunks of block `c`, whose rows read `x` in other blocks.
                unsafe {
                    if sweep == Sweep::Backward {
                        self.sweep_rows::<1>(rows, Up, scale, b, &x, &y, rhs, relax);
                    } else {
                        self.sweep_rows::<1>(rows, Both, scale, b, &x, &y, rhs, relax);
                    }
                }
            });
        }
    }

    /// The interval `[1 − ρ, 1]` containing `σ(P⁻¹K)` of the SSOR(ω)
    /// splitting: `σ(G_SSOR) ⊆ [0, ρ]` for SPD `K` and ω ∈ (0, 2), with `ρ`
    /// from `iters` power-iteration steps on `G`, color phase by color phase
    /// on the pool (bitwise the same interval at any thread count). The one
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
    /// the spectrum estimate iterates (color phase by color phase on the
    /// pool), and the reference the cached msolve is tested against.
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
    /// swept once per step. Each color phase is one pool launch streaming
    /// the sweep table once for all `W` columns, and every column is
    /// bitwise its width-1 solve.
    pub fn msolve_block<const W: usize>(
        &self,
        alphas: &[f64],
        r: &[f64],
        z: &mut [f64],
        scratch: &mut [f64],
    ) {
        assert!(!alphas.is_empty(), "msolve needs at least one coefficient");
        let n = W * self.dim();
        assert_eq!(r.len(), n, "mc-ssor msolve: r length mismatch");
        assert_eq!(z.len(), n, "mc-ssor msolve: z length mismatch");
        let (t, m, omega) = (&self.table, alphas.len(), self.omega);
        // One participant count for the whole msolve, so every color phase
        // keeps the same owners: one launch per phase, participant `p`
        // sweeping chunk `p` of the block.
        let threads = par::threads_for(t.a.nnz(), tuning::par_min_nnz());
        let (x, y) = (ParSlice::new(z), ParSlice::new(&mut scratch[..n]));
        for (step, c, sweep) in t.sweep_schedule(m, omega) {
            let (blk, alpha) = (t.colors.range(c), alphas[m - step]);
            // The first forward pass starts from `x = 0`: no self term.
            let from_zero = step == 1 && sweep != Sweep::Backward;
            par::for_each_chunk(threads, threads, &|p| {
                let rows = owned_chunk(blk.clone(), p, threads);
                // SAFETY: participants sweep disjoint chunks of block `c`,
                // whose rows read `x` only in other blocks.
                unsafe {
                    if from_zero {
                        t.sweep::<W>(rows, sweep, alpha, r, &x, &y, |_, s, inv| omega * s * inv);
                    } else {
                        t.sweep::<W>(rows, sweep, alpha, r, &x, &y, |x_i, s, inv| {
                            (1.0 - omega) * x_i + omega * s * inv
                        });
                    }
                }
            });
        }
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

    /// The pool step, whose backward pass reuses the forward pass's lower
    /// half-sums, is bitwise the serial step at every thread count and ω,
    /// on a three-color matrix (middle-color rows have both halves) above
    /// the parallel threshold.
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
        assert!(a.nnz() > tuning::par_min_nnz());
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let (b, x0): (Vec<f64>, Vec<f64>) = (0..n).map(|_| (random(), random())).unzip();
        let before = par::max_threads();
        for omega in [1.0, 1.4] {
            let mc = MulticolorSsor::new(a.clone(), ord.partition.clone(), omega).unwrap();
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
        par::set_max_threads(before);
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
