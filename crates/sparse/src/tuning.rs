//! Central tuning thresholds and solver selection types.
//!
//! Every adaptive decision the kernels make — "is this loop big enough to
//! launch on the pool?", "how many stored entries should one SpMV chunk
//! carry?" — reads its threshold from this module. The thresholds are the
//! constants the benches were tuned with; they are fixed for the lifetime
//! of the program, so chunk layouts derived from them never move and the
//! determinism contract (bitwise thread-count insensitivity) holds across
//! every solve of a process.
//!
//! The selection types shared by the serial solvers, the batched multi-RHS
//! driver and the SPMD executor live here too: [`PrecondKind`] /
//! [`PolyKind`] and [`MatrixFormat`]. Every executor runs one recurrence,
//! Algorithm 1; [`PcgVariant`] names it and is kept only so the
//! `perfbench` package still compiles. A solve receives
//! its configuration only as values — the options struct it is called
//! with, the preconditioner it is handed, the operator type the caller
//! built. The pool size is the one process-wide setting, in [`crate::par`];
//! its value is validated by [`parse_positive`].

/// Parse a positive count: `Some(n)` for a positive integer, `None` for
/// anything else (`0`, empty, non-numeric, overflow). Zero is invalid — a
/// zero thread budget describes an empty pool — so it is rejected rather
/// than silently clamped.
pub fn parse_positive(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// BLAS-1 parallelism threshold (elements): kernels shorter than this
/// always run serially. It sits at the measured break-even of the
/// cheapest kernel: an empty 2-thread pool launch costs ≈ 1 µs, and at
/// 2¹³ elements `vecops::axpy` takes ≈ 2.6–3.0 µs at 1 and at 2 threads
/// alike, while the dot, fused-update and polynomial-step kernels
/// already gain there (2-vCPU Xeon VM).
pub const fn par_min_elems() -> usize {
    1 << 13
}

/// Sparse-kernel parallelism threshold (stored entries): SpMV and SSOR
/// color sweeps with fewer stored entries than this run serially.
pub const fn par_min_nnz() -> usize {
    1 << 14
}

/// Minimum stored entries per nnz-weighted SpMV chunk: below this, the
/// chunk-claim overhead dominates the row loop.
pub const fn min_spmv_chunk_nnz() -> usize {
    1 << 9
}

/// Storage formats [`crate::op::AutoOp`] can select between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixFormat {
    /// Compressed sparse row ([`crate::csr::CsrMatrix`]).
    Csr,
    /// Sliced ELL with sorting, SELL-C-σ ([`crate::sellcs::SellCsMatrix`]).
    SellCs,
}

/// The PCG recurrence. Algorithm 1 is the only one the solver stack
/// implements; the type and the `variant` option fields that carry it are
/// kept only so the `perfbench` package, which names them, still compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcgVariant {
    /// Algorithm 1 as transcribed from the paper: two serialized inner
    /// products per iteration (`(p, Kp)`, then `(r̂, r)` after the
    /// preconditioner).
    #[default]
    Classic,
}

/// Polynomial recurrences the barrier-free preconditioner implements.
/// Lives here (next to [`PcgVariant`]) so the serial and SPMD stacks share
/// one selection type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyKind {
    /// Scaled first-kind Newton (Richardson/truncated-Neumann) recurrence:
    /// every step applies the same optimal damping `ω = 2/(λ₁ + λₙ)`.
    Newton,
    /// Chebyshev recurrence on the estimated interval `[λ₁, λₙ]` — the
    /// min-max polynomial of the same degree, fewer PCG iterations per
    /// SpMV than Newton on ill-conditioned intervals.
    Chebyshev,
}

/// Preconditioner selection for the solver stack: the paper's m-step
/// multicolor SSOR, or the barrier-free polynomial alternative built from
/// SpMVs only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondKind {
    /// The paper's parametrized m-step SSOR, resolved per operator at
    /// construction (`mspcg_core::poly::resolve_precond`, shared by both
    /// executors): min-max coefficients fitted on the estimated SSOR
    /// spectral interval (§2.2), with `m` stepped up from the caller's
    /// default while the paper's cost model, Eq. (4.1) and inequality
    /// (4.2), predicts a gain. `B/A` comes from the bytes an outer
    /// iteration and an SSOR step stream, not from a timer, so the choice
    /// is deterministic. Falls back to unit coefficients when there is no
    /// spectrum to fit (an empty operator, a diagonal `K`).
    #[default]
    Auto,
    /// The paper's m-step multicolor SSOR preconditioner
    /// (`m·(2C−1)` color-sweep barriers per application on the SPMD
    /// schedule, `C` = number of colors).
    MStepSsor {
        /// Number of preconditioner steps.
        m: usize,
    },
    /// Degree-`degree` polynomial in the Jacobi-scaled operator
    /// (`degree` SpMV-phase barriers per application, zero color sweeps).
    Poly {
        /// Recurrence family.
        kind: PolyKind,
        /// Polynomial degree (= SpMVs per application); at least 1.
        degree: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_positive_mirrors_thread_budget_rules() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 512 "), Some(512));
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive(""), None);
        assert_eq!(parse_positive("abc"), None);
        assert_eq!(parse_positive("-3"), None);
        assert_eq!(parse_positive("2.5"), None);
    }
}
