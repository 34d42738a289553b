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
//! driver and the SPMD executor live here too: [`PcgVariant`],
//! [`PrecondKind`] / [`PolyKind`] and [`MatrixFormat`]. A solve receives
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

/// PCG iteration variants the solver stack implements. Lives here (rather
/// than in `mspcg-core`) so the serial solvers, the batched multi-RHS
/// driver and the SPMD `ParallelMStepPcg` all share one selection type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcgVariant {
    /// Algorithm 1 as transcribed from the paper: two serialized inner
    /// products per iteration (`(p, Kp)`, then `(r̂, r)` after the
    /// preconditioner).
    #[default]
    Classic,
    /// Chronopoulos–Gear two-term recurrence: carry `s = Kp` and `w = Kz`
    /// so `α` and `β` both come out of **one** fused reduction phase per
    /// iteration — the communication-avoiding form.
    SingleReduction,
    /// Ghysels–Vanroose pipelined recurrence: additionally carry
    /// `mv = M⁻¹w` and `nv = K·mv` (with the direction carries `q` and
    /// `z`), so the one reduction of the single-reduction form is
    /// **initiated before** the preconditioner + SpMV of the next
    /// iteration and **consumed after** them — the reduction latency
    /// hides behind the heaviest phase instead of merely being fused.
    Pipelined,
    /// s-step (communication-avoiding) CG: per outer step build an
    /// `s`-dimensional Krylov block with a Chebyshev-basis three-term
    /// recurrence on the cached Lanczos interval, amortize **all** inner
    /// products into **one** fused Gram-matrix reduction phase per `s`
    /// iterations, and advance the iterate through `s` local update
    /// sub-steps from a replicated small dense Cholesky solve.
    SStep {
        /// Iterations per outer step (block width); `2 ..= MAX_SSTEP_S`,
        /// checked before any kernel runs.
        s: usize,
    },
}

/// Largest s-step block width a solve accepts. The Chebyshev basis keeps
/// an s-dimensional block well conditioned for moderate `s`, but the Gram
/// system is solved in replicated O(s³) scalar work per outer step and
/// basis conditioning still degrades with `s` — an absurd width is a
/// misconfiguration, not a tuning choice, and is rejected like `s < 2`
/// (`s = 0` is empty, `s = 1` the single-reduction iteration with extra
/// overhead).
pub const MAX_SSTEP_S: usize = 16;

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
    /// Resolve at construction time by the barrier-cost heuristic of
    /// [`PrecondKind::resolve`].
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

impl PrecondKind {
    /// Resolve [`PrecondKind::Auto`] by the barrier-cost heuristic; pinned
    /// selections pass through unchanged. The result is never `Auto`.
    ///
    /// The heuristic compares estimated synchronization cost per
    /// application at matched flops (a degree-`2m` polynomial streams the
    /// matrix as often as `m` forward+backward sweeps): m-step SSOR costs
    /// `m·(2·colors − 1)` sweep barriers where the flop-equivalent
    /// polynomial costs `2m` SpMV barriers, so the polynomial wins
    /// whenever `2·colors − 1 > 2`, i.e. for every genuinely multicolor
    /// matrix (`colors ≥ 2`); a single-color (pure-diagonal) system keeps
    /// the cheaper SSOR sweeps.
    pub fn resolve(self, colors: usize, m_default: usize) -> PrecondKind {
        match self {
            PrecondKind::Auto => {
                let m = m_default.max(1);
                if 2 * colors > 3 {
                    PrecondKind::Poly {
                        kind: PolyKind::Chebyshev,
                        degree: 2 * m,
                    }
                } else {
                    PrecondKind::MStepSsor { m }
                }
            }
            pinned => pinned,
        }
    }
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

    #[test]
    fn precond_resolution_never_returns_auto() {
        // Pinned selections pass through untouched.
        assert_eq!(
            PrecondKind::MStepSsor { m: 2 }.resolve(4, 3),
            PrecondKind::MStepSsor { m: 2 }
        );
        let poly = PrecondKind::Poly {
            kind: PolyKind::Newton,
            degree: 5,
        };
        assert_eq!(poly.resolve(1, 1), poly);
        // Auto: the barrier-cost heuristic picks the flop-equivalent
        // Chebyshev polynomial for multicolor matrices and m-step SSOR for
        // single-color ones.
        assert_eq!(
            PrecondKind::Auto.resolve(4, 3),
            PrecondKind::Poly {
                kind: PolyKind::Chebyshev,
                degree: 6
            }
        );
        assert_eq!(
            PrecondKind::Auto.resolve(1, 2),
            PrecondKind::MStepSsor { m: 2 }
        );
    }
}
