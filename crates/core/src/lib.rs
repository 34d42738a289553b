//! # mspcg-core
//!
//! The paper's primary contribution: the **m-step preconditioned conjugate
//! gradient method** of Adams (ICPP 1983).
//!
//! Solves `K u = f` for sparse SPD `K` by conjugate gradients, where the
//! preconditioner takes `m` steps of a stationary iterative method built
//! from a splitting `K = P − Q`:
//!
//! ```text
//! M_m⁻¹ = (α₀ I + α₁ G + … + α_{m−1} G^{m−1}) P⁻¹,    G = P⁻¹ Q.
//! ```
//!
//! * [`pcg`] — Algorithm 1, the one PCG recurrence, generic over
//!   [`preconditioner::Preconditioner`], with the paper's
//!   `‖u^{k+1} − u^k‖∞ < ε` stopping test, running on the fused one-pass
//!   update kernels of `mspcg_sparse::vecops`,
//! * [`multi`] — batched multi-RHS solves (many load cases on one
//!   stiffness matrix) over shared matrix/preconditioner handles,
//! * [`splitting`] — the [`splitting::Splitting`] abstraction plus Jacobi
//!   and natural-order SSOR splittings,
//! * [`ssor`] — the multicolor block SSOR splitting with the
//!   Conrad–Wallach auxiliary-vector optimization (paper Algorithm 2),
//! * [`mstep`] — the m-step preconditioner (Horner evaluation of the
//!   polynomial in `G`), parametrized or not,
//! * [`poly`] — the barrier-free **polynomial (Newton–Chebyshev)
//!   preconditioner** on the Lanczos-estimated spectrum of the
//!   Jacobi-scaled operator (`k` SpMVs per application, zero color-sweep
//!   synchronization), and the selection by value that both executors
//!   share ([`poly::resolve_precond`], [`poly::AutoPreconditioner`]):
//!   `Auto` builds the paper's parametrized m-step SSOR — min-max α on the
//!   estimated SSOR interval, `m` chosen by Eq. (4.1)/(4.2) with costs from
//!   the operator's shape ([`analysis::CostModel::from_traffic`]),
//! * [`coeffs`] — least-squares and min-max α coefficients
//!   (Johnson–Micchelli–Paul parametrization, §2.2, Table 1),
//! * [`quadrature`] — Gauss–Legendre rules used by the least-squares fit,
//! * [`analysis`] — Eq. (4.1)/(4.2) cost model, optimal-m prediction,
//!   iteration prediction from a fitted polynomial and condition-number
//!   studies (the κ(M⁻¹K) vs m experiments),
//! * [`ic`] — the IC(0) incomplete-Cholesky baseline the m-step method
//!   competes with (effective per iteration, but inherently sequential),
//! * [`recovery`] — the two robustness layers: fault injection
//!   ([`recovery::FaultyOp`], [`recovery::FaultyPreconditioner`],
//!   [`recovery::FaultPlan`]), and residual auditing with in-place
//!   replacement ([`recovery::AuditPlan`]), whose restart from the current
//!   iterate also recovers from a non-finite reduction scalar — one
//!   definition each, shared by the serial and SPMD executors.

// Indexed `for i in 0..n` loops are deliberate throughout the numeric
// kernels: they address several parallel arrays (CSR structure, split
// points, diagonals) by the same row index, where iterator zips would
// obscure the math. Clippy's needless_range_loop lint fires on exactly
// this pattern, so it is allowed crate-wide.
#![allow(clippy::needless_range_loop)]
pub mod analysis;
pub mod coeffs;
pub mod ic;
pub mod mstep;
pub mod multi;
pub mod pcg;
pub mod poly;
pub mod preconditioner;
pub mod quadrature;
pub mod recovery;
pub mod splitting;
pub mod ssor;

pub use coeffs::{least_squares_alphas, minimax_alphas, Weight};
pub use ic::IncompleteCholesky;
pub use mstep::{MStep, MStepJacobiPreconditioner, MStepSsorPreconditioner};
pub use multi::{pcg_solve_multi, MultiRhsSummary, MultiRhsWorkspace, RhsOutcome, SolveStatus};
pub use pcg::{
    cg_solve, pcg_solve, pcg_solve_into, pcg_try_solve_into, PcgOptions, PcgReport, PcgSolution,
    PcgVariant, PcgWorkspace, StoppingCriterion,
};
pub use poly::{auto_preconditioner, AutoPreconditioner, PolySchedule, PolynomialPreconditioner};
pub use preconditioner::{DiagonalPreconditioner, IdentityPreconditioner, Preconditioner};
pub use recovery::{
    ApplicationFault, FaultKind, FaultPlan, FaultTarget, FaultyOp, FaultyPreconditioner,
    IterationFault, RecoveryPolicy,
};
pub use splitting::{JacobiSplitting, NaturalSsorSplitting, Splitting};
pub use ssor::{MulticolorSsor, SweepTable};
