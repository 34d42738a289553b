//! Error types shared by the linear-algebra substrate.

use std::fmt;

/// Errors produced by matrix construction and factorization routines.
///
/// The variants are deliberately specific: the 1983 algorithms have hard
/// structural preconditions (square, symmetric, positive definite, nonzero
/// diagonal) and the library reports *which* one failed rather than panicking
/// deep inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A triplet or index referenced a row/column outside the matrix shape.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Number of valid indices on that axis.
        bound: usize,
        /// Axis name, `"row"` or `"col"`.
        axis: &'static str,
    },
    /// Operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Two operands have incompatible shapes.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// Operation requires a symmetric matrix; first asymmetric pair found.
    NotSymmetric {
        /// Row of the asymmetric entry.
        row: usize,
        /// Column of the asymmetric entry.
        col: usize,
    },
    /// Cholesky (or a diagonal solve) met a nonpositive/zero pivot, so the
    /// matrix is not positive definite (or has a zero diagonal entry).
    NotPositiveDefinite {
        /// Pivot index where the factorization broke down.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// A zero (or numerically negligible) diagonal entry where one is needed.
    ZeroDiagonal {
        /// Row with the missing/zero diagonal.
        row: usize,
    },
    /// A permutation vector was not a bijection on `0..n`.
    InvalidPermutation {
        /// Length of the permutation.
        len: usize,
        /// First index observed twice (or out of range).
        culprit: usize,
    },
    /// An iterative process exhausted its iteration budget.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Residual measure when the budget ran out.
        residual: f64,
    },
    /// A partition did not cover `0..n` with contiguous, disjoint ranges.
    InvalidPartition {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A NaN or infinity surfaced where the solver needs finite data — in
    /// the inputs (`phase` = `"rhs"` / `"initial-guess"`, `iteration` = 0)
    /// or in a reduction scalar mid-solve after the recovery budget was
    /// exhausted. The fused reduction kernels are the detectors: a
    /// non-finite element poisons its dot product, so the scalars are
    /// checked instead of the vectors.
    NonFinite {
        /// Where the non-finite value was detected (a phase name such as
        /// `"rhs"`, `"spmv-reduction"`, `"msolve-reduction"`).
        phase: &'static str,
        /// Iteration at which detection happened (0 = before iterating).
        iteration: usize,
    },
    /// A stopping tolerance was nonpositive, NaN or infinite — the solve
    /// could never terminate meaningfully, so it is rejected up front.
    InvalidTolerance {
        /// The offending tolerance.
        value: f64,
    },
    /// A residual-audit period of 0 iterations, rejected before any
    /// kernel runs: a period must be at least 1.
    ZeroAuditPeriod,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { index, bound, axis } => {
                write!(f, "{axis} index {index} out of bounds ({bound})")
            }
            SparseError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
            SparseError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::NotSymmetric { row, col } => {
                write!(f, "matrix not symmetric at ({row}, {col})")
            }
            SparseError::NotPositiveDefinite { pivot, value } => {
                write!(f, "not positive definite: pivot {pivot} = {value:e}")
            }
            SparseError::ZeroDiagonal { row } => {
                write!(f, "zero diagonal entry in row {row}")
            }
            SparseError::InvalidPermutation { len, culprit } => {
                write!(f, "invalid permutation of length {len} (index {culprit})")
            }
            SparseError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iteration did not converge after {iterations} steps (residual {residual:e})"
            ),
            SparseError::InvalidPartition { reason } => {
                write!(f, "invalid partition: {reason}")
            }
            SparseError::NonFinite { phase, iteration } => {
                write!(
                    f,
                    "non-finite value detected in {phase} at iteration {iteration}"
                )
            }
            SparseError::InvalidTolerance { value } => {
                write!(
                    f,
                    "invalid tolerance {value:e} (must be finite and positive)"
                )
            }
            SparseError::ZeroAuditPeriod => {
                write!(f, "invalid audit period 0 (must be at least 1)")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            index: 9,
            bound: 4,
            axis: "row",
        };
        assert!(e.to_string().contains("row index 9"));
        let e = SparseError::NotPositiveDefinite {
            pivot: 3,
            value: -1.0,
        };
        assert!(e.to_string().contains("pivot 3"));
        let e = SparseError::InvalidPartition {
            reason: "gap at 5".into(),
        };
        assert!(e.to_string().contains("gap at 5"));
        let e = SparseError::NonFinite {
            phase: "msolve-reduction",
            iteration: 7,
        };
        assert!(e.to_string().contains("msolve-reduction"));
        assert!(e.to_string().contains("iteration 7"));
        let e = SparseError::InvalidTolerance { value: -1.0 };
        assert!(e.to_string().contains("tolerance"));
        assert!(SparseError::ZeroAuditPeriod
            .to_string()
            .contains("audit period 0"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            SparseError::ZeroDiagonal { row: 1 },
            SparseError::ZeroDiagonal { row: 1 }
        );
        assert_ne!(
            SparseError::ZeroDiagonal { row: 1 },
            SparseError::ZeroDiagonal { row: 2 }
        );
    }
}
