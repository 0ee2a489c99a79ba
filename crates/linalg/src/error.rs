//! Error type shared by all decompositions in this crate.

use std::fmt;

/// Convenience alias for `Result<T, LinalgError>`.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors produced by matrix constructors and decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes (e.g. a `2×3` times a `2×2`).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix but the input was not square.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// The matrix was singular (or numerically singular) where an inverse or
    /// solve was requested.
    Singular,
    /// The matrix was expected to be symmetric but was not (within tolerance).
    NotSymmetric,
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed to converge.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A dimension argument was invalid (e.g. a 0×0 rotation).
    InvalidDimension {
        /// Description of the constraint that was violated.
        reason: &'static str,
    },
    /// An input entry was NaN or infinite where a decomposition needs
    /// finite values.
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotSymmetric => write!(f, "matrix is not symmetric"),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidDimension { reason } => {
                write!(f, "invalid dimension: {reason}")
            }
            LinalgError::NonFinite => write!(f, "matrix has a non-finite entry"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = LinalgError::ShapeMismatch {
            op: "matrix multiply",
            lhs: (2, 3),
            rhs: (2, 2),
        };
        let msg = err.to_string();
        assert!(msg.contains("matrix multiply"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("2x2"));
    }

    #[test]
    fn display_all_variants_non_empty() {
        let errs = [
            LinalgError::NotSquare { shape: (1, 2) },
            LinalgError::Singular,
            LinalgError::NotSymmetric,
            LinalgError::NoConvergence {
                algorithm: "jacobi",
                iterations: 100,
            },
            LinalgError::InvalidDimension {
                reason: "dimension must be positive",
            },
            LinalgError::NonFinite,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
