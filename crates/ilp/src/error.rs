//! Error type for the ILP substrate.

use std::fmt;

/// Hard failures of the LP/ILP machinery. Infeasibility and unboundedness
/// are *statuses* on solutions, not errors; errors mean the computation
/// itself could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpError {
    /// Exact rational arithmetic overflowed `i128` (the exact reference
    /// only).
    Overflow,
    /// Division by zero inside a pivot (indicates a logic error upstream).
    DivideByZero,
    /// The basis became numerically singular: an eta-file rebuild or a
    /// dual pivot found no usable pivot.
    SingularBasis,
    /// The simplex iteration limit was exceeded (cycling or a pathological
    /// instance under float arithmetic).
    IterationLimit {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// Malformed problem (e.g. a term referencing a nonexistent variable).
    BadProblem(String),
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Overflow => f.write_str("exact rational arithmetic overflowed i128"),
            IlpError::DivideByZero => f.write_str("division by zero during pivoting"),
            IlpError::SingularBasis => f.write_str("the simplex basis became singular"),
            IlpError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex exceeded the iteration limit ({iterations} iterations)"
                )
            }
            IlpError::BadProblem(msg) => write!(f, "malformed problem: {msg}"),
        }
    }
}

impl std::error::Error for IlpError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IlpError>;
