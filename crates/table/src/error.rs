//! Error type for the relational substrate.

use crate::value::Dtype;
use std::fmt;

/// Errors raised by schema validation, relation mutation, and I/O.
#[derive(Debug)]
pub enum TableError {
    /// A column name was not found in the schema.
    UnknownColumn {
        /// Offending column name.
        column: String,
        /// Relation the lookup ran against.
        relation: String,
    },
    /// A value's type did not match the column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: Dtype,
        /// Type of the offending value.
        got: Dtype,
    },
    /// A row had the wrong number of cells.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of cells supplied.
        got: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Number of rows in the relation.
        len: usize,
    },
    /// A column's length disagrees with its relation's: a bulk load froze
    /// with ragged columns, or a replacement column has the wrong length.
    ColumnLengthMismatch {
        /// Relation being built or written.
        relation: String,
        /// First column whose length disagrees.
        column: String,
        /// Length of the reference (first) column, or the relation's rows.
        expected: usize,
        /// Length of the offending column.
        got: usize,
    },
    /// Two column names collide in one schema.
    DuplicateColumn(String),
    /// A schema invariant was violated (e.g. no key column where one is required).
    SchemaViolation(String),
    /// CSV parsing failed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownColumn { column, relation } => {
                write!(f, "unknown column `{column}` in relation `{relation}`")
            }
            TableError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column `{column}`: expected {expected}, got {got}"
            ),
            TableError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            TableError::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds (relation has {len} rows)")
            }
            TableError::ColumnLengthMismatch {
                relation,
                column,
                expected,
                got,
            } => write!(
                f,
                "column `{column}` of `{relation}` has {got} rows, expected {expected}"
            ),
            TableError::DuplicateColumn(name) => write!(f, "duplicate column `{name}`"),
            TableError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            TableError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TableError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::UnknownColumn {
            column: "Age".into(),
            relation: "Persons".into(),
        };
        assert!(e.to_string().contains("Age"));
        assert!(e.to_string().contains("Persons"));

        let e = TableError::TypeMismatch {
            column: "Age".into(),
            expected: Dtype::Int,
            got: Dtype::Str,
        };
        assert!(e.to_string().contains("expected int"));
    }
}
