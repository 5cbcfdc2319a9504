//! Error type for the relational store.

use std::fmt;

/// A row its columns refuse (see [`check_row`](crate::check_row)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A row had the wrong number of values for its columns.
    ArityMismatch {
        /// Columns defined.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value's type did not match the column type.
    TypeMismatch {
        /// Column name.
        column: &'static str,
        /// The column's declared type.
        expected: &'static str,
        /// The supplied value rendered for diagnostics.
        got: String,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            RelError::TypeMismatch { column, expected, got } => {
                write!(f, "column '{column}' expects {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RelError::ArityMismatch { expected: 3, got: 1 }.to_string().contains("3"));
        assert!(RelError::TypeMismatch {
            column: "len",
            expected: "Int",
            got: "Text(\"x\")".into()
        }
        .to_string()
        .contains("len"));
    }
}
