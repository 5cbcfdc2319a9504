//! Row predicates.
//!
//! The demo's search forms ("the search window displays a form to query the specific
//! data type") and the query processor's relational subqueries both boil down to
//! predicates over a single table's rows: comparisons on named columns, substring
//! matches, and disjunctions.

use crate::value::{Column, Value};

/// A predicate over a row of given columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the full scan).
    True,
    /// Column equals value.
    Eq(String, Value),
    /// Column is greater than or equal to value.
    Ge(String, Value),
    /// Column (text) contains the given substring, case-insensitively.
    Contains(String, String),
    /// Column is NULL.
    IsNull(String),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// `column LIKE %needle%` (case-insensitive substring).
    pub fn contains(column: impl Into<String>, needle: impl Into<String>) -> Predicate {
        Predicate::Contains(column.into(), needle.into())
    }

    /// Evaluate against a row. Unknown columns and NULL comparisons evaluate to false
    /// (SQL-like three-valued logic collapsed to boolean).
    pub(crate) fn eval(&self, columns: &[Column], row: &[Value]) -> bool {
        let get = |name: &str| -> Option<&Value> {
            columns.iter().position(|&(c, _)| c == name).and_then(|i| row.get(i))
        };
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => get(c).map(|x| !x.is_null() && x == v).unwrap_or(false),
            Predicate::Ge(c, v) => match get(c) {
                Some(x) if !x.is_null() && !v.is_null() => x.compare(v).is_ge(),
                _ => false,
            },
            Predicate::Contains(c, needle) => get(c)
                .and_then(|x| x.as_text())
                .map(|t| t.to_lowercase().contains(&needle.to_lowercase()))
                .unwrap_or(false),
            Predicate::IsNull(c) => get(c).map(Value::is_null).unwrap_or(false),
            Predicate::Or(a, b) => a.eval(columns, row) || b.eval(columns, row),
        }
    }
}

/// Shorthand constructors for the tests; callers outside the crate build the
/// variants.
#[cfg(test)]
impl Predicate {
    /// `column = value`.
    pub(crate) fn eq(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Eq(column.into(), value)
    }

    /// `column >= value`.
    pub(crate) fn ge(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Ge(column.into(), value)
    }

    /// `column IS NULL`.
    pub(crate) fn is_null(column: impl Into<String>) -> Predicate {
        Predicate::IsNull(column.into())
    }

    /// Disjunction.
    pub(crate) fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    const COLUMNS: &[Column] = &[
        ("accession", ColumnType::Text),
        ("length", ColumnType::Int),
        ("gc", ColumnType::Float),
        ("curated", ColumnType::Bool),
    ];

    fn row() -> Vec<Value> {
        vec![Value::text("NC_007373"), Value::Int(2300), Value::Float(0.41), Value::Bool(true)]
    }

    #[test]
    fn comparisons() {
        let s = COLUMNS;
        let r = row();
        assert!(Predicate::eq("accession", Value::text("NC_007373")).eval(s, &r));
        assert!(!Predicate::eq("accession", Value::text("other")).eval(s, &r));
        assert!(Predicate::ge("length", Value::Int(2300)).eval(s, &r));
        assert!(Predicate::ge("gc", Value::Float(0.41)).eval(s, &r));
        assert!(!Predicate::ge("length", Value::Int(99999)).eval(s, &r));
        assert!(Predicate::True.eval(s, &r));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let s = COLUMNS;
        let r = row();
        assert!(Predicate::ge("length", Value::Float(2299.5)).eval(s, &r));
        assert!(!Predicate::ge("gc", Value::Int(1)).eval(s, &r));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let s = COLUMNS;
        let r = row();
        assert!(Predicate::contains("accession", "nc_0073").eval(s, &r));
        assert!(!Predicate::contains("accession", "xyz").eval(s, &r));
        // contains on a non-text column is false, not a panic
        assert!(!Predicate::contains("length", "23").eval(s, &r));
    }

    #[test]
    fn null_semantics() {
        let s = COLUMNS;
        let r = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        assert!(Predicate::is_null("accession").eval(s, &r));
        assert!(!Predicate::eq("accession", Value::Null).eval(s, &r));
        assert!(!Predicate::ge("length", Value::Int(0)).eval(s, &r));
        assert!(!Predicate::is_null("accession").eval(COLUMNS, &row()));
    }

    #[test]
    fn unknown_column_is_false() {
        let s = COLUMNS;
        let r = row();
        assert!(!Predicate::eq("missing", Value::Int(1)).eval(s, &r));
        assert!(!Predicate::is_null("missing").eval(s, &r));
    }

    #[test]
    fn disjunction() {
        let s = COLUMNS;
        let r = row();
        let curated = || Predicate::eq("curated", Value::Bool(false));
        assert!(curated().or(Predicate::ge("gc", Value::Float(0.4))).eval(s, &r));
        assert!(!curated().or(Predicate::contains("accession", "xyz")).eval(s, &r));
    }
}
