//! Row predicates.
//!
//! The demo's search forms ("the search window displays a form to query the specific
//! data type") and the query processor's relational subqueries both boil down to
//! predicates over a single table's rows: comparisons on named columns, substring
//! matches, and boolean combinations.

use crate::value::{Schema, Value};

/// A predicate over a row of a given schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the full scan).
    True,
    /// Column equals value.
    Eq(String, Value),
    /// Column does not equal value (NULL never matches).
    Ne(String, Value),
    /// Column is strictly less than value.
    Lt(String, Value),
    /// Column is less than or equal to value.
    Le(String, Value),
    /// Column is strictly greater than value.
    Gt(String, Value),
    /// Column is greater than or equal to value.
    Ge(String, Value),
    /// Column (text) contains the given substring, case-insensitively.
    Contains(String, String),
    /// Column is NULL.
    IsNull(String),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Eq(column.into(), value)
    }

    /// `column != value`.
    pub fn ne(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Ne(column.into(), value)
    }

    /// `column < value`.
    pub fn lt(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Lt(column.into(), value)
    }

    /// `column <= value`.
    pub fn le(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Le(column.into(), value)
    }

    /// `column > value`.
    pub fn gt(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Gt(column.into(), value)
    }

    /// `column >= value`.
    pub fn ge(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Ge(column.into(), value)
    }

    /// `column LIKE %needle%` (case-insensitive substring).
    pub fn contains(column: impl Into<String>, needle: impl Into<String>) -> Predicate {
        Predicate::Contains(column.into(), needle.into())
    }

    /// `column IS NULL`.
    pub fn is_null(column: impl Into<String>) -> Predicate {
        Predicate::IsNull(column.into())
    }

    /// Conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate against a row. Unknown columns and NULL comparisons evaluate to false
    /// (SQL-like three-valued logic collapsed to boolean).
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> bool {
        let get =
            |name: &str| -> Option<&Value> { schema.column_index(name).and_then(|i| row.get(i)) };
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => get(c).map(|x| !x.is_null() && x == v).unwrap_or(false),
            Predicate::Ne(c, v) => get(c).map(|x| !x.is_null() && x != v).unwrap_or(false),
            Predicate::Lt(c, v) => Self::cmp(get(c), v, |o| o == std::cmp::Ordering::Less),
            Predicate::Le(c, v) => Self::cmp(get(c), v, |o| o != std::cmp::Ordering::Greater),
            Predicate::Gt(c, v) => Self::cmp(get(c), v, |o| o == std::cmp::Ordering::Greater),
            Predicate::Ge(c, v) => Self::cmp(get(c), v, |o| o != std::cmp::Ordering::Less),
            Predicate::Contains(c, needle) => get(c)
                .and_then(|x| x.as_text())
                .map(|t| t.to_lowercase().contains(&needle.to_lowercase()))
                .unwrap_or(false),
            Predicate::IsNull(c) => get(c).map(Value::is_null).unwrap_or(false),
            Predicate::And(a, b) => a.eval(schema, row) && b.eval(schema, row),
            Predicate::Or(a, b) => a.eval(schema, row) || b.eval(schema, row),
            Predicate::Not(p) => !p.eval(schema, row),
        }
    }

    fn cmp(lhs: Option<&Value>, rhs: &Value, keep: impl Fn(std::cmp::Ordering) -> bool) -> bool {
        match lhs {
            Some(v) if !v.is_null() && !rhs.is_null() => keep(v.compare(rhs)),
            _ => false,
        }
    }

    /// If this predicate pins a column to an exact value at its top level (possibly
    /// under conjunctions), return `(column, value)` — used by tables to route scans
    /// through a hash index.
    pub fn equality_binding(&self) -> Option<(&str, &Value)> {
        match self {
            Predicate::Eq(c, v) => Some((c.as_str(), v)),
            Predicate::And(a, b) => a.equality_binding().or_else(|| b.equality_binding()),
            _ => None,
        }
    }

    /// A rough selectivity estimate in `[0, 1]` used by the query planner's feasible
    /// ordering: equality is most selective, ranges moderate, full scans not at all.
    pub fn selectivity(&self) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Eq(..) => 0.05,
            Predicate::Ne(..) => 0.9,
            Predicate::Lt(..) | Predicate::Le(..) | Predicate::Gt(..) | Predicate::Ge(..) => 0.3,
            Predicate::Contains(..) => 0.2,
            Predicate::IsNull(..) => 0.1,
            Predicate::And(a, b) => (a.selectivity() * b.selectivity()).max(0.001),
            Predicate::Or(a, b) => (a.selectivity() + b.selectivity()).min(1.0),
            Predicate::Not(p) => (1.0 - p.selectivity()).max(0.05),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("accession", ColumnType::Text),
            Column::new("length", ColumnType::Int),
            Column::new("gc", ColumnType::Float),
            Column::new("curated", ColumnType::Bool),
        ])
    }

    fn row() -> Vec<Value> {
        vec![Value::text("NC_007373"), Value::Int(2300), Value::Float(0.41), Value::Bool(true)]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        assert!(Predicate::eq("accession", Value::text("NC_007373")).eval(&s, &r));
        assert!(!Predicate::eq("accession", Value::text("other")).eval(&s, &r));
        assert!(Predicate::ne("length", Value::Int(100)).eval(&s, &r));
        assert!(Predicate::gt("length", Value::Int(1000)).eval(&s, &r));
        assert!(Predicate::ge("length", Value::Int(2300)).eval(&s, &r));
        assert!(Predicate::lt("gc", Value::Float(0.5)).eval(&s, &r));
        assert!(Predicate::le("gc", Value::Float(0.41)).eval(&s, &r));
        assert!(!Predicate::gt("length", Value::Int(99999)).eval(&s, &r));
        assert!(Predicate::True.eval(&s, &r));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let s = schema();
        let r = row();
        assert!(Predicate::gt("length", Value::Float(2299.5)).eval(&s, &r));
        assert!(Predicate::lt("gc", Value::Int(1)).eval(&s, &r));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let s = schema();
        let r = row();
        assert!(Predicate::contains("accession", "nc_0073").eval(&s, &r));
        assert!(!Predicate::contains("accession", "xyz").eval(&s, &r));
        // contains on a non-text column is false, not a panic
        assert!(!Predicate::contains("length", "23").eval(&s, &r));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let r = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        assert!(Predicate::is_null("accession").eval(&s, &r));
        assert!(!Predicate::eq("accession", Value::Null).eval(&s, &r));
        assert!(!Predicate::gt("length", Value::Int(0)).eval(&s, &r));
        assert!(!Predicate::is_null("accession").eval(&schema(), &row()));
    }

    #[test]
    fn unknown_column_is_false() {
        let s = schema();
        let r = row();
        assert!(!Predicate::eq("missing", Value::Int(1)).eval(&s, &r));
        assert!(!Predicate::is_null("missing").eval(&s, &r));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row();
        let p =
            Predicate::gt("length", Value::Int(1000)).and(Predicate::contains("accession", "NC"));
        assert!(p.eval(&s, &r));
        let q =
            Predicate::eq("curated", Value::Bool(false)).or(Predicate::lt("gc", Value::Float(0.5)));
        assert!(q.eval(&s, &r));
        assert!(!q.clone().not().eval(&s, &r));
        assert!(Predicate::eq("curated", Value::Bool(false)).not().eval(&s, &r));
    }

    #[test]
    fn equality_binding_extraction() {
        let p = Predicate::gt("length", Value::Int(10))
            .and(Predicate::eq("accession", Value::text("A")));
        let (col, val) = p.equality_binding().unwrap();
        assert_eq!(col, "accession");
        assert_eq!(val, &Value::text("A"));
        assert!(Predicate::gt("length", Value::Int(10)).equality_binding().is_none());
    }

    #[test]
    fn selectivity_ordering() {
        let eq = Predicate::eq("a", Value::Int(1));
        let range = Predicate::gt("a", Value::Int(1));
        assert!(eq.selectivity() < range.selectivity());
        assert!(range.selectivity() < Predicate::True.selectivity());
        let conj = eq.clone().and(range.clone());
        assert!(conj.selectivity() <= eq.selectivity());
        let disj = eq.clone().or(range.clone());
        assert!(disj.selectivity() >= range.selectivity());
        assert!(Predicate::True.selectivity() <= 1.0);
    }
}
