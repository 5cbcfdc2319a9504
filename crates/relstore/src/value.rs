//! Typed values, columns and schemas.

use std::sync::Arc;

use crate::error::RelError;
use crate::Result;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
    /// Raw bytes — the paper stores "the raw actual data … in their native formats"
    /// alongside the metadata, so every type-specific table can carry a blob column.
    Blob,
}

impl ColumnType {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "Int",
            ColumnType::Float => "Float",
            ColumnType::Text => "Text",
            ColumnType::Bool => "Bool",
            ColumnType::Blob => "Blob",
        }
    }
}

/// A value stored in a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL; compatible with every column type.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// Raw bytes value.
    Blob(Arc<[u8]>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Convenience constructor for blob values.
    pub fn blob(b: impl Into<Arc<[u8]>>) -> Value {
        Value::Blob(b.into())
    }

    /// Whether this value can live in a column of the given type.
    pub fn matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Int)
                | (Value::Float(_), ColumnType::Float)
                | (Value::Text(_), ColumnType::Text)
                | (Value::Bool(_), ColumnType::Bool)
                | (Value::Blob(_), ColumnType::Blob)
        )
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text value, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// True when this is NULL.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering used by comparison predicates and sort: NULL sorts first, then
    /// by type (Int/Float compared numerically together), then value.
    pub(crate) fn compare(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            // heterogeneous comparisons order by a fixed type rank
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 1,
        Value::Text(_) => 2,
        Value::Bool(_) => 3,
        Value::Blob(_) => 4,
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(t) => write!(f, "{t}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

/// A column: its name and type.  Every column list is static — a data type's metadata
/// columns, a comparator table's — so a name is a `&'static str`.
pub type Column = (&'static str, ColumnType);

/// Check `row` against `columns`: one value per column, each fitting its column's type
/// (NULL fits any).  The one row check, run by [`Table::insert`](crate::Table::insert)
/// and by Graphitti core before a registration writes anything.
pub fn check_row(columns: &[Column], row: &[Value]) -> Result<()> {
    if row.len() != columns.len() {
        return Err(RelError::ArityMismatch { expected: columns.len(), got: row.len() });
    }
    for (&(column, ty), value) in columns.iter().zip(row) {
        if !value.matches(ty) {
            return Err(RelError::TypeMismatch {
                column,
                expected: ty.name(),
                got: format!("{value:?}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn value_type_matching() {
        assert!(Value::Int(1).matches(ColumnType::Int));
        assert!(!Value::Int(1).matches(ColumnType::Text));
        assert!(Value::Null.matches(ColumnType::Blob));
        assert!(Value::text("x").matches(ColumnType::Text));
        assert!(Value::Bool(true).matches(ColumnType::Bool));
        assert!(Value::Float(1.5).matches(ColumnType::Float));
        assert!(Value::blob(vec![1u8, 2]).matches(ColumnType::Blob));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::text("hi").as_text(), Some("hi"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::text("hi").as_int(), None);
    }

    #[test]
    fn value_ordering() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Ordering::Less);
        assert_eq!(Value::Int(2).compare(&Value::Float(1.5)), Ordering::Greater);
        assert_eq!(Value::Null.compare(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::text("a").compare(&Value::text("b")), Ordering::Less);
        assert_eq!(Value::text("a").compare(&Value::Int(5)), Ordering::Greater);
        assert_eq!(Value::Bool(false).compare(&Value::Bool(true)), Ordering::Less);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::blob(vec![0u8; 4]).to_string(), "<blob 4 bytes>");
    }

    #[test]
    fn row_check() {
        let columns = [("accession", ColumnType::Text), ("length", ColumnType::Int)];
        assert_eq!(check_row(&columns, &[Value::text("A1"), Value::Int(7)]), Ok(()));
        // NULL is allowed in any column
        assert_eq!(check_row(&columns, &[Value::Null, Value::Null]), Ok(()));
        assert_eq!(
            check_row(&columns, &[Value::text("A1")]),
            Err(RelError::ArityMismatch { expected: 2, got: 1 })
        );
        let err = check_row(&columns, &[Value::text("A1"), Value::text("long")]).unwrap_err();
        assert!(matches!(err, RelError::TypeMismatch { column: "length", expected: "Int", .. }));
        assert_eq!(ColumnType::Blob.name(), "Blob");
    }
}
