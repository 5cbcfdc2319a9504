//! Typed values, columns and schemas.

use std::sync::Arc;

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

    /// The boolean value, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when this is NULL.
    pub fn is_null(&self) -> bool {
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

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Create a column definition.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// A table schema: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The columns in definition order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Create a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A row of values, one per schema column.
pub type Row = Vec<Value>;

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
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
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
    fn schema_lookup() {
        let s = Schema::new(vec![
            Column::new("accession", ColumnType::Text),
            Column::new("length", ColumnType::Int),
        ]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column_index("length"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column("accession").unwrap().ty, ColumnType::Text);
        assert_eq!(ColumnType::Blob.name(), "Blob");
    }
}
