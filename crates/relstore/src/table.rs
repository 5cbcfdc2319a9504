//! A heap table: rows checked against the table's columns on insert and read back by
//! id or by predicate scan.
//!
//! A row is immutable once inserted, so it is stored as an `Arc<[Value]>`: a row built
//! already behind an `Arc` is stored as it is, shared with the caller.

use std::sync::Arc;

use crate::predicate::Predicate;
use crate::value::{check_row, Column, Value};
use crate::Result;

/// Identifier of a row within a table: its insertion index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// A heap table.
#[derive(Debug, Clone)]
pub struct Table {
    columns: &'static [Column],
    rows: Vec<Arc<[Value]>>,
}

impl Table {
    /// Create an empty table with the given columns.
    pub fn new(columns: &'static [Column]) -> Self {
        Table { columns, rows: Vec::new() }
    }

    /// Insert a row, checked against the columns (see [`check_row`]), and return its
    /// id.
    pub fn insert(&mut self, values: impl Into<Arc<[Value]>>) -> Result<RowId> {
        let values = values.into();
        check_row(self.columns, &values)?;
        self.rows.push(values);
        Ok(RowId(self.rows.len() as u64 - 1))
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id.0 as usize).map(|row| &**row)
    }

    /// Fetch a single column value of a row.
    pub fn get_value(&self, id: RowId, column: &str) -> Option<&Value> {
        let idx = self.columns.iter().position(|&(c, _)| c == column)?;
        self.get(id).and_then(|row| row.get(idx))
    }

    /// Iterate over `(id, row)` for every row, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().enumerate().map(|(i, row)| (RowId(i as u64), &**row))
    }

    /// Scan the table for rows satisfying the predicate, returning their ids.
    pub fn scan(&self, predicate: &Predicate) -> Vec<RowId> {
        self.rows().filter(|(_, row)| predicate.eval(self.columns, row)).map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::value::ColumnType;

    const DNA: &[Column] = &[
        ("accession", ColumnType::Text),
        ("length", ColumnType::Int),
        ("organism", ColumnType::Text),
    ];

    fn dna_table() -> Table {
        let mut t = Table::new(DNA);
        t.insert(vec![Value::text("A1"), Value::Int(1000), Value::text("H5N1")]).unwrap();
        t.insert(vec![Value::text("A2"), Value::Int(2300), Value::text("H5N1")]).unwrap();
        t.insert(vec![Value::text("A3"), Value::Int(900), Value::text("H1N1")]).unwrap();
        t
    }

    #[test]
    fn insert_and_get() {
        let t = dna_table();
        assert_eq!(t.rows().count(), 3);
        assert_eq!(t.get(RowId(1)).unwrap()[0], Value::text("A2"));
        assert_eq!(t.get_value(RowId(1), "length"), Some(&Value::Int(2300)));
        assert!(t.get(RowId(99)).is_none());
    }

    #[test]
    fn type_and_arity_checks() {
        let mut t = dna_table();
        assert_eq!(
            t.insert(vec![Value::text("x")]),
            Err(RelError::ArityMismatch { expected: 3, got: 1 })
        );
        let err = t.insert(vec![Value::Int(1), Value::Int(2), Value::text("z")]);
        assert!(matches!(err, Err(RelError::TypeMismatch { .. })));
        // a refused row is not stored; NULL is allowed in any column
        assert_eq!(t.insert(vec![Value::Null, Value::Null, Value::Null]), Ok(RowId(3)));
    }

    #[test]
    fn scan_filters_rows() {
        let t = dna_table();
        let hits = t.scan(&Predicate::ge("length", Value::Int(951)));
        assert_eq!(hits, vec![RowId(0), RowId(1)]);
        assert_eq!(t.scan(&Predicate::eq("organism", Value::text("H5N1"))).len(), 2);
        assert_eq!(t.scan(&Predicate::True), vec![RowId(0), RowId(1), RowId(2)]);
    }
}
