//! The catalogue of type-specific relations.
//!
//! Each registered data type (DNA sequence, protein, image, …) gets its own table.
//! The [`Catalog`] is the named collection of those tables — Graphitti core creates one
//! table per [`graphitti_core::DataType`] on demand.
//!
//! The catalogue is keyed by vocabulary (one table per data type), so it stays a map —
//! with each table behind its own `Arc`.  Cloning the catalogue is one pointer bump per
//! table, and mutable access to a table of a clone copies that one table only.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::RelError;
use crate::predicate::Predicate;
use crate::table::{RowId, Table};
use crate::value::Schema;
use crate::Result;

/// A named collection of tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Create an empty catalogue.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Create a new table. Errors if one with the name already exists.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(RelError::TableExists(name));
        }
        self.tables.insert(name.clone(), Arc::new(Table::new(name, schema)));
        Ok(())
    }

    /// Create a table if it does not already exist; returns whether it was created.
    pub fn ensure_table(&mut self, name: impl Into<String>, schema: Schema) -> bool {
        let name = name.into();
        if self.tables.contains_key(&name) {
            false
        } else {
            self.tables.insert(name.clone(), Arc::new(Table::new(name, schema)));
            true
        }
    }

    /// Drop a table, returning it if it existed.
    pub fn drop_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name).map(Arc::unwrap_or_clone)
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Mutable access to a table (copies it iff a clone of the catalogue shares it).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// Mutable access to a table, erroring if absent.
    pub fn require_table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.table_mut(name).ok_or_else(|| RelError::NoSuchTable(name.to_string()))
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Run a predicate scan on a named table, erroring if the table is absent.
    pub fn scan(&self, table: &str, predicate: &Predicate) -> Result<Vec<RowId>> {
        self.table(table)
            .map(|t| t.scan(predicate))
            .ok_or_else(|| RelError::NoSuchTable(table.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Text),
            Column::new("length", ColumnType::Int),
        ])
    }

    #[test]
    fn create_and_access() {
        let mut c = Catalog::new();
        c.create_table("dna", schema()).unwrap();
        assert!(c.has_table("dna"));
        assert_eq!(c.table_count(), 1);
        assert_eq!(c.create_table("dna", schema()), Err(RelError::TableExists("dna".into())));
        c.table_mut("dna").unwrap().insert(vec![Value::text("x"), Value::Int(5)]).unwrap();
        assert_eq!(c.total_rows(), 1);
    }

    #[test]
    fn ensure_table_idempotent() {
        let mut c = Catalog::new();
        assert!(c.ensure_table("img", schema()));
        assert!(!c.ensure_table("img", schema()));
        assert_eq!(c.table_count(), 1);
    }

    #[test]
    fn drop_and_require() {
        let mut c = Catalog::new();
        c.create_table("protein", schema()).unwrap();
        assert!(c.require_table_mut("protein").is_ok());
        assert!(c.drop_table("protein").is_some());
        assert!(c.drop_table("protein").is_none());
        assert_eq!(
            c.require_table_mut("protein").err(),
            Some(RelError::NoSuchTable("protein".into()))
        );
    }

    #[test]
    fn scan_through_catalog() {
        let mut c = Catalog::new();
        c.create_table("dna", schema()).unwrap();
        let t = c.table_mut("dna").unwrap();
        t.insert(vec![Value::text("a"), Value::Int(10)]).unwrap();
        t.insert(vec![Value::text("b"), Value::Int(20)]).unwrap();
        let hits = c.scan("dna", &Predicate::gt("length", Value::Int(15))).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(matches!(c.scan("missing", &Predicate::True), Err(RelError::NoSuchTable(_))));
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.create_table("z", schema()).unwrap();
        c.create_table("a", schema()).unwrap();
        assert_eq!(c.table_names(), vec!["a", "z"]);
    }
}
