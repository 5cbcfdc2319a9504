//! A heap table with optional secondary hash indexes.
//!
//! Rows live in a slab addressed by a dense [`RowId`]; removed rows are tombstoned so
//! ids stay stable (Graphitti core stores a row id in the a-graph node key for every
//! registered object).  Secondary hash indexes accelerate equality scans, which is how
//! the search forms look an accession or image id up.
//!
//! The slab is a [`ChunkedVec`]: `Table::clone` shares every chunk of rows, and an
//! insert into a clone copies the tail chunk only.

use std::collections::HashMap;

use chunked::ChunkedVec;

use crate::error::RelError;
use crate::predicate::Predicate;
use crate::value::{Schema, Value};
use crate::Result;

/// Identifier of a row within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

#[derive(Debug, Clone)]
struct Slot {
    values: Vec<Value>,
    alive: bool,
}

/// A secondary hash index over one column's values.
#[derive(Debug, Clone)]
struct HashIndex {
    column: usize,
    // key is the value rendered to its display string (cheap, good enough for the
    // value domains used here), mapping to the row ids carrying that value
    buckets: HashMap<String, Vec<RowId>>,
}

/// A heap table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    slots: ChunkedVec<Slot>,
    live: usize,
    indexes: HashMap<String, HashIndex>,
}

fn index_key(v: &Value) -> String {
    // Distinguish types so that Int(1) and Text("1") never collide.
    match v {
        Value::Null => "\0null".to_string(),
        Value::Int(i) => format!("i{i}"),
        Value::Float(x) => format!("f{x}"),
        Value::Text(t) => format!("t{t}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Blob(b) => format!("x{}", b.len()),
    }
}

impl Table {
    /// Create an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            slots: ChunkedVec::new(),
            live: 0,
            indexes: HashMap::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a row, type-checking it against the schema, and return its id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        if values.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (col, value) in self.schema.columns.iter().zip(&values) {
            if !value.matches(col.ty) {
                return Err(RelError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                    got: format!("{value:?}"),
                });
            }
        }
        let id = RowId(self.slots.len() as u64);
        for index in self.indexes.values_mut() {
            let key = index_key(&values[index.column]);
            index.buckets.entry(key).or_default().push(id);
        }
        self.slots.push(Slot { values, alive: true });
        self.live += 1;
        Ok(id)
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.slots.get(id.0 as usize).filter(|s| s.alive).map(|s| s.values.as_slice())
    }

    /// Fetch a single column value of a row.
    pub fn get_value(&self, id: RowId, column: &str) -> Option<&Value> {
        let idx = self.schema.column_index(column)?;
        self.get(id).and_then(|row| row.get(idx))
    }

    /// Remove a row by id; returns the removed values.
    pub fn remove(&mut self, id: RowId) -> Result<Vec<Value>> {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .filter(|s| s.alive)
            .ok_or(RelError::NoSuchRow(id.0))?;
        slot.alive = false;
        let values = slot.values.clone();
        self.live -= 1;
        for index in self.indexes.values_mut() {
            let key = index_key(&values[index.column]);
            if let Some(bucket) = index.buckets.get_mut(&key) {
                bucket.retain(|&r| r != id);
                if bucket.is_empty() {
                    index.buckets.remove(&key);
                }
            }
        }
        Ok(values)
    }

    /// Update a row in place (re-type-checked and re-indexed).
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> Result<()> {
        self.get(id).ok_or(RelError::NoSuchRow(id.0))?;
        if values.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (col, value) in self.schema.columns.iter().zip(&values) {
            if !value.matches(col.ty) {
                return Err(RelError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                    got: format!("{value:?}"),
                });
            }
        }
        let slot = self.slots.get_mut(id.0 as usize).expect("row checked to exist above");
        let old = std::mem::replace(&mut slot.values, values);
        let values = &slot.values;
        for index in self.indexes.values_mut() {
            let old_key = index_key(&old[index.column]);
            if let Some(bucket) = index.buckets.get_mut(&old_key) {
                bucket.retain(|&r| r != id);
            }
            let new_key = index_key(&values[index.column]);
            index.buckets.entry(new_key).or_default().push(id);
        }
        Ok(())
    }

    /// Create a secondary hash index on a column.
    pub fn create_index(&mut self, name: impl Into<String>, column: &str) -> Result<()> {
        let name = name.into();
        if self.indexes.contains_key(&name) {
            return Err(RelError::IndexExists(name));
        }
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| RelError::NoSuchColumn(column.to_string()))?;
        let mut buckets: HashMap<String, Vec<RowId>> = HashMap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.alive {
                buckets.entry(index_key(&slot.values[col])).or_default().push(RowId(i as u64));
            }
        }
        self.indexes.insert(name, HashIndex { column: col, buckets });
        Ok(())
    }

    /// Whether any secondary index covers the named column.
    pub fn has_index_on(&self, column: &str) -> bool {
        self.schema
            .column_index(column)
            .map(|idx| self.indexes.values().any(|i| i.column == idx))
            .unwrap_or(false)
    }

    /// All live row ids in ascending order.
    pub fn row_ids(&self) -> Vec<RowId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| RowId(i as u64))
            .collect()
    }

    /// Iterate over `(id, row)` for every live row.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, s)| (RowId(i as u64), s.values.as_slice()))
    }

    /// Scan the table for rows satisfying the predicate, returning their ids.
    ///
    /// When the predicate pins an indexed column to an equality value, the matching
    /// bucket is scanned instead of the whole table.
    pub fn scan(&self, predicate: &Predicate) -> Vec<RowId> {
        if let Some((column, value)) = predicate.equality_binding() {
            if let Some(col_idx) = self.schema.column_index(column) {
                if let Some(index) = self.indexes.values().find(|i| i.column == col_idx) {
                    let key = index_key(value);
                    let candidates = index.buckets.get(&key).cloned().unwrap_or_default();
                    return candidates
                        .into_iter()
                        .filter(|&id| {
                            self.get(id)
                                .map(|row| predicate.eval(&self.schema, row))
                                .unwrap_or(false)
                        })
                        .collect();
                }
            }
        }
        self.rows().filter(|(_, row)| predicate.eval(&self.schema, row)).map(|(id, _)| id).collect()
    }

    /// Scan and return `(id, row)` pairs.
    pub fn select(&self, predicate: &Predicate) -> Vec<(RowId, Vec<Value>)> {
        self.scan(predicate)
            .into_iter()
            .filter_map(|id| self.get(id).map(|r| (id, r.to_vec())))
            .collect()
    }

    /// Count rows matching a predicate.
    pub fn count(&self, predicate: &Predicate) -> usize {
        self.scan(predicate).len()
    }

    /// Project selected columns from matching rows.
    pub fn project(&self, predicate: &Predicate, columns: &[&str]) -> Result<Vec<Vec<Value>>> {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema.column_index(c).ok_or_else(|| RelError::NoSuchColumn(c.to_string()))
            })
            .collect::<Result<_>>()?;
        Ok(self
            .scan(predicate)
            .into_iter()
            .filter_map(|id| self.get(id))
            .map(|row| idxs.iter().map(|&i| row[i].clone()).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType};

    fn dna_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("accession", ColumnType::Text),
            Column::new("length", ColumnType::Int),
            Column::new("organism", ColumnType::Text),
        ]);
        let mut t = Table::new("dna_sequence", schema);
        t.insert(vec![Value::text("A1"), Value::Int(1000), Value::text("H5N1")]).unwrap();
        t.insert(vec![Value::text("A2"), Value::Int(2300), Value::text("H5N1")]).unwrap();
        t.insert(vec![Value::text("A3"), Value::Int(900), Value::text("H1N1")]).unwrap();
        t
    }

    #[test]
    fn insert_and_get() {
        let t = dna_table();
        assert_eq!(t.len(), 3);
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
        // NULL is allowed in any column
        assert!(t.insert(vec![Value::Null, Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn scan_without_index() {
        let t = dna_table();
        let hits = t.scan(&Predicate::gt("length", Value::Int(950)));
        assert_eq!(hits, vec![RowId(0), RowId(1)]);
        assert_eq!(t.count(&Predicate::eq("organism", Value::text("H5N1"))), 2);
    }

    #[test]
    fn scan_uses_index() {
        let mut t = dna_table();
        t.create_index("by_accession", "accession").unwrap();
        assert!(t.has_index_on("accession"));
        assert!(!t.has_index_on("length"));
        let hits = t.scan(&Predicate::eq("accession", Value::text("A2")));
        assert_eq!(hits, vec![RowId(1)]);
        // compound predicate still routed through the index on the equality part
        let compound = Predicate::eq("accession", Value::text("A2"))
            .and(Predicate::gt("length", Value::Int(2000)));
        assert_eq!(t.scan(&compound), vec![RowId(1)]);
        let miss = Predicate::eq("accession", Value::text("nope"));
        assert!(t.scan(&miss).is_empty());
    }

    #[test]
    fn index_built_after_inserts_then_maintained() {
        let mut t = dna_table();
        t.create_index("org", "organism").unwrap();
        t.insert(vec![Value::text("A4"), Value::Int(1500), Value::text("H5N1")]).unwrap();
        assert_eq!(t.scan(&Predicate::eq("organism", Value::text("H5N1"))).len(), 3);
        assert_eq!(t.create_index("org", "organism"), Err(RelError::IndexExists("org".into())));
        assert!(matches!(t.create_index("bad", "nope"), Err(RelError::NoSuchColumn(_))));
    }

    #[test]
    fn remove_updates_index() {
        let mut t = dna_table();
        t.create_index("org", "organism").unwrap();
        t.remove(RowId(0)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.scan(&Predicate::eq("organism", Value::text("H5N1"))), vec![RowId(1)]);
        assert!(t.get(RowId(0)).is_none());
        assert_eq!(t.remove(RowId(0)), Err(RelError::NoSuchRow(0)));
    }

    #[test]
    fn update_reindexes() {
        let mut t = dna_table();
        t.create_index("org", "organism").unwrap();
        t.update(RowId(2), vec![Value::text("A3"), Value::Int(900), Value::text("H5N1")]).unwrap();
        assert_eq!(t.scan(&Predicate::eq("organism", Value::text("H5N1"))).len(), 3);
        assert_eq!(t.scan(&Predicate::eq("organism", Value::text("H1N1"))).len(), 0);
    }

    #[test]
    fn project_columns() {
        let t = dna_table();
        let rows =
            t.project(&Predicate::eq("organism", Value::text("H5N1")), &["accession"]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::text("A1")]);
        assert!(matches!(t.project(&Predicate::True, &["nope"]), Err(RelError::NoSuchColumn(_))));
    }

    #[test]
    fn ids_stable_after_removal() {
        let mut t = dna_table();
        t.remove(RowId(1)).unwrap();
        let id = t.insert(vec![Value::text("A4"), Value::Int(1), Value::text("X")]).unwrap();
        assert_eq!(id, RowId(3));
        assert_eq!(t.row_ids(), vec![RowId(0), RowId(2), RowId(3)]);
    }
}
