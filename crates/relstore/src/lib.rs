//! # relstore — the in-memory relational store
//!
//! Graphitti models "data objects and their metadata … as type-specific relations
//! stored in a relational database — thus DNA sequences, protein sequences, images etc.
//! all have their metadata stored in separate tables.  The raw actual data is also
//! stored in the same tables in their native formats."
//!
//! This crate is that relational substrate, built from scratch:
//!
//! * [`value`] — typed values (`Int`, `Float`, `Text`, `Bool`, `Blob`, `Null`), the
//!   `(name, type)` column and [`check_row`], the one row check — Graphitti core runs
//!   it on an object's metadata row before registering the object, whose registry
//!   entry then holds the row;
//! * [`predicate`] — row predicates (equality, `>=`, LIKE-style substring match,
//!   NULL tests and disjunction) used by the relational baseline;
//! * [`table`] — a heap table of checked rows, read back by id or by predicate scan.
//!
//! ```
//! use relstore::{Column, ColumnType, Predicate, Table, Value};
//!
//! const DNA: &[Column] = &[("accession", ColumnType::Text), ("length", ColumnType::Int)];
//! let mut t = Table::new(DNA);
//! t.insert(vec![Value::text("NC_007373"), Value::Int(2300)]).unwrap();
//! assert!(t.insert(vec![Value::text("NC_007374")]).is_err());
//! let hits = t.scan(&Predicate::Ge("length".into(), Value::Int(1000)));
//! assert_eq!(hits.len(), 1);
//! ```

pub mod error;
pub mod predicate;
pub mod table;
pub mod value;

pub use error::RelError;
pub use predicate::Predicate;
pub use table::{RowId, Table};
pub use value::{check_row, Column, ColumnType, Value};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RelError>;
