//! # relstore — the in-memory relational store
//!
//! Graphitti models "data objects and their metadata … as type-specific relations
//! stored in a relational database — thus DNA sequences, protein sequences, images etc.
//! all have their metadata stored in separate tables.  The raw actual data is also
//! stored in the same tables in their native formats."
//!
//! This crate is that relational substrate, built from scratch:
//!
//! * [`value`] — typed values (`Int`, `Float`, `Text`, `Bool`, `Blob`, `Null`) and the
//!   column schema;
//! * [`predicate`] — row predicates (equality, `>=`, LIKE-style substring match,
//!   NULL tests and disjunction) used by search forms and the relational baseline;
//! * [`table`] — a heap table with primary-key access and optional secondary indexes;
//! * [`catalog`] — the named collection of type-specific tables (one per registered
//!   data type).
//!
//! ```
//! use relstore::{Catalog, Column, ColumnType, Predicate, Schema, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![
//!     Column::new("accession", ColumnType::Text),
//!     Column::new("length", ColumnType::Int),
//! ]);
//! catalog.create_table("dna_sequence", schema).unwrap();
//! let t = catalog.table_mut("dna_sequence").unwrap();
//! t.insert(vec![Value::text("NC_007373"), Value::Int(2300)]).unwrap();
//! let hits = t.scan(&Predicate::ge("length", Value::Int(1000)));
//! assert_eq!(hits.len(), 1);
//! ```

pub mod catalog;
pub mod error;
pub mod predicate;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use error::RelError;
pub use predicate::Predicate;
pub use table::{RowId, Table};
pub use value::{Column, ColumnType, Row, Schema, Value};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RelError>;
