//! # interval-index — 1-D substructure indexes for Graphitti
//!
//! The paper stores the annotated substructures of 1-D data (DNA / RNA / protein
//! sequences, alignment columns, …) in *a collection of interval trees*, keeping the
//! number of index structures small by sharing one tree per coordinate domain (e.g. a
//! single tree per chromosome rather than one per annotated sequence).
//!
//! This crate provides:
//!
//! * [`Interval`] — a half-open 1-D interval plus the paper's substructure operators
//!   `ifOverlap`, `intersect` and (over an index) `next`;
//! * [`IntervalTree`] — an augmented balanced interval tree with overlap /
//!   containment / nearest-successor queries;
//! * [`DomainIntervals`] — the "collection of interval trees" keyed by domain name,
//!   which is what Graphitti core registers referents into.
//!
//! ```
//! use interval_index::{DomainIntervals, Interval};
//!
//! let mut idx = DomainIntervals::new();
//! idx.insert("chr7", Interval::new(100, 250), 1);
//! idx.insert("chr7", Interval::new(240, 400), 2);
//! idx.insert("chr8", Interval::new(100, 250), 3);
//! let hits = idx.overlapping("chr7", Interval::new(245, 246));
//! assert_eq!(hits.len(), 2);
//! ```

pub mod collection;
pub mod interval;
pub mod tree;

pub use collection::DomainIntervals;
pub use interval::Interval;
pub use tree::{Entry, IntervalTree};
