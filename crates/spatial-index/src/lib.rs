//! # spatial-index — R-trees for 2-D / 3-D substructures
//!
//! The paper stores annotated regions of 2-D and 3-D data (image regions, brain
//! volumes) in *a collection of R-trees*, again keeping the number of structures small:
//! "regions of all brain images of the same resolution are referenced with respect to
//! the same brain coordinate system, and placed in a single R-tree".
//!
//! This crate provides:
//!
//! * [`Rect`] — an axis-aligned box in 2 or 3 dimensions with the substructure
//!   operators `ifOverlap` and `intersect`;
//! * [`RTree`] — a quadratic-split R-tree with overlap, containment and
//!   nearest-neighbour queries;
//! * [`CoordinateSystems`] — the collection of R-trees keyed by coordinate-system name.
//!
//! ```
//! use spatial_index::{CoordinateSystems, Rect};
//!
//! let mut cs = CoordinateSystems::new();
//! cs.insert("mouse-brain-25um", Rect::rect2(10.0, 10.0, 30.0, 40.0), 1);
//! cs.insert("mouse-brain-25um", Rect::rect2(25.0, 20.0, 60.0, 50.0), 2);
//! assert_eq!(cs.overlapping("mouse-brain-25um", Rect::rect2(26.0, 22.0, 28.0, 24.0)).len(), 2);
//! ```

pub mod collection;
pub mod rect;
pub mod rtree;

pub use collection::CoordinateSystems;
pub use rect::Rect;
pub use rtree::{RTree, SpatialEntry};
