//! Annotation referents: marked substructures of specific objects.
//!
//! A referent is the paper's "marked portion of data object": a [`Marker`] applied to a
//! particular registered object.  Every referent becomes a `Referent` node in the
//! a-graph, and (for spatial / linear markers) an entry in the appropriate index.

use std::sync::Arc;

use crate::marker::Marker;
use crate::system::ObjectId;

/// Identifier of a referent within a [`Graphitti`](crate::Graphitti) system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReferentId(pub u64);

/// A marked substructure of a specific object.
#[derive(Debug, Clone, PartialEq)]
pub struct Referent {
    /// Identifier of the referent.
    pub id: ReferentId,
    /// The object whose substructure is marked.
    pub object: ObjectId,
    /// The marker describing the substructure.
    pub marker: Marker,
    /// The coordinate domain / system this referent was indexed under (e.g. the
    /// chromosome for a sequence interval or the coordinate system for an image region)
    /// — its object's [`ObjectInfo::domain`](crate::ObjectInfo::domain), shared.
    pub domain: Arc<str>,
}

impl Referent {
    /// Create a referent.
    pub fn new(
        id: ReferentId,
        object: ObjectId,
        marker: Marker,
        domain: impl Into<Arc<str>>,
    ) -> Self {
        Referent { id, object, marker, domain: domain.into() }
    }
}
