//! Error type for the Graphitti core system.

use std::fmt;

use crate::system::ObjectId;
use crate::types::{DataType, Dimensionality};

/// Errors raised by the Graphitti facade.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Referenced an object that does not exist.
    UnknownObject(ObjectId),
    /// A marker's dimensionality did not match the object's data type.
    MarkerKindMismatch {
        /// The object's data type.
        data_type: DataType,
        /// The object's dimensionality.
        expected: Dimensionality,
        /// The marker's dimensionality.
        got: Dimensionality,
    },
    /// An annotation was committed with no referents and no ontology terms, which would
    /// leave a dangling content node with nothing to link.
    EmptyAnnotation,
    /// A marker is malformed — an inverted interval or box, a NaN coordinate, an
    /// unsorted or duplicated block set — or fell outside the object's extent.
    MarkerOutOfBounds {
        /// The object it was applied to.
        object: ObjectId,
        /// A human-readable description of the violation.
        detail: String,
    },
    /// An object's metadata row that its type's relational columns refuse.
    Relational(String),
    /// An underlying a-graph error.
    Graph(String),
    /// A sharded annotation reused committed referents that live on one shard while
    /// its new marks (or other reused referents) pin it to a different shard.  An
    /// annotation is a shard-local row, so all of its referents must share one home.
    CrossShardReuse {
        /// The shard the annotation was routed to.
        home: usize,
        /// The different shard a reused referent lives on.
        reused: usize,
    },
    /// A durability-layer failure: the write-ahead log or checkpoint storage errored,
    /// or recovery found the persisted state unusable (e.g. a corrupt checkpoint).
    Durability(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownObject(id) => write!(f, "unknown object {id:?}"),
            CoreError::MarkerKindMismatch { data_type, expected, got } => {
                write!(f, "marker mismatch for {data_type:?}: expected {expected:?}, got {got:?}")
            }
            CoreError::EmptyAnnotation => {
                write!(f, "annotation has no referents and no ontology terms")
            }
            CoreError::MarkerOutOfBounds { object, detail } => {
                write!(f, "marker out of bounds on {object:?}: {detail}")
            }
            CoreError::Relational(m) => write!(f, "relational store error: {m}"),
            CoreError::Graph(m) => write!(f, "a-graph error: {m}"),
            CoreError::CrossShardReuse { home, reused } => write!(
                f,
                "cross-shard annotation: a reused referent lives on shard {reused} but the \
                 annotation is routed to shard {home} (co-locate reused referents or annotate \
                 them separately)"
            ),
            CoreError::Durability(m) => write!(f, "durability error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<agraph::GraphError> for CoreError {
    fn from(e: agraph::GraphError) -> Self {
        CoreError::Graph(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(CoreError::EmptyAnnotation.to_string().contains("no referents"));
        assert!(CoreError::Relational("x".into()).to_string().contains("relational"));
        let ge: CoreError = agraph::GraphError::TooFewTerminals(1).into();
        assert!(ge.to_string().contains("a-graph"));
        let cs = CoreError::CrossShardReuse { home: 2, reused: 5 }.to_string();
        assert!(cs.contains("shard 5") && cs.contains("shard 2"), "{cs}");
        assert!(CoreError::Durability("bad checkpoint".into()).to_string().contains("durability"));
    }
}
