//! # agraph — the Graphitti a-graph substrate
//!
//! The paper models the association structure between annotations and the data they
//! annotate as a directed labelled multigraph, the *a-graph*: nodes are annotation
//! contents, annotation referents (marked substructures of primary data) and ontology
//! terms; a directed edge connects a content to each of its referents and to each
//! ontology term it cites.  The a-graph acts as a *general-purpose labelled join index*
//! across every other store in the system.
//!
//! This crate implements that multigraph from scratch, together with the two primitive
//! operations named in the paper:
//!
//! * [`MultiGraph::path`] — return a path between two nodes, and
//! * [`MultiGraph::connect`] — return a *connection subgraph* intervening a set of nodes.
//!
//! Breadth-first traversal in [`traverse`] and the connection-subgraph types in
//! [`subgraph`] serve the query processor; [`analysis`] summarises a graph's shape.
//!
//! ```
//! use agraph::{MultiGraph, NodeKind, EdgeLabel};
//!
//! let mut g = MultiGraph::new();
//! let content = g.add_node(NodeKind::Content, 1);
//! let referent = g.add_node(NodeKind::Referent, 10);
//! g.add_edge(content, referent, EdgeLabel::new("annotates"));
//! assert!(g.path(content, referent).is_some());
//! ```

pub mod analysis;
pub mod error;
pub mod graph;
pub mod node;
pub mod path;
pub mod subgraph;
pub mod traverse;

pub use analysis::{degree_distribution, metrics, top_hubs, GraphMetrics};
pub use error::GraphError;
pub use graph::{EdgeId, EdgeRecord, MultiGraph, NodeId};
pub use node::{EdgeLabel, NodeKind, NodeRecord};
pub use path::{Path, PathSearch};
pub use subgraph::{ConnectionSubgraph, Subgraph};
pub use traverse::Bfs;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
