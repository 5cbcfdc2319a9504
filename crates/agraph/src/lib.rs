//! # agraph — the Graphitti a-graph substrate
//!
//! The paper models the association structure between annotations and the data they
//! annotate as a directed labelled multigraph, the *a-graph*: nodes are annotation
//! contents, annotation referents (marked substructures of primary data), ontology
//! terms and whole objects; a directed edge connects a content to each of its
//! referents and to each ontology term it cites, and a referent to its object.  The
//! a-graph acts as a *general-purpose labelled join index* across every other store
//! in the system.
//!
//! Every one of those edges is a link some record already holds, so a system does not
//! store the graph: a node *is* its entity ([`NodeId`] packs the kind and the entity's
//! id), an edge is named by the record holding the link and the link's position there
//! ([`EdgeId`]), and the system lists a node's links through the [`Links`] trait.
//! This crate's algorithms are generic over [`Links`], including the two primitive
//! operations named in the paper:
//!
//! * [`path`] — return a path between two nodes, and
//! * [`connect`] — return a *connection subgraph* intervening a set of nodes.
//!
//! Breadth-first traversal in [`traverse`] and the connection-subgraph types in
//! [`subgraph`] serve the query processor; [`analysis`] summarises a graph's shape.
//! [`MultiGraph`] is an a-graph that stores its links, for tests, benchmarks and a
//! written-out copy of a system's graph.
//!
//! ```
//! use agraph::{EdgeLabel, MultiGraph, NodeKind};
//!
//! let mut g = MultiGraph::new();
//! let content = g.add_node(NodeKind::Content, 1);
//! let referent = g.add_node(NodeKind::Referent, 10);
//! g.add_edge(content, referent, EdgeLabel::Annotates).unwrap();
//! assert!(agraph::path(&g, content, referent).is_some());
//! ```

pub mod analysis;
pub mod error;
pub mod graph;
pub mod links;
pub mod node;
pub mod path;
pub mod subgraph;
pub mod traverse;

pub use analysis::{degree_distribution, metrics, top_hubs, GraphMetrics};
pub use error::GraphError;
pub use graph::MultiGraph;
pub use links::{EdgeId, EdgeRecord, Links, NodeId, MAX_LINKS};
pub use node::{EdgeLabel, NodeKind, NodeRecord};
pub use path::{path, Path, PathSearch};
pub use subgraph::{connect, ConnectionSubgraph, Subgraph};
pub use traverse::Bfs;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
