//! Structural analysis of the a-graph.
//!
//! The query tab shows a result subgraph and lets the user explore it; these metrics
//! describe that structure (component sizes, degree distribution, hubs) and back
//! diagnostics over the whole join index.

use std::collections::HashMap;

use crate::graph::{MultiGraph, NodeId};
use crate::node::NodeKind;
use crate::traverse::connected_components;

/// Summary metrics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of weakly connected components.
    pub components: usize,
    /// Size of the largest weakly connected component.
    pub largest_component: usize,
    /// Maximum total (undirected) degree of any node.
    pub max_degree: usize,
    /// Count of nodes of each kind.
    pub kind_counts: HashMap<NodeKind, usize>,
}

/// Compute summary metrics for a graph.
pub fn metrics(graph: &MultiGraph) -> GraphMetrics {
    let comps = connected_components(graph);
    let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
    let max_degree = graph.nodes().map(|n| graph.degree(n)).max().unwrap_or(0);
    let mut kind_counts: HashMap<NodeKind, usize> = HashMap::new();
    for kind in NodeKind::ALL {
        kind_counts.insert(kind, graph.nodes_of_kind(kind).count());
    }
    GraphMetrics {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        components: comps.len(),
        largest_component: largest,
        max_degree,
        kind_counts,
    }
}

/// The degree distribution: a map from degree to the number of nodes with that degree.
pub fn degree_distribution(graph: &MultiGraph) -> HashMap<usize, usize> {
    let mut dist: HashMap<usize, usize> = HashMap::new();
    for n in graph.nodes() {
        *dist.entry(graph.degree(n)).or_insert(0) += 1;
    }
    dist
}

/// The nodes with the highest degree (top-k hubs), sorted by descending degree then id.
pub fn top_hubs(graph: &MultiGraph, k: usize) -> Vec<(NodeId, usize)> {
    let mut by_degree: Vec<(NodeId, usize)> = graph.nodes().map(|n| (n, graph.degree(n))).collect();
    by_degree.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_degree.truncate(k);
    by_degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::EdgeLabel;

    /// Two contents sharing one referent, plus an isolated object.
    fn sample() -> MultiGraph {
        let mut g = MultiGraph::new();
        let c1 = g.add_node(NodeKind::Content, 1);
        let c2 = g.add_node(NodeKind::Content, 2);
        let r = g.add_node(NodeKind::Referent, 3);
        g.add_edge(c1, r, EdgeLabel::annotates()).unwrap();
        g.add_edge(c2, r, EdgeLabel::annotates()).unwrap();
        g.add_node(NodeKind::Object, 4);
        g
    }

    #[test]
    fn metrics_summary() {
        let g = sample();
        let m = metrics(&g);
        assert_eq!(m.nodes, 4);
        assert_eq!(m.edges, 2);
        assert_eq!(m.components, 2); // the star + the lonely object
        assert_eq!(m.largest_component, 3);
        assert_eq!(m.max_degree, 2); // the shared referent
        assert_eq!(m.kind_counts[&NodeKind::Content], 2);
        assert_eq!(m.kind_counts[&NodeKind::Object], 1);
    }

    #[test]
    fn degree_distribution_counts() {
        let g = sample();
        let dist = degree_distribution(&g);
        // r has degree 2; c1, c2 have degree 1; lonely has degree 0
        assert_eq!(dist[&2], 1);
        assert_eq!(dist[&1], 2);
        assert_eq!(dist[&0], 1);
    }

    #[test]
    fn hubs() {
        let g = sample();
        let hubs = top_hubs(&g, 2);
        assert_eq!(hubs.len(), 2);
        assert_eq!(hubs[0].1, 2); // the shared referent is the top hub
    }

    #[test]
    fn empty_graph_metrics() {
        let g = MultiGraph::new();
        let m = metrics(&g);
        assert_eq!(m.nodes, 0);
        assert_eq!(m.components, 0);
    }
}
