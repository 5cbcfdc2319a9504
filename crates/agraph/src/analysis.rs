//! Structural analysis of the a-graph.
//!
//! The query tab shows a result subgraph and lets the user explore it; these metrics
//! describe that structure (component sizes, degree distribution, hubs) and back
//! diagnostics over the whole join index.

use std::collections::HashMap;

use crate::links::{degree, Links, NodeId};
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

/// Summary metrics of the graph of `nodes` (every node of it) under `links`.
pub fn metrics<L: Links>(links: &L, nodes: &[NodeId]) -> GraphMetrics {
    let comps = connected_components(links, nodes.iter().copied());
    let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
    let mut kind_counts: HashMap<NodeKind, usize> =
        NodeKind::ALL.into_iter().map(|kind| (kind, 0)).collect();
    let (mut edges, mut max_degree) = (0, 0);
    for &node in nodes {
        *kind_counts.entry(node.record().kind).or_insert(0) += 1;
        links.out_links(node, |_, _| edges += 1);
        max_degree = max_degree.max(degree(links, node));
    }
    GraphMetrics {
        nodes: nodes.len(),
        edges,
        components: comps.len(),
        largest_component: largest,
        max_degree,
        kind_counts,
    }
}

/// The degree distribution of `nodes`: a map from degree to the number of nodes with
/// that degree.
pub fn degree_distribution<L: Links>(links: &L, nodes: &[NodeId]) -> HashMap<usize, usize> {
    let mut dist: HashMap<usize, usize> = HashMap::new();
    for &n in nodes {
        *dist.entry(degree(links, n)).or_insert(0) += 1;
    }
    dist
}

/// The nodes of `nodes` with the highest degree (top-k hubs), sorted by descending
/// degree then id.
pub fn top_hubs<L: Links>(links: &L, nodes: &[NodeId], k: usize) -> Vec<(NodeId, usize)> {
    let mut by_degree: Vec<(NodeId, usize)> =
        nodes.iter().map(|&n| (n, degree(links, n))).collect();
    by_degree.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_degree.truncate(k);
    by_degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::EdgeLabel;
    use crate::MultiGraph;

    /// Two contents sharing one referent, plus an isolated object.
    fn sample() -> (MultiGraph, Vec<NodeId>) {
        let mut g = MultiGraph::new();
        let c1 = g.add_node(NodeKind::Content, 1);
        let c2 = g.add_node(NodeKind::Content, 2);
        let r = g.add_node(NodeKind::Referent, 3);
        g.add_edge(c1, r, EdgeLabel::Annotates).unwrap();
        g.add_edge(c2, r, EdgeLabel::Annotates).unwrap();
        g.add_node(NodeKind::Object, 4);
        let nodes = g.nodes().collect();
        (g, nodes)
    }

    #[test]
    fn metrics_summary() {
        let (g, nodes) = sample();
        let m = metrics(&g, &nodes);
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
        let (g, nodes) = sample();
        let dist = degree_distribution(&g, &nodes);
        // r has degree 2; c1, c2 have degree 1; lonely has degree 0
        assert_eq!(dist[&2], 1);
        assert_eq!(dist[&1], 2);
        assert_eq!(dist[&0], 1);
    }

    #[test]
    fn hubs() {
        let (g, nodes) = sample();
        let hubs = top_hubs(&g, &nodes, 2);
        assert_eq!(hubs.len(), 2);
        assert_eq!(hubs[0].1, 2); // the shared referent is the top hub
    }

    #[test]
    fn empty_graph_metrics() {
        let g = MultiGraph::new();
        let m = metrics(&g, &[]);
        assert_eq!(m.nodes, 0);
        assert_eq!(m.components, 0);
    }
}
