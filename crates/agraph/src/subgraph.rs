//! The `connect(node1, node2, ...)` primitive and general subgraph extraction.
//!
//! `connect` returns a *connection subgraph* intervening a set of terminal nodes: a
//! small subgraph of the a-graph that contains all terminals and links them together.
//! Computing a minimum such subgraph is the (NP-hard) Steiner tree problem, so we use
//! the standard shortest-path heuristic: grow a tree by repeatedly attaching the
//! terminal that is closest (by undirected BFS distance) to the tree built so far.
//! The result is within 2× of optimal for the metric closure, which is plenty for a
//! join-index structure whose purpose is to *show* how results are related.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::error::GraphError;
use crate::graph::{EdgeId, MultiGraph, NodeId};
use crate::node::NodeKind;
use crate::Result;

/// A materialised subgraph of the a-graph: a set of nodes and the edges among them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subgraph {
    /// Member nodes.
    pub nodes: Vec<NodeId>,
    /// Member edges (each joining two member nodes).
    pub edges: Vec<EdgeId>,
}

impl Subgraph {
    /// An empty subgraph.
    pub fn new() -> Self {
        Subgraph::default()
    }

    /// Build the *induced* subgraph on a node set: all member nodes plus every live
    /// edge of the parent graph whose endpoints both belong to the set.
    ///
    /// Cost is `O(Σ out-degree of members)` — it walks each member's outgoing edges
    /// rather than scanning the whole parent graph.
    pub fn induced(graph: &MultiGraph, nodes: impl IntoIterator<Item = NodeId>) -> Subgraph {
        let set: HashSet<NodeId> = nodes.into_iter().filter(|&n| graph.node_alive(n)).collect();
        let mut nodes: Vec<NodeId> = set.iter().copied().collect();
        nodes.sort();
        let mut edges = Vec::new();
        for &n in &nodes {
            for &e in graph.out_edges(n) {
                if let Some(rec) = graph.edge(e) {
                    if set.contains(&rec.to) {
                        edges.push(e);
                    }
                }
            }
        }
        edges.sort();
        Subgraph { nodes, edges }
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of member edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the subgraph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether a node belongs to the subgraph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok() || self.nodes.contains(&node)
    }

    /// Member nodes of a particular kind.
    pub fn nodes_of_kind(&self, graph: &MultiGraph, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| graph.node(n).map(|r| r.kind == kind).unwrap_or(false))
            .collect()
    }

    /// Merge another subgraph into this one (set union on nodes and edges).
    pub fn union_with(&mut self, other: &Subgraph) {
        let node_set: HashSet<NodeId> = self.nodes.iter().copied().collect();
        for &n in &other.nodes {
            if !node_set.contains(&n) {
                self.nodes.push(n);
            }
        }
        let edge_set: HashSet<EdgeId> = self.edges.iter().copied().collect();
        for &e in &other.edges {
            if !edge_set.contains(&e) {
                self.edges.push(e);
            }
        }
        self.nodes.sort();
        self.edges.sort();
    }
}

/// The result of the `connect` primitive: a connection subgraph plus the terminals it
/// was asked to connect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionSubgraph {
    /// The terminal nodes the caller asked to connect.
    pub terminals: Vec<NodeId>,
    /// The intervening subgraph (contains every terminal).
    pub subgraph: Subgraph,
}

impl ConnectionSubgraph {
    /// Total number of nodes in the connection subgraph.
    pub fn size(&self) -> usize {
        self.subgraph.node_count()
    }

    /// The non-terminal ("Steiner") nodes introduced to connect the terminals.
    pub fn steiner_nodes(&self) -> Vec<NodeId> {
        let terms: HashSet<NodeId> = self.terminals.iter().copied().collect();
        self.subgraph.nodes.iter().copied().filter(|n| !terms.contains(n)).collect()
    }
}

impl MultiGraph {
    /// The paper's `connect(node1, node2, ...)` primitive: a connection subgraph
    /// intervening the given nodes.
    ///
    /// Returns an error if fewer than two distinct live terminals are supplied or the
    /// terminals are not mutually reachable ignoring edge direction.
    pub fn connect(&self, terminals: &[NodeId]) -> Result<ConnectionSubgraph> {
        let mut terms: Vec<NodeId> = Vec::new();
        for &t in terminals {
            if !self.node_alive(t) {
                return Err(GraphError::NodeNotFound(t));
            }
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        if terms.len() < 2 {
            return Err(GraphError::TooFewTerminals(terms.len()));
        }

        // Grow a Steiner-ish tree: start from the first terminal, repeatedly run a BFS
        // from the current tree and attach the nearest missing terminal along its
        // shortest path.
        let mut tree_nodes: HashSet<NodeId> = HashSet::new();
        let mut tree_edges: HashSet<EdgeId> = HashSet::new();
        tree_nodes.insert(terms[0]);
        let mut remaining: Vec<NodeId> = terms[1..].to_vec();

        while !remaining.is_empty() {
            match self.nearest_terminal(&tree_nodes, &remaining) {
                Some((reached, path_nodes, path_edges)) => {
                    for n in path_nodes {
                        tree_nodes.insert(n);
                    }
                    for e in path_edges {
                        tree_edges.insert(e);
                    }
                    remaining.retain(|&t| t != reached);
                }
                None => {
                    return Err(GraphError::Disconnected { unreachable: remaining[0] });
                }
            }
        }

        let mut nodes: Vec<NodeId> = tree_nodes.into_iter().collect();
        nodes.sort();
        let mut edges: Vec<EdgeId> = tree_edges.into_iter().collect();
        edges.sort();
        Ok(ConnectionSubgraph { terminals: terms, subgraph: Subgraph { nodes, edges } })
    }

    /// Multi-source BFS from the current tree; returns the first remaining terminal
    /// reached together with the path (nodes and edges) that attaches it to the tree.
    fn nearest_terminal(
        &self,
        tree: &HashSet<NodeId>,
        remaining: &[NodeId],
    ) -> Option<(NodeId, Vec<NodeId>, Vec<EdgeId>)> {
        let targets: HashSet<NodeId> = remaining.iter().copied().collect();
        let mut parent: HashMap<NodeId, (NodeId, EdgeId)> = HashMap::new();
        let mut visited: HashSet<NodeId> = tree.clone();
        let mut queue: VecDeque<NodeId> = tree.iter().copied().collect();

        while let Some(node) = queue.pop_front() {
            for (next, edge) in self.undirected_steps(node) {
                if visited.contains(&next) {
                    continue;
                }
                visited.insert(next);
                parent.insert(next, (node, edge));
                if targets.contains(&next) {
                    // rebuild the attachment path back to the tree
                    let mut path_nodes = vec![next];
                    let mut path_edges = Vec::new();
                    let mut cur = next;
                    while let Some(&(prev, e)) = parent.get(&cur) {
                        path_edges.push(e);
                        path_nodes.push(prev);
                        if tree.contains(&prev) {
                            break;
                        }
                        cur = prev;
                    }
                    return Some((next, path_nodes, path_edges));
                }
                queue.push_back(next);
            }
        }
        None
    }

    fn undirected_steps(&self, node: NodeId) -> Vec<(NodeId, EdgeId)> {
        let mut out = Vec::new();
        for &e in self.out_edges(node) {
            if let Some(rec) = self.edge(e) {
                out.push((rec.to, e));
            }
        }
        for &e in self.in_edges(node) {
            if let Some(rec) = self.edge(e) {
                out.push((rec.from, e));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{EdgeLabel, NodeKind};

    /// Star: three contents annotating a shared referent; referent part-of one object.
    fn star() -> (MultiGraph, Vec<NodeId>, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let r = g.add_node(NodeKind::Referent, "r");
        let o = g.add_node(NodeKind::Object, "o");
        g.add_edge(r, o, EdgeLabel::part_of()).unwrap();
        let contents: Vec<NodeId> = (0..3)
            .map(|i| {
                let c = g.add_node(NodeKind::Content, format!("c{i}"));
                g.add_edge(c, r, EdgeLabel::annotates()).unwrap();
                c
            })
            .collect();
        (g, contents, r, o)
    }

    #[test]
    fn connect_two_contents_goes_through_shared_referent() {
        let (g, contents, r, _) = star();
        let cs = g.connect(&[contents[0], contents[1]]).unwrap();
        assert!(cs.subgraph.contains_node(r));
        assert_eq!(cs.size(), 3);
        assert_eq!(cs.steiner_nodes(), vec![r]);
    }

    #[test]
    fn connect_all_three_contents() {
        let (g, contents, r, _) = star();
        let cs = g.connect(&contents).unwrap();
        assert_eq!(cs.size(), 4);
        assert!(cs.subgraph.contains_node(r));
        assert_eq!(cs.subgraph.edge_count(), 3);
    }

    #[test]
    fn connect_requires_two_terminals() {
        let (g, contents, ..) = star();
        assert_eq!(g.connect(&[contents[0]]), Err(GraphError::TooFewTerminals(1)));
        assert_eq!(g.connect(&[contents[0], contents[0]]), Err(GraphError::TooFewTerminals(1)));
    }

    #[test]
    fn connect_dead_terminal_errors() {
        let (mut g, contents, ..) = star();
        let dead = g.add_node(NodeKind::Object, "dead");
        g.remove_node(dead).unwrap();
        assert_eq!(g.connect(&[contents[0], dead]), Err(GraphError::NodeNotFound(dead)));
    }

    #[test]
    fn connect_disconnected_errors() {
        let (mut g, contents, ..) = star();
        let lonely = g.add_node(NodeKind::Object, "island");
        match g.connect(&[contents[0], lonely]) {
            Err(GraphError::Disconnected { unreachable }) => assert_eq!(unreachable, lonely),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn connection_contains_all_terminals() {
        let (g, contents, _, o) = star();
        let cs = g.connect(&[contents[0], contents[2], o]).unwrap();
        for t in &cs.terminals {
            assert!(cs.subgraph.contains_node(*t));
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let (g, contents, r, o) = star();
        let sub = Subgraph::induced(&g, [contents[0], r]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        let sub2 = Subgraph::induced(&g, [contents[0], o]);
        assert_eq!(sub2.edge_count(), 0);
    }

    #[test]
    fn induced_subgraph_skips_dead_nodes() {
        let (mut g, contents, r, _) = star();
        g.remove_node(contents[1]).unwrap();
        let sub = Subgraph::induced(&g, [contents[1], r]);
        assert_eq!(sub.node_count(), 1);
    }

    #[test]
    fn subgraph_union() {
        let (g, contents, r, o) = star();
        let mut a = Subgraph::induced(&g, [contents[0], r]);
        let b = Subgraph::induced(&g, [r, o]);
        a.union_with(&b);
        assert_eq!(a.node_count(), 3);
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn nodes_of_kind_on_subgraph() {
        let (g, contents, r, o) = star();
        let sub = Subgraph::induced(&g, [contents[0], contents[1], r, o]);
        assert_eq!(sub.nodes_of_kind(&g, NodeKind::Content).len(), 2);
        assert_eq!(sub.nodes_of_kind(&g, NodeKind::Referent), vec![r]);
        assert_eq!(sub.nodes_of_kind(&g, NodeKind::Object), vec![o]);
    }
}
