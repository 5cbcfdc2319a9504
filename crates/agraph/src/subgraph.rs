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
        let r = g.add_node(NodeKind::Referent, 1);
        let o = g.add_node(NodeKind::Object, 2);
        g.add_edge(r, o, EdgeLabel::part_of()).unwrap();
        let contents: Vec<NodeId> = (0..3)
            .map(|i| {
                let c = g.add_node(NodeKind::Content, i as u64);
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
        assert!(cs.subgraph.nodes.contains(&r));
        assert_eq!(cs.size(), 3);
    }

    #[test]
    fn connect_all_three_contents() {
        let (g, contents, r, _) = star();
        let cs = g.connect(&contents).unwrap();
        assert_eq!(cs.size(), 4);
        assert!(cs.subgraph.nodes.contains(&r));
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
        let dead = g.add_node(NodeKind::Object, 3);
        g.remove_node(dead).unwrap();
        assert_eq!(g.connect(&[contents[0], dead]), Err(GraphError::NodeNotFound(dead)));
    }

    #[test]
    fn connect_disconnected_errors() {
        let (mut g, contents, ..) = star();
        let lonely = g.add_node(NodeKind::Object, 4);
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
            assert!(cs.subgraph.nodes.contains(t));
        }
    }
}
