//! The `path(node1, node2)` primitive.
//!
//! The paper lists `path` as one of the two primitive a-graph operations: return a path
//! between two given nodes.  We implement shortest-path search by BFS (the a-graph is
//! unweighted) over a configurable direction and an optional length bound, so the same
//! machinery evaluates both the raw primitive and the query language's bounded
//! `PathExists` constraint.

use std::collections::{HashMap, VecDeque};

use crate::graph::{EdgeId, MultiGraph, NodeId};
use crate::traverse::Direction;

/// A concrete path through the a-graph: alternating nodes and the edges that join them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The nodes along the path, from source to target inclusive.
    pub nodes: Vec<NodeId>,
    /// The edges used, `edges[i]` joining `nodes[i]` and `nodes[i+1]`.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Number of edges in the path (0 when source == target).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the path is a single node.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The target node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path always has at least one node")
    }
}

/// A configurable shortest-path search.
///
/// By default the search ignores edge direction (the a-graph join index is navigated in
/// both directions by the demo UI) and follows any edge.
#[derive(Debug, Clone)]
pub struct PathSearch {
    direction: Direction,
    max_len: Option<usize>,
}

impl Default for PathSearch {
    fn default() -> Self {
        PathSearch { direction: Direction::Both, max_len: None }
    }
}

impl PathSearch {
    /// A search with default settings (undirected, unrestricted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Follow edges only in the given direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Bound the path length (number of edges).
    pub fn max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Find a shortest path from `from` to `to` under the configured restrictions.
    pub fn find(&self, graph: &MultiGraph, from: NodeId, to: NodeId) -> Option<Path> {
        if !graph.node_alive(from) || !graph.node_alive(to) {
            return None;
        }
        if from == to {
            return Some(Path { nodes: vec![from], edges: vec![] });
        }
        // parent[n] = (previous node, edge used)
        let mut parent: HashMap<NodeId, (NodeId, EdgeId)> = HashMap::new();
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        depth.insert(from, 0);
        let mut queue = VecDeque::new();
        queue.push_back(from);

        while let Some(node) = queue.pop_front() {
            let d = depth[&node];
            if let Some(max) = self.max_len {
                if d >= max {
                    continue;
                }
            }
            for (next, edge) in self.expand(graph, node) {
                if depth.contains_key(&next) {
                    continue;
                }
                depth.insert(next, d + 1);
                parent.insert(next, (node, edge));
                if next == to {
                    return Some(Self::rebuild(from, to, &parent));
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Shortest-path distance (number of edges), if a path exists.
    pub fn distance(&self, graph: &MultiGraph, from: NodeId, to: NodeId) -> Option<usize> {
        self.find(graph, from, to).map(|p| p.len())
    }

    /// Whether a path exists between the two nodes under the configured restrictions.
    pub fn exists(&self, graph: &MultiGraph, from: NodeId, to: NodeId) -> bool {
        self.find(graph, from, to).is_some()
    }

    fn expand(&self, graph: &MultiGraph, node: NodeId) -> Vec<(NodeId, EdgeId)> {
        let mut out = Vec::new();
        let mut push_edges = |edge_ids: &[EdgeId], forward: bool| {
            for &e in edge_ids {
                if let Some(rec) = graph.edge(e) {
                    out.push((if forward { rec.to } else { rec.from }, e));
                }
            }
        };
        match self.direction {
            Direction::Forward => push_edges(graph.out_edges(node), true),
            Direction::Backward => push_edges(graph.in_edges(node), false),
            Direction::Both => {
                push_edges(graph.out_edges(node), true);
                push_edges(graph.in_edges(node), false);
            }
        }
        out
    }

    fn rebuild(from: NodeId, to: NodeId, parent: &HashMap<NodeId, (NodeId, EdgeId)>) -> Path {
        let mut nodes = vec![to];
        let mut edges = Vec::new();
        let mut cur = to;
        while cur != from {
            let (prev, edge) = parent[&cur];
            nodes.push(prev);
            edges.push(edge);
            cur = prev;
        }
        nodes.reverse();
        edges.reverse();
        Path { nodes, edges }
    }
}

impl MultiGraph {
    /// The paper's `path(node1, node2)` primitive: a shortest undirected path between
    /// the two nodes, if one exists.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        PathSearch::new().find(self, from, to)
    }

    /// All simple (loop-free) undirected paths from `from` to `to` with at most `max_len`
    /// edges. Exponential in the worst case — intended for small neighbourhoods such as a
    /// result subgraph, so `max_len` should be kept small.
    pub fn all_simple_paths(&self, from: NodeId, to: NodeId, max_len: usize) -> Vec<Path> {
        let mut results = Vec::new();
        if !self.node_alive(from) || !self.node_alive(to) {
            return results;
        }
        let mut node_stack = vec![from];
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        let mut visited = std::collections::HashSet::new();
        visited.insert(from);
        self.dfs_paths(
            from,
            to,
            max_len,
            &mut node_stack,
            &mut edge_stack,
            &mut visited,
            &mut results,
        );
        results
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths(
        &self,
        current: NodeId,
        target: NodeId,
        max_len: usize,
        node_stack: &mut Vec<NodeId>,
        edge_stack: &mut Vec<EdgeId>,
        visited: &mut std::collections::HashSet<NodeId>,
        results: &mut Vec<Path>,
    ) {
        if current == target && node_stack.len() > 1 {
            results.push(Path { nodes: node_stack.clone(), edges: edge_stack.clone() });
            return;
        }
        if edge_stack.len() >= max_len {
            return;
        }
        // explore both directions
        let mut steps: Vec<(NodeId, EdgeId)> = Vec::new();
        for &e in self.out_edges(current) {
            if let Some(r) = self.edge(e) {
                steps.push((r.to, e));
            }
        }
        for &e in self.in_edges(current) {
            if let Some(r) = self.edge(e) {
                steps.push((r.from, e));
            }
        }
        for (next, edge) in steps {
            if visited.contains(&next) {
                continue;
            }
            visited.insert(next);
            node_stack.push(next);
            edge_stack.push(edge);
            self.dfs_paths(next, target, max_len, node_stack, edge_stack, visited, results);
            node_stack.pop();
            edge_stack.pop();
            visited.remove(&next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{EdgeLabel, NodeKind};

    /// content -> referent -> object, content -> term
    fn diamond() -> (MultiGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let c = g.add_node(NodeKind::Content, 1);
        let r = g.add_node(NodeKind::Referent, 2);
        let o = g.add_node(NodeKind::Object, 3);
        let t = g.add_node(NodeKind::OntologyTerm, 4);
        g.add_edge(c, r, EdgeLabel::annotates()).unwrap();
        g.add_edge(r, o, EdgeLabel::part_of()).unwrap();
        g.add_edge(c, t, EdgeLabel::cites_term()).unwrap();
        (g, c, r, o, t)
    }

    #[test]
    fn trivial_path_same_node() {
        let (g, c, ..) = diamond();
        let p = g.path(c, c).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.source(), c);
        assert_eq!(p.target(), c);
    }

    #[test]
    fn path_follows_edges() {
        let (g, c, r, o, _) = diamond();
        let p = g.path(c, o).unwrap();
        assert_eq!(p.nodes, vec![c, r, o]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn undirected_path_goes_backwards() {
        let (g, c, _, o, t) = diamond();
        // o -> c requires walking edges backwards; t -> o crosses through c and r.
        assert_eq!(g.path(o, c).unwrap().len(), 2);
        assert_eq!(g.path(t, o).unwrap().len(), 3);
    }

    #[test]
    fn directed_search_respects_direction() {
        let (g, c, _, o, _) = diamond();
        let forward = PathSearch::new().direction(Direction::Forward);
        assert!(forward.exists(&g, c, o));
        assert!(!forward.exists(&g, o, c));
        let backward = PathSearch::new().direction(Direction::Backward);
        assert!(backward.exists(&g, o, c));
    }

    #[test]
    fn max_len_bounds_search() {
        let (g, c, _, o, _) = diamond();
        assert!(PathSearch::new().max_len(1).find(&g, c, o).is_none());
        assert!(PathSearch::new().max_len(2).find(&g, c, o).is_some());
    }

    #[test]
    fn missing_nodes_give_none() {
        let (mut g, c, r, o, _) = diamond();
        g.remove_node(r).unwrap();
        assert!(g.path(c, o).is_none());
    }

    #[test]
    fn distance_matches_path_len() {
        let (g, c, _, o, _) = diamond();
        let s = PathSearch::new();
        assert_eq!(s.distance(&g, c, o), Some(2));
        assert_eq!(s.distance(&g, c, c), Some(0));
    }

    #[test]
    fn all_simple_paths_enumerates() {
        // a square: a-b-c-d-a, plus diagonal a-c
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Object, 5);
        let b = g.add_node(NodeKind::Object, 6);
        let c = g.add_node(NodeKind::Object, 7);
        let d = g.add_node(NodeKind::Object, 8);
        g.add_edge(a, b, EdgeLabel::new("e")).unwrap();
        g.add_edge(b, c, EdgeLabel::new("e")).unwrap();
        g.add_edge(c, d, EdgeLabel::new("e")).unwrap();
        g.add_edge(d, a, EdgeLabel::new("e")).unwrap();
        g.add_edge(a, c, EdgeLabel::new("e")).unwrap();

        // paths a->c within 3 edges: a-c (1), a-b-c (2), a-d-c (2)
        let paths = g.all_simple_paths(a, c, 3);
        assert_eq!(paths.len(), 3);
        // all are simple (no repeated nodes)
        for p in &paths {
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes.iter().all(|n| seen.insert(*n)));
        }
        // bounding length to 1 yields only the direct edge
        assert_eq!(g.all_simple_paths(a, c, 1).len(), 1);
    }

    #[test]
    fn all_simple_paths_missing_node() {
        let (mut g, c, r, o, _) = diamond();
        g.remove_node(r).unwrap();
        assert!(g.all_simple_paths(c, o, 5).is_empty());
    }

    #[test]
    fn shortest_path_is_chosen_among_alternatives() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Object, 9);
        let b = g.add_node(NodeKind::Object, 10);
        let c = g.add_node(NodeKind::Object, 11);
        let d = g.add_node(NodeKind::Object, 12);
        // long way a-b-c-d, short way a-d
        g.add_edge(a, b, EdgeLabel::new("e")).unwrap();
        g.add_edge(b, c, EdgeLabel::new("e")).unwrap();
        g.add_edge(c, d, EdgeLabel::new("e")).unwrap();
        g.add_edge(a, d, EdgeLabel::new("e")).unwrap();
        assert_eq!(g.path(a, d).unwrap().len(), 1);
    }
}
