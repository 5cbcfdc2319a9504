//! The `path(node1, node2)` primitive.
//!
//! The paper lists `path` as one of the two primitive a-graph operations: return a path
//! between two given nodes.  We implement shortest-path search by BFS (the a-graph is
//! unweighted) over edges in both directions with an optional length bound, so the same
//! machinery evaluates both the raw primitive and the query language's bounded
//! `PathExists` constraint.

use std::collections::{HashMap, VecDeque};

use crate::links::{steps, EdgeId, Links, NodeId};

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
}

/// A shortest-path search with an optional length bound.
///
/// The search ignores edge direction (the a-graph join index is navigated in both
/// directions by the demo UI) and follows any edge.
#[derive(Debug, Clone, Default)]
pub struct PathSearch {
    max_len: Option<usize>,
}

impl PathSearch {
    /// An unbounded search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the path length (number of edges).
    pub fn max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Find a shortest path from `from` to `to` under the configured restrictions.
    pub fn find<L: Links>(&self, links: &L, from: NodeId, to: NodeId) -> Option<Path> {
        links.kind(from)?;
        links.kind(to)?;
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
            if self.max_len.is_some_and(|max| d >= max) {
                continue;
            }
            let mut found = false;
            steps(links, node, |edge, next| {
                if found || depth.contains_key(&next) {
                    return;
                }
                depth.insert(next, d + 1);
                parent.insert(next, (node, edge));
                found = next == to;
                queue.push_back(next);
            });
            if found {
                return Some(Self::rebuild(from, to, &parent));
            }
        }
        None
    }

    /// Whether a path exists between the two nodes under the configured restrictions.
    pub fn exists<L: Links>(&self, links: &L, from: NodeId, to: NodeId) -> bool {
        self.find(links, from, to).is_some()
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

/// The paper's `path(node1, node2)` primitive: a shortest undirected path between the
/// two nodes, if one exists.
pub fn path<L: Links>(links: &L, from: NodeId, to: NodeId) -> Option<Path> {
    PathSearch::new().find(links, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{EdgeLabel, NodeKind};
    use crate::MultiGraph;

    /// content -> referent -> object, content -> term
    fn diamond() -> (MultiGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let c = g.add_node(NodeKind::Content, 1);
        let r = g.add_node(NodeKind::Referent, 2);
        let o = g.add_node(NodeKind::Object, 3);
        let t = g.add_node(NodeKind::OntologyTerm, 4);
        g.add_edge(c, r, EdgeLabel::Annotates).unwrap();
        g.add_edge(r, o, EdgeLabel::PartOf).unwrap();
        g.add_edge(c, t, EdgeLabel::CitesTerm).unwrap();
        (g, c, r, o, t)
    }

    #[test]
    fn trivial_path_same_node() {
        let (g, c, ..) = diamond();
        let p = path(&g, c, c).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![c]);
    }

    #[test]
    fn path_follows_edges() {
        let (g, c, r, o, _) = diamond();
        let p = path(&g, c, o).unwrap();
        assert_eq!(p.nodes, vec![c, r, o]);
        assert_eq!(p.edges, vec![EdgeId::new(c, 0), EdgeId::new(r, 0)]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn undirected_path_goes_backwards() {
        let (g, c, _, o, t) = diamond();
        // o -> c requires walking edges backwards; t -> o crosses through c and r.
        assert_eq!(path(&g, o, c).unwrap().len(), 2);
        assert_eq!(path(&g, t, o).unwrap().len(), 3);
    }

    #[test]
    fn max_len_bounds_search() {
        let (g, c, _, o, _) = diamond();
        assert!(PathSearch::new().max_len(1).find(&g, c, o).is_none());
        assert!(PathSearch::new().max_len(2).find(&g, c, o).is_some());
    }

    #[test]
    fn an_unknown_node_gives_none() {
        let (g, c, ..) = diamond();
        let unknown = NodeId::new(NodeKind::Object, 9);
        assert!(path(&g, c, unknown).is_none());
        assert!(path(&g, unknown, unknown).is_none());
    }

    #[test]
    fn shortest_path_is_chosen_among_alternatives() {
        // Two contents sharing referent 2, and a long way round through referents 0
        // and 1 and content 3: a-2-b is shorter than a-0-3-1-b.
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Content, 0);
        let b = g.add_node(NodeKind::Content, 1);
        let via = g.add_node(NodeKind::Content, 3);
        let [r0, r1, r2] = [0, 1, 2].map(|k| g.add_node(NodeKind::Referent, k));
        for (content, referent) in [(a, r0), (via, r0), (via, r1), (b, r1), (a, r2), (b, r2)] {
            g.add_edge(content, referent, EdgeLabel::Annotates).unwrap();
        }
        assert_eq!(path(&g, a, b).unwrap().nodes, vec![a, r2, b]);
    }
}
