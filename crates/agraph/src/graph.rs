//! A directed labelled multigraph that stores its own links.
//!
//! A Graphitti system does not store its a-graph: it implements [`Links`] over the
//! records that already hold the links.  `MultiGraph` is the a-graph written out —
//! for this crate's tests and micro-benchmarks, and for a caller that wants a
//! system's graph as plain records ([`MultiGraph::from_links`]).  Nodes and edges sit
//! in two flat `Vec`s: a node's position is found through the `Vec` of its kind,
//! indexed by its entity id, and each node threads its out-edges and its in-edges
//! through the edges themselves (each edge names the next of both its lists), so the
//! graph is four allocations whatever its size.  Two `Vec`s of links per node cost a
//! system's compatibility image (`agraph()`) ≈ 60 more bytes per node: ≈ 0.3 MB more
//! peak RSS on the end-to-end benchmark's `revisit_hot` workload.

use crate::error::GraphError;
use crate::links::{EdgeId, EdgeRecord, Links, NodeId, MAX_LINKS};
use crate::node::{EdgeLabel, NodeKind, NodeRecord};
use crate::Result;

/// No node at a key, or no next edge in a list.
const NONE: u32 = u32::MAX;

/// A node's two lists — out-edges (`OUT`) and in-edges (`IN`) — each threaded through
/// its edges as `[first, last]`, and its out-degree, the next out-edge's link position.
#[derive(Debug, Clone, Copy)]
struct Node {
    lists: [[u32; 2]; 2],
    degree: u32,
}

const OUT: usize = 0;
const IN: usize = 1;

#[derive(Debug, Clone)]
struct Edge {
    record: EdgeRecord,
    /// The edge's position among its source's out-links.
    link: u32,
    /// The next edge of the source's out-list and of the target's in-list.
    next: [u32; 2],
}

/// A directed labelled multigraph: nodes are `(kind, key)` entities, and multiple
/// edges between the same pair of nodes are allowed (two annotations of one
/// referent, one annotation citing a term twice).
#[derive(Debug, Clone, Default)]
pub struct MultiGraph {
    /// Per kind, indexed by key: the node's position in `nodes`, or `NONE`.  Keys
    /// index a `Vec`, so they should be small and dense, as entity ids are.
    index: [Vec<u32>; 4],
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl MultiGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        MultiGraph::default()
    }

    /// The graph of every node of `nodes` and every out-link `links` lists for them,
    /// labelled by their endpoint kinds: a written-out copy whose node and edge ids
    /// are `links`' own.  Every out-link must lead to a node of `nodes`, between kinds
    /// an a-graph edge joins.
    pub fn from_links<L: Links>(links: &L, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        let mut graph = MultiGraph::new();
        let mut edges = 0;
        for &node in &nodes {
            links.out_links(node, |_, _| edges += 1);
        }
        graph.nodes.reserve_exact(nodes.len());
        graph.edges.reserve_exact(edges);
        for &node in &nodes {
            let NodeRecord { kind, key } = node.record();
            graph.add_node(kind, key);
        }
        for &from in &nodes {
            links.out_links(from, |edge, to| {
                let label = EdgeLabel::between(from.record().kind, to.record().kind);
                debug_assert!(label.is_some(), "no a-graph edge joins {from:?} and {to:?}");
                let added = graph.add_edge(from, to, label.unwrap_or(EdgeLabel::Annotates));
                debug_assert_eq!(added, Ok(edge), "a link's edge id is its position");
            });
        }
        graph
    }

    /// Add the node of entity `key` of `kind` (if it is not there yet) and return its
    /// id.
    pub fn add_node(&mut self, kind: NodeKind, key: u64) -> NodeId {
        let index = &mut self.index[kind as usize];
        let at = key as usize;
        if index.len() <= at {
            index.resize(at + 1, NONE);
        }
        if index[at] == NONE {
            index[at] = self.nodes.len() as u32;
            self.nodes.push(Node { lists: [[NONE; 2]; 2], degree: 0 });
        }
        NodeId::new(kind, key)
    }

    /// Add a directed labelled edge — the next out-link of `from` — and return its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) -> Result<EdgeId> {
        let source = self.position(from).ok_or(GraphError::NodeNotFound(from))?;
        let target = self.position(to).ok_or(GraphError::NodeNotFound(to))?;
        let (edge, link) = (self.edges.len() as u32, self.nodes[source].degree);
        debug_assert!((link as usize) < MAX_LINKS, "an edge id holds 24 bits of position");
        let record = EdgeRecord { from, to, label };
        self.edges.push(Edge { record, link, next: [NONE; 2] });
        self.nodes[source].degree += 1;
        for (node, list) in [(source, OUT), (target, IN)] {
            let [first, last] = &mut self.nodes[node].lists[list];
            match std::mem::replace(last, edge) {
                NONE => *first = edge,
                previous => self.edges[previous as usize].next[list] = edge,
            }
        }
        Ok(EdgeId::new(from, link as usize))
    }

    /// What a node stands for, if the graph holds it.
    pub fn node(&self, id: NodeId) -> Option<NodeRecord> {
        self.position(id).map(|_| id.record())
    }

    /// The record of an edge, if the graph holds it.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeRecord> {
        let (from, link) = id.source();
        let mut found = None;
        self.walk(from, OUT, |edge| {
            if edge.link as usize == link {
                found = Some(&edge.record);
            }
        });
        found
    }

    /// Every node id, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        NodeKind::ALL.into_iter().flat_map(move |kind| {
            self.index[kind as usize]
                .iter()
                .enumerate()
                .filter(|&(_, &at)| at != NONE)
                .map(move |(key, _)| NodeId::new(kind, key as u64))
        })
    }

    /// The position of a node in `nodes`, if the graph holds it.
    fn position(&self, id: NodeId) -> Option<usize> {
        let NodeRecord { kind, key } = id.record();
        let at = *self.index[kind as usize].get(usize::try_from(key).ok()?)?;
        (at != NONE).then_some(at as usize)
    }

    /// Each edge of `node`'s out-list or in-list, in insertion order.
    fn walk<'g>(&'g self, node: NodeId, list: usize, mut each: impl FnMut(&'g Edge)) {
        let Some(at) = self.position(node) else { return };
        let mut at = self.nodes[at].lists[list][0];
        while let Some(edge) = self.edges.get(at as usize) {
            each(edge);
            at = edge.next[list];
        }
    }
}

impl Links for MultiGraph {
    fn kind(&self, node: NodeId) -> Option<NodeKind> {
        self.position(node).map(|_| node.record().kind)
    }

    fn out_links(&self, node: NodeId, mut each: impl FnMut(EdgeId, NodeId)) {
        self.walk(node, OUT, |edge| each(EdgeId::new(node, edge.link as usize), edge.record.to));
    }

    fn in_links(&self, node: NodeId, mut each: impl FnMut(EdgeId, NodeId)) {
        self.walk(node, IN, |edge| {
            let from = edge.record.from;
            each(EdgeId::new(from, edge.link as usize), from)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::degree;

    fn sample() -> (MultiGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let c1 = g.add_node(NodeKind::Content, 1);
        let c2 = g.add_node(NodeKind::Content, 2);
        let r = g.add_node(NodeKind::Referent, 3);
        let t = g.add_node(NodeKind::OntologyTerm, 4);
        g.add_edge(c1, r, EdgeLabel::Annotates).unwrap();
        g.add_edge(c2, r, EdgeLabel::Annotates).unwrap();
        g.add_edge(c1, t, EdgeLabel::CitesTerm).unwrap();
        (g, c1, c2, r, t)
    }

    fn outs(g: &MultiGraph, node: NodeId) -> Vec<(EdgeId, NodeId)> {
        let mut out = Vec::new();
        g.out_links(node, |e, n| out.push((e, n)));
        out
    }

    fn ins(g: &MultiGraph, node: NodeId) -> Vec<(EdgeId, NodeId)> {
        let mut out = Vec::new();
        g.in_links(node, |e, n| out.push((e, n)));
        out
    }

    fn edge_count(g: &MultiGraph) -> usize {
        g.nodes().map(|n| outs(g, n).len()).sum()
    }

    #[test]
    fn add_and_count() {
        let (g, ..) = sample();
        assert_eq!(g.nodes().count(), 4);
        assert_eq!(edge_count(&g), 3);
        assert_eq!(MultiGraph::new().nodes().count(), 0);
    }

    #[test]
    fn a_node_is_its_kind_and_key() {
        let (g, c1, _, r, _) = sample();
        assert_eq!(g.node(c1), Some(NodeRecord { kind: NodeKind::Content, key: 1 }));
        assert_eq!(g.node(r), Some(NodeRecord { kind: NodeKind::Referent, key: 3 }));
        assert_eq!(g.node(NodeId::new(NodeKind::Content, 9)), None);
        assert_eq!(g.kind(r), Some(NodeKind::Referent));
        assert_eq!(g.kind(NodeId::new(NodeKind::Object, 3)), None);
    }

    #[test]
    fn adding_a_node_twice_adds_it_once() {
        let (mut g, c1, ..) = sample();
        assert_eq!(g.add_node(NodeKind::Content, 1), c1);
        assert_eq!(g.nodes().count(), 4);
        assert_eq!(outs(&g, c1).len(), 2, "its edges stay");
    }

    #[test]
    fn out_and_in_links_name_their_edges() {
        let (g, c1, c2, r, t) = sample();
        assert_eq!(outs(&g, c1), [(EdgeId::new(c1, 0), r), (EdgeId::new(c1, 1), t)]);
        assert_eq!(ins(&g, r), [(EdgeId::new(c1, 0), c1), (EdgeId::new(c2, 0), c2)]);
        assert_eq!(
            g.edge(EdgeId::new(c1, 1)),
            Some(&EdgeRecord { from: c1, to: t, label: EdgeLabel::CitesTerm })
        );
        assert_eq!(g.edge(EdgeId::new(c1, 2)), None);
        assert_eq!((degree(&g, c1), degree(&g, r)), (2, 2));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Content, 5);
        let b = g.add_node(NodeKind::OntologyTerm, 6);
        g.add_edge(a, b, EdgeLabel::CitesTerm).unwrap();
        g.add_edge(a, b, EdgeLabel::CitesTerm).unwrap();
        assert_eq!(outs(&g, a), [(EdgeId::new(a, 0), b), (EdgeId::new(a, 1), b)]);
        assert_eq!(ins(&g, b).len(), 2);
        assert_eq!(edge_count(&g), 2);
    }

    #[test]
    fn an_unknown_node_has_no_links_and_no_edges() {
        let (g, ..) = sample();
        let unknown = NodeId::new(NodeKind::Referent, 70);
        assert_eq!((g.node(unknown), g.edge(EdgeId::new(unknown, 0))), (None, None));
        assert!(outs(&g, unknown).is_empty() && ins(&g, unknown).is_empty());
    }

    #[test]
    fn an_edge_to_an_unknown_node_is_refused() {
        let (mut g, c1, ..) = sample();
        let unknown = NodeId::new(NodeKind::Referent, 70);
        assert_eq!(
            g.add_edge(c1, unknown, EdgeLabel::Annotates),
            Err(GraphError::NodeNotFound(unknown))
        );
        assert_eq!(
            g.add_edge(unknown, c1, EdgeLabel::Annotates),
            Err(GraphError::NodeNotFound(unknown))
        );
        assert_eq!(edge_count(&g), 3);
        assert_eq!(outs(&g, c1).len(), 2);
    }

    #[test]
    fn nodes_ascend_by_kind_then_key() {
        let (g, c1, c2, r, t) = sample();
        assert_eq!(g.nodes().collect::<Vec<_>>(), [c1, c2, r, t]);
    }

    #[test]
    fn a_graph_written_out_from_links_has_their_ids() {
        let (g, ..) = sample();
        let copy = MultiGraph::from_links(&g, g.nodes());
        assert_eq!((copy.nodes().count(), edge_count(&copy)), (4, 3));
        for node in g.nodes() {
            assert_eq!(outs(&copy, node), outs(&g, node));
            assert_eq!(ins(&copy, node), ins(&g, node));
            for (edge, _) in outs(&g, node) {
                assert_eq!(copy.edge(edge), g.edge(edge));
            }
        }
    }
}
