//! The directed labelled multigraph.
//!
//! Storage layout follows the usual arena + adjacency-list design: nodes and edges live
//! in slab vectors addressed by dense integer ids; each node keeps its outgoing and
//! incoming edge ids so both directions can be traversed cheaply (the query
//! processor walks content → referent as often as referent → content) — in one list,
//! outgoing first, so a node with edges both ways (a referent: `part-of` out,
//! `annotates` in) is one allocation, not two.  Ids are dense, and nothing is removed,
//! so external stores can hold `NodeId`s safely.
//!
//! The two slabs are [`ChunkedVec`]s, so `MultiGraph::clone` is shallow — one pointer
//! bump per [`chunked::CHUNK`] slots — and a mutation of a clone copies only the
//! chunks it touches: the tail chunk for a new node or edge, plus the chunk of each
//! endpoint whose adjacency list an edge extends.  Copying a chunk allocates once: a
//! slot's key is an integer id, and its adjacency is a [`SmallList`] — the few
//! edges of a content or referent node inline, a hub's (an object's, a cited term's)
//! in a shared buffer that only an edge added to that hub copies.  A graph that a reader snapshot
//! still shares is therefore edited in O(touched slots), not O(graph).  There is no
//! key → node map: the stores that own the keys hold the `NodeId`s themselves.

use chunked::{ChunkedVec, SmallList};

use crate::error::GraphError;
use crate::node::{EdgeLabel, NodeKind, NodeRecord};
use crate::Result;

/// Dense identifier of an a-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Dense identifier of an a-graph edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

/// A stored edge: endpoints plus its label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge label.
    pub label: EdgeLabel,
}

/// Edges a node holds inline before its adjacency moves to a shared buffer: enough
/// for a content node's referents and terms and a referent's `part-of` and annotators.
const INLINE_EDGES: usize = 4;

#[derive(Debug, Clone)]
struct NodeSlot {
    record: NodeRecord,
    /// Outgoing edge ids, then incoming ones, each part in insertion order.
    edges: SmallList<EdgeId, INLINE_EDGES>,
    /// How many of `edges` are outgoing.
    out: u32,
}

impl NodeSlot {
    fn out_edges(&self) -> &[EdgeId] {
        &self.edges[..self.out as usize]
    }

    fn in_edges(&self) -> &[EdgeId] {
        &self.edges[self.out as usize..]
    }
}

/// The directed labelled multigraph underlying the Graphitti a-graph.
///
/// Multiple edges between the same pair of nodes are allowed (and occur whenever two
/// scientists annotate the same referent, or one annotation relates to a referent under
/// two different relationships).
#[derive(Debug, Clone, Default)]
pub struct MultiGraph {
    nodes: ChunkedVec<NodeSlot>,
    edges: ChunkedVec<EdgeRecord>,
}

impl MultiGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        MultiGraph::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node of the given kind with an external key and return its id.  Keys
    /// are not required to be unique.
    pub fn add_node(&mut self, kind: NodeKind, key: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(NodeSlot {
            record: NodeRecord { kind, key },
            edges: SmallList::new(),
            out: 0,
        });
        id
    }

    /// Add a directed labelled edge and return its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) -> Result<EdgeId> {
        for id in [from, to] {
            if self.node(id).is_none() {
                return Err(GraphError::NodeNotFound(id));
            }
        }
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(EdgeRecord { from, to, label });
        let source = self.node_slot_mut(from);
        source.edges.insert(source.out as usize, id);
        source.out += 1;
        self.node_slot_mut(to).edges.push(id);
        Ok(id)
    }

    /// The record of a node, if the graph issued its id.
    pub fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(id.0 as usize).map(|slot| &slot.record)
    }

    /// The record of an edge, if the graph issued its id.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeRecord> {
        self.edges.get(id.0 as usize)
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u64).map(NodeId)
    }

    /// Iterate over all node ids of one kind.
    pub(crate) fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.record.kind == kind)
            .map(|(i, _)| NodeId(i as u64))
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes.get(id.0 as usize).map(NodeSlot::out_edges).unwrap_or(&[])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes.get(id.0 as usize).map(NodeSlot::in_edges).unwrap_or(&[])
    }

    /// Successor nodes (targets of outgoing edges), possibly with duplicates when
    /// parallel edges exist.
    pub(crate) fn successors(&self, id: NodeId) -> Vec<NodeId> {
        self.out_edges(id).iter().map(|&e| self.edges[e.0 as usize].to).collect()
    }

    /// Predecessor nodes (sources of incoming edges).
    pub(crate) fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.in_edges(id).iter().map(|&e| self.edges[e.0 as usize].from).collect()
    }

    /// Every edge of a node with the neighbour it leads to, ignoring direction:
    /// outgoing edges first, then incoming ones.
    pub(crate) fn undirected_steps(
        &self,
        id: NodeId,
    ) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let outgoing = self.out_edges(id).iter().map(|&e| (self.edges[e.0 as usize].to, e));
        let incoming = self.in_edges(id).iter().map(|&e| (self.edges[e.0 as usize].from, e));
        outgoing.chain(incoming)
    }

    /// All neighbours ignoring direction (deduplicated, in first-seen order).
    pub(crate) fn neighbors_undirected(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for (n, _) in self.undirected_steps(id) {
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        seen
    }

    /// Out-degree (number of outgoing edges, counting parallels).
    pub(crate) fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges(id).len()
    }

    /// In-degree.
    pub(crate) fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges(id).len()
    }

    /// Total degree ignoring direction.
    pub(crate) fn degree(&self, id: NodeId) -> usize {
        self.out_degree(id) + self.in_degree(id)
    }

    /// Contents (annotation nodes) directly attached to a referent node — the paper's
    /// notion of annotations that become *indirectly related* by sharing the referent.
    pub fn contents_of_referent(&self, referent: NodeId) -> Vec<NodeId> {
        self.predecessors(referent)
            .into_iter()
            .filter(|&n| self.node(n).map(|r| r.kind == NodeKind::Content).unwrap_or(false))
            .collect()
    }

    /// Referents directly attached to a content node.
    pub fn referents_of_content(&self, content: NodeId) -> Vec<NodeId> {
        self.successors(content)
            .into_iter()
            .filter(|&n| self.node(n).map(|r| r.kind == NodeKind::Referent).unwrap_or(false))
            .collect()
    }

    /// The slot of a node the caller has already checked to exist (copies the slot's
    /// chunk iff a clone of the graph still shares it).
    fn node_slot_mut(&mut self, id: NodeId) -> &mut NodeSlot {
        self.nodes.get_mut(id.0 as usize).expect("node checked to exist")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (MultiGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let c1 = g.add_node(NodeKind::Content, 1);
        let c2 = g.add_node(NodeKind::Content, 2);
        let r = g.add_node(NodeKind::Referent, 3);
        let t = g.add_node(NodeKind::OntologyTerm, 4);
        g.add_edge(c1, r, EdgeLabel::annotates()).unwrap();
        g.add_edge(c2, r, EdgeLabel::annotates()).unwrap();
        g.add_edge(c1, t, EdgeLabel::cites_term()).unwrap();
        (g, c1, c2, r, t)
    }

    #[test]
    fn add_and_count() {
        let (g, ..) = sample();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn a_node_keeps_its_kind_and_key() {
        let (g, c1, _, r, _) = sample();
        assert_eq!(g.node(c1), Some(&NodeRecord { kind: NodeKind::Content, key: 1 }));
        assert_eq!(g.node(r), Some(&NodeRecord { kind: NodeKind::Referent, key: 3 }));
        assert_eq!(g.node(NodeId(9)), None);
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, c1, c2, r, t) = sample();
        assert_eq!(g.successors(c1), vec![r, t]);
        let mut preds = g.predecessors(r);
        preds.sort();
        assert_eq!(preds, vec![c1, c2]);
        assert_eq!(g.out_degree(c1), 2);
        assert_eq!(g.in_degree(r), 2);
        assert_eq!(g.degree(r), 2);
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Content, 5);
        let b = g.add_node(NodeKind::Referent, 6);
        g.add_edge(a, b, EdgeLabel::new("annotates")).unwrap();
        g.add_edge(a, b, EdgeLabel::new("annotates")).unwrap();
        assert_eq!(g.out_edges(a).len(), 2);
        assert_eq!(g.in_edges(b).len(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn indirect_relation_via_shared_referent() {
        let (g, c1, c2, r, _) = sample();
        let mut contents = g.contents_of_referent(r);
        contents.sort();
        assert_eq!(contents, vec![c1, c2]);
        assert_eq!(g.referents_of_content(c1), vec![r]);
    }

    #[test]
    fn an_id_past_the_end_is_no_node_and_no_edge() {
        let (g, ..) = sample();
        let (node, edge) = (NodeId(g.node_count() as u64), EdgeId(g.edge_count() as u64));
        assert_eq!((g.node(node), g.edge(edge)), (None, None));
        assert!(g.out_edges(node).is_empty() && g.in_edges(node).is_empty());
    }

    #[test]
    fn an_edge_to_an_id_past_the_end_is_refused() {
        let (mut g, c1, ..) = sample();
        let past = NodeId(g.node_count() as u64);
        assert_eq!(
            g.add_edge(c1, past, EdgeLabel::annotates()),
            Err(GraphError::NodeNotFound(past))
        );
        assert_eq!(
            g.add_edge(past, c1, EdgeLabel::annotates()),
            Err(GraphError::NodeNotFound(past))
        );
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(c1).len(), 2);
    }

    #[test]
    fn connect_refuses_a_terminal_past_the_end() {
        let (g, c1, ..) = sample();
        let past = NodeId(g.node_count() as u64);
        assert_eq!(g.connect(&[c1, past]), Err(GraphError::NodeNotFound(past)));
    }

    #[test]
    fn counts_are_the_number_of_adds() {
        let mut g = MultiGraph::new();
        assert!(g.is_empty());
        let ids: Vec<NodeId> = (0..70).map(|i| g.add_node(NodeKind::Object, i)).collect();
        for (i, w) in ids.windows(2).enumerate() {
            assert_eq!(g.add_edge(w[0], w[1], EdgeLabel::new("next")), Ok(EdgeId(i as u64)));
        }
        assert_eq!((g.node_count(), g.edge_count()), (70, 69));
        assert!(g.nodes().eq((0..70).map(NodeId)));
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (g, ..) = sample();
        assert_eq!(g.nodes_of_kind(NodeKind::Content).count(), 2);
        assert_eq!(g.nodes_of_kind(NodeKind::Referent).count(), 1);
        assert_eq!(g.nodes_of_kind(NodeKind::Object).count(), 0);
    }

    #[test]
    fn neighbors_undirected_dedupes() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Content, 7);
        let b = g.add_node(NodeKind::Referent, 8);
        g.add_edge(a, b, EdgeLabel::annotates()).unwrap();
        g.add_edge(b, a, EdgeLabel::new("back")).unwrap();
        assert_eq!(g.neighbors_undirected(a), vec![b]);
    }

    #[test]
    fn out_and_in_edges_stay_apart_through_inserts() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Referent, 9);
        let b = g.add_node(NodeKind::Object, 10);
        let into_a = g.add_edge(b, a, EdgeLabel::new("in")).unwrap();
        let out_of_a = g.add_edge(a, b, EdgeLabel::part_of()).unwrap();
        let self_loop = g.add_edge(a, a, EdgeLabel::new("self")).unwrap();
        assert_eq!(g.out_edges(a), &[out_of_a, self_loop]);
        assert_eq!(g.in_edges(a), &[into_a, self_loop]);
        assert_eq!((g.out_edges(b), g.in_edges(b)), (&[into_a][..], &[out_of_a][..]));
    }
}
