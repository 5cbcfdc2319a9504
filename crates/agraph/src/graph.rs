//! The directed labelled multigraph.
//!
//! Storage layout follows the usual arena + adjacency-list design: nodes and edges live
//! in slab vectors addressed by dense integer ids; each node keeps its outgoing and
//! incoming edge ids so both directions can be traversed cheaply (the query
//! processor walks content → referent as often as referent → content) — in one list,
//! outgoing first, so a node with edges both ways (a referent: `part-of` out,
//! `annotates` in) is one allocation, not two.  Removal is
//! supported by tombstoning slots; ids are never reused so external stores can hold
//! `NodeId`s safely.
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
    alive: bool,
}

impl NodeSlot {
    fn out_edges(&self) -> &[EdgeId] {
        &self.edges[..self.out as usize]
    }

    fn in_edges(&self) -> &[EdgeId] {
        &self.edges[self.out as usize..]
    }
}

#[derive(Debug, Clone)]
struct EdgeSlot {
    record: EdgeRecord,
    alive: bool,
}

/// The directed labelled multigraph underlying the Graphitti a-graph.
///
/// Multiple edges between the same pair of nodes are allowed (and occur whenever two
/// scientists annotate the same referent, or one annotation relates to a referent under
/// two different relationships).
#[derive(Debug, Clone, Default)]
pub struct MultiGraph {
    nodes: ChunkedVec<NodeSlot>,
    edges: ChunkedVec<EdgeSlot>,
    live_nodes: usize,
    live_edges: usize,
}

impl MultiGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        MultiGraph::default()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// True if the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Add a node of the given kind with an external key and return its id.  Keys
    /// are not required to be unique.
    pub fn add_node(&mut self, kind: NodeKind, key: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(NodeSlot {
            record: NodeRecord { kind, key },
            edges: SmallList::new(),
            out: 0,
            alive: true,
        });
        self.live_nodes += 1;
        id
    }

    /// Add a directed labelled edge and return its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: EdgeLabel) -> Result<EdgeId> {
        self.check_node(from)?;
        self.check_node(to)?;
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(EdgeSlot { record: EdgeRecord { from, to, label }, alive: true });
        let source = self.node_slot_mut(from);
        source.edges.insert(source.out as usize, id);
        source.out += 1;
        self.node_slot_mut(to).edges.push(id);
        self.live_edges += 1;
        Ok(id)
    }

    /// Remove a node and every edge incident to it.
    pub fn remove_node(&mut self, id: NodeId) -> Result<NodeRecord> {
        self.check_node(id)?;
        let incident = self.nodes[id.0 as usize].edges.clone();
        for &e in incident.iter() {
            if self.edge_alive(e) {
                self.remove_edge(e)?;
            }
        }
        self.live_nodes -= 1;
        let slot = self.node_slot_mut(id);
        slot.alive = false;
        Ok(slot.record)
    }

    /// Remove an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<EdgeRecord> {
        self.check_edge(id)?;
        let slot = self.edges.get_mut(id.0 as usize).expect("edge checked alive");
        slot.alive = false;
        let record = slot.record.clone();
        self.live_edges -= 1;
        let source = self.node_slot_mut(record.from);
        if let Some(at) = source.out_edges().iter().position(|&e| e == id) {
            source.edges.remove(at);
            source.out -= 1;
        }
        let target = self.node_slot_mut(record.to);
        if let Some(at) = target.in_edges().iter().position(|&e| e == id) {
            target.edges.remove(target.out as usize + at);
        }
        Ok(record)
    }

    /// The record of a node, if it exists and is alive.
    pub fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(id.0 as usize).filter(|slot| slot.alive).map(|slot| &slot.record)
    }

    /// The record of an edge, if it exists and is alive.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeRecord> {
        self.edges.get(id.0 as usize).filter(|slot| slot.alive).map(|slot| &slot.record)
    }

    /// Whether a node id refers to a live node.
    pub fn node_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).map(|s| s.alive).unwrap_or(false)
    }

    /// Whether an edge id refers to a live edge.
    pub(crate) fn edge_alive(&self, id: EdgeId) -> bool {
        self.edges.get(id.0 as usize).map(|s| s.alive).unwrap_or(false)
    }

    /// Iterate over all live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| NodeId(i as u64))
    }

    /// Iterate over all live node ids of one kind.
    pub(crate) fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.alive && s.record.kind == kind)
            .map(|(i, _)| NodeId(i as u64))
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes.get(id.0 as usize).filter(|s| s.alive).map(NodeSlot::out_edges).unwrap_or(&[])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes.get(id.0 as usize).filter(|s| s.alive).map(NodeSlot::in_edges).unwrap_or(&[])
    }

    /// Successor nodes (targets of outgoing edges), possibly with duplicates when
    /// parallel edges exist.
    pub(crate) fn successors(&self, id: NodeId) -> Vec<NodeId> {
        self.out_edges(id).iter().filter_map(|&e| self.edge(e).map(|r| r.to)).collect()
    }

    /// Predecessor nodes (sources of incoming edges).
    pub(crate) fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.in_edges(id).iter().filter_map(|&e| self.edge(e).map(|r| r.from)).collect()
    }

    /// All neighbours ignoring direction (deduplicated, in first-seen order).
    pub(crate) fn neighbors_undirected(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for n in self.successors(id).into_iter().chain(self.predecessors(id)) {
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

    fn check_node(&self, id: NodeId) -> Result<()> {
        if self.node_alive(id) {
            Ok(())
        } else {
            Err(GraphError::NodeNotFound(id))
        }
    }

    fn check_edge(&self, id: EdgeId) -> Result<()> {
        if self.edge_alive(id) {
            Ok(())
        } else {
            Err(GraphError::EdgeNotFound(id))
        }
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
    fn remove_edge_updates_adjacency() {
        let (mut g, c1, _, r, _) = sample();
        let e = g.out_edges(c1)[0];
        assert_eq!(g.edge(e).map(|rec| rec.to), Some(r));
        g.remove_edge(e).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.referents_of_content(c1).is_empty());
        assert_eq!(g.remove_edge(e), Err(GraphError::EdgeNotFound(e)));
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, c1, c2, r, _) = sample();
        g.remove_node(r).unwrap();
        assert_eq!(g.node_count(), 3);
        // both annotates edges are gone, only the cites-term edge remains
        assert_eq!(g.edge_count(), 1);
        assert!(g.referents_of_content(c1).is_empty());
        assert!(g.referents_of_content(c2).is_empty());
        assert!(g.node(r).is_none());
    }

    #[test]
    fn removed_node_rejected_for_new_edges() {
        let (mut g, c1, _, r, _) = sample();
        g.remove_node(r).unwrap();
        assert_eq!(g.add_edge(c1, r, EdgeLabel::annotates()), Err(GraphError::NodeNotFound(r)));
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
    fn out_and_in_edges_stay_apart_through_inserts_and_removals() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Referent, 9);
        let b = g.add_node(NodeKind::Object, 10);
        let into_a = g.add_edge(b, a, EdgeLabel::new("in")).unwrap();
        let out_of_a = g.add_edge(a, b, EdgeLabel::part_of()).unwrap();
        let self_loop = g.add_edge(a, a, EdgeLabel::new("self")).unwrap();
        assert_eq!(g.out_edges(a), &[out_of_a, self_loop]);
        assert_eq!(g.in_edges(a), &[into_a, self_loop]);
        g.remove_edge(self_loop).unwrap();
        assert_eq!((g.out_edges(a), g.in_edges(a)), (&[out_of_a][..], &[into_a][..]));
        g.remove_edge(out_of_a).unwrap();
        assert_eq!((g.out_edges(a), g.in_edges(a)), (&[][..], &[into_a][..]));
        assert_eq!((g.out_edges(b), g.in_edges(b)), (&[into_a][..], &[][..]));
    }

    #[test]
    fn ids_are_not_reused_after_removal() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Object, 11);
        g.remove_node(a).unwrap();
        let b = g.add_node(NodeKind::Object, 12);
        assert_ne!(a, b);
        assert!(g.node(a).is_none());
        assert!(g.node(b).is_some());
    }
}
