//! The directed labelled multigraph.
//!
//! Storage layout follows the usual arena + adjacency-list design: nodes and edges live
//! in slab vectors addressed by dense integer ids; each node keeps its outgoing and
//! incoming edge id lists so both directions can be traversed cheaply (the query
//! processor walks content → referent as often as referent → content).  Removal is
//! supported by tombstoning slots; ids are never reused so external stores can hold
//! `NodeId`s safely.
//!
//! The two slabs are [`ChunkedVec`]s, so `MultiGraph::clone` is shallow — one pointer
//! bump per [`chunked::CHUNK`] slots — and a mutation of a clone copies only the
//! chunks it touches: the tail chunk for a new node or edge, plus the chunk of each
//! endpoint whose adjacency list an edge extends.  A graph that a reader snapshot
//! still shares is therefore edited in O(touched slots), not O(graph).  There is no
//! key → node map: [`MultiGraph::node_by_key`] scans (its callers are tests and
//! diagnostics; the stores that own the keys hold the `NodeId`s themselves).

use chunked::ChunkedVec;

use crate::error::GraphError;
use crate::node::{EdgeLabel, NodeKind, NodeRecord};
use crate::Result;

/// Dense identifier of an a-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Dense identifier of an a-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

#[derive(Debug, Clone)]
struct NodeSlot {
    record: NodeRecord,
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
    alive: bool,
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

    /// Add a node of the given kind with an external key and return its id.
    ///
    /// Keys are not required to be unique; when several live nodes share a key
    /// [`node_by_key`](Self::node_by_key) returns the most recently inserted one.
    pub fn add_node(&mut self, kind: NodeKind, key: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(NodeSlot {
            record: NodeRecord::new(kind, key),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
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
        self.node_slot_mut(from).out_edges.push(id);
        self.node_slot_mut(to).in_edges.push(id);
        self.live_edges += 1;
        Ok(id)
    }

    /// Remove a node and every edge incident to it.
    pub fn remove_node(&mut self, id: NodeId) -> Result<NodeRecord> {
        self.check_node(id)?;
        let incident: Vec<EdgeId> = {
            let slot = &self.nodes[id.0 as usize];
            slot.out_edges.iter().chain(slot.in_edges.iter()).copied().collect()
        };
        for e in incident {
            if self.edge_alive(e) {
                self.remove_edge(e)?;
            }
        }
        self.live_nodes -= 1;
        let slot = self.node_slot_mut(id);
        slot.alive = false;
        Ok(slot.record.clone())
    }

    /// Remove an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<EdgeRecord> {
        self.check_edge(id)?;
        let slot = self.edges.get_mut(id.0 as usize).expect("edge checked alive");
        slot.alive = false;
        let record = slot.record.clone();
        self.live_edges -= 1;
        self.node_slot_mut(record.from).out_edges.retain(|&e| e != id);
        self.node_slot_mut(record.to).in_edges.retain(|&e| e != id);
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

    /// Look a node up by its external key: the most recently inserted live node
    /// carrying it.  A linear scan: the graph keeps no key index, because nothing on
    /// a serving path looks nodes up by key and every commit would have to copy one.
    pub fn node_by_key(&self, key: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && s.record.key == key)
            .last()
            .map(|(i, _)| NodeId(i as u64))
    }

    /// Whether a node id refers to a live node.
    pub fn node_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).map(|s| s.alive).unwrap_or(false)
    }

    /// Whether an edge id refers to a live edge.
    pub fn edge_alive(&self, id: EdgeId) -> bool {
        self.edges.get(id.0 as usize).map(|s| s.alive).unwrap_or(false)
    }

    /// Iterate over all live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| NodeId(i as u64))
    }

    /// Iterate over all live node ids of one kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.alive && s.record.kind == kind)
            .map(|(i, _)| NodeId(i as u64))
    }

    /// Iterate over all live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| EdgeId(i as u64))
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes
            .get(id.0 as usize)
            .filter(|s| s.alive)
            .map(|s| s.out_edges.as_slice())
            .unwrap_or(&[])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes
            .get(id.0 as usize)
            .filter(|s| s.alive)
            .map(|s| s.in_edges.as_slice())
            .unwrap_or(&[])
    }

    /// Successor nodes (targets of outgoing edges), possibly with duplicates when
    /// parallel edges exist.
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        self.out_edges(id).iter().filter_map(|&e| self.edge(e).map(|r| r.to)).collect()
    }

    /// Predecessor nodes (sources of incoming edges).
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.in_edges(id).iter().filter_map(|&e| self.edge(e).map(|r| r.from)).collect()
    }

    /// All neighbours ignoring direction (deduplicated, in first-seen order).
    pub fn neighbors_undirected(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for n in self.successors(id).into_iter().chain(self.predecessors(id)) {
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        seen
    }

    /// Out-degree (number of outgoing edges, counting parallels).
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges(id).len()
    }

    /// In-degree.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges(id).len()
    }

    /// Total degree ignoring direction.
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_degree(id) + self.in_degree(id)
    }

    /// All edges between `from` and `to` in that direction (the multigraph can hold
    /// several).
    pub fn edges_between(&self, from: NodeId, to: NodeId) -> Vec<EdgeId> {
        self.out_edges(from)
            .iter()
            .copied()
            .filter(|&e| self.edge(e).map(|r| r.to == to).unwrap_or(false))
            .collect()
    }

    /// Whether an edge with the given label name exists from `from` to `to`.
    pub fn has_labeled_edge(&self, from: NodeId, to: NodeId, label_name: &str) -> bool {
        self.edges_between(from, to)
            .iter()
            .any(|&e| self.edge(e).map(|r| r.label.is(label_name)).unwrap_or(false))
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

    /// Ontology-term nodes cited by a content node.
    pub fn terms_of_content(&self, content: NodeId) -> Vec<NodeId> {
        self.successors(content)
            .into_iter()
            .filter(|&n| self.node(n).map(|r| r.kind == NodeKind::OntologyTerm).unwrap_or(false))
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
        let c1 = g.add_node(NodeKind::Content, "ann-1");
        let c2 = g.add_node(NodeKind::Content, "ann-2");
        let r = g.add_node(NodeKind::Referent, "ivl:chr1:0");
        let t = g.add_node(NodeKind::OntologyTerm, "onto:GO:0001");
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
    fn key_lookup() {
        let (g, c1, ..) = sample();
        assert_eq!(g.node_by_key("ann-1"), Some(c1));
        assert_eq!(g.node_by_key("missing"), None);
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
        let a = g.add_node(NodeKind::Content, "a");
        let b = g.add_node(NodeKind::Referent, "b");
        g.add_edge(a, b, EdgeLabel::new("annotates")).unwrap();
        g.add_edge(a, b, EdgeLabel::qualified("annotates", "second-pass")).unwrap();
        assert_eq!(g.edges_between(a, b).len(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_labeled_edge(a, b, "annotates"));
        assert!(!g.has_labeled_edge(b, a, "annotates"));
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
    fn terms_of_content_filters_kind() {
        let (g, c1, _, _, t) = sample();
        assert_eq!(g.terms_of_content(c1), vec![t]);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, c1, _, r, _) = sample();
        let e = g.edges_between(c1, r)[0];
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
        assert_eq!(g.node_by_key("ivl:chr1:0"), None);
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
        let a = g.add_node(NodeKind::Content, "a");
        let b = g.add_node(NodeKind::Referent, "b");
        g.add_edge(a, b, EdgeLabel::annotates()).unwrap();
        g.add_edge(b, a, EdgeLabel::new("back")).unwrap();
        assert_eq!(g.neighbors_undirected(a), vec![b]);
    }

    #[test]
    fn ids_are_not_reused_after_removal() {
        let mut g = MultiGraph::new();
        let a = g.add_node(NodeKind::Object, "a");
        g.remove_node(a).unwrap();
        let b = g.add_node(NodeKind::Object, "b");
        assert_ne!(a, b);
        assert!(g.node(a).is_none());
        assert!(g.node(b).is_some());
    }
}
