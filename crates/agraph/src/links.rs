//! Node and edge ids, and the [`Links`] every a-graph algorithm walks.
//!
//! A node is its entity: [`NodeId`] packs the node's kind and its entity's id into one
//! `u64`, so there is nothing to number, store or keep in step.  An edge is named by
//! the node whose record holds the link and the link's position in that record
//! ([`EdgeId`]): an annotation's `k`-th referent-or-term link, a referent's `part-of`
//! link at position 0.  Parallel links (an annotation citing one term twice) are
//! therefore two edges.  The algorithms of this crate never see a graph store, only
//! [`Links`]: whatever can list a node's out- and in-links is an a-graph.

use crate::node::{EdgeLabel, NodeKind, NodeRecord};

/// An a-graph node: a kind and an entity id, packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Bits of a [`NodeId`] below its kind tag: an entity id must be below `2^62`.
const KEY_BITS: u32 = 62;

impl NodeId {
    /// The node of the entity `key` of `kind` (`key < 2^62`).  Ids order by kind
    /// first, then by entity id.
    pub const fn new(kind: NodeKind, key: u64) -> NodeId {
        debug_assert!(key >> KEY_BITS == 0, "an entity id takes at most 62 bits");
        NodeId((kind as u64) << KEY_BITS | key)
    }

    /// The kind and entity id this node packs.
    pub const fn record(self) -> NodeRecord {
        NodeRecord { kind: NodeKind::ALL[(self.0 >> KEY_BITS) as usize], key: self.0 & KEY_MASK }
    }
}

const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// An a-graph edge: the node whose record holds the link, and the link's position
/// there, packed.  Ids order by source node, then by position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

/// Bits of an [`EdgeId`] that hold the link's position: a node has at most
/// [`MAX_LINKS`] out-links.
const LINK_BITS: u32 = 24;

/// The most out-links one node can have: an edge id keeps a link's position in
/// 24 bits (and its source's entity id in the 38 above them).
pub const MAX_LINKS: usize = 1 << LINK_BITS;

impl EdgeId {
    /// The `link`-th out-link of `from` (`link < MAX_LINKS`, `from`'s entity id below
    /// `2^38`).
    pub const fn new(from: NodeId, link: usize) -> EdgeId {
        let NodeRecord { kind, key } = from.record();
        debug_assert!(link < MAX_LINKS && key >> (KEY_BITS - LINK_BITS) == 0);
        EdgeId((kind as u64) << KEY_BITS | key << LINK_BITS | link as u64)
    }

    /// The node whose record holds the link, and the link's position there.
    pub const fn source(self) -> (NodeId, usize) {
        let key = (self.0 & KEY_MASK) >> LINK_BITS;
        let kind = NodeKind::ALL[(self.0 >> KEY_BITS) as usize];
        (NodeId::new(kind, key), (self.0 & (MAX_LINKS as u64 - 1)) as usize)
    }
}

/// An edge written out: its endpoints and its label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge label.
    pub label: EdgeLabel,
}

/// The a-graph as its links: what a node is, and which edges leave and enter it.
///
/// A system implements it from the records that hold the links and the indexes that
/// hold their reverse directions; [`MultiGraph`](crate::MultiGraph) implements it
/// from its own adjacency lists.  Links are listed through a callback, so an
/// implementation that derives them (translating ids, say) need not collect them; one
/// that merges several sources' lists into order (a sharded cut, for an object's or a
/// term's in-links) does.
pub trait Links {
    /// The kind of `node`, or `None` when the graph holds no such node.
    fn kind(&self, node: NodeId) -> Option<NodeKind>;

    /// Each out-link of `node` — its edge and the node it leads to — in link order.
    fn out_links(&self, node: NodeId, each: impl FnMut(EdgeId, NodeId));

    /// Each in-link of `node` — its edge and the node it comes from.
    fn in_links(&self, node: NodeId, each: impl FnMut(EdgeId, NodeId));
}

/// Each edge of `node` with the neighbour it leads to, ignoring direction: out-links
/// first, then in-links.
pub(crate) fn steps<L: Links>(links: &L, node: NodeId, mut each: impl FnMut(EdgeId, NodeId)) {
    links.out_links(node, &mut each);
    links.in_links(node, each);
}

/// The number of edges of `node`, counting parallels, ignoring direction.
pub(crate) fn degree<L: Links>(links: &L, node: NodeId) -> usize {
    let mut degree = 0;
    steps(links, node, |_, _| degree += 1);
    degree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_node_id_packs_its_kind_and_key() {
        for kind in NodeKind::ALL {
            for key in [0, 1, 12_345, KEY_MASK] {
                let id = NodeId::new(kind, key);
                assert_eq!(id.record(), NodeRecord { kind, key });
            }
        }
        // Kind first, then key.
        assert!(NodeId::new(NodeKind::Content, KEY_MASK) < NodeId::new(NodeKind::Referent, 0));
        assert!(NodeId::new(NodeKind::Object, 1) < NodeId::new(NodeKind::Object, 2));
    }

    #[test]
    fn an_edge_id_packs_its_source_and_position() {
        let max_key = (1 << (KEY_BITS - LINK_BITS)) - 1;
        for kind in NodeKind::ALL {
            for key in [0, 7, max_key] {
                for link in [0, 1, MAX_LINKS - 1] {
                    let from = NodeId::new(kind, key);
                    assert_eq!(EdgeId::new(from, link).source(), (from, link));
                }
            }
        }
        // Source first, then position.
        let (a, b) = (NodeId::new(NodeKind::Content, 3), NodeId::new(NodeKind::Content, 4));
        assert!(EdgeId::new(a, MAX_LINKS - 1) < EdgeId::new(b, 0));
        assert!(EdgeId::new(a, 0) < EdgeId::new(a, 1));
    }
}
