//! Node and edge payloads of the a-graph.
//!
//! The a-graph has two *structural* node classes in the paper — annotation contents and
//! annotation referents — plus ontology-term nodes that annotations point to.  We also
//! allow a generic `Object` kind so that whole primary objects (not just marked
//! substructures) can participate in the join index, which the demo's "correlated data
//! viewing" needs.

/// The class of an a-graph node.  The discriminant is the kind's tag in a packed
/// [`NodeId`](crate::NodeId).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// An annotation content: the XML comment document itself.
    Content = 0,
    /// An annotation referent: a marked substructure of a primary data object
    /// (an interval of a sequence, a region of an image, a block of a relation, ...).
    Referent = 1,
    /// A term node of a registered ontology.
    OntologyTerm = 2,
    /// A whole primary data object registered in the relational store.
    Object = 3,
}

impl NodeKind {
    /// All node kinds, in tag order.
    pub const ALL: [NodeKind; 4] =
        [NodeKind::Content, NodeKind::Referent, NodeKind::OntologyTerm, NodeKind::Object];

    /// A short, stable lowercase name used in display output.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Content => "content",
            NodeKind::Referent => "referent",
            NodeKind::OntologyTerm => "ontology",
            NodeKind::Object => "object",
        }
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a node stands for: its kind plus the id of its entity in the registry of that
/// kind — an annotation's for a content node, a referent's, an ontology concept's, an
/// object's.  A node *is* its entity: [`NodeId`](crate::NodeId) packs exactly these two
/// fields, so a node costs no storage of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRecord {
    /// Structural class of the node.
    pub kind: NodeKind,
    /// Id of the underlying entity in the store that owns it.
    pub key: u64,
}

/// The label of a directed a-graph edge.  There are three, and the endpoint kinds
/// decide which.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Content → referent: the annotation marks the substructure.
    Annotates,
    /// Content → ontology term: the annotation cites the term.
    CitesTerm,
    /// Referent → object: the substructure is part of the object.
    PartOf,
}

impl EdgeLabel {
    /// The label of an edge from a `from` node to a `to` node, or `None` when no
    /// a-graph edge joins those kinds.
    pub(crate) fn between(from: NodeKind, to: NodeKind) -> Option<EdgeLabel> {
        match (from, to) {
            (NodeKind::Content, NodeKind::Referent) => Some(EdgeLabel::Annotates),
            (NodeKind::Content, NodeKind::OntologyTerm) => Some(EdgeLabel::CitesTerm),
            (NodeKind::Referent, NodeKind::Object) => Some(EdgeLabel::PartOf),
            _ => None,
        }
    }
}

/// The relationship name.
impl std::fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EdgeLabel::Annotates => "annotates",
            EdgeLabel::CitesTerm => "cites-term",
            EdgeLabel::PartOf => "part-of",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_label_display() {
        assert_eq!(EdgeLabel::Annotates.to_string(), "annotates");
        assert_eq!(EdgeLabel::CitesTerm.to_string(), "cites-term");
        assert_eq!(EdgeLabel::PartOf.to_string(), "part-of");
    }

    #[test]
    fn the_endpoint_kinds_decide_the_label() {
        use NodeKind::*;
        let mut labelled = Vec::new();
        for from in NodeKind::ALL {
            for to in NodeKind::ALL {
                if let Some(label) = EdgeLabel::between(from, to) {
                    labelled.push((from, label, to));
                }
            }
        }
        assert_eq!(
            labelled,
            [
                (Content, EdgeLabel::Annotates, Referent),
                (Content, EdgeLabel::CitesTerm, OntologyTerm),
                (Referent, EdgeLabel::PartOf, Object),
            ]
        );
    }
}
