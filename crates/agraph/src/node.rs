//! Node and edge payloads of the a-graph.
//!
//! The a-graph has two *structural* node classes in the paper — annotation contents and
//! annotation referents — plus ontology-term nodes that annotations point to.  We also
//! allow a generic `Object` kind so that whole primary objects (not just marked
//! substructures) can participate in the join index, which the demo's "correlated data
//! viewing" needs.

use std::borrow::Cow;

/// The class of an a-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// An annotation content: the XML comment document itself.
    Content,
    /// An annotation referent: a marked substructure of a primary data object
    /// (an interval of a sequence, a region of an image, a block of a relation, ...).
    Referent,
    /// A term node of a registered ontology.
    OntologyTerm,
    /// A whole primary data object registered in the relational store.
    Object,
}

impl NodeKind {
    /// All node kinds, in a stable order.
    pub const ALL: [NodeKind; 4] =
        [NodeKind::Content, NodeKind::Referent, NodeKind::OntologyTerm, NodeKind::Object];

    /// A short, stable lowercase name used in query syntax and display output.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Content => "content",
            NodeKind::Referent => "referent",
            NodeKind::OntologyTerm => "ontology",
            NodeKind::Object => "object",
        }
    }

    /// Parse a node kind from its [`as_str`](Self::as_str) form.
    pub fn parse(s: &str) -> Option<NodeKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "content" | "annotation" => Some(NodeKind::Content),
            "referent" | "substructure" => Some(NodeKind::Referent),
            "ontology" | "term" | "ontologyterm" | "ontology_term" => Some(NodeKind::OntologyTerm),
            "object" | "data" => Some(NodeKind::Object),
            _ => None,
        }
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A node payload: its kind plus the id of the entity it stands for in the store that
/// owns it.
///
/// The key is opaque to the graph.  Graphitti core keys a node by its entity's id in
/// the registry of its kind — an annotation's for a content node, a referent's, an
/// ontology concept's, an object's — so `(kind, key)` *is* the node's entity, and a
/// node costs no string.  It never changes after the node is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRecord {
    /// Structural class of the node.
    pub kind: NodeKind,
    /// Id of the underlying entity in the store that owns it.
    pub key: u64,
}

/// A label on a directed a-graph edge.
///
/// Labels carry the relationship name (e.g. `annotates`, `cites-term`, `derived-from`).
/// The three conventional labels every commit writes borrow a `'static` name, so an edge costs
/// no string; a borrowed and an owned name compare, hash and print alike.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeLabel {
    /// Relationship name.
    pub name: Cow<'static, str>,
}

impl EdgeLabel {
    /// A label with an owned name.
    pub fn new(name: impl Into<String>) -> Self {
        EdgeLabel { name: Cow::Owned(name.into()) }
    }

    /// A conventional label: a `'static` name.
    const fn conventional(name: &'static str) -> Self {
        EdgeLabel { name: Cow::Borrowed(name) }
    }

    /// The conventional label for content → referent edges.
    pub fn annotates() -> Self {
        EdgeLabel::conventional("annotates")
    }

    /// The conventional label for content → ontology-term edges.
    pub fn cites_term() -> Self {
        EdgeLabel::conventional("cites-term")
    }

    /// The conventional label for referent → object edges ("this substructure is part
    /// of that object").
    pub fn part_of() -> Self {
        EdgeLabel::conventional("part-of")
    }
}

impl std::fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_roundtrip() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn node_kind_parse_aliases() {
        assert_eq!(NodeKind::parse("Annotation"), Some(NodeKind::Content));
        assert_eq!(NodeKind::parse("substructure"), Some(NodeKind::Referent));
        assert_eq!(NodeKind::parse("TERM"), Some(NodeKind::OntologyTerm));
        assert_eq!(NodeKind::parse("data"), Some(NodeKind::Object));
        assert_eq!(NodeKind::parse("bogus"), None);
    }

    #[test]
    fn edge_label_display() {
        assert_eq!(EdgeLabel::annotates().to_string(), "annotates");
    }

    #[test]
    fn a_conventional_label_equals_its_owned_spelling() {
        use std::hash::BuildHasher;
        for (conventional, name) in [
            (EdgeLabel::annotates(), "annotates"),
            (EdgeLabel::cites_term(), "cites-term"),
            (EdgeLabel::part_of(), "part-of"),
        ] {
            let owned = EdgeLabel::new(name);
            assert_eq!(conventional, owned);
            assert_eq!(format!("{conventional:?}"), format!("{owned:?}"));
            assert_eq!(conventional.to_string(), name);
            let hasher = std::hash::RandomState::new();
            assert_eq!(hasher.hash_one(&conventional), hasher.hash_one(&owned));
        }
        assert_eq!(format!("{:?}", EdgeLabel::part_of()), r#"EdgeLabel { name: "part-of" }"#);
    }
}
