//! Node and edge payloads of the a-graph.
//!
//! The a-graph has two *structural* node classes in the paper — annotation contents and
//! annotation referents — plus ontology-term nodes that annotations point to.  We also
//! allow a generic `Object` kind so that whole primary objects (not just marked
//! substructures) can participate in the join index, which the demo's "correlated data
//! viewing" needs.

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

/// A node payload: its kind plus an external key linking it to the owning store.
///
/// The external key is opaque to the graph; Graphitti core uses keys like
/// `"xml:ann-42"`, `"ivl:chr7:120"` or `"onto:NIF:DeepCerebellarNuclei"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeRecord {
    /// Structural class of the node.
    pub kind: NodeKind,
    /// External key into the store that owns the underlying object.
    pub key: String,
}

impl NodeRecord {
    /// Create a new node record.
    pub fn new(kind: NodeKind, key: impl Into<String>) -> Self {
        NodeRecord { kind, key: key.into() }
    }
}

/// A label on a directed a-graph edge.
///
/// Labels carry the relationship name (e.g. `annotates`, `cites-term`, `derived-from`)
/// and an optional free-form qualifier, mirroring the "quantified binary relationships"
/// the paper allows between term pairs and between contents and referents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeLabel {
    /// Relationship name.
    pub name: String,
    /// Optional qualifier (e.g. provenance, author, confidence bucket).
    pub qualifier: Option<String>,
}

impl EdgeLabel {
    /// A label with no qualifier.
    pub fn new(name: impl Into<String>) -> Self {
        EdgeLabel { name: name.into(), qualifier: None }
    }

    /// A label with a qualifier.
    pub fn qualified(name: impl Into<String>, qualifier: impl Into<String>) -> Self {
        EdgeLabel { name: name.into(), qualifier: Some(qualifier.into()) }
    }

    /// The conventional label for content → referent edges.
    pub fn annotates() -> Self {
        EdgeLabel::new("annotates")
    }

    /// The conventional label for content → ontology-term edges.
    pub fn cites_term() -> Self {
        EdgeLabel::new("cites-term")
    }

    /// The conventional label for referent → object edges ("this substructure is part
    /// of that object").
    pub fn part_of() -> Self {
        EdgeLabel::new("part-of")
    }

    /// True if this label's name equals `name` (case-sensitive).
    pub fn is(&self, name: &str) -> bool {
        self.name == name
    }
}

impl std::fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}[{}]", self.name, q),
            None => f.write_str(&self.name),
        }
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
        assert_eq!(
            EdgeLabel::qualified("correlates", "pearson>0.9").to_string(),
            "correlates[pearson>0.9]"
        );
    }

    #[test]
    fn edge_label_is() {
        assert!(EdgeLabel::cites_term().is("cites-term"));
        assert!(!EdgeLabel::cites_term().is("annotates"));
    }

    #[test]
    fn node_record_construction() {
        let r = NodeRecord::new(NodeKind::Referent, "ivl:chr1:55");
        assert_eq!(r.kind, NodeKind::Referent);
        assert_eq!(r.key, "ivl:chr1:55");
    }
}
