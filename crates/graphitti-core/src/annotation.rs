//! The annotation content model and the fluent annotation builder.
//!
//! An annotation is a "linker object": it carries the content (a Dublin Core XML
//! document — the comment itself) and links it to referents and ontology terms.  The
//! builder mirrors the annotation-tab workflow: the user fills in content fields, drags
//! referents in by marking substructures, and inserts ontology references, then commits.

use ontology::ConceptId;
use xmlstore::{DocId, DublinCore};

use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::system::{Graphitti, ObjectId};
use crate::write::WriteSystem;
use crate::Result;

/// Identifier of a committed annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnnotationId(pub u64);

/// A committed annotation: its content document plus the referents and terms it links.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Identifier.
    pub id: AnnotationId,
    /// The Dublin Core record backing the content document.
    pub content: DublinCore,
    /// The id of the content document in the XML store.
    pub doc_id: DocId,
    /// Referents (marked substructures) this annotation links.
    pub referents: Vec<ReferentId>,
    /// Ontology terms this annotation cites.
    pub terms: Vec<ConceptId>,
}

impl Annotation {
    /// The annotation title (`dc:title`), if any.
    pub fn title(&self) -> Option<&str> {
        self.content.get("title")
    }

    /// The annotation comment body (`dc:description`), if any.
    pub fn comment(&self) -> Option<&str> {
        self.content.get("description")
    }

    /// The annotation creator (`dc:creator`), if any.
    pub fn creator(&self) -> Option<&str> {
        self.content.get("creator")
    }

    /// The a-graph node key for this annotation's content.
    pub fn node_key(&self) -> String {
        format!("ann:{}", self.id.0)
    }

    /// Whether this annotation links the given referent.
    pub fn links_referent(&self, referent: ReferentId) -> bool {
        self.referents.contains(&referent)
    }
}

/// A pending referent in a builder: either a fresh marker applied to an object (the
/// index domain is resolved from the object at commit time) or a reference to an
/// already-committed referent, so two annotations can link the *same* referent and
/// become indirectly related (as the paper describes).
#[derive(Debug, Clone)]
pub(crate) enum PendingReferent {
    /// A new marked substructure.
    New {
        /// The object whose substructure is marked.
        object: ObjectId,
        /// The marker.
        marker: Marker,
    },
    /// An existing referent to attach to.
    Existing(ReferentId),
}

/// The data a builder accumulates before committing — what
/// [`WriteSystem::commit_annotation`] takes.  Opaque outside this crate: only a builder
/// fills one in.
#[derive(Debug, Clone, Default)]
pub struct AnnotationSpec {
    pub(crate) content: DublinCore,
    pub(crate) referents: Vec<PendingReferent>,
    pub(crate) terms: Vec<ConceptId>,
}

/// A fluent builder for creating an annotation, borrowing the system `S` — a
/// [`Graphitti`] or a [`ShardedSystem`](crate::ShardedSystem), through their shared
/// [`WriteSystem`] surface — mutably until it is committed.  Ids are the system's own:
/// global ids on a sharded system.
pub struct AnnotationBuilder<'a, S = Graphitti> {
    system: &'a mut S,
    spec: AnnotationSpec,
}

impl<'a, S: WriteSystem> AnnotationBuilder<'a, S> {
    pub(crate) fn new(system: &'a mut S) -> Self {
        AnnotationBuilder { system, spec: AnnotationSpec::default() }
    }

    /// Set the annotation title (`dc:title`).
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).title(title);
        self
    }

    /// Set the annotation comment body (`dc:description`).
    pub fn comment(mut self, comment: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).description(comment);
        self
    }

    /// Set the annotation creator (`dc:creator`).
    pub fn creator(mut self, creator: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).creator(creator);
        self
    }

    /// Add a `dc:subject` keyword.
    pub fn subject(mut self, subject: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).subject(subject);
        self
    }

    /// Add an arbitrary Dublin Core field.
    pub fn field(mut self, element: impl Into<String>, value: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).field(element, value);
        self
    }

    /// Add a user-defined tag to the content.
    pub fn user_tag(mut self, tag: impl Into<String>, value: impl Into<String>) -> Self {
        self.spec.content = std::mem::take(&mut self.spec.content).user_tag(tag, value);
        self
    }

    /// Mark a substructure of an object as a referent of this annotation (the demo's
    /// "drag a referent into the annotation structure" step).
    pub fn mark(mut self, object: ObjectId, marker: Marker) -> Self {
        self.spec.referents.push(PendingReferent::New { object, marker });
        self
    }

    /// Attach to an existing referent, so this annotation shares it with whoever created
    /// it — the mechanism by which two annotations become *indirectly related*.  (On a
    /// sharded system all reused referents of one annotation must be co-located on one
    /// shard.)
    pub fn mark_existing(mut self, referent: ReferentId) -> Self {
        self.spec.referents.push(PendingReferent::Existing(referent));
        self
    }

    /// Replace the content document wholesale with a prepared Dublin Core record (used
    /// when rebuilding from a snapshot).
    pub fn with_content(mut self, content: DublinCore) -> Self {
        self.spec.content = content;
        self
    }

    /// Add an ontology-term reference (the demo's "insert ontology reference" step).
    pub fn cite_term(mut self, concept: ConceptId) -> Self {
        self.spec.terms.push(concept);
        self
    }

    /// Commit the annotation to the system, returning its id.  This wires the content
    /// node to each referent (and index entry) and each ontology term in the a-graph.
    pub fn commit(self) -> Result<AnnotationId> {
        let AnnotationBuilder { system, spec } = self;
        system.commit_annotation(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::DublinCore;

    #[test]
    fn annotation_accessors() {
        let ann = Annotation {
            id: AnnotationId(3),
            content: DublinCore::new().title("t").description("c").creator("u"),
            doc_id: DocId(0),
            referents: vec![ReferentId(1), ReferentId(2)],
            terms: vec![],
        };
        assert_eq!(ann.title(), Some("t"));
        assert_eq!(ann.comment(), Some("c"));
        assert_eq!(ann.creator(), Some("u"));
        assert_eq!(ann.node_key(), "ann:3");
        assert!(ann.links_referent(ReferentId(1)));
        assert!(!ann.links_referent(ReferentId(9)));
    }
}
