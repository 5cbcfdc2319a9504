//! The ontology graph: concepts, instances and quantified binary relations.
//!
//! An [`Ontology`] is a component of every Graphitti system state, copied out from
//! under a reader's snapshot by the first edit after the snapshot — and replicated to
//! every shard — so cloning it must not cost the ontology.  Concepts and instances are
//! dense ids allocated in order, so they live in [`ChunkedVec`]s, and what a concept
//! holds is shared (`Arc`'d name and lists, each immutable until that concept is
//! edited).  An edit after a clone copies the tail chunk and the edited concept's
//! chunk.

use std::collections::BTreeSet;
use std::sync::Arc;

use chunked::ChunkedVec;

/// Dense identifier of a concept (a class / term node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

/// Dense identifier of an instance (an individual belonging to a concept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// The type of a binary relation between two concepts.
///
/// The paper's ontologies use "domain-specific quantified binary relationships"; we
/// model the common biomedical-ontology relations plus a catch-all named relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelationType {
    /// Subsumption (`Cerebellum is-a BrainRegion`): instances of the child are also
    /// instances of the parent.
    IsA,
    /// Mereology (`DeepCerebellarNuclei part-of Cerebellum`).
    PartOf,
    /// Developmental / derivation relation.
    DevelopsFrom,
    /// Regulatory relation (used by molecular ontologies).
    Regulates,
    /// A user-named relation.
    Named(String),
}

impl RelationType {
    /// A stable display string.
    pub fn as_str(&self) -> &str {
        match self {
            RelationType::IsA => "is-a",
            RelationType::PartOf => "part-of",
            RelationType::DevelopsFrom => "develops-from",
            RelationType::Regulates => "regulates",
            RelationType::Named(n) => n,
        }
    }
}

impl std::fmt::Display for RelationType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ConceptNode {
    name: Arc<str>,
    /// Outgoing relations: `(child concept, relation)` — e.g. BrainRegion --is-a--> Cerebellum
    /// means Cerebellum is-a BrainRegion (child is the more specific term).
    children: Arc<[(ConceptId, RelationType)]>,
    /// Direct instances of this concept.
    instances: Arc<[InstanceId]>,
}

/// An ontology: a labelled graph of concepts with attached instances (see the
/// [module docs](self) for why cloning one is shallow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ontology {
    concepts: ChunkedVec<ConceptNode>,
    instance_names: ChunkedVec<Arc<str>>,
    instance_concept: ChunkedVec<ConceptId>,
}

/// `list` with `item` appended — a concept's lists are rebuilt by the edit that
/// extends them, so a clone sharing the old one never sees it change.
fn appended<T: Clone>(list: &[T], item: T) -> Arc<[T]> {
    list.iter().cloned().chain(std::iter::once(item)).collect()
}

impl Ontology {
    /// Create an empty ontology.
    pub fn new() -> Self {
        Ontology::default()
    }

    /// Number of concepts.
    pub fn concept_count(&self) -> usize {
        self.concepts.len()
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.instance_names.len()
    }

    /// Add a concept (term) and return its id. Names need not be unique.
    pub fn add_concept(&mut self, name: impl Into<Arc<str>>) -> ConceptId {
        let name = name.into();
        let id = ConceptId(self.concepts.len() as u32);
        self.concepts.push(ConceptNode {
            name,
            children: Arc::default(),
            instances: Arc::default(),
        });
        id
    }

    /// Add a directed relation `parent --rel--> child` (the child is the more specific
    /// term for hierarchical relations).
    pub fn add_relation(&mut self, parent: ConceptId, child: ConceptId, rel: RelationType) {
        assert!(self.is_concept(parent) && self.is_concept(child), "unknown concept");
        let node = self.concept_mut(parent);
        node.children = appended(&node.children, (child, rel));
    }

    /// Attach an instance to a concept and return its id.
    pub fn add_instance(&mut self, concept: ConceptId, name: impl Into<Arc<str>>) -> InstanceId {
        assert!(self.is_concept(concept), "unknown concept");
        let id = InstanceId(self.instance_names.len() as u32);
        self.instance_names.push(name.into());
        self.instance_concept.push(concept);
        let node = self.concept_mut(concept);
        node.instances = appended(&node.instances, id);
        id
    }

    /// A concept checked to exist, for writing (copies its chunk iff a clone of the
    /// ontology still shares it).
    fn concept_mut(&mut self, id: ConceptId) -> &mut ConceptNode {
        self.concepts.get_mut(id.0 as usize).expect("concept checked to exist")
    }

    /// The name of a concept.
    pub fn concept_name(&self, id: ConceptId) -> Option<&str> {
        self.concepts.get(id.0 as usize).map(|c| &*c.name)
    }

    /// The name of an instance.
    pub fn instance_name(&self, id: InstanceId) -> Option<&str> {
        self.instance_names.get(id.0 as usize).map(|name| &**name)
    }

    /// The concept a given instance directly belongs to.
    pub fn instance_concept(&self, id: InstanceId) -> Option<ConceptId> {
        self.instance_concept.get(id.0 as usize).copied()
    }

    /// Whether a concept id is valid.
    pub(crate) fn is_concept(&self, id: ConceptId) -> bool {
        (id.0 as usize) < self.concepts.len()
    }

    /// Direct instances of a concept (not its descendants).
    pub fn direct_instances(&self, concept: ConceptId) -> Vec<InstanceId> {
        self.concepts.get(concept.0 as usize).map(|c| c.instances.to_vec()).unwrap_or_default()
    }

    /// Direct children of a concept with the connecting relation.
    pub fn children(&self, concept: ConceptId) -> Vec<(ConceptId, RelationType)> {
        self.concepts.get(concept.0 as usize).map(|c| c.children.to_vec()).unwrap_or_default()
    }

    /// All concepts reachable from `root` (including `root`) following edges whose
    /// relation is in `relations`.  This is the concept-set backbone shared by every
    /// operation; returns ids in a deterministic sorted order.
    pub(crate) fn closure(
        &self,
        roots: &[ConceptId],
        relations: &[RelationType],
    ) -> BTreeSet<ConceptId> {
        let mut seen: BTreeSet<ConceptId> = BTreeSet::new();
        let mut stack: Vec<ConceptId> =
            roots.iter().copied().filter(|c| self.is_concept(*c)).collect();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            for (child, rel) in self.concepts[c.0 as usize].children.iter() {
                if relations.iter().any(|r| r == rel) {
                    stack.push(*child);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_structure() {
        let mut o = Ontology::new();
        let region = o.add_concept("BrainRegion");
        let cerebellum = o.add_concept("Cerebellum");
        o.add_relation(region, cerebellum, RelationType::IsA);
        let img = o.add_instance(cerebellum, "img-1");

        assert_eq!(o.concept_count(), 2);
        assert_eq!(o.instance_count(), 1);
        assert_eq!(o.concept_name(region), Some("BrainRegion"));
        assert_eq!(o.instance_name(img), Some("img-1"));
        assert_eq!(o.instance_concept(img), Some(cerebellum));
        assert_eq!(o.concept_name(cerebellum), Some("Cerebellum"));
        assert_eq!(o.direct_instances(cerebellum), vec![img]);
        assert_eq!(o.children(region), vec![(cerebellum, RelationType::IsA)]);
    }

    #[test]
    fn closure_follows_only_given_relations() {
        let mut o = Ontology::new();
        let a = o.add_concept("A");
        let b = o.add_concept("B");
        let c = o.add_concept("C");
        o.add_relation(a, b, RelationType::IsA);
        o.add_relation(b, c, RelationType::PartOf);
        let isa_only = o.closure(&[a], &[RelationType::IsA]);
        assert_eq!(isa_only.len(), 2); // a, b
        let both = o.closure(&[a], &[RelationType::IsA, RelationType::PartOf]);
        assert_eq!(both.len(), 3);
    }

    #[test]
    fn relation_type_properties() {
        assert_eq!(RelationType::IsA.as_str(), "is-a");
        assert_eq!(RelationType::Named("x".into()).to_string(), "x");
    }

    #[test]
    #[should_panic(expected = "unknown concept")]
    fn relation_requires_valid_concepts() {
        let mut o = Ontology::new();
        let a = o.add_concept("A");
        o.add_relation(a, ConceptId(999), RelationType::IsA);
    }
}
