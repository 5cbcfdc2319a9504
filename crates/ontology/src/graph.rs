//! The ontology graph: concepts, instances and quantified binary relations.

use std::collections::{BTreeSet, HashMap};

/// Dense identifier of a concept (a class / term node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

    /// Whether this relation is transitive (instances and subtrees propagate along it).
    pub fn is_transitive(&self) -> bool {
        matches!(self, RelationType::IsA | RelationType::PartOf | RelationType::DevelopsFrom)
    }
}

impl std::fmt::Display for RelationType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ConceptNode {
    name: String,
    /// Outgoing relations: `(child concept, relation)` — e.g. BrainRegion --is-a--> Cerebellum
    /// means Cerebellum is-a BrainRegion (child is the more specific term).
    children: Vec<(ConceptId, RelationType)>,
    /// Direct instances of this concept.
    instances: Vec<InstanceId>,
}

/// An ontology: a labelled graph of concepts with attached instances.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ontology {
    concepts: Vec<ConceptNode>,
    instance_names: Vec<String>,
    instance_concept: Vec<ConceptId>,
    name_index: HashMap<String, ConceptId>,
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

    /// Add a concept (term) and return its id. Names need not be unique, but the name
    /// index resolves to the most recently added concept of a given name.
    pub fn add_concept(&mut self, name: impl Into<String>) -> ConceptId {
        let name = name.into();
        let id = ConceptId(self.concepts.len() as u32);
        self.concepts.push(ConceptNode {
            name: name.clone(),
            children: Vec::new(),
            instances: Vec::new(),
        });
        self.name_index.insert(name, id);
        id
    }

    /// Add a directed relation `parent --rel--> child` (the child is the more specific
    /// term for hierarchical relations).
    pub fn add_relation(&mut self, parent: ConceptId, child: ConceptId, rel: RelationType) {
        assert!(self.is_concept(parent) && self.is_concept(child), "unknown concept");
        self.concepts[parent.0 as usize].children.push((child, rel));
    }

    /// Attach an instance to a concept and return its id.
    pub fn add_instance(&mut self, concept: ConceptId, name: impl Into<String>) -> InstanceId {
        assert!(self.is_concept(concept), "unknown concept");
        let id = InstanceId(self.instance_names.len() as u32);
        self.instance_names.push(name.into());
        self.instance_concept.push(concept);
        self.concepts[concept.0 as usize].instances.push(id);
        id
    }

    /// The name of a concept.
    pub fn concept_name(&self, id: ConceptId) -> Option<&str> {
        self.concepts.get(id.0 as usize).map(|c| c.name.as_str())
    }

    /// The name of an instance.
    pub fn instance_name(&self, id: InstanceId) -> Option<&str> {
        self.instance_names.get(id.0 as usize).map(String::as_str)
    }

    /// The concept a given instance directly belongs to.
    pub fn instance_concept(&self, id: InstanceId) -> Option<ConceptId> {
        self.instance_concept.get(id.0 as usize).copied()
    }

    /// Look a concept up by name.
    pub fn concept_by_name(&self, name: &str) -> Option<ConceptId> {
        self.name_index.get(name).copied()
    }

    /// Whether a concept id is valid.
    pub fn is_concept(&self, id: ConceptId) -> bool {
        (id.0 as usize) < self.concepts.len()
    }

    /// Direct instances of a concept (not its descendants).
    pub fn direct_instances(&self, concept: ConceptId) -> Vec<InstanceId> {
        self.concepts.get(concept.0 as usize).map(|c| c.instances.clone()).unwrap_or_default()
    }

    /// Direct children of a concept with the connecting relation.
    pub fn children(&self, concept: ConceptId) -> Vec<(ConceptId, RelationType)> {
        self.concepts.get(concept.0 as usize).map(|c| c.children.clone()).unwrap_or_default()
    }

    /// Direct children reached by a specific relation.
    pub fn children_by_relation(&self, concept: ConceptId, rel: &RelationType) -> Vec<ConceptId> {
        self.concepts
            .get(concept.0 as usize)
            .map(|c| c.children.iter().filter(|(_, r)| r == rel).map(|(child, _)| *child).collect())
            .unwrap_or_default()
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
            for (child, rel) in &self.concepts[c.0 as usize].children {
                if relations.iter().any(|r| r == rel) {
                    stack.push(*child);
                }
            }
        }
        seen
    }

    /// All relation types used in the ontology (sorted, deduplicated).
    pub fn relation_types(&self) -> Vec<RelationType> {
        let mut set: BTreeSet<RelationType> = BTreeSet::new();
        for c in &self.concepts {
            for (_, r) in &c.children {
                set.insert(r.clone());
            }
        }
        set.into_iter().collect()
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
        assert_eq!(o.concept_by_name("Cerebellum"), Some(cerebellum));
        assert_eq!(o.direct_instances(cerebellum), vec![img]);
        assert_eq!(o.children(region), vec![(cerebellum, RelationType::IsA)]);
    }

    #[test]
    fn children_by_relation_filters() {
        let mut o = Ontology::new();
        let a = o.add_concept("A");
        let b = o.add_concept("B");
        let c = o.add_concept("C");
        o.add_relation(a, b, RelationType::IsA);
        o.add_relation(a, c, RelationType::PartOf);
        assert_eq!(o.children_by_relation(a, &RelationType::IsA), vec![b]);
        assert_eq!(o.children_by_relation(a, &RelationType::PartOf), vec![c]);
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
        assert!(RelationType::IsA.is_transitive());
        assert!(!RelationType::Regulates.is_transitive());
    }

    #[test]
    fn relation_types_listing() {
        let mut o = Ontology::new();
        let a = o.add_concept("A");
        let b = o.add_concept("B");
        o.add_relation(a, b, RelationType::IsA);
        o.add_relation(a, b, RelationType::PartOf);
        assert_eq!(o.relation_types().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown concept")]
    fn relation_requires_valid_concepts() {
        let mut o = Ontology::new();
        let a = o.add_concept("A");
        o.add_relation(a, ConceptId(999), RelationType::IsA);
    }
}
