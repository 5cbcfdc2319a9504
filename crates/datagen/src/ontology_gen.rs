//! Synthetic ontology generators.

use ontology::{ConceptId, Ontology, RelationType};

use crate::rng::WorkloadRng;

/// Build a balanced is-a tree of the given `depth` and `branching` factor, with one
/// concept per node, and return the ontology together with its root and all concept ids.
pub fn balanced_tree(depth: u32, branching: usize) -> (Ontology, ConceptId, Vec<ConceptId>) {
    let mut o = Ontology::new();
    let root = o.add_concept("root");
    let mut all = vec![root];
    let mut frontier = vec![root];
    for level in 0..depth {
        let mut next = Vec::new();
        for &parent in &frontier {
            for b in 0..branching {
                let c = o.add_concept(format!("c{level}_{}_{b}", parent.0));
                o.add_relation(parent, c, RelationType::IsA);
                all.push(c);
                next.push(c);
            }
        }
        frontier = next;
    }
    (o, root, all)
}

/// Attach `instances_per_leaf` instances to every leaf concept of a tree built by
/// [`balanced_tree`]. Returns the instance-name prefix used so callers can map objects
/// to instances.
pub fn populate_leaves(o: &mut Ontology, concepts: &[ConceptId], instances_per_leaf: usize) {
    for &c in concepts {
        if o.children(c).is_empty() {
            for i in 0..instances_per_leaf {
                o.add_instance(c, format!("inst-{}-{i}", c.0));
            }
        }
    }
}

/// Build a small neuro-anatomy ontology matching the demo's vocabulary (brain regions
/// with the "Deep Cerebellar nuclei" term the example query uses).  Returns the ontology
/// and a lookup of the named concepts.
pub(crate) fn neuro_anatomy() -> (Ontology, NeuroConcepts) {
    let mut o = Ontology::new();
    let brain = o.add_concept("Brain");
    let cerebellum = o.add_concept("Cerebellum");
    let cerebrum = o.add_concept("Cerebrum");
    let dcn = o.add_concept("DeepCerebellarNuclei");
    let cortex = o.add_concept("CerebellarCortex");
    let hippocampus = o.add_concept("Hippocampus");
    o.add_relation(brain, cerebellum, RelationType::IsA);
    o.add_relation(brain, cerebrum, RelationType::IsA);
    o.add_relation(cerebellum, dcn, RelationType::PartOf);
    o.add_relation(cerebellum, cortex, RelationType::PartOf);
    o.add_relation(cerebrum, hippocampus, RelationType::PartOf);
    (
        o,
        NeuroConcepts {
            brain,
            cerebellum,
            cerebrum,
            deep_cerebellar_nuclei: dcn,
            cerebellar_cortex: cortex,
            hippocampus,
        },
    )
}

/// Named concepts of the neuro-anatomy ontology.
#[derive(Debug, Clone, Copy)]
pub struct NeuroConcepts {
    /// `Brain` root concept.
    pub brain: ConceptId,
    /// `Cerebellum`.
    pub cerebellum: ConceptId,
    /// `Cerebrum`.
    pub cerebrum: ConceptId,
    /// `DeepCerebellarNuclei` — the term the TP53 example query filters on.
    pub deep_cerebellar_nuclei: ConceptId,
    /// `CerebellarCortex`.
    pub cerebellar_cortex: ConceptId,
    /// `Hippocampus`.
    pub hippocampus: ConceptId,
}

/// Build a molecular ontology of protein families with a `protease` class, used by the
/// protease example query.  Returns the ontology and the protease concept id.
pub(crate) fn protein_families(rng: &mut WorkloadRng, families: usize) -> (Ontology, ConceptId) {
    let mut o = Ontology::new();
    let protein = o.add_concept("Protein");
    let protease = o.add_concept("Protease");
    o.add_relation(protein, protease, RelationType::IsA);
    // a handful of protease subfamilies
    let subfamilies = ["Serine", "Cysteine", "Aspartic", "Metallo", "Threonine"];
    let count = families.max(1).min(subfamilies.len());
    for sf in subfamilies.iter().take(count) {
        let c = o.add_concept(format!("{sf}Protease"));
        o.add_relation(protease, c, RelationType::IsA);
        // some non-protease siblings, to make the class filter meaningful
        let other = o.add_concept(format!("{sf}Kinase"));
        o.add_relation(protein, other, RelationType::IsA);
        let _ = rng.range_u64(0, 10); // keep generation seed-coupled
    }
    (o, protease)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_tree_shape() {
        let (o, root, all) = balanced_tree(2, 3);
        // 1 + 3 + 9 = 13 concepts
        assert_eq!(all.len(), 13);
        assert_eq!(o.children(root).len(), 3);
        // leaves have no children
        let leaves: Vec<_> = all.iter().filter(|&&c| o.children(c).is_empty()).collect();
        assert_eq!(leaves.len(), 9);
    }

    #[test]
    fn populate_adds_instances_to_leaves_only() {
        let (mut o, _root, all) = balanced_tree(2, 2);
        populate_leaves(&mut o, &all, 3);
        // 4 leaves * 3 = 12 instances
        assert_eq!(o.instance_count(), 12);
    }

    #[test]
    fn neuro_ontology_has_dcn_under_cerebellum() {
        let (o, c) = neuro_anatomy();
        let parts = o.subtree(c.cerebellum, &RelationType::PartOf);
        assert!(parts.contains(&c.deep_cerebellar_nuclei));
        assert!(o.subtree(c.brain, &RelationType::IsA).contains(&c.cerebellum));
        assert_eq!(o.concept_name(c.deep_cerebellar_nuclei), Some("DeepCerebellarNuclei"));
    }

    #[test]
    fn protein_families_has_protease_class() {
        let mut rng = WorkloadRng::new(1);
        let (o, protease) = protein_families(&mut rng, 3);
        // protease has 3 subfamilies
        let subfamilies = o.children(protease).into_iter().filter(|(_, r)| *r == RelationType::IsA);
        assert_eq!(subfamilies.count(), 3);
        assert_eq!(o.concept_name(protease), Some("Protease"));
    }
}
