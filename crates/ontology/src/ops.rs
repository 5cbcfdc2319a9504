//! The OntoQuest operations the system calls: `CI` and `SubTree`.
//!
//! Both are defined over the concept closure computed in [`crate::graph`].
//! Instances of a concept include the instances of every concept reachable from it
//! along the chosen relations — so `CI` of a high-level class returns the instances of
//! all its subclasses, exactly as the paper's `CI : C ↦ I⁺` requires.

use std::collections::BTreeSet;

use crate::graph::{ConceptId, InstanceId, Ontology, RelationType};

impl Ontology {
    /// `CI(c)` — the set of all instances of a concept, following the default
    /// hierarchical relations (`is-a` and `part-of`).
    pub fn ci(&self, concept: ConceptId) -> Vec<InstanceId> {
        let closure = self.closure(&[concept], &[RelationType::IsA, RelationType::PartOf]);
        let instances: BTreeSet<InstanceId> =
            closure.into_iter().flat_map(|c| self.direct_instances(c)).collect();
        instances.into_iter().collect()
    }

    /// `SubTree(X, R)` — the set of concepts in the subtree under `X` following relation
    /// `R` (including `X` itself), in sorted order.
    pub fn subtree(&self, root: ConceptId, rel: &RelationType) -> Vec<ConceptId> {
        self.closure(&[root], std::slice::from_ref(rel)).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small anatomy ontology:
    /// BrainRegion -is-a-> Cerebellum -part-of-> DeepCerebellarNuclei
    ///                   -is-a-> Cerebrum
    fn anatomy() -> (Ontology, [ConceptId; 4], Vec<InstanceId>) {
        let mut o = Ontology::new();
        let region = o.add_concept("BrainRegion");
        let cerebellum = o.add_concept("Cerebellum");
        let dcn = o.add_concept("DeepCerebellarNuclei");
        let cerebrum = o.add_concept("Cerebrum");
        o.add_relation(region, cerebellum, RelationType::IsA);
        o.add_relation(region, cerebrum, RelationType::IsA);
        o.add_relation(cerebellum, dcn, RelationType::PartOf);
        let i_cereb = o.add_instance(cerebellum, "img-cereb");
        let i_dcn = o.add_instance(dcn, "img-dcn");
        let i_cerebrum = o.add_instance(cerebrum, "img-cerebrum");
        (o, [region, cerebellum, dcn, cerebrum], vec![i_cereb, i_dcn, i_cerebrum])
    }

    #[test]
    fn ci_collects_descendant_instances() {
        let (o, [region, cerebellum, dcn, _], insts) = anatomy();
        // all three instances are under BrainRegion
        assert_eq!(o.ci(region), insts);
        // under Cerebellum: its own instance plus DCN (part-of)
        assert_eq!(o.ci(cerebellum), vec![insts[0], insts[1]]);
        assert_eq!(o.ci(dcn), vec![insts[1]]);
    }

    #[test]
    fn subtree_follows_one_relation() {
        let (o, [region, cerebellum, dcn, cerebrum], _) = anatomy();
        let under_region_isa = o.subtree(region, &RelationType::IsA);
        assert_eq!(under_region_isa, vec![region, cerebellum, cerebrum]);
        assert!(!under_region_isa.contains(&dcn)); // dcn is part-of
        assert!(o.subtree(cerebellum, &RelationType::PartOf).contains(&dcn));
    }

    #[test]
    fn operations_on_leaf_concept() {
        let (o, [_, _, dcn, _], insts) = anatomy();
        assert_eq!(o.subtree(dcn, &RelationType::PartOf), vec![dcn]);
        assert_eq!(o.ci(dcn), vec![insts[1]]);
    }
}
