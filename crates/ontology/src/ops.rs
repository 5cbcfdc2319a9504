//! The OntoQuest operation set.
//!
//! Every operation is defined over the concept closure computed in [`crate::graph`].
//! Instances of a concept include the instances of every concept reachable from it
//! along the chosen relations — so `CI` of a high-level class returns the instances of
//! all its subclasses, exactly as the paper's `CI : C ↦ I⁺` requires.

use std::collections::BTreeSet;

use crate::graph::{ConceptId, InstanceId, Ontology, RelationType};

impl Ontology {
    /// `CI(c)` — the set of all instances of a concept, following the default
    /// hierarchical relations (`is-a` and `part-of`).
    pub fn ci(&self, concept: ConceptId) -> Vec<InstanceId> {
        self.cm_ri(&[concept], &[RelationType::IsA, RelationType::PartOf])
    }

    /// `CRI(c, r)` — the set of all instances of a concept reachable by a single
    /// relation type `r`.
    pub fn cri(&self, concept: ConceptId, rel: &RelationType) -> Vec<InstanceId> {
        self.cm_ri(&[concept], std::slice::from_ref(rel))
    }

    /// `CmRI(c, R⁺)` — instances of a concept restricted to a set of relation types.
    pub fn cm_ri(&self, concepts: &[ConceptId], relations: &[RelationType]) -> Vec<InstanceId> {
        self.m_cm_ri(concepts, relations)
    }

    /// `mCmRI(C⁺, R⁺)` — all instances reachable from any concept in the set using only
    /// edges from `R⁺`.
    pub fn m_cm_ri(&self, concepts: &[ConceptId], relations: &[RelationType]) -> Vec<InstanceId> {
        let closure = self.closure(concepts, relations);
        let mut out: BTreeSet<InstanceId> = BTreeSet::new();
        for c in &closure {
            for inst in self.direct_instances(*c) {
                out.insert(inst);
            }
        }
        out.into_iter().collect()
    }

    /// `SubTree(X, R)` — the set of concepts in the subtree under `X` following relation
    /// `R` (including `X` itself), in sorted order.
    pub fn subtree(&self, root: ConceptId, rel: &RelationType) -> Vec<ConceptId> {
        self.closure(&[root], std::slice::from_ref(rel)).into_iter().collect()
    }

    /// `SubTree(X, R) − SubTree(Y, R)` — the concepts under `X` that are not under `Y`,
    /// following relation `R`.  (In a tree this is well-defined when `Y` is a descendant
    /// of `X`; in a DAG it is simply the set difference, which is the natural
    /// generalisation.)
    pub fn subtree_difference(
        &self,
        x: ConceptId,
        y: ConceptId,
        rel: &RelationType,
    ) -> Vec<ConceptId> {
        let under_x = self.closure(&[x], std::slice::from_ref(rel));
        let under_y = self.closure(&[y], std::slice::from_ref(rel));
        under_x.difference(&under_y).copied().collect()
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
    fn cri_single_relation() {
        let (o, [region, cerebellum, _, _], insts) = anatomy();
        // is-a from region reaches cerebellum and cerebrum, but not DCN (part-of)
        let by_isa = o.cri(region, &RelationType::IsA);
        assert_eq!(by_isa, vec![insts[0], insts[2]]);
        // part-of from region reaches nothing below (region has no part-of children)
        assert!(o.cri(region, &RelationType::PartOf).is_empty());
        // part-of from cerebellum reaches DCN
        assert_eq!(o.cri(cerebellum, &RelationType::PartOf), vec![insts[0], insts[1]]);
    }

    #[test]
    fn cm_ri_restricts_relations() {
        let (o, [region, _, _, _], insts) = anatomy();
        let isa_only = o.cm_ri(&[region], &[RelationType::IsA]);
        assert_eq!(isa_only, vec![insts[0], insts[2]]);
        let both = o.cm_ri(&[region], &[RelationType::IsA, RelationType::PartOf]);
        assert_eq!(both, insts);
    }

    #[test]
    fn m_cm_ri_multiple_roots() {
        let (o, [_, cerebellum, _, cerebrum], insts) = anatomy();
        let reached = o.m_cm_ri(&[cerebellum, cerebrum], &[RelationType::PartOf]);
        // cerebellum -part-of-> DCN gives its instance + cerebellum's own, plus cerebrum's own
        let mut expected = vec![insts[0], insts[1], insts[2]];
        expected.sort();
        assert_eq!(reached, expected);
    }

    #[test]
    fn subtree_and_difference() {
        let (o, [region, cerebellum, dcn, cerebrum], _) = anatomy();
        let under_region_isa = o.subtree(region, &RelationType::IsA);
        assert_eq!(under_region_isa, vec![region, cerebellum, cerebrum]);
        // region minus cerebellum along is-a: region and cerebrum remain
        let diff = o.subtree_difference(region, cerebellum, &RelationType::IsA);
        let mut diff_sorted = diff.clone();
        diff_sorted.sort();
        assert_eq!(diff_sorted, vec![region, cerebrum]);
        assert!(under_region_isa.contains(&cerebellum));
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
