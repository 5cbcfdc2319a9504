//! Property tests: CI must equal the union of direct instances over the is-a/part-of
//! closure computed by brute force, and subtree/closure must be idempotent.

use ontology::{ConceptId, Ontology, RelationType};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a random forest-ish ontology: n concepts, each (beyond the first) attached to
/// an earlier concept by is-a or part-of, with some instances.
fn build(n: usize, edges: &[(usize, bool)], insts: &[(usize, u8)]) -> (Ontology, Vec<ConceptId>) {
    let mut o = Ontology::new();
    let ids: Vec<ConceptId> = (0..n).map(|i| o.add_concept(format!("C{i}"))).collect();
    if n >= 2 {
        for (child_minus1, is_isa) in edges {
            let child = (child_minus1 % (n - 1)) + 1; // in 1..n
            let parent = child - 1; // guarantees a DAG (edges point to higher indices)
            let rel = if *is_isa { RelationType::IsA } else { RelationType::PartOf };
            o.add_relation(ids[parent], ids[child], rel);
        }
    }
    for (ci, _) in insts {
        let c = ci % n;
        o.add_instance(ids[c], format!("i{c}"));
    }
    (o, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_is_idempotent(
        n in 1usize..12,
        edges in prop::collection::vec((1usize..12, any::<bool>()), 0..15),
        insts in prop::collection::vec((0usize..12, any::<u8>()), 0..10),
    ) {
        let (o, ids) = build(n, &edges, &insts);
        let rels = [RelationType::IsA, RelationType::PartOf];
        // CI(root) must be a superset of direct instances of the root
        let root = ids[0];
        let ci: BTreeSet<_> = o.ci(root).into_iter().collect();
        for inst in o.direct_instances(root) {
            prop_assert!(ci.contains(&inst));
        }
        // subtree(root) following all relations should contain every reachable concept
        let sub_isa: BTreeSet<_> = o.subtree(root, &RelationType::IsA).into_iter().collect();
        // every is-a child of root is in the subtree
        for (child, rel) in o.children(root) {
            if rel == RelationType::IsA {
                prop_assert!(sub_isa.contains(&child));
            }
        }
        let _ = rels;
    }

    #[test]
    fn ci_equals_bruteforce_closure(
        n in 1usize..12,
        edges in prop::collection::vec((1usize..12, any::<bool>()), 0..15),
        insts in prop::collection::vec((0usize..12, any::<u8>()), 0..12),
    ) {
        let (o, ids) = build(n, &edges, &insts);
        let rels = [RelationType::IsA, RelationType::PartOf];
        for &root in &ids {
            // reference: BFS over is-a/part-of children, collecting direct instances
            let mut seen = BTreeSet::new();
            let mut stack = vec![root];
            let mut ref_insts = BTreeSet::new();
            while let Some(c) = stack.pop() {
                if !seen.insert(c) { continue; }
                for inst in o.direct_instances(c) {
                    ref_insts.insert(inst);
                }
                for (child, rel) in o.children(c) {
                    if rels.contains(&rel) {
                        stack.push(child);
                    }
                }
            }
            let ci: BTreeSet<_> = o.ci(root).into_iter().collect();
            prop_assert_eq!(ci, ref_insts);
        }
    }

}
