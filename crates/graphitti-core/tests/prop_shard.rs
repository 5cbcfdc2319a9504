//! Property tests for the sharded router: the partition is total and deterministic,
//! id translation round-trips, the replicated stores agree, and the id maps stay in
//! lock-step with an unsharded oracle under arbitrary interleaved write schedules
//! (including failing commits, referent reuse and terms cited twice).  The links
//! battery holds the oracle's a-graph, a cut's on 1 to 8 shards and one built by brute
//! force from the study's rows to one list of links.

use graphitti_core::agraph::{EdgeId, Links, NodeId, NodeKind};
use graphitti_core::ontology::ConceptId;
use graphitti_core::{
    AnnotationId, CoreError, DataType, Graphitti, Marker, ObjectId, ReferentId, ShardedSystem,
    StudySnapshot, WriteSystem,
};
use proptest::prelude::*;

/// Concepts every schedule defines before its first write.
const TERMS: u8 = 3;

/// One randomized write drawn from a compact encoding (the proptest shim has no enum
/// strategies): `kind % 4` selects register / annotate / reuse-annotate / failing
/// annotate, `pick` skews the target object.  Written once against the write surface
/// both systems share; `objects` / `refs` are the counts before the write (equal on
/// both).  Returns the id the write produced, or `None` where it failed or was skipped.
fn apply_op<S: WriteSystem>(
    sys: &mut S,
    (objects, refs): (u64, u64),
    kind: u8,
    pick: u8,
    step: usize,
) -> Option<u64> {
    let obj = ObjectId(u64::from(pick) % objects.max(1));
    let marker = Marker::interval(step as u64 * 10, step as u64 * 10 + 5);
    let builder = match kind % 4 {
        0 => {
            let name = format!("obj-{step}");
            return Some(sys.register_sequence(name, DataType::DnaSequence, 2_000, "chr1").0);
        }
        // A new mark citing a term — twice when `pick` is odd (parallel links).
        1 => {
            let term = ConceptId(u32::from(pick % TERMS));
            let builder = sys.annotate().comment(format!("note {step}")).mark(obj, marker);
            match pick % 2 {
                0 => builder.cite_term(term),
                _ => builder.cite_term(term).cite_term(term),
            }
        }
        // Reuse a committed referent when one exists (shared-referent routing).
        2 if refs == 0 => return None,
        2 => sys
            .annotate()
            .comment(format!("reuse {step}"))
            .mark_existing(ReferentId(u64::from(pick) % refs)),
        // A failing commit (unknown object) with a preceding valid mark: both
        // systems must reject it whole, before the valid mark writes anything.
        _ => sys
            .annotate()
            .comment(format!("fail {step}"))
            .mark(obj, marker)
            .mark(ObjectId(9_999), Marker::interval(0, 1)),
    };
    builder.commit().ok().map(|id| id.0)
}

fn run_schedule(shards: usize, kinds: &[u8], picks: &[u8]) -> (Graphitti, ShardedSystem) {
    let mut oracle = Graphitti::new();
    let mut sharded = ShardedSystem::new(shards);
    // Guarantee at least one object so annotate ops have a target, and the terms.
    oracle.register_sequence("seed", DataType::DnaSequence, 2_000, "chr1");
    sharded.register_sequence("seed", DataType::DnaSequence, 2_000, "chr1");
    for t in 0..TERMS {
        let define = |o: &mut graphitti_core::ontology::Ontology| o.add_concept(format!("t{t}"));
        assert_eq!(oracle.ontology_edit(define), sharded.ontology_edit(define));
    }
    for (step, (&kind, &pick)) in kinds.iter().zip(picks).enumerate() {
        let counts = (oracle.object_count() as u64, oracle.referent_count() as u64);
        assert_eq!(
            apply_op(&mut oracle, counts, kind, pick, step),
            apply_op(&mut sharded, counts, kind, pick, step),
            "step {step}: outcome and assigned id must match the oracle"
        );
    }
    (oracle, sharded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn router_partitions_totally_and_link_lists_translate(
        shards in 1usize..9,
        kinds in prop::collection::vec(any::<u8>(), 1..30),
        picks in prop::collection::vec(any::<u8>(), 30),
    ) {
        let (oracle, sharded) = run_schedule(shards, &kinds, &picks);

        // Global counts agree with the oracle; internal maps are bijective.
        prop_assert_eq!(sharded.object_count(), oracle.object_count());
        prop_assert_eq!(sharded.annotation_count(), oracle.annotation_count());
        prop_assert_eq!(sharded.referent_count(), oracle.referent_count());
        let problems = sharded.verify_integrity();
        prop_assert!(problems.is_empty(), "{:?}", problems);

        // Every entity lands on exactly one shard, and the per-shard totals add up
        // (no duplicates, no drops, whatever the skew).
        let mut per_shard_anns = 0usize;
        let mut per_shard_refs = 0usize;
        for i in 0..sharded.shard_count() {
            per_shard_anns += sharded.shard(i).annotation_count();
            per_shard_refs += sharded.shard(i).referent_count();
        }
        prop_assert_eq!(per_shard_anns, sharded.annotation_count());
        prop_assert_eq!(per_shard_refs, sharded.referent_count());

        // Annotation link lists translate back to the oracle's exactly.
        for g in 0..oracle.annotation_count() as u64 {
            let expected = &oracle.annotation(AnnotationId(g)).unwrap().referents;
            let got = sharded.annotation_referents(AnnotationId(g)).unwrap();
            prop_assert_eq!(&got[..], &expected[..], "annotation {} link list", g);
        }
    }

    // The oracle's links, a cut's on 1 to 8 shards and the brute-force list from the
    // study's rows agree node by node: its kind, its out-links, its in-links, in order.
    // A node past the end of each kind is no node on any of them.
    #[test]
    fn links_agree_with_the_records(
        shards in 1usize..9,
        kinds in prop::collection::vec(any::<u8>(), 1..30),
        picks in prop::collection::vec(any::<u8>(), 30),
    ) {
        let (oracle, sharded) = run_schedule(shards, &kinds, &picks);
        let cut = sharded.capture_cut();
        let expected = brute_force(&oracle.study_snapshot());
        let nodes: Vec<NodeId> = expected.iter().map(|listed| listed.0).collect();
        prop_assert_eq!(&oracle.nodes(), &nodes);
        prop_assert_eq!(&cut.nodes(), &nodes);
        prop_assert_eq!(&listed(oracle.view(), &nodes), &expected);
        prop_assert_eq!(&listed(&cut, &nodes), &expected);
        let counts = [
            (NodeKind::Content, oracle.annotation_count()),
            (NodeKind::Referent, oracle.referent_count()),
            (NodeKind::OntologyTerm, usize::from(TERMS)),
            (NodeKind::Object, oracle.object_count()),
        ];
        for (kind, count) in counts {
            let past = NodeId::new(kind, count as u64);
            prop_assert_eq!(oracle.view().kind(past), None);
            prop_assert_eq!(cut.kind(past), None);
        }
    }

    #[test]
    fn rerouting_is_deterministic(
        shards in 1usize..9,
        kinds in prop::collection::vec(any::<u8>(), 1..20),
        picks in prop::collection::vec(any::<u8>(), 20),
    ) {
        // Replaying the identical schedule yields identical homes for every entity.
        let (_, a) = run_schedule(shards, &kinds, &picks);
        let (_, b) = run_schedule(shards, &kinds, &picks);
        prop_assert_eq!(a.annotation_count(), b.annotation_count());
        for g in 0..a.annotation_count() as u64 {
            prop_assert_eq!(
                a.annotation_home(AnnotationId(g)),
                b.annotation_home(AnnotationId(g))
            );
        }
        for g in 0..a.referent_count() as u64 {
            prop_assert_eq!(a.referent_home(ReferentId(g)), b.referent_home(ReferentId(g)));
        }
    }

    #[test]
    fn cross_shard_reuse_error_names_both_shards(
        shards in 2usize..9,
        kinds in prop::collection::vec(any::<u8>(), 10..30),
        picks in prop::collection::vec(any::<u8>(), 30),
        first in any::<u8>(),
        second in any::<u8>(),
    ) {
        // Reusing two committed referents in one annotation must succeed exactly when
        // they share a home shard; a rejection must be the dedicated
        // `CoreError::CrossShardReuse` variant naming the routed shard (the first
        // reused referent's home) and the conflicting shard, in that order.
        let (_, mut sharded) = run_schedule(shards, &kinds, &picks);
        let refs = sharded.referent_count() as u64;
        if refs < 2 {
            return;
        }
        let r1 = ReferentId(u64::from(first) % refs);
        let r2 = ReferentId(u64::from(second) % refs);
        let home1 = sharded.referent_home(r1).expect("committed referent has a home").shard;
        let home2 = sharded.referent_home(r2).expect("committed referent has a home").shard;
        let result = sharded
            .annotate()
            .comment("pair reuse")
            .mark_existing(r1)
            .mark_existing(r2)
            .commit();
        if home1 == home2 {
            prop_assert!(result.is_ok(), "co-located reuse must commit: {:?}", result);
        } else {
            match result {
                Err(CoreError::CrossShardReuse { home, reused }) => {
                    prop_assert_eq!(home, home1, "routed shard is the first referent's home");
                    prop_assert_eq!(reused, home2, "conflicting shard is the second's home");
                }
                other => prop_assert!(false, "expected CrossShardReuse, got {:?}", other),
            }
        }
    }
}

/// A node with its kind, its out-links and its in-links, each in order.
type Listed = (NodeId, Option<NodeKind>, Vec<(EdgeId, NodeId)>, Vec<(EdgeId, NodeId)>);

/// Every node of `nodes` as `links` lists it.
fn listed(links: &impl Links, nodes: &[NodeId]) -> Vec<Listed> {
    let out = |node| {
        let mut out = Vec::new();
        links.out_links(node, |edge, to| out.push((edge, to)));
        out
    };
    let ins = |node| {
        let mut ins = Vec::new();
        links.in_links(node, |edge, from| ins.push((edge, from)));
        ins
    };
    nodes.iter().map(|&n| (n, links.kind(n), out(n), ins(n))).collect()
}

/// The a-graph of `study` by brute force: every row a node, every link an edge named
/// by its row and its position there, and each node's in-links found by scanning every
/// out-link — in node order, which is edge-id order.
fn brute_force(study: &StudySnapshot) -> Vec<Listed> {
    let mut terms: Vec<u32> =
        study.annotations.iter().flat_map(|a| a.terms.iter().map(|t| t.0)).collect();
    terms.sort_unstable();
    terms.dedup();
    let node = |kind, key: usize| NodeId::new(kind, key as u64);
    let mut nodes: Vec<NodeId> = Vec::new();
    nodes.extend((0..study.annotations.len()).map(|a| node(NodeKind::Content, a)));
    nodes.extend((0..study.referents.len()).map(|r| node(NodeKind::Referent, r)));
    nodes.extend(terms.iter().map(|&t| node(NodeKind::OntologyTerm, t as usize)));
    nodes.extend((0..study.objects.len()).map(|o| node(NodeKind::Object, o)));
    let out = |n: NodeId| -> Vec<(EdgeId, NodeId)> {
        let key = n.record().key as usize;
        let targets: Vec<NodeId> = match n.record().kind {
            NodeKind::Content => {
                let a = &study.annotations[key];
                let referents = a.referents.iter().map(|&r| node(NodeKind::Referent, r));
                let terms = a.terms.iter().map(|t| node(NodeKind::OntologyTerm, t.0 as usize));
                referents.chain(terms).collect()
            }
            NodeKind::Referent => vec![node(NodeKind::Object, study.referents[key].object)],
            _ => vec![],
        };
        targets.into_iter().enumerate().map(|(k, to)| (EdgeId::new(n, k), to)).collect()
    };
    let all: Vec<(NodeId, Vec<(EdgeId, NodeId)>)> = nodes.iter().map(|&n| (n, out(n))).collect();
    all.iter()
        .map(|(n, out)| {
            let ins = all
                .iter()
                .flat_map(|(from, out)| out.iter().filter(|l| l.1 == *n).map(|l| (l.0, *from)))
                .collect();
            (*n, Some(n.record().kind), out.clone(), ins)
        })
        .collect()
}
