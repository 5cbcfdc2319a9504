//! Property tests for the sharded router: the partition is total and deterministic,
//! id translation round-trips, the replicated stores agree, and the collation mirror
//! stays in lock-step with an unsharded oracle under arbitrary interleaved write
//! schedules (including failing commits and referent reuse).

use graphitti_core::{
    AnnotationId, CoreError, DataType, Graphitti, Marker, ObjectId, ReferentId, ShardedSystem,
    WriteSystem,
};
use proptest::prelude::*;

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
        1 => sys.annotate().comment(format!("note {step}")).mark(obj, marker),
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
    // Guarantee at least one object so annotate ops have a target.
    oracle.register_sequence("seed", DataType::DnaSequence, 2_000, "chr1");
    sharded.register_sequence("seed", DataType::DnaSequence, 2_000, "chr1");
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
    fn router_partitions_totally_and_mirror_tracks_oracle(
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

        // The collation mirror is in lock-step with the oracle's a-graph.
        prop_assert_eq!(sharded.agraph().node_count(), oracle.agraph().node_count());
        prop_assert_eq!(sharded.agraph().edge_count(), oracle.agraph().edge_count());
        for node in oracle.agraph().nodes() {
            prop_assert_eq!(sharded.agraph().out_edges(node), oracle.agraph().out_edges(node));
        }

        // Annotation link lists translate back to the oracle's exactly.
        for g in 0..oracle.annotation_count() as u64 {
            let expected = &oracle.annotation(AnnotationId(g)).unwrap().referents;
            let got = sharded.annotation_referents(AnnotationId(g)).unwrap();
            prop_assert_eq!(&got[..], &expected[..], "annotation {} link list", g);
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
