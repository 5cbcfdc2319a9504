//! Sharded scatter-gather query serving.
//!
//! Run with `cargo run --release --example sharded_service`.
//!
//! Builds an influenza study, re-materialises it as a 4-shard
//! [`ShardedSystem`] *and* an equivalent unsharded oracle from the same study
//! snapshot, then serves queries scatter-gather over a consistent
//! [`ShardCut`](graphitti::core::ShardCut) while a writer keeps publishing
//! batches.  Shows the four sharding properties end to end: hash partitioning
//! with global ids, byte-identical answers vs the unsharded system, pruning an
//! id-pinned query to its owning shard, and the cut-level cache surviving a
//! footprint-disjoint (ingest-only) publish.

use graphitti::core::{DataType, Graphitti, Marker, ObjectId, ShardedSystem};
use graphitti::query::{
    Executor, Query, ReferentFilter, ShardedQueryService, ShardedServiceConfig, Target,
};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

fn main() {
    // One corpus, two materialisations: the study snapshot replays into an
    // unsharded oracle and a 4-shard system with identical global ids — and
    // identical a-graph node ids, because the sharded router maintains a global
    // collation mirror in the unsharded system's exact creation order.
    let base = influenza::build(&InfluenzaConfig::small().with_annotations(300));
    let study = base.study_snapshot();
    let oracle = Graphitti::from_study_snapshot(&study).expect("oracle replay");
    let mut sharded = ShardedSystem::from_study_snapshot(&study, 4).expect("sharded replay");

    println!(
        "corpus: {} objects (replicated), {} annotations partitioned over {} shards:",
        sharded.object_count(),
        sharded.annotation_count(),
        sharded.shard_count()
    );
    for i in 0..sharded.shard_count() {
        println!(
            "  shard {i}: {} annotations, {} referents (epoch {})",
            sharded.shard(i).annotation_count(),
            sharded.shard(i).referent_count(),
            sharded.shard(i).epoch()
        );
    }

    // Serve over a consistent cut: one snapshot per shard, captured atomically.
    let service = ShardedQueryService::new(
        sharded.capture_cut(),
        ShardedServiceConfig::default().with_cache_capacity(64),
    );

    // A content query scatters to every shard; the per-shard candidate runs are
    // disjoint sorted global-id sets, merged by a k-way galloping union, and the
    // answer is byte-identical to the unsharded executor — pages, ordering and
    // node ids included.
    let phrase = Query::new(Target::AnnotationContents).with_phrase("protease");
    let served = service.run(phrase.clone()).unwrap();
    let expected = Executor::new(&oracle).run(&phrase);
    assert_eq!(served.to_json(), expected.to_json());
    println!(
        "\nscatter-gather \"protease\": {} annotations, byte-identical to the unsharded oracle",
        served.annotations.len()
    );

    // An id-pinned query prunes: the cut knows which shards hold an object's
    // referents, so the referent family visits exactly those (usually one).
    let pinned = Query::new(Target::Referents).with_referent(ReferentFilter::OnObject(ObjectId(0)));
    let mask = service.cut().object_referent_shards(ObjectId(0));
    let on_object = service.run(pinned.clone()).unwrap();
    assert_eq!(on_object.to_json(), Executor::new(&oracle).run(&pinned).to_json());
    println!(
        "id-pinned OnObject(0): {} referents, referent scatter pruned to shard mask {mask:#06b}",
        on_object.referents.len()
    );

    // A footprint-disjoint publish: registrations replicate object metadata but
    // move no shard's annotation-path epochs, so the cut cache keeps both cached
    // answers — the publish evicts nothing.
    service.run(phrase.clone()).unwrap(); // warm: this one is a hit already
    let before = service.metrics();
    let mut batch = sharded.batch();
    for i in 0..5 {
        batch.register_sequence(format!("ingest-{i}"), DataType::DnaSequence, 900, "chr-new");
    }
    batch.commit();
    service.publish(sharded.capture_cut()).unwrap();
    let after = service.metrics();
    assert_eq!(after.cache_entries_evicted, before.cache_entries_evicted);
    let hits_before = service.metrics().cache_hits;
    assert_eq!(service.run(phrase.clone()).unwrap().to_json(), expected.to_json());
    assert_eq!(service.metrics().cache_hits, hits_before + 1);
    println!(
        "ingest publish: cut version {} installed, 0 evictions, \"protease\" still a cache hit",
        service.current_version()
    );

    // An annotation commit dirties what every footprint reads: the entries stop
    // hitting, and the next answers reflect the new state — still byte-identical.
    sharded
        .annotate()
        .comment("novel protease cleavage site")
        .mark(ObjectId(0), Marker::interval(40, 80))
        .commit()
        .expect("sharded annotate");
    service.publish(sharded.capture_cut()).unwrap();
    let grown = service.run(phrase.clone()).unwrap();
    assert_eq!(grown.annotations.len(), expected.annotations.len() + 1);
    println!(
        "annotation publish: \"protease\" now {} annotations (cache refilled on miss)",
        grown.annotations.len()
    );
    println!("\nmetrics: {:?}", service.metrics());
}
