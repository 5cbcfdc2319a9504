//! The randomized cross-shard equivalence battery and the sharded concurrency tests.
//!
//! 1. **Cross-shard equivalence** — a [`ShardedSystem`] built by replaying the same
//!    write stream as an unsharded oracle must serve **byte-identical** results
//!    (serialized [`QueryResult`]s, result-page node ids included) for arbitrary
//!    random queries, at shard counts {1, 2, 3, 8}, through the bare executor and
//!    through the service with the cut-level cache on or off.  The oracle is the
//!    single-threaded [`ReferenceExecutor`] on the equivalent unsharded system.
//! 2. **Routing / merge invariants** — (proptest) every annotation and referent
//!    lands on exactly one shard, re-routing is deterministic, and the
//!    scatter-gather union of the disjoint per-shard runs preserves global id order
//!    with no duplicates or drops under arbitrary partition skews.
//! 3. **Concurrency** — per-shard publishes interleaved with in-flight
//!    scatter-gather reads: every observed result is byte-identical to the
//!    reference answer at one *published* cut (a consistent cut — never a mix of
//!    shard states), observed cut versions are non-decreasing per reader, and
//!    footprint-disjoint publishes evict nothing from the cut-level cache.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{object_domains, random_query};
use datagen::influenza::{self, InfluenzaConfig};
use datagen::neuro::{self, NeuroConfig};
use datagen::rng::WorkloadRng;
use graphitti_core::ontology::ConceptId;
use graphitti_core::{
    AnnotationId, CoreError, DataType, Graphitti, Marker, ObjectId, ReferentId, ShardedSystem,
    WriteSystem,
};
use graphitti_query::{
    OntologyFilter, Query, QueryResult, ReferenceExecutor, ShardedExecutor, ShardedQueryService,
    ShardedServiceConfig, Target,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn result_bytes(result: &QueryResult) -> Vec<u8> {
    result.to_json().into_bytes()
}

/// A deterministic streamed tail of mixed writes — registers, annotations (some
/// reusing committed referents) and an ontology term — written once against the write
/// surface both systems share.  Returns every commit outcome.
fn stream_tail<S: WriteSystem>(
    sys: &mut S,
    referent_count: impl Fn(&S) -> usize,
    linear: &[ObjectId],
    objects: u64,
    seed: u64,
) -> Vec<Result<AnnotationId, CoreError>> {
    let mut rng = WorkloadRng::new(seed);
    sys.ontology_edit(|o| {
        o.add_concept("tail-term");
    });
    for i in 0..8u64 {
        sys.register_sequence(format!("tail-seq-{i}"), DataType::DnaSequence, 1_500, "tail-chr");
    }
    (0..24u64)
        .map(|i| {
            let obj = if rng.chance(0.5) && !linear.is_empty() {
                *rng.choose(linear)
            } else {
                ObjectId(objects + rng.range_u64(0, 8))
            };
            let start = rng.range_u64(0, 1_200);
            let marker = Marker::interval(start, start + rng.range_u64(10, 80));
            let comment = if rng.chance(0.4) {
                format!("tail protease observation {i}")
            } else {
                format!("tail neutral note {i}")
            };
            let refs = referent_count(sys) as u64;
            if rng.chance(0.3) && refs > 0 {
                let rid = ReferentId(rng.range_u64(0, refs));
                sys.annotate().comment(comment).mark_existing(rid).commit()
            } else {
                sys.annotate().comment(comment).mark(obj, marker).commit()
            }
        })
        .collect()
}

/// Replay `base` into a fresh unsharded oracle and an N-shard system (both from the
/// same study snapshot, so global ids *and a-graph node ids* coincide), then append
/// the same [`stream_tail`] to both.
fn replayed_pair(base: &Graphitti, shards: usize, tail_seed: u64) -> (Graphitti, ShardedSystem) {
    let study = base.study_snapshot();
    let mut oracle = Graphitti::from_study_snapshot(&study).expect("oracle replay");
    let mut sharded = ShardedSystem::from_study_snapshot(&study, shards).expect("sharded replay");

    let objects = oracle.object_count() as u64;
    let linear: Vec<ObjectId> =
        oracle.objects().iter().filter(|o| o.data_type.is_linear()).map(|o| o.id).collect();
    assert_eq!(
        stream_tail(&mut sharded, ShardedSystem::referent_count, &linear, objects, tail_seed),
        stream_tail(&mut oracle, |o| o.referent_count(), &linear, objects, tail_seed),
        "every commit outcome must match the oracle"
    );
    assert!(sharded.verify_integrity().is_empty(), "{:?}", sharded.verify_integrity());
    (oracle, sharded)
}

/// Six 1 Mb sequences, then ten "protease motif" annotations round-robin over them
/// (each citing a fresh "Motif" term when `cite` is set) — the seed corpus of the two
/// concurrency tests, written once for both systems.
fn seed_protease<S: WriteSystem>(sys: &mut S, cite: bool) -> Option<ConceptId> {
    let term = cite.then(|| sys.ontology_edit(|o| o.add_concept("Motif")));
    for i in 0..6u64 {
        sys.register_sequence(format!("s{i}"), DataType::DnaSequence, 1_000_000, "chr1");
    }
    for i in 0..10u64 {
        let mut builder = sys
            .annotate()
            .comment(format!("protease motif {i}"))
            .mark(ObjectId(i % 6), Marker::interval(i * 100, i * 100 + 50));
        if let Some(term) = term {
            builder = builder.cite_term(term);
        }
        builder.commit().unwrap();
    }
    term
}

/// The battery core: random queries, every execution mode, byte comparison.
fn assert_sharded_matches_reference(base: &Graphitti, seed: u64, queries: usize) {
    for shards in SHARD_COUNTS {
        let (oracle, sharded) = replayed_pair(base, shards, seed ^ 0xA11CE);
        let reference = ReferenceExecutor::new(&oracle);
        let domains = object_domains(&oracle);
        let mut rng = WorkloadRng::new(seed);
        let cases: Vec<(Query, Vec<u8>)> = (0..queries)
            .map(|_| {
                let q = random_query(&mut rng, &oracle, &domains);
                let expected = result_bytes(&reference.run(&q));
                (q, expected)
            })
            .collect();

        let cut = sharded.capture_cut();
        let cached = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default().with_cache_capacity(64),
        );
        let uncached = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default().with_cache_capacity(0),
        );
        for (i, (q, expected)) in cases.iter().enumerate() {
            let label = format!("shards={shards} query #{i}");
            let direct = ShardedExecutor::new(&cut).run(q);
            assert_eq!(&result_bytes(&direct), expected, "[{label}] executor");
            // Service with cache: first run misses, second must hit and stay equal.
            assert_eq!(
                &result_bytes(&cached.run(q.clone()).unwrap()),
                expected,
                "[{label}] cached miss"
            );
            assert_eq!(
                &result_bytes(&cached.run(q.clone()).unwrap()),
                expected,
                "[{label}] cached hit"
            );
            assert_eq!(
                &result_bytes(&uncached.run(q.clone()).unwrap()),
                expected,
                "[{label}] uncached"
            );
        }
        assert!(
            cached.metrics().cache_hits >= queries as u64,
            "second pass must be served from the cut cache"
        );
    }
}

#[test]
fn influenza_sharded_matches_reference() {
    let base = influenza::build(&InfluenzaConfig::small().with_annotations(150));
    assert_sharded_matches_reference(&base, 0x5A4D_0001, 30);
}

#[test]
fn neuro_sharded_matches_reference() {
    let w = neuro::build(&NeuroConfig {
        seed: 11,
        images: 24,
        regions_per_image: 5,
        coordinate_systems: 3,
        dcn_prob: 0.4,
        tp53_prob: 0.3,
        canvas: 1_000.0,
    });
    assert_sharded_matches_reference(&w.system, 0x5A4D_0002, 30);
}

#[test]
fn empty_sharded_system_matches_reference() {
    // No corpus at all: every shard count must still agree with the oracle on
    // arbitrary queries (all empty).
    let mut rng = WorkloadRng::new(0x5A4D_0003);
    let oracle = Graphitti::new();
    let reference = ReferenceExecutor::new(&oracle);
    for shards in SHARD_COUNTS {
        let sharded = ShardedSystem::new(shards);
        let cut = sharded.capture_cut();
        for _ in 0..15 {
            let q = random_query(&mut rng, &oracle, &[]);
            assert_eq!(
                result_bytes(&ShardedExecutor::new(&cut).run(&q)),
                result_bytes(&reference.run(&q)),
            );
        }
    }
}

mod routing_and_merge_props {
    use super::*;
    use proptest::prelude::*;

    /// Invariant body: for any schedule of annotations over a skewed object
    /// population, every annotation/referent has exactly one home, re-routing is
    /// deterministic (a second identical build produces identical homes), and the
    /// merged global candidate runs are sorted, duplicate-free and complete.
    fn check(shards: usize, object_picks: &[u8], protease_flags: &[bool]) {
        fn write<S: WriteSystem>(mut sys: S, object_picks: &[u8], protease_flags: &[bool]) -> S {
            for i in 0..4u64 {
                sys.register_sequence(format!("s{i}"), DataType::DnaSequence, 2_000, "chr1");
            }
            for (i, (&pick, &protease)) in object_picks.iter().zip(protease_flags).enumerate() {
                // Arbitrary skew: `pick` concentrates annotations on few objects.
                let comment =
                    if protease { format!("protease motif {i}") } else { format!("quiet {i}") };
                sys.annotate()
                    .comment(comment)
                    .mark(
                        ObjectId(u64::from(pick % 4)),
                        Marker::interval(i as u64 * 20, i as u64 * 20 + 10),
                    )
                    .commit()
                    .unwrap();
            }
            sys
        }
        let build = || {
            (
                write(Graphitti::new(), object_picks, protease_flags),
                write(ShardedSystem::new(shards), object_picks, protease_flags),
            )
        };
        let (oracle, sharded) = build();
        let (_, sharded2) = build();

        // Exactly-one-home partition + deterministic re-routing.
        prop_assert!(sharded.verify_integrity().is_empty());
        let mut seen = vec![0usize; sharded.annotation_count()];
        for g in 0..sharded.annotation_count() as u64 {
            let home = sharded.annotation_home(graphitti_core::AnnotationId(g)).unwrap();
            let home2 = sharded2.annotation_home(graphitti_core::AnnotationId(g)).unwrap();
            prop_assert_eq!(home, home2, "re-routing must be deterministic");
            prop_assert!(home.shard < shards);
            seen[g as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&n| n == 1));

        // Merged candidate runs: sorted ascending, no duplicates, no drops — equal
        // to the oracle's candidate set whatever the partition skew.
        let cut = sharded.capture_cut();
        let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
        let merged = ShardedExecutor::new(&cut).run(&q);
        let expected = ReferenceExecutor::new(&oracle).run(&q);
        prop_assert!(merged.annotations.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        prop_assert_eq!(&merged.annotations, &expected.annotations, "no drops, no extras");
        prop_assert_eq!(result_bytes(&merged), result_bytes(&expected));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn partition_is_total_deterministic_and_merge_is_lossless(
            shards in 1usize..9,
            object_picks in prop::collection::vec(0u8..8, 1..24),
            protease_flags in prop::collection::vec(any::<bool>(), 24),
        ) {
            check(shards, &object_picks, &protease_flags);
        }
    }
}

/// One published batch of the test below: a matching annotation and a noise one.
fn late_batch<S: WriteSystem>(sys: &mut S, b: u64) {
    let obj = ObjectId(b % 6);
    let mut batch = sys.batch();
    batch
        .annotate()
        .comment(format!("protease motif late {b}"))
        .mark(obj, Marker::interval(500_000 + b * 100, 500_000 + b * 100 + 50))
        .commit()
        .unwrap();
    batch
        .annotate()
        .comment(format!("noise {b}"))
        .mark(obj, Marker::interval(700_000 + b * 70, 700_000 + b * 70 + 30))
        .commit()
        .unwrap();
    batch.commit();
}

/// Per-shard publishes interleave with in-flight scatter-gather reads: every
/// observed result must be byte-identical to the reference answer at one published
/// cut (each batch appends exactly one matching annotation, so per-cut answers are
/// pairwise distinct and a torn cross-shard read — some shards newer than others —
/// can match no published answer), and versions must be non-decreasing per reader.
#[test]
fn scatter_gather_reads_observe_one_consistent_cut_under_publishes() {
    let shards = 3usize;
    let mut oracle = Graphitti::new();
    let mut sharded = ShardedSystem::new(shards);
    seed_protease(&mut oracle, false);
    seed_protease(&mut sharded, false);

    let query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let service = Arc::new(ShardedQueryService::new(
        sharded.capture_cut(),
        ShardedServiceConfig::default().with_cache_capacity(16),
    ));
    let mut legal: Vec<Vec<u8>> = vec![result_bytes(&ReferenceExecutor::new(&oracle).run(&query))];

    let publishes = 12u64;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let service = Arc::clone(&service);
            let query = query.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || {
                // Read at least once: a fast writer may finish before this thread
                // is first scheduled.
                let mut observed = Vec::new();
                loop {
                    observed.push(result_bytes(&service.run(query.clone()).unwrap()));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observed
            }));
        }

        for b in 0..publishes {
            // Each batch routes its writes to whichever shard the target object
            // hashes to — successive batches hit different shards, so the readers
            // race against genuinely per-shard publishes.
            late_batch(&mut oracle, b);
            late_batch(&mut sharded, b);
            service.publish(sharded.capture_cut()).unwrap();
            legal.push(result_bytes(&ReferenceExecutor::new(&oracle).run(&query)));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);

        for reader in readers {
            let observed = reader.join().expect("reader panicked");
            assert!(!observed.is_empty());
            let mut last_idx = 0usize;
            for bytes in observed {
                let idx = legal.iter().position(|l| l == &bytes).expect(
                    "reader saw a result matching no published cut's reference answer \
                     (a torn cross-shard read)",
                );
                assert!(idx >= last_idx, "reader went back in time: cut #{idx} after #{last_idx}");
                last_idx = idx;
            }
        }
    });
    assert_eq!(service.metrics().publishes, publishes);
    assert_eq!(service.current_version(), sharded.version());
}

/// Footprint-disjoint publishes (replicated ingest batches, each followed by an
/// annotation that some shard rejects before writing anything) land mid-flight while
/// readers keep a content query and an ontology query hot: no entry is ever
/// evicted, every publish is accounted partial, misses stay bounded by the initial
/// population, and every served answer stays byte-identical to the (unchanged)
/// reference.  A footprint-intersecting annotation afterwards still invalidates both
/// entries, and their re-runs displace them.
#[test]
fn shard_local_disjoint_publishes_evict_nothing_mid_flight() {
    fn ingest_batch<S: WriteSystem>(sys: &mut S, b: u64) {
        let mut batch = sys.batch();
        for i in 0..3 {
            batch.register_sequence(format!("ingest-{b}-{i}"), DataType::DnaSequence, 500, "chr2");
        }
        batch.commit();
    }
    /// Routed to the hash shard of an object nobody registered, which rejects it: a
    /// write attempt on that shard (its epoch moves) that dirties no component.
    fn rejected_annotation<S: WriteSystem>(sys: &mut S, term: ConceptId, b: u64) {
        let rejected = sys
            .annotate()
            .comment("protease motif rejected")
            .mark(ObjectId(u64::MAX - b), Marker::interval(0, 50))
            .cite_term(term)
            .commit();
        assert!(rejected.is_err());
    }
    fn late_annotation<S: WriteSystem>(sys: &mut S, term: ConceptId) {
        sys.annotate()
            .comment("protease motif late")
            .mark(ObjectId(0), Marker::interval(900_000, 900_050))
            .cite_term(term)
            .commit()
            .unwrap();
    }
    let shards = 4usize;
    let mut oracle = Graphitti::new();
    let mut sharded = ShardedSystem::new(shards);
    let term = seed_protease(&mut oracle, true).expect("cited");
    assert_eq!(seed_protease(&mut sharded, true), Some(term));

    let phrase_query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let term_query =
        Query::new(Target::AnnotationContents).with_ontology(OntologyFilter::CitesTerm(term));
    let expected_phrase = result_bytes(&ReferenceExecutor::new(&oracle).run(&phrase_query));
    let expected_term = result_bytes(&ReferenceExecutor::new(&oracle).run(&term_query));

    let service = Arc::new(ShardedQueryService::new(
        sharded.capture_cut(),
        ShardedServiceConfig::default().with_cache_capacity(16),
    ));
    let publishes = 10u64;
    let stop = AtomicBool::new(false);
    let observed: u64 = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..3usize {
            let service = Arc::clone(&service);
            let phrase_query = phrase_query.clone();
            let term_query = term_query.clone();
            let (expected_phrase, expected_term) = (&expected_phrase, &expected_term);
            let stop = &stop;
            readers.push(scope.spawn(move || {
                let mut count = 0u64;
                let mut i = r;
                // Both queries at least once: a fast writer may finish before this
                // thread is first scheduled, and the cache must hold both answers.
                while count < 2 || !stop.load(Ordering::Relaxed) {
                    let (q, expected) = if i % 2 == 0 {
                        (&phrase_query, expected_phrase)
                    } else {
                        (&term_query, expected_term)
                    };
                    assert_eq!(
                        &result_bytes(&service.run(q.clone()).unwrap()),
                        expected,
                        "ingest publishes must never change a served answer"
                    );
                    count += 1;
                    i += 1;
                }
                count
            }));
        }

        for b in 0..publishes {
            // Applied to the oracle too: registrations cannot change either answer
            // (a fresh object has no referents), but they keep the oracle's a-graph
            // node numbering aligned for the post-stream annotation comparison.
            ingest_batch(&mut oracle, b);
            ingest_batch(&mut sharded, b);
            rejected_annotation(&mut oracle, term, b);
            rejected_annotation(&mut sharded, term, b);
            service.publish(sharded.capture_cut()).unwrap();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("reader panicked")).sum()
    });

    let m = service.metrics();
    assert_eq!(m.publishes, publishes);
    assert_eq!(m.cache_entries_evicted, 0, "ingest publishes must evict nothing: {m:?}");
    assert_eq!(m.cache_partial_invalidations, publishes);
    assert_eq!(m.cache_full_invalidations, 0);
    assert_eq!(service.cache_len(), 2);
    // Each of the 3 readers waits for its one query in flight, so each can miss each
    // of the two keys at most once before the first insert lands.
    assert!(m.cache_misses <= 6, "publishes must not force re-execution: {m:?}");
    assert_eq!(m.cache_hits + m.cache_misses, observed);

    // A footprint-intersecting annotation commit still invalidates both entries:
    // each re-run misses, and its fresh answer displaces the stale entry.
    late_annotation(&mut oracle, term);
    late_annotation(&mut sharded, term);
    service.publish(sharded.capture_cut()).unwrap();
    let before = service.metrics();
    for q in [&phrase_query, &term_query] {
        assert_eq!(
            result_bytes(&service.run(q.clone()).unwrap()),
            result_bytes(&ReferenceExecutor::new(&oracle).run(q))
        );
    }
    let m = service.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (before.cache_hits, before.cache_misses + 2));
    assert_eq!(m.cache_entries_evicted, 2);
}
