//! Randomized equivalence and isolation for the concurrent serving layer.
//!
//! 1. **Equivalence** — a [`QueryService`] must return results *byte-identical* to the
//!    single-threaded [`ReferenceExecutor`] on arbitrary queries over the `datagen`
//!    workloads, for any worker count, with the cache on or off, and with the
//!    parallel-verify fan-out forced on.  Results are compared both as structured
//!    values and as serialized bytes, so page ordering and subgraph contents cannot
//!    drift silently.
//! 2. **Snapshot isolation** — readers querying the service while a writer commits
//!    and publishes must each observe exactly one published epoch's answer, never a
//!    torn intermediate state.
//! 3. **Batched publishes** — a writer streaming [`CommitBatch`]es (many commits, one
//!    epoch bump and one publish per batch) interleaved with in-flight queries: every
//!    result a reader observes must be byte-identical to the [`ReferenceExecutor`]'s
//!    answer at one published epoch, epochs observed in non-decreasing order, and the
//!    cache invalidated once per batch — never once per commit.
//! 4. **Partial invalidation** — batches whose dirty set is disjoint from the read
//!    mix's footprints publish mid-flight: results stay byte-identical to the
//!    reference at a published epoch *and* the cache entries survive every such
//!    publish (zero evictions, bounded misses), while a footprint-intersecting batch
//!    still invalidates; plus a randomized invariant tying entry survival to per-component
//!    structural sharing (`Arc::ptr_eq`) between the pre-batch snapshot and the
//!    published view.
//! 5. **Long histories** — snapshots and 4-shard cuts captured at eight points across
//!    two hundred commits share chunks, postings and tree nodes with every later
//!    state; each must still answer a fixed query list byte-identically to what it
//!    answered at capture.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{object_domains, random_query};
use datagen::influenza::{self, InfluenzaConfig};
use datagen::neuro::{self, NeuroConfig};
use datagen::rng::WorkloadRng;
use graphitti_core::{DataType, Graphitti, Marker, ObjectId, ReferentId, ShardedSystem};
use graphitti_query::{
    Executor, GraphConstraint, OntologyFilter, Query, QueryResult, QueryService, ReferenceExecutor,
    ReferentFilter, ServiceConfig, ShardedExecutor, Target, Ticket,
};

/// Serialize a result to its canonical byte form (`QueryResult::to_json`) for byte-level
/// comparison.
fn result_bytes(result: &QueryResult) -> Vec<u8> {
    result.to_json().into_bytes()
}

/// Every service configuration under test: worker counts straddling the core count,
/// cache off and on.
fn service_configs() -> Vec<ServiceConfig> {
    vec![
        ServiceConfig::default().with_workers(1).with_cache_capacity(0),
        ServiceConfig::default().with_workers(2).with_cache_capacity(64),
        ServiceConfig::default().with_workers(4).with_cache_capacity(0),
        ServiceConfig::default().with_workers(8).with_cache_capacity(32),
    ]
}

fn assert_service_matches_reference(sys: &Graphitti, seed: u64, queries: usize) {
    let mut rng = WorkloadRng::new(seed);
    let domains = object_domains(sys);
    let reference = ReferenceExecutor::new(sys);

    // Draw the query set once, with the expected answer for each.
    let cases: Vec<(Query, QueryResult)> = (0..queries)
        .map(|_| {
            let q = random_query(&mut rng, sys, &domains);
            let expected = reference.run(&q);
            (q, expected)
        })
        .collect();

    for config in service_configs() {
        let label = format!("workers={} cache={}", config.workers, config.cache_capacity);
        let service = QueryService::new(sys.snapshot(), config);
        // Submit everything up front so queries genuinely overlap on the pool, then
        // redeem in order.  Submit each query twice when the cache is on, so hits are
        // exercised too.
        let tickets: Vec<(usize, Ticket)> = cases
            .iter()
            .enumerate()
            .flat_map(|(i, (q, _))| {
                [(i, service.submit(q.clone()).unwrap()), (i, service.submit(q.clone()).unwrap())]
            })
            .collect();
        for (i, ticket) in tickets {
            let got = ticket.wait().unwrap();
            let (q, expected) = &cases[i];
            assert_eq!(&got, expected, "[{label}] diverged on query #{i}: {q:#?}");
            assert_eq!(
                result_bytes(&got),
                result_bytes(expected),
                "[{label}] serialized bytes diverged on query #{i}"
            );
        }
    }
}

#[test]
fn influenza_service_matches_reference() {
    let sys = influenza::build(&InfluenzaConfig::small().with_annotations(300));
    assert_service_matches_reference(&sys, 0x5E41u64, 60);
}

#[test]
fn neuro_service_matches_reference() {
    let w = neuro::build(&NeuroConfig {
        seed: 7,
        images: 40,
        regions_per_image: 6,
        coordinate_systems: 3,
        dcn_prob: 0.4,
        tp53_prob: 0.25,
        canvas: 1_000.0,
    });
    assert_service_matches_reference(&w.system, 0x5E42u64, 60);
}

#[test]
fn empty_system_service_matches_reference() {
    let sys = Graphitti::new();
    assert_service_matches_reference(&sys, 0x5E43u64, 25);
}

/// Writer annotates and publishes mid-flight; concurrent readers must only ever see a
/// result belonging to one published epoch (no torn state, no partially applied
/// commit), and epochs must be observed in non-decreasing order per reader.
#[test]
fn readers_see_consistent_epochs_while_writer_publishes() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", graphitti_core::DataType::DnaSequence, 1_000_000, "chr1");
    for i in 0..10u64 {
        sys.annotate()
            .comment(format!("protease motif {i}"))
            .mark(seq, Marker::interval(i * 100, i * 100 + 50))
            .commit()
            .unwrap();
    }

    let query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let service = Arc::new(QueryService::new(
        sys.snapshot(),
        ServiceConfig::default().with_workers(3).with_cache_capacity(16),
    ));

    // The set of legal answers: one per published epoch.  Each publish appends one
    // matching annotation, so the answers are pairwise distinct and a torn read (a
    // result matching no published epoch) is detectable.
    let mut legal: Vec<QueryResult> = vec![Executor::new(&sys).run(&query)];
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
                    observed.push(service.run(query.clone()).unwrap());
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observed
            }));
        }

        for i in 0..publishes {
            sys.annotate()
                .comment(format!("protease motif late {i}"))
                .mark(seq, Marker::interval(500_000 + i * 100, 500_000 + i * 100 + 50))
                .commit()
                .unwrap();
            service.publish(sys.snapshot()).unwrap();
            legal.push(Executor::new(&sys).run(&query));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);

        let base_count = legal[0].annotations.len();
        for reader in readers {
            let observed = reader.join().expect("reader panicked");
            assert!(!observed.is_empty());
            let mut last_epoch_idx = 0usize;
            for result in observed {
                let idx = legal.iter().position(|l| l == &result).unwrap_or_else(|| {
                    panic!(
                        "reader saw a result matching no published epoch: {} annotations, \
                         legal counts are {base_count}..={}",
                        result.annotations.len(),
                        base_count + publishes as usize
                    )
                });
                // published state only ever moves forward, so must each reader's view
                assert!(
                    idx >= last_epoch_idx,
                    "reader went back in time: epoch #{idx} after #{last_epoch_idx}"
                );
                last_epoch_idx = idx;
            }
        }
    });

    assert_eq!(service.metrics().publishes, publishes);
    assert_eq!(service.current_version(), sys.epoch());
}

/// Writer streams `CommitBatch`es (one epoch bump + one publish per batch of several
/// commits) while readers keep queries in flight.  Gates, at every observed epoch:
/// results byte-identical to the `ReferenceExecutor`, epochs non-decreasing per
/// reader, and exactly one cache invalidation per published batch.
#[test]
fn batched_publishes_interleave_with_inflight_queries() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", graphitti_core::DataType::DnaSequence, 1_000_000, "chr1");
    for i in 0..10u64 {
        sys.annotate()
            .comment(format!("protease motif {i}"))
            .mark(seq, Marker::interval(i * 100, i * 100 + 50))
            .commit()
            .unwrap();
    }

    let query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let service = Arc::new(QueryService::new(
        sys.snapshot(),
        ServiceConfig::default().with_workers(3).with_cache_capacity(16),
    ));

    // Per published epoch, the reference answer in canonical bytes.  Every batch adds
    // exactly one matching annotation (plus non-matching noise), so the per-epoch
    // answers are pairwise distinct and both torn reads *and* mid-batch reads (a
    // coalesced epoch must never expose intermediate batch states) are detectable.
    let mut legal: Vec<Vec<u8>> = vec![result_bytes(&ReferenceExecutor::new(&sys).run(&query))];
    let batches = 10u64;
    let writes_per_batch = 6u64;

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

        for b in 0..batches {
            let epoch_before = sys.epoch();
            let mut batch = sys.batch();
            batch
                .annotate()
                .comment(format!("protease motif batched {b}"))
                .mark(seq, Marker::interval(500_000 + b * 100, 500_000 + b * 100 + 50))
                .commit()
                .unwrap();
            for i in 1..writes_per_batch {
                batch
                    .annotate()
                    .comment(format!("noise {b}-{i}"))
                    .mark(
                        seq,
                        Marker::interval(
                            700_000 + (b * 10 + i) * 70,
                            700_000 + (b * 10 + i) * 70 + 30,
                        ),
                    )
                    .commit()
                    .unwrap();
            }
            assert_eq!(batch.commit(), writes_per_batch);
            // the whole batch is one version...
            assert_eq!(sys.epoch(), epoch_before + 1);
            // ...published once
            service.publish(sys.snapshot()).unwrap();
            legal.push(result_bytes(&ReferenceExecutor::new(&sys).run(&query)));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);

        for reader in readers {
            let observed = reader.join().expect("reader panicked");
            assert!(!observed.is_empty());
            let mut last_epoch_idx = 0usize;
            for bytes in observed {
                let idx = legal
                    .iter()
                    .position(|l| l == &bytes)
                    .expect("reader saw a result matching no published epoch's reference answer");
                assert!(
                    idx >= last_epoch_idx,
                    "reader went back in time: epoch #{idx} after #{last_epoch_idx}"
                );
                last_epoch_idx = idx;
            }
        }
    });

    let m = service.metrics();
    assert_eq!(m.publishes, batches);
    // one invalidation per published batch — 60 commits must not cause 60 clears
    assert_eq!(m.cache_invalidations, batches);
    assert_eq!(service.current_version(), sys.epoch());
    // final state still serves byte-identical to the reference
    assert_eq!(
        result_bytes(&service.run(query.clone()).unwrap()),
        result_bytes(&ReferenceExecutor::new(&sys).run(&query))
    );
}

/// Footprint-disjoint (ingest-only) batches publish mid-flight while readers keep a
/// content query and an ontology query hot.  Registrations dirty no component either
/// footprint reads, so every observed result must stay byte-identical to the
/// reference answer (which such publishes cannot change), the cache entries must
/// survive every publish (zero evictions, misses bounded by the initial
/// key-population races), and each publish must be accounted a *partial*
/// invalidation.  A footprint-intersecting annotation commit afterwards must still
/// invalidate both entries, and their re-runs refresh them.
#[test]
fn footprint_disjoint_batches_preserve_entries_mid_flight() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", graphitti_core::DataType::DnaSequence, 1_000_000, "chr1");
    let term = sys.ontology_mut().add_concept("Motif");
    for i in 0..10u64 {
        sys.annotate()
            .comment(format!("protease motif {i}"))
            .mark(seq, Marker::interval(i * 100, i * 100 + 50))
            .cite_term(term)
            .commit()
            .unwrap();
    }

    let phrase_query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let term_query = Query::new(Target::AnnotationContents)
        .with_ontology(graphitti_query::OntologyFilter::CitesTerm(term));
    let workers = 3usize;
    let service = Arc::new(QueryService::new(
        sys.snapshot(),
        ServiceConfig::default().with_workers(workers).with_cache_capacity(16),
    ));

    // Ingest-only publishes cannot change either answer, so the legal set is a
    // single reference result per query for the whole run.
    let expected_phrase = result_bytes(&ReferenceExecutor::new(&sys).run(&phrase_query));
    let expected_term = result_bytes(&ReferenceExecutor::new(&sys).run(&term_query));

    let publishes = 12u64;
    let stop = AtomicBool::new(false);
    let observed: u64 = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..3 {
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
                        "ingest-only publishes must never change a served answer"
                    );
                    count += 1;
                    i += 1;
                }
                count
            }));
        }

        for b in 0..publishes {
            let mut batch = sys.batch();
            for i in 0..5 {
                batch.register_sequence(
                    format!("ingest-{b}-{i}"),
                    graphitti_core::DataType::DnaSequence,
                    500,
                    "chr2",
                );
            }
            batch.commit();
            service.publish(sys.snapshot()).unwrap();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("reader panicked")).sum()
    });

    let m = service.metrics();
    assert_eq!(m.publishes, publishes);
    // Entries with footprints disjoint from every published dirty set survived: no
    // publish evicted anything, and every publish was partial.
    assert_eq!(m.cache_entries_evicted, 0, "ingest-only publishes must evict nothing");
    assert_eq!(m.cache_partial_invalidations, publishes);
    assert_eq!(m.cache_full_invalidations, 0);
    assert_eq!(service.cache_len(), 2);
    // Misses are bounded by the initial population races (each of the `workers` pool
    // threads can at worst miss each of the two keys once before the first insert
    // lands) — publishes add none on top.
    assert!(m.cache_misses <= (workers as u64) * 2, "publishes must not force re-execution: {m:?}");
    assert_eq!(m.cache_hits + m.cache_misses, observed);

    // A footprint-intersecting commit still invalidates both entries: each re-run
    // misses, and its fresh answer displaces the stale entry.
    sys.annotate()
        .comment("protease motif late")
        .mark(seq, Marker::interval(900_000, 900_050))
        .commit()
        .unwrap();
    service.publish(sys.snapshot()).unwrap();
    let before = service.metrics();
    for q in [&phrase_query, &term_query] {
        assert_eq!(
            result_bytes(&service.run(q.clone()).unwrap()),
            result_bytes(&ReferenceExecutor::new(&sys).run(q))
        );
    }
    let m = service.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (before.cache_hits, before.cache_misses + 2));
    assert_eq!(m.cache_entries_evicted, 2);
    assert_eq!((m.cache_partial_invalidations, m.cache_full_invalidations), (publishes + 1, 0));
}

/// Snapshots and 4-shard cuts held across a long history.  Every commit after a
/// capture copies only the chunks, posting tails and tree paths it touches and leaves
/// the rest shared with the held state — so a held state that answered a query one
/// way at capture and another way two hundred commits later would mean a commit wrote
/// through storage it still shared.  Answers are compared as `to_json` bytes, result
/// page node ids included, and at capture also against the scan-everything reference
/// on the live system (so what is remembered is the right answer, on both stacks).
#[test]
fn states_held_across_a_long_history_keep_answering_as_captured() {
    const COMMITS: u64 = 200;
    const CAPTURES: u64 = 8;

    let mut sys = Graphitti::new();
    let mut sharded = ShardedSystem::new(4);
    let terms: Vec<_> =
        (0..4).map(|t| sys.ontology_mut().add_concept(format!("term-{t}"))).collect();
    sharded.ontology_edit(|o| {
        for t in 0..4 {
            o.add_concept(format!("term-{t}"));
        }
    });

    let everywhere = spatial_index::Rect::rect2(0.0, 0.0, 1_000.0, 1_000.0);
    let queries = [
        Query::new(Target::AnnotationContents).with_phrase("protease cleavage"),
        Query::new(Target::AnnotationContents).with_keywords(["motif", "late"]),
        Query::new(Target::AnnotationContents).with_ontology(OntologyFilter::CitesTerm(terms[1])),
        Query::new(Target::Referents).with_referent(ReferentFilter::OfType(DataType::Image)),
        Query::new(Target::Referents).with_referent(ReferentFilter::OnObject(ObjectId(0))),
        Query::new(Target::Referents).with_phrase("protease").with_referent(
            ReferentFilter::IntervalOverlaps {
                domain: Some("chr1".into()),
                interval: interval_index::Interval::new(0, 40_000),
            },
        ),
        Query::new(Target::ConnectionGraphs)
            .with_referent(ReferentFilter::RegionOverlaps { system: None, rect: everywhere }),
        Query::new(Target::ConnectionGraphs)
            .with_phrase("motif")
            .with_ontology(OntologyFilter::CitesTerm(terms[0]))
            .with_constraint(GraphConstraint::PathExists { max_len: 4 }),
    ];

    // One batch per commit, applied identically to both systems: every fifth commit
    // registers an object; each commit annotates one object with one or two fresh
    // marks, a third of them also attaching to an existing referent of that object
    // (so old a-graph chunks and old postings get edited, not just tails appended).
    let mut rng = WorkloadRng::new(2008);
    let mut objects: Vec<(ObjectId, bool)> = Vec::new();
    let mut referents: Vec<(ReferentId, ObjectId)> = Vec::new();
    let mut held = Vec::new();
    for commit in 0..COMMITS {
        let mut batch = sys.batch();
        let mut sharded_batch = sharded.batch();
        if commit % 5 == 0 {
            let name = format!("object-{commit}");
            let is_image = commit % 15 == 10;
            let (a, b) = if is_image {
                (
                    batch.register_image(name.clone(), 1_000, 1_000, "mri", "atlas"),
                    sharded_batch.register_image(name, 1_000, 1_000, "mri", "atlas"),
                )
            } else {
                let chromosome = format!("chr{}", commit % 2);
                (
                    batch.register_sequence(
                        name.clone(),
                        DataType::DnaSequence,
                        100_000,
                        chromosome.clone(),
                    ),
                    sharded_batch.register_sequence(
                        name,
                        DataType::DnaSequence,
                        100_000,
                        chromosome,
                    ),
                )
            };
            assert_eq!(a, b);
            objects.push((a, is_image));
        }
        let (object, is_image) = *rng.choose(&objects);
        let comment = match rng.range_u64(0, 3) {
            0 => format!("protease cleavage motif {commit}"),
            1 => format!("late motif note {commit}"),
            _ => format!("quiet stretch {commit}"),
        };
        let mut builder = batch.annotate().comment(comment.clone());
        let mut sharded_builder = sharded_batch.annotate().comment(comment);
        for _ in 0..rng.range_u64(1, 3) {
            let at = rng.range_u64(0, 900);
            let marker = if is_image {
                Marker::region(at as f64, at as f64, at as f64 + 30.0, at as f64 + 30.0)
            } else {
                Marker::interval(at * 100, at * 100 + 60)
            };
            builder = builder.mark(object, marker.clone());
            sharded_builder = sharded_builder.mark(object, marker);
        }
        let reusable: Vec<ReferentId> =
            referents.iter().filter(|(_, o)| *o == object).map(|(r, _)| *r).collect();
        if rng.chance(0.33) && !reusable.is_empty() {
            let reused = *rng.choose(&reusable);
            builder = builder.mark_existing(reused);
            sharded_builder = sharded_builder.mark_existing(reused);
        }
        if rng.chance(0.5) {
            let term = *rng.choose(&terms);
            builder = builder.cite_term(term);
            sharded_builder = sharded_builder.cite_term(term);
        }
        let aid = builder.commit().unwrap();
        assert_eq!(sharded_builder.commit().unwrap(), aid);
        batch.commit();
        sharded_batch.commit();
        for &rid in sys.annotation(aid).unwrap().referents.iter() {
            if !referents.iter().any(|(r, _)| *r == rid) {
                referents.push((rid, object));
            }
        }

        if (commit + 1) % (COMMITS / CAPTURES) == 0 {
            let (snapshot, cut) = (sys.snapshot(), sharded.capture_cut());
            let answers: Vec<String> = queries
                .iter()
                .map(|q| {
                    let answer = ReferenceExecutor::new(&sys).run(q).to_json();
                    assert_eq!(Executor::new(&snapshot).run(q).to_json(), answer);
                    assert_eq!(ShardedExecutor::new(&cut).run(q).to_json(), answer);
                    answer
                })
                .collect();
            held.push((snapshot, cut, answers));
        }
    }
    assert_eq!(held.len() as u64, CAPTURES);
    assert!(sys.verify_integrity().is_empty() && sharded.verify_integrity().is_empty());

    let mut distinct = std::collections::HashSet::new();
    for (at, (snapshot, cut, answers)) in held.iter().enumerate() {
        assert!(snapshot.verify_integrity().is_empty(), "capture {at} lost integrity");
        for (q, then) in queries.iter().zip(answers) {
            assert_eq!(
                &Executor::new(snapshot).run(q).to_json(),
                then,
                "snapshot {at} answers {q:?} differently than at capture"
            );
            assert_eq!(
                &ShardedExecutor::new(cut).run(q).to_json(),
                then,
                "cut {at} answers {q:?} differently than at capture"
            );
        }
        distinct.insert(answers.clone());
    }
    // The history moved every answer set: the captures are eight different states.
    assert_eq!(distinct.len() as u64, CAPTURES);
}

mod partial_invalidation_props {
    use super::*;
    use graphitti_core::{Component, ComponentSet, DataType};
    use graphitti_query::Plan;
    use proptest::prelude::*;

    /// The four batch kinds the randomized schedule draws from (sampled as `0..4`
    /// — the proptest shim has no enum strategies).
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Ingest,
        Ontology,
        Annotate,
        /// An annotation rejected before it writes anything.
        Rejected,
    }

    impl Kind {
        fn from_index(i: u8) -> Kind {
            match i % 4 {
                0 => Kind::Ingest,
                1 => Kind::Ontology,
                2 => Kind::Annotate,
                _ => Kind::Rejected,
            }
        }
    }

    /// The invariant body (a plain function so the `proptest!` macro stays thin):
    /// for any schedule of homogeneous batches, an entry survives a publish iff its
    /// footprint is disjoint from the batch's dirty set (observed via miss metrics
    /// on a single-worker service), served results always match the reference, and
    /// every footprint component of a *surviving* entry is `Arc::ptr_eq`-shared
    /// between the pre-batch snapshot and the published view.
    fn check(extra: u64, kinds: &[Kind]) {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 1_000_000, "chr1");
        let term = sys.ontology_mut().add_concept("Motif");
        for i in 0..(3 + extra) {
            sys.annotate()
                .comment(format!("protease motif {i}"))
                .mark(seq, Marker::interval(i * 100, i * 100 + 50))
                .cite_term(term)
                .commit()
                .unwrap();
        }

        let phrase_query = Query::new(Target::AnnotationContents).with_phrase("protease motif");
        let term_query = Query::new(Target::AnnotationContents)
            .with_ontology(graphitti_query::OntologyFilter::CitesTerm(term));
        // Object footprint: the one an ingest batch does evict.
        let type_query = Query::new(Target::Referents)
            .with_referent(graphitti_query::ReferentFilter::OfType(DataType::DnaSequence));
        let cases = [&phrase_query, &term_query, &type_query];
        let footprints: Vec<ComponentSet> =
            cases.iter().map(|q| Plan::read_footprint(&q.canonicalize())).collect();

        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(8),
        );
        for q in cases {
            service.run(q.clone()).unwrap(); // populate one entry per query
        }

        let mut annotations = 0u64;
        for (b, kind) in kinds.iter().enumerate() {
            let before = sys.snapshot();
            let mut batch = sys.batch();
            match kind {
                Kind::Ingest => {
                    for i in 0..3 {
                        batch.register_sequence(
                            format!("ingest-{b}-{i}"),
                            DataType::DnaSequence,
                            500,
                            "chr2",
                        );
                    }
                }
                Kind::Ontology => {
                    batch.ontology_mut().add_concept(format!("term-{b}"));
                }
                Kind::Annotate => {
                    batch
                        .annotate()
                        .comment(format!("protease motif batch {b}"))
                        .mark(
                            seq,
                            Marker::interval(
                                500_000 + annotations * 100,
                                500_000 + annotations * 100 + 50,
                            ),
                        )
                        .cite_term(term)
                        .commit()
                        .unwrap();
                    annotations += 1;
                }
                Kind::Rejected => {
                    let rejected = batch
                        .annotate()
                        .comment("protease motif rejected")
                        .mark(ObjectId(u64::MAX), Marker::interval(0, 50))
                        .cite_term(term)
                        .commit();
                    prop_assert!(rejected.is_err());
                }
            }
            batch.commit();
            let evicted_before = service.metrics().cache_entries_evicted;
            service.publish(sys.snapshot()).unwrap();
            let published = sys.snapshot();
            let dirty = published.changed_components(&before);
            prop_assert_eq!(
                dirty.is_empty(),
                matches!(kind, Kind::Rejected),
                "every batch kind but the rejected one writes something"
            );
            prop_assert_eq!(
                service.metrics().cache_entries_evicted,
                evicted_before,
                "a publish evicts nothing"
            );

            for (q, fp) in cases.iter().zip(&footprints) {
                let survives = (*fp & dirty).is_empty();
                let misses_before = service.metrics().cache_misses;
                let got = service.run((*q).clone()).unwrap();
                let was_hit = service.metrics().cache_misses == misses_before;
                prop_assert_eq!(
                    was_hit,
                    survives,
                    "entry survival must equal footprint disjointness (dirty {:?}, fp {:?})",
                    dirty,
                    fp
                );
                // Served bytes always match the reference on the published state.
                prop_assert_eq!(
                    result_bytes(&got),
                    result_bytes(&ReferenceExecutor::new(&sys).run(q))
                );
                if survives {
                    // The entry's whole read footprint is structurally shared
                    // between the pre-batch snapshot and the published view — the
                    // proof the cached answer is still reading identical state.
                    for c in Component::ALL.into_iter().filter(|&c| fp.contains(c)) {
                        prop_assert!(
                            published.view().shares_component(before.view(), c),
                            "surviving entry's footprint component {:?} not shared",
                            c
                        );
                    }
                }
            }
            // Every case was cached before the publish, so once each has re-run the
            // eviction count is exact: each case whose footprint meets the dirty set
            // missed, and its fresh answer displaced its stale entry — an ingest
            // batch the `OfType` entry alone, an ontology batch the term entry alone,
            // an annotation batch all three, a rejected one none.
            let stale = footprints.iter().filter(|fp| !(**fp & dirty).is_empty()).count() as u64;
            prop_assert_eq!(
                service.metrics().cache_entries_evicted - evicted_before,
                stale,
                "{:?} batch, dirty {:?}",
                kind,
                dirty
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn surviving_entries_share_their_footprint_components(
            extra in 0u64..8,
            kind_indices in prop::collection::vec(0u8..4, 1..8),
        ) {
            let kinds: Vec<Kind> = kind_indices.iter().map(|&i| Kind::from_index(i)).collect();
            check(extra, &kinds);
        }
    }
}
