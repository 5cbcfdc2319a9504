//! The crash-point fault-injection battery for the durability subsystem.
//!
//! Each scenario runs a deterministic op schedule through a durable system whose
//! storage is a [`FaultStorage`] planned to fail at one enumerated [`CrashPoint`]
//! (mid-record truncation, in-place corruption, a lying fsync, or a power cut
//! between checkpoint and log truncation).  The frozen [`CrashImage`] — exactly the
//! bytes a power cut would leave behind — is then recovered, and the battery
//! asserts the durability contract:
//!
//! * **Prefix.**  The recovered state is the state after the first `v` published
//!   batches for a known `v`: never torn mid-batch, never reordered, never a guess.
//! * **Byte identity.**  Random queries against the recovered system (unsharded via
//!   [`ReferenceExecutor`], sharded via [`ShardedExecutor`] over a captured cut)
//!   answer byte-for-byte like a reference oracle that applied the first `v` batches
//!   from genesis, with no log and no checkpoint: a checkpoint records the order its
//!   objects and annotations were created in, so recovery is the identity on every
//!   id, a-graph node and edge ids included.
//! * **Cut invariants.**  A recovered [`ShardedSystem`] passes `verify_integrity`,
//!   and its captured [`ShardCut`] agrees with the oracle on every global count.
//!
//! Every crash image is recovered a second time with the zeros of a reserved log
//! extent behind its surviving bytes, as a power cut leaves a `FileStorage` log, and
//! must land on the same report and state.
//!
//! The file also carries the checkpoint round-trip suite (checkpoint + empty tail
//! is byte-identical; checkpoint + tail equals a full-log replay), the sweep that
//! checkpoints an interleaved history at every position and holds recovery to the
//! live system's a-graph, and the bounded `crash_matrix_quick` subset the CI
//! workflow gates on.

mod common;

use common::{object_domains, random_query};
use datagen::rng::WorkloadRng;
use graphitti_core::agraph::{EdgeId, NodeKind};
use graphitti_core::ontology::ConceptId;
use graphitti_core::wal::LOG_EXTENT;
use graphitti_core::xmlstore::DublinCore;
use graphitti_core::{
    recover_sharded, recover_unsharded, AnnotationId, Checkpoint, CrashImage, CrashPoint, DataType,
    DurabilityMode, Durable, DurableShardedSystem, DurableSystem, Entity, FaultHandle,
    FaultStorage, Graphitti, LogOp, LogReferent, Marker, MemStorage, ObjectId, RecoveryReport,
    ReferentId, ShardedSystem, StudySnapshot, WalRecord, WalStorage, WriteSystem,
};
use graphitti_query::{CollateView, QueryResult, ReferenceExecutor, ShardedExecutor};

fn result_bytes(result: &QueryResult) -> Vec<u8> {
    result.to_json().into_bytes()
}

/// A deterministic schedule of published batches: registers, new-mark annotations,
/// single-referent reuse (which routes identically sharded and unsharded), and
/// ontology curation.  The same schedule drives the doomed run, the recovery
/// oracle, and every shard count.
fn schedule(seed: u64, batches: usize) -> Vec<Vec<LogOp>> {
    let mut rng = WorkloadRng::new(seed);
    let mut objects = 0u64;
    let mut referents = 0u64;
    let mut terms = 0u64;
    let mut out = Vec::with_capacity(batches);
    for step in 0..batches {
        let mut ops = Vec::new();
        if step == 0 {
            // Guarantee an object and a term so every later op kind has a target.
            ops.push(LogOp::register_sequence("seed-seq", DataType::DnaSequence, 2_000, "chr0"));
            objects += 1;
            ops.push(LogOp::DefineTerm { name: "seed-term".into() });
            terms += 1;
        }
        for k in 0..1 + rng.range_u64(0, 3) {
            match rng.range_u64(0, 8) {
                0 => {
                    ops.push(LogOp::register_sequence(
                        format!("seq-{step}-{k}"),
                        DataType::DnaSequence,
                        2_000,
                        format!("chr{}", rng.range_u64(0, 3)),
                    ));
                    objects += 1;
                }
                1 if referents > 0 => {
                    ops.push(LogOp::Annotate {
                        content: DublinCore::new()
                            .field("description", format!("reuse note {step}-{k}")),
                        referents: vec![LogReferent::Existing(ReferentId(
                            rng.range_u64(0, referents),
                        ))],
                        terms: vec![],
                    });
                }
                2 => {
                    ops.push(LogOp::DefineTerm { name: format!("term-{step}-{k}") });
                    terms += 1;
                }
                _ => {
                    let start = rng.range_u64(0, 1_500);
                    let cite = rng.chance(0.4);
                    ops.push(LogOp::Annotate {
                        content: DublinCore::new()
                            .field("description", format!("protease observation {step}-{k}"))
                            .user_tag("curator", format!("u{}", rng.range_u64(0, 3))),
                        referents: vec![LogReferent::New {
                            object: ObjectId(rng.range_u64(0, objects)),
                            marker: Marker::interval(start, start + 5 + rng.range_u64(0, 60)),
                        }],
                        terms: if cite {
                            vec![
                                graphitti_core::ontology::ConceptId(rng.range_u64(0, terms) as u32),
                            ]
                        } else {
                            vec![]
                        },
                    });
                    referents += 1;
                }
            }
        }
        out.push(ops);
    }
    out
}

/// One crash-point scenario: the fault plan, the checkpoint cadence of the doomed
/// run, and the exact logical version recovery must land on.
struct Scenario {
    name: &'static str,
    plan: CrashPoint,
    checkpoint_every: u64,
    expected_version: u64,
    expect_torn: bool,
}

/// The full matrix over an 8-batch schedule: every crash-point kind, with and
/// without checkpoints in flight.
fn full_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "torn append mid-record",
            plan: CrashPoint::TornAppend { record: 5, keep: 21 },
            checkpoint_every: 0,
            expected_version: 5,
            expect_torn: true,
        },
        Scenario {
            name: "torn append after a checkpoint",
            plan: CrashPoint::TornAppend { record: 4, keep: 33 },
            checkpoint_every: 3,
            expected_version: 4,
            expect_torn: true,
        },
        Scenario {
            name: "corrupted record",
            plan: CrashPoint::CorruptRecord { record: 3, offset: 17, xor: 0x40 },
            checkpoint_every: 0,
            expected_version: 3,
            expect_torn: true,
        },
        Scenario {
            name: "corrupted record after a checkpoint",
            plan: CrashPoint::CorruptRecord { record: 6, offset: 5, xor: 0x81 },
            checkpoint_every: 4,
            expected_version: 6,
            expect_torn: true,
        },
        Scenario {
            name: "lost fsync",
            plan: CrashPoint::LostSync { sync: 6 },
            checkpoint_every: 0,
            expected_version: 6,
            expect_torn: false,
        },
        Scenario {
            name: "lost fsync after a checkpoint",
            plan: CrashPoint::LostSync { sync: 4 },
            checkpoint_every: 3,
            expected_version: 3,
            expect_torn: false,
        },
        Scenario {
            name: "crash between checkpoint and truncation",
            plan: CrashPoint::CheckpointNoTruncate { checkpoint: 1 },
            checkpoint_every: 3,
            expected_version: 6,
            expect_torn: false,
        },
    ]
}

/// Drive the schedule into a doomed unsharded system and return what survives.
fn doomed_unsharded(plan: CrashPoint, checkpoint_every: u64, batches: &[Vec<LogOp>]) -> CrashImage {
    let (storage, handle) = FaultStorage::with_plan(plan);
    let mut sys = DurableSystem::create(Box::new(storage), DurabilityMode::Sync)
        .with_checkpoint_every(checkpoint_every);
    for ops in batches {
        sys.apply(ops).expect("apply never errors on fault storage");
    }
    handle.crash_image().expect("the planned crash point must trigger")
}

/// Drive the schedule into a doomed sharded system and return what survives.
fn doomed_sharded(
    plan: CrashPoint,
    checkpoint_every: u64,
    batches: &[Vec<LogOp>],
    shards: usize,
) -> CrashImage {
    let (storage, handle) = FaultStorage::with_plan(plan);
    let mut sys = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, shards)
        .with_checkpoint_every(checkpoint_every);
    for ops in batches {
        sys.apply(ops).expect("apply never errors on fault storage");
    }
    handle.crash_image().expect("the planned crash point must trigger")
}

/// The semantic oracle: a fresh unsharded system with the first `version` batches
/// applied through the identical replay path (no logging, no checkpoint).
fn oracle_at(batches: &[Vec<LogOp>], version: u64) -> DurableSystem {
    let mut oracle = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    for ops in &batches[..version as usize] {
        oracle.apply(ops).expect("oracle replay");
    }
    oracle
}

/// Recover `image` as it is and again as a power cut leaves a `FileStorage` log — the
/// extent reserved past the surviving bytes reading as zeros — and hold the two to the
/// same report (version, valid length, torn flag) and the same state.
fn assert_the_hole_changes_nothing<S>(
    image: &CrashImage,
    recover: impl Fn(&dyn WalStorage) -> graphitti_core::Result<(S, RecoveryReport)>,
    state: impl Fn(&S) -> StudySnapshot,
    what: &str,
) {
    let holed = CrashImage {
        log: [image.log.as_slice(), &[0; LOG_EXTENT as usize]].concat(),
        checkpoint: image.checkpoint.clone(),
    };
    let (bare, report) = recover(&MemStorage::from_image(image.clone())).expect("recover");
    let (again, holed_report) = recover(&MemStorage::from_image(holed)).expect("recover holed");
    assert_eq!(holed_report, report, "{what}: the hole moved the report");
    assert_eq!(state(&again), state(&bare), "{what}: the hole moved the state");
}

fn unsharded_hole_changes_nothing(image: &CrashImage, what: &str) {
    assert_the_hole_changes_nothing(image, recover_unsharded, Graphitti::study_snapshot, what);
}

fn sharded_hole_changes_nothing(image: &CrashImage, shards: usize, what: &str) {
    assert_the_hole_changes_nothing(
        image,
        |storage| recover_sharded(storage, shards),
        ShardedSystem::study_snapshot,
        what,
    );
}

/// Recover an unsharded crash image and hold it to the contract.
fn verify_unsharded(scenario: &Scenario, batches: &[Vec<LogOp>], queries: usize) {
    let image = doomed_unsharded(scenario.plan, scenario.checkpoint_every, batches);
    unsharded_hole_changes_nothing(&image, scenario.name);
    let (mut recovered, report) =
        DurableSystem::open(Box::new(MemStorage::from_image(image)), DurabilityMode::Sync)
            .expect("recovery succeeds");
    assert_eq!(
        report.recovered_version, scenario.expected_version,
        "{}: recovered version (report {report:?})",
        scenario.name
    );
    assert_eq!(report.torn_tail, scenario.expect_torn, "{}: torn flag", scenario.name);
    assert_eq!(recovered.version(), report.recovered_version);

    let genesis = oracle_at(batches, report.recovered_version);
    assert_eq!(
        recovered.system().study_snapshot(),
        genesis.system().study_snapshot(),
        "{}: recovered state must equal the published prefix",
        scenario.name
    );

    let reference = ReferenceExecutor::new(genesis.system());
    let replayed = ReferenceExecutor::new(recovered.system());
    let domains = object_domains(genesis.system());
    let mut rng = WorkloadRng::new(0xBEEF ^ scenario.expected_version);
    for i in 0..queries {
        let q = random_query(&mut rng, genesis.system(), &domains);
        assert_eq!(
            result_bytes(&replayed.run(&q)),
            result_bytes(&reference.run(&q)),
            "{}: query {i} diverged from the oracle",
            scenario.name
        );
    }

    // The recovered system keeps accepting and logging new batches.
    let next = recovered.apply(&batches[0]).expect("post-recovery apply");
    assert_eq!(next, report.recovered_version + 1, "{}", scenario.name);
}

/// Recover a sharded crash image and hold it to the contract (including the
/// collation mirror and the captured cut's invariants).
fn verify_sharded(scenario: &Scenario, batches: &[Vec<LogOp>], shards: usize, queries: usize) {
    let image = doomed_sharded(scenario.plan, scenario.checkpoint_every, batches, shards);
    sharded_hole_changes_nothing(&image, shards, &format!("{} @ {shards} shards", scenario.name));
    let (mut recovered, report) = DurableShardedSystem::open(
        Box::new(MemStorage::from_image(image)),
        DurabilityMode::Sync,
        shards,
    )
    .expect("recovery succeeds");
    assert_eq!(
        report.recovered_version, scenario.expected_version,
        "{} @ {shards} shards: recovered version (report {report:?})",
        scenario.name
    );
    assert_eq!(report.torn_tail, scenario.expect_torn, "{} @ {shards} shards", scenario.name);
    assert_eq!(recovered.system().shard_count(), shards);

    // Every shard and the collation mirror landed on the same consistent state as
    // the unsharded oracle at the recovered version.
    let genesis = oracle_at(batches, report.recovered_version);
    assert_eq!(
        recovered.system().study_snapshot(),
        genesis.system().study_snapshot(),
        "{} @ {shards} shards: recovered state must equal the published prefix",
        scenario.name
    );
    let problems = recovered.system().verify_integrity();
    assert!(problems.is_empty(), "{} @ {shards} shards: {problems:?}", scenario.name);

    // ShardCut invariants: the captured cut is whole and agrees with the oracle on
    // every global count.
    let cut = recovered.system().capture_cut();
    assert_eq!(cut.shard_count(), shards);
    assert_eq!(cut.object_count(), genesis.system().object_count());
    assert_eq!(cut.annotation_count(), genesis.system().annotation_count());
    assert_eq!(cut.referent_count(), genesis.system().referent_count());
    assert!(cut.same_cut(&recovered.system().capture_cut()), "quiescent recapture differs");

    let reference = ReferenceExecutor::new(genesis.system());
    let domains = object_domains(genesis.system());
    let mut rng = WorkloadRng::new(0xFACE ^ scenario.expected_version ^ shards as u64);
    for i in 0..queries {
        let q = random_query(&mut rng, genesis.system(), &domains);
        assert_eq!(
            result_bytes(&ShardedExecutor::new(&cut).run(&q)),
            result_bytes(&reference.run(&q)),
            "{} @ {shards} shards: query {i} diverged from the oracle",
            scenario.name
        );
    }

    // The recovered sharded system keeps accepting and logging new batches.
    let next = recovered.apply(&batches[0]).expect("post-recovery apply");
    assert_eq!(next, report.recovered_version + 1, "{} @ {shards} shards", scenario.name);
}

/// The full matrix: every crash point × unsharded + shards {1, 2, 4}.
#[test]
fn crash_matrix_full() {
    let batches = schedule(0xD00D, 8);
    for scenario in full_scenarios() {
        verify_unsharded(&scenario, &batches, 6);
        for shards in [1, 2, 4] {
            verify_sharded(&scenario, &batches, shards, 6);
        }
    }
}

/// The bounded CI gate: one scenario per crash-point kind, shards {1, 4}.
#[test]
fn crash_matrix_quick() {
    let batches = schedule(0xC1, 6);
    let scenarios = vec![
        Scenario {
            name: "quick torn append",
            plan: CrashPoint::TornAppend { record: 3, keep: 17 },
            checkpoint_every: 0,
            expected_version: 3,
            expect_torn: true,
        },
        Scenario {
            name: "quick corrupted record",
            plan: CrashPoint::CorruptRecord { record: 2, offset: 11, xor: 0x20 },
            checkpoint_every: 0,
            expected_version: 2,
            expect_torn: true,
        },
        Scenario {
            name: "quick lost fsync",
            plan: CrashPoint::LostSync { sync: 4 },
            checkpoint_every: 0,
            expected_version: 4,
            expect_torn: false,
        },
        Scenario {
            name: "quick checkpoint without truncation",
            plan: CrashPoint::CheckpointNoTruncate { checkpoint: 0 },
            checkpoint_every: 3,
            expected_version: 3,
            expect_torn: false,
        },
    ];
    for scenario in scenarios {
        for shards in [1, 4] {
            verify_sharded(&scenario, &batches, shards, 3);
        }
    }
}

/// Randomized crash positions: truncate each record at pseudo-random byte offsets
/// and corrupt pseudo-random bytes; recovery must always land exactly on the
/// published prefix before the damaged record.
#[test]
fn randomized_crash_positions_always_recover_a_prefix() {
    let batches = schedule(0x5EED, 6);
    let mut rng = WorkloadRng::new(0x0FF5E7);
    for case in 0..24u64 {
        let record = rng.range_u64(0, batches.len() as u64);
        let torn = rng.chance(0.5);
        // A torn append keeps `keep` modulo the frame's length: a multiple of it
        // keeps nothing, and the log ends cleanly one frame early.
        let frame =
            WalRecord { version: record + 1, dirty: 0, ops: batches[record as usize].clone() };
        let mut cut_cleanly = false;
        let plan = if torn {
            let keep = rng.range_usize(1, 64);
            cut_cleanly = keep.is_multiple_of(frame.encode().len());
            CrashPoint::TornAppend { record, keep }
        } else {
            CrashPoint::CorruptRecord {
                record,
                offset: rng.range_usize(0, 4_096),
                xor: 1 + rng.range_u64(0, 255) as u8,
            }
        };
        let scenario = Scenario {
            name: if torn { "random torn" } else { "random corrupt" },
            plan,
            checkpoint_every: 0,
            expected_version: record,
            expect_torn: !cut_cleanly,
        };
        let shards = [1usize, 2, 4][case as usize % 3];
        verify_sharded(&scenario, &batches, shards, 2);
    }
}

/// Checkpoint + empty tail recovers byte-identically, at shards {1, 4}.
#[test]
fn checkpoint_with_empty_tail_round_trips() {
    let batches = schedule(0xCAFE, 6);
    for shards in [1usize, 4] {
        let (storage, handle) = FaultStorage::reliable();
        let mut sys = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, shards);
        for ops in &batches {
            sys.apply(ops).expect("apply");
        }
        sys.checkpoint().expect("checkpoint");
        let image = handle.image_now();
        assert!(image.log.is_empty(), "checkpoint must truncate the log");

        let (recovered, report) = DurableShardedSystem::open(
            Box::new(MemStorage::from_image(image)),
            DurabilityMode::Sync,
            shards,
        )
        .expect("recover");
        assert_eq!(report.checkpoint_version, batches.len() as u64);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.recovered_version, batches.len() as u64);
        assert_eq!(
            recovered.system().study_snapshot(),
            sys.system().study_snapshot(),
            "{shards} shards: checkpoint round-trip must be byte-identical"
        );
        assert!(recovered.system().verify_integrity().is_empty());
    }
}

/// Checkpoint + non-empty tail equals a full-log replay, at shards {1, 4}.
#[test]
fn checkpoint_plus_tail_equals_full_log_replay() {
    let batches = schedule(0xF00D, 9);
    for shards in [1usize, 4] {
        let (storage, handle) = FaultStorage::reliable();
        let mut sys = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, shards);
        for ops in &batches[..6] {
            sys.apply(ops).expect("apply");
        }
        sys.checkpoint().expect("checkpoint");
        for ops in &batches[6..] {
            sys.apply(ops).expect("apply");
        }
        let image = handle.image_now();
        assert!(!image.log.is_empty(), "the tail must be on disk");

        let (recovered, report) = DurableShardedSystem::open(
            Box::new(MemStorage::from_image(image)),
            DurabilityMode::Sync,
            shards,
        )
        .expect("recover");
        assert_eq!(report.checkpoint_version, 6);
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.recovered_version, 9);

        // Equal to the same schedule replayed from an empty log, no checkpoint.
        let mut full =
            DurableShardedSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off, shards);
        for ops in &batches {
            full.apply(ops).expect("full replay");
        }
        assert_eq!(
            recovered.system().study_snapshot(),
            full.system().study_snapshot(),
            "{shards} shards: checkpoint+tail must equal the full-log replay"
        );
        assert_eq!(
            recovered.system().study_snapshot(),
            sys.system().study_snapshot(),
            "{shards} shards: and both must equal the live system"
        );
    }
}

/// Every node (kind and key) and every edge (endpoints and label) of a view's a-graph,
/// in id order: equal texts are equal graphs, ids included.  A referent node also
/// prints its marker, read from the referent table its key points into.
fn graph_text(view: &impl CollateView) -> String {
    let (graph, mut text) = (view.agraph(), String::new());
    for id in graph.nodes() {
        let node = graph.node(id).expect("a listed node");
        text += &format!("{} {:?} {}", id.0, node.kind, node.key);
        if node.kind == NodeKind::Referent {
            text += &format!(" {:?}", view.referent_marker(ReferentId(node.key)));
        }
        text += "\n";
    }
    for id in (0..graph.edge_count() as u64).map(EdgeId) {
        let edge = graph.edge(id).expect("edges are never removed");
        text += &format!("{} -> {} {:?}\n", edge.from.0, edge.to.0, edge.label);
    }
    text
}

/// Every a-graph node's `(kind, key)` names an entity whose own node map leads back
/// to the node — what lets page building carry each gathered node's entity instead of
/// decoding the node again.
fn assert_keys_are_entities(view: &impl CollateView, what: &str) {
    let graph = view.agraph();
    assert!(graph.node_count() > 0, "{what}: an empty graph proves nothing");
    for id in graph.nodes() {
        let node = graph.node(id).expect("a listed node");
        let (entity, back) = match node.kind {
            NodeKind::Content => {
                let a = AnnotationId(node.key);
                (Entity::Annotation(a), view.annotation_node(a))
            }
            NodeKind::Referent => {
                let r = ReferentId(node.key);
                (Entity::Referent(r), view.referent_node(r))
            }
            NodeKind::OntologyTerm => {
                let c = ConceptId(u32::try_from(node.key).expect("a concept id"));
                (Entity::Term(c), view.term_node(c))
            }
            NodeKind::Object => {
                let o = ObjectId(node.key);
                (Entity::Object(o), view.object_node(o))
            }
        };
        assert_eq!(back, Some(id), "{what}: {entity:?}'s node");
    }
}

#[test]
fn every_node_key_is_its_entity_live_sharded_and_recovered() {
    let history = interleaved_history(0x4B, 6);
    let (storage, handle) = FaultStorage::reliable();
    let mut live = DurableSystem::create(Box::new(storage), DurabilityMode::Sync);
    let image = checkpointed_at(&mut live, &handle, &history, 3);
    assert_keys_are_entities(live.system().view(), "live");
    let (recovered, _) = recover_unsharded(&MemStorage::from_image(image)).expect("recover");
    assert_keys_are_entities(recovered.view(), "recovered");

    let (storage, handle) = FaultStorage::reliable();
    let mut live = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, 4);
    let image = checkpointed_at(&mut live, &handle, &history, 3);
    assert_keys_are_entities(&live.system().capture_cut(), "live mirror");
    let (recovered, _) =
        recover_sharded(&MemStorage::from_image(image), 4).expect("recover sharded");
    assert_keys_are_entities(&recovered.capture_cut(), "recovered mirror");
    for shard in 0..4 {
        assert_keys_are_entities(recovered.shard(shard).view(), &format!("shard {shard}"));
    }
}

/// A history that interleaves every kind of write: registrations after
/// annotations, ontology edits between them, and every other batch ending in a
/// registration, an annotation that marks the object it just registered, and a
/// term definition.
fn interleaved_history(seed: u64, batches: usize) -> Vec<Vec<LogOp>> {
    let mut history = schedule(seed, batches);
    let mut objects = 0u64;
    for (k, ops) in history.iter_mut().enumerate() {
        objects += ops.iter().filter(|op| matches!(op, LogOp::Register { .. })).count() as u64;
        if k % 2 == 1 {
            ops.push(LogOp::register_sequence(
                format!("late-{k}"),
                DataType::DnaSequence,
                900,
                "chr9",
            ));
            ops.push(LogOp::Annotate {
                content: DublinCore::new().title(format!("late mark {k}")),
                referents: vec![LogReferent::New {
                    object: ObjectId(objects),
                    marker: Marker::interval(10, 90),
                }],
                terms: vec![],
            });
            ops.push(LogOp::DefineTerm { name: format!("late-term-{k}") });
            objects += 1;
        }
    }
    history
}

/// Checkpoint `history` after every prefix, unsharded and on each of `shard_counts`,
/// and hold every recovery to the live system that wrote it: equal rows, the same
/// a-graph node for node and edge for edge (the mirror's and every shard's),
/// byte-identical query answers, and checkpoint → recover → checkpoint a fixed point.
fn checkpoint_at_every_position(history: &[Vec<LogOp>], shard_counts: &[usize], queries: usize) {
    let mut rng = WorkloadRng::new(history.len() as u64);
    for at in 0..=history.len() {
        // Unsharded.
        let (storage, handle) = FaultStorage::reliable();
        let mut live = DurableSystem::create(Box::new(storage), DurabilityMode::Sync);
        let image = checkpointed_at(&mut live, &handle, history, at);
        unsharded_hole_changes_nothing(&image, &format!("checkpoint at {at}"));
        let (recovered, report) = DurableSystem::open(
            Box::new(MemStorage::from_image(image.clone())),
            DurabilityMode::Off,
        )
        .expect("recover");
        assert_eq!(report.checkpoint_version, at as u64);
        let (live, recovered) = (live.system(), recovered.system());
        assert!(live.creation_order().len() >= 4, "registrations follow annotations");
        assert_eq!(recovered.study_snapshot(), live.study_snapshot(), "checkpoint at {at}");
        assert_eq!(graph_text(recovered.view()), graph_text(live.view()), "checkpoint at {at}");
        let (reference, replayed) =
            (ReferenceExecutor::new(live), ReferenceExecutor::new(recovered));
        let domains = object_domains(live);
        for i in 0..queries {
            let q = random_query(&mut rng, live, &domains);
            let (want, got) = (result_bytes(&reference.run(&q)), result_bytes(&replayed.run(&q)));
            assert_eq!(got, want, "checkpoint at {at}: query {i}");
        }
        assert_fixed_point(&image, |storage| {
            let (system, report) = recover_unsharded(storage).expect("recover");
            Checkpoint::capture(&system, report.recovered_version).encode()
        });

        // Sharded: the mirror and every shard renumber nothing either.
        for &shards in shard_counts {
            let (storage, handle) = FaultStorage::reliable();
            let mut live =
                DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, shards);
            let image = checkpointed_at(&mut live, &handle, history, at);
            let what = format!("checkpoint at {at} on {shards} shards");
            sharded_hole_changes_nothing(&image, shards, &what);
            let (recovered, _) = DurableShardedSystem::open(
                Box::new(MemStorage::from_image(image.clone())),
                DurabilityMode::Off,
                shards,
            )
            .expect("recover sharded");
            let (live, recovered) = (live.system(), recovered.system());
            assert_eq!(recovered.study_snapshot(), live.study_snapshot(), "{what}");
            let (got, want) = (recovered.capture_cut(), live.capture_cut());
            assert_eq!(graph_text(&got), graph_text(&want), "{what}");
            for shard in 0..shards {
                let (got, want) = (recovered.shard(shard).view(), live.shard(shard).view());
                assert_eq!(graph_text(got), graph_text(want), "{what}: shard {shard}");
            }
            assert!(recovered.verify_integrity().is_empty(), "{what}");
            assert_fixed_point(&image, |storage| {
                let (system, report) = recover_sharded(storage, shards).expect("recover sharded");
                Checkpoint::capture(&system, report.recovered_version).encode()
            });
        }
    }
}

/// Apply `history` to `live`, checkpointing after its first `at` batches, and return
/// what its storage then holds.
fn checkpointed_at<S: WriteSystem>(
    live: &mut Durable<S>,
    handle: &FaultHandle,
    history: &[Vec<LogOp>],
    at: usize,
) -> CrashImage {
    let (before, after) = history.split_at(at);
    for ops in before {
        live.apply(ops).expect("apply");
    }
    live.checkpoint().expect("checkpoint");
    for ops in after {
        live.apply(ops).expect("apply");
    }
    handle.image_now()
}

/// Recover the checkpoint `image` holds, with an empty log, and checkpoint again:
/// the bytes must be the checkpoint's own.
fn assert_fixed_point(image: &CrashImage, recover_and_checkpoint: impl Fn(&MemStorage) -> Vec<u8>) {
    let blob = image.checkpoint.clone().expect("a checkpoint was written");
    let alone =
        MemStorage::from_image(CrashImage { log: Vec::new(), checkpoint: Some(blob.clone()) });
    assert!(recover_and_checkpoint(&alone) == blob, "checkpoint → recover → checkpoint moved");
}

/// The tier-1 form: one interleaved history, a checkpoint at each of its positions.
#[test]
fn a_checkpoint_anywhere_in_an_interleaved_history_recovers_the_live_system() {
    checkpoint_at_every_position(&interleaved_history(0x1D, 6), &[4], 2);
}

/// The long form: more and longer histories, at shards {1, 2, 4}; CI runs it in
/// release.
#[test]
#[ignore = "the long form of the checkpoint-position sweep; CI runs it in release"]
fn a_checkpoint_anywhere_in_an_interleaved_history_recovers_the_live_system_long() {
    for seed in 0..12 {
        checkpoint_at_every_position(&interleaved_history(0x1D00 + seed, 20), &[1, 2, 4], 6);
    }
}
