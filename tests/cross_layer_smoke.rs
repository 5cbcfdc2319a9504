//! Cross-layer smoke: one small study through every tier of the stack, on both
//! serving stacks.
//!
//! Batched writes → write-ahead log and a checkpoint → the process "dies" → recovery
//! from the surviving bytes (binary-codec frames, checked) → query service → one more
//! commit, published → TCP front door → DSL text over a client connection, each query
//! twice (executed, then answered from the result cache by the connection's reader
//! thread) → answers byte-compared with the scan-everything reference executor, on the
//! recovered system and on one that never crashed.
//! The same history runs once unsharded behind the worker pool and once on 4 shards
//! behind the scatter-gather service.  Query text the parser must refuse comes back
//! as a typed error on a connection that goes on serving, and the wire books balance.  Each tier has its own battery in its own
//! crate; this test only proves they still compose, so that the root `cargo test`
//! crosses all of them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphitti::core::wal::FRAME_HEADER;
use graphitti::core::{
    codec, recover_sharded, recover_unsharded, CrashImage, DataType, DurabilityMode,
    DurableShardedSystem, DurableSystem, FaultStorage, LogOp, LogReferent, Marker, MemStorage,
    ObjectId, WriteSystem,
};
use graphitti::net::{Backend, Client, NetError, NetServer, ServerConfig, WireBudget};
use graphitti::onto::ConceptId;
use graphitti::query::{
    parse_query, QueryService, ReferenceExecutor, ServiceConfig, ShardedQueryService,
    ShardedServiceConfig,
};
use graphitti::xml::DublinCore;

/// Annotation `step`: a fresh interval on object `step % 2`; every third mentions
/// protease, and the ones on object 0 cite `term`.
fn annotate(step: u64, term: ConceptId) -> LogOp {
    let note = if step.is_multiple_of(3) { "protease cleavage motif" } else { "quiet stretch" };
    LogOp::Annotate {
        content: DublinCore::new()
            .field("title", format!("site {step}"))
            .field("description", format!("{note} {step}")),
        referents: vec![LogReferent::New {
            object: ObjectId(step % 2),
            marker: Marker::interval(step * 40, step * 40 + 25),
        }],
        terms: if step.is_multiple_of(2) { vec![term] } else { Vec::new() },
    }
}

/// What survived the "crash" is a log tail and a checkpoint, and both are frames of
/// the binary codec: the payload behind each header leads with the format byte (so
/// not with JSON's `{`).
fn assert_binary_frames(image: &CrashImage) {
    let checkpoint = image.checkpoint.as_deref().expect("a checkpoint was written");
    for (what, bytes) in [("log", image.log.as_slice()), ("checkpoint", checkpoint)] {
        let lead = bytes.get(FRAME_HEADER).copied();
        assert_eq!(
            lead,
            Some(codec::FORMAT),
            "{what} payload leads with {lead:02x?} (JSON would lead with 7b)"
        );
    }
}

const LATE_COMMENT: &str = "protease cleavage motif, committed after recovery";

/// One commit after recovery, through the write surface both systems share.
fn annotate_late<S: WriteSystem>(system: &mut S, term: ConceptId) {
    system
        .annotate()
        .comment(LATE_COMMENT)
        .mark(ObjectId(0), Marker::interval(100, 125))
        .cite_term(term)
        .commit()
        .unwrap();
}

/// The same commit as the op a system that never crashed would have logged.
fn late_annotation(term: ConceptId) -> LogOp {
    LogOp::Annotate {
        content: DublinCore::new().description(LATE_COMMENT),
        referents: vec![LogReferent::New {
            object: ObjectId(0),
            marker: Marker::interval(100, 125),
        }],
        terms: vec![term],
    }
}

#[test]
fn write_crash_recover_serve_and_query_over_loopback() {
    // Three batches; both legs checkpoint after the second, so recovery has both a
    // checkpoint to decode and a log tail to replay.
    let term = ConceptId(0); // the first concept an empty ontology defines
    let history: Vec<Vec<LogOp>> = vec![
        vec![
            LogOp::register_sequence("seg-a", DataType::DnaSequence, 4_000, "chr-flu"),
            LogOp::register_sequence("seg-b", DataType::ProteinSequence, 4_000, "chr-flu"),
            LogOp::DefineTerm { name: "CleavageSite".into() },
        ],
        (0..12).map(|step| annotate(step, term)).collect(),
        (12..24).map(|step| annotate(step, term)).collect(),
    ];

    // Unsharded: write, "die", recover from the bytes that reached storage.
    let (storage, disk) = FaultStorage::reliable();
    let mut durable =
        DurableSystem::create(Box::new(storage), DurabilityMode::Sync).with_checkpoint_every(2);
    for ops in &history {
        durable.apply(ops).unwrap();
    }
    drop(durable);
    assert_binary_frames(&disk.image_now());
    let (mut recovered, report) =
        recover_unsharded(&MemStorage::from_image(disk.image_now())).unwrap();
    assert_eq!(report.recovered_version, 3);
    assert_eq!((report.checkpoint_version, report.replayed_records), (2, 1));
    assert_eq!(recovered.annotation_count(), 24);
    assert_eq!(recovered.ontology().concept_name(term), Some("CleavageSite"));

    // The same history on 4 shards.
    let (storage, disk) = FaultStorage::reliable();
    let mut durable = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, 4)
        .with_checkpoint_every(2);
    for ops in &history {
        durable.apply(ops).unwrap();
    }
    drop(durable);
    assert_binary_frames(&disk.image_now());
    let (mut sharded, report) =
        recover_sharded(&MemStorage::from_image(disk.image_now()), 4).unwrap();
    assert_eq!(report.recovered_version, 3);
    assert_eq!((report.checkpoint_version, report.replayed_records), (2, 1));
    assert_eq!((sharded.shard_count(), sharded.annotation_count()), (4, 24));

    // Serve each recovered state, then commit once more and publish: what the
    // services answer from below was installed by `publish`, not by a constructor.
    let pool = QueryService::new(recovered.snapshot(), ServiceConfig::default().with_workers(2));
    let scatter = ShardedQueryService::new(sharded.capture_cut(), ShardedServiceConfig::default());
    annotate_late(&mut recovered, term);
    annotate_late(&mut sharded, term);
    pool.publish(recovered.snapshot()).unwrap();
    scatter.publish(sharded.capture_cut()).unwrap();

    // Over loopback, compared with the reference on the unsharded replay.  Every
    // query runs twice: the first is executed, the second is a result-cache hit —
    // which the connection's reader thread answers itself.
    let reference = ReferenceExecutor::new(&recovered);
    // ... which in turn answers exactly as a system that never crashed.
    let mut uncrashed = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    for ops in &history {
        uncrashed.apply(ops).unwrap();
    }
    uncrashed.apply(&[late_annotation(term)]).unwrap();
    let never_crashed = ReferenceExecutor::new(uncrashed.system());
    let queries = [
        r#"SELECT contents WHERE content contains "protease cleavage""#.to_string(),
        format!("SELECT referents WHERE ontology term {} AND referent type dna", term.0),
        format!(
            "SELECT graphs WHERE content keywords protease AND ontology term {} \
             AND referent interval chr-flu 0 500 AND constraint path 3",
            term.0
        ),
    ];
    // Text whose numbers a substrate constructor would panic on (an inverted or NaN
    // box) or truncate (a concept id past u32).
    let refused = [
        "SELECT graphs WHERE referent region s 10 0 0 0",
        "SELECT graphs WHERE referent region s NaN 0 1 1",
        "SELECT graphs WHERE constraint regions 2 s 5 5 1 1",
        "SELECT graphs WHERE ontology term 4294967296",
    ];
    for backend in [Backend::Pool(Arc::new(pool)), Backend::Sharded(Arc::new(scatter))] {
        let mut server = NetServer::bind("127.0.0.1:0", backend, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for text in &queries {
            let expected = reference.run(&parse_query(text).unwrap());
            let live = never_crashed.run(&parse_query(text).unwrap());
            assert_eq!(expected.to_json(), live.to_json(), "recovered vs never crashed: {text}");
            assert!(!expected.objects.is_empty(), "vacuous smoke query: {text}");
            for pass in ["executed", "cached"] {
                let served = client.query(text, &WireBudget::unbounded()).unwrap();
                assert_eq!(served.to_json(), expected.to_json(), "{pass}: {text}");
            }
        }
        for text in refused {
            match client.query(text, &WireBudget::unbounded()) {
                Err(NetError::BadQuery(_)) => {}
                other => panic!("{text}: expected a typed BadQuery, got {other:?}"),
            }
        }
        let expected = reference.run(&parse_query(&queries[0]).unwrap());
        let served = client.query(&queries[0], &WireBudget::unbounded()).unwrap();
        assert_eq!(served.to_json(), expected.to_json(), "after the refusals");
        drop(client);
        // A response is accounted after it is written: read the books once the
        // connection has retired, when its last response is accounted too.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.live_connections() > 0 {
            assert!(Instant::now() < deadline, "the connection never retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (wire, service) = (server.metrics(), server.backend_metrics());
        assert_eq!((service.cache_misses, service.cache_hits), (3, 4));
        assert_eq!(wire.failed, refused.len() as u64, "{wire:?}");
        assert_eq!(wire.shed + wire.completed + wire.failed, wire.submitted, "{wire:?}");
        assert!(wire.served_inline >= 3, "the hits never crossed to the writer thread: {wire:?}");
        server.shutdown();
    }
}
