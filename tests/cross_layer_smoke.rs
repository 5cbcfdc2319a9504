//! Cross-layer smoke: one small study through every tier of the stack.
//!
//! Batched writes → write-ahead log and a checkpoint → the process "dies" → recovery
//! from the surviving bytes → worker-pool service → TCP front door → DSL text over a
//! client connection → answers byte-compared with the scan-everything reference
//! executor.  Each tier has its own battery in its own crate; this test only proves
//! they still compose, so that the root `cargo test` crosses all of them.

use std::sync::Arc;

use graphitti::core::{
    recover_unsharded, DataType, DurabilityMode, DurableSystem, FaultStorage, LogOp, LogReferent,
    Marker, MemStorage, ObjectId,
};
use graphitti::net::{Backend, Client, NetServer, ServerConfig, WireBudget};
use graphitti::onto::ConceptId;
use graphitti::query::{parse_query, QueryService, ReferenceExecutor, ServiceConfig};
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

#[test]
fn write_crash_recover_serve_and_query_over_loopback() {
    // Build: three batches through the durable write path, checkpointing after the
    // second so recovery has both a checkpoint to decode and a log tail to replay.
    let (storage, disk) = FaultStorage::reliable();
    let mut durable =
        DurableSystem::create(Box::new(storage), DurabilityMode::Sync).with_checkpoint_every(2);
    durable
        .apply(&[
            LogOp::register_sequence("seg-a", DataType::DnaSequence, 4_000, "chr-flu"),
            LogOp::register_sequence("seg-b", DataType::ProteinSequence, 4_000, "chr-flu"),
            LogOp::DefineTerm { name: "CleavageSite".into() },
        ])
        .unwrap();
    let term = durable.system().ontology().concept_by_name("CleavageSite").unwrap();
    for batch in 0..2u64 {
        let ops: Vec<LogOp> =
            (batch * 12..batch * 12 + 12).map(|step| annotate(step, term)).collect();
        durable.apply(&ops).unwrap();
    }
    let written = durable.version();
    drop(durable);

    // Recover from the bytes that reached storage, and nothing else.
    let (recovered, report) = recover_unsharded(&MemStorage::from_image(disk.image_now())).unwrap();
    assert_eq!(report.recovered_version, written);
    assert_eq!((report.checkpoint_version, report.replayed_records), (2, 1));
    assert_eq!(recovered.annotation_count(), 24);

    // Serve the recovered state over loopback and compare with the reference.
    let service = QueryService::new(recovered.snapshot(), ServiceConfig::default().with_workers(2));
    let mut server =
        NetServer::bind("127.0.0.1:0", Backend::Pool(Arc::new(service)), ServerConfig::default())
            .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reference = ReferenceExecutor::new(&recovered);
    for text in [
        r#"SELECT contents WHERE content contains "protease cleavage""#.to_string(),
        format!("SELECT referents WHERE ontology term {} AND referent type dna", term.0),
        format!(
            "SELECT graphs WHERE content keywords protease AND ontology term {} \
             AND referent interval chr-flu 0 500 AND constraint path 3",
            term.0
        ),
    ] {
        let served = client.query(&text, &WireBudget::unbounded()).unwrap();
        let expected = reference.run(&parse_query(&text).unwrap());
        assert!(!expected.objects.is_empty(), "vacuous smoke query: {text}");
        assert_eq!(served.to_json(), expected.to_json(), "{text}");
    }
    drop(client);
    server.shutdown();
}
