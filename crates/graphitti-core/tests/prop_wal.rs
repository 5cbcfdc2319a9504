//! Property tests for the WAL record format: encode/decode round-trips over
//! arbitrary op batches — to the same value and, the format being canonical, back to
//! the same bytes — for records and for the checkpoint of the state they build; that
//! a checkpoint taken anywhere in an interleaved history recovers the live system,
//! a-graph ids included, with the zeros of a reserved log extent behind its tail or
//! not; and the corruption contract — flipping any byte of a framed
//! log is *detected* (the scan stops at the damaged frame), never *misdecoded* (every
//! surviving record is byte-identical to the original).

use graphitti_core::agraph::{EdgeId, NodeKind};
use graphitti_core::ontology::ConceptId;
use graphitti_core::relstore::Value;
use graphitti_core::spatial_index::Rect;
use graphitti_core::wal::{encode_frame, scan_frames, FRAME_HEADER, LOG_EXTENT};
use graphitti_core::{
    recover_unsharded, Checkpoint, CrashImage, DataType, DurabilityMode, DurableSystem,
    FaultStorage, Graphitti, LogOp, LogReferent, Marker, MemStorage, ObjectId, ReferentId,
    SystemView, WalRecord,
};
use proptest::prelude::*;

/// Every node (kind and key) and every edge (endpoints and label) of a system's
/// a-graph, in id order: equal texts are equal graphs, ids included.  A referent node
/// also prints its marker, read from the referent table its key points into.
fn graph_text(system: &SystemView) -> String {
    let (graph, mut text) = (system.agraph(), String::new());
    for id in graph.nodes() {
        let node = graph.node(id).expect("a listed node");
        text += &format!("{} {:?} {}", id.0, node.kind, node.key);
        if node.kind == NodeKind::Referent {
            let marker = system.referent(ReferentId(node.key)).map(|r| &r.marker);
            text += &format!(" {marker:?}");
        }
        text += "\n";
    }
    for id in (0..graph.edge_count() as u64).map(EdgeId) {
        let edge = graph.edge(id).expect("edges are never removed");
        text += &format!("{} -> {} {:?}\n", edge.from.0, edge.to.0, edge.label);
    }
    text
}

/// An arbitrary op, decoded from a handful of random bytes so the generator needs
/// no bespoke strategies for the nested content types.
fn arb_op() -> impl Strategy<Value = LogOp> {
    prop::collection::vec(any::<u8>(), 6..16).prop_map(|bytes| {
        let pick = |i: usize| bytes[i % bytes.len()] as u64;
        match bytes[0] % 4 {
            0 => {
                let data_type = match bytes[1] % 4 {
                    0 => DataType::DnaSequence,
                    1 => DataType::RnaSequence,
                    2 => DataType::ProteinSequence,
                    _ => DataType::MultipleAlignment,
                };
                LogOp::register_sequence(
                    format!("seq-{}", pick(2)),
                    data_type,
                    1 + pick(3) * 97,
                    format!("chr{}", pick(4) % 5),
                )
            }
            1 => {
                let referents = (0..1 + bytes[1] % 3)
                    .map(|k| {
                        let k = k as usize;
                        if bytes[(2 + k) % bytes.len()] % 4 == 0 {
                            LogReferent::Existing(ReferentId(pick(3 + k)))
                        } else {
                            let start = pick(4 + k) * 13;
                            let marker = match pick(6 + k) % 3 {
                                0 => Marker::interval(start, start + 1 + pick(k) % 50),
                                // Planar, or off the plane: `-0.0`, NaN or a real z.
                                z => {
                                    let x = start as f64;
                                    let z0 = [0.0, -0.0, f64::NAN, 2.0][pick(7 + k) as usize % 4];
                                    let z1 = if z == 1 { 0.0 } else { z0.abs() + 1.0 };
                                    Marker::Region(Rect {
                                        min: [x, 1.0, z0],
                                        max: [x + 8.0, 9.0, z1],
                                    })
                                }
                            };
                            LogReferent::New { object: ObjectId(pick(5 + k) % 7), marker }
                        }
                    })
                    .collect();
                let terms: Vec<ConceptId> = (0..bytes[2] % 3)
                    .map(|k| ConceptId((pick(k as usize + 3) % 11) as u32))
                    .collect();
                // A DCMES element, or a name that only looks like one.
                let element =
                    ["description", "title", "Title", "dc:title", ""][pick(4) as usize % 5];
                LogOp::Annotate {
                    content: xmlstore::DublinCore::new()
                        .field(element, format!("note {}", pick(5)))
                        .user_tag("curator", format!("u{}", pick(1) % 4)),
                    referents,
                    terms,
                }
            }
            2 => LogOp::Register {
                data_type: DataType::Image,
                name: format!("img-{}", pick(2)),
                metadata: vec![
                    Value::Int(512),
                    Value::Int(512),
                    Value::text("confocal"),
                    Value::text("cs25"),
                ],
                payload: vec![],
                domain: "cs25".into(),
            },
            _ => LogOp::DefineTerm { name: format!("term-{}", pick(2)) },
        }
    })
}

fn arb_record(version: u64) -> impl Strategy<Value = WalRecord> {
    prop::collection::vec(arb_op(), 1..5).prop_map(move |ops| WalRecord {
        version,
        dirty: graphitti_core::wal::batch_dirty(&ops).bits(),
        ops,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Encode → decode is the identity on records, through the same framed payload
    // bytes the log stores.
    #[test]
    fn record_round_trips(record in arb_record(1)) {
        let framed = record.encode();
        let scan = scan_frames(&framed);
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.payloads.len(), 1);
        let decoded = WalRecord::decode(&scan.payloads[0]).expect("valid frame decodes");
        // `NaN != NaN`: the values are compared as printed, and the bytes show `-0.0`.
        prop_assert_eq!(format!("{decoded:?}"), format!("{record:?}"));
        prop_assert_eq!(decoded.encode(), framed);
    }

    // The same for a checkpoint of whatever state a run of batches leaves behind,
    // rejected ops included — and replaying the checkpoint rebuilds exactly that
    // state, because a rejected op left nothing in it to renumber.
    #[test]
    fn checkpoint_round_trips(batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..5), 1..6)) {
        let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
        for ops in &batches {
            system.apply(ops).expect("apply");
        }
        let checkpoint = Checkpoint::capture(system.system(), system.version());
        let blob = checkpoint.encode();
        let decoded = Checkpoint::decode(&blob).expect("valid blob decodes");
        // `NaN != NaN`: the bytes are what show every coordinate survived.
        prop_assert_eq!(&decoded.order, &checkpoint.order);
        prop_assert_eq!(decoded.encode(), blob);
        let rebuilt = Graphitti::from_study_snapshot(&decoded.snapshot).expect("replays");
        prop_assert_eq!(rebuilt.study_snapshot(), system.system().study_snapshot());
    }

    // A checkpoint at every position of an interleaved history — registrations after
    // annotations, terms defined between them, rejected ops too — recovers the system
    // that wrote it: equal rows, the same a-graph node for node and edge
    // for edge, and checkpointing the recovered system writes the same bytes.
    #[test]
    fn a_checkpoint_anywhere_recovers_the_live_system(
        batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..7),
    ) {
        for at in 0..=batches.len() {
            let (storage, handle) = FaultStorage::reliable();
            let mut live = DurableSystem::create(Box::new(storage), DurabilityMode::Sync);
            for ops in &batches[..at] {
                live.apply(ops).expect("apply");
            }
            live.checkpoint().expect("checkpoint");
            let checkpoint = handle.image_now().checkpoint.expect("written");
            for ops in &batches[at..] {
                live.apply(ops).expect("apply");
            }
            let image = handle.image_now();
            let (recovered, report) =
                recover_unsharded(&MemStorage::from_image(image.clone())).expect("recovers");
            prop_assert_eq!(
                recovered.study_snapshot(),
                live.system().study_snapshot(),
                "checkpoint at {}",
                at
            );
            // The same image as a power cut leaves a `FileStorage` log, its reserved
            // extent reading as zeros, recovers the same.
            let log = [image.log, vec![0; LOG_EXTENT as usize]].concat();
            let holed = CrashImage { log, ..image };
            let (again, holed_report) =
                recover_unsharded(&MemStorage::from_image(holed)).expect("recovers");
            prop_assert_eq!(&holed_report, &report, "checkpoint at {}", at);
            prop_assert_eq!(again.study_snapshot(), recovered.study_snapshot(), "checkpoint at {}", at);
            prop_assert_eq!(
                graph_text(recovered.view()),
                graph_text(live.system().view()),
                "checkpoint at {}",
                at
            );
            let alone = MemStorage::from_image(CrashImage { log: vec![], checkpoint: Some(checkpoint.clone()) });
            let (again, _) = recover_unsharded(&alone).expect("recovers");
            prop_assert!(Checkpoint::capture(&again, at as u64).encode() == checkpoint, "checkpoint at {}", at);
        }
    }

    // Flip any single byte anywhere in a multi-record log: the scan must stop at the
    // damaged frame, every record it does return must be byte-identical to the
    // original at that position, and the damage must be flagged — corruption is
    // detected, never misdecoded into a different record.
    #[test]
    fn corruption_is_detected_never_misdecoded(
        records in prop::collection::vec(arb_op(), 2..6).prop_map(|ops| {
            ops.into_iter()
                .enumerate()
                .map(|(i, op)| WalRecord { version: i as u64 + 1, dirty: op.dirty().bits(), ops: vec![op] })
                .collect::<Vec<_>>()
        }),
        position in any::<u16>(),
        raw_xor in 0u8..255,
    ) {
        let xor = raw_xor + 1; // any non-zero flip mask
        let mut log = Vec::new();
        let mut frame_starts = Vec::new();
        for record in &records {
            frame_starts.push(log.len());
            log.extend_from_slice(&record.encode());
        }
        let flip_at = position as usize % log.len();
        log[flip_at] ^= xor;

        let scan = scan_frames(&log);
        // The frame containing the flipped byte must not survive the scan.
        let damaged_frame = frame_starts.iter().filter(|&&s| s <= flip_at).count() - 1;
        prop_assert_eq!(
            scan.payloads.len(),
            damaged_frame,
            "byte {} corrupts frame {}; the scan must keep exactly the frames before it",
            flip_at,
            damaged_frame
        );
        prop_assert!(scan.torn, "a flipped byte must mark the log torn");
        prop_assert_eq!(scan.valid_len, frame_starts[damaged_frame]);
        // Everything before the damage decodes to exactly the original records.
        for (i, payload) in scan.payloads.iter().enumerate() {
            let decoded = WalRecord::decode(payload).expect("undamaged frame decodes");
            prop_assert_eq!(format!("{decoded:?}"), format!("{:?}", records[i]));
        }
    }

    // A log assembled from raw frames (not via `WalRecord`) still scans cleanly and
    // preserves payload bytes — the framing layer is payload-agnostic — up to the
    // first empty payload: that frames to the all-zero header, the end of a log.
    #[test]
    fn frame_layer_round_trips_arbitrary_payloads(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
    ) {
        let mut log = Vec::new();
        for payload in &payloads {
            log.extend_from_slice(&encode_frame(payload));
        }
        let scan = scan_frames(&log);
        let kept = payloads.iter().take_while(|p| !p.is_empty()).count();
        prop_assert_eq!(&scan.payloads, &payloads[..kept].to_vec());
        let framed_len: usize = payloads[..kept].iter().map(|p| FRAME_HEADER + p.len()).sum();
        prop_assert_eq!(scan.valid_len, framed_len);
        // What follows the end is a tear only if a frame after it has a length.
        prop_assert_eq!(scan.torn, payloads[kept..].iter().any(|p| !p.is_empty()));
    }
}
