//! Property tests for the WAL record format: encode/decode round-trips over
//! arbitrary op batches — to the same value and, the format being canonical, back to
//! the same bytes — for records and for the checkpoint of the state they build, and
//! the corruption contract — flipping any byte of a framed log is *detected* (the
//! scan stops at the damaged frame), never *misdecoded* (every surviving record is
//! byte-identical to the original).

use graphitti_core::ontology::ConceptId;
use graphitti_core::wal::{encode_frame, scan_frames, FRAME_HEADER};
use graphitti_core::{
    Checkpoint, DataType, DurabilityMode, DurableSystem, Graphitti, LogOp, LogReferent, Marker,
    MemStorage, ObjectId, ReferentId, WalRecord,
};
use proptest::prelude::*;

/// An arbitrary op, decoded from a handful of random bytes so the generator needs
/// no bespoke strategies for the nested content types.
fn arb_op() -> impl Strategy<Value = LogOp> {
    prop::collection::vec(any::<u8>(), 6..16).prop_map(|bytes| {
        let pick = |i: usize| bytes[i % bytes.len()] as u64;
        match bytes[0] % 3 {
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
                            LogReferent::New {
                                object: ObjectId(pick(5 + k) % 7),
                                marker: Marker::interval(start, start + 1 + pick(k) % 50),
                            }
                        }
                    })
                    .collect();
                let terms: Vec<ConceptId> = (0..bytes[2] % 3)
                    .map(|k| ConceptId((pick(k as usize + 3) % 11) as u32))
                    .collect();
                LogOp::Annotate {
                    content: xmlstore::DublinCore::new()
                        .field("description", format!("note {}", pick(5)))
                        .user_tag("curator", format!("u{}", pick(1) % 4)),
                    referents,
                    terms,
                }
            }
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
        prop_assert_eq!(&decoded, &record);
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
        let checkpoint = Checkpoint {
            version: system.version(),
            shards: 0,
            snapshot: system.system().study_snapshot(),
        };
        let blob = checkpoint.encode();
        let decoded = Checkpoint::decode(&blob).expect("valid blob decodes");
        prop_assert_eq!(&decoded, &checkpoint);
        prop_assert_eq!(decoded.encode(), blob);
        let rebuilt = Graphitti::from_study_snapshot(&decoded.snapshot).expect("replays");
        prop_assert_eq!(rebuilt.study_snapshot(), checkpoint.snapshot);
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
            prop_assert_eq!(&decoded, &records[i]);
        }
    }

    // A log assembled from raw frames (not via `WalRecord`) still scans cleanly and
    // preserves payload bytes — the framing layer is payload-agnostic.
    #[test]
    fn frame_layer_round_trips_arbitrary_payloads(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
    ) {
        let mut log = Vec::new();
        for payload in &payloads {
            log.extend_from_slice(&encode_frame(payload));
        }
        let scan = scan_frames(&log);
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.valid_len, log.len());
        prop_assert_eq!(&scan.payloads, &payloads);
        let framed_len: usize = payloads.iter().map(|p| FRAME_HEADER + p.len()).sum();
        prop_assert_eq!(framed_len, log.len());
    }
}
