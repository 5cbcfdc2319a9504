//! Crash recovery: replay checkpoint-then-tail to a consistent published state.
//!
//! Recovery reads a [`WalStorage`] left behind by a crash and rebuilds the system to
//! the **longest durable prefix of published batches**:
//!
//! 1. **Checkpoint.**  If the checkpoint slot holds a CRC-valid [`Checkpoint`], its
//!    [`StudySnapshot`](crate::StudySnapshot) is replayed into an empty system
//!    (as `from_study_snapshot` does, moving the decoded rows in rather than copying
//!    them) and sets the base logical version.  An empty
//!    slot means genesis (version 0); a *corrupt* slot — a bad CRC, a payload of
//!    another format, one that does not decode, or a study whose indices or markers
//!    do not hold up — is an error: the log alone cannot reproduce state the
//!    checkpoint truncated away, so guessing would violate the prefix guarantee.
//! 2. **Tail.**  The log is scanned frame by frame ([`scan_frames`]): a torn header,
//!    short payload, or CRC mismatch ends the scan — everything before it is
//!    trusted, everything from it on is discarded (a CRC-valid frame whose payload
//!    the one binary codec, [`crate::codec`], refuses counts as torn).  An all-zero
//!    header ends it cleanly: that is how the space a log reserves past its last
//!    record reads after a power cut.  Each
//!    surviving [`WalRecord`] is replayed as **one batch** if and only if its version
//!    is the next expected one; records at or below the checkpoint version are
//!    skipped (the crash-between-checkpoint-and-truncation case), and a version gap
//!    or regression ends replay (a record after lost data must not be applied out of
//!    order).
//!
//! The result is exactly the state at some version `v` ≤ the last published version:
//! never torn (CRC), never reordered (the version chain), and — because replay runs
//! through the normal batch/router paths — satisfying every in-memory invariant,
//! including the `ShardCut` consistency contract for sharded systems.  The
//! crash-point battery in `graphitti-query/tests/crash_recovery.rs` asserts this
//! byte-for-byte against a [`ReferenceExecutor`] oracle replayed to `v`.
//!
//! One generic `recover` does both steps for any [`WriteSystem`];
//! [`recover_unsharded`] and [`recover_sharded`] only choose the empty system the
//! durable state is replayed into.

use crate::study::replay_study;
use crate::system::Graphitti;
use crate::wal::{apply_batch, scan_frames, Checkpoint, WalRecord, WalStorage, FRAME_HEADER};
use crate::write::WriteSystem;
use crate::{CoreError, Result, ShardedSystem};

/// What a recovery did: where it started, how much tail it replayed, and where it
/// landed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Version of the checkpoint the base state came from (0 = genesis, no
    /// checkpoint).
    pub checkpoint_version: u64,
    /// Tail records actually replayed (skipped already-checkpointed records do not
    /// count).
    pub replayed_records: usize,
    /// The logical version the recovered system is at.
    pub recovered_version: u64,
    /// Bytes of the log occupied by valid frames — the repair truncation point a
    /// reopened log continues appending from.
    pub valid_log_len: usize,
    /// Whether the log ended in a torn or corrupt frame (dropped by the scan).
    pub torn_tail: bool,
}

/// Recover any [`WriteSystem`] to the longest consistent durable prefix: replay the
/// checkpoint's snapshot into the system `empty` builds for the checkpoint's shard
/// tag (`None` without a checkpoint), then the record tail frame by frame, one batch
/// per record, enforcing the version chain.  `valid_log_len` is summed from the frames
/// as they sit on disk; the codec is canonical, so a re-encoding of what was trusted
/// would occupy exactly those bytes.
fn recover<S: WriteSystem>(
    storage: &dyn WalStorage,
    empty: impl FnOnce(Option<usize>) -> Result<S>,
) -> Result<(S, RecoveryReport)> {
    let checkpoint = match storage
        .read_checkpoint()
        .map_err(|e| CoreError::Durability(format!("cannot read checkpoint: {e}")))?
    {
        Some(bytes) if !bytes.is_empty() => Some(Checkpoint::decode(&bytes)?),
        _ => None,
    };
    let log =
        storage.read_log().map_err(|e| CoreError::Durability(format!("cannot read log: {e}")))?;
    let (mut system, base) = match checkpoint {
        Some(Checkpoint { version, shards, snapshot }) => {
            let mut system = empty(Some(shards))?;
            replay_study(&mut system, snapshot)?;
            (system, version)
        }
        None => (empty(None)?, 0),
    };
    let scan = scan_frames(&log);
    let mut report = RecoveryReport {
        checkpoint_version: base,
        recovered_version: base,
        torn_tail: scan.torn,
        ..RecoveryReport::default()
    };
    for payload in &scan.payloads {
        // A frame whose CRC matched but whose payload does not parse as a record is
        // treated exactly like a torn tail: trust the prefix, drop the rest.
        let Ok(record) = WalRecord::decode(payload) else {
            report.torn_tail = true;
            break;
        };
        // At or below the base: already captured by the checkpoint (crash before
        // truncation) — skipped, but still part of the valid prefix.
        if record.version > base {
            if record.version != report.recovered_version + 1 {
                // A gap or regression: data between the checkpoint and this record
                // was lost, so nothing from here on may be applied.
                report.torn_tail = true;
                break;
            }
            apply_batch(&mut system, record.ops);
            report.recovered_version = record.version;
            report.replayed_records += 1;
        }
        report.valid_log_len += FRAME_HEADER + payload.len();
    }
    Ok((system, report))
}

/// Recover an unsharded [`Graphitti`] to the longest consistent durable prefix.
pub fn recover_unsharded(storage: &dyn WalStorage) -> Result<(Graphitti, RecoveryReport)> {
    recover(storage, |checkpoint_shards| match checkpoint_shards {
        Some(shards) if shards != 0 => Err(CoreError::Durability(format!(
            "checkpoint was written by a {shards}-shard system; recover it sharded"
        ))),
        _ => Ok(Graphitti::new()),
    })
}

/// Recover a [`ShardedSystem`] — every shard *and* the id maps — to the
/// longest consistent durable prefix.  The shard count comes from the checkpoint;
/// `default_shards` applies to a checkpoint-less log.
pub fn recover_sharded(
    storage: &dyn WalStorage,
    default_shards: usize,
) -> Result<(ShardedSystem, RecoveryReport)> {
    recover(storage, |checkpoint_shards| match checkpoint_shards {
        Some(0) => Err(CoreError::Durability(
            "checkpoint was written by an unsharded system; recover it unsharded".into(),
        )),
        Some(shards) => Ok(ShardedSystem::new(shards)),
        None => Ok(ShardedSystem::new(default_shards.max(1))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::wal::{
        encode_frame, DurabilityMode, Durable, DurableShardedSystem, DurableSystem, FaultStorage,
        LogOp, LogReferent, MemStorage,
    };
    use crate::{AnnotationId, Marker, ObjectId, ReferentId};

    fn batch_ops(step: u64) -> Vec<LogOp> {
        vec![
            LogOp::register_sequence(format!("seq-{step}"), DataType::DnaSequence, 2_000, "chr1"),
            LogOp::Annotate {
                content: xmlstore::DublinCore::new().field("description", format!("note {step}")),
                referents: vec![LogReferent::New {
                    object: ObjectId(step),
                    marker: Marker::interval(step * 10, step * 10 + 5),
                }],
                terms: vec![],
            },
        ]
    }

    #[test]
    fn fresh_storage_recovers_to_genesis() {
        let storage = MemStorage::new();
        let (system, report) = recover_unsharded(&storage).expect("recover");
        assert_eq!(system.object_count(), 0);
        assert_eq!(report, RecoveryReport::default());
        let (sharded, report) = recover_sharded(&storage, 4).expect("recover");
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(report.recovered_version, 0);
    }

    #[test]
    fn log_only_recovery_replays_every_batch() {
        let mut storage = MemStorage::new();
        let mut expected = Graphitti::new();
        for step in 0..5u64 {
            let ops = batch_ops(step);
            let record = crate::wal::WalRecord {
                version: step + 1,
                dirty: crate::wal::batch_dirty(&ops).bits(),
                ops: ops.clone(),
            };
            storage.append(&record.encode()).expect("append");
            apply_batch(&mut expected, ops.clone());
        }
        let (recovered, report) = recover_unsharded(&storage).expect("recover");
        assert_eq!(report.replayed_records, 5);
        assert_eq!(report.recovered_version, 5);
        assert!(!report.torn_tail);
        assert_eq!(recovered.study_snapshot(), expected.study_snapshot());
    }

    #[test]
    fn version_gap_ends_replay() {
        let mut storage = MemStorage::new();
        for version in [1u64, 2, 4] {
            let ops = batch_ops(version);
            let record = crate::wal::WalRecord { version, dirty: 0, ops };
            storage.append(&record.encode()).expect("append");
        }
        let (_, report) = recover_unsharded(&storage).expect("recover");
        assert_eq!(report.recovered_version, 2, "the gap at version 3 must end replay");
        assert_eq!(report.replayed_records, 2);
        assert!(report.torn_tail);
    }

    #[test]
    fn valid_log_len_is_the_byte_offset_of_the_first_untrusted_frame() {
        // Record 4 skips a version: the repair point is the gap frame's byte offset.
        // It is summed from the frames on disk, and because the format is canonical
        // — a payload that decodes is the payload its record encodes to — summing a
        // re-encoding of what was trusted gives the same number.
        let first = WalRecord { version: 1, dirty: 0, ops: batch_ops(0) }.encode();
        let second = WalRecord { version: 2, dirty: 0, ops: batch_ops(1) }.encode();
        let gap = WalRecord { version: 4, dirty: 0, ops: batch_ops(2) }.encode();

        let (mut storage, handle) = FaultStorage::reliable();
        for frame in [&first, &second, &gap] {
            storage.append(frame).expect("append");
        }
        storage.sync().expect("sync");
        for payload in scan_frames(&storage.read_log().expect("read")).payloads {
            let record = WalRecord::decode(&payload).expect("decodes");
            assert_eq!(record.encode(), encode_frame(&payload), "version {}", record.version);
        }
        let (_, report) = recover_unsharded(&storage).expect("recover");
        assert_eq!(report.recovered_version, 2);
        assert!(report.torn_tail);
        assert_eq!(report.valid_log_len, first.len() + second.len());

        // Re-opening truncates exactly there: both trusted frames stay, byte for byte.
        let (durable, _) =
            DurableSystem::open(Box::new(storage), DurabilityMode::Sync).expect("open");
        assert_eq!(durable.version(), 2);
        assert_eq!(handle.image_now().log, [first, second].concat());
    }

    /// Register an object, apply an annotate whose second mark names no object,
    /// checkpoint, then annotate once more: recovery must land on the live state, and
    /// the annotation after the checkpoint must link the same referent id on both.
    fn failed_annotate_then_checkpoint_on<S: WriteSystem>(
        create: fn(Box<dyn WalStorage>) -> Durable<S>,
        recover: fn(&dyn WalStorage) -> Result<(S, RecoveryReport)>,
    ) {
        let (storage, handle) = FaultStorage::reliable();
        let mut live = create(Box::new(storage));
        let annotate = |marks: &[(u64, u64)]| LogOp::Annotate {
            content: xmlstore::DublinCore::new().description("site"),
            referents: marks
                .iter()
                .map(|&(object, start)| LogReferent::New {
                    object: ObjectId(object),
                    marker: Marker::interval(start, start + 10),
                })
                .collect(),
            terms: vec![],
        };
        let register = LogOp::register_sequence("seq", DataType::DnaSequence, 2_000, "chr1");
        live.apply(&[register]).expect("register");
        live.apply(&[annotate(&[(0, 10), (7, 30)])]).expect("a rejected op is still logged");
        live.checkpoint().expect("checkpoint");
        live.apply(&[annotate(&[(0, 50)])]).expect("annotate");

        let (recovered, report) =
            recover(&MemStorage::from_image(handle.image_now())).expect("recover");
        assert_eq!((report.checkpoint_version, report.recovered_version), (2, 3));
        assert_eq!(recovered.study_snapshot(), live.system().study_snapshot());
        for system in [live.system(), &recovered] {
            let linked = system.annotation_referents(AnnotationId(0));
            assert_eq!(linked, Some(vec![ReferentId(0)]), "the rejected op created no referent");
        }
    }

    #[test]
    fn a_failed_annotate_leaves_nothing_for_a_checkpoint_to_lose() {
        failed_annotate_then_checkpoint_on(
            |storage| DurableSystem::create(storage, DurabilityMode::Sync),
            recover_unsharded,
        );
        failed_annotate_then_checkpoint_on(
            |storage| DurableShardedSystem::create(storage, DurabilityMode::Sync, 3),
            |storage| recover_sharded(storage, 3),
        );
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_guess() {
        let mut storage = MemStorage::new();
        storage.write_checkpoint(b"not a framed checkpoint").expect("write");
        let err = recover_unsharded(&storage).expect_err("corrupt checkpoint must fail");
        assert!(matches!(err, CoreError::Durability(_)), "{err:?}");
    }
}
