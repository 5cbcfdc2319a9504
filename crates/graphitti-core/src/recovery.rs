//! Crash recovery: replay checkpoint-then-tail to a consistent published state.
//!
//! Recovery reads a [`WalStorage`] left behind by a crash and rebuilds the system to
//! the **longest durable prefix of published batches**:
//!
//! 1. **Checkpoint.**  If the checkpoint slot holds a CRC-valid [`Checkpoint`], its
//!    [`StudySnapshot`] is replayed through the existing machinery
//!    ([`Graphitti::from_study_snapshot`] / [`ShardedSystem::from_study_snapshot`])
//!    and sets the base logical version.  An empty slot means genesis (version 0); a
//!    *corrupt* slot is an error — the log alone cannot reproduce state the
//!    checkpoint truncated away, so guessing would violate the prefix guarantee.
//! 2. **Tail.**  The log is scanned frame by frame ([`scan_frames`]): a torn header,
//!    short payload, or CRC mismatch ends the scan — everything before it is
//!    trusted, everything from it on is discarded.  Each surviving [`WalRecord`] is
//!    replayed as **one batch** if and only if its version is the next expected one;
//!    records at or below the checkpoint version are skipped (the
//!    crash-between-checkpoint-and-truncation case), and a version gap or regression
//!    ends replay (a record after lost data must not be applied out of order).
//!
//! The result is exactly the state at some version `v` ≤ the last published version:
//! never torn (CRC), never reordered (the version chain), and — because replay runs
//! through the normal batch/router paths — satisfying every in-memory invariant,
//! including the `ShardCut` consistency contract for sharded systems.  The
//! crash-point battery in `graphitti-query/tests/crash_recovery.rs` asserts this
//! byte-for-byte against a [`ReferenceExecutor`] oracle replayed to `v`.

use crate::study::StudySnapshot;
use crate::system::Graphitti;
use crate::wal::{
    apply_op_sharded, apply_op_unsharded, scan_frames, Checkpoint, WalRecord, WalStorage,
};
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

/// The decoded durable state: base checkpoint (if any) plus the valid record tail.
struct DurableState {
    checkpoint: Option<Checkpoint>,
    records: Vec<WalRecord>,
    valid_log_len: usize,
    torn_tail: bool,
}

fn load(storage: &dyn WalStorage) -> Result<DurableState> {
    let checkpoint = match storage
        .read_checkpoint()
        .map_err(|e| CoreError::Durability(format!("cannot read checkpoint: {e}")))?
    {
        Some(bytes) if !bytes.is_empty() => Some(Checkpoint::decode(&bytes)?),
        _ => None,
    };
    let log =
        storage.read_log().map_err(|e| CoreError::Durability(format!("cannot read log: {e}")))?;
    let scan = scan_frames(&log);
    let mut records = Vec::with_capacity(scan.payloads.len());
    let mut valid_len = 0usize;
    let mut torn = scan.torn;
    for payload in &scan.payloads {
        // A frame whose CRC matched but whose payload does not parse as a record is
        // treated exactly like a torn tail: trust the prefix, drop the rest.
        match WalRecord::decode(payload) {
            Ok(record) => {
                records.push(record);
                valid_len += crate::wal::FRAME_HEADER + payload.len();
            }
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    Ok(DurableState { checkpoint, records, valid_log_len: valid_len, torn_tail: torn })
}

/// Replay the tail through `apply`, enforcing the version chain; returns the report.
fn replay_tail(
    state: &DurableState,
    base_version: u64,
    mut apply: impl FnMut(&WalRecord),
) -> RecoveryReport {
    let mut version = base_version;
    let mut replayed = 0usize;
    let mut torn = state.torn_tail;
    let mut valid_len = state.valid_log_len;
    let mut offset = 0usize;
    for record in &state.records {
        let frame_len = crate::wal::FRAME_HEADER + record_frame_payload_len(record);
        if record.version <= base_version {
            // Already captured by the checkpoint (crash before truncation).
            offset += frame_len;
            continue;
        }
        if record.version != version + 1 {
            // A gap or regression: data between the checkpoint and this record was
            // lost, so nothing from here on may be applied.
            torn = true;
            valid_len = offset;
            break;
        }
        apply(record);
        version = record.version;
        replayed += 1;
        offset += frame_len;
    }
    RecoveryReport {
        checkpoint_version: base_version,
        replayed_records: replayed,
        recovered_version: version,
        valid_log_len: valid_len,
        torn_tail: torn,
    }
}

fn record_frame_payload_len(record: &WalRecord) -> usize {
    // Records are re-encoded deterministically (same serializer), so the frame
    // length can be recomputed without carrying offsets through the scan.
    serde::to_string(record).len()
}

fn base_snapshot(checkpoint: &Option<Checkpoint>) -> Option<(&StudySnapshot, u64, usize)> {
    checkpoint.as_ref().map(|cp| (&cp.snapshot, cp.version, cp.shards))
}

/// Recover an unsharded [`Graphitti`] to the longest consistent durable prefix.
pub fn recover_unsharded(storage: &dyn WalStorage) -> Result<(Graphitti, RecoveryReport)> {
    let state = load(storage)?;
    let (mut system, base) = match base_snapshot(&state.checkpoint) {
        Some((snapshot, version, shards)) => {
            if shards != 0 {
                return Err(CoreError::Durability(format!(
                    "checkpoint was written by a {shards}-shard system; recover it sharded"
                )));
            }
            (Graphitti::from_study_snapshot(snapshot)?, version)
        }
        None => (Graphitti::new(), 0),
    };
    let report = replay_tail(&state, base, |record| {
        let mut batch = system.batch();
        for op in &record.ops {
            apply_op_unsharded(&mut batch, op);
        }
        batch.commit();
    });
    Ok((system, report))
}

/// Recover a [`ShardedSystem`] — every shard *and* the collation mirror — to the
/// longest consistent durable prefix.  The shard count comes from the checkpoint;
/// `default_shards` applies to a checkpoint-less log.
pub fn recover_sharded(
    storage: &dyn WalStorage,
    default_shards: usize,
) -> Result<(ShardedSystem, RecoveryReport)> {
    let state = load(storage)?;
    let (mut system, base) = match base_snapshot(&state.checkpoint) {
        Some((snapshot, version, shards)) => {
            if shards == 0 {
                return Err(CoreError::Durability(
                    "checkpoint was written by an unsharded system; recover it unsharded".into(),
                ));
            }
            (ShardedSystem::from_study_snapshot(snapshot, shards)?, version)
        }
        None => (ShardedSystem::new(default_shards.max(1)), 0),
    };
    let report = replay_tail(&state, base, |record| {
        let mut batch = system.batch();
        for op in &record.ops {
            apply_op_sharded(&mut batch, op);
        }
        batch.commit();
    });
    Ok((system, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::wal::{LogOp, LogReferent, MemStorage};
    use crate::{Marker, ObjectId};

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
            let mut batch = expected.batch();
            for op in &ops {
                apply_op_unsharded(&mut batch, op);
            }
            batch.commit();
        }
        let (recovered, report) = recover_unsharded(&storage).expect("recover");
        assert_eq!(report.replayed_records, 5);
        assert_eq!(report.recovered_version, 5);
        assert!(!report.torn_tail);
        assert_eq!(recovered.study_snapshot(), expected.study_snapshot());
        assert_eq!(recovered.to_json(), expected.to_json());
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
    fn corrupt_checkpoint_is_an_error_not_a_guess() {
        let mut storage = MemStorage::new();
        storage.write_checkpoint(b"not a framed checkpoint").expect("write");
        let err = recover_unsharded(&storage).expect_err("corrupt checkpoint must fail");
        assert!(matches!(err, CoreError::Durability(_)), "{err:?}");
    }
}
