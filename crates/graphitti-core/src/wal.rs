//! Durability: the append-only write-ahead log, group commit, and checkpoints.
//!
//! The in-memory fabric publishes state in batch-sized steps — a [`Batch`] is one
//! coalesced epoch bump, and a `ShardCut` already defines what a consistent published
//! state *is*.  This module makes those steps survive a crash:
//!
//! * **Record = batch.**  A [`WalRecord`] is one published batch: its logical
//!   version (batches since genesis), its dirty [`ComponentSet`] bitmask, and the
//!   ordered [`LogOp`]s that were *attempted* (a rejected op writes nothing, live or
//!   replayed, so replaying the same ops reproduces the same state;
//!   `tests/prop_shard.rs` pins that invariant).  Records are framed
//!   `[len: u32 LE][crc32: u32 LE][payload]`; the CRC is over the payload, so a torn
//!   or bit-flipped tail is *detected*, never misdecoded (`tests/prop_wal.rs`).  The
//!   payload is the canonical varint layout of [`crate::codec`], led by its format
//!   byte and encoded in place behind the header — one allocation per record; the
//!   dirty bitmask is not stored, [`WalRecord::decode`] derives it from the ops.
//! * **Group commit.**  [`Wal::append_record`] under [`DurabilityMode::Sync`] uses a
//!   leader/follower protocol: while one committer is inside `fsync`, every batch
//!   submitted concurrently queues up and the next leader flushes them all with a
//!   single write+fsync.  `batches per fsync` is observable via [`Wal::stats`].
//! * **Checkpoint = study snapshot + truncation.**  [`Wal::write_checkpoint`]
//!   persists a CRC-framed [`Checkpoint`] (a [`StudySnapshot`] plus the version and
//!   shard count, in the same codec), fsyncs it, and only then truncates the log.
//!   Recovery replays checkpoint-then-tail, skipping tail records at or below the
//!   checkpoint version, so a crash *between* the checkpoint write and the truncation
//!   is harmless (see [`crate::recovery`]).
//! * **Pluggable storage.**  [`WalStorage`] abstracts the byte layer: [`FileStorage`]
//!   for real logs, [`MemStorage`] for tests, and [`FaultStorage`] — a deterministic
//!   fault-injection backend that can tear an append mid-record, flip a byte, drop an
//!   fsync, or power-cut between checkpoint and truncation at an enumerated
//!   [`CrashPoint`], exposing the surviving bytes as a [`CrashImage`] for the
//!   crash-recovery battery.
//!
//! [`Durable<S>`](Durable) wraps any [`WriteSystem`] — [`DurableSystem`] is
//! `Durable<Graphitti>`, [`DurableShardedSystem`] is `Durable<ShardedSystem>`: `apply`
//! runs one batch of [`LogOp`]s and appends its record *before returning*, so by the
//! time a caller publishes the resulting snapshot or cut to a query service the batch
//! is durable (under `Sync`; `Async` defers the fsync to [`Wal::flush`], which the
//! services' publish path calls — durable before visible either way).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ontology::ConceptId;
use relstore::Value;

use crate::annotation::AnnotationSpec;
use crate::batch::Batch;
use crate::codec::{self, frame_in_place};
use crate::epoch::ComponentSet;
use crate::marker::Marker;
use crate::recovery::RecoveryReport;
use crate::referent::ReferentId;
use crate::shard::ShardedSystem;
use crate::study::{Created, StudySnapshot};
use crate::system::{Component, Graphitti, ObjectId};
use crate::types::DataType;
use crate::write::WriteSystem;
use crate::{CoreError, Result};

// --- CRC32 and framing ---

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is byte `b` pushed through the CRC
/// register followed by `k` zero bytes, so eight input bytes fold into the register
/// with eight independent lookups instead of eight dependent ones.  `CRC_TABLES[0]`
/// is the classic byte-at-a-time table.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            // One more byte through the register: eight bit steps.
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
                bit += 1;
            }
            // lint: allow(no-panic-serving) -- const-eval loop counters: k < 8, i < 256
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

#[inline(always)]
fn crc_lookup(table: &[u32; 256], byte: u8) -> u32 {
    // lint: allow(no-panic-serving) -- a u8 indexes a 256-entry table: always in bounds
    table[usize::from(byte)]
}

/// IEEE CRC-32 of a byte slice (the checksum in every frame header), eight bytes
/// per step (slicing-by-8); the values are those of the byte-at-a-time definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for word in words {
        // The `as u8` casts below keep the low byte: that is the byte being looked up.
        let v = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = crc_lookup(t7, v as u8)
            ^ crc_lookup(t6, (v >> 8) as u8)
            ^ crc_lookup(t5, (v >> 16) as u8)
            ^ crc_lookup(t4, (v >> 24) as u8)
            ^ crc_lookup(t3, (v >> 32) as u8)
            ^ crc_lookup(t2, (v >> 40) as u8)
            ^ crc_lookup(t1, (v >> 48) as u8)
            ^ crc_lookup(t0, (v >> 56) as u8);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_lookup(t0, crc as u8 ^ b);
    }
    !crc
}

/// Frame header size: `[len: u32 LE][crc32: u32 LE]`.
pub const FRAME_HEADER: usize = 8;

/// Frame a payload: length + CRC header followed by the payload bytes.
// lint: allow(dead-pub) -- test oracle: tests/commit_cost.rs, core tests/{codec_mutation,prop_wal}.rs
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame_in_place(&mut frame, |out| out.extend_from_slice(payload));
    frame
}

/// The result of scanning a log image: every validly framed payload in order, the
/// byte length of that valid prefix, and whether scanning stopped at a torn or
/// corrupt tail (as opposed to the clean end of the log).
pub struct FrameScan {
    /// The framed payloads, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes of the log occupied by the valid frames (a truncation point).
    pub valid_len: usize,
    /// `true` if a non-zero byte follows `valid_len`: a torn header, a short
    /// payload, or a CRC mismatch.  Zeros there are the clean end of the log.
    pub torn: bool,
}

/// Scan a log image into frames, stopping cleanly at the first torn or corrupt one.
///
/// This is the recovery-side prefix rule: everything before the first bad frame is
/// trusted (its CRC matched), everything from it on is discarded.  An all-zero frame
/// header ends the log: no WAL frame has an empty payload, and the space
/// [`FileStorage`] reserves past its last record reads as zeros.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while let Some(payload) = frame_at(bytes, offset).filter(|payload| !payload.is_empty()) {
        payloads.push(payload.to_vec());
        offset += FRAME_HEADER + payload.len();
    }
    let torn = bytes.get(offset..).is_some_and(|rest| rest.iter().any(|&b| b != 0));
    FrameScan { payloads, valid_len: offset, torn }
}

/// The payload of the frame that starts at `offset`, borrowed from the image — or
/// `None` at a missing header, a short payload or a CRC mismatch.  Fully checked: a
/// truncated image is never a panic.
fn frame_at(bytes: &[u8], offset: usize) -> Option<&[u8]> {
    let len = u32::from_le_bytes(read_u32_le(bytes, offset)?) as usize;
    let expected_crc = u32::from_le_bytes(read_u32_le(bytes, offset.checked_add(4)?)?);
    let start = offset.checked_add(FRAME_HEADER)?;
    let payload = bytes.get(start..start.checked_add(len)?)?;
    (crc32(payload) == expected_crc).then_some(payload)
}

/// Read 4 little-endian bytes at `offset`, or `None` if the image is too short.
fn read_u32_le(bytes: &[u8], offset: usize) -> Option<[u8; 4]> {
    bytes.get(offset..offset.checked_add(4)?)?.try_into().ok()
}

// --- the loggable write surface ---

/// One durable write, as persisted in a [`WalRecord`].  The loggable surface mirrors
/// the system's write API in *global* ids, so one op stream replays identically into
/// an unsharded [`Graphitti`] or a [`ShardedSystem`] at any shard count.
///
/// The system is append-only: nothing is ever removed; a correction is a new
/// annotation.  So there are three ops, and none deletes.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// Register an object (the general form; see [`LogOp::register_sequence`] for
    /// the linear-object convenience that mirrors
    /// [`Graphitti::register_sequence`]).
    Register {
        /// The object's data type.
        data_type: DataType,
        /// Its name / accession.
        name: String,
        /// The metadata columns between `name` and `payload`.
        metadata: Vec<Value>,
        /// The raw payload bytes.
        payload: Vec<u8>,
        /// Its coordinate domain / system.
        domain: String,
    },
    /// Commit an annotation: content plus ordered referents (new marks or reused
    /// committed referents, by global id) plus cited ontology terms.
    Annotate {
        /// The annotation's Dublin Core content.
        content: xmlstore::DublinCore,
        /// Its referents, in builder order.
        referents: Vec<LogReferent>,
        /// The ontology terms it cites.
        terms: Vec<ConceptId>,
    },
    /// Define an ontology concept (vocabulary curation).
    DefineTerm {
        /// The concept's name.
        name: String,
    },
}

/// A pending referent of an annotation — a new mark on an object, or the reuse of a
/// committed referent by its global id — as a builder stages it and the log
/// persists it.
#[derive(Debug, Clone, PartialEq)]
pub enum LogReferent {
    /// Mark a new region of an object.
    New {
        /// The object being marked.
        object: ObjectId,
        /// Where on the object.
        marker: Marker,
    },
    /// Link an already-committed referent.
    Existing(ReferentId),
}

impl LogOp {
    /// The sequence-registration convenience: builds the same metadata row as
    /// [`Graphitti::register_sequence`], so the logged op replays to an identical
    /// registry entry.
    pub fn register_sequence(
        name: impl Into<String>,
        data_type: DataType,
        length: u64,
        domain: impl Into<String>,
    ) -> LogOp {
        let domain = domain.into();
        let metadata = data_type.sequence_row(length, &domain);
        LogOp::Register { data_type, name: name.into(), metadata, payload: Vec::new(), domain }
    }

    /// A prediction of the components this op dirties, computed from the op alone so
    /// sharded and unsharded logs of the same batch carry identical bits: a superset
    /// of what applying it stamps (`op_dirty_covers_the_actual_batch_footprint`).  It
    /// is the one dirty set still declared by hand; it fills [`WalRecord::dirty`] and
    /// is not persisted — the live system's dirty sets are read off what each write
    /// stamped.
    pub fn dirty(&self) -> ComponentSet {
        match self {
            LogOp::Register { .. } => ComponentSet::of([
                Component::Agraph,
                Component::Objects,
                Component::NodeMaps,
                Component::Indexes,
            ]),
            LogOp::Annotate { referents, terms, .. } => {
                let mut dirty = ComponentSet::of([
                    Component::Content,
                    Component::Agraph,
                    Component::NodeMaps,
                    Component::Annotations,
                    Component::Indexes,
                ]);
                for referent in referents {
                    if let LogReferent::New { marker, .. } = referent {
                        dirty.insert(Component::Referents);
                        dirty.insert(Component::ObjectReferents);
                        match marker {
                            Marker::Interval(_) => dirty.insert(Component::Intervals),
                            Marker::Region(_) | Marker::Volume(_) => {
                                dirty.insert(Component::Spatial)
                            }
                            Marker::BlockSet(_) => {}
                        }
                    }
                }
                if !terms.is_empty() {
                    dirty.insert(Component::Ontology);
                }
                dirty
            }
            LogOp::DefineTerm { .. } => ComponentSet::of([Component::Ontology]),
        }
    }
}

/// The dirty union of a whole batch of ops.
pub fn batch_dirty(ops: &[LogOp]) -> ComponentSet {
    ops.iter().fold(ComponentSet::EMPTY, |acc, op| acc.union(op.dirty()))
}

/// One WAL record: a published batch with its logical version and dirty set.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The batch's logical version: 1 for the first batch after genesis (or after
    /// the state the checkpoint captured), strictly increasing by 1.
    pub version: u64,
    /// The batch's dirty [`ComponentSet`] as a bitmask ([`ComponentSet::bits`]):
    /// `batch_dirty(&ops).bits()`.  Derived, so not persisted — `decode` refills it.
    pub dirty: u16,
    /// The attempted ops, in submission order.
    pub ops: Vec<LogOp>,
}

impl WalRecord {
    /// Serialize to a CRC-framed byte record, the payload encoded in place behind
    /// its header.
    pub fn encode(&self) -> Vec<u8> {
        encode_record(self.version, &self.ops)
    }

    /// Parse a record from one frame's payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let (version, ops) = codec::read_record(payload)?;
        Ok(WalRecord { version, dirty: batch_dirty(&ops).bits(), ops })
    }
}

/// The framed record of batch `version` — what [`WalRecord::encode`] writes, from ops
/// the caller still owns.
fn encode_record(version: u64, ops: &[LogOp]) -> Vec<u8> {
    // Room for a typical two-op commit, so a record is one allocation.
    let mut frame = Vec::with_capacity(256);
    frame_in_place(&mut frame, |out| codec::put_record(out, version, ops));
    // The format byte leads every payload: an empty one would frame as the all-zero
    // header `scan_frames` reads as the end of the log.
    debug_assert!(frame.len() > FRAME_HEADER, "a WAL record frames an empty payload");
    frame
}

/// A checkpoint: the full state at a logical version, persisted through the existing
/// [`StudySnapshot`] machinery.  `shards == 0` marks an unsharded system's log.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The logical version (batches since genesis) the snapshot captures.
    pub version: u64,
    /// Shard count of the logging system (`0` = unsharded).
    pub shards: usize,
    /// The order the snapshot's objects and annotations were created in, as runs of
    /// one kind ([`WriteSystem::creation_order`]): replay follows it, so a recovered
    /// a-graph numbers its nodes and edges as the live one did.
    pub order: Vec<(Created, usize)>,
    /// The replayable state.
    pub snapshot: StudySnapshot,
}

impl Checkpoint {
    /// The checkpoint of `system` at logical version `version`.
    pub fn capture<S: WriteSystem>(system: &S, version: u64) -> Checkpoint {
        Checkpoint {
            version,
            shards: system.checkpoint_shards(),
            order: system.creation_order(),
            snapshot: system.study_snapshot(),
        }
    }

    /// Serialize to a CRC-framed byte blob, the payload encoded in place behind its
    /// header.
    pub fn encode(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        frame_in_place(&mut blob, |out| codec::put_checkpoint(out, self));
        blob
    }

    /// Parse a checkpoint from its framed blob — exactly one frame — verifying the CRC.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let payload = frame_at(bytes, 0)
            .filter(|payload| FRAME_HEADER + payload.len() == bytes.len())
            .ok_or_else(|| {
                CoreError::Durability("checkpoint blob is not one CRC-valid frame".into())
            })?;
        Ok(codec::read_checkpoint(payload)?)
    }
}

// --- storage backends ---

/// The byte layer under the WAL: an append-only log plus a single checkpoint slot.
///
/// The log contract is append + explicit durability barrier (`sync`); the checkpoint
/// slot is replaced atomically (write-then-rename on [`FileStorage`]).  `read_*` see
/// every written byte — *durability* (what survives a crash) is a property of the
/// fault-injection backend's [`CrashImage`], not of reads on a live store.
pub trait WalStorage: Send {
    /// Append bytes to the log (buffered; durable only after [`sync`](Self::sync)).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier: everything appended so far survives a crash.
    fn sync(&mut self) -> io::Result<()>;
    /// The current log contents.
    fn read_log(&self) -> io::Result<Vec<u8>>;
    /// Drop all log bytes past `len` (recovery's torn-tail repair).
    fn truncate_log_to(&mut self, len: usize) -> io::Result<()>;
    /// Replace the checkpoint slot.
    fn write_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// The checkpoint slot contents, if any.
    fn read_checkpoint(&self) -> io::Result<Option<Vec<u8>>>;
}

/// Plain in-memory storage (tests, and the substrate a [`CrashImage`] is recovered
/// from).
#[derive(Default)]
pub struct MemStorage {
    log: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Storage pre-loaded with a crash's surviving bytes.
    pub fn from_image(image: CrashImage) -> MemStorage {
        MemStorage { log: image.log, checkpoint: image.checkpoint }
    }
}

impl WalStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn read_log(&self) -> io::Result<Vec<u8>> {
        Ok(self.log.clone())
    }

    fn truncate_log_to(&mut self, len: usize) -> io::Result<()> {
        self.log.truncate(len);
        Ok(())
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn read_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.checkpoint.clone())
    }
}

/// How far ahead of its logical end [`FileStorage`] keeps `wal.log` sized: the file
/// ends on the first multiple of this past the last record, so an append lands in
/// space the file already has and its `fdatasync` persists no new length.
pub const LOG_EXTENT: u64 = 64 * 1024;

/// File-backed storage: `wal.log` and `checkpoint.bin` (write-tmp-then-rename) under
/// one directory.
///
/// Records are written at the log's logical end, inside a hole reserved up to the
/// next [`LOG_EXTENT`] boundary: only the append that crosses a boundary changes the
/// file's length.  The hole reads as zeros, which [`scan_frames`] takes for the clean
/// end of the log, so a power cut that keeps it recovers the same records.  Dropping
/// the storage trims the file to its records.
pub struct FileStorage {
    dir: std::path::PathBuf,
    log: std::fs::File,
    /// Bytes of records: where the next append is written.
    end: u64,
    /// `wal.log`'s length on disk, `end` or the extent boundary past it.
    len: u64,
}

impl FileStorage {
    /// Open (creating if needed) the log directory.  A `wal.log` this call creates
    /// has its directory fsynced before it is returned: until then a power cut could
    /// lose the file's name, and every record fsynced into it with the name.  An
    /// existing `wal.log` is taken whole as the log, a reserved hole left by a crash
    /// included: recovery reads the hole as the end of the log and truncates it away.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> io::Result<FileStorage> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut options = std::fs::OpenOptions::new();
        options.read(true).write(true);
        let path = dir.join("wal.log");
        match options.clone().create_new(true).open(&path) {
            Ok(log) => {
                let mut storage = FileStorage { dir, log, end: 0, len: 0 };
                storage.reserve_past(0)?;
                std::fs::File::open(&storage.dir)?.sync_all()?;
                Ok(storage)
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let log = options.open(&path)?;
                let len = log.metadata()?.len();
                Ok(FileStorage { dir, log, end: len, len })
            }
            Err(e) => Err(e),
        }
    }

    /// Size the file to the first [`LOG_EXTENT`] boundary past `end`.  Growing makes
    /// a hole: no block is written.
    fn reserve_past(&mut self, end: u64) -> io::Result<()> {
        let len = (end / LOG_EXTENT + 1) * LOG_EXTENT;
        self.log.set_len(len)?;
        self.len = len;
        Ok(())
    }

    fn log_path(&self) -> std::path::PathBuf {
        self.dir.join("wal.log")
    }

    fn checkpoint_path(&self) -> std::path::PathBuf {
        self.dir.join("checkpoint.bin")
    }
}

/// Write all of `bytes` at `offset`: one `pwrite` where there is one, so an append
/// costs no `lseek`.
fn write_at(file: &std::fs::File, bytes: &[u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, Write};
        let mut file = file;
        file.seek(io::SeekFrom::Start(offset))?;
        file.write_all(bytes)
    }
}

impl Drop for FileStorage {
    /// A closed `wal.log` is exactly its records.  A failed trim leaves zeros past
    /// them, which the next recovery reads as the end of the log.
    fn drop(&mut self) {
        if self.len != self.end {
            let _ = self.log.set_len(self.end);
        }
    }
}

impl WalStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let end = self.end + bytes.len() as u64;
        if end > self.len {
            self.reserve_past(end)?;
        }
        write_at(&self.log, bytes, self.end)?;
        self.end = end;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.sync_data()
    }

    fn read_log(&self) -> io::Result<Vec<u8>> {
        use std::io::Read;
        // A handle of its own: no cursor is shared with another reader.
        let mut log = Vec::with_capacity(usize::try_from(self.end).unwrap_or(0));
        std::fs::File::open(self.log_path())?.take(self.end).read_to_end(&mut log)?;
        Ok(log)
    }

    fn truncate_log_to(&mut self, len: usize) -> io::Result<()> {
        // Shrink first: bytes past `len` must read as zeros, not as old frames.
        self.end = self.end.min(len as u64);
        self.log.set_len(self.end)?;
        self.reserve_past(self.end)?;
        self.log.sync_data()
    }

    /// Atomic *and* durable on return: the temp file's bytes are fsynced before the
    /// rename makes them the slot, and the directory is fsynced after it so the rename
    /// itself survives a power cut — [`Wal::write_checkpoint`] truncates the log next,
    /// and must never be able to outrun the checkpoint that replaces it.
    fn write_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let tmp = self.dir.join("checkpoint.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, self.checkpoint_path())?;
        std::fs::File::open(&self.dir)?.sync_all()
    }

    fn read_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.checkpoint_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// --- fault injection ---

/// One enumerated crash point for the fault-injection harness.  Indices are 0-based
/// counters over the storage's own operations, so a plan is deterministic for a
/// deterministic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power cut mid-append: only `keep` bytes of record-append number `record`
    /// reach the platter (`keep` is taken modulo the record length, so any value is
    /// a valid torn point).
    TornAppend {
        /// Which record append tears (0-based).
        record: u64,
        /// How many of its bytes survive.
        keep: usize,
    },
    /// Record-append number `record` lands fully, but the byte at `offset` (modulo
    /// the record length) is flipped with `xor` (forced non-zero); power cut after.
    CorruptRecord {
        /// Which record append is corrupted (0-based).
        record: u64,
        /// Byte offset within the record's frame.
        offset: usize,
        /// XOR mask applied to that byte.
        xor: u8,
    },
    /// Sync number `sync` reports success without persisting anything, and the power
    /// cut happens before the next real barrier: everything since the previous sync
    /// is lost even though the writer was told otherwise.
    LostSync {
        /// Which sync call lies (0-based).
        sync: u64,
    },
    /// Power cut after checkpoint number `checkpoint` is durably written but before
    /// the log truncation that follows it: recovery sees the new checkpoint *and*
    /// the full pre-checkpoint log, and must skip the already-checkpointed records.
    CheckpointNoTruncate {
        /// Which checkpoint write precedes the crash (0-based).
        checkpoint: u64,
    },
}

/// The bytes that survive a [`CrashPoint`]: what recovery gets to read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashImage {
    /// Surviving log bytes.
    pub log: Vec<u8>,
    /// Surviving checkpoint slot.
    pub checkpoint: Option<Vec<u8>>,
}

#[derive(Default)]
struct FaultInner {
    log: Vec<u8>,
    /// Synced prefix of `log` (what a [`CrashPoint::LostSync`] power cut exposes).
    durable_log: usize,
    checkpoint: Option<Vec<u8>>,
    durable_checkpoint: Option<Vec<u8>>,
    plan: Option<CrashPoint>,
    image: Option<CrashImage>,
    appends: u64,
    syncs: u64,
    checkpoints: u64,
}

impl FaultInner {
    fn crash(&mut self, image: CrashImage) {
        if self.image.is_none() {
            self.image = Some(image);
        }
    }
}

/// Deterministic fault-injection storage: behaves like [`MemStorage`] until its
/// [`CrashPoint`] triggers, at which moment it freezes the surviving bytes as a
/// [`CrashImage`] (all later writes are void, as after a power cut).  The harness
/// keeps a [`FaultHandle`] to extract the image and recover from it.
pub struct FaultStorage {
    inner: Arc<Mutex<FaultInner>>,
}

/// The harness-side handle to a [`FaultStorage`]'s crash state.
#[derive(Clone)]
pub struct FaultHandle {
    inner: Arc<Mutex<FaultInner>>,
}

/// Lock the shared fault state, recovering from poisoning.  The harness only
/// mutates the state in short exception-safe sections, so if a test thread
/// panicked while holding the lock the state is still coherent — recovering keeps
/// the fault-injection battery observable instead of cascading the panic.
fn fault_state(inner: &Mutex<FaultInner>) -> std::sync::MutexGuard<'_, FaultInner> {
    inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FaultStorage {
    /// A storage that will crash at `plan`, plus the handle to inspect it.
    pub fn with_plan(plan: CrashPoint) -> (FaultStorage, FaultHandle) {
        let inner = Arc::new(Mutex::new(FaultInner { plan: Some(plan), ..Default::default() }));
        (FaultStorage { inner: Arc::clone(&inner) }, FaultHandle { inner })
    }

    /// A storage with no planned crash (behaves like [`MemStorage`]).
    // lint: allow(dead-pub) -- test oracle: tests/cross_layer_smoke.rs, core tests/{prop_wal,untrusted_study}.rs, query tests/crash_recovery.rs
    pub fn reliable() -> (FaultStorage, FaultHandle) {
        let inner = Arc::new(Mutex::new(FaultInner::default()));
        (FaultStorage { inner: Arc::clone(&inner) }, FaultHandle { inner })
    }
}

impl FaultHandle {
    /// The frozen crash image, if the plan triggered.
    pub fn crash_image(&self) -> Option<CrashImage> {
        fault_state(&self.inner).image.clone()
    }

    /// The surviving bytes *now*: the crash image if the plan triggered, else the
    /// durable state as of the last sync (i.e. an unplanned power cut right now).
    // lint: allow(dead-pub) -- test oracle: tests/cross_layer_smoke.rs, core tests/{prop_wal,untrusted_study}.rs, query tests/crash_recovery.rs
    pub fn image_now(&self) -> CrashImage {
        let inner = fault_state(&self.inner);
        inner.image.clone().unwrap_or_else(|| CrashImage {
            // lint: allow(no-panic-serving) -- durable_log only ever set from log.len(), never past it
            log: inner.log[..inner.durable_log].to_vec(),
            checkpoint: inner.durable_checkpoint.clone(),
        })
    }
}

impl WalStorage for FaultStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = fault_state(&self.inner);
        if inner.image.is_some() {
            return Ok(());
        }
        match inner.plan {
            Some(CrashPoint::TornAppend { record, keep }) if record == inner.appends => {
                let keep = keep % bytes.len().max(1);
                // lint: allow(no-panic-serving) -- keep is reduced modulo the frame length just above
                inner.log.extend_from_slice(&bytes[..keep]);
                // The torn tail may have hit the platter; everything before this
                // append had already been written.
                let image = CrashImage {
                    log: inner.log.clone(),
                    checkpoint: inner.durable_checkpoint.clone(),
                };
                inner.crash(image);
            }
            Some(CrashPoint::CorruptRecord { record, offset, xor }) if record == inner.appends => {
                let start = inner.log.len();
                inner.log.extend_from_slice(bytes);
                let at = start + offset % bytes.len().max(1);
                // lint: allow(no-panic-serving) -- at < log.len(): offset is reduced modulo the appended frame
                inner.log[at] ^= if xor == 0 { 0x01 } else { xor };
                let image = CrashImage {
                    log: inner.log.clone(),
                    checkpoint: inner.durable_checkpoint.clone(),
                };
                inner.crash(image);
            }
            _ => inner.log.extend_from_slice(bytes),
        }
        inner.appends += 1;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = fault_state(&self.inner);
        if inner.image.is_some() {
            return Ok(());
        }
        if let Some(CrashPoint::LostSync { sync }) = inner.plan {
            if sync == inner.syncs {
                // The barrier lies, and the power cut lands before the next one:
                // only the previously synced prefix survives.
                let image = CrashImage {
                    // lint: allow(no-panic-serving) -- durable_log only ever set from log.len(), never past it
                    log: inner.log[..inner.durable_log].to_vec(),
                    checkpoint: inner.durable_checkpoint.clone(),
                };
                inner.crash(image);
                inner.syncs += 1;
                return Ok(());
            }
        }
        inner.durable_log = inner.log.len();
        inner.durable_checkpoint = inner.checkpoint.clone();
        inner.syncs += 1;
        Ok(())
    }

    fn read_log(&self) -> io::Result<Vec<u8>> {
        Ok(fault_state(&self.inner).log.clone())
    }

    fn truncate_log_to(&mut self, len: usize) -> io::Result<()> {
        let mut inner = fault_state(&self.inner);
        if inner.image.is_some() {
            return Ok(());
        }
        if len == 0 {
            if let Some(CrashPoint::CheckpointNoTruncate { checkpoint }) = inner.plan {
                if checkpoint + 1 == inner.checkpoints {
                    // The checkpoint is durable (the Wal synced it before asking for
                    // truncation) but the truncation itself never lands.
                    let image =
                        CrashImage { log: inner.log.clone(), checkpoint: inner.checkpoint.clone() };
                    inner.crash(image);
                    return Ok(());
                }
            }
        }
        inner.log.truncate(len);
        inner.durable_log = inner.durable_log.min(len);
        Ok(())
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = fault_state(&self.inner);
        if inner.image.is_some() {
            return Ok(());
        }
        inner.checkpoint = Some(bytes.to_vec());
        inner.checkpoints += 1;
        Ok(())
    }

    fn read_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(fault_state(&self.inner).checkpoint.clone())
    }
}

// --- the WAL proper ---

/// When a batch's record must be on stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// `apply` returns only after the record is fsynced (group-committed with any
    /// concurrently submitted batches).
    #[default]
    Sync,
    /// `apply` appends without waiting for the barrier; [`Wal::flush`] (called by
    /// the query services' publish paths) makes everything appended durable before
    /// the state becomes visible.
    Async,
    /// No logging at all (the pre-durability in-memory behaviour).
    Off,
}

/// Counters describing the WAL's work so far (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended to the log.
    pub records_appended: u64,
    /// Fsync barriers issued; under `Sync` with concurrent committers,
    /// `records_appended / fsyncs` is the group-commit coalescing factor.
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Records replayed by the recovery that opened this log (0 for a fresh log).
    pub recovery_replays: u64,
}

struct GroupState {
    /// Ticket of the most recently enqueued record.
    enqueued: u64,
    /// Highest ticket known durable.
    durable: u64,
    /// Whether a leader is currently inside write+fsync.
    flushing: bool,
    /// Encoded frames waiting for the next leader.
    queue: VecDeque<Vec<u8>>,
}

/// The storage backend plus what the log knows about its durability, under one lock.
struct LogStorage {
    backend: Box<dyn WalStorage>,
    /// Whether anything was written since the last successful [`sync`](Self::sync).
    /// [`Wal::flush`] skips the barrier when nothing was: under `Sync` the group
    /// commit has already fsynced every record by the time a publish flushes.
    unsynced: bool,
}

impl LogStorage {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        // Set first: a failed append may still have written part of the frame.
        self.unsynced = true;
        self.backend.append(frame)
    }

    fn write_checkpoint(&mut self, blob: &[u8]) -> io::Result<()> {
        self.unsynced = true;
        self.backend.write_checkpoint(blob)
    }

    /// The durability barrier.  A failed barrier leaves `unsynced` set, so the next
    /// flush retries it instead of reporting bytes durable that are not.
    fn sync(&mut self) -> io::Result<()> {
        self.backend.sync()?;
        self.unsynced = false;
        Ok(())
    }
}

struct WalInner {
    storage: Mutex<LogStorage>,
    group: Mutex<GroupState>,
    group_done: Condvar,
    mode: DurabilityMode,
    records: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    recovery_replays: AtomicU64,
}

impl WalInner {
    /// Lock the storage backend, recovering from poisoning.  Every storage section
    /// either completes or leaves the backend as a power cut would — the exact
    /// states recovery is built to handle — so a committer that panicked while
    /// holding the lock must not take the whole log handle down with it.
    fn storage_guard(&self) -> std::sync::MutexGuard<'_, LogStorage> {
        self.storage.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lock the group-commit state, recovering from poisoning: queue pushes and
    /// counter bumps are exception-safe, and the leader clears `flushing` under the
    /// re-acquired lock, so the state stays coherent across a waiter's panic.
    fn group_guard(&self) -> std::sync::MutexGuard<'_, GroupState> {
        self.group.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The write-ahead log handle: sharable (`Clone` bumps an `Arc`), thread-safe, and
/// group-committing under [`DurabilityMode::Sync`].
#[derive(Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

impl Wal {
    /// Wrap a storage backend.
    pub fn new(storage: Box<dyn WalStorage>, mode: DurabilityMode) -> Wal {
        Wal {
            inner: Arc::new(WalInner {
                storage: Mutex::new(LogStorage { backend: storage, unsynced: false }),
                group: Mutex::new(GroupState {
                    enqueued: 0,
                    durable: 0,
                    flushing: false,
                    queue: VecDeque::new(),
                }),
                group_done: Condvar::new(),
                mode,
                records: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
                recovery_replays: AtomicU64::new(0),
            }),
        }
    }

    /// Append one record per the durability mode.  Under `Sync` this blocks until
    /// the record is on stable storage; the leader/follower protocol batches every
    /// concurrently waiting record into one write+fsync.
    pub fn append_record(&self, record: &WalRecord) -> Result<()> {
        self.append_frame(record.encode())
    }

    /// Append one framed record (see [`append_record`](Self::append_record)).
    fn append_frame(&self, frame: Vec<u8>) -> Result<()> {
        match self.inner.mode {
            DurabilityMode::Off => Ok(()),
            DurabilityMode::Async => {
                let mut storage = self.inner.storage_guard();
                storage.append(&frame).map_err(wal_io)?;
                self.inner.records.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            DurabilityMode::Sync => self.group_commit(frame),
        }
    }

    fn group_commit(&self, frame: Vec<u8>) -> Result<()> {
        let inner = &*self.inner;
        let mut group = inner.group_guard();
        group.enqueued += 1;
        let ticket = group.enqueued;
        group.queue.push_back(frame);
        self.inner.records.fetch_add(1, Ordering::Relaxed);
        loop {
            if group.durable >= ticket {
                return Ok(());
            }
            if !group.flushing {
                group.flushing = true;
                let batch: Vec<Vec<u8>> = group.queue.drain(..).collect();
                let high = group.enqueued;
                drop(group);
                let flush = (|| -> io::Result<()> {
                    let mut storage = inner.storage_guard();
                    for frame in &batch {
                        storage.append(frame)?;
                    }
                    storage.sync()
                })();
                inner.fsyncs.fetch_add(1, Ordering::Relaxed);
                group = inner.group_guard();
                group.flushing = false;
                if flush.is_ok() {
                    group.durable = group.durable.max(high);
                }
                inner.group_done.notify_all();
                flush.map_err(wal_io)?;
            } else {
                group =
                    inner.group_done.wait(group).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// Durability barrier: everything appended so far (any mode) is made durable.
    /// The services' publish paths call this so a published state is never more
    /// recent than the log.  When every appended byte is already behind a successful
    /// barrier — the normal case under `Sync`, where the group commit fsynced the
    /// record before `apply` returned — this issues none; an append that races the
    /// flush takes the storage lock before or after it, and is covered either by
    /// this barrier or by its own.
    pub fn flush(&self) -> Result<()> {
        if self.inner.mode == DurabilityMode::Off {
            return Ok(());
        }
        let mut storage = self.inner.storage_guard();
        if !storage.unsynced {
            return Ok(());
        }
        storage.sync().map_err(wal_io)?;
        self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persist a checkpoint and truncate the log: write the framed blob, fsync it,
    /// and only then drop the log records it covers.  A crash between the two steps
    /// leaves the full log alongside the new checkpoint — recovery skips records at
    /// or below the checkpoint version, so the order is always safe.
    pub fn write_checkpoint(&self, checkpoint: &Checkpoint) -> Result<()> {
        if self.inner.mode == DurabilityMode::Off {
            return Ok(());
        }
        let blob = checkpoint.encode();
        let mut storage = self.inner.storage_guard();
        storage.write_checkpoint(&blob).map_err(wal_io)?;
        storage.sync().map_err(wal_io)?;
        storage.backend.truncate_log_to(0).map_err(wal_io)?;
        self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.inner.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A snapshot of the WAL counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records_appended: self.inner.records.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.inner.checkpoints.load(Ordering::Relaxed),
            recovery_replays: self.inner.recovery_replays.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_recovery(&self, replayed: u64) {
        self.inner.recovery_replays.store(replayed, Ordering::Relaxed);
    }
}

fn wal_io(e: io::Error) -> CoreError {
    CoreError::Durability(format!("log storage error: {e}"))
}

// --- applying logged ops ---

/// Apply one op to a batch over either system, moving its rows in; a `false` return
/// is a rejected (but logged) op, which wrote nothing — exactly as a live caller's
/// rejected commit.
pub(crate) fn apply_op<S: WriteSystem>(batch: &mut Batch<'_, S>, op: LogOp) -> bool {
    match op {
        LogOp::Register { data_type, name, metadata, payload, domain } => {
            batch.register_object(data_type, name, metadata, Arc::from(payload), domain).is_ok()
        }
        LogOp::Annotate { content, referents, terms } => {
            batch.commit_annotation(AnnotationSpec { content, referents, terms }).is_ok()
        }
        LogOp::DefineTerm { name } => {
            // One name, shared by every replica's concept and name index.
            let name: Arc<str> = name.into();
            batch.ontology_edit(|o| o.add_concept(Arc::clone(&name)));
            true
        }
    }
}

/// Apply one record's ops as **one** batch (one version) — the unit both the live
/// [`Durable::apply`] and recovery's tail replay commit in.
pub(crate) fn apply_batch<S: WriteSystem>(system: &mut S, ops: impl IntoIterator<Item = LogOp>) {
    let mut batch = system.batch();
    for op in ops {
        apply_op(&mut batch, op);
    }
    batch.commit();
}

// --- the durable wrapper ---

/// A [`WriteSystem`] whose batches are written ahead to a [`Wal`]: `apply` commits
/// one batch of [`LogOp`]s and logs it before returning.  Records carry global ids, so
/// the same log recovers at the same shard count into the identical sharded state —
/// or, unsharded, into the equivalent oracle.
pub struct Durable<S> {
    system: S,
    wal: Wal,
    version: u64,
    checkpoint_every: u64,
    since_checkpoint: u64,
}

/// A durable unsharded [`Graphitti`].
pub type DurableSystem = Durable<Graphitti>;

/// A durable [`ShardedSystem`] — one record per logical batch.
pub type DurableShardedSystem = Durable<ShardedSystem>;

impl DurableSystem {
    /// A fresh system over (assumed-empty) storage.
    pub fn create(storage: Box<dyn WalStorage>, mode: DurabilityMode) -> DurableSystem {
        Durable::over(Graphitti::new(), Wal::new(storage, mode), 0)
    }

    /// Recover from existing storage (checkpoint-then-tail; see [`crate::recovery`])
    /// and continue logging to it.  The torn tail, if any, is truncated away so new
    /// records append after the last valid one.
    pub fn open(
        storage: Box<dyn WalStorage>,
        mode: DurabilityMode,
    ) -> Result<(DurableSystem, RecoveryReport)> {
        Durable::reopen(storage, mode, crate::recovery::recover_unsharded)
    }
}

impl DurableShardedSystem {
    /// A fresh sharded system over (assumed-empty) storage.
    pub fn create(
        storage: Box<dyn WalStorage>,
        mode: DurabilityMode,
        shards: usize,
    ) -> DurableShardedSystem {
        Durable::over(ShardedSystem::new(shards), Wal::new(storage, mode), 0)
    }

    /// Recover from existing storage and continue logging to it (as
    /// [`DurableSystem::open`]).  The shard count comes from the checkpoint when there
    /// is one; `default_shards` is used for a checkpoint-less log.
    pub fn open(
        storage: Box<dyn WalStorage>,
        mode: DurabilityMode,
        default_shards: usize,
    ) -> Result<(DurableShardedSystem, RecoveryReport)> {
        Durable::reopen(storage, mode, |s| crate::recovery::recover_sharded(s, default_shards))
    }
}

impl<S: WriteSystem> Durable<S> {
    fn over(system: S, wal: Wal, version: u64) -> Durable<S> {
        Durable { system, wal, version, checkpoint_every: 0, since_checkpoint: 0 }
    }

    fn reopen(
        mut storage: Box<dyn WalStorage>,
        mode: DurabilityMode,
        recover: impl FnOnce(&dyn WalStorage) -> Result<(S, RecoveryReport)>,
    ) -> Result<(Durable<S>, RecoveryReport)> {
        let (system, report) = recover(storage.as_ref())?;
        storage.truncate_log_to(report.valid_log_len).map_err(wal_io)?;
        let wal = Wal::new(storage, mode);
        wal.note_recovery(report.replayed_records as u64);
        Ok((Durable::over(system, wal, report.recovered_version), report))
    }

    /// Builder: checkpoint automatically every `n` batches (`0` = manual only).
    pub fn with_checkpoint_every(mut self, n: u64) -> Durable<S> {
        self.checkpoint_every = n;
        self
    }

    /// The wrapped system.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// The durable logical version: batches applied since genesis.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A handle to the log (for attaching to a query service).
    pub fn wal(&self) -> Wal {
        self.wal.clone()
    }

    /// Commit one batch of ops and log it (write-ahead of any publish the caller
    /// does with the returned state).  A rejected op writes nothing and is still
    /// logged — replay rejects it the same way.
    pub fn apply(&mut self, ops: &[LogOp]) -> Result<u64> {
        apply_batch(&mut self.system, ops.iter().cloned());
        self.version += 1;
        self.wal.append_frame(encode_record(self.version, ops))?;
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(self.version)
    }

    /// Write a checkpoint of the current state and truncate the log.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wal.write_checkpoint(&Checkpoint::capture(&self.system, self.version))?;
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_index::Rect;

    fn sample_ops(step: u64) -> Vec<LogOp> {
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
            LogOp::DefineTerm { name: format!("term-{step}") },
        ]
    }

    /// The op set is pinned at three, none a delete: a fourth op fails to compile
    /// here, so it cannot arrive without this test (and the append-only contract on
    /// [`LogOp`]) being revisited.
    #[test]
    fn the_log_has_three_ops_and_none_removes() {
        let names: Vec<&str> = sample_ops(1)
            .iter()
            .map(|op| match op {
                LogOp::Register { .. } => "register",
                LogOp::Annotate { .. } => "annotate",
                LogOp::DefineTerm { .. } => "define-term",
            })
            .collect();
        assert_eq!(names, ["register", "annotate", "define-term"]);
    }

    /// The byte-at-a-time definition [`crc32`] is sliced from — the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    #[test]
    fn crc_known_answer() {
        // The CRC-32/ISO-HDLC check value: any other polynomial, reflection or
        // final xor — or a mis-built slice table — misses it.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_definition() {
        // Every length around the 8-byte step, at every alignment of the tail...
        let ramp: Vec<u8> = (0..=64u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&ramp[..len]), crc32_bytewise(&ramp[..len]), "length {len}");
        }
        // ...and seeded random payloads up to 64 KiB (splitmix64).
        let mut state = 0x2008_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in [65, 127, 1_000, 4_096, 65_535, 65_536] {
            let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&payload), crc32_bytewise(&payload), "random payload of {len}");
        }
    }

    #[test]
    fn a_json_frame_from_before_the_binary_codec_scans_and_is_an_unsupported_format() {
        // `WalRecord::encode` output captured when records were JSON and `crc32` was
        // byte-at-a-time.  The framing layer still verifies it — CRC values never
        // changed — and the one reader there is names the format it will not read:
        // there is no legacy path behind the format byte.
        let frame = "e30000001ebe79ee7b2276657273696f6e223a372c226469727479223a323637332c226f\
                     7073223a5b7b225265676973746572223a7b22646174615f74797065223a22446e615365\
                     7175656e6365222c226e616d65223a227365712d37222c226d65746164617461223a5b7b\
                     22496e74223a323030307d2c7b2254657874223a22756e6b6e6f776e227d2c7b22466c6f\
                     6174223a302e357d2c7b2254657874223a2263687231227d5d2c227061796c6f6164223a\
                     5b5d2c22646f6d61696e223a2263687231227d7d2c7b22446566696e655465726d223a7b\
                     226e616d65223a227465726d2d37227d7d5d7d";
        let bytes: Vec<u8> = (0..frame.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&frame[i..i + 2], 16).unwrap())
            .collect();
        let scan = scan_frames(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.payloads[0][0], b'{');
        for err in [
            WalRecord::decode(&scan.payloads[0]).expect_err("a JSON record"),
            Checkpoint::decode(&bytes).expect_err("a JSON checkpoint"),
        ] {
            let CoreError::Durability(message) = &err else { panic!("{err:?}") };
            assert!(message.contains("unsupported") && message.contains("0x7b"), "{message}");
        }
        // Every other leading byte is refused the same way, the empty payload too.
        let record = WalRecord { version: 7, dirty: 0, ops: sample_ops(7) }.encode();
        for lead in (0..=255u8).filter(|&b| b != codec::FORMAT) {
            let mut payload = record[FRAME_HEADER..].to_vec();
            payload[0] = lead;
            assert!(matches!(WalRecord::decode(&payload), Err(CoreError::Durability(_))));
        }
        assert!(matches!(WalRecord::decode(&[]), Err(CoreError::Durability(_))));
    }

    #[test]
    fn crc_detects_any_flip_in_a_sample() {
        let payload = b"graphitti wal record";
        let crc = crc32(payload);
        for i in 0..payload.len() {
            let mut copy = payload.to_vec();
            copy[i] ^= 0x40;
            assert_ne!(crc32(&copy), crc, "flip at byte {i} must change the CRC");
        }
    }

    #[test]
    fn frame_scan_round_trips_and_stops_at_torn_tail() {
        let mut log = Vec::new();
        for step in 0..4u64 {
            let record = WalRecord { version: step + 1, dirty: 0, ops: sample_ops(step) };
            log.extend_from_slice(&record.encode());
        }
        let clean = scan_frames(&log);
        assert_eq!(clean.payloads.len(), 4);
        assert!(!clean.torn);
        assert_eq!(clean.valid_len, log.len());

        // Tear the last frame: the first three survive, the scan reports the tear.
        let torn_at = clean.valid_len - 3;
        let torn = scan_frames(&log[..torn_at]);
        assert_eq!(torn.payloads.len(), 3);
        assert!(torn.torn);
        let record = WalRecord::decode(&torn.payloads[2]).expect("valid frame decodes");
        assert_eq!(record.version, 3);

        // Zeros past the last record — a reserved extent, whole or cut short — are
        // the clean end of the log.
        for zeros in [1, FRAME_HEADER - 1, FRAME_HEADER, LOG_EXTENT as usize] {
            let holed = [log.as_slice(), &vec![0; zeros]].concat();
            let scan = scan_frames(&holed);
            assert_eq!((scan.payloads.len(), scan.valid_len), (4, log.len()), "{zeros} zeros");
            assert!(!scan.torn, "{zeros} zeros are no tear");
        }

        // A torn frame followed by zeros is still torn: its header is not zero.
        let holed = [&log[..torn_at], &vec![0; LOG_EXTENT as usize]].concat();
        let scan = scan_frames(&holed);
        assert_eq!((scan.payloads.len(), scan.valid_len), (3, torn.valid_len));
        assert!(scan.torn);
    }

    #[test]
    fn the_wal_never_frames_an_empty_payload() {
        // An empty payload frames to eight zero bytes: the end of the log.
        assert_eq!(encode_frame(&[]), [0; FRAME_HEADER]);
        let scan = scan_frames(&encode_frame(&[]));
        assert!(scan.payloads.is_empty() && scan.valid_len == 0 && !scan.torn);
        // The smallest record — no ops at version 0 — still has its format byte.
        let record = WalRecord { version: 0, dirty: 0, ops: vec![] }.encode();
        assert_eq!(record[FRAME_HEADER..], [codec::FORMAT, 0, 0]);
        assert_eq!(scan_frames(&record).payloads.len(), 1);
        // Every record an empty `apply` logs frames a payload.
        let (storage, handle) = FaultStorage::reliable();
        let mut durable = DurableSystem::create(Box::new(storage), DurabilityMode::Sync);
        durable.apply(&[]).expect("apply");
        assert_eq!(scan_frames(&handle.image_now().log).payloads.len(), 1);
    }

    #[test]
    fn record_encode_decode_round_trip() {
        let record =
            WalRecord { version: 7, dirty: batch_dirty(&sample_ops(3)).bits(), ops: sample_ops(3) };
        let frame = record.encode();
        let scan = scan_frames(&frame);
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(WalRecord::decode(&scan.payloads[0]).expect("round trip"), record);
    }

    #[test]
    fn tampered_frame_with_a_valid_crc_is_a_typed_error_not_a_wrong_version() {
        // Re-framing recomputes the CRC, so only the payload decoder stands between
        // an edited number and a record that claims another version.  The version is
        // the varint right behind the format byte: every other spelling of a number
        // there — overlong, past 64 bits, unterminated — must be refused, because the
        // decoder accepts exactly the bytes the encoder writes.
        let clean = WalRecord { version: 3, dirty: 0, ops: sample_ops(0) }.encode();
        let payload = &clean[FRAME_HEADER..];
        assert_eq!(payload[..2], [codec::FORMAT, 3], "the sample leads with its version");
        let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
        let eleven_bytes = [[0x80; 10].as_slice(), &[0x01]].concat();
        for bad in [&[0x83, 0x00][..], &[0x83, 0x80, 0x00], &overflow, &eleven_bytes, &[0x83]] {
            let tampered = [&payload[..1], bad, &payload[2..]].concat();
            let scan = scan_frames(&encode_frame(&tampered));
            assert_eq!(scan.payloads.len(), 1, "the CRC is valid for the tampered payload");
            // (The lone `0x83` runs on into the op count; what follows no longer adds up.)
            let err = WalRecord::decode(&scan.payloads[0]).expect_err("not the encoder's bytes");
            assert!(matches!(err, CoreError::Durability(_)), "{bad:02x?}: {err:?}");
        }
        // A well-formed edit is simply another record — and says so.
        let edited = [&payload[..1], &[0x04][..], &payload[2..]].concat();
        assert_eq!(WalRecord::decode(&edited).expect("canonical").version, 4);
    }

    #[test]
    fn op_dirty_covers_the_actual_batch_footprint() {
        // The op-derived dirty set must be a superset of what the batch really
        // writes, for every op shape — otherwise a recovery-side cache consumer
        // could under-invalidate — and what the batch reports as written must be
        // exactly what it copied out from under a held snapshot.
        let register = |data_type: DataType, metadata: Vec<Value>| LogOp::Register {
            data_type,
            name: data_type.tag().into(),
            metadata,
            payload: Vec::new(),
            domain: "cs".into(),
        };
        let annotate = |referents: Vec<LogReferent>, terms: Vec<ConceptId>| LogOp::Annotate {
            content: xmlstore::DublinCore::new().field("description", "shape"),
            referents,
            terms,
        };
        let mark =
            |object: u64, marker: Marker| LogReferent::New { object: ObjectId(object), marker };
        // Objects 0..=3: the sample's sequence, an image, a model, a graph.
        let mut ops = sample_ops(0);
        ops.extend([
            register(
                DataType::Image,
                vec![Value::Int(8), Value::Int(8), Value::text("mri"), Value::text("cs")],
            ),
            register(
                DataType::ProteinModel,
                vec![Value::Int(10), Value::Float(1.5), Value::text("cs")],
            ),
            register(DataType::InteractionGraph, vec![Value::Int(4), Value::Int(3)]),
            annotate(vec![mark(1, Marker::region(1.0, 1.0, 4.0, 4.0))], vec![ConceptId(0)]),
            annotate(
                vec![mark(2, Marker::Volume(Rect::new([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])))],
                vec![],
            ),
            annotate(vec![mark(3, Marker::block_set([3, 5]))], vec![]),
            annotate(vec![LogReferent::Existing(ReferentId(0))], vec![]),
            annotate(vec![], vec![ConceptId(0)]),
        ]);
        let accepted = ops.len();
        // Rejected on its only mark, then rejected on its second mark: either way
        // before it writes anything.
        ops.push(annotate(vec![mark(99, Marker::interval(0, 1))], vec![]));
        ops.push(annotate(
            vec![mark(0, Marker::interval(7, 9)), mark(99, Marker::interval(0, 1))],
            vec![],
        ));

        let mut system = Graphitti::new();
        for (i, op) in ops.iter().enumerate() {
            let held = system.snapshot();
            let before = system.component_epochs();
            let mut batch = system.batch();
            assert_eq!(apply_op(&mut batch, op.clone()), i < accepted, "op {op:?}");
            batch.commit();
            let actual = system.component_epochs().changed(before);
            let declared = op.dirty();
            assert_eq!(actual, declared & actual, "op {op:?} under-declares {actual:?}");
            let unshared = Component::ALL
                .into_iter()
                .filter(|&c| !system.view().shares_component(held.view(), c));
            assert_eq!(actual, ComponentSet::of(unshared), "op {op:?}");
            assert_eq!(actual.is_empty(), i >= accepted, "op {op:?} wrote {actual:?}");
        }
    }

    #[test]
    fn group_commit_coalesces_concurrent_batches() {
        let (storage, handle) = FaultStorage::reliable();
        let wal = Wal::new(Box::new(storage), DurabilityMode::Sync);
        let committers = 8;
        let per_thread = 16;
        std::thread::scope(|scope| {
            for t in 0..committers {
                let wal = wal.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let record = WalRecord {
                            version: (t * per_thread + i) as u64 + 1,
                            dirty: 0,
                            ops: vec![LogOp::DefineTerm { name: format!("t{t}-{i}") }],
                        };
                        wal.append_record(&record).expect("append");
                    }
                });
            }
        });
        let stats = wal.stats();
        let (appends, syncs) = io_counts(&handle);
        assert_eq!(stats.records_appended, (committers * per_thread) as u64);
        assert_eq!(appends, stats.records_appended);
        assert_eq!(syncs, stats.fsyncs);
        assert!(
            stats.fsyncs <= stats.records_appended,
            "group commit must never fsync more than once per record: {stats:?}"
        );
        // Every appended frame is intact and none were interleaved mid-frame.
        let scan = scan_frames(&handle.image_now().log);
        assert_eq!(scan.payloads.len(), committers * per_thread);
        assert!(!scan.torn);
    }

    /// `(appends, syncs)` so far — the group-commit observables.
    fn io_counts(handle: &FaultHandle) -> (u64, u64) {
        let inner = fault_state(&handle.inner);
        (inner.appends, inner.syncs)
    }

    /// A [`FaultStorage`] whose next barrier can be made to fail once.
    struct FlakySync {
        storage: FaultStorage,
        fail_next_sync: Arc<std::sync::atomic::AtomicBool>,
    }

    impl WalStorage for FlakySync {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.storage.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            if self.fail_next_sync.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.storage.sync()
        }
        fn read_log(&self) -> io::Result<Vec<u8>> {
            self.storage.read_log()
        }
        fn truncate_log_to(&mut self, len: usize) -> io::Result<()> {
            self.storage.truncate_log_to(len)
        }
        fn write_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.storage.write_checkpoint(bytes)
        }
        fn read_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
            self.storage.read_checkpoint()
        }
    }

    // The `Durable` tests below are one body (`…_on`) run over both instantiations,
    // each handed its `create`.

    fn flush_issues_a_barrier_only_for_bytes_no_barrier_covers_on<S: WriteSystem>(
        create: fn(Box<dyn WalStorage>, DurabilityMode) -> Durable<S>,
    ) {
        let n = 5;

        // Sync: the group commit fsyncs each record, so the publish-side flush after
        // each apply has nothing left to make durable.
        let (storage, handle) = FaultStorage::reliable();
        let mut durable = create(Box::new(storage), DurabilityMode::Sync);
        for step in 0..n {
            durable.apply(&sample_ops(step)).expect("apply");
            durable.wal().flush().expect("flush");
        }
        assert_eq!(io_counts(&handle), (n, n), "Sync: N applies + N flushes = N syncs");
        assert_eq!(durable.wal().stats().fsyncs, n);
        assert_eq!(scan_frames(&handle.image_now().log).payloads.len(), n as usize);

        // Async: appends wait for no barrier; the one flush covers them all, and a
        // second flush with nothing new issues none.
        let (storage, handle) = FaultStorage::reliable();
        let mut durable = create(Box::new(storage), DurabilityMode::Async);
        for step in 0..n {
            durable.apply(&sample_ops(step)).expect("apply");
        }
        assert_eq!(io_counts(&handle), (n, 0));
        assert!(handle.image_now().log.is_empty(), "nothing is durable before the flush");
        durable.wal().flush().expect("flush");
        durable.wal().flush().expect("flush");
        assert_eq!(io_counts(&handle), (n, 1), "Async: N appends + 1 flush = 1 sync");
        assert_eq!(scan_frames(&handle.image_now().log).payloads.len(), n as usize);

        // A checkpoint's own barrier leaves nothing for the next flush either.
        durable.checkpoint().expect("checkpoint");
        durable.wal().flush().expect("flush");
        assert_eq!(io_counts(&handle), (n, 2));
    }

    #[test]
    fn flush_issues_a_barrier_only_for_bytes_no_barrier_covers() {
        flush_issues_a_barrier_only_for_bytes_no_barrier_covers_on(DurableSystem::create);
        flush_issues_a_barrier_only_for_bytes_no_barrier_covers_on(|s, m| {
            DurableShardedSystem::create(s, m, 3)
        });
    }

    fn flush_after_a_failed_barrier_retries_it_on<S: WriteSystem>(
        create: fn(Box<dyn WalStorage>, DurabilityMode) -> Durable<S>,
    ) {
        let (storage, handle) = FaultStorage::reliable();
        let fail_next_sync = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let flaky = FlakySync { storage, fail_next_sync: Arc::clone(&fail_next_sync) };
        let mut durable = create(Box::new(flaky), DurabilityMode::Sync);

        // The record is appended but its barrier fails: the commit reports the error
        // and nothing is durable.
        assert!(durable.apply(&sample_ops(0)).is_err());
        assert_eq!(io_counts(&handle), (1, 0));
        assert!(handle.image_now().log.is_empty());

        // The flush must not mistake the appended bytes for durable ones.
        durable.wal().flush().expect("flush retries the barrier");
        assert_eq!(io_counts(&handle), (1, 1));
        assert_eq!(scan_frames(&handle.image_now().log).payloads.len(), 1);

        // ... and once it succeeded there is nothing left to retry.
        durable.wal().flush().expect("flush");
        assert_eq!(io_counts(&handle), (1, 1));
    }

    #[test]
    fn flush_after_a_failed_barrier_retries_it() {
        flush_after_a_failed_barrier_retries_it_on(DurableSystem::create);
        flush_after_a_failed_barrier_retries_it_on(|s, m| DurableShardedSystem::create(s, m, 3));

        // A failing flush barrier is retried by the next flush too.
        let fail_next_sync = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wal = Wal::new(
            Box::new(FlakySync {
                storage: FaultStorage::reliable().0,
                fail_next_sync: Arc::clone(&fail_next_sync),
            }),
            DurabilityMode::Async,
        );
        let record = WalRecord { version: 1, dirty: 0, ops: sample_ops(0) };
        wal.append_record(&record).expect("append");
        fail_next_sync.store(true, Ordering::SeqCst);
        assert!(wal.flush().is_err());
        wal.flush().expect("retried");
        assert_eq!(wal.stats().fsyncs, 1, "only the barrier that succeeded is counted");
    }

    /// A fresh directory under the system's temp dir, named for the test.
    fn temp_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphitti-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_len(dir: &std::path::Path) -> u64 {
        std::fs::metadata(dir.join("wal.log")).expect("wal.log").len()
    }

    #[test]
    fn file_storage_round_trips_log_and_checkpoint() {
        let dir = temp_dir("wal-test");
        {
            let mut storage = FileStorage::open(&dir).expect("open");
            storage.append(b"hello ").expect("append");
            storage.append(b"wal").expect("append");
            storage.sync().expect("sync");
            storage.write_checkpoint(b"cp-bytes").expect("checkpoint");
            // The log is its logical bytes; the file runs on to the extent boundary.
            assert_eq!(storage.read_log().expect("read"), b"hello wal");
            assert_eq!(file_len(&dir), LOG_EXTENT);
            storage.truncate_log_to(5).expect("truncate");
            assert_eq!(storage.read_log().expect("read"), b"hello");
            assert_eq!(file_len(&dir), LOG_EXTENT);
        }
        // Closing trims the file to the log.
        assert_eq!(file_len(&dir), 5);
        let mut storage = FileStorage::open(&dir).expect("reopen");
        assert_eq!(storage.read_log().expect("read"), b"hello");
        assert_eq!(storage.read_checkpoint().expect("read"), Some(b"cp-bytes".to_vec()));
        // An append into a trimmed file reserves the next extent and lands at the end.
        storage.append(b"!").expect("append");
        assert_eq!(storage.read_log().expect("read"), b"hello!");
        assert_eq!(file_len(&dir), LOG_EXTENT);
        drop(storage);
        assert_eq!(std::fs::read(dir.join("wal.log")).expect("read"), b"hello!");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_that_keeps_the_reserved_hole_recovers_every_record() {
        let dir = temp_dir("wal-hole");
        let n = 6;
        let mut durable = DurableSystem::create(
            Box::new(FileStorage::open(&dir).expect("open")),
            DurabilityMode::Sync,
        );
        for step in 0..n {
            durable.apply(&sample_ops(step)).expect("apply");
        }
        let live = durable.system().study_snapshot();
        // A crash: no trim, the file still runs on to the extent boundary in zeros.
        std::mem::forget(durable);
        assert_eq!(file_len(&dir), LOG_EXTENT);

        let storage = FileStorage::open(&dir).expect("reopen");
        let (mut durable, report) =
            DurableSystem::open(Box::new(storage), DurabilityMode::Sync).expect("recover");
        assert_eq!((report.recovered_version, report.replayed_records), (n, n as usize));
        assert!(!report.torn_tail, "the hole is the end of the log, not a tear");
        assert_eq!(durable.system().study_snapshot(), live);

        // One more commit lands after the last record, not after the hole.
        durable.apply(&sample_ops(n)).expect("apply");
        let live = durable.system().study_snapshot();
        drop(durable);
        let storage = FileStorage::open(&dir).expect("reopen");
        let (recovered, report) = crate::recover_unsharded(&storage).expect("recover");
        assert_eq!((report.recovered_version, report.replayed_records), (n + 1, n as usize + 1));
        assert!(!report.torn_tail);
        assert_eq!(report.valid_log_len as u64, file_len(&dir), "closed: exactly the records");
        assert_eq!(recovered.study_snapshot(), live);
        drop(storage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncation_leaves_no_old_frame_past_the_new_end() {
        // A checkpoint truncates the log to nothing; the next record is shorter than
        // the ones it replaces.  After a crash the bytes past it must read as zeros,
        // not as the tail of an old frame.
        let dir = temp_dir("wal-truncate");
        let mut storage = FileStorage::open(&dir).expect("open");
        for step in 0..3 {
            storage
                .append(&WalRecord { version: step + 1, dirty: 0, ops: sample_ops(step) }.encode())
                .expect("append");
        }
        storage.sync().expect("sync");
        storage.truncate_log_to(0).expect("truncate");
        let short = WalRecord { version: 4, dirty: 0, ops: vec![] }.encode();
        storage.append(&short).expect("append");
        storage.sync().expect("sync");
        std::mem::forget(storage);
        let scan = scan_frames(&std::fs::read(dir.join("wal.log")).expect("read"));
        assert_eq!((scan.payloads.len(), scan.valid_len, scan.torn), (1, short.len(), false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
