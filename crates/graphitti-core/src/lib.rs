//! # graphitti-core — the annotation model and system facade
//!
//! This crate is the paper's primary contribution: an annotation platform where a
//! scientist creates and searches annotations on *heterogeneous* data.  It treats an
//! annotation as a "linker object" connecting annotation content (the comment) to one
//! or more annotation referents (marked substructures of data objects) and to ontology
//! terms, inducing the **a-graph** — the connection structure that associates
//! substructures of all other data types.
//!
//! The module layout:
//!
//! * [`types`] — the heterogeneous data-type taxonomy and per-type schemas;
//! * [`marker`] — the substructure markers (interval, region, volume, block-set) the
//!   annotation tab uses, and the `SubX` substructure abstraction with the paper's
//!   `ifOverlap` / `next` / `intersect` operators;
//! * [`referent`] — a referent: a marked substructure of a specific object;
//! * [`annotation`] — the annotation content model and the fluent annotation builder;
//! * [`indexes`] — the inverted secondary indexes (term postings, type → objects /
//!   referents, block → referents, referent → annotations) and workload [`Stats`], maintained
//!   incrementally so the query planner and executor never scan the registries;
//! * [`system`] — [`SystemView`], the complete read state, and [`Graphitti`], the
//!   mutation facade over an `Arc`-shared view that implements register / annotate /
//!   explore with copy-on-publish semantics;
//! * [`snapshot`] — [`Snapshot`], the isolated read handle concurrent query workers
//!   execute against (readers never block writers, never see torn state);
//! * [`mod@write`] — [`WriteSystem`], the write surface [`Graphitti`] and
//!   [`ShardedSystem`] share; the builder, the batch, study replay, WAL apply and the
//!   durable wrapper are written once against it;
//! * [`batch`] — [`Batch`] ([`CommitBatch`] / [`ShardedBatch`]), the batched write
//!   API: many registers / annotates coalesced into one epoch bump, so a writer
//!   streaming commits publishes (and invalidates downstream caches) once per batch;
//! * [`epoch`] — per-component versioning: the wrapper that keeps a component's
//!   last-write epoch beside its storage and makes `write(epoch)` the only way to
//!   mutate it, [`ComponentSet`] dirty sets / read footprints and the
//!   [`EpochVector`] every snapshot carries, so downstream caches can invalidate per
//!   dirtied component instead of wholesale;
//! * [`shard`] — [`ShardedSystem`], hash-partitioned scale-out: N independent shards
//!   (annotations / referents / content partitioned by anchor-object hash, object
//!   metadata and the ontology replicated), a global-id router, the global collation
//!   mirror, and [`ShardCut`], the consistent cross-shard read handle;
//! * [`study`] — [`StudySnapshot`], the serialisable export / import format for saving
//!   and reloading a study;
//! * [`codec`] — the one bounds-checked binary cursor (shared with the wire protocol),
//!   in-place CRC framing, and the canonical varint layout of WAL records and
//!   checkpoints.
//!
//! See the crate `README` and `examples/` for end-to-end usage.

pub mod annotation;
pub mod batch;
pub mod codec;
pub mod epoch;
pub mod error;
pub mod indexes;
pub mod marker;
pub mod recovery;
pub mod referent;
pub mod shard;
pub mod snapshot;
pub mod study;
pub mod system;
pub mod types;
pub mod wal;
pub mod write;

pub use annotation::{Annotation, AnnotationBuilder, AnnotationId};
pub use batch::{Batch, CommitBatch, ShardedBatch};
pub use epoch::{ComponentSet, EpochVector};
pub use error::CoreError;
pub use indexes::{Indexes, Stats};
pub use marker::{Marker, SubX};
pub use recovery::{recover_sharded, recover_unsharded, RecoveryReport};
pub use referent::{Referent, ReferentId};
pub use shard::{ShardCut, ShardedSystem};
pub use snapshot::Snapshot;
pub use study::{AnnotationSnapshot, Created, ObjectSnapshot, ReferentSnapshot, StudySnapshot};
pub use system::{Component, Entity, Graphitti, ObjectId, ObjectInfo, SystemView};
pub use types::{DataType, Dimensionality};
pub use wal::{
    Checkpoint, CrashImage, CrashPoint, DurabilityMode, Durable, DurableShardedSystem,
    DurableSystem, FaultHandle, FaultStorage, FileStorage, LogOp, LogReferent, MemStorage, Wal,
    WalRecord, WalStats, WalStorage,
};
pub use write::WriteSystem;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

// Re-export the substrate crates so downstream code can name their types through core.
pub use agraph;
pub use chunked;
pub use interval_index;
pub use ontology;
pub use relstore;
pub use spatial_index;
pub use xmlstore;
