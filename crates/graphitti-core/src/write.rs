//! [`WriteSystem`] — the write surface an unsharded [`Graphitti`] and a
//! [`ShardedSystem`] share.
//!
//! The two deployments differ in *where* a write lands (one view, or a routed shard
//! plus its id maps), not in what a write is.  Everything layered on the
//! primitives — the [`AnnotationBuilder`], the [`Batch`], the registration
//! conveniences, study replay, WAL op application and the
//! [`Durable`](crate::wal::Durable) wrapper with its recovery — is written once against
//! this trait and monomorphised per system, the way `graphitti_query::CollateView`
//! lets one collator serve both read sides.  Ids are the system's own throughout:
//! global ids on a sharded system.

use std::sync::Arc;

use ontology::Ontology;
use relstore::Value;

use crate::annotation::{AnnotationBuilder, AnnotationId, AnnotationSpec};
use crate::batch::Batch;
use crate::referent::ReferentId;
use crate::shard::ShardedSystem;
use crate::study::StudySnapshot;
use crate::system::{Graphitti, ObjectId};
use crate::types::DataType;
use crate::Result;

/// The write surface of a Graphitti deployment, sharded or not.
///
/// The `#[doc(hidden)]` methods are the entry points of this crate's builder, batch
/// and durable wrapper; call those instead — batch mode in particular is meant to be
/// entered only through a [`Batch`]'s exclusive borrow.
pub trait WriteSystem: Sized {
    /// Register a data object with raw metadata values (matching the type's default
    /// schema, minus the trailing `payload` blob which is supplied separately) and
    /// return its id.  `domain` is the coordinate domain / system for its substructures.
    fn register_object(
        &mut self,
        data_type: DataType,
        name: impl Into<String>,
        metadata: Vec<Value>,
        payload: Arc<[u8]>,
        domain: impl Into<String>,
    ) -> Result<ObjectId>;

    /// Apply an edit to the ontology and return what it returns (say, the id of a
    /// concept it added).  The closure must be deterministic: a sharded system runs it
    /// once per replica, and every replica's result is the same.
    fn ontology_edit<R>(&mut self, edit: impl Fn(&mut Ontology) -> R) -> R;

    /// The referents an annotation links, in link order.
    fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>>;

    /// Capture the current state as a serialisable, replayable [`StudySnapshot`].
    fn study_snapshot(&self) -> StudySnapshot;

    /// Commit one annotation spec (called by [`AnnotationBuilder::commit`]).
    #[doc(hidden)]
    fn commit_annotation(&mut self, spec: AnnotationSpec) -> Result<AnnotationId>;

    /// Enter batch mode (called by [`Batch`]): until [`end_batch`](Self::end_batch),
    /// all write attempts share one version bump (per touched shard, when sharded).
    #[doc(hidden)]
    fn begin_batch(&mut self);

    /// Leave batch mode: versioning returns to one bump per write attempt.
    #[doc(hidden)]
    fn end_batch(&mut self);

    /// The shard count a [`Checkpoint`](crate::wal::Checkpoint) of this system records
    /// (`0` = unsharded).
    #[doc(hidden)]
    fn checkpoint_shards(&self) -> usize;

    /// Convenience: register a 1-D sequence object (DNA / RNA / protein) of a given
    /// length under a coordinate domain (e.g. its chromosome).
    fn register_sequence(
        &mut self,
        name: impl Into<String>,
        data_type: DataType,
        length: u64,
        domain: impl Into<String>,
    ) -> ObjectId {
        let domain = domain.into();
        let metadata = data_type.sequence_row(length, &domain);
        self.register_object(data_type, name, metadata, Arc::default(), domain)
            .expect("sequence registration")
    }

    /// Convenience: register a 2-D image object under a coordinate system.
    fn register_image(
        &mut self,
        name: impl Into<String>,
        width: u64,
        height: u64,
        modality: impl Into<String>,
        coordinate_system: impl Into<String>,
    ) -> ObjectId {
        let cs = coordinate_system.into();
        self.register_object(
            DataType::Image,
            name,
            vec![
                Value::Int(width as i64),
                Value::Int(height as i64),
                Value::text(modality.into()),
                Value::text(cs.clone()),
            ],
            Arc::default(),
            cs,
        )
        .expect("image registration")
    }

    /// Begin building an annotation.
    fn annotate(&mut self) -> AnnotationBuilder<'_, Self> {
        AnnotationBuilder::new(self)
    }

    /// Begin a batched write.  Every register / annotate staged through the returned
    /// [`Batch`] shares **one** version bump (one coalesced epoch bump per *touched*
    /// shard, when sharded), so a writer streaming many commits publishes one new
    /// version per batch — and a downstream epoch-keyed result cache (the query
    /// service's) invalidates once per batch instead of once per call.  The exclusive
    /// borrow means no snapshot or cut can be captured until the batch ends.
    fn batch(&mut self) -> Batch<'_, Self> {
        Batch::new(self)
    }
}

/// Inherent spellings of the trait's entry points on each implementor, so the call
/// sites — `sys.register_sequence(..)`, `sys.annotate()`, `sys.batch()` — need no
/// trait import.
macro_rules! inherent_entry_points {
    ($system:ty) => {
        impl $system {
            /// Register a data object (see [`WriteSystem::register_object`]).
            pub fn register_object(
                &mut self,
                data_type: DataType,
                name: impl Into<String>,
                metadata: Vec<Value>,
                payload: Arc<[u8]>,
                domain: impl Into<String>,
            ) -> Result<ObjectId> {
                WriteSystem::register_object(self, data_type, name, metadata, payload, domain)
            }

            /// Register a 1-D sequence object (see [`WriteSystem::register_sequence`]).
            pub fn register_sequence(
                &mut self,
                name: impl Into<String>,
                data_type: DataType,
                length: u64,
                domain: impl Into<String>,
            ) -> ObjectId {
                WriteSystem::register_sequence(self, name, data_type, length, domain)
            }

            /// Register a 2-D image object (see [`WriteSystem::register_image`]).
            pub fn register_image(
                &mut self,
                name: impl Into<String>,
                width: u64,
                height: u64,
                modality: impl Into<String>,
                coordinate_system: impl Into<String>,
            ) -> ObjectId {
                WriteSystem::register_image(self, name, width, height, modality, coordinate_system)
            }

            /// Begin building an annotation (see [`WriteSystem::annotate`]).
            pub fn annotate(&mut self) -> AnnotationBuilder<'_, Self> {
                WriteSystem::annotate(self)
            }

            /// Begin a batched write (see [`WriteSystem::batch`]).
            pub fn batch(&mut self) -> Batch<'_, Self> {
                WriteSystem::batch(self)
            }
        }
    };
}

inherent_entry_points!(Graphitti);
inherent_entry_points!(ShardedSystem);
