//! [`Batch`] — the batched write API ([`CommitBatch`] over a [`Graphitti`],
//! [`ShardedBatch`] over a [`ShardedSystem`]).
//!
//! The annotation workload is read-dominated but never read-only: curators keep
//! registering objects and attaching annotations while queries are served.  Committing
//! each write as its own version makes every downstream consumer pay per call — one
//! epoch bump per mutation means one result-cache invalidation per `publish`, and a
//! register/annotate *stream* would force a publish storm to stay fresh.
//!
//! A [`Batch`] coalesces that: obtained from [`Graphitti::batch`] or
//! [`ShardedSystem::batch`], it stages any number of registers / annotates and takes
//! **one** epoch bump for the whole batch (lazily, on the first write attempt; on a
//! sharded system one per *touched* shard, under one logical version bump), which
//! every component the batch writes is stamped with — so the batch's dirty set is
//! "the components carrying its epoch", with no accumulator to keep in step.  The
//! writer then publishes the post-batch snapshot or cut once, and the query service's
//! epoch-keyed result cache is invalidated once per batch rather than once per call.
//!
//! Epoch coherence is preserved by the borrow checker, not by convention: the batch
//! exclusively borrows the system, so no [`Snapshot`](crate::Snapshot) or
//! [`ShardCut`](crate::ShardCut) can be captured between the batch's intermediate
//! states — the coalesced epoch only ever names the final, post-batch state.  (A
//! [`CommitBatch`] derefs to [`SystemView`], so reads — lookups, counts, integrity
//! checks — remain available while staging; a sharded system has no single view to
//! deref to, so a [`ShardedBatch`] reads through
//! [`annotation_referents`](Batch::annotation_referents) only.)
//!
//! ```
//! use graphitti_core::{DataType, Graphitti, Marker};
//!
//! let mut sys = Graphitti::new();
//! let seq = sys.register_sequence("s", DataType::DnaSequence, 10_000, "chr1");
//! let epoch_before = sys.epoch();
//!
//! let mut batch = sys.batch();
//! for i in 0..100u64 {
//!     batch
//!         .annotate()
//!         .comment(format!("site {i}"))
//!         .mark(seq, Marker::interval(i * 10, i * 10 + 5))
//!         .commit()
//!         .unwrap();
//! }
//! let staged = batch.commit();
//! assert_eq!(staged, 100);
//! assert_eq!(sys.epoch(), epoch_before + 1); // one version for the whole batch
//! ```

use ontology::Ontology;
use relstore::Value;
use std::sync::Arc;

use crate::annotation::{AnnotationBuilder, AnnotationId, AnnotationSpec};
use crate::referent::ReferentId;
use crate::shard::ShardedSystem;
use crate::system::{Graphitti, ObjectId, SystemView};
use crate::types::DataType;
use crate::write::WriteSystem;
use crate::Result;

/// A batched write in progress: registers and annotates staged through it share a
/// single version bump, taken on the first write attempt.  Ending the batch (via
/// [`commit`](Batch::commit) or drop) returns the system to per-mutation versioning.
///
/// There is deliberately **no** way to capture a [`Snapshot`](crate::Snapshot) or a
/// cut mid-batch (see the [module docs](self)).
#[derive(Debug)]
pub struct Batch<'a, S: WriteSystem> {
    system: &'a mut S,
    staged: u64,
}

/// A batch over an unsharded [`Graphitti`]; derefs to [`SystemView`] for reads.
pub type CommitBatch<'a> = Batch<'a, Graphitti>;

/// A logical batch over a [`ShardedSystem`]: one coalesced sub-batch per touched shard.
pub type ShardedBatch<'a> = Batch<'a, ShardedSystem>;

impl<'a, S: WriteSystem> Batch<'a, S> {
    pub(crate) fn new(system: &'a mut S) -> Self {
        system.begin_batch();
        Batch { system, staged: 0 }
    }

    /// Register a data object (see [`WriteSystem::register_object`]).
    pub fn register_object(
        &mut self,
        data_type: DataType,
        name: impl Into<String>,
        metadata: Vec<Value>,
        payload: Arc<[u8]>,
        domain: impl Into<String>,
    ) -> Result<ObjectId> {
        self.staged += 1;
        self.system.register_object(data_type, name, metadata, payload, domain)
    }

    /// Register a 1-D sequence object (see [`WriteSystem::register_sequence`]).
    pub fn register_sequence(
        &mut self,
        name: impl Into<String>,
        data_type: DataType,
        length: u64,
        domain: impl Into<String>,
    ) -> ObjectId {
        self.staged += 1;
        self.system.register_sequence(name, data_type, length, domain)
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
        self.staged += 1;
        self.system.register_image(name, width, height, modality, coordinate_system)
    }

    /// Begin building an annotation inside the batch.  Committing the builder counts
    /// as one staged write.
    pub fn annotate(&mut self) -> AnnotationBuilder<'_, S> {
        self.staged += 1;
        AnnotationBuilder::new(self.system)
    }

    /// Commit an annotation spec assembled from rows the caller owns (study replay,
    /// log apply), moving them in; one staged write, as a builder's commit is.
    pub(crate) fn commit_annotation(&mut self, spec: AnnotationSpec) -> Result<AnnotationId> {
        self.staged += 1;
        self.system.commit_annotation(spec)
    }

    /// Apply a deterministic edit to the ontology (see
    /// [`WriteSystem::ontology_edit`]); the write shares the batch's single version
    /// bump and counts as one staged write.
    pub fn ontology_edit<R>(&mut self, edit: impl Fn(&mut Ontology) -> R) -> R {
        self.staged += 1;
        self.system.ontology_edit(edit)
    }

    /// The referents an annotation links (readable mid-batch).
    pub fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>> {
        self.system.annotation_referents(id)
    }

    /// Finish the batch, returning the number of staged writes.  Equivalent to
    /// dropping it, but reads as a commit point at call sites.
    pub fn commit(mut self) -> u64 {
        std::mem::take(&mut self.staged)
        // Drop runs next and ends batch mode on the system.
    }
}

impl<S: WriteSystem> Drop for Batch<'_, S> {
    fn drop(&mut self) {
        self.system.end_batch();
    }
}

impl std::ops::Deref for CommitBatch<'_> {
    type Target = SystemView;

    fn deref(&self) -> &SystemView {
        self.system.view()
    }
}

impl CommitBatch<'_> {
    /// Mutable access to the ontology (see [`Graphitti::ontology_mut`]); the write
    /// shares the batch's single epoch bump and counts as one staged write.
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        self.staged += 1;
        self.system.ontology_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::ComponentSet;
    use crate::marker::Marker;
    use crate::system::Component;

    fn seeded() -> (Graphitti, ObjectId) {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 100_000, "chr1");
        (sys, seq)
    }

    #[test]
    fn batch_bumps_epoch_once() {
        let (mut sys, seq) = seeded();
        let before = sys.epoch();
        let mut batch = sys.batch();
        for i in 0..10u64 {
            batch
                .annotate()
                .comment("batched")
                .mark(seq, Marker::interval(i * 10, i * 10 + 5))
                .commit()
                .unwrap();
        }
        assert_eq!(batch.commit(), 10);
        assert_eq!(sys.epoch(), before + 1);
        assert_eq!(sys.annotation_count(), 10);
    }

    #[test]
    fn empty_batch_leaves_epoch_unchanged() {
        let (mut sys, _) = seeded();
        let before = sys.epoch();
        assert_eq!(sys.batch().commit(), 0);
        assert_eq!(sys.epoch(), before);
        // versioning returns to per-mutation afterwards
        sys.register_sequence("t", DataType::DnaSequence, 10, "chr2");
        assert_eq!(sys.epoch(), before + 1);
    }

    #[test]
    fn batch_mixes_registers_and_annotates() {
        let (mut sys, seq) = seeded();
        let before = sys.epoch();
        let mut batch = sys.batch();
        let img = batch.register_image("brain", 64, 64, "mri", "cs");
        batch
            .annotate()
            .comment("cross-type")
            .mark(seq, Marker::interval(0, 10))
            .mark(img, Marker::region(1.0, 1.0, 5.0, 5.0))
            .commit()
            .unwrap();
        let seq2 = batch.register_sequence("s2", DataType::ProteinSequence, 500, "chr1");
        batch.annotate().comment("p").mark(seq2, Marker::interval(5, 9)).commit().unwrap();
        assert_eq!(batch.commit(), 4);
        assert_eq!(sys.epoch(), before + 1);
        assert_eq!(sys.object_count(), 3);
        assert_eq!(sys.annotation_count(), 2);
        assert!(sys.verify_integrity().is_empty());
    }

    #[test]
    fn batch_reads_observe_staged_writes() {
        let (mut sys, seq) = seeded();
        let mut batch = sys.batch();
        batch.annotate().comment("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        // Deref to SystemView: staged state is readable mid-batch.
        assert_eq!(batch.annotation_count(), 1);
        let rid = batch.annotation(crate::AnnotationId(0)).unwrap().referents[0];
        batch.annotate().comment("y").mark_existing(rid).commit().unwrap();
        drop(batch);
        assert_eq!(sys.related_annotations(crate::AnnotationId(0)), vec![crate::AnnotationId(1)]);
    }

    #[test]
    fn drop_without_commit_still_ends_batch_mode() {
        let (mut sys, seq) = seeded();
        let before = sys.epoch();
        {
            let mut batch = sys.batch();
            batch.annotate().comment("z").mark(seq, Marker::interval(0, 5)).commit().unwrap();
        } // dropped, not committed — the writes stay (batching coalesces versions, it
          // is not transactional rollback)
        assert_eq!(sys.annotation_count(), 1);
        assert_eq!(sys.epoch(), before + 1);
        sys.register_image("i", 8, 8, "mri", "cs");
        assert_eq!(sys.epoch(), before + 2);
    }

    #[test]
    fn failed_writes_in_batch_still_take_the_single_bump() {
        let (mut sys, _) = seeded();
        let before = sys.epoch();
        let mut batch = sys.batch();
        // Unknown object: the commit fails, but the write attempt versioned the state
        // (conservative, matching the non-batched epoch policy).
        let err =
            batch.annotate().comment("bad").mark(ObjectId(99), Marker::interval(0, 1)).commit();
        assert!(err.is_err());
        drop(batch);
        assert_eq!(sys.epoch(), before + 1);
    }

    #[test]
    fn batch_accumulates_its_dirty_set() {
        let (mut sys, seq) = seeded();
        let snap = sys.snapshot();
        let epochs_before = snap.component_epochs();

        // An ingest-only batch dirties exactly the registration path...
        let mut batch = sys.batch();
        batch.register_sequence("a", DataType::DnaSequence, 100, "chr1");
        batch.register_sequence("b", DataType::ProteinSequence, 100, "chr2");
        batch.commit();
        let after = sys.snapshot();
        let ingest_dirty = after.component_epochs().changed(epochs_before);
        assert_eq!(ingest_dirty, ComponentSet::of([Component::Objects, Component::Indexes]));
        // ...at the coalesced epoch.
        for c in ingest_dirty.iter() {
            assert_eq!(after.component_epochs().get(c), sys.epoch());
        }
        // The dirty set matches the structural-sharing footprint: a component is
        // un-shared with the pre-batch snapshot iff the batch reports it dirty.
        for c in Component::ALL {
            assert_eq!(
                !sys.view().shares_component(snap.view(), c),
                ingest_dirty.contains(c),
                "{c:?}: dirty-set / copy-footprint mismatch"
            );
        }

        // A mixed batch accumulates the union across write kinds.
        let before_mixed = sys.component_epochs();
        let mut batch = sys.batch();
        batch.register_image("img", 8, 8, "mri", "cs");
        batch.annotate().comment("x").mark(seq, Marker::interval(0, 5)).commit().unwrap();
        batch.commit();
        let mixed_dirty = sys.component_epochs().changed(before_mixed);
        assert!(mixed_dirty.contains(Component::Objects));
        assert!(mixed_dirty.contains(Component::Content));
        assert!(mixed_dirty.contains(Component::Intervals));
        assert!(!mixed_dirty.contains(Component::Spatial));
        assert!(!mixed_dirty.contains(Component::Ontology));
    }

    #[test]
    fn snapshot_isolation_across_a_batch() {
        let (mut sys, seq) = seeded();
        let snap = sys.snapshot();
        let mut batch = sys.batch();
        for i in 0..5u64 {
            batch
                .annotate()
                .comment("late")
                .mark(seq, Marker::interval(i * 100, i * 100 + 50))
                .commit()
                .unwrap();
        }
        drop(batch);
        assert_eq!(snap.annotation_count(), 0);
        assert_eq!(sys.annotation_count(), 5);
        assert!(sys.epoch() > snap.epoch());
    }
}
