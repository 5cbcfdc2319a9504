//! [`Snapshot`] — the isolated read handle the concurrent query path executes against.
//!
//! A snapshot is a cheaply cloneable, `Send + Sync` handle to one published version of
//! the system state: an `Arc` over the full [`SystemView`] plus the epoch at which it
//! was captured.  Capturing ([`Graphitti::snapshot`]) is an `Arc` clone — O(1), no
//! locking; the first mutation after a capture copies the state out from under every
//! outstanding snapshot (`Arc::make_mut` copy-on-publish), so
//!
//! * **readers never block writers** — a query thread holding a snapshot costs the
//!   writer a copy of the chunks its next commit writes, never of the corpus;
//! * **readers never see torn state** — a snapshot is immutable for its whole life; a
//!   writer committing mid-query cannot change what the query observes;
//! * **epochs identify versions** — two snapshots with equal epochs from the same
//!   system are views of identical state;
//! * **component epochs identify *partial* versions** — each snapshot carries the
//!   per-component [`EpochVector`](crate::EpochVector): two snapshots of one system
//!   agreeing on a component set's epochs observe identical query-visible state
//!   through those components, which is what lets the query service's result cache
//!   invalidate per dirtied component instead of wholesale on every publish.
//!
//! Not to be confused with [`StudySnapshot`](crate::StudySnapshot), the serialisable
//! export format for saving and reloading a study.

use std::sync::Arc;

use crate::epoch::{ComponentSet, EpochVector};
use crate::system::SystemView;

/// An isolated, immutable read snapshot of a Graphitti system.
///
/// Derefs to [`SystemView`], so the entire read API (lookups, exploration,
/// substructure queries) works on a snapshot exactly as on the live system.  Clone is
/// an `Arc` bump — hand one to every worker thread.
///
/// Besides the global epoch, a snapshot carries the system's per-component
/// [`EpochVector`] and lineage id at capture time: within one lineage, two snapshots
/// agreeing on a set of components' epochs observe identical query-visible state
/// through those components — the validity test a footprint-keyed result cache uses.
#[derive(Debug, Clone)]
pub struct Snapshot {
    view: Arc<SystemView>,
    epoch: u64,
    epochs: EpochVector,
    system_id: u64,
}

impl std::ops::Deref for Snapshot {
    type Target = SystemView;

    fn deref(&self) -> &SystemView {
        &self.view
    }
}

impl Snapshot {
    /// Wrap a published view (called by [`Graphitti::snapshot`](crate::Graphitti::snapshot)),
    /// reading its eleven component stamps into a by-value [`EpochVector`] once, so
    /// every later footprint comparison is array loads and never touches the view.
    pub(crate) fn capture(view: Arc<SystemView>, epoch: u64, system_id: u64) -> Snapshot {
        let epochs = view.component_epochs();
        Snapshot { view, epoch, epochs, system_id }
    }

    /// The epoch of the system state this snapshot captured.  Mutations bump the
    /// system's epoch, so an outdated snapshot is detectable by comparing epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying shared view (rarely needed directly — `Snapshot` derefs to it).
    pub fn view(&self) -> &SystemView {
        &self.view
    }

    /// The per-component epoch vector at capture time: for each
    /// [`Component`](crate::Component), the
    /// global epoch of the last write that dirtied it.
    pub fn component_epochs(&self) -> EpochVector {
        self.epochs
    }

    /// The lineage id of the system this snapshot was captured from (see
    /// [`Graphitti::system_id`](crate::Graphitti::system_id)).
    pub fn system_id(&self) -> u64 {
        self.system_id
    }

    /// Whether two snapshots are views of the same published state.
    pub fn same_epoch(&self, other: &Snapshot) -> bool {
        self.epoch == other.epoch && Arc::ptr_eq(&self.view, &other.view)
    }

    /// Whether two snapshots come from the same system lineage — the precondition for
    /// any epoch comparison between them.
    pub fn same_system(&self, other: &Snapshot) -> bool {
        self.system_id == other.system_id
    }

    /// The components whose epochs differ between the two snapshots: for snapshots of
    /// the same lineage, exactly the components dirtied by the writes between them.
    /// Meaningless across lineages — gate on [`same_system`](Self::same_system) first.
    pub fn changed_components(&self, other: &Snapshot) -> ComponentSet {
        self.epochs.changed(other.epochs)
    }

    /// Whether the two snapshots observe identical query-visible state through every
    /// component of `footprint`: same lineage and agreeing footprint epochs.  This is
    /// the result-cache validity test — a cached answer whose plan reads only
    /// `footprint` is still correct for `other` when this holds.
    pub fn agrees_on(&self, other: &Snapshot, footprint: ComponentSet) -> bool {
        self.same_system(other) && self.epochs.agrees_on(other.epochs, footprint)
    }
}

// Snapshots cross thread boundaries in the query service's worker pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use crate::marker::Marker;
    use crate::system::Graphitti;
    use crate::types::DataType;

    fn annotated_system(n: u64) -> Graphitti {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 10_000, "chr1");
        for i in 0..n {
            sys.annotate()
                .comment(format!("note {i}"))
                .mark(seq, Marker::interval(i * 10, i * 10 + 5))
                .commit()
                .unwrap();
        }
        sys
    }

    #[test]
    fn capture_is_zero_copy_until_mutation() {
        let sys = annotated_system(3);
        let snap = sys.snapshot();
        // same Arc: no clone happened at capture time
        assert!(std::ptr::eq(snap.view() as *const _, sys.view() as *const _));
        assert_eq!(snap.epoch(), sys.epoch());
        assert!(snap.same_epoch(&sys.snapshot()));
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut sys = annotated_system(2);
        let snap = sys.snapshot();
        let epoch_before = sys.epoch();
        assert_eq!(snap.annotation_count(), 2);

        // writer commits mid-flight: the snapshot's state must not move
        let seq = snap.objects()[0].id;
        sys.annotate().comment("late").mark(seq, Marker::interval(500, 600)).commit().unwrap();
        sys.register_image("brain", 64, 64, "mri", "cs");

        assert_eq!(snap.annotation_count(), 2);
        assert_eq!(snap.object_count(), 1);
        assert_eq!(sys.annotation_count(), 3);
        assert_eq!(sys.object_count(), 2);
        assert!(sys.epoch() > epoch_before);
        assert_eq!(snap.epoch(), epoch_before);
        // the diverged copies are both internally consistent
        assert!(snap.verify_integrity().is_empty());
        assert!(sys.verify_integrity().is_empty());
    }

    #[test]
    fn epoch_bumps_on_every_commit_point() {
        let mut sys = Graphitti::new();
        let e0 = sys.epoch();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 100, "chr1");
        let e1 = sys.epoch();
        assert!(e1 > e0);
        sys.annotate().comment("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        assert!(sys.epoch() > e1);
    }

    #[test]
    fn clones_share_the_view() {
        let sys = annotated_system(1);
        let a = sys.snapshot();
        let b = a.clone();
        assert!(a.same_epoch(&b));
        assert_eq!(a.annotation_count(), b.annotation_count());
    }

    #[test]
    fn component_epochs_track_dirty_sets_per_publish() {
        use crate::epoch::ComponentSet;
        use crate::system::Component;

        let mut sys = annotated_system(1);
        let before = sys.snapshot();

        // A registration dirties exactly the registration path; everything a query
        // answer can depend on keeps its epoch.
        sys.register_sequence("late", DataType::DnaSequence, 500, "chr2");
        let after_register = sys.snapshot();
        assert!(before.same_system(&after_register));
        assert_eq!(
            after_register.changed_components(&before),
            ComponentSet::of([
                Component::Agraph,
                Component::Objects,
                Component::NodeMaps,
                Component::Indexes,
            ])
        );
        assert!(before.agrees_on(
            &after_register,
            ComponentSet::of([Component::Content, Component::Annotations, Component::Referents])
        ));

        // An annotate moves the annotation path — content entries can no longer agree.
        let seq = sys.objects()[0].id;
        sys.annotate().comment("x").mark(seq, Marker::interval(0, 9)).commit().unwrap();
        let after_annotate = sys.snapshot();
        let changed = after_annotate.changed_components(&after_register);
        assert!(changed.contains(Component::Content));
        assert!(changed.contains(Component::Annotations));
        assert!(changed.contains(Component::Referents));
        assert!(!changed.contains(Component::Objects));
        assert!(
            !after_register.agrees_on(&after_annotate, ComponentSet::of([Component::Annotations]))
        );
        // ... while spatial-free systems never move the spatial index's epoch
        assert_eq!(after_annotate.component_epochs().get(Component::Spatial), 0);
    }

    #[test]
    fn distinct_systems_never_agree_on_any_footprint() {
        use crate::epoch::ComponentSet;

        let a = annotated_system(2).snapshot();
        let b = annotated_system(2).snapshot();
        assert!(!a.same_system(&b));
        // identical epoch vectors, but different lineages: agreement must be refused
        assert!(a.changed_components(&b).is_empty());
        assert!(!a.agrees_on(&b, ComponentSet::all()));
    }

    #[test]
    fn snapshot_usable_across_threads() {
        let sys = annotated_system(4);
        let snap = sys.snapshot();
        let counts: Vec<usize> = std::thread::scope(|s| {
            (0..3)
                .map(|_| {
                    let snap = snap.clone();
                    s.spawn(move || snap.annotation_count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts, vec![4, 4, 4]);
    }
}
