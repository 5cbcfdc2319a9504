//! Structural-sharing tests for the per-component copy-on-write `SystemView`.
//!
//! After a snapshot capture, every component of the live view shares storage with the
//! snapshot (`Arc::ptr_eq` at the component level).  A mutation must un-share exactly
//! the components it touches: these tests pin the dirty set of each mutation kind, so
//! a regression that silently widens a write's copy footprint (or, worse, mutates a
//! still-shared component in place) fails loudly.  Randomized cases check the
//! invariants that hold for *every* mutation, rejected ones included: a component is
//! either shared and bit-identical, or unshared — never shared and diverged — and
//! its epoch moved exactly when its storage was replaced.

use std::sync::Arc;

use graphitti_core::relstore::Value;
use graphitti_core::{
    Component, ComponentSet, CoreError, DataType, Graphitti, Marker, ObjectId, ShardedSystem,
    Snapshot,
};
use proptest::prelude::*;

fn annotated_system() -> Graphitti {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", DataType::DnaSequence, 100_000, "chr1");
    let img = sys.register_image("brain", 512, 512, "mri", "cs25");
    let term = sys.ontology_mut().add_concept("Protease");
    sys.annotate()
        .comment("protease site")
        .mark(seq, Marker::interval(10, 60))
        .cite_term(term)
        .commit()
        .unwrap();
    sys.annotate()
        .comment("region of interest")
        .mark(img, Marker::region(1.0, 1.0, 50.0, 50.0))
        .commit()
        .unwrap();
    sys
}

/// The components `snap` still shares with the live system, in [`Component::ALL`]
/// order (readable assertion failures).
fn shared(sys: &Graphitti, snap: &Snapshot) -> Vec<Component> {
    Component::ALL.into_iter().filter(|&c| sys.view().shares_component(snap.view(), c)).collect()
}

fn assert_sharing(sys: &Graphitti, snap: &Snapshot, expect_dirty: &[Component]) {
    for c in Component::ALL {
        let is_shared = sys.view().shares_component(snap.view(), c);
        if expect_dirty.contains(&c) {
            assert!(!is_shared, "{c:?} should have been copied by this mutation");
        } else {
            assert!(is_shared, "{c:?} was copied although the mutation never touches it");
        }
    }
}

#[test]
fn capture_shares_every_component() {
    let sys = annotated_system();
    let snap = sys.snapshot();
    assert_eq!(shared(&sys, &snap).len(), Component::ALL.len());
}

#[test]
fn annotate_after_snapshot_copies_only_the_annotation_path() {
    let mut sys = annotated_system();
    let seq = sys.objects()[0].id;
    let snap = sys.snapshot();
    sys.annotate()
        .comment("single post-snapshot annotate")
        .mark(seq, Marker::interval(500, 550))
        .commit()
        .unwrap();
    // The annotate path touches: content store, a-graph, node maps, the referent /
    // annotation registries, the interval index (interval marker), object→referents
    // and the inverted indexes.  Everything else — spatial, ontology, the object
    // registry — must still be shared with the snapshot.
    assert_sharing(
        &sys,
        &snap,
        &[
            Component::Content,
            Component::Intervals,
            Component::Agraph,
            Component::Referents,
            Component::Annotations,
            Component::NodeMaps,
            Component::ObjectReferents,
            Component::Indexes,
        ],
    );
    // In particular the big untouched substrates stay put:
    assert!(sys.view().shares_component(snap.view(), Component::Ontology));
    assert!(sys.view().shares_component(snap.view(), Component::Spatial));
}

#[test]
fn spatial_annotate_leaves_interval_index_shared() {
    let mut sys = annotated_system();
    let img = sys.objects()[1].id;
    let snap = sys.snapshot();
    sys.annotate()
        .comment("late region")
        .mark(img, Marker::region(60.0, 60.0, 80.0, 80.0))
        .commit()
        .unwrap();
    assert!(sys.view().shares_component(snap.view(), Component::Intervals));
    assert!(!sys.view().shares_component(snap.view(), Component::Spatial));
    assert!(sys.view().shares_component(snap.view(), Component::Objects));
}

#[test]
fn register_after_snapshot_copies_only_the_registration_path() {
    let mut sys = annotated_system();
    let snap = sys.snapshot();
    sys.register_sequence("late", DataType::ProteinSequence, 500, "chr2");
    assert_sharing(
        &sys,
        &snap,
        &[Component::Agraph, Component::Objects, Component::NodeMaps, Component::Indexes],
    );
    // registration creates no referent, annotation or content
    assert!(sys.view().shares_component(snap.view(), Component::Content));
    assert!(sys.view().shares_component(snap.view(), Component::Referents));
    assert!(sys.view().shares_component(snap.view(), Component::Annotations));
}

/// Three registrations whose metadata rows their type's columns refuse: a DNA row one
/// column short, a DNA row with text in its `length` column, and the system's first
/// image with text in its `width` column.
fn refused_registrations() -> [(DataType, Vec<Value>); 3] {
    let dna =
        || vec![Value::Int(1_000), Value::text("H5N1"), Value::Float(0.5), Value::text("chr1")];
    let mut short = dna();
    short.pop();
    let mut mistyped = dna();
    mistyped[0] = Value::text("long");
    let image = vec![Value::text("wide"), Value::Int(64), Value::text("mri"), Value::text("cs25")];
    [(DataType::DnaSequence, short), (DataType::DnaSequence, mistyped), (DataType::Image, image)]
}

/// Every component of `live` is still the one `held` captured, at the epoch it had.
fn assert_untouched(live: &Graphitti, held: &Snapshot) {
    assert_eq!(shared(live, held), Component::ALL);
    let now = live.snapshot();
    assert_eq!(now.component_epochs(), held.component_epochs());
    assert!(now.changed_components(held).is_empty());
    assert_eq!(live.object_count(), held.object_count());
}

#[test]
fn a_rejected_registration_dirties_nothing() {
    let attempt =
        |register: &mut dyn FnMut(DataType, Vec<Value>) -> Result<ObjectId, CoreError>| {
            for (data_type, row) in refused_registrations() {
                let refused = register(data_type, row);
                assert!(
                    matches!(refused, Err(CoreError::Relational(_))),
                    "{data_type:?}: {refused:?}"
                );
            }
        };

    let mut sys = Graphitti::new();
    sys.register_sequence("s", DataType::DnaSequence, 1_000, "chr1");
    let snap = sys.snapshot();
    attempt(&mut |data_type, row| sys.register_object(data_type, "x", row, Arc::default(), "cs25"));
    assert_untouched(&sys, &snap);

    let mut sharded = ShardedSystem::new(4);
    sharded.register_sequence("s", DataType::DnaSequence, 1_000, "chr1");
    let cut = sharded.capture_cut();
    attempt(&mut |data_type, row| {
        sharded.register_object(data_type, "x", row, Arc::default(), "cs25")
    });
    assert_eq!(sharded.object_count(), cut.object_count());
    for shard in 0..sharded.shard_count() {
        assert_untouched(sharded.shard(shard), cut.shard(shard));
    }
}

#[test]
fn ontology_edit_after_snapshot_copies_only_the_ontology() {
    let mut sys = annotated_system();
    let snap = sys.snapshot();
    sys.ontology_mut().add_concept("LateConcept");
    assert_sharing(&sys, &snap, &[Component::Ontology]);
}

#[test]
fn a_first_citation_of_a_term_copies_only_the_citation_path() {
    let mut sys = annotated_system();
    let term = sys.ontology_mut().add_concept("Uncited");
    let snap = sys.snapshot();
    sys.annotate().comment("cites a new term").cite_term(term).commit().unwrap();
    // The term gets its a-graph node on first citation; a marker-free annotation
    // leaves every referent and substructure index shared.
    assert_sharing(
        &sys,
        &snap,
        &[
            Component::Content,
            Component::Agraph,
            Component::Annotations,
            Component::NodeMaps,
            Component::Indexes,
        ],
    );
}

#[test]
fn whole_batch_shares_one_copy_footprint() {
    let mut sys = annotated_system();
    let seq = sys.objects()[0].id;
    let snap = sys.snapshot();
    let mut batch = sys.batch();
    for i in 0..50u64 {
        batch
            .annotate()
            .comment("burst")
            .mark(seq, Marker::interval(1_000 + i * 20, 1_000 + i * 20 + 10))
            .commit()
            .unwrap();
    }
    batch.commit();
    // 50 writes, but the dirty set is the same as for one annotate: after the first
    // write un-shares a component, the rest of the batch mutates it in place.
    assert!(sys.view().shares_component(snap.view(), Component::Ontology));
    assert!(sys.view().shares_component(snap.view(), Component::Spatial));
    assert!(sys.view().shares_component(snap.view(), Component::Objects));
    assert!(!sys.view().shares_component(snap.view(), Component::Annotations));
    assert_eq!(snap.annotation_count() + 50, sys.annotation_count());
}

#[test]
fn second_snapshot_restores_full_sharing() {
    let mut sys = annotated_system();
    let seq = sys.objects()[0].id;
    let old = sys.snapshot();
    sys.annotate().comment("x").mark(seq, Marker::interval(0, 5)).commit().unwrap();
    let fresh = sys.snapshot();
    // the old snapshot keeps its partial sharing; the fresh one shares everything
    assert!(shared(&sys, &old).len() < Component::ALL.len());
    assert_eq!(shared(&sys, &fresh).len(), Component::ALL.len());
}

/// One random mutation step applied to the system.
#[derive(Debug, Clone)]
enum Step {
    Annotate {
        start: u64,
        len: u64,
        spatial: bool,
    },
    Register {
        linear: bool,
    },
    Ontology,
    /// A write that must fail before it touches anything: an annotation with nothing
    /// to link, or a mark on an object that was never registered.
    Rejected {
        empty: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u64..12, 0u64..5_000, 1u64..100, any::<bool>()).prop_map(
        |(kind, start, len, flag)| match kind {
            0..=5 => Step::Annotate { start, len, spatial: flag },
            6 | 7 => Step::Register { linear: flag },
            8 | 9 => Step::Ontology,
            _ => Step::Rejected { empty: flag },
        },
    )
}

/// Apply one random step to the live system.
fn apply_step(sys: &mut Graphitti, step: &Step) {
    match *step {
        Step::Annotate { start, len, spatial } => {
            let (obj, marker) = if spatial {
                let s = start as f64 % 400.0;
                (sys.objects()[1].id, Marker::region(s, s, s + len as f64, s + len as f64))
            } else {
                (sys.objects()[0].id, Marker::interval(start, start + len))
            };
            let _ = sys.annotate().comment("prop step").mark(obj, marker).commit();
        }
        Step::Register { linear } => {
            if linear {
                let name = format!("p{}", sys.object_count());
                sys.register_sequence(name, DataType::DnaSequence, 1_000, "chr1");
            } else {
                let name = format!("i{}", sys.object_count());
                sys.register_image(name, 64, 64, "mri", "cs25");
            }
        }
        Step::Ontology => {
            let name = format!("c{}", sys.object_count());
            sys.ontology_mut().add_concept(name);
        }
        Step::Rejected { empty } => {
            let builder = sys.annotate().comment("rejected");
            let builder = if empty {
                builder
            } else {
                builder.mark(ObjectId(u64::MAX), Marker::interval(0, 1))
            };
            assert!(builder.commit().is_err());
        }
    }
}

/// For any mutation sequence: a component still shared with a pre-mutation snapshot
/// implies the snapshot observed no change through it (sharing is only ever broken
/// *by* a write, never written through), a component's epoch moved exactly when its
/// storage was replaced, and both sides stay internally consistent.
fn check_sharing_invariant(steps: &[Step]) {
    let mut sys = annotated_system();
    let snap = sys.snapshot();
    let objects_before = snap.object_count();
    let annotations_before = snap.annotation_count();
    let referents_before = snap.referent_count();

    for step in steps {
        apply_step(&mut sys, step);
    }

    // the snapshot never moves, whatever stayed shared
    prop_assert_eq!(snap.object_count(), objects_before);
    prop_assert_eq!(snap.annotation_count(), annotations_before);
    prop_assert_eq!(snap.referent_count(), referents_before);
    prop_assert!(snap.verify_integrity().is_empty());
    prop_assert!(sys.verify_integrity().is_empty());

    // epoch moved ⇔ storage replaced, component for component
    let shared_now = shared(&sys, &snap);
    let replaced = ComponentSet::of(Component::ALL.into_iter().filter(|c| !shared_now.contains(c)));
    prop_assert_eq!(sys.snapshot().changed_components(&snap), replaced);

    // a sequence copies nothing exactly when every step in it was rejected — and the
    // registries can only be unshared if their contents actually diverged
    let all_rejected = steps.iter().all(|s| matches!(s, Step::Rejected { .. }));
    prop_assert_eq!(shared_now.len() == Component::ALL.len(), all_rejected);
    if sys.view().shares_component(snap.view(), Component::Annotations) {
        prop_assert_eq!(sys.annotation_count(), snap.annotation_count());
    }
    if sys.view().shares_component(snap.view(), Component::Objects) {
        prop_assert_eq!(sys.object_count(), snap.object_count());
    }
    if sys.view().shares_component(snap.view(), Component::Referents) {
        prop_assert_eq!(sys.referent_count(), snap.referent_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_components_are_never_written_through(steps in prop::collection::vec(arb_step(), 1..12)) {
        check_sharing_invariant(&steps);
    }
}
