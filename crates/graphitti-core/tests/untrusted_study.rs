//! A study that arrives from outside — a checkpoint read back from disk, a log record —
//! is checked where it enters, not trusted: an index that names no row, a metadata row
//! its type's columns refuse and a marker its own constructor would have refused are
//! typed errors on every path, never a panic and never an `Ok` that plants a malformed
//! substructure in an index.

use graphitti_core::interval_index::Interval;
use graphitti_core::ontology::RelationType;
use graphitti_core::relstore::Value;
use graphitti_core::spatial_index::Rect;
use graphitti_core::wal::{encode_frame, WalStorage, FRAME_HEADER};
use graphitti_core::xmlstore::DublinCore;
use graphitti_core::{
    recover_sharded, recover_unsharded, AnnotationSnapshot, Checkpoint, CoreError, DataType,
    DurabilityMode, DurableShardedSystem, DurableSystem, Graphitti, LogOp, LogReferent, Marker,
    MemStorage, ObjectId, ReferentSnapshot, StudySnapshot,
};

/// Objects 0, 1, 2: a sequence, an image, a record set.
fn registrations() -> Vec<LogOp> {
    let register = |data_type, name: &str, metadata, domain: &str| LogOp::Register {
        data_type,
        name: name.into(),
        metadata,
        payload: vec![],
        domain: domain.into(),
    };
    vec![
        LogOp::register_sequence("seg4", DataType::DnaSequence, 2_000, "chr-flu"),
        register(
            DataType::Image,
            "brain",
            vec![Value::Int(512), Value::Int(512), Value::text("confocal"), Value::text("cs25")],
            "cs25",
        ),
        register(
            DataType::RelationalRecord,
            "rows",
            vec![Value::text("strains"), Value::Int(40)],
            "db",
        ),
    ]
}

/// Those three objects and one annotation on the sequence.
fn study() -> StudySnapshot {
    let mut sys = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    sys.apply(&registrations()).unwrap();
    sys.apply(&[LogOp::Annotate {
        content: DublinCore::new().description("cleavage site"),
        referents: vec![LogReferent::New { object: ObjectId(0), marker: Marker::interval(10, 20) }],
        terms: vec![],
    }])
    .unwrap();
    assert_eq!((sys.system().object_count(), sys.system().referent_count()), (3, 1));
    sys.system().study_snapshot()
}

/// Load `snapshot` by every route a study enters through.
fn load_every_way(snapshot: &StudySnapshot) -> Vec<(&'static str, Result<(), String>)> {
    let checkpoint = |shards| {
        let mut storage = MemStorage::new();
        let blob = Checkpoint { version: 1, shards, snapshot: snapshot.clone() }.encode();
        storage.write_checkpoint(&blob).unwrap();
        storage
    };
    vec![
        (
            "from_study_snapshot",
            Graphitti::from_study_snapshot(snapshot).map(drop).map_err(|e| e.to_string()),
        ),
        (
            "checkpoint replay",
            recover_unsharded(&checkpoint(0)).map(drop).map_err(|e| e.to_string()),
        ),
        (
            "sharded checkpoint replay",
            recover_sharded(&checkpoint(3), 3).map(drop).map_err(|e| e.to_string()),
        ),
    ]
}

#[test]
fn an_index_that_names_no_row_is_a_typed_error_on_every_path() {
    assert!(load_every_way(&study()).into_iter().all(|(_, loaded)| loaded.is_ok()));

    // An annotation whose referent list says 7 in a one-referent study.
    let mut dangling_referent = study();
    dangling_referent.annotations[0].referents = vec![7];
    // A referent on object 9 of a three-object study.
    let mut dangling_object = study();
    dangling_object.referents[0].object = 9;
    // The same, reached through a second annotation that would have shared it.
    let mut dangling_later = study();
    dangling_later.referents.push(ReferentSnapshot { object: 3, marker: Marker::interval(1, 2) });
    dangling_later.annotations.push(AnnotationSnapshot {
        content: DublinCore::new().description("second"),
        referents: vec![0, 1],
        terms: vec![],
    });

    for (case, snapshot, names) in [
        ("referent index", dangling_referent, "referent 7"),
        ("object index", dangling_object, "object 9"),
        ("object index behind a shared referent", dangling_later, "object 3"),
    ] {
        for (path, loaded) in load_every_way(&snapshot) {
            let err = loaded.expect_err(&format!("{case} via {path}"));
            assert!(err.contains(names), "{case} via {path}: {err}");
        }
    }
}

/// An object's metadata row is checked against its type's columns before anything is
/// registered, on every load path: one column short, or a value of the wrong type, is
/// a typed error naming the expected arity or the column.
#[test]
fn a_metadata_row_its_type_refuses_is_a_typed_error_on_every_path() {
    // Object 0 is a DNA sequence: length, organism, GC content, coordinate domain.
    let mut short = study();
    short.objects[0].metadata.pop();
    let mut mistyped = study();
    mistyped.objects[0].metadata[0] = Value::text("2000");

    for (case, snapshot, names) in [
        ("a row one column short", short, "expected 4 values, got 3"),
        ("a text length", mistyped, "column 'length' expects Int"),
    ] {
        for (path, loaded) in load_every_way(&snapshot) {
            let err = loaded.expect_err(&format!("{case} via {path}"));
            assert!(
                err.contains("DnaSequence metadata") && err.contains(names),
                "{case} via {path}: {err}"
            );
        }
    }
}

/// Replay rebuilds snapshot referent `i` as `ReferentId(i)`, or refuses: a referent
/// named twice by one annotation, named before the referents ahead of it, or named by
/// no annotation is a typed error that names the annotation and the index, on every
/// route — never a study that loads `Ok` with other referents than its rows hold.
#[test]
fn a_referent_list_replay_would_renumber_is_a_typed_error() {
    // Two annotations on the sequence: the first marks referents 0 and 1, the second
    // reuses 0 and marks 2.
    let mut sys = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    sys.apply(&registrations()).unwrap();
    let mark =
        |start| LogReferent::New { object: ObjectId(0), marker: Marker::interval(start, 50) };
    let annotate = |referents| LogOp::Annotate {
        content: DublinCore::new().description("site"),
        referents,
        terms: vec![],
    };
    let existing = LogReferent::Existing(graphitti_core::ReferentId(0));
    sys.apply(&[annotate(vec![mark(10), mark(20)]), annotate(vec![existing, mark(30)])]).unwrap();
    let rows = sys.system().study_snapshot();
    assert_eq!(rows.annotations[0].referents, [0, 1]);
    assert_eq!(rows.annotations[1].referents, [0, 2]);
    // A new referent first and a reused one after it is still id order: it loads, and
    // captures back as edited.
    let mut reordered = rows.clone();
    reordered.annotations[1].referents = vec![2, 0];
    assert!(load_every_way(&reordered).into_iter().all(|(_, loaded)| loaded.is_ok()));
    let loaded = Graphitti::from_study_snapshot(&reordered).unwrap();
    assert_eq!(loaded.study_snapshot(), reordered);

    let edited = |edit: &dyn Fn(&mut StudySnapshot)| {
        let mut edited = rows.clone();
        edit(&mut edited);
        edited
    };
    for (case, snapshot, names) in [
        (
            "a referent named twice",
            edited(&|s| s.annotations[0].referents = vec![0, 0]),
            "annotation 0 names referent 0",
        ),
        (
            "out of id order",
            edited(&|s| s.annotations[0].referents = vec![1, 0]),
            "annotation 0 names referent 1",
        ),
        (
            "one skipped",
            edited(&|s| s.annotations[0].referents = vec![0, 2]),
            "annotation 0 names referent 2",
        ),
        (
            "named by none",
            edited(&|s| {
                s.referents.push(ReferentSnapshot { object: 0, marker: Marker::interval(40, 50) })
            }),
            "holds referent 3",
        ),
    ] {
        for (path, loaded) in load_every_way(&snapshot) {
            let err = loaded.expect_err(&format!("{case} via {path}"));
            assert!(err.contains(names), "{case} via {path}: {err}");
        }
    }
}

/// Markers built field by field, as a decoder builds them, that `Interval::new`,
/// `Rect::new` and `Marker::block_set` would each have refused or normalised.
fn malformed_markers() -> Vec<(ObjectId, Marker)> {
    let rect = |min, max| Rect { min, max };
    vec![
        (ObjectId(0), Marker::Interval(Interval { start: 9, end: 5 })),
        (ObjectId(1), Marker::Region(rect([4.0, 0.0, 0.0], [1.0, 8.0, 0.0]))),
        (ObjectId(1), Marker::Region(rect([0.0, f64::NAN, 0.0], [1.0, 8.0, 0.0]))),
        (ObjectId(1), Marker::Region(rect([0.0, 0.0, 0.0], [1.0, f64::NAN, 0.0]))),
        (ObjectId(2), Marker::BlockSet(vec![5, 3].into())),
        (ObjectId(2), Marker::BlockSet(vec![3, 3].into())),
    ]
}

#[test]
fn a_marker_its_constructor_would_refuse_is_out_of_bounds_on_every_path() {
    for (object, marker) in malformed_markers() {
        // Through a study: the snapshot's one referent carries the marker.
        let mut snapshot = study();
        snapshot.referents[0] =
            ReferentSnapshot { object: object.0 as usize, marker: marker.clone() };
        for (path, loaded) in load_every_way(&snapshot) {
            let err = loaded.expect_err(&format!("{marker:?} via {path}"));
            assert!(err.contains("out of bounds"), "{marker:?} via {path}: {err}");
        }

        // Through the API and through `LogOp` replay, live and recovered, sharded and
        // not: the commit is rejected and nothing reaches a substructure index.
        let mut sys = Graphitti::from_study_snapshot(&study()).unwrap();
        let err = sys.annotate().comment("x").mark(object, marker.clone()).commit();
        assert!(matches!(err, Err(CoreError::MarkerOutOfBounds { .. })), "{marker:?}: {err:?}");

        let op = LogOp::Annotate {
            content: DublinCore::new().description("malformed"),
            referents: vec![LogReferent::New { object, marker: marker.clone() }],
            terms: vec![],
        };
        let registrations = registrations();
        let mut live = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Sync);
        live.apply(&registrations).unwrap();
        live.apply(std::slice::from_ref(&op)).unwrap();
        assert_eq!(live.system().referent_count(), 0, "{marker:?}");
        assert_eq!(live.system().annotation_count(), 0, "{marker:?}");

        let (storage, handle) = graphitti_core::FaultStorage::reliable();
        let mut logged = DurableShardedSystem::create(Box::new(storage), DurabilityMode::Sync, 3);
        logged.apply(&registrations).unwrap();
        logged.apply(std::slice::from_ref(&op)).unwrap();
        let image = MemStorage::from_image(handle.image_now());
        let (recovered, report) = recover_unsharded(&image).expect("the log replays");
        assert_eq!(report.recovered_version, 2, "the rejected commit is still a version");
        assert_eq!(recovered.referent_count(), 0, "{marker:?}");
        assert!(recovered.overlapping_intervals("chr-flu", Interval::new(0, 100)).is_empty());
        let (recovered, _) = recover_sharded(&image, 3).expect("the log replays sharded");
        assert_eq!(recovered.referent_count(), 0, "{marker:?}");
    }
}

/// An ontology that arrives in a checkpoint is rebuilt through `add_concept` /
/// `add_relation` / `add_instance` after every id in it has been checked: a concept id
/// that names no concept is refused by the decoder, not at the first `SubTree` that
/// walks to it, sharded or not.  The cases are crafted bytes behind a valid CRC.
#[test]
fn a_concept_id_that_names_no_concept_is_a_typed_error_at_the_decoder() {
    let mut sys = Graphitti::new();
    let region = sys.ontology_mut().add_concept("BrainRegion");
    let cerebellum = sys.ontology_mut().add_concept("Cerebellum");
    sys.ontology_mut().add_relation(region, cerebellum, RelationType::IsA);
    sys.ontology_mut().add_instance(cerebellum, "img-1");
    let blob = Checkpoint::capture(&sys, 1).encode();
    let mut storage = MemStorage::new();
    storage.write_checkpoint(&blob).unwrap();
    let (loaded, _) = recover_unsharded(&storage).unwrap();
    assert_eq!(loaded.ontology().subtree(region, &RelationType::IsA).len(), 2);

    // The payload ends in the ontology's relations and instances: concept 0 relates
    // one child (concept 1, `IsA` = tag 0), concept 1 none, then one instance of
    // concept 1 named "img-1".
    let payload = &blob[FRAME_HEADER..];
    let tail = [&[1, 1, 0, 0, 1, 1, 5][..], b"img-1"].concat();
    assert!(payload.ends_with(&tail), "the ontology is spelled as expected");
    let head = &payload[..payload.len() - tail.len()];
    let crafted = |child: &[u8], instance_concept: &[u8]| {
        let parts: [&[u8]; 7] = [head, &[1], child, &[0, 0, 1], instance_concept, &[5], b"img-1"];
        encode_frame(&parts.concat())
    };
    assert_eq!(crafted(&[1], &[1]), blob, "the unedited craft is the checkpoint");

    for (case, blob, names) in [
        ("a related concept", crafted(&[99], &[1]), "related concept 99"),
        ("the first id past the end", crafted(&[2], &[1]), "related concept 2"),
        ("an instance's concept", crafted(&[1], &[2]), "instance concept 2"),
        (
            "an id no u32 holds",
            crafted(&[1], &[0x80, 0x80, 0x80, 0x80, 0x10]),
            "instance concept 4294967296",
        ),
    ] {
        let err = Checkpoint::decode(&blob).map(drop).expect_err(case).to_string();
        assert!(err.contains(names), "{case}: {err}");
        let mut storage = MemStorage::new();
        storage.write_checkpoint(&blob).unwrap();
        let err = recover_unsharded(&storage).map(drop).expect_err(case).to_string();
        assert!(err.contains(names), "{case} via recovery: {err}");
        let err = recover_sharded(&storage, 3).map(drop).expect_err(case).to_string();
        assert!(err.contains(names), "{case} via sharded recovery: {err}");
    }
}
