//! Edge-case and failure-injection tests across the public API.
//!
//! These check that the system rejects malformed input cleanly and behaves sensibly at
//! boundaries, rather than panicking or returning wrong answers.

use graphitti::core::{CoreError, DataType, Graphitti, Marker, ObjectId};
use graphitti::query::{parse_query, Executor, Query, ReferentFilter, Target};
use graphitti::xml::PathExpr;

#[test]
fn empty_annotation_is_rejected() {
    let mut sys = Graphitti::new();
    assert_eq!(sys.annotate().title("nothing").commit(), Err(CoreError::EmptyAnnotation));
}

#[test]
fn wrong_marker_kind_is_rejected() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", DataType::DnaSequence, 100, "chr1");
    let err = sys.annotate().mark(seq, Marker::region(0.0, 0.0, 1.0, 1.0)).commit();
    assert!(matches!(err, Err(CoreError::MarkerKindMismatch { .. })));
}

#[test]
fn annotating_unknown_object_is_rejected() {
    let mut sys = Graphitti::new();
    let err = sys.annotate().mark(ObjectId(42), Marker::interval(0, 10)).commit();
    assert_eq!(err, Err(CoreError::UnknownObject(ObjectId(42))));
}

#[test]
fn query_on_empty_system_is_empty() {
    let sys = Graphitti::new();
    let q = Query::new(Target::AnnotationContents).with_phrase("anything");
    let res = Executor::new(&sys).run(&q);
    assert!(res.is_empty());
    let q2 = Query::new(Target::Referents).with_referent(ReferentFilter::OfType(DataType::Image));
    assert!(Executor::new(&sys).run(&q2).is_empty());
}

#[test]
fn malformed_path_expression_errors() {
    for bad in ["", "//", "/a/[1]", "/a[unterminated", "not-a-path"] {
        assert!(PathExpr::parse(bad).is_err(), "expected error for {bad:?}");
    }
}

#[test]
fn malformed_query_dsl_errors() {
    for bad in [
        "",
        "SELECT",
        "SELECT wrongtarget",
        "SELECT graphs content contains \"x\"", // missing WHERE
        "SELECT graphs WHERE referent type notatype",
        "SELECT graphs WHERE constraint consecutive notanumber 5",
    ] {
        assert!(parse_query(bad).is_err(), "expected parse error for {bad:?}");
    }
}

#[test]
fn zero_length_interval_marker_is_handled() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", DataType::DnaSequence, 100, "chr1");
    // an empty interval [10,10) is a valid (if degenerate) marker; it simply never
    // overlaps anything
    let ann = sys.annotate().comment("point").mark(seq, Marker::interval(10, 10)).commit();
    assert!(ann.is_ok());
    assert!(sys
        .overlapping_intervals("chr1", graphitti::intervals::Interval::new(0, 100))
        .is_empty());
}

#[test]
fn constraint_with_impossible_count_returns_empty() {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("s", DataType::DnaSequence, 1_000, "chr1");
    sys.annotate().comment("protease").mark(seq, Marker::interval(0, 50)).commit().unwrap();
    let q = Query::new(Target::Referents).with_phrase("protease").with_constraint(
        graphitti::query::GraphConstraint::ConsecutiveIntervals { count: 100, max_gap: 10 },
    );
    assert!(Executor::new(&sys).run(&q).objects.is_empty());
}

#[test]
fn snapshot_of_empty_system_roundtrips() {
    let sys = Graphitti::new();
    let rebuilt = Graphitti::from_json(&sys.to_json()).unwrap();
    assert_eq!(rebuilt.object_count(), 0);
    assert_eq!(rebuilt.annotation_count(), 0);
}

#[test]
fn duplicate_object_names_are_allowed() {
    // the paper does not require unique names; two objects may share a name
    let mut sys = Graphitti::new();
    let a = sys.register_sequence("dup", DataType::DnaSequence, 100, "chr1");
    let b = sys.register_sequence("dup", DataType::DnaSequence, 200, "chr1");
    assert_ne!(a, b);
    assert_eq!(sys.object_ids_of_type(DataType::DnaSequence).len(), 2);
}
