//! Batching is invisible: a batch appends to its derived indexes once, when it ends
//! (the content store, the interval treaps, the R-trees, the object → referents lists,
//! the inverted indexes and their statistics), so the same writes committed as one
//! batch and as one batch per write must build the same system — the same study,
//! interval treaps of the same shape (a treap is unique for its keys and priorities),
//! and R-trees that answer alike and keep their invariants (a new coordinate system's
//! first run is packed, later regions inserted one by one).  Checked unsharded and on
//! 4 shards, over a study whose intervals share their starts; the `answer_goldens`
//! mix checks the same on the generated corpora.

#[path = "support/one_write_at_a_time.rs"]
mod one_write_at_a_time;

use graphitti::core::{
    DataType, Graphitti, Marker, ObjectId, ReferentId, ShardedSystem, StudySnapshot, SystemView,
    WriteSystem,
};
use graphitti::intervals::Interval;
use graphitti::spatial::Rect;
use one_write_at_a_time::one_write_at_a_time;

const DOMAINS: [&str; 3] = ["chr1", "chr2", "chr3"];
const SYSTEMS: [&str; 2] = ["atlas-25um", "atlas-100um"];

/// A study of sequences on three domains and images in two coordinate systems whose
/// intervals start at one of 13 offsets (so most starts are shared), with reused
/// referents and cited terms, written one write at a time into a new system.
fn fixture() -> StudySnapshot {
    let mut sys = Graphitti::new();
    let terms: Vec<_> = (0..4).map(|t| sys.ontology_mut().add_concept(format!("t{t}"))).collect();
    let mut objects = Vec::new();
    for i in 0..12 {
        objects.push(if i % 3 == 2 {
            sys.register_image(format!("img{i}"), 500, 500, "confocal", SYSTEMS[i % 2])
        } else {
            sys.register_sequence(format!("seq{i}"), DataType::DnaSequence, 10_000, DOMAINS[i % 3])
        });
    }
    let mut last: Option<(ObjectId, ReferentId)> = None;
    for a in 0..300u64 {
        let at = (a * 7 % 12) as usize;
        let (object, image) = (objects[at], at % 3 == 2);
        let marker = |k: u64| {
            if image {
                let (x, y) = ((k * 37 % 400) as f64, (k * 53 % 400) as f64);
                Marker::region(x, y, x + 1.0 + (k % 9) as f64, y + 2.0 + (k % 5) as f64)
            } else {
                let start = k % 13 * 100;
                Marker::interval(start, start + 10 + k % 40)
            }
        };
        let mut builder =
            sys.annotate().title(format!("note {a}")).creator("curator").mark(object, marker(a));
        if a % 4 == 1 {
            builder = builder.mark(object, marker(a * 3 + 1));
        }
        if let Some((home, reused)) = last.filter(|&(home, _)| home == object && a % 5 == 0) {
            builder = builder.mark_existing(reused).user_tag("reuses", format!("{}", home.0));
        }
        if a % 3 == 0 {
            builder = builder.cite_term(terms[(a % 4) as usize]);
        }
        let id = builder.commit().expect("the fixture commits");
        last = Some((object, sys.annotation(id).expect("committed").referents[0]));
    }
    sys.study_snapshot()
}

/// Every query the R-tree answers the same whatever its shape: entries, overlaps on a
/// grid of windows, nearest to a grid of points.
fn region_answers(view: &SystemView, system: &str) -> String {
    let spatial = view.spatial();
    let mut out = format!("{:?}", spatial.entries(system));
    for i in 0..8 {
        let (x, y) = (i as f64 * 50.0, 350.0 - i as f64 * 40.0);
        out += &format!("{:?}", spatial.overlapping(system, Rect::rect2(x, y, x + 60.0, y + 45.0)));
        out += &format!("{:?}", spatial.nearest(system, [x + 3.0, y + 7.0, 0.0]));
    }
    out
}

/// The views of one batch and of one write at a time index alike: the same treap
/// shapes, the same R-tree answers, valid R-trees, the same interval answers.
fn assert_indexed_alike(batched: &SystemView, one_by_one: &SystemView, what: &str) {
    for domain in DOMAINS {
        let shape = batched.intervals().preorder(domain);
        assert_eq!(shape, one_by_one.intervals().preorder(domain), "{what}: {domain} treap");
        let all = Interval::new(0, u64::MAX);
        let overlaps = batched.overlapping_intervals(domain, all);
        assert_eq!(overlaps, one_by_one.overlapping_intervals(domain, all), "{what}: {domain}");
    }
    for system in SYSTEMS {
        let answers = region_answers(batched, system);
        assert_eq!(answers, region_answers(one_by_one, system), "{what}: {system} answers");
    }
    for view in [batched, one_by_one] {
        view.spatial().check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(view.verify_integrity().is_empty(), "{what}: {:?}", view.verify_integrity());
    }
    assert_eq!(batched.stats().interval_count(None), one_by_one.stats().interval_count(None));
    assert_eq!(batched.stats().region_count(None), one_by_one.stats().region_count(None));
}

#[test]
fn one_batch_and_one_batch_per_write_build_the_same_system() {
    let study = fixture();
    let starts: Vec<u64> = study
        .referents
        .iter()
        .filter_map(|r| match &r.marker {
            Marker::Interval(iv) => Some(iv.start),
            _ => None,
        })
        .collect();
    assert!(starts.len() > 100 && starts.len() > 10 * 13, "the fixture shares its starts");

    let batched = Graphitti::from_study_snapshot(&study).expect("replays");
    let mut one_by_one = Graphitti::new();
    one_write_at_a_time(&mut one_by_one, &study);
    assert_eq!(batched.study_snapshot(), study);
    assert_eq!(one_by_one.study_snapshot(), study);
    assert_indexed_alike(&batched, &one_by_one, "unsharded");

    let batched = ShardedSystem::from_study_snapshot(&study, 4).expect("replays");
    let mut one_by_one = ShardedSystem::new(4);
    one_write_at_a_time(&mut one_by_one, &study);
    assert_eq!(WriteSystem::study_snapshot(&batched), study);
    assert_eq!(WriteSystem::study_snapshot(&one_by_one), study);
    for shard in 0..4 {
        let what = format!("shard {shard}");
        assert_indexed_alike(batched.shard(shard), one_by_one.shard(shard), &what);
    }
}
