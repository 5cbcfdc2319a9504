//! Property tests for the core system: SubX operator laws, and snapshot round-trip
//! invariance over randomly constructed systems.

use graphitti_core::interval_index::Interval;
use graphitti_core::ontology::{ConceptId, RelationType};
use graphitti_core::relstore::Value;
use graphitti_core::spatial_index::Rect;
use graphitti_core::xmlstore::{DublinCore, Entry};
use graphitti_core::{
    AnnotationSnapshot, Checkpoint, DataType, Graphitti, Marker, ObjectSnapshot, ReferentSnapshot,
    StudySnapshot, SubX,
};
use proptest::prelude::*;

fn arb_interval_marker() -> impl Strategy<Value = Marker> {
    (0u64..1000, 1u64..100).prop_map(|(s, len)| Marker::interval(s, s + len))
}

fn arb_block_marker() -> impl Strategy<Value = Marker> {
    prop::collection::vec(0u64..50, 1..8).prop_map(Marker::block_set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ifoverlap_is_symmetric(a in arb_interval_marker(), b in arb_interval_marker()) {
        prop_assert_eq!(a.if_overlap(&b), b.if_overlap(&a));
    }

    #[test]
    fn intersect_implies_overlap(a in arb_interval_marker(), b in arb_interval_marker()) {
        let overlap = a.if_overlap(&b);
        let inter = a.intersect(&b);
        prop_assert_eq!(inter.is_some(), overlap);
    }

    #[test]
    fn block_intersect_is_subset(a in arb_block_marker(), b in arb_block_marker()) {
        if let Some(Marker::BlockSet(inter)) = a.intersect(&b) {
            if let (Marker::BlockSet(av), Marker::BlockSet(bv)) = (&a, &b) {
                for id in inter.iter() {
                    prop_assert!(av.contains(id) && bv.contains(id));
                }
            }
        }
    }

    #[test]
    fn cross_kind_never_overlaps(a in arb_interval_marker(), b in arb_block_marker()) {
        prop_assert!(!a.if_overlap(&b));
        prop_assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn next_is_after(
        markers in prop::collection::vec(arb_interval_marker(), 1..20),
        probe in arb_interval_marker(),
    ) {
        if let Some(nxt) = probe.next_in(&markers) {
            if let (Marker::Interval(p), Marker::Interval(n)) = (&probe, nxt) {
                prop_assert!(n.start >= p.end);
            }
        }
    }
}

/// Build a small random system of sequence annotations, some sharing referents.
fn build_random(seed: u64, n_objects: usize, n_anns: usize, share: bool) -> Graphitti {
    // deterministic pseudo-random via a simple LCG seeded by `seed`
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };

    let mut sys = Graphitti::new();
    let objs: Vec<_> = (0..n_objects.max(1))
        .map(|i| {
            sys.register_sequence(
                format!("s{i}"),
                DataType::DnaSequence,
                10_000,
                format!("chr{}", i % 3),
            )
        })
        .collect();
    let mut referent_pool = Vec::new();
    for a in 0..n_anns {
        let obj = objs[(next() as usize) % objs.len()];
        let mut builder = sys.annotate().comment(format!("annotation {a} protease")).creator("t");
        if share && !referent_pool.is_empty() && next() % 2 == 0 {
            let rid = referent_pool[(next() as usize) % referent_pool.len()];
            builder = builder.mark_existing(rid);
            let _ = builder.commit();
        } else {
            let start = next() % 9000;
            builder = builder.mark(obj, Marker::interval(start, start + 30));
            if let Ok(aid) = builder.commit() {
                if let Some(ann) = sys.annotation(aid) {
                    if let Some(&rid) = ann.referents.first() {
                        referent_pool.push(rid);
                    }
                }
            }
        }
    }
    sys
}

/// Study rows drawn from the values a checkpoint must carry exactly: integers no `f64`
/// holds, NaN and the infinities (unless `finite`), control characters, quotes and
/// text beyond ASCII.  Rows only — no system would replay an inverted interval or a
/// dangling index.
struct Extremes {
    state: u64,
    finite: bool,
}

impl Extremes {
    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        from[(self.state >> 33) as usize % from.len()].clone()
    }

    fn id(&mut self) -> u64 {
        self.pick(&[0, 7, (1 << 53) + 1, u64::MAX - 1, u64::MAX])
    }

    fn float(&mut self) -> f64 {
        let spelled = [0.1, -0.0, 512.0, 1e300, -5e-324, 9.5e15];
        let unspelled = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        if self.finite || self.pick(&[true, false]) {
            self.pick(&spelled)
        } else {
            self.pick(&unspelled)
        }
    }

    fn text(&mut self) -> String {
        self.pick(&["", "tab\t \"quoted\" back\\slash", "ünï☃😀", "\u{1}\r\n"]).to_string()
    }

    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.pick(&[0, 1, 3])).map(|_| item(self)).collect()
    }

    fn rect(&mut self) -> Rect {
        Rect { min: [0; 3].map(|_| self.float()), max: [0; 3].map(|_| self.float()) }
    }

    fn rows(&mut self) -> StudySnapshot {
        let value = |g: &mut Self| match g.pick(&[0, 1, 2, 3]) {
            0 => Value::Null,
            1 => Value::Int(g.pick(&[i64::MIN, -1, (1 << 53) + 1, i64::MAX])),
            2 => Value::Float(g.float()),
            _ => Value::Text(g.text()),
        };
        let marker = |g: &mut Self| match g.pick(&[0, 1, 2, 3]) {
            0 => Marker::Interval(Interval { start: g.id(), end: g.id() }),
            1 => Marker::Region(g.rect()),
            2 => Marker::Volume(g.rect()),
            _ => Marker::BlockSet(g.list(Self::id).into()),
        };
        let pairs = |g: &mut Self| g.list(|g| (g.text(), g.text()));
        let mut ontology = graphitti_core::ontology::Ontology::new();
        let concepts: Vec<ConceptId> =
            (0..self.pick(&[1, 2, 4])).map(|_| ontology.add_concept(self.text())).collect();
        for _ in 0..self.pick(&[0, 2, 5]) {
            let relation = self.pick(&[
                RelationType::IsA,
                RelationType::PartOf,
                RelationType::DevelopsFrom,
                RelationType::Regulates,
                RelationType::Named(String::new()),
                RelationType::Named("cleaves \"at\"".into()),
            ]);
            ontology.add_relation(self.pick(&concepts), self.pick(&concepts), relation);
            ontology.add_instance(self.pick(&concepts), self.text());
        }
        StudySnapshot {
            objects: self.list(|g| ObjectSnapshot {
                data_type: g.pick(&DataType::ALL),
                name: g.text(),
                domain: g.text(),
                metadata: g.list(value),
                payload: g.list(|g| g.pick(&[0u8, 0xde, 0xff])),
            }),
            referents: self.list(|g| ReferentSnapshot {
                object: g.pick(&[0, 1, usize::MAX]),
                marker: marker(g),
            }),
            annotations: self.list(|g| AnnotationSnapshot {
                content: {
                    let (fields, tags) = (pairs(g), pairs(g));
                    let fields = fields.iter().map(|(name, value)| Entry::field(name, value));
                    let tags = tags.iter().map(|(name, value)| Entry::Tag(name, value));
                    let entries: Vec<Entry<'_>> = fields.chain(tags).collect();
                    DublinCore::from_entries(&entries, &mut String::new())
                },
                referents: g.list(|g| g.pick(&[0, 2, usize::MAX])),
                terms: g.list(|g| ConceptId(g.pick(&[0, 3, u32::MAX]))),
            }),
            ontology,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn snapshot_roundtrip_is_invariant(
        seed in any::<u64>(),
        n_objects in 1usize..6,
        n_anns in 0usize..40,
        share in any::<bool>(),
    ) {
        let sys = build_random(seed, n_objects, n_anns, share);
        let snap = sys.study_snapshot();
        let rebuilt = Graphitti::from_study_snapshot(&snap).unwrap();
        // the rebuilt system produces an identical snapshot
        prop_assert_eq!(rebuilt.study_snapshot(), snap);
        prop_assert_eq!(rebuilt.object_count(), sys.object_count());
        prop_assert_eq!(rebuilt.annotation_count(), sys.annotation_count());
        prop_assert_eq!(rebuilt.referent_count(), sys.referent_count());
    }

    #[test]
    fn checkpoint_of_extreme_rows_is_a_fixed_point(seed in any::<u64>(), finite in any::<bool>()) {
        let rows = Extremes { state: seed, finite }.rows();
        let blob = Checkpoint { version: seed, shards: 0, snapshot: rows.clone() }.encode();
        let back = Checkpoint::decode(&blob).unwrap();
        // `NaN != NaN`: the bytes are what show every float survived.
        prop_assert_eq!(back.encode(), blob);
        if finite {
            prop_assert_eq!(back.snapshot, rows);
        }
    }

    #[test]
    fn related_annotations_are_symmetric(
        seed in any::<u64>(),
        n_anns in 2usize..40,
    ) {
        let sys = build_random(seed, 3, n_anns, true);
        for ann in sys.annotations() {
            for other in sys.related_annotations(ann.id) {
                // if a relates to b (shared referent), b relates to a
                prop_assert!(sys.related_annotations(other).contains(&ann.id));
            }
        }
    }

    #[test]
    fn transitive_closure_contains_direct(
        seed in any::<u64>(),
        n_anns in 2usize..40,
    ) {
        let sys = build_random(seed, 3, n_anns, true);
        for ann in sys.annotations() {
            let direct = sys.related_annotations(ann.id);
            let transitive = sys.transitively_related_annotations(ann.id);
            for d in direct {
                prop_assert!(transitive.contains(&d));
            }
        }
    }
}
