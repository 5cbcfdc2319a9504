//! A relational-only annotation store — the prior-art comparator of the paper rows.
//!
//! The paper positions Graphitti against relational annotation systems (Bhagwat et al.
//! VLDB'04, MONDRIAN ICDE'06) that keep annotations in flat tables and answer queries
//! by scans and joins, with no a-graph join index and no substructure indexes.  Here
//! annotations and their interval referents live in two relational tables, and the
//! paper's queries are answered that way.  It returns the *same answers* as Graphitti
//! (the `paper` bench asserts so before timing), so the B1 / B2 rows measure only the
//! difference in machinery.

use std::collections::{BTreeMap, HashSet};

use graphitti_core::{AnnotationId, Graphitti, Marker};
use interval_index::{longest_chain, Interval};
use relstore::{Column, ColumnType, Predicate, Table, Value};

/// Identifier of an annotation in the relational store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelAnnotationId(pub u64);

/// The annotation table's columns.
const ANNOTATION: &[Column] = &[
    ("id", ColumnType::Int),
    ("title", ColumnType::Text),
    ("comment", ColumnType::Text),
    ("creator", ColumnType::Text),
];

/// The referent table's columns: one interval of an object, and the annotation on it.
const REFERENT: &[Column] = &[
    ("ann_id", ColumnType::Int),
    ("object_id", ColumnType::Int),
    ("start", ColumnType::Int),
    ("end", ColumnType::Int),
];

/// A relational-only annotation store.
#[derive(Debug)]
pub struct RelationalAnnotationStore {
    annotation: Table,
    referent: Table,
    next_ann: u64,
}

impl Default for RelationalAnnotationStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RelationalAnnotationStore {
    /// Create an empty store with its two tables.
    pub fn new() -> Self {
        RelationalAnnotationStore {
            annotation: Table::new(ANNOTATION),
            referent: Table::new(REFERENT),
            next_ann: 0,
        }
    }

    /// Insert an annotation and its `(object_id, start, end)` interval referents.
    /// Returns its id.
    pub fn insert(
        &mut self,
        title: &str,
        comment: &str,
        creator: &str,
        referents: &[(u64, u64, u64)],
    ) -> RelAnnotationId {
        let id = RelAnnotationId(self.next_ann);
        self.next_ann += 1;
        self.annotation
            .insert(vec![
                Value::Int(id.0 as i64),
                Value::text(title),
                Value::text(comment),
                Value::text(creator),
            ])
            .unwrap();
        for &(object, start, end) in referents {
            self.referent
                .insert(vec![
                    Value::Int(id.0 as i64),
                    Value::Int(object as i64),
                    Value::Int(start as i64),
                    Value::Int(end as i64),
                ])
                .unwrap();
        }
        id
    }

    /// Objects that have at least `count` consecutive, non-overlapping intervals (within
    /// `max_gap`) each annotated by an annotation whose comment contains `phrase`
    /// (case-insensitive substring).
    ///
    /// This is the relational evaluation of the protease query (Q2): it scans the
    /// annotation table for the phrase, joins annotation ⋈ referent by scanning, groups
    /// referents by object, and computes the chain — all without the a-graph or an
    /// interval tree.
    pub fn objects_with_consecutive_intervals(
        &self,
        phrase: &str,
        count: usize,
        max_gap: u64,
    ) -> Vec<u64> {
        // 1. qualifying annotation ids (scan).
        let annotation = &self.annotation;
        let qualifying: HashSet<i64> = annotation
            .scan(&Predicate::contains("comment", phrase))
            .into_iter()
            .filter_map(|rid| annotation.get_value(rid, "id").and_then(Value::as_int))
            .collect();
        // 2. join with referents (scan) grouping intervals by object.
        let referent = &self.referent;
        let mut by_object: BTreeMap<u64, Vec<Interval>> = BTreeMap::new();
        for rid in referent.scan(&Predicate::True) {
            let row = referent.get(rid).unwrap();
            if !qualifying.contains(&row[0].as_int().unwrap()) {
                continue;
            }
            let object = row[1].as_int().unwrap() as u64;
            let start = row[2].as_int().unwrap() as u64;
            let end = row[3].as_int().unwrap() as u64;
            by_object.entry(object).or_default().push(Interval::new(start, end));
        }
        // 3. per object, compute the longest consecutive chain.
        by_object
            .into_iter()
            .filter_map(|(obj, mut ivs)| (longest_chain(&mut ivs, max_gap) >= count).then_some(obj))
            .collect()
    }

    /// Transitively related annotations: all annotations reachable from `start` by
    /// repeatedly hopping "shares a referent object+interval", sorted — the relational
    /// evaluation of the a-graph's connection structure.
    ///
    /// With no a-graph join index, this is an **iterative self-join** over the referent
    /// table: each round finds the referents of the current annotation frontier, then the
    /// other annotations on those same referents, until the set stops growing.  The
    /// a-graph replaces this with a single BFS.
    pub fn transitively_related(&self, start: RelAnnotationId) -> Vec<RelAnnotationId> {
        let referent = &self.referent;
        // materialise referent rows once (object, start, end, ann)
        let rows: Vec<(u64, u64, u64, u64)> = referent
            .scan(&Predicate::True)
            .into_iter()
            .map(|rid| {
                let r = referent.get(rid).unwrap();
                (
                    r[1].as_int().unwrap() as u64,
                    r[2].as_int().unwrap() as u64,
                    r[3].as_int().unwrap() as u64,
                    r[0].as_int().unwrap() as u64,
                )
            })
            .collect();

        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(start.0);
        let mut frontier = vec![start.0];
        while let Some(ann) = frontier.pop() {
            // referents of `ann` (self-join pass 1: scan)
            let my_refs: Vec<(u64, u64, u64)> = rows
                .iter()
                .filter(|(_, _, _, a)| *a == ann)
                .map(|(o, s, e, _)| (*o, *s, *e))
                .collect();
            // other annotations on those same referents (self-join pass 2: scan)
            for (o, s, e) in my_refs {
                for (ro, rs, re, a) in &rows {
                    if *ro == o && *rs == s && *re == e && seen.insert(*a) {
                        frontier.push(*a);
                    }
                }
            }
        }
        seen.remove(&start.0);
        let mut out: Vec<RelAnnotationId> = seen.into_iter().map(RelAnnotationId).collect();
        out.sort();
        out
    }
}

/// Mirror a Graphitti system's annotations and their interval referents into a
/// relational store, so both answer the same query over the same logical data.
/// Returns the store and the Graphitti id of each mirrored annotation, in mirror order:
/// `RelAnnotationId(i)` is the mirror of `ids[i]`.
pub fn mirror_to_relational(sys: &Graphitti) -> (RelationalAnnotationStore, Vec<AnnotationId>) {
    let mut rel = RelationalAnnotationStore::new();
    let mut ids = Vec::new();
    for ann in sys.annotations() {
        let referents: Vec<(u64, u64, u64)> = ann
            .referents
            .iter()
            .filter_map(|&rid| sys.referent(rid))
            .filter_map(|r| match r.marker {
                Marker::Interval(iv) => Some((r.object.0, iv.start, iv.end)),
                _ => None,
            })
            .collect();
        rel.insert(
            ann.title().unwrap_or(""),
            ann.comment().unwrap_or(""),
            ann.creator().unwrap_or(""),
            &referents,
        );
        ids.push(ann.id);
    }
    (rel, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphitti_query::{Executor, GraphConstraint, Query, Target};

    #[test]
    fn consecutive_interval_join() {
        let mut s = RelationalAnnotationStore::new();
        // object 1: four consecutive protease intervals
        for i in 0..4u64 {
            let start = i * 100;
            s.insert(
                &format!("a{i}"),
                "contains protease motif",
                "gupta",
                &[(1, start, start + 50)],
            );
        }
        // object 2: one protease + one non-protease
        s.insert("b0", "protease here", "x", &[(2, 0, 50)]);
        s.insert("b1", "nothing special", "x", &[(2, 100, 150)]);
        // object 1 has 4 consecutive protease intervals
        assert_eq!(s.objects_with_consecutive_intervals("protease", 4, 60), vec![1]);
        // requiring 5 finds none
        assert!(s.objects_with_consecutive_intervals("protease", 5, 60).is_empty());
        // object 2 has only one protease interval
        assert_eq!(s.objects_with_consecutive_intervals("protease", 1, 60), vec![1, 2]);
        assert!(s.objects_with_consecutive_intervals("zzz", 1, 60).is_empty());
    }

    #[test]
    fn transitive_related_via_shared_referents() {
        // a0 -- (obj1,0,10) -- a1 -- (obj1,20,30) -- a2 ; a3 is unrelated
        let mut s = RelationalAnnotationStore::new();
        let a0 = s.insert("a0", "c", "x", &[(1, 0, 10)]);
        let a1 = s.insert("a1", "c", "x", &[(1, 0, 10), (1, 20, 30)]);
        let a2 = s.insert("a2", "c", "x", &[(1, 20, 30)]);
        let a3 = s.insert("a3", "c", "x", &[(2, 0, 10)]);
        assert_eq!(s.transitively_related(a0), vec![a1, a2]);
        assert_eq!(s.transitively_related(a2), vec![a0, a1]);
        assert!(s.transitively_related(a3).is_empty());
    }

    /// The comparator the paper rows time against agrees exactly with Graphitti on
    /// both compared operations over a mirrored influenza corpus.
    #[test]
    fn mirror_answers_like_graphitti() {
        let sys = crate::influenza_system(200, 2008);
        let (rel, ids) = mirror_to_relational(&sys);
        assert_eq!(ids.len(), sys.annotation_count());

        let query = Query::new(Target::Referents)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 2_000 });
        let mut objects: Vec<u64> =
            Executor::new(&sys).run(&query).objects.iter().map(|o| o.0).collect();
        objects.sort_unstable();
        assert_eq!(objects, rel.objects_with_consecutive_intervals("protease", 4, 2_000));

        let mut connected = 0;
        for (i, &id) in ids.iter().enumerate() {
            let related = sys.transitively_related_annotations(id);
            let mirrored: Vec<AnnotationId> = rel
                .transitively_related(RelAnnotationId(i as u64))
                .into_iter()
                .map(|r| ids[r.0 as usize])
                .collect();
            assert_eq!(related, mirrored, "reachable sets from {id:?}");
            connected += usize::from(!related.is_empty());
        }
        assert!(connected > 0, "the corpus has shared referents to follow");
    }
}
