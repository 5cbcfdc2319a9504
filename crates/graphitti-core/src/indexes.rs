//! Persistent secondary indexes and statistics over the annotation registries.
//!
//! The paper's query processor "separates subqueries … finding a feasible order among
//! these subqueries" — which only pays off when each subquery can be answered without
//! scanning the registries. This module holds the inverted maps that make that
//! possible, maintained **incrementally** — extended once per batch with the records
//! it added (a lone register or annotate is a batch of one), never rebuilt per query:
//!
//! * `term → posting list of AnnotationId` — drives ontology subqueries,
//! * `data type → ReferentId`s — drives `OfType` referent subqueries,
//! * `block id → ReferentId`s — drives `BlockContains` referent subqueries,
//! * `referent → AnnotationId`s — constant-time "who annotated this substructure",
//!
//! plus [`Stats`], the per-term / per-type / per-domain counts the planner uses to
//! estimate subquery selectivity from real data instead of hard-coded guesses.
//!
//! Every posting list is a **strictly ascending, deduplicated `Vec`** (ids are dense
//! and allocated in increasing order, so appends preserve order — the maintenance
//! paths below `debug_assert!` it).  The executor relies on this invariant twice: to
//! intersect and union candidate runs by galloping merge / probe membership by
//! binary search, and to seed a candidate run from a posting **without re-sorting**.
//!
//! `Indexes::clone` is shallow and allocates nothing, because a commit that finds the
//! index shared with a snapshot clones it first.  The map keyed by a dense id
//! (`referent → annotations`) is a [`ChunkedVec`]: a write copies the chunk it lands
//! in.  So is the one posting every referent of a type is appended to (`type →
//! referents`), which a whole-`Vec` posting would copy entire on every commit that
//! marks a substructure while a snapshot is held.  The maps keyed by the fixed set of data types are arrays; those keyed by
//! vocabulary (term, block id, and the statistics' counters) are [`BucketMap`]s.  Each posting is behind its own `Arc`: a commit copies the bucket
//! of each key it writes and the postings it appends to — one contiguous `Vec` each,
//! as the executor's merges require — and shares the rest.  What is left proportional
//! to the corpus is therefore the length of the postings a commit extends (8 bytes per
//! entry), not the index.

use std::sync::Arc;

use chunked::{BucketMap, ChunkedVec, SmallList};
use ontology::ConceptId;

use crate::annotation::{Annotation, AnnotationId};
use crate::marker::Marker;
use crate::referent::{Referent, ReferentId};
use crate::system::{ObjectId, ObjectInfo};
use crate::types::DataType;

/// Workload statistics maintained alongside the indexes, used by the query planner for
/// selectivity estimation.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Committed annotations.
    pub annotations: usize,
    /// Created referents.
    pub referents: usize,
    /// Registered objects.
    pub objects: usize,
    /// Interval referents per coordinate domain.
    pub interval_referents_by_domain: BucketMap<Arc<str>, usize>,
    /// Region / volume referents per coordinate system.
    pub region_referents_by_system: BucketMap<Arc<str>, usize>,
    /// Block-set referents (all domains).
    pub block_referents: usize,
    /// Annotations citing each ontology term.
    pub term_citations: BucketMap<ConceptId, usize>,
    /// Referents per data type, indexed by `DataType as usize`.
    pub referents_by_type: ByType<usize>,
}

impl Stats {
    /// Number of annotations citing `term`.
    pub fn term_citation_count(&self, term: ConceptId) -> usize {
        self.term_citations.get(&term).copied().unwrap_or(0)
    }

    /// Number of referents on objects of `data_type`.
    pub fn type_count(&self, data_type: DataType) -> usize {
        self.referents_by_type[data_type as usize]
    }

    /// Number of interval referents in `domain`, or across all domains when `None`.
    pub fn interval_count(&self, domain: Option<&str>) -> usize {
        match domain {
            Some(d) => self.interval_referents_by_domain.get(d).copied().unwrap_or(0),
            None => self.interval_referents_by_domain.values().sum(),
        }
    }

    /// Number of region / volume referents in `system`, or across all systems when
    /// `None`.
    pub fn region_count(&self, system: Option<&str>) -> usize {
        match system {
            Some(s) => self.region_referents_by_system.get(s).copied().unwrap_or(0),
            None => self.region_referents_by_system.values().sum(),
        }
    }
}

/// One posting list of a vocabulary-keyed index.  Behind its own `Arc`, so cloning the
/// index bumps a pointer per key and an append to a clone copies the one list it
/// extends — and still one contiguous slice, which is what the executor's galloping
/// merges need.
type Posting<T> = Arc<Vec<T>>;

/// One value per data type, indexed by `DataType as usize`: the type set is fixed, so
/// these maps are arrays, which clone without allocating.
type ByType<T> = [T; DataType::ALL.len()];

/// Append `id` to a posting, which must stay strictly ascending.
fn append<T: Copy + Ord + std::fmt::Debug>(shared: &mut Posting<T>, id: T) {
    // A count read decides; the in-place path pays `Arc::get_mut`'s swap once, below.
    if Arc::strong_count(shared) > 1 {
        // A snapshot still holds the list: copy it once, with room for this push and
        // the rest of a small batch (`Arc::make_mut` would clone to an exact fit, and
        // the push would reallocate — and copy — what was just copied).
        let mut copy = Vec::with_capacity(shared.len() + 8);
        copy.extend_from_slice(shared);
        *shared = Arc::new(copy);
    }
    let posting = Arc::get_mut(shared).expect("unshared just above");
    debug_assert!(posting.last().is_none_or(|&last| last < id), "posting out of order at {id:?}");
    posting.push(id);
}

/// Count `n` more under `key` (a referent's domain, shared with it the first time).
fn count(counts: &mut BucketMap<Arc<str>, usize>, key: &Arc<str>, n: usize) {
    match counts.get_mut(&**key) {
        Some(count) => *count += n,
        None => {
            counts.insert(Arc::clone(key), n);
        }
    }
}

/// The posting of `key` as a slice (empty when the key is absent).
fn posting<'a, K: std::hash::Hash + Eq, T>(
    index: &'a BucketMap<K, Posting<T>>,
    key: &K,
) -> &'a [T] {
    index.get(key).map_or(&[], |posting| posting.as_slice())
}

/// The annotations that link one referent, ascending.  Almost every referent is
/// linked only by the annotation that created it, so that one id is held inline,
/// and a shared list is allocated only when another annotation reuses the referent.
type Linking = SmallList<AnnotationId, 1>;

/// The inverted secondary indexes, updated by the [`Graphitti`](crate::Graphitti)
/// facade on every registration / annotation commit.
#[derive(Debug, Clone, Default)]
pub struct Indexes {
    term_postings: BucketMap<ConceptId, Posting<AnnotationId>>,
    type_referents: ByType<ChunkedVec<ReferentId>>,
    type_objects: ByType<Posting<ObjectId>>,
    block_referents: BucketMap<u64, Posting<ReferentId>>,
    /// Indexed by [`ReferentId`] (dense): one slot per referent, pushed at its creation.
    referent_annotations: ChunkedVec<Linking>,
    stats: Stats,
}

impl Indexes {
    /// Current workload statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Sorted posting list of annotations citing `term` (empty when none).
    pub fn annotations_citing(&self, term: ConceptId) -> &[AnnotationId] {
        posting(&self.term_postings, &term)
    }

    /// Sorted list of referents on objects of `data_type`.
    pub fn referents_of_type(&self, data_type: DataType) -> &ChunkedVec<ReferentId> {
        &self.type_referents[data_type as usize]
    }

    /// Sorted list of objects of `data_type` (ids are dense and registered in
    /// increasing order, so appends preserve order).
    pub(crate) fn objects_of_type(&self, data_type: DataType) -> &[ObjectId] {
        &self.type_objects[data_type as usize]
    }

    /// Sorted list of block-set referents containing `block_id`.
    pub fn referents_with_block(&self, block_id: u64) -> &[ReferentId] {
        posting(&self.block_referents, &block_id)
    }

    /// Sorted list of annotations linking `referent`.
    pub fn annotations_of_referent(&self, referent: ReferentId) -> &[AnnotationId] {
        self.referent_annotations.get(referent.0 as usize).map_or(&[], Linking::as_slice)
    }

    // --- incremental maintenance (called by the facade) ---

    /// Index what one batch added, each kind in id order: its `objects`, its
    /// `referents` (each with its owning object's type), then its `annotations` — the
    /// order that puts a referent's slot before the annotations that link it.
    pub(crate) fn extend<'a>(
        &mut self,
        objects: impl Iterator<Item = &'a ObjectInfo>,
        referents: impl Iterator<Item = (&'a Referent, DataType)> + Clone,
        annotations: impl Iterator<Item = &'a Annotation>,
    ) {
        for object in objects {
            append(&mut self.type_objects[object.data_type as usize], object.id);
            self.stats.objects += 1;
        }
        self.add_referents(referents.clone());
        let domains = |interval: bool| {
            referents.clone().filter_map(move |(referent, _)| match referent.marker {
                Marker::Interval(_) if interval => Some(&referent.domain),
                Marker::Region(_) | Marker::Volume(_) if !interval => Some(&referent.domain),
                _ => None,
            })
        };
        tally(&mut self.stats.interval_referents_by_domain, domains(true));
        tally(&mut self.stats.region_referents_by_system, domains(false));
        for annotation in annotations {
            self.add_annotation(annotation.id, &annotation.referents, &annotation.terms);
        }
    }

    /// Index new referents, all but their per-domain counts.
    fn add_referents<'a>(&mut self, referents: impl Iterator<Item = (&'a Referent, DataType)>) {
        for (referent, data_type) in referents {
            debug_assert_eq!(
                referent.id.0 as usize,
                self.referent_annotations.len(),
                "referent ids are dense and arrive in order"
            );
            self.referent_annotations.push(Linking::new());
            let of_type = &mut self.type_referents[data_type as usize];
            debug_assert!(of_type.last().is_none_or(|&last| last < referent.id));
            of_type.push(referent.id);
            self.stats.referents_by_type[data_type as usize] += 1;
            self.stats.referents += 1;
            if let Marker::BlockSet(ids) = &referent.marker {
                self.stats.block_referents += 1;
                for &id in ids.iter() {
                    append(
                        self.block_referents.get_or_insert_with(id, Posting::default),
                        referent.id,
                    );
                }
            }
        }
    }

    /// Index a committed annotation: its linked referents and cited terms. `terms`
    /// may contain duplicates; postings record each annotation once.
    fn add_annotation(
        &mut self,
        annotation: AnnotationId,
        referents: &[ReferentId],
        terms: &[ConceptId],
    ) {
        self.stats.annotations += 1;
        for &term in terms {
            if posting(&self.term_postings, &term).last() != Some(&annotation) {
                append(self.term_postings.get_or_insert_with(term, Posting::default), annotation);
                *self.stats.term_citations.get_or_insert_with(term, || 0) += 1;
            }
        }
        for &rid in referents {
            let postings = self
                .referent_annotations
                .get_mut(rid.0 as usize)
                .expect("an annotation links referents that were added first");
            debug_assert!(
                postings.as_slice().last().is_none_or(|&last| last < annotation),
                "referent-annotation posting out of order"
            );
            postings.push(annotation);
        }
    }
}

/// Keys a batch's counts are held for inline before they reach the map.
const TALLIED: usize = 8;

/// Count `keys` into `counts` with one map probe per distinct key: a batch names a
/// few coordinate domains many times, so the first [`TALLIED`] distinct ones are
/// counted inline and added once; any beyond are counted one by one.
fn tally<'a>(counts: &mut BucketMap<Arc<str>, usize>, keys: impl Iterator<Item = &'a Arc<str>>) {
    let mut held: [Option<(&Arc<str>, usize)>; TALLIED] = [None; TALLIED];
    for key in keys {
        match held.iter_mut().find(|slot| slot.is_none_or(|(held, _)| **held == **key)) {
            Some(slot) => slot.get_or_insert((key, 0)).1 += 1,
            None => count(counts, key, 1),
        }
    }
    for (key, n) in held.into_iter().flatten() {
        count(counts, key, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn referent(id: u64, marker: Marker, domain: &str) -> Referent {
        Referent::new(ReferentId(id), crate::ObjectId(0), marker, domain)
    }

    fn annotation(id: u64, referents: &[u64], terms: &[ConceptId]) -> Annotation {
        Annotation {
            id: AnnotationId(id),
            content: xmlstore::DublinCore::new(),
            referents: referents.iter().map(|&r| ReferentId(r)).collect(),
            terms: terms.into(),
        }
    }

    #[test]
    fn referent_indexes_and_stats() {
        let mut idx = Indexes::default();
        let object = ObjectInfo {
            id: crate::ObjectId(0),
            data_type: DataType::DnaSequence,
            name: "seq".into(),
            row: Arc::default(),
            payload: Arc::default(),
            domain: "chr1".into(),
        };
        let referents = [
            (referent(0, Marker::interval(0, 10), "chr1"), DataType::DnaSequence),
            (referent(1, Marker::interval(5, 20), "chr1"), DataType::DnaSequence),
            (referent(2, Marker::region(0.0, 0.0, 1.0, 1.0), "cs"), DataType::Image),
            (referent(3, Marker::block_set([4, 7]), "r"), DataType::RelationalRecord),
        ];
        let referents = referents.iter().map(|(r, t)| (r, *t));
        idx.extend(std::iter::once(&object), referents, std::iter::empty());

        let dna: Vec<ReferentId> =
            idx.referents_of_type(DataType::DnaSequence).iter().copied().collect();
        assert_eq!(dna, [ReferentId(0), ReferentId(1)]);
        assert_eq!(idx.objects_of_type(DataType::DnaSequence), &[crate::ObjectId(0)]);
        assert!(idx.objects_of_type(DataType::Image).is_empty());
        assert_eq!(idx.referents_with_block(7), &[ReferentId(3)]);
        assert!(idx.referents_with_block(99).is_empty());
        let s = idx.stats();
        assert_eq!(s.objects, 1);
        assert_eq!(s.referents, 4);
        assert_eq!(s.interval_count(Some("chr1")), 2);
        assert_eq!(s.interval_count(None), 2);
        assert_eq!(s.region_count(Some("cs")), 1);
        assert_eq!(s.block_referents, 1);
        assert_eq!(s.type_count(DataType::Image), 1);
        assert_eq!(s.type_count(DataType::ProteinModel), 0);
    }

    #[test]
    fn a_tally_counts_beyond_the_keys_it_holds_inline() {
        let keys: Vec<Arc<str>> = (0..3 * TALLIED).map(|k| Arc::from(format!("d{k}"))).collect();
        let mut counts = BucketMap::new();
        tally(&mut counts, keys.iter().chain(&keys[..2]).chain(&keys[TALLIED + 1..]));
        for (k, key) in keys.iter().enumerate() {
            let expected = if (2..=TALLIED).contains(&k) { 1 } else { 2 };
            assert_eq!(counts.get(&**key), Some(&expected), "{key}");
        }
    }

    #[test]
    fn annotation_postings_stay_sorted_and_deduped() {
        let mut idx = Indexes::default();
        let referents: Vec<Referent> =
            (0..2).map(|id| referent(id, Marker::interval(0, 10), "chr1")).collect();
        let (no_objects, no_referents) = (std::iter::empty, std::iter::empty);
        let added = referents.iter().map(|r| (r, DataType::Image));
        idx.extend(no_objects(), added, std::iter::empty());
        let t = ConceptId(3);
        let first = annotation(0, &[0], &[t, t]);
        idx.extend(no_objects(), no_referents(), std::iter::once(&first));
        let second = annotation(1, &[0, 1], &[t]);
        idx.extend(no_objects(), no_referents(), std::iter::once(&second));
        assert_eq!(idx.annotations_citing(t), &[AnnotationId(0), AnnotationId(1)]);
        assert_eq!(idx.stats().term_citation_count(t), 2);
        assert_eq!(idx.annotations_of_referent(ReferentId(0)), &[AnnotationId(0), AnnotationId(1)]);
        assert!(idx.annotations_of_referent(ReferentId(9)).is_empty());
    }
}
