//! [`Graphitti`] — the system facade — and [`SystemView`], its immutable read state.
//!
//! `Graphitti` owns every store and index and implements the demo's three activities:
//! **register** heterogeneous data objects (with type-specific metadata), **annotate**
//! their substructures (building the a-graph), and **explore** the resulting connection
//! structure.  It is the object a downstream application holds.
//!
//! All registries, stores and indexes live in a [`SystemView`] behind an `Arc`;
//! `Graphitti` derefs to it, so every read method is callable on either.  The view is
//! itself a **tree of independently shared components**: every substrate store, every
//! registry and the inverted indexes sit behind their own inner `Arc` (see
//! [`Component`]), beside the epoch of its last write.  Mutations go through
//! [`Arc::make_mut`] at *both* levels (inside a component's `write(epoch)`, its only
//! mutable access, so nothing is written without being stamped dirty): while no
//! [`Snapshot`](crate::Snapshot) is outstanding they are plain in-place updates, and
//! the first mutation after a snapshot is taken shallow-copies the component tree (a
//! dozen `Arc` bumps) and then un-shares **only the components that mutation touches**
//! — and cloning a component is itself shallow.  Inside a component, every per-entity
//! store (keyed by a dense, monotonically allocated id: the registries, the documents,
//! the referent → annotations index) is a [`ChunkedVec`], whose clone bumps one
//! pointer per chunk and whose writes copy the touched chunk; every vocabulary-keyed
//! map (terms, tokens, data types, coordinate domains) keeps its map and holds values
//! that are themselves cheap to clone (an `Arc`'d posting or table, a persistent
//! tree).  So a commit after a snapshot costs O(batch), not O(corpus) and not even
//! O(dirty components), the snapshot keeps structurally sharing everything the commit
//! did not write, and `tests/commit_cost.rs` at the repo root pins that the bytes a
//! commit allocates grow by less than half when the corpus grows fourfold.  Readers
//! therefore never block writers and never observe torn state — see
//! [`crate::snapshot`] for the read-handle side, and [`crate::batch`] for coalescing
//! many writes into one epoch bump.
//!
//! The view stores no a-graph: every a-graph link is a field of the record that
//! holds it, and every reverse direction is an index, so [`SystemView`] implements
//! [`Links`] over them (see its impl).

use std::sync::{Arc, OnceLock};

use agraph::{EdgeId, Links, MultiGraph, NodeId, NodeKind, NodeRecord, MAX_LINKS};
use chunked::{ChunkedVec, SmallList};
use interval_index::{DomainIntervals, Interval};
use ontology::{ConceptId, Ontology};
use relstore::Value;
use spatial_index::{CoordinateSystems, Rect};
use xmlstore::ContentStore;

use crate::annotation::{Annotation, AnnotationId, AnnotationSpec};
use crate::epoch::{EpochVector, Stamp, Versioned};
use crate::error::CoreError;
use crate::indexes::{Indexes, Stats};
use crate::marker::Marker;
use crate::referent::{Referent, ReferentId};
use crate::study::StudySnapshot;
use crate::types::DataType;
use crate::wal::LogReferent;
use crate::write::WriteSystem;
use crate::Result;

/// Identifier of a registered data object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// A registered object's registry entry: its type, name, metadata row, payload and
/// index domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    /// The object's id.
    pub id: ObjectId,
    /// The object's data type.
    pub data_type: DataType,
    /// The object's human-readable name / accession (shared, like the domain).
    pub name: Arc<str>,
    /// The object's metadata row: one value per column of its type's relation, checked
    /// when it was registered.  Shared with every replica of a sharded deployment.
    pub row: Arc<[Value]>,
    /// The object's raw data "in its native format" (empty when it has none).
    pub payload: Arc<[u8]>,
    /// The coordinate domain (sequences) or coordinate system (spatial) the object's
    /// substructures are indexed under.  Empty for discrete types.  Shared with every
    /// referent on the object, so marking one copies no name.
    pub domain: Arc<str>,
}

/// One independently shared component of a [`SystemView`].
///
/// The view is a tree of `Arc`s, one per component; a mutation un-shares only the
/// components it touches (and only when they are still shared with a snapshot), and
/// within them copies only the chunks, postings and tree paths it writes.
/// Tests use [`SystemView::shares_component`] to prove that untouched components stay
/// structurally shared across a snapshot/write boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The annotation-content store (XML documents + keyword index).
    Content,
    /// The interval-index collection.
    Intervals,
    /// The spatial-index collection.
    Spatial,
    /// The ontology store.
    Ontology,
    /// The object registry.
    Objects,
    /// The referent registry.
    Referents,
    /// The annotation registry.
    Annotations,
    /// The object → referents secondary map.
    ObjectReferents,
    /// The inverted secondary indexes + planner statistics.
    Indexes,
}

impl Component {
    /// Every component, in declaration order.
    pub const ALL: [Component; 9] = [
        Component::Content,
        Component::Intervals,
        Component::Spatial,
        Component::Ontology,
        Component::Objects,
        Component::Referents,
        Component::Annotations,
        Component::ObjectReferents,
        Component::Indexes,
    ];
}

/// The a-graph written out as a [`MultiGraph`]: a compatibility image for callers that
/// still read node and edge records (the end-to-end benchmark's adapter reads them
/// through the `agraph()` methods).  It is built from the links on its first read and
/// dropped by the next write; a clone starts without one, because a clone is where a
/// new version's writes go.  No serving path reads it; ROADMAP item 1(c) deletes it
/// with its last reader.
#[derive(Debug, Default)]
pub(crate) struct Image(pub(crate) OnceLock<MultiGraph>);

impl Clone for Image {
    fn clone(&self) -> Image {
        Image::default()
    }
}

/// Every a-graph node of a system with `annotations` annotations, `referents`
/// referents and `objects` objects whose annotations cite `terms` (in any order),
/// ascending: contents, referents, cited terms, then objects.
pub(crate) fn every_node(
    annotations: usize,
    referents: usize,
    mut terms: Vec<ConceptId>,
    objects: usize,
) -> Vec<NodeId> {
    terms.sort_unstable();
    terms.dedup();
    let ids =
        |kind: NodeKind, count: usize| (0..count as u64).map(move |key| NodeId::new(kind, key));
    ids(NodeKind::Content, annotations)
        .chain(ids(NodeKind::Referent, referents))
        .chain(terms.into_iter().map(|t| NodeId::new(NodeKind::OntologyTerm, t.0.into())))
        .chain(ids(NodeKind::Object, objects))
        .collect()
}

/// Referents an object's list holds inline before it moves to a shared buffer.
const INLINE_REFERENTS: usize = 4;

/// One object registration, checked and built once — the name, the metadata row, the
/// payload and the domain, each behind an `Arc` — and applied as it is to the view, or
/// to every replica of a sharded deployment, which then share one row and one name.
#[derive(Debug)]
pub(crate) struct Registration {
    data_type: DataType,
    name: Arc<str>,
    row: Arc<[Value]>,
    payload: Arc<[u8]>,
    domain: Arc<str>,
}

impl Registration {
    /// The registration of an object whose metadata row fits its type's columns
    /// ([`DataType::columns`]); a row they refuse is an error, and nothing is written.
    pub(crate) fn new(
        data_type: DataType,
        name: String,
        metadata: Vec<Value>,
        payload: Arc<[u8]>,
        domain: String,
    ) -> Result<Registration> {
        relstore::check_row(data_type.columns(), &metadata)
            .map_err(|e| CoreError::Relational(format!("{data_type:?} metadata: {e}")))?;
        Ok(Registration {
            data_type,
            name: Arc::from(name),
            row: Arc::from(metadata),
            payload,
            domain: Arc::from(domain),
        })
    }
}

/// The complete read state of a Graphitti system: every registry, store and index.
///
/// `Graphitti` and [`Snapshot`](crate::Snapshot) both deref to this type, so the whole
/// read API (lookups, exploration, substructure queries, integrity checks) is written
/// once here and shared by the live system and by isolated snapshots.  Cloning is
/// **shallow** — one `Arc` bump per [`Component`]; a component is un-shared lazily by
/// the first mutation that touches it while it is still shared (`Arc::make_mut` inside
/// `Versioned::write`, which also stamps the write's epoch — which components a write
/// dirtied is read off those stamps, never declared), and that clone is shallow
/// again: chunk pointers, posting pointers and tree roots, never the entities (see the
/// [module docs](self)).
#[derive(Debug, Default, Clone)]
pub struct SystemView {
    content: Versioned<ContentStore>,
    intervals: Versioned<DomainIntervals>,
    spatial: Versioned<CoordinateSystems>,
    ontology: Versioned<Ontology>,

    objects: Versioned<ChunkedVec<ObjectInfo>>,
    referents: Versioned<ChunkedVec<Referent>>,
    annotations: Versioned<ChunkedVec<Annotation>>,

    /// Secondary index: object → its referents, so exploration is O(k) not O(all
    /// referents).  Indexed by [`ObjectId`]; a registration does not touch this
    /// component, so the vector is padded up to an object when it gets its first
    /// referent and may be shorter than the object registry.
    ///
    /// Each list is a [`SmallList`]: an object's first few referents inline, a longer
    /// list in a shared buffer, so copying a chunk of lists allocates once.
    ///
    /// **Ordering contract:** each per-object list is strictly ascending by
    /// [`ReferentId`] — referent ids are allocated monotonically and each referent
    /// is appended to exactly one object's list at creation, so mark order and id
    /// order coincide.  [`SystemView::referents_of_object`] returns the slice
    /// as-is; the query executor seeds candidate runs from it without re-sorting,
    /// which requires strict ascent (debug-asserted at both ends).
    object_referents: Versioned<ChunkedVec<SmallList<ReferentId, INLINE_REFERENTS>>>,
    /// Inverted secondary indexes + workload statistics, maintained incrementally at
    /// register / annotate time (never rebuilt per query).
    indexes: Versioned<Indexes>,
    /// The compatibility image behind [`agraph`](Self::agraph); not a component.
    image: Image,
}

impl SystemView {
    // --- read-only accessors for substrate stores (used by the query engine) ---

    /// The annotation-content store.
    pub fn content_store(&self) -> &ContentStore {
        &self.content
    }

    /// The interval-index collection.
    pub fn intervals(&self) -> &DomainIntervals {
        &self.intervals
    }

    /// The spatial-index collection.
    pub fn spatial(&self) -> &CoordinateSystems {
        &self.spatial
    }

    /// The ontology store.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    // --- structural sharing and component epochs ---

    /// The field ↔ [`Component`] listing: the stamp (last-write epoch and storage
    /// identity) of the field that holds `component`.
    fn stamp(&self, component: Component) -> Stamp {
        match component {
            Component::Content => self.content.stamp(),
            Component::Intervals => self.intervals.stamp(),
            Component::Spatial => self.spatial.stamp(),
            Component::Ontology => self.ontology.stamp(),
            Component::Objects => self.objects.stamp(),
            Component::Referents => self.referents.stamp(),
            Component::Annotations => self.annotations.stamp(),
            Component::ObjectReferents => self.object_referents.stamp(),
            Component::Indexes => self.indexes.stamp(),
        }
    }

    /// The per-component epoch vector: for each [`Component`], the global epoch of the
    /// last write that reached it.
    pub(crate) fn component_epochs(&self) -> EpochVector {
        EpochVector::from_fn(|c| self.stamp(c).epoch)
    }

    /// Whether `self` and `other` share the storage of one component (`Arc::ptr_eq` on
    /// the component's inner `Arc`).  After a snapshot capture every component is
    /// shared; a mutation un-shares exactly the components it touches.  Tests use this
    /// to prove the copy-on-write granularity.
    pub fn shares_component(&self, other: &SystemView, component: Component) -> bool {
        self.stamp(component).storage == other.stamp(component).storage
    }

    /// This view with `component` empty and every other component shared — a
    /// measuring hook, not a system: while `self` is the only other holder of
    /// `component`, dropping `self` frees exactly what `component` keeps resident.
    // lint: allow(dead-pub) -- test oracle: tests/commit_cost.rs (the per-component resident rows)
    pub fn without(&self, component: Component) -> SystemView {
        let mut view = self.clone();
        match component {
            Component::Content => view.content = Versioned::default(),
            Component::Intervals => view.intervals = Versioned::default(),
            Component::Spatial => view.spatial = Versioned::default(),
            Component::Ontology => view.ontology = Versioned::default(),
            Component::Objects => view.objects = Versioned::default(),
            Component::Referents => view.referents = Versioned::default(),
            Component::Annotations => view.annotations = Versioned::default(),
            Component::ObjectReferents => view.object_referents = Versioned::default(),
            Component::Indexes => view.indexes = Versioned::default(),
        }
        view
    }

    /// The a-graph written out, built on the first call after a write (see [`Image`]):
    /// a compatibility image for the end-to-end benchmark's adapter, which ROADMAP item
    /// 1(c) deletes.  No serving path calls it; read the a-graph through [`Links`].
    pub fn agraph(&self) -> &MultiGraph {
        self.image.0.get_or_init(|| MultiGraph::from_links(self, self.nodes()))
    }

    /// Every a-graph node, ascending: contents, referents, cited terms, then objects.
    pub fn nodes(&self) -> Vec<NodeId> {
        let terms = self.stats().term_citations.iter().map(|(&term, _)| term).collect();
        every_node(self.annotations.len(), self.referents.len(), terms, self.objects.len())
    }

    /// The inverted secondary indexes (term postings, type / block → referents,
    /// referent → annotations), used by the query engine's pipelined executor.
    pub fn indexes(&self) -> &Indexes {
        &self.indexes
    }

    /// Workload statistics (counts per term / type / domain), used by the query planner
    /// for selectivity estimation.
    pub fn stats(&self) -> &Stats {
        self.indexes.stats()
    }

    // --- counts ---

    /// Number of registered objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of referents.
    pub fn referent_count(&self) -> usize {
        self.referents.len()
    }

    /// Number of committed annotations.
    pub fn annotation_count(&self) -> usize {
        self.annotations.len()
    }

    // --- registration ---

    /// Register a checked data object at global epoch `epoch` (facade-internal; see
    /// [`Graphitti::register_object`]).
    fn register_object(&mut self, epoch: u64, registration: &Registration) -> ObjectId {
        let Registration { data_type, name, row, payload, domain } = registration;
        let data_type = *data_type;
        let id = ObjectId(self.objects.len() as u64);
        self.objects.write(epoch).push(ObjectInfo {
            id,
            data_type,
            name: Arc::clone(name),
            row: Arc::clone(row),
            payload: Arc::clone(payload),
            domain: Arc::clone(domain),
        });
        id
    }

    /// Metadata about a registered object.
    pub fn object(&self, id: ObjectId) -> Option<&ObjectInfo> {
        self.objects.get(id.0 as usize)
    }

    /// The sorted ids of all objects of a given data type, as a borrowed slice.
    pub fn object_ids_of_type(&self, data_type: DataType) -> &[ObjectId] {
        self.indexes.objects_of_type(data_type)
    }

    /// All registered objects, indexed by [`ObjectId`].
    pub fn objects(&self) -> &ChunkedVec<ObjectInfo> {
        &self.objects
    }

    // --- annotation ---

    /// Commit an annotation spec at global epoch `epoch` (called by the builder through
    /// the facade).  All or nothing: every pending referent is checked before the
    /// first write, so a rejected annotate writes nothing — no referent, no component
    /// stamp — and a checkpoint has nothing of it to lose.
    fn commit_annotation(&mut self, epoch: u64, spec: AnnotationSpec) -> Result<AnnotationId> {
        let AnnotationSpec { content, referents, terms } = spec;
        if referents.is_empty() && terms.is_empty() {
            return Err(CoreError::EmptyAnnotation);
        }
        // An a-graph edge id holds a link's position in `MAX_LINKS`.
        if referents.len() + terms.len() > MAX_LINKS {
            return Err(CoreError::Graph(format!(
                "an annotation links at most {MAX_LINKS} referents and terms, this one {}",
                referents.len() + terms.len()
            )));
        }
        for pending in &referents {
            match pending {
                LogReferent::New { object, marker } => self.check_mark(*object, marker)?,
                LogReferent::Existing(rid) if self.referent(*rid).is_none() => {
                    return Err(CoreError::Graph(format!(
                        "annotation references unknown referent {rid:?}"
                    )));
                }
                LogReferent::Existing(_) => {}
            }
        }

        // 1. materialise referents: index each new one; an existing one is reused
        //    (shared referent → indirect relation).
        let mut linked = SmallList::<ReferentId, INLINE_REFERENTS>::new();
        for pending in referents {
            let rid = match pending {
                LogReferent::New { object, marker } => self.add_referent(epoch, object, marker)?,
                LogReferent::Existing(rid) => rid,
            };
            if !linked.contains(&rid) {
                linked.push(rid);
            }
        }
        let referent_ids: Arc<[ReferentId]> = Arc::from(linked.as_slice());
        let terms: Arc<[ConceptId]> = if terms.is_empty() { Arc::default() } else { terms.into() };

        // 2. the record, whose referents and terms are its a-graph links; its content
        //    document and the indexes of the links' reverse directions follow at the
        //    batch's end (`append_indexes`).
        let id = AnnotationId(self.annotations.len() as u64);
        self.annotations.write(epoch).push(Annotation {
            id,
            content,
            referents: referent_ids,
            terms,
        });
        Ok(id)
    }

    /// What a new mark must satisfy before an annotate writes anything: its object
    /// exists, its kind matches the object's dimensionality, and it is well formed.
    fn check_mark(&self, object: ObjectId, marker: &Marker) -> Result<()> {
        let data_type = self.object(object).ok_or(CoreError::UnknownObject(object))?.data_type;
        let expected = data_type.dimensionality();
        let got = marker.dimensionality();
        if expected != got {
            return Err(CoreError::MarkerKindMismatch { data_type, expected, got });
        }
        // A marker decoded from a log or a checkpoint was built field by field and
        // never met its constructor's checks: this is where it does.
        match marker.malformed() {
            Some(what) => {
                Err(CoreError::MarkerOutOfBounds { object, detail: format!("{what}: {marker}") })
            }
            None => Ok(()),
        }
    }

    /// Create a referent that [`check_mark`](Self::check_mark) passed, returning its
    /// id.  Its `object` is its `part-of` link; its marker is indexed at the batch's
    /// end (`append_indexes`).
    fn add_referent(&mut self, epoch: u64, object: ObjectId, marker: Marker) -> Result<ReferentId> {
        let domain = self.object(object).ok_or(CoreError::UnknownObject(object))?.domain.clone();
        let rid = ReferentId(self.referents.len() as u64);
        self.referents.write(epoch).push(Referent::new(rid, object, marker, domain));
        Ok(rid)
    }

    /// Whether some record has no derived-index entries yet: each kind's records past
    /// the count [`Stats`] holds of it were written by a batch still open.
    fn unindexed(&self) -> bool {
        let stats = self.indexes.stats();
        (stats.objects, stats.referents, stats.annotations)
            != (self.objects.len(), self.referents.len(), self.annotations.len())
    }

    /// The batch-end append: every derived structure takes the records the batch
    /// wrote — each kind's tail past what [`Stats`] counts as indexed — in one
    /// `extend`, stamped with the batch's `epoch`.  The content store takes the
    /// annotations' documents (a document's id is its annotation's), the interval and
    /// R-tree collections the referents' markers, the object → referents lists and
    /// the inverted indexes their links.  A structure the batch adds nothing to is
    /// not written, so the batch's dirty set is exactly what it reached.
    fn append_indexes(&mut self, epoch: u64) {
        if !self.unindexed() {
            return;
        }
        self.image = Image::default();
        let stats = self.indexes.stats();
        let (objects, referents, annotations) = (
            stats.objects..self.objects.len(),
            stats.referents..self.referents.len(),
            stats.annotations..self.annotations.len(),
        );
        let (records, notes) = (&self.referents, &self.annotations);
        let new_referents = referents.clone().map(|r| &records[r]);
        if !annotations.is_empty() {
            let documents = annotations.clone().map(|a| notes[a].content.clone());
            self.content.write(epoch).extend(documents);
        }
        let mut intervals = new_referents
            .clone()
            .filter_map(|r| match r.marker {
                Marker::Interval(iv) => Some((&*r.domain, iv, r.id.0)),
                _ => None,
            })
            .peekable();
        if intervals.peek().is_some() {
            self.intervals.write(epoch).extend(intervals);
        }
        let mut regions = new_referents
            .clone()
            .filter_map(|r| match r.marker {
                Marker::Region(rect) | Marker::Volume(rect) => Some((&*r.domain, rect, r.id.0)),
                _ => None,
            })
            .peekable();
        if regions.peek().is_some() {
            self.spatial.write(epoch).extend(regions);
        }
        if !referents.is_empty() {
            let lists = self.object_referents.write(epoch);
            for referent in new_referents.clone() {
                let (object, rid) = (referent.object.0 as usize, referent.id);
                while lists.len() <= object {
                    lists.push(SmallList::new());
                }
                let per_object = lists.get_mut(object).expect("padded up to the object");
                debug_assert!(
                    per_object.last().is_none_or(|&prev| prev < rid),
                    "object_referents ordering contract: new {rid:?} must exceed {:?}",
                    per_object.last()
                );
                per_object.push(rid);
            }
        }
        let registry = &self.objects;
        self.indexes.write(epoch).extend(
            objects.map(|o| &registry[o]),
            new_referents.map(|r| (r, registry[r.object.0 as usize].data_type)),
            annotations.map(|a| &notes[a]),
        );
    }

    // --- lookups ---

    /// An annotation by id.
    pub fn annotation(&self, id: AnnotationId) -> Option<&Annotation> {
        self.annotations.get(id.0 as usize)
    }

    /// All annotations, indexed by [`AnnotationId`].
    pub fn annotations(&self) -> &ChunkedVec<Annotation> {
        &self.annotations
    }

    /// A referent by id.
    pub fn referent(&self, id: ReferentId) -> Option<&Referent> {
        self.referents.get(id.0 as usize)
    }

    /// All referents, indexed by [`ReferentId`].
    pub fn referents(&self) -> &ChunkedVec<Referent> {
        &self.referents
    }

    // --- exploration (correlated data viewing) ---

    /// The referents of an object: every marked substructure of it. `O(k)` via the
    /// object→referents index, returned as a borrowed slice (no per-call allocation).
    pub fn referents_of_object(&self, object: ObjectId) -> &[ReferentId] {
        self.object_referents.get(object.0 as usize).map(SmallList::as_slice).unwrap_or(&[])
    }

    /// The annotations that link a given referent, ascending. Answered from the
    /// referent → annotations index as a borrowed slice (no a-graph traversal, no
    /// per-call allocation).
    pub fn annotations_of_referent(&self, referent: ReferentId) -> &[AnnotationId] {
        self.indexes.annotations_of_referent(referent)
    }

    /// All annotations that touch an object (through any of its referents) — "what other
    /// annotations have been made on this sequence".
    pub fn annotations_of_object(&self, object: ObjectId) -> Vec<AnnotationId> {
        let mut out: Vec<AnnotationId> = self
            .referents_of_object(object)
            .iter()
            .flat_map(|&rid| self.indexes.annotations_of_referent(rid))
            .copied()
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Annotations indirectly related to the given one because they share a referent —
    /// the paper's notion that "if the same referent is connected to two different
    /// annotations … the two annotations become indirectly related".
    pub fn related_annotations(&self, annotation: AnnotationId) -> Vec<AnnotationId> {
        let Some(ann) = self.annotation(annotation) else {
            return Vec::new();
        };
        let mut out: Vec<AnnotationId> = ann
            .referents
            .iter()
            .flat_map(|&rid| self.indexes.annotations_of_referent(rid))
            .copied()
            .filter(|&other| other != annotation)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Transitively related annotations: every annotation reachable from `start` by
    /// repeatedly hopping through shared referents.  A single breadth-first traversal of
    /// the a-graph's content↔referent links — each annotation's referents, and each
    /// referent's annotations off the index — the operation the a-graph join index
    /// exists to make cheap (a relational store needs an iterative self-join).
    pub fn transitively_related_annotations(&self, start: AnnotationId) -> Vec<AnnotationId> {
        use std::collections::{HashSet, VecDeque};
        if self.annotation(start).is_none() {
            return Vec::new();
        }
        let mut visited: HashSet<AnnotationId> = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(content) = queue.pop_front() {
            let referents = self.annotation(content).map_or(&[][..], |a| &a.referents);
            for &referent in referents {
                for &other in self.annotations_of_referent(referent) {
                    if visited.insert(other) {
                        out.push(other);
                        queue.push_back(other);
                    }
                }
            }
        }
        out.sort();
        out
    }

    // --- substructure queries delegated to the indexes ---

    /// Referents whose interval overlaps `query` within a coordinate domain.
    pub fn overlapping_intervals(&self, domain: &str, query: Interval) -> Vec<ReferentId> {
        self.intervals
            .overlapping(domain, query)
            .into_iter()
            .map(|e| ReferentId(e.payload))
            .collect()
    }

    /// Referents whose region overlaps `query` within a coordinate system.
    pub fn overlapping_regions(&self, system: &str, query: Rect) -> Vec<ReferentId> {
        self.spatial.overlapping(system, query).into_iter().map(|e| ReferentId(e.payload)).collect()
    }

    /// The connection subgraph intervening a set of annotations — the a-graph `connect`
    /// primitive applied to their content nodes. Returns `None` if fewer than two of the
    /// annotations exist or they are not mutually connected.
    pub fn connect_annotations(
        &self,
        annotations: &[AnnotationId],
    ) -> Option<agraph::ConnectionSubgraph> {
        let nodes: Vec<NodeId> =
            annotations.iter().map(|a| NodeId::new(NodeKind::Content, a.0)).collect();
        agraph::connect(self, &nodes).ok()
    }

    /// Count of spatial / interval index structures currently held — reports how the
    /// "keep the number of index structures small" grouping is behaving.
    pub fn index_structure_count(&self) -> (usize, usize) {
        (self.intervals.domain_count(), self.spatial.system_count())
    }

    /// Check internal consistency across the registries and the indexes: every link
    /// an a-graph edge stands for leads to an entity that exists.  Returns the list of
    /// problems found (empty when the system is consistent). Used by tests and the
    /// admin tab to catch corruption.
    pub fn verify_integrity(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // every referent has an object that exists, and (for spatial/linear) an index
        // entry
        for r in self.referents.iter() {
            if self.object(r.object).is_none() {
                problems.push(format!("referent {:?} points to missing object", r.id));
            }
            match &r.marker {
                Marker::Interval(iv) => {
                    let found = self
                        .intervals
                        .overlapping(&r.domain, *iv)
                        .iter()
                        .any(|e| e.payload == r.id.0);
                    if !iv.is_empty() && !found {
                        problems.push(format!("referent {:?} missing from interval index", r.id));
                    }
                }
                Marker::Region(rect) | Marker::Volume(rect) => {
                    let found = self
                        .spatial
                        .overlapping(&r.domain, *rect)
                        .iter()
                        .any(|e| e.payload == r.id.0);
                    if !found {
                        problems.push(format!("referent {:?} missing from spatial index", r.id));
                    }
                }
                Marker::BlockSet(_) => {}
            }
        }
        // every annotation's referents exist
        for a in self.annotations.iter() {
            for &rid in a.referents.iter() {
                if self.referent(rid).is_none() {
                    problems
                        .push(format!("annotation {:?} links missing referent {:?}", a.id, rid));
                }
            }
        }
        problems
    }
}

/// The a-graph, derived: a node's out-links are the links its record holds — an
/// annotation's referents then its terms, a referent's object — and its in-links are
/// read off the index of their reverse direction (`annotations_of_referent`,
/// `annotations_citing`, `referents_of_object`).  Both lists are in edge-id order.
impl Links for SystemView {
    fn kind(&self, node: NodeId) -> Option<NodeKind> {
        let NodeRecord { kind, key } = node.record();
        let held = match kind {
            NodeKind::Content => key < self.annotations.len() as u64,
            NodeKind::Referent => key < self.referents.len() as u64,
            NodeKind::Object => key < self.objects.len() as u64,
            NodeKind::OntologyTerm => u32::try_from(key)
                .is_ok_and(|term| !self.indexes.annotations_citing(ConceptId(term)).is_empty()),
        };
        held.then_some(kind)
    }

    fn out_links(&self, node: NodeId, mut each: impl FnMut(EdgeId, NodeId)) {
        let NodeRecord { kind, key } = node.record();
        match kind {
            NodeKind::Content => {
                let Some(annotation) = self.annotation(AnnotationId(key)) else { return };
                let referents =
                    annotation.referents.iter().map(|r| NodeId::new(NodeKind::Referent, r.0));
                let terms = annotation
                    .terms
                    .iter()
                    .map(|t| NodeId::new(NodeKind::OntologyTerm, u64::from(t.0)));
                for (link, to) in referents.chain(terms).enumerate() {
                    each(EdgeId::new(node, link), to);
                }
            }
            NodeKind::Referent => {
                if let Some(referent) = self.referent(ReferentId(key)) {
                    each(EdgeId::new(node, 0), NodeId::new(NodeKind::Object, referent.object.0));
                }
            }
            NodeKind::OntologyTerm | NodeKind::Object => {}
        }
    }

    fn in_links(&self, node: NodeId, mut each: impl FnMut(EdgeId, NodeId)) {
        let NodeRecord { kind, key } = node.record();
        let annotations = match kind {
            NodeKind::Referent => self.annotations_of_referent(ReferentId(key)),
            NodeKind::OntologyTerm => match u32::try_from(key) {
                Ok(term) => self.indexes.annotations_citing(ConceptId(term)),
                Err(_) => return,
            },
            NodeKind::Object => {
                for &r in self.referents_of_object(ObjectId(key)) {
                    let referent = NodeId::new(NodeKind::Referent, r.0);
                    each(EdgeId::new(referent, 0), referent);
                }
                return;
            }
            NodeKind::Content => return,
        };
        // An annotation's links to `node` are those of its out-links that reach it.
        for &a in annotations {
            let content = NodeId::new(NodeKind::Content, a.0);
            self.out_links(content, |edge, to| {
                if to == node {
                    each(edge, content);
                }
            });
        }
    }
}

/// The Graphitti annotation management system.
///
/// A thin mutation facade over an [`Arc`]-shared [`SystemView`].  Reads deref straight
/// to the view; every mutation routes through [`Arc::make_mut`], bumps the epoch
/// counter, and stamps that epoch on each [`Component`] it writes — its **dirty set**.
/// [`Snapshot`](crate::Snapshot)s taken earlier keep the exact state they captured
/// (copy-on-publish), the epoch identifies which published state a reader or cache
/// entry belongs to, and the per-component [`EpochVector`] identifies *which
/// components* moved between two published states, so downstream caches can
/// invalidate per dirtied component instead of wholesale.
#[derive(Debug)]
pub struct Graphitti {
    view: Arc<SystemView>,
    epoch: u64,
    /// A process-unique lineage id (fresh per `Graphitti` instance).  Component epochs
    /// are only comparable within one lineage; a rebuilt system restarts its epochs,
    /// and the id is what lets a downstream cache detect that and clear wholesale.
    system_id: u64,
    /// Inside a [`CommitBatch`](crate::CommitBatch): the epoch it began at.  The
    /// batch's write attempts all take the one epoch after it, so the whole batch
    /// publishes as one version.
    batch_start: Option<u64>,
}

impl Default for Graphitti {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_SYSTEM_ID: AtomicU64 = AtomicU64::new(1);
        Graphitti {
            view: Arc::default(),
            epoch: 0,
            system_id: NEXT_SYSTEM_ID.fetch_add(1, Ordering::Relaxed),
            batch_start: None,
        }
    }
}

impl std::ops::Deref for Graphitti {
    type Target = SystemView;

    fn deref(&self) -> &SystemView {
        &self.view
    }
}

impl Graphitti {
    /// Create an empty system.
    pub fn new() -> Self {
        Graphitti::default()
    }

    /// The current epoch: incremented on every mutation, so two equal epochs from the
    /// same system always denote identical state.  Fresh systems start at 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-component epoch vector: for each [`Component`], the global epoch of the
    /// last write that dirtied it.  Equal component epochs (within this system) denote
    /// identical query-visible component state.
    pub fn component_epochs(&self) -> EpochVector {
        self.view.component_epochs()
    }

    /// This system's lineage id: process-unique per `Graphitti` instance, carried by
    /// every snapshot.  Epoch comparisons are only meaningful within one lineage.
    pub fn system_id(&self) -> u64 {
        self.system_id
    }

    /// The shared read view (rarely needed directly — `Graphitti` derefs to it).
    pub fn view(&self) -> &SystemView {
        &self.view
    }

    /// Capture an isolated, cheaply cloneable read snapshot of the current state.
    /// Until the next mutation this is a zero-copy `Arc` clone; the first mutation
    /// afterwards copies the state out from under the snapshot, never mutating it.
    pub fn snapshot(&self) -> crate::Snapshot {
        crate::Snapshot::capture(Arc::clone(&self.view), self.epoch, self.system_id)
    }

    /// Copy-on-publish write access: bump the epoch and obtain a mutable view —
    /// shallow-cloning the component tree first iff a snapshot still references it —
    /// together with the epoch its writes stamp.  Each *component* the mutation then
    /// writes is stamped and un-shared by `Versioned::write`, so the write's dirty set
    /// is exactly what it reached.
    ///
    /// The epoch bumps even when the mutation subsequently fails: every write attempt
    /// is a new version, the conservative direction, and the one the log's version
    /// chain also counts (a rejected op is still a logged one).  Component epochs are
    /// exact all the same: a rejected annotate is checked whole before its first
    /// write, so it writes — and moves — no component, and the next publish evicts no
    /// cached answer for it.
    ///
    /// Inside a [`CommitBatch`](crate::CommitBatch) the epoch bumps once, on the
    /// batch's first write attempt; the rest of the batch shares that version (the
    /// batch exclusively borrows the system, so no snapshot can observe the
    /// intermediate states the coalesced epoch would misname), and every write of
    /// the batch stamps that one coalesced epoch.
    fn view_mut(&mut self) -> (&mut SystemView, u64) {
        self.epoch = self.batch_start.unwrap_or(self.epoch) + 1;
        let view = Arc::make_mut(&mut self.view);
        view.image = Image::default();
        (view, self.epoch)
    }

    /// One write attempt that writes records: `write` runs on the mutable view at the
    /// attempt's epoch, and the derived indexes take what it wrote when the batch ends
    /// — at once outside a batch, where a lone write is a batch of one.
    fn write_records<R>(&mut self, write: impl FnOnce(&mut SystemView, u64) -> R) -> R {
        let batched = self.batch_start.is_some();
        let (view, epoch) = self.view_mut();
        let written = write(view, epoch);
        if !batched {
            view.append_indexes(epoch);
        }
        written
    }

    /// Apply one checked registration (the one write path of `register_object`, here
    /// and on every shard).
    pub(crate) fn register(&mut self, registration: &Registration) -> ObjectId {
        self.write_records(|view, epoch| view.register_object(epoch, registration))
    }

    /// Mutable access to the ontology store (ontologies are loaded before annotating).
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        let (view, epoch) = self.view_mut();
        view.ontology.write(epoch)
    }
}

impl WriteSystem for Graphitti {
    fn register_object(
        &mut self,
        data_type: DataType,
        name: impl Into<String>,
        metadata: Vec<Value>,
        payload: Arc<[u8]>,
        domain: impl Into<String>,
    ) -> Result<ObjectId> {
        let registration =
            Registration::new(data_type, name.into(), metadata, payload, domain.into());
        // A refused row is a write attempt too: the epoch bumps, as for a rejected
        // annotate, and no component is written.
        self.write_records(|view, epoch| Ok(view.register_object(epoch, &registration?)))
    }

    fn ontology_edit<R>(&mut self, edit: impl Fn(&mut Ontology) -> R) -> R {
        edit(self.ontology_mut())
    }

    fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>> {
        self.annotation(id).map(|a| a.referents.to_vec())
    }

    fn study_snapshot(&self) -> StudySnapshot {
        Graphitti::study_snapshot(self)
    }

    fn commit_annotation(&mut self, spec: AnnotationSpec) -> Result<AnnotationId> {
        self.write_records(|view, epoch| view.commit_annotation(epoch, spec))
    }

    fn begin_batch(&mut self) {
        debug_assert!(self.batch_start.is_none(), "CommitBatch exclusively borrows the system");
        self.batch_start = Some(self.epoch);
    }

    fn end_batch(&mut self) {
        self.batch_start = None;
        // Only a batch that wrote records un-shares the view here: it already did.
        if self.view.unindexed() {
            Arc::make_mut(&mut self.view).append_indexes(self.epoch);
        }
    }

    fn checkpoint_shards(&self) -> usize {
        0
    }
}

// Snapshots are shipped across worker threads by the query service; every store in the
// view is plain owned data, so the whole read state must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemView>();
    assert_send_sync::<Graphitti>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn system_with_sequence() -> (Graphitti, ObjectId) {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("H5N1-seg4", DataType::DnaSequence, 1800, "chr-flu");
        (sys, seq)
    }

    #[test]
    fn register_and_lookup() {
        let (sys, seq) = system_with_sequence();
        assert_eq!(sys.object_count(), 1);
        let info = sys.object(seq).unwrap();
        assert_eq!(info.data_type, DataType::DnaSequence);
        assert_eq!(&*info.name, "H5N1-seg4");
        assert_eq!(&*info.domain, "chr-flu");
        assert_eq!(info.row.len(), DataType::DnaSequence.columns().len());
        assert_eq!(sys.object_ids_of_type(DataType::DnaSequence), &[seq]);
    }

    #[test]
    fn annotate_with_interval_referent() {
        let (mut sys, seq) = system_with_sequence();
        let ann = sys
            .annotate()
            .title("cleavage site")
            .comment("polybasic site")
            .creator("condit")
            .mark(seq, Marker::interval(1020, 1062))
            .commit()
            .unwrap();
        assert_eq!(sys.annotation_count(), 1);
        assert_eq!(sys.referent_count(), 1);
        let a = sys.annotation(ann).unwrap();
        assert_eq!(a.title(), Some("cleavage site"));
        assert_eq!(a.referents.len(), 1);
        // the interval is indexed
        let hits = sys.overlapping_intervals("chr-flu", Interval::new(1030, 1031));
        assert_eq!(hits.len(), 1);
        assert_eq!(sys.index_structure_count(), (1, 0));
    }

    #[test]
    fn an_annotations_content_is_its_content_document() {
        let (mut sys, seq) = system_with_sequence();
        for n in 0..3 {
            let marked =
                sys.annotate().title(format!("site {n}")).mark(seq, Marker::interval(n, n + 9));
            let id = marked.commit().unwrap();
            let ann = sys.annotation(id).unwrap();
            let stored = sys.content_store().record(xmlstore::DocId(ann.id.0)).unwrap();
            assert!(ann.content.shares_block(stored), "annotation {n} and its document");
        }
    }

    #[test]
    fn empty_annotation_rejected() {
        let mut sys = Graphitti::new();
        let err = sys.annotate().title("nothing").commit();
        assert_eq!(err, Err(CoreError::EmptyAnnotation));
    }

    #[test]
    fn marker_kind_mismatch_rejected() {
        let (mut sys, seq) = system_with_sequence();
        let err = sys.annotate().mark(seq, Marker::region(0.0, 0.0, 1.0, 1.0)).commit();
        assert!(matches!(err, Err(CoreError::MarkerKindMismatch { .. })));
    }

    #[test]
    fn unknown_object_rejected() {
        let mut sys = Graphitti::new();
        let err = sys.annotate().mark(ObjectId(99), Marker::interval(0, 10)).commit();
        assert_eq!(err, Err(CoreError::UnknownObject(ObjectId(99))));
    }

    #[test]
    fn shared_referent_relates_annotations() {
        let (mut sys, seq) = system_with_sequence();
        // Two annotations marking the *same* substructure become related.
        let marker = Marker::interval(100, 200);
        let a1 = sys.annotate().creator("x").mark(seq, marker.clone()).commit().unwrap();
        let a2 = sys.annotate().creator("y").mark(seq, marker).commit().unwrap();
        // They do not literally share a referent id (each mark creates its own), but
        // both referents overlap — relatedness is by the a-graph. We test direct sharing
        // by reusing a committed referent below. Here, check annotations_of_object sees
        // both.
        let on_obj = sys.annotations_of_object(seq);
        assert_eq!(on_obj, vec![a1, a2]);
    }

    #[test]
    fn related_annotations_through_same_referent_node() {
        // Build sharing explicitly: annotate, then inspect that a second annotation over
        // an overlapping region is discoverable as a related annotation on the object.
        let (mut sys, seq) = system_with_sequence();
        let a1 = sys.annotate().creator("x").mark(seq, Marker::interval(0, 50)).commit().unwrap();
        let _a2 = sys.annotate().creator("y").mark(seq, Marker::interval(25, 75)).commit().unwrap();
        // a1 has one referent; its related set via shared *referent* is empty (distinct
        // referents), but annotations_of_object relates them.
        assert!(sys.related_annotations(a1).is_empty());
        assert_eq!(sys.annotations_of_object(seq).len(), 2);
    }

    #[test]
    fn ontology_terms_wired_into_agraph() {
        let (mut sys, seq) = system_with_sequence();
        let cerebellum = sys.ontology_mut().add_concept("Cerebellum");
        let ann = sys
            .annotate()
            .comment("near a cerebellar landmark")
            .mark(seq, Marker::interval(0, 10))
            .cite_term(cerebellum)
            .commit()
            .unwrap();
        assert_eq!(&*sys.annotation(ann).unwrap().terms, [cerebellum]);
        let term = NodeId::new(NodeKind::OntologyTerm, cerebellum.0.into());
        let content = NodeId::new(NodeKind::Content, ann.0);
        assert_eq!(sys.kind(term), Some(NodeKind::OntologyTerm));
        let mut cited_by = Vec::new();
        sys.in_links(term, |edge, from| cited_by.push((edge, from)));
        assert_eq!(cited_by, [(EdgeId::new(content, 1), content)], "after its one referent");
        let uncited = sys.ontology_mut().add_concept("Pons");
        assert_eq!(sys.kind(NodeId::new(NodeKind::OntologyTerm, uncited.0.into())), None);
    }

    /// Every link of a small study, out and in, in edge-id order; and the written-out
    /// image has the same.
    #[test]
    fn links_are_the_records_and_their_indexes() {
        let (mut sys, seq) = system_with_sequence();
        let term = sys.ontology_mut().add_concept("T");
        let a0 = sys.annotate().mark(seq, Marker::interval(0, 9)).cite_term(term).commit().unwrap();
        let r0 = sys.annotation(a0).unwrap().referents[0];
        let a1 = sys
            .annotate()
            .mark(seq, Marker::interval(20, 29))
            .mark_existing(r0)
            .cite_term(term)
            .cite_term(term)
            .commit()
            .unwrap();
        let r1 = sys.annotation(a1).unwrap().referents[0];
        let node = |kind, key| NodeId::new(kind, key);
        let (c0, c1) = (node(NodeKind::Content, a0.0), node(NodeKind::Content, a1.0));
        let (n0, n1) = (node(NodeKind::Referent, r0.0), node(NodeKind::Referent, r1.0));
        let (t, o) = (node(NodeKind::OntologyTerm, term.0.into()), node(NodeKind::Object, seq.0));
        assert_eq!(sys.nodes(), [c0, c1, n0, n1, t, o]);
        let links = |node: NodeId| {
            let (mut out, mut ins) = (Vec::new(), Vec::new());
            sys.out_links(node, |e, n| out.push((e, n)));
            sys.in_links(node, |e, n| ins.push((e, n)));
            (out, ins)
        };
        let edge = EdgeId::new;
        assert_eq!(links(c0), (vec![(edge(c0, 0), n0), (edge(c0, 1), t)], vec![]));
        assert_eq!(
            links(c1),
            (
                vec![(edge(c1, 0), n1), (edge(c1, 1), n0), (edge(c1, 2), t), (edge(c1, 3), t)],
                vec![]
            )
        );
        assert_eq!(links(n0), (vec![(edge(n0, 0), o)], vec![(edge(c0, 0), c0), (edge(c1, 1), c1)]));
        assert_eq!(
            links(t),
            (vec![], vec![(edge(c0, 1), c0), (edge(c1, 2), c1), (edge(c1, 3), c1)])
        );
        assert_eq!(links(o), (vec![], vec![(edge(n0, 0), n0), (edge(n1, 0), n1)]));
        let image = sys.agraph();
        assert_eq!(image.nodes().count(), 6);
        for n in sys.nodes() {
            let mut written = Vec::new();
            image.out_links(n, |e, to| written.push((e, to)));
            assert_eq!(written, links(n).0);
        }
        let part_of = image.edge(edge(n1, 0)).unwrap();
        assert_eq!((part_of.from, part_of.to, part_of.label), (n1, o, agraph::EdgeLabel::PartOf));
    }

    #[test]
    fn a_write_drops_the_image_and_a_read_rebuilds_it() {
        let (mut sys, seq) = system_with_sequence();
        assert_eq!(sys.agraph().nodes().count(), 1);
        let held = sys.snapshot();
        sys.annotate().mark(seq, Marker::interval(0, 9)).commit().unwrap();
        assert_eq!(sys.agraph().nodes().count(), 3);
        assert_eq!(held.agraph().nodes().count(), 1, "the snapshot keeps its version's image");
        sys.annotate().mark(seq, Marker::interval(10, 19)).commit().unwrap();
        assert_eq!(sys.agraph().nodes().count(), 5, "an in-place write drops it too");
    }

    #[test]
    fn transitive_related_via_chain_of_shared_referents() {
        let (mut sys, seq) = system_with_sequence();
        // a1 -- r1 -- a2 -- r2 -- a3 : a chain where each adjacent pair shares a referent
        let a1 = sys.annotate().creator("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        let r1 = sys.annotation(a1).unwrap().referents[0];
        let a2 = sys
            .annotate()
            .creator("y")
            .mark_existing(r1)
            .mark(seq, Marker::interval(20, 30))
            .commit()
            .unwrap();
        let r2 = sys.annotation(a2).unwrap().referents[1];
        let a3 = sys.annotate().creator("z").mark_existing(r2).commit().unwrap();

        // a1 directly relates only to a2, but transitively to a2 and a3
        assert_eq!(sys.related_annotations(a1), vec![a2]);
        assert_eq!(sys.transitively_related_annotations(a1), vec![a2, a3]);
        assert_eq!(sys.transitively_related_annotations(a3), vec![a1, a2]);
    }

    #[test]
    fn transitive_related_unknown_annotation() {
        let sys = Graphitti::new();
        assert!(sys.transitively_related_annotations(AnnotationId(5)).is_empty());
    }

    #[test]
    fn connect_primitive() {
        let (mut sys, seq) = system_with_sequence();
        // two annotations sharing a referent are connected through it
        let a1 = sys.annotate().creator("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        let rid = sys.annotation(a1).unwrap().referents[0];
        let a2 = sys.annotate().creator("y").mark_existing(rid).commit().unwrap();
        let cs = sys.connect_annotations(&[a1, a2]).unwrap();
        assert!(cs.size() >= 3); // two contents + the shared referent
    }

    #[test]
    fn explore_annotations_of_referent() {
        let (mut sys, seq) = system_with_sequence();
        let a1 = sys.annotate().creator("x").mark(seq, Marker::interval(0, 50)).commit().unwrap();
        let rid = sys.annotation(a1).unwrap().referents[0];
        assert_eq!(sys.annotations_of_referent(rid), [a1]);
        assert_eq!(sys.referents_of_object(seq), vec![rid]);
    }

    #[test]
    fn index_grouping_shares_structures() {
        let mut sys = Graphitti::new();
        // two sequences on the same chromosome share one interval tree
        let s1 = sys.register_sequence("s1", DataType::DnaSequence, 100, "chr1");
        let s2 = sys.register_sequence("s2", DataType::DnaSequence, 100, "chr1");
        sys.annotate().creator("a").mark(s1, Marker::interval(0, 10)).commit().unwrap();
        sys.annotate().creator("a").mark(s2, Marker::interval(20, 30)).commit().unwrap();
        assert_eq!(sys.index_structure_count(), (1, 0)); // one domain "chr1"
    }

    #[test]
    fn integrity_holds_after_annotations() {
        let (mut sys, seq) = system_with_sequence();
        let img = sys.register_image("brain", 100, 100, "mri", "cs");
        let term = sys.ontology_mut().add_concept("T");
        sys.annotate()
            .comment("x")
            .mark(seq, Marker::interval(0, 10))
            .cite_term(term)
            .commit()
            .unwrap();
        sys.annotate().comment("y").mark(img, Marker::region(1.0, 1.0, 5.0, 5.0)).commit().unwrap();
        assert!(sys.verify_integrity().is_empty(), "{:?}", sys.verify_integrity());
    }

    #[test]
    fn image_region_indexed() {
        let mut sys = Graphitti::new();
        let img = sys.register_image("brain-1", 512, 512, "confocal", "mouse-25um");
        sys.annotate()
            .creator("martone")
            .mark(img, Marker::region(100.0, 100.0, 200.0, 200.0))
            .commit()
            .unwrap();
        let hits = sys.overlapping_regions("mouse-25um", Rect::rect2(150.0, 150.0, 160.0, 160.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(sys.index_structure_count(), (0, 1));
    }
}
