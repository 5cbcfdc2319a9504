//! The plan-driven pipelined query executor.
//!
//! The executor realises the paper's pipeline in three stages:
//!
//! 1. **Seed** — build a [`Plan`] (separating subqueries and ordering them by
//!    selectivity estimated from live statistics) and evaluate the *most selective*
//!    subquery of each family first, producing the seed candidate set straight from a
//!    persistent inverted index (term postings, type / block postings, interval tree,
//!    R-tree, keyword index) — never by scanning the registries.
//! 2. **Verify** — every later subquery *verifies* the surviving candidates with
//!    per-candidate membership probes (binary searches on posting lists, `O(log n)`
//!    keyword-index probes, `O(1)` marker checks) instead of recomputing its full
//!    matching set.  Candidate sets are sorted `Vec`s of dense ids and posting-list
//!    intersection uses a galloping merge (see [`crate::setops`]).
//! 3. **Collate** — connect the pruned partial results through the a-graph into
//!    type-extended connection subgraphs, enforcing graph constraints.  Neighbor
//!    expansion starts from the pruned sets, and each of the two joins between them
//!    probes from whichever side holds fewer ids — cardinalities the collator already
//!    has, so no knob decides it:
//!    - **referents** — with fewer candidate referents than candidate annotations, a
//!      referent is kept iff one of its annotations is a candidate; otherwise the
//!      candidate annotations' referents are looked up among the candidates;
//!    - **witness annotations** — when the surviving objects hold fewer referents in
//!      all than there are candidate annotations, the annotations touching them are
//!      gathered through `referents_of_object → annotations_of_referent`, kept if
//!      candidates; otherwise each candidate's referents are tested.
//!
//!    Pages are then built in one pass over the gathered nodes — a node is the entity
//!    it stands for — with each page's edges read off its witnesses' own links: an
//!    annotation's referents and terms, a referent's object.
//!
//! The executor borrows a [`SystemView`] — the live system (via deref) or an isolated
//! [`graphitti_core::Snapshot`] work identically.  One query is one thread of control:
//! seed, verify and collate run on the calling thread, and concurrency comes from
//! running many queries at once (the service's worker pool), never from inside one.
//!
//! Every data structure a stage reads is covered by the plan's **read footprint**
//! ([`Plan::read_footprint`](crate::plan::Plan::read_footprint)) in the sense the
//! query service's result cache relies on: any publish that changes what seed, verify
//! or collate can observe also bumps a component in the footprint.  Extending the
//! executor to read a new store therefore means extending the footprint rules (and
//! the dirty sets in `graphitti-core`) in the same change — the
//! `partial_invalidation_props` tests in `tests/service_equivalence.rs` catch a
//! missed dependency by replaying random batch schedules against the reference.
//!
//! The pre-index scan-and-intersect implementation is preserved as
//! [`crate::reference::ReferenceExecutor`]; it is the correctness oracle for the
//! randomized equivalence tests.

use std::borrow::Cow;

use agraph::{ConnectionSubgraph, Links, NodeId, NodeKind, NodeRecord, PathSearch, Subgraph};
use graphitti_core::{AnnotationId, Marker, ObjectId, ReferentId, ShardCut, SystemView};
use interval_index::Interval;
use ontology::{ConceptId, RelationType};
use xmlstore::DocId;

use crate::ast::{ContentFilter, GraphConstraint, OntologyFilter, Query, ReferentFilter, Target};
use crate::plan::{Plan, SubQueryKind};
use crate::resilience::{CancelToken, Interrupt};
use crate::result::{PageList, QueryResult, ResultPage};
use crate::setops;

/// How many per-candidate probes a verify or collate loop runs between cooperative
/// cancellation checkpoints.  Small enough that an expired query stops within
/// microseconds of its deadline; large enough that the relaxed-load check (plus one
/// `Instant::now()` when a deadline is set) is amortized to nothing.
pub(crate) const CANCEL_STRIDE: usize = 1024;

/// The annotation family's pipeline output: `(ann_cands, constraint_anns)` —
/// the candidate annotations (`None` = family unconstrained) and, when a
/// constraint needs it, the ontology-only qualifying set (materialized for the
/// collator's membership probes).
pub(crate) type AnnotationCandidates = (Option<Vec<AnnotationId>>, Option<Vec<AnnotationId>>);

/// The query executor, borrowing a [`SystemView`] immutably (pass `&Graphitti` or a
/// `&Snapshot`; both deref coerce).
pub struct Executor<'g> {
    system: &'g SystemView,
    cancel: CancelToken,
}

impl<'g> Executor<'g> {
    /// Create an executor over a system view.
    pub fn new(system: &'g SystemView) -> Self {
        Executor { system, cancel: CancelToken::unbounded() }
    }

    /// Attach a cancellation token: the seed/verify/collate loops check it at phase
    /// and chunk boundaries, and the fallible entry points
    /// ([`try_run_canonical`](Self::try_run_canonical) and
    /// [`try_run_plan`](Self::try_run_plan)) surface the [`Interrupt`].  The
    /// infallible entry points must not be used with a token that can fire.
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Build the plan for a query without executing it (for EXPLAIN-style inspection).
    /// Plans the canonicalized form, exactly as [`Self::run`] executes it.
    pub fn plan(&self, query: &Query) -> Plan {
        Plan::build(&query.canonicalize(), self.system)
    }

    /// Execute a query and return its result.
    ///
    /// The query is canonicalized first (commutative conjuncts sorted, keywords
    /// lowercased and deduplicated), so semantically equal queries take identical
    /// plans.  Subqueries then run in the plan's selectivity order: the first subquery
    /// of each family (annotation-producing: content / ontology; referent-producing:
    /// referent) seeds that family's candidate set from the indexes, and every later
    /// subquery verifies the candidates in place.
    pub fn run(&self, query: &Query) -> QueryResult {
        self.run_canonical(&query.canonicalize())
    }

    /// Execute a query that is **already in canonical form** (as produced by
    /// [`Query::canonicalize`]), skipping re-canonicalization.  Callers that
    /// canonicalize once for their own purposes — the query service does, for its
    /// cache key — use this to avoid paying the normalization twice.  Passing a
    /// non-canonical query gives the same results but an order-dependent plan.
    pub(crate) fn run_canonical(&self, query: &Query) -> QueryResult {
        self.try_run_canonical(query)
            // lint: allow(no-panic-serving) -- the cancel-free entry point attaches no CancelToken, so Interrupt is unreachable
            .expect("uninterruptible executor (no live CancelToken) cannot be interrupted")
    }

    /// Execute a query already in canonical form, surfacing a cancellation or deadline
    /// [`Interrupt`] from the attached cancel token instead of running to completion.
    pub fn try_run_canonical(&self, query: &Query) -> Result<QueryResult, Interrupt> {
        self.try_run_plan(query, &Plan::build(query, self.system))
    }

    /// Execute `query` under an already-built `plan`: the seed → verify → collate pipeline
    /// with the attached token checked at phase and chunk boundaries.
    pub fn try_run_plan(&self, query: &Query, plan: &Plan) -> Result<QueryResult, Interrupt> {
        let (ann_cands, constraint_anns) = self.annotation_candidates(query, plan)?;
        let ref_cands = self.referent_candidates(query, plan)?;
        Collator::new(self.system).with_cancel(self.cancel.clone()).try_collate(
            query,
            ann_cands,
            ref_cands,
            constraint_anns,
        )
    }

    /// The **annotation family**'s candidate pipeline: run the content and ontology
    /// subqueries in the plan's (per-family) selectivity order — the first seeds from
    /// an index, later ones verify — returning `(ann_cands, constraint_anns)`.
    /// `None` means the family is unconstrained.  The two families are independent
    /// until collation, which is what lets a scatter-gather executor evaluate each
    /// per shard and merge before collating globally.
    pub(crate) fn annotation_candidates(
        &self,
        query: &Query,
        plan: &Plan,
    ) -> Result<AnnotationCandidates, Interrupt> {
        // The `MinRegionCount` constraint counts regions "annotated with term T" by the
        // *ontology* conditions alone; when the query also has content filters that set
        // differs from `ann_cands`, so keep each ontology filter's qualifying set as the
        // pipeline computes it (no other constraint kind consumes it).
        let needs_onto_only = !query.ontology.is_empty()
            && !query.content.is_empty()
            && query
                .constraints
                .iter()
                .any(|c| matches!(c, GraphConstraint::MinRegionCount { .. }));
        let mut onto_sets: Vec<Option<Cow<'g, [AnnotationId]>>> = vec![None; query.ontology.len()];

        // Candidate run (strictly ascending).  `None` = family unconstrained.
        let mut ann_cands: Option<Vec<AnnotationId>> = None;

        for sub in &plan.order {
            // Phase boundary: one checkpoint per subquery stage.
            self.cancel.check()?;
            match sub.kind {
                SubQueryKind::Content => {
                    // lint: allow(no-panic-serving) -- Plan::build emits each subquery index exactly once
                    let f = &query.content[sub.index];
                    ann_cands = Some(match ann_cands.take() {
                        None => self.seed_content(f),
                        Some(c) if c.is_empty() => c,
                        // Content filters have no precomputable posting: per-id
                        // predicate probes over the sorted run.
                        Some(c) => self.verify_content(c, f)?,
                    });
                }
                SubQueryKind::Ontology => {
                    // lint: allow(no-panic-serving) -- Plan::build emits each subquery index exactly once
                    let f = &query.ontology[sub.index];
                    ann_cands = Some(match ann_cands.take() {
                        None => {
                            let set = self.qualifying_annotations(f);
                            if needs_onto_only {
                                // lint: allow(no-panic-serving) -- Plan::build emits each subquery index exactly once
                                onto_sets[sub.index] = Some(set.clone());
                            }
                            set.into_owned()
                        }
                        Some(c) if c.is_empty() => c,
                        Some(c) => {
                            // Verify against the filter's posting set with a
                            // galloping merge.
                            let set = self.qualifying_annotations(f);
                            self.cancel.check()?;
                            let narrowed = setops::intersect_sorted(&c, &set);
                            if needs_onto_only {
                                // lint: allow(no-panic-serving) -- Plan::build emits each subquery index exactly once
                                onto_sets[sub.index] = Some(set);
                            }
                            narrowed
                        }
                    });
                }
                SubQueryKind::Referent => {}
            }
        }

        // Intersect the cached per-filter sets into the ontology-only annotation set;
        // filters the pipeline short-circuited past (empty candidates) are filled in
        // from their postings here.
        let constraint_anns: Option<Vec<AnnotationId>> = if needs_onto_only {
            let mut acc: Option<Vec<AnnotationId>> = None;
            for (i, f) in query.ontology.iter().enumerate() {
                // lint: allow(no-panic-serving) -- onto_sets was sized to query.ontology.len() above
                let set = onto_sets[i].take().unwrap_or_else(|| self.qualifying_annotations(f));
                acc = Some(match acc {
                    None => set.into_owned(),
                    Some(prev) => {
                        self.cancel.check()?;
                        setops::intersect_sorted(&prev, &set)
                    }
                });
            }
            acc
        } else {
            None
        };

        Ok((ann_cands, constraint_anns))
    }

    /// The **referent family**'s candidate pipeline (see
    /// [`annotation_candidates`](Self::annotation_candidates)): seed from the most
    /// selective referent filter, verify with the rest.  `None` = unconstrained.
    pub(crate) fn referent_candidates(
        &self,
        query: &Query,
        plan: &Plan,
    ) -> Result<Option<Vec<ReferentId>>, Interrupt> {
        let mut ref_cands: Option<Vec<ReferentId>> = None;
        for sub in &plan.order {
            if sub.kind != SubQueryKind::Referent {
                continue;
            }
            self.cancel.check()?;
            // lint: allow(no-panic-serving) -- Plan::build emits each subquery index exactly once
            let f = &query.referents[sub.index];
            ref_cands = Some(match ref_cands.take() {
                None => self.seed_referents(f),
                Some(c) if c.is_empty() => c,
                Some(c) => self.verify_referents(c, f)?,
            });
        }
        Ok(ref_cands)
    }

    // --- seed: first subquery of a family, answered wholly from an index ---

    /// Annotations whose content matches a filter: a content document's id is its
    /// annotation's, and the store answers in ascending id order.
    fn seed_content(&self, filter: &ContentFilter) -> Vec<AnnotationId> {
        let store = self.system.content_store();
        let docs = match filter {
            ContentFilter::Phrase(p) => store.containing_phrase(p),
            ContentFilter::Keywords(ks) => {
                let refs: Vec<&str> = ks.iter().map(String::as_str).collect();
                store.with_all_keywords(&refs)
            }
            ContentFilter::Path(expr) => store.select(expr),
        };
        docs.into_iter().map(|doc| AnnotationId(doc.0)).collect()
    }

    /// The set of annotations citing any concept qualifying under an ontology filter —
    /// index postings are already ascending and deduplicated
    /// ([`graphitti_core::Indexes`] appends in commit order), so a single term's
    /// posting is borrowed as-is; `InClass` is a k-way galloping union of term postings.
    fn qualifying_annotations(&self, filter: &OntologyFilter) -> Cow<'g, [AnnotationId]> {
        let idx = self.system.indexes();
        match filter {
            OntologyFilter::CitesTerm(c) => Cow::Borrowed(ascending(idx.annotations_citing(*c))),
            OntologyFilter::InClass { concept, relations } => {
                let concepts = expand_class(self.system.ontology(), *concept, relations);
                let postings: Vec<&[AnnotationId]> =
                    concepts.iter().map(|&c| ascending(idx.annotations_citing(c))).collect();
                Cow::Owned(setops::union_sorted(&postings))
            }
        }
    }

    /// Referents matching a filter, answered from the matching index: type postings,
    /// interval tree, R-tree or block postings.  Index postings — including the
    /// per-object lists, strictly ascending by the `object_referents` ordering
    /// contract — are copied without re-sorting; tree hits carry no order guarantee
    /// and are sorted + deduplicated first.
    fn seed_referents(&self, filter: &ReferentFilter) -> Vec<ReferentId> {
        let idx = self.system.indexes();
        let unordered: Vec<ReferentId> = match filter {
            ReferentFilter::OfType(t) => {
                return idx.referents_of_type(*t).iter().copied().collect()
            }
            ReferentFilter::BlockContains(ids) => return self.block_referents(ids),
            ReferentFilter::OnObject(id) => {
                return ascending(self.system.referents_of_object(*id)).to_vec();
            }
            ReferentFilter::IntervalOverlaps { domain, interval } => match domain {
                Some(d) => self.system.overlapping_intervals(d, *interval),
                None => self
                    .system
                    .intervals()
                    .overlapping_all_domains(*interval)
                    .into_iter()
                    .map(|(_, e)| ReferentId(e.payload))
                    .collect(),
            },
            ReferentFilter::RegionOverlaps { system, rect } => match system {
                Some(s) => self.system.overlapping_regions(s, *rect),
                None => self
                    .system
                    .spatial()
                    .overlapping_all_systems(*rect)
                    .into_iter()
                    .map(|(_, e)| ReferentId(e.payload))
                    .collect(),
            },
        };
        let mut out = unordered;
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Referents whose block set contains any of `ids`: the union of block postings.
    fn block_referents(&self, ids: &[u64]) -> Vec<ReferentId> {
        let idx = self.system.indexes();
        let postings: Vec<&[ReferentId]> =
            ids.iter().map(|&id| ascending(idx.referents_with_block(id))).collect();
        setops::union_sorted(&postings)
    }

    // --- verify: later subqueries probe surviving candidates in place ---

    /// Keep only the candidate annotations whose content document satisfies the filter.
    /// A phrase or keyword filter is resolved once — lowered, tokenized, each token's
    /// postings found — so a candidate costs binary searches and at most one substring
    /// probe, and allocates nothing.
    fn verify_content(
        &self,
        cands: Vec<AnnotationId>,
        filter: &ContentFilter,
    ) -> Result<Vec<AnnotationId>, Interrupt> {
        let store = self.system.content_store();
        let probe = match filter {
            ContentFilter::Phrase(p) => store.phrase_probe(p),
            ContentFilter::Keywords(ks) => store.keywords_probe(ks),
            ContentFilter::Path(expr) => {
                return filter_candidates(&self.cancel, cands, |aid| {
                    store.doc_matches(DocId(aid.0), expr)
                })
            }
        };
        filter_candidates(&self.cancel, cands, |aid| probe.matches(DocId(aid.0)))
    }

    /// Keep only the candidate referents satisfying the filter.  `BlockContains`
    /// verifies as a galloping intersection against its postings' union, with one
    /// cancellation checkpoint before the merge; the rest are `O(1)` per-candidate
    /// object type / marker / domain probes.
    fn verify_referents(
        &self,
        cands: Vec<ReferentId>,
        filter: &ReferentFilter,
    ) -> Result<Vec<ReferentId>, Interrupt> {
        match filter {
            ReferentFilter::BlockContains(ids) => {
                let set = self.block_referents(ids);
                self.cancel.check()?;
                Ok(setops::intersect_sorted(&cands, &set))
            }
            ReferentFilter::OfType(_)
            | ReferentFilter::OnObject(_)
            | ReferentFilter::IntervalOverlaps { .. }
            | ReferentFilter::RegionOverlaps { .. } => {
                filter_candidates(&self.cancel, cands, |rid| self.referent_matches(rid, filter))
            }
        }
    }

    /// Whether one referent satisfies a referent filter.  Mirrors the semantics of the
    /// index searches in [`Self::seed_referents`] exactly (the interval tree and R-tree
    /// both report `if_overlap` hits).
    fn referent_matches(&self, rid: ReferentId, filter: &ReferentFilter) -> bool {
        let Some(r) = self.system.referent(rid) else { return false };
        match filter {
            ReferentFilter::OfType(t) => {
                self.system.object(r.object).map(|o| o.data_type == *t).unwrap_or(false)
            }
            ReferentFilter::OnObject(id) => r.object == *id,
            ReferentFilter::IntervalOverlaps { domain, interval } => {
                if domain.as_deref().is_some_and(|d| d != &*r.domain) {
                    return false;
                }
                matches!(&r.marker, Marker::Interval(iv) if iv.if_overlap(interval))
            }
            ReferentFilter::RegionOverlaps { system, rect } => {
                if system.as_deref().is_some_and(|s| s != &*r.domain) {
                    return false;
                }
                matches!(&r.marker, Marker::Region(rr) | Marker::Volume(rr) if rr.if_overlap(rect))
            }
            ReferentFilter::BlockContains(ids) => match &r.marker {
                Marker::BlockSet(set) => set.iter().any(|id| ids.contains(id)),
                _ => false,
            },
        }
    }
}

/// Shared by verify and collation: filter a sorted candidate vector in place by
/// a per-candidate predicate, preserving order.  The cancellation token is re-checked
/// every [`CANCEL_STRIDE`] probes.
fn filter_candidates<T: Copy>(
    cancel: &CancelToken,
    mut cands: Vec<T>,
    keep: impl Fn(T) -> bool,
) -> Result<Vec<T>, Interrupt> {
    let mut probes = 0usize;
    let mut checked = Ok(());
    cands.retain(|&c| {
        if checked.is_ok() && probes.is_multiple_of(CANCEL_STRIDE) {
            checked = cancel.check();
        }
        probes += 1;
        checked.is_ok() && keep(c)
    });
    checked.map(|()| cands)
}

/// Debug twin of the "postings are sorted + deduplicated" contract the galloping
/// merges lean on: an unsorted posting would silently drop or duplicate candidates.
fn ascending<T: Ord>(posting: &[T]) -> &[T] {
    debug_assert!(posting.is_sorted_by(|a, b| a < b), "posting is not strictly ascending");
    posting
}

/// The read surface collation needs, abstracted from storage layout: the a-graph's
/// [`Links`], plus the registry and index reads the joins make.
///
/// [`SystemView`] implements it by borrowing its registries directly (the `Cow`s are
/// all `Borrowed`, so the unsharded path pays nothing); [`ShardCut`] implements it by
/// routing each lookup to the owning shard and translating local ids to global.
/// Because the [`Collator`] is generic over this trait, sharded and unsharded execution
/// share one collation code path — page building and output ordering *cannot* diverge
/// between them.
///
/// All ids are in the view's own id space (global ids for a [`ShardCut`]).
pub trait CollateView: Links {
    /// Number of committed annotations (annotation ids are dense below this).
    fn annotation_count(&self) -> usize;
    /// The referents an annotation links, in link order; `None` for unknown ids.
    fn annotation_referents(&self, id: AnnotationId) -> Option<Cow<'_, [ReferentId]>>;
    /// The object a referent marks.
    fn referent_object(&self, id: ReferentId) -> Option<ObjectId>;
    /// A referent's marker.
    fn referent_marker(&self, id: ReferentId) -> Option<Marker>;
    /// Every referent of an object, in creation (= ascending id) order.
    fn referents_of_object(&self, object: ObjectId) -> Cow<'_, [ReferentId]>;
    /// The annotations linking a referent, ascending.
    fn annotations_of_referent(&self, id: ReferentId) -> Cow<'_, [AnnotationId]>;
}

impl CollateView for SystemView {
    fn annotation_count(&self) -> usize {
        SystemView::annotation_count(self)
    }

    fn annotation_referents(&self, id: AnnotationId) -> Option<Cow<'_, [ReferentId]>> {
        self.annotation(id).map(|a| Cow::Borrowed(&*a.referents))
    }

    fn referent_object(&self, id: ReferentId) -> Option<ObjectId> {
        self.referent(id).map(|r| r.object)
    }

    fn referent_marker(&self, id: ReferentId) -> Option<Marker> {
        self.referent(id).map(|r| r.marker.clone())
    }

    fn referents_of_object(&self, object: ObjectId) -> Cow<'_, [ReferentId]> {
        Cow::Borrowed(SystemView::referents_of_object(self, object))
    }

    fn annotations_of_referent(&self, id: ReferentId) -> Cow<'_, [AnnotationId]> {
        Cow::Borrowed(SystemView::annotations_of_referent(self, id))
    }
}

impl CollateView for ShardCut {
    fn annotation_count(&self) -> usize {
        ShardCut::annotation_count(self)
    }

    fn annotation_referents(&self, id: AnnotationId) -> Option<Cow<'_, [ReferentId]>> {
        ShardCut::annotation_referents(self, id).map(Cow::Owned)
    }

    fn referent_object(&self, id: ReferentId) -> Option<ObjectId> {
        ShardCut::referent_object(self, id)
    }

    fn referent_marker(&self, id: ReferentId) -> Option<Marker> {
        ShardCut::referent_marker(self, id)
    }

    fn referents_of_object(&self, object: ObjectId) -> Cow<'_, [ReferentId]> {
        Cow::Owned(ShardCut::referents_of_object(self, object))
    }

    fn annotations_of_referent(&self, id: ReferentId) -> Cow<'_, [AnnotationId]> {
        Cow::Owned(ShardCut::annotations_of_referent(self, id))
    }
}

/// Collation: the shared back half of query execution.  Takes the pruned candidate
/// sets, narrows them against each other, applies graph constraints, and builds result
/// pages by connecting the witnesses through the a-graph.  Used by the pipelined
/// [`Executor`], the scan-all [`crate::reference::ReferenceExecutor`] *and* the
/// scatter-gather [`crate::sharded::ShardedExecutor`] (generic over [`CollateView`]),
/// so the strategies can only differ in how candidates are *found*, never in how they
/// are collated.
pub(crate) struct Collator<'g, V: CollateView> {
    system: &'g V,
    cancel: CancelToken,
}

impl<'g, V: CollateView> Collator<'g, V> {
    pub(crate) fn new(system: &'g V) -> Self {
        Collator { system, cancel: CancelToken::unbounded() }
    }

    /// Attach a cancellation token, checked at collation phase boundaries and every
    /// [`CANCEL_STRIDE`] iterations of the narrowing / page-building loops.
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Infallible [`try_collate`](Self::try_collate) for callers without a live
    /// token (the reference executor, plain `run` paths).
    pub(crate) fn collate(
        &self,
        query: &Query,
        ann_cands: Option<Vec<AnnotationId>>,
        ref_cands: Option<Vec<ReferentId>>,
        constraint_anns: Option<Vec<AnnotationId>>,
    ) -> QueryResult {
        self.try_collate(query, ann_cands, ref_cands, constraint_anns)
            // lint: allow(no-panic-serving) -- the cancel-free entry point attaches no CancelToken, so Interrupt is unreachable
            .expect("uninterruptible collator (no live CancelToken) cannot be interrupted")
    }

    /// Collate candidate sets into a [`QueryResult`].
    ///
    /// * `ann_cands` — sorted annotations satisfying all content + ontology filters
    ///   (`None` = unconstrained).
    /// * `ref_cands` — sorted referents satisfying all referent filters.
    /// * `constraint_anns` — sorted annotations satisfying the *ontology* filters only,
    ///   used by constraints like "N regions annotated with term T"; `None` means the
    ///   resolved annotation set already has that meaning.
    pub(crate) fn try_collate(
        &self,
        query: &Query,
        ann_cands: Option<Vec<AnnotationId>>,
        ref_cands: Option<Vec<ReferentId>>,
        constraint_anns: Option<Vec<AnnotationId>>,
    ) -> Result<QueryResult, Interrupt> {
        self.cancel.check()?;
        // Resolve the effective annotation set.
        let annotations: Vec<AnnotationId> = match ann_cands {
            Some(set) => set,
            None => (0..self.system.annotation_count() as u64).map(AnnotationId).collect(),
        };

        // Referents: either the explicit candidates narrowed to those linked from a
        // qualifying annotation, or (when unconstrained) all referents of the
        // qualifying annotations.  Neighbor expansion starts from the *pruned*
        // annotation set, so this is O(candidates), not O(corpus).
        let referents: Vec<ReferentId> = match ref_cands {
            Some(set) if query.content.is_empty() && query.ontology.is_empty() => set,
            Some(set) => self.referents_linked(set, &annotations)?,
            None => {
                let mut out: Vec<ReferentId> = Vec::new();
                for (i, &aid) in annotations.iter().enumerate() {
                    if i % CANCEL_STRIDE == 0 {
                        self.cancel.check()?;
                    }
                    if let Some(refs) = self.system.annotation_referents(aid) {
                        out.extend(refs.iter().copied());
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
        };

        // Objects involved.
        let mut objects: Vec<ObjectId> = Vec::new();
        for &rid in &referents {
            if let Some(obj) = self.system.referent_object(rid) {
                objects.push(obj);
            }
        }
        objects.sort_unstable();
        objects.dedup();

        let constraint_anns: &[AnnotationId] = constraint_anns.as_deref().unwrap_or(&annotations);

        // Apply graph constraints, narrowing objects (one checkpoint per constraint —
        // a phase boundary; the interval and region constraints are per-object probes
        // of bounded cost, the path constraint polls between its searches).
        for c in &query.constraints {
            self.cancel.check()?;
            objects =
                self.apply_constraint(c, &objects, &annotations, constraint_anns, &referents)?;
        }

        // The witnesses: the annotations and referents touching a surviving object —
        // every candidate when no object survives.
        let touching = if objects.is_empty() {
            None
        } else {
            let anns = self.annotations_touching(&annotations, &objects)?;
            Some((anns, self.referents_on_objects(&referents, &objects)))
        };

        // Build result pages: one connection subgraph per connected witness component.
        self.cancel.check()?;
        let pages = match &touching {
            Some((anns, refs)) => self.build_pages(anns, refs, &objects)?,
            None => self.build_pages(&annotations, &referents, &objects)?,
        };

        // Flat result lists depend on the target.
        let (flat_anns, flat_refs) = match query.target {
            Target::AnnotationContents
                if query.referents.is_empty() && query.constraints.is_empty() =>
            {
                (annotations, Vec::new())
            }
            Target::AnnotationContents => {
                (touching.map(|(anns, _)| anns).unwrap_or_default(), Vec::new())
            }
            Target::Referents => (Vec::new(), touching.map(|(_, refs)| refs).unwrap_or_default()),
            Target::ConnectionGraphs => (annotations, referents),
        };

        Ok(QueryResult {
            pages,
            annotations: flat_anns,
            referents: flat_refs,
            objects,
            missing_shards: Vec::new(),
        })
    }

    /// The candidate referents some candidate annotation links, ascending, probed from
    /// the narrower side: with fewer referents than annotations, each referent's own
    /// annotations are looked up in the candidates; otherwise each annotation's
    /// referents are looked up in the referents.
    fn referents_linked(
        &self,
        candidates: Vec<ReferentId>,
        annotations: &[AnnotationId],
    ) -> Result<Vec<ReferentId>, Interrupt> {
        if candidates.len() < annotations.len() {
            return filter_candidates(&self.cancel, candidates, |rid| {
                self.system
                    .annotations_of_referent(rid)
                    .iter()
                    .any(|a| setops::contains_sorted(annotations, a))
            });
        }
        let mut out: Vec<ReferentId> = Vec::new();
        for (i, &aid) in annotations.iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                self.cancel.check()?;
            }
            if let Some(refs) = self.system.annotation_referents(aid) {
                out.extend(
                    refs.iter().copied().filter(|rid| setops::contains_sorted(&candidates, rid)),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// The candidate annotations linking a referent of one of `objects`, ascending,
    /// gathered from the narrower side: when the objects hold fewer referents in all
    /// than there are candidates, through `referents_of_object → annotations_of_referent`
    /// probed in the candidates; otherwise by testing each candidate's referents.
    fn annotations_touching(
        &self,
        annotations: &[AnnotationId],
        objects: &[ObjectId],
    ) -> Result<Vec<AnnotationId>, Interrupt> {
        let mut held = 0;
        for &obj in objects {
            held += self.system.referents_of_object(obj).len();
            if held >= annotations.len() {
                break;
            }
        }
        if held < annotations.len() {
            let mut out: Vec<AnnotationId> = Vec::new();
            for (i, &obj) in objects.iter().enumerate() {
                if i % CANCEL_STRIDE == 0 {
                    self.cancel.check()?;
                }
                for &rid in self.system.referents_of_object(obj).iter() {
                    let linking = self.system.annotations_of_referent(rid);
                    out.extend(linking.iter().filter(|a| setops::contains_sorted(annotations, a)));
                }
            }
            out.sort_unstable();
            out.dedup();
            return Ok(out);
        }
        filter_candidates(&self.cancel, annotations.to_vec(), |aid| {
            self.system.annotation_referents(aid).is_some_and(|refs| {
                refs.iter().any(|&rid| {
                    self.system
                        .referent_object(rid)
                        .is_some_and(|obj| setops::contains_sorted(objects, &obj))
                })
            })
        })
    }

    fn referents_on_objects(
        &self,
        referents: &[ReferentId],
        objects: &[ObjectId],
    ) -> Vec<ReferentId> {
        referents
            .iter()
            .copied()
            .filter(|&rid| {
                self.system
                    .referent_object(rid)
                    .map(|obj| setops::contains_sorted(objects, &obj))
                    .unwrap_or(false)
            })
            .collect()
    }

    fn apply_constraint(
        &self,
        constraint: &GraphConstraint,
        objects: &[ObjectId],
        annotations: &[AnnotationId],
        constraint_anns: &[AnnotationId],
        referents: &[ReferentId],
    ) -> Result<Vec<ObjectId>, Interrupt> {
        Ok(match constraint {
            GraphConstraint::ConsecutiveIntervals { count, max_gap } => {
                // One interval buffer serves every object.
                let mut intervals = Vec::new();
                objects
                    .iter()
                    .copied()
                    .filter(|&obj| {
                        self.has_consecutive_intervals(
                            obj,
                            *count,
                            *max_gap,
                            annotations,
                            referents,
                            &mut intervals,
                        )
                    })
                    .collect()
            }
            GraphConstraint::MinRegionCount { count, within, system } => objects
                .iter()
                .copied()
                .filter(|&obj| {
                    self.region_count_on_object(obj, *within, system, constraint_anns) >= *count
                })
                .collect(),
            GraphConstraint::PathExists { max_len } => {
                // keep objects reachable from at least one qualifying annotation within
                // max_len hops in the a-graph; `searches` counts across objects, so the
                // token is polled every CANCEL_STRIDE searches however they fall
                let mut searches = 0usize;
                let mut kept = Vec::new();
                for &obj in objects {
                    if self.object_reachable_from_annotations(
                        obj,
                        annotations,
                        *max_len,
                        &mut searches,
                    )? {
                        kept.push(obj);
                    }
                }
                kept
            }
        })
    }

    /// Whether `object` has at least `count` interval referents — each annotated by a
    /// qualifying annotation — forming a consecutive, non-overlapping chain with gaps
    /// of at most `max_gap`.  `intervals` is a reused buffer, cleared first.
    fn has_consecutive_intervals(
        &self,
        object: ObjectId,
        count: usize,
        max_gap: u64,
        ann_set: &[AnnotationId],
        ref_set: &[ReferentId],
        intervals: &mut Vec<Interval>,
    ) -> bool {
        // collect qualifying interval referents on this object
        intervals.clear();
        for &rid in self.system.referents_of_object(object).iter() {
            if !ref_set.is_empty() && !setops::contains_sorted(ref_set, &rid) {
                continue;
            }
            // must be annotated by a qualifying annotation
            let annotated = self
                .system
                .annotations_of_referent(rid)
                .iter()
                .any(|a| setops::contains_sorted(ann_set, a));
            if !annotated {
                continue;
            }
            if let Some(Marker::Interval(iv)) = self.system.referent_marker(rid) {
                intervals.push(iv);
            }
        }
        interval_index::longest_chain(intervals, max_gap) >= count
    }

    fn region_count_on_object(
        &self,
        object: ObjectId,
        within: spatial_index::Rect,
        _system: &str,
        ann_set: &[AnnotationId],
    ) -> usize {
        let mut count = 0;
        for &rid in self.system.referents_of_object(object).iter() {
            let annotated = self
                .system
                .annotations_of_referent(rid)
                .iter()
                .any(|a| setops::contains_sorted(ann_set, a));
            if !annotated {
                continue;
            }
            if let Some(Marker::Region(rect) | Marker::Volume(rect)) =
                self.system.referent_marker(rid)
            {
                if rect.if_overlap(&within) {
                    count += 1;
                }
            }
        }
        count
    }

    fn object_reachable_from_annotations(
        &self,
        object: ObjectId,
        annotations: &[AnnotationId],
        max_len: usize,
        searches: &mut usize,
    ) -> Result<bool, Interrupt> {
        let onode = NodeId::new(NodeKind::Object, object.0);
        let search = PathSearch::new().max_len(max_len);
        for &aid in annotations {
            if searches.is_multiple_of(CANCEL_STRIDE) {
                self.cancel.check()?;
            }
            *searches += 1;
            if search.exists(self.system, NodeId::new(NodeKind::Content, aid.0), onode) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Split the witness subgraph into result pages in one dense pass: every given
    /// annotation (with the terms it cites), referent and object is a witness node.
    fn build_pages(
        &self,
        annotations: &[AnnotationId],
        referents: &[ReferentId],
        objects: &[ObjectId],
    ) -> Result<Vec<ResultPage>, Interrupt> {
        // Gather every witness node.  A node is its entity, so no page node is ever
        // decoded through a map.
        let mut nodes: Vec<NodeId> =
            Vec::with_capacity(annotations.len() + referents.len() + objects.len());
        for (i, &aid) in annotations.iter().enumerate() {
            if i % CANCEL_STRIDE == 0 {
                self.cancel.check()?;
            }
            let content = NodeId::new(NodeKind::Content, aid.0);
            nodes.push(content);
            self.system.out_links(content, |_, to| {
                if to.record().kind == NodeKind::OntologyTerm {
                    nodes.push(to);
                }
            });
        }
        nodes.extend(referents.iter().map(|r| NodeId::new(NodeKind::Referent, r.0)));
        nodes.extend(objects.iter().map(|o| NodeId::new(NodeKind::Object, o.0)));
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            return Ok(Vec::new());
        }
        self.cancel.check()?;

        // Induce the witness subgraph ONCE: an edge is internal when both endpoints are
        // witness nodes.  Only annotations and referents hold links — an annotation
        // its referents and terms, a referent its object — and they sort first, so the
        // walk stops at the first term or object.  Union internal edges to find weakly
        // connected components, then partition nodes and edges per component in a
        // single pass.  Each component is one result page; the page's subgraph is
        // exactly the induced subgraph of its nodes, so no per-page re-induction is
        // needed.
        let mut edges: Vec<(agraph::EdgeId, usize)> = Vec::new();
        let mut dsu = Dsu::new(nodes.len());
        let holders = nodes.partition_point(|n| n.record().kind <= NodeKind::Referent);
        for (i, &n) in nodes.iter().enumerate().take(holders) {
            self.system.out_links(n, |edge, to| {
                if let Ok(j) = nodes.binary_search(&to) {
                    edges.push((edge, i));
                    dsu.union(i, j);
                }
            });
        }

        // Components numbered in order of their minimal node (nodes are sorted, so the
        // first node seen for a root is the minimum): pages come out ordered by
        // smallest node id, matching a DFS over the sorted node list.
        let mut page_of_root: Vec<u32> = vec![u32::MAX; nodes.len()];
        let mut page_of_node: Vec<u32> = Vec::with_capacity(nodes.len());
        let mut pages: Vec<ResultPage> = Vec::new();
        for (i, &n) in nodes.iter().enumerate() {
            let root = dsu.find(i);
            // A root is a node index, so every lookup below finds its slot.
            let p = match page_of_root.get_mut(root) {
                Some(slot) if *slot == u32::MAX => {
                    *slot = pages.len() as u32;
                    pages.push(empty_page(dsu.size_of_root(root)));
                    *slot
                }
                Some(slot) => *slot,
                None => u32::MAX,
            };
            page_of_node.push(p);
            let Some(page) = pages.get_mut(p as usize) else { continue };
            page.subgraph.subgraph.nodes.push(n);
            let NodeRecord { kind, key } = n.record();
            match kind {
                NodeKind::Content => page.annotations.push(AnnotationId(key)),
                NodeKind::Referent => page.referents.push(ReferentId(key)),
                NodeKind::Object => page.objects.push(ObjectId(key)),
                NodeKind::OntologyTerm => page.terms.push(ConceptId(key as u32)),
            }
        }
        // Edges were found in node order, each node's in link order — edge-id order —
        // so every page's edges arrive sorted.
        for (e, i) in edges {
            if let Some(page) = page_of_node.get(i).and_then(|&p| pages.get_mut(p as usize)) {
                page.subgraph.subgraph.edges.push(e);
            }
        }
        Ok(pages)
    }
}

/// A page with room for `nodes` nodes and nothing in it yet.
fn empty_page(nodes: usize) -> ResultPage {
    ResultPage {
        subgraph: ConnectionSubgraph {
            terminals: Vec::new(),
            subgraph: Subgraph { nodes: Vec::with_capacity(nodes), edges: Vec::new() },
        },
        annotations: PageList::default(),
        referents: PageList::default(),
        objects: PageList::default(),
        terms: PageList::default(),
    }
}

/// A small union-find (path halving + union by size) over dense indices, used to split
/// the witness subgraph into connected components without hashing.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    // Dense union-find: callers only pass indices < n (the node-list positions the
    // structure was built over), and parents always store such indices, so every
    // subscript below stays in bounds by construction.
    fn find(&mut self, mut x: usize) -> usize {
        // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
        while self.parent[x] as usize != x {
            // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
            let gp = self.parent[self.parent[x] as usize];
            // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// The number of indices under `root` (a [`find`](Self::find) result).
    fn size_of_root(&self, root: usize) -> usize {
        self.size.get(root).map_or(0, |&size| size as usize)
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
        self.parent[rb] = ra as u32;
        // lint: allow(no-panic-serving) -- dense DSU indices < n by construction
        self.size[ra] += self.size[rb];
    }
}

/// Expand an ontology class to the sorted set of qualifying concepts: the concept plus
/// everything under it by the given relations (is-a + part-of when unspecified).  The
/// single definition of "in class" shared by the executor, the planner's cardinality
/// estimator and the reference executor — so the three can never disagree on which
/// terms a class covers.
pub(crate) fn expand_class(
    onto: &ontology::Ontology,
    concept: ConceptId,
    relations: &[RelationType],
) -> Vec<ConceptId> {
    let rels: &[RelationType] =
        if relations.is_empty() { &[RelationType::IsA, RelationType::PartOf] } else { relations };
    let mut out: Vec<ConceptId> = Vec::new();
    for r in rels {
        out.extend(onto.subtree(concept, r));
    }
    out.push(concept);
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceExecutor;
    use graphitti_core::{DataType, Graphitti, Marker};
    use std::time::Duration;

    fn seq_system() -> (Graphitti, ObjectId) {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("seg4", DataType::DnaSequence, 2000, "chr-flu");
        (sys, seq)
    }

    #[test]
    fn phrase_query_returns_matching_annotations() {
        let (mut sys, seq) = seq_system();
        sys.annotate()
            .comment("polybasic protease cleavage site")
            .mark(seq, Marker::interval(100, 150))
            .commit()
            .unwrap();
        sys.annotate()
            .comment("a routine synonymous mutation")
            .mark(seq, Marker::interval(200, 250))
            .commit()
            .unwrap();
        let q = Query::new(Target::AnnotationContents).with_phrase("protease cleavage");
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.annotations.len(), 1);
    }

    #[test]
    fn referent_type_query() {
        let (mut sys, seq) = seq_system();
        sys.annotate().comment("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        let q = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OfType(DataType::DnaSequence));
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.referents.len(), 1);
        // no DNA referents of an image type
        let q2 =
            Query::new(Target::Referents).with_referent(ReferentFilter::OfType(DataType::Image));
        assert!(Executor::new(&sys).run(&q2).referents.is_empty());
    }

    #[test]
    fn consecutive_intervals_constraint() {
        let (mut sys, seq) = seq_system();
        // four consecutive, disjoint protease intervals on the same sequence
        for i in 0..4 {
            let start = i * 100;
            sys.annotate()
                .comment("contains protease motif")
                .mark(seq, Marker::interval(start, start + 50))
                .commit()
                .unwrap();
        }
        // one non-protease interval elsewhere
        sys.annotate()
            .comment("unrelated")
            .mark(seq, Marker::interval(1000, 1050))
            .commit()
            .unwrap();

        let q = Query::new(Target::Referents)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 60 });
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.objects, vec![seq]);

        // requiring 5 fails
        let q5 = Query::new(Target::Referents)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 5, max_gap: 60 });
        assert!(Executor::new(&sys).run(&q5).objects.is_empty());
    }

    #[test]
    fn path_constraint_honours_its_deadline() {
        // One annotated object per annotation and no shared term: object `j` is reached
        // only by annotation `j`, after `j` searches that fail — quadratic on purpose.
        let mut sys = Graphitti::new();
        for i in 0..600u64 {
            let obj = sys.register_sequence(format!("s{i}"), DataType::DnaSequence, 1_000, "chr1");
            sys.annotate()
                .comment(format!("protease site {i}"))
                .mark(obj, Marker::interval(10, 50))
                .commit()
                .unwrap();
        }
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::PathExists { max_len: 6 });
        let started = std::time::Instant::now();
        let full = Executor::new(&sys).run(&q);
        let uncancelled = started.elapsed();
        assert_eq!(full.objects.len(), 600);
        assert!(uncancelled >= Duration::from_millis(20), "corpus too small: {uncancelled:?}");

        let budget =
            crate::resilience::QueryBudget::unbounded().with_deadline(Duration::from_millis(1));
        let started = std::time::Instant::now();
        let cut_short =
            Executor::new(&sys).with_cancel(CancelToken::for_budget(&budget)).try_run_canonical(&q);
        let cancelled = started.elapsed();
        assert_eq!(cut_short, Err(Interrupt::DeadlineExceeded));
        assert!(cancelled < uncancelled / 2, "{cancelled:?} against {uncancelled:?} un-cancelled");
    }

    #[test]
    fn min_region_count_constraint() {
        let mut sys = Graphitti::new();
        let img = sys.register_image("brain", 1000, 1000, "confocal", "cs25");
        let dcn = sys.ontology_mut().add_concept("DeepCerebellarNuclei");
        // two regions annotated with the DCN term
        for i in 0..2 {
            let x = (i as f64) * 100.0;
            sys.annotate()
                .comment("region")
                .mark(img, Marker::region(x, 0.0, x + 50.0, 50.0))
                .cite_term(dcn)
                .commit()
                .unwrap();
        }
        let big = spatial_index::Rect::rect2(0.0, 0.0, 1000.0, 1000.0);
        let q = Query::new(Target::ConnectionGraphs)
            .with_ontology(OntologyFilter::CitesTerm(dcn))
            .with_constraint(GraphConstraint::MinRegionCount {
                count: 2,
                within: big,
                system: "cs25".into(),
            });
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.objects, vec![img]);
        // require 3 -> empty
        let q3 = Query::new(Target::ConnectionGraphs)
            .with_ontology(OntologyFilter::CitesTerm(dcn))
            .with_constraint(GraphConstraint::MinRegionCount {
                count: 3,
                within: big,
                system: "cs25".into(),
            });
        assert!(Executor::new(&sys).run(&q3).objects.is_empty());
    }

    #[test]
    fn mixed_content_and_ontology_constraint_uses_ontology_only_set() {
        // The constraint "N regions annotated with term T" must count regions by the
        // ontology condition, not by the (stricter) content filter.
        let mut sys = Graphitti::new();
        let img = sys.register_image("brain", 1000, 1000, "confocal", "cs25");
        let dcn = sys.ontology_mut().add_concept("DCN");
        // one region carries the phrase AND the term; a second only the term
        sys.annotate()
            .comment("protein TP53 found here")
            .mark(img, Marker::region(0.0, 0.0, 50.0, 50.0))
            .cite_term(dcn)
            .commit()
            .unwrap();
        sys.annotate()
            .comment("plain region")
            .mark(img, Marker::region(100.0, 0.0, 150.0, 50.0))
            .cite_term(dcn)
            .commit()
            .unwrap();
        let big = spatial_index::Rect::rect2(0.0, 0.0, 1000.0, 1000.0);
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("protein TP53")
            .with_ontology(OntologyFilter::CitesTerm(dcn))
            .with_constraint(GraphConstraint::MinRegionCount {
                count: 2,
                within: big,
                system: "cs25".into(),
            });
        // both regions cite the term, so the constraint passes even though only one
        // matches the phrase
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.objects, vec![img]);
        let reference = ReferenceExecutor::new(&sys).run(&q);
        assert_eq!(res, reference);
    }

    #[test]
    fn pipelined_seeds_from_most_selective_family_member() {
        // Regardless of which family member seeds, results must match the reference.
        let (mut sys, seq) = seq_system();
        let rare = sys.ontology_mut().add_concept("Rare");
        let common = sys.ontology_mut().add_concept("Common");
        for i in 0..10u64 {
            let mut b = sys
                .annotate()
                .comment(if i == 3 { "needle phrase" } else { "haystack text" })
                .mark(seq, Marker::interval(i * 100, i * 100 + 40))
                .cite_term(common);
            if i == 3 {
                b = b.cite_term(rare);
            }
            b.commit().unwrap();
        }
        let q = Query::new(Target::AnnotationContents)
            .with_phrase("haystack")
            .with_ontology(OntologyFilter::CitesTerm(rare));
        let res = Executor::new(&sys).run(&q);
        let reference = ReferenceExecutor::new(&sys).run(&q);
        assert_eq!(res, reference);
        assert!(res.annotations.is_empty()); // rare ann says "needle", not "haystack"
    }

    #[test]
    fn connection_graph_pages() {
        let (mut sys, seq) = seq_system();
        let a = sys
            .annotate()
            .comment("protease one")
            .mark(seq, Marker::interval(0, 10))
            .commit()
            .unwrap();
        let q = Query::new(Target::ConnectionGraphs).with_phrase("protease");
        let res = Executor::new(&sys).run(&q);
        assert!(res.page_count() >= 1);
        assert!(res.pages[0].annotations.contains(&a));
        assert!(res.pages[0].objects.contains(&seq));
    }

    #[test]
    fn unconstrained_query_returns_everything() {
        let (mut sys, seq) = seq_system();
        sys.annotate().comment("x").mark(seq, Marker::interval(0, 10)).commit().unwrap();
        let q = Query::new(Target::AnnotationContents);
        let res = Executor::new(&sys).run(&q);
        assert_eq!(res.annotations.len(), 1);
    }
}
