//! Subquery separation and feasible ordering.
//!
//! The processor "separates subqueries that belong to the different types of data
//! elements, finding a feasible order among these subqueries".  This module turns a
//! [`Query`] into a [`Plan`]: a list of [`SubQuery`]s, each tagged with its data-element
//! kind, sorted by estimated selectivity so that the most selective subquery runs first
//! and *seeds* the candidate set, while every later subquery merely *verifies* the
//! surviving candidates (see [`crate::exec`] for the seed → verify → collate pipeline).
//!
//! Selectivity is estimated from the system's live statistics — document frequencies in
//! the content store's keyword index, per-term citation counts, per-type / per-domain
//! referent counts from [`graphitti_core::Stats`] — not from hard-coded guesses.  Each
//! estimate is the fraction of the subquery family's universe (annotations for content /
//! ontology subqueries, referents for referent subqueries) that the subquery is expected
//! to keep, computed as `estimated_rows / universe`.  The estimates are upper bounds
//! (e.g. a phrase can match at most the documents containing its rarest token), which
//! is exactly what ordering needs: a subquery with a small upper bound is guaranteed
//! to produce a small seed set.

use graphitti_core::{Component, ComponentSet, SystemView};
use xmlstore::{NameTest, PathExpr};

use crate::ast::{ContentFilter, OntologyFilter, Query, ReferentFilter};

/// Which data-element store a subquery addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubQueryKind {
    /// Annotation-content store (XML / keyword indexes).
    Content,
    /// Referent indexes (interval trees / R-trees / block postings).
    Referent,
    /// Ontology store (term postings).
    Ontology,
}

/// One separated subquery with a selectivity estimate.
#[derive(Debug, Clone)]
pub struct SubQuery {
    /// Which store it addresses.
    pub kind: SubQueryKind,
    /// Index of the filter within its family in the original query.
    pub index: usize,
    /// Estimated number of rows (annotations or referents) the subquery matches.
    pub estimated_rows: usize,
    /// Estimated selectivity in `[0, 1]`; smaller means more selective (runs earlier).
    pub selectivity: f64,
    /// A short human-readable description for the planner's explain output.
    pub description: String,
}

impl SubQuery {
    /// The planner's ordering: ascending selectivity, as a *total* order
    /// (`f64::total_cmp`).  `partial_cmp(..).unwrap_or(Equal)` would let a NaN
    /// estimate compare Equal against everything — under a stable sort the NaN then
    /// *keeps its declaration position*, so a poisoned estimate appearing before the
    /// genuinely selective subquery would silently become the driver and seed from
    /// the wrong index.  `total_cmp` orders NaN after every finite estimate, so a
    /// poisoned estimate can never displace a real driver (pinned by the
    /// `nan_selectivity_never_displaces_the_driver` regression test).
    fn selectivity_order(a: &SubQuery, b: &SubQuery) -> std::cmp::Ordering {
        a.selectivity.total_cmp(&b.selectivity)
    }
}

/// A planned query: ordered subqueries plus the plan's read footprint.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Subqueries in feasible (most-selective-first) execution order.
    pub order: Vec<SubQuery>,
    /// The components whose query-visible state this query's answer depends on (see
    /// [`Plan::read_footprint`]).
    pub footprint: ComponentSet,
}

impl Plan {
    /// Build a plan for a query over a concrete system, separating its subqueries and
    /// ordering them by ascending estimated selectivity computed from the system's
    /// live statistics.
    pub fn build(query: &Query, system: &SystemView) -> Plan {
        let est = Estimator::new(system);
        let mut subs: Vec<SubQuery> = Vec::new();

        for (i, f) in query.content.iter().enumerate() {
            let rows = est.content_rows(f);
            subs.push(SubQuery {
                kind: SubQueryKind::Content,
                index: i,
                estimated_rows: rows,
                selectivity: est.fraction(rows, est.annotations),
                description: content_desc(f),
            });
        }
        for (i, f) in query.referents.iter().enumerate() {
            let rows = est.referent_rows(f);
            subs.push(SubQuery {
                kind: SubQueryKind::Referent,
                index: i,
                estimated_rows: rows,
                selectivity: est.fraction(rows, est.referents),
                description: referent_desc(f),
            });
        }
        for (i, f) in query.ontology.iter().enumerate() {
            let rows = est.ontology_rows(f);
            subs.push(SubQuery {
                kind: SubQueryKind::Ontology,
                index: i,
                estimated_rows: rows,
                selectivity: est.fraction(rows, est.annotations),
                description: ontology_desc(f),
            });
        }

        // Feasible order: ascending selectivity (most selective first). Stable so that
        // ties keep their declaration order, which keeps plans deterministic.
        subs.sort_by(SubQuery::selectivity_order);
        Plan { order: subs, footprint: Plan::read_footprint(query) }
    }

    /// The **read footprint** of a query: the set of [`Component`]s whose
    /// query-visible state its answer depends on.  A cached result for the query stays
    /// valid across any publish whose dirty set is disjoint from this footprint —
    /// this is what the query service's per-entry cache invalidation keys on.
    ///
    /// The footprint is *semantic*, not a trace of every data structure execution
    /// touches.  A component may be omitted when every query-visible change to the
    /// data read through it is always accompanied by a bump of a component that *is*
    /// in the footprint (a mutation's dirty set is the components it wrote, stamped
    /// as it writes them in `graphitti-core`):
    ///
    /// * **`Annotations` and `Referents` are in every footprint** — all result content
    ///   (flat lists and result pages) is derived from the annotation and referent
    ///   registries.  `Annotations` bumps on every successful annotation commit;
    ///   `Referents` bumps on exactly the commits that create referents — a
    ///   reuse-only commit leaves it alone, and a commit that fails part-way keeps
    ///   (and bumps for) the referents it had created without ever reaching
    ///   `Annotations` — so with both components in the footprint, an entry can never
    ///   outlive a change to either registry.
    /// * **`Agraph`, `NodeMaps` and `Indexes` are never in a footprint** — page
    ///   building reads the a-graph and node maps and every seed/verify reads the
    ///   inverted indexes, but each query-visible change to them (a new edge between
    ///   witness nodes, a new posting) is annotation-mediated: it only happens inside
    ///   an annotation commit, next to a write of `Annotations` or `Referents`.  The
    ///   *non*-annotation writes to them — an object registration's edge-less a-graph
    ///   node, its node-map entry, its type-index entry and statistics — cannot alter
    ///   any answer: results only ever reach an object through its referents, and a
    ///   freshly registered object has none.  (Statistics shifts can reorder a plan,
    ///   but all orders of one canonical query produce byte-identical results — pinned
    ///   by the pipeline-equivalence tests.)  This is precisely why a pure-ingest
    ///   batch (dirty set: a-graph, node maps, objects, indexes) invalidates no
    ///   content-query entries.
    /// * **Per-filter stores** join the footprint when a filter reads them: `Content`
    ///   for content filters, `Ontology` for ontology filters (class expansion walks
    ///   the ontology graph, which `ontology_mut` bumps independently of any
    ///   annotation), and the marker index family / object registry per referent
    ///   filter.  `OfType` includes `Objects` conservatively: it reads object
    ///   metadata, which is immutable today, but the dependency is declared rather
    ///   than assumed away.
    pub fn read_footprint(query: &Query) -> ComponentSet {
        let mut fp = ComponentSet::of([Component::Annotations, Component::Referents]);
        if !query.content.is_empty() {
            fp.insert(Component::Content);
        }
        if !query.ontology.is_empty() {
            fp.insert(Component::Ontology);
        }
        for f in &query.referents {
            match f {
                ReferentFilter::OfType(_) => fp.insert(Component::Objects),
                // Reads the object → referents map; it only ever moves together with
                // the referent registry (already in every footprint), but the
                // dependency is declared rather than assumed away.
                ReferentFilter::OnObject(_) => fp.insert(Component::ObjectReferents),
                ReferentFilter::IntervalOverlaps { .. } => fp.insert(Component::Intervals),
                ReferentFilter::RegionOverlaps { .. } => fp.insert(Component::Spatial),
                ReferentFilter::BlockContains(_) => { /* block markers live in Referents */ }
            }
        }
        fp
    }

    /// A human-readable explain string.
    pub fn explain(&self) -> String {
        let mut s = String::from("Plan (most selective first):\n");
        for (i, sub) in self.order.iter().enumerate() {
            s.push_str(&format!(
                "  {}. [{:?}] {} (sel={:.3}, ~{} rows)\n",
                i + 1,
                sub.kind,
                sub.description,
                sub.selectivity,
                sub.estimated_rows,
            ));
        }
        s
    }
}

/// Cardinality estimation over a system's live statistics.
struct Estimator<'g> {
    system: &'g SystemView,
    /// Annotation universe size (content / ontology subqueries select annotations).
    annotations: usize,
    /// Referent universe size (referent subqueries select referents).
    referents: usize,
}

impl<'g> Estimator<'g> {
    fn new(system: &'g SystemView) -> Self {
        let stats = system.stats();
        Estimator { system, annotations: stats.annotations, referents: stats.referents }
    }

    /// `rows / universe`, clamped to `[0, 1]`; an empty universe estimates 0 (nothing
    /// can match).
    fn fraction(&self, rows: usize, universe: usize) -> f64 {
        if universe == 0 {
            0.0
        } else {
            (rows as f64 / universe as f64).clamp(0.0, 1.0)
        }
    }

    /// Upper bound on the documents a content filter matches, from the keyword /
    /// element document-frequency indexes.
    fn content_rows(&self, f: &ContentFilter) -> usize {
        let store = self.system.content_store();
        match f {
            // A phrase can match at most the documents containing its rarest token.
            ContentFilter::Phrase(p) => xmlstore::keyword_tokens(p)
                .map(|t| store.keyword_df(t))
                .min()
                .unwrap_or(store.len()),
            // Keyword conjunction: bounded by the rarest keyword.
            ContentFilter::Keywords(ks) => {
                ks.iter().map(|k| store.keyword_df(k)).min().unwrap_or(store.len())
            }
            // A path expression matches at most the documents containing its most
            // specific named element.
            ContentFilter::Path(expr) => path_rows(store, expr),
        }
    }

    /// Upper bound on the referents a referent filter matches, from the per-type /
    /// per-domain counts and the block postings.
    fn referent_rows(&self, f: &ReferentFilter) -> usize {
        let stats = self.system.stats();
        match f {
            ReferentFilter::OfType(t) => stats.type_count(*t),
            // Exact, not an estimate: the object → referents map is the index this
            // filter seeds from.
            ReferentFilter::OnObject(id) => self.system.referents_of_object(*id).len(),
            ReferentFilter::IntervalOverlaps { domain, .. } => {
                stats.interval_count(domain.as_deref())
            }
            ReferentFilter::RegionOverlaps { system, .. } => stats.region_count(system.as_deref()),
            ReferentFilter::BlockContains(ids) => {
                ids.iter().map(|&id| self.system.indexes().referents_with_block(id).len()).sum()
            }
        }
    }

    /// Upper bound on the annotations an ontology filter matches: the summed citation
    /// counts of every qualifying term.
    fn ontology_rows(&self, f: &OntologyFilter) -> usize {
        let stats = self.system.stats();
        match f {
            OntologyFilter::CitesTerm(c) => stats.term_citation_count(*c),
            OntologyFilter::InClass { concept, relations } => {
                crate::exec::expand_class(self.system.ontology(), *concept, relations)
                    .iter()
                    .map(|&t| stats.term_citation_count(t))
                    .sum()
            }
        }
    }
}

/// Upper bound on the documents a path expression matches: the smallest element
/// document-frequency among its named steps (a match must contain every named element
/// on the path), or the whole store for an all-wildcard path.
fn path_rows(store: &xmlstore::ContentStore, expr: &PathExpr) -> usize {
    expr.steps
        .iter()
        .filter_map(|s| match &s.name {
            NameTest::Named(n) => Some(store.element_df(n)),
            NameTest::Any => None,
        })
        .min()
        .unwrap_or(store.len())
}

fn content_desc(f: &ContentFilter) -> String {
    match f {
        ContentFilter::Phrase(p) => format!("content contains phrase {p:?}"),
        ContentFilter::Keywords(k) => format!("content contains keywords {k:?}"),
        ContentFilter::Path(_) => "content matches path expression".to_string(),
    }
}

fn referent_desc(f: &ReferentFilter) -> String {
    match f {
        ReferentFilter::OfType(t) => format!("referents of type {t:?}"),
        ReferentFilter::OnObject(id) => format!("referents on object {id:?}"),
        ReferentFilter::IntervalOverlaps { domain, interval } => {
            format!("interval overlaps {interval} in domain {domain:?}")
        }
        ReferentFilter::RegionOverlaps { system, .. } => format!("region overlaps in {system:?}"),
        ReferentFilter::BlockContains(ids) => format!("block set contains {ids:?}"),
    }
}

fn ontology_desc(f: &OntologyFilter) -> String {
    match f {
        OntologyFilter::InClass { concept, .. } => format!("in ontology class {concept:?}"),
        OntologyFilter::CitesTerm(c) => format!("cites term {c:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Query, Target};
    use graphitti_core::{DataType, Graphitti, Marker};
    use interval_index::Interval;
    use ontology::ConceptId;

    /// A small system with a known shape: many "common" annotations, one "rare" one,
    /// DNA intervals in two domains, and image regions.
    fn sample_system() -> (Graphitti, ConceptId, ConceptId) {
        let mut sys = Graphitti::new();
        let seq1 = sys.register_sequence("s1", DataType::DnaSequence, 10_000, "chr1");
        let seq7 = sys.register_sequence("s7", DataType::DnaSequence, 10_000, "chr7");
        let img = sys.register_image("img", 1000, 1000, "confocal", "cs");
        let rare = sys.ontology_mut().add_concept("RareTerm");
        let common = sys.ontology_mut().add_concept("CommonTerm");
        for i in 0..8u64 {
            sys.annotate()
                .comment("a perfectly ordinary observation")
                .mark(seq1, Marker::interval(i * 100, i * 100 + 50))
                .cite_term(common)
                .commit()
                .unwrap();
        }
        sys.annotate()
            .comment("an exceptional singular finding")
            .mark(seq7, Marker::interval(0, 50))
            .cite_term(rare)
            .commit()
            .unwrap();
        sys.annotate()
            .comment("ordinary region")
            .mark(img, Marker::region(0.0, 0.0, 10.0, 10.0))
            .cite_term(common)
            .commit()
            .unwrap();
        (sys, rare, common)
    }

    #[test]
    fn separates_by_kind() {
        let (sys, rare, _) = sample_system();
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("singular finding")
            .with_referent(ReferentFilter::OfType(DataType::Image))
            .with_ontology(OntologyFilter::CitesTerm(rare));
        let plan = Plan::build(&q, &sys);
        assert_eq!(plan.order.len(), 3);
        let kinds: Vec<SubQueryKind> = plan.order.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SubQueryKind::Content));
        assert!(kinds.contains(&SubQueryKind::Referent));
        assert!(kinds.contains(&SubQueryKind::Ontology));
    }

    #[test]
    fn selectivity_reflects_real_frequencies() {
        let (sys, rare, common) = sample_system();
        let q = Query::new(Target::AnnotationContents)
            .with_ontology(OntologyFilter::CitesTerm(common))
            .with_ontology(OntologyFilter::CitesTerm(rare));
        let plan = Plan::build(&q, &sys);
        // the rare term (1 citation) must drive; the common one (9 citations) follows
        assert_eq!(plan.order[0].description, format!("cites term {rare:?}"));
        assert_eq!(plan.order[0].estimated_rows, 1);
        assert_eq!(plan.order[1].estimated_rows, 9);
        for w in plan.order.windows(2) {
            assert!(w[0].selectivity <= w[1].selectivity);
        }
    }

    #[test]
    fn rare_phrase_beats_broad_type_filter() {
        let (sys, _, common) = sample_system();
        let q = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OfType(DataType::DnaSequence)) // 9 of 10 refs
            .with_ontology(OntologyFilter::CitesTerm(common)) // 9 of 10 anns
            .with_phrase("exceptional singular"); // 1 doc
        let plan = Plan::build(&q, &sys);
        assert_eq!(plan.order[0].kind, SubQueryKind::Content);
        assert_eq!(plan.order[0].estimated_rows, 1);
        for w in plan.order.windows(2) {
            assert!(w[0].selectivity <= w[1].selectivity);
        }
    }

    #[test]
    fn domain_pinned_interval_is_more_selective() {
        let (sys, _, _) = sample_system();
        let pinned =
            Query::new(Target::Referents).with_referent(ReferentFilter::IntervalOverlaps {
                domain: Some("chr7".into()),
                interval: Interval::new(0, 10),
            });
        let unpinned =
            Query::new(Target::Referents).with_referent(ReferentFilter::IntervalOverlaps {
                domain: None,
                interval: Interval::new(0, 10),
            });
        let ps = Plan::build(&pinned, &sys).order[0].selectivity;
        let us = Plan::build(&unpinned, &sys).order[0].selectivity;
        // chr7 holds 1 of the 9 intervals
        assert!(ps < us, "pinned {ps} vs unpinned {us}");
    }

    #[test]
    fn unknown_term_estimates_zero_rows() {
        let (sys, _, _) = sample_system();
        let q = Query::new(Target::AnnotationContents)
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(999)));
        let plan = Plan::build(&q, &sys);
        assert_eq!(plan.order[0].estimated_rows, 0);
        assert_eq!(plan.order[0].selectivity, 0.0);
    }

    #[test]
    fn nan_selectivity_never_displaces_the_driver() {
        let mk = |index: usize, selectivity: f64| SubQuery {
            kind: SubQueryKind::Content,
            index,
            estimated_rows: 0,
            selectivity,
            description: format!("sub {index}"),
        };
        // Wherever the poisoned estimate sits, the finite minimum drives and the NaN
        // sorts last.  (With the old `partial_cmp(..).unwrap_or(Equal)` rule, a NaN
        // compared Equal to everything, so a leading NaN kept position 0 under the
        // stable sort and became the driver.)
        for nan_pos in 0..3 {
            let mut subs = [mk(0, 0.4), mk(1, 0.1), mk(2, 0.9)];
            subs[nan_pos].selectivity = f64::NAN;
            let finite_min = subs
                .iter()
                .filter(|s| !s.selectivity.is_nan())
                .min_by(|a, b| a.selectivity.total_cmp(&b.selectivity))
                .unwrap()
                .index;
            subs.sort_by(SubQuery::selectivity_order);
            assert_eq!(subs[0].index, finite_min, "NaN at {nan_pos} displaced the driver");
            assert!(subs.last().unwrap().selectivity.is_nan(), "NaN must sort last");
        }
        // Exact ties still keep declaration order (the sort is stable), so plans stay
        // deterministic for equal estimates.
        let mut subs = [mk(0, 0.5), mk(1, 0.5), mk(2, 0.2)];
        subs.sort_by(SubQuery::selectivity_order);
        assert_eq!(subs.iter().map(|s| s.index).collect::<Vec<_>>(), vec![2, 0, 1]);
    }

    #[test]
    fn explain_is_human_readable() {
        let (sys, _, _) = sample_system();
        let q = Query::new(Target::AnnotationContents).with_phrase("ordinary");
        let plan = Plan::build(&q, &sys);
        let explain = plan.explain();
        assert!(explain.contains("Plan"));
        assert!(explain.contains("Content"));
        assert!(explain.contains("rows"));
    }

    #[test]
    fn empty_query_has_empty_plan() {
        let sys = Graphitti::new();
        let plan = Plan::build(&Query::new(Target::Referents), &sys);
        assert!(plan.order.is_empty());
    }

    #[test]
    fn empty_system_plans_without_panicking() {
        let sys = Graphitti::new();
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("anything")
            .with_referent(ReferentFilter::OfType(DataType::Image));
        let plan = Plan::build(&q, &sys);
        assert_eq!(plan.order.len(), 2);
        for s in &plan.order {
            assert_eq!(s.selectivity, 0.0);
        }
    }
}
