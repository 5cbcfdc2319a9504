//! The scan-and-intersect reference executor.
//!
//! This is the pre-index execution strategy, kept deliberately free of the persistent
//! inverted indexes: every subquery recomputes its full matching set by scanning the
//! registries (`annotations()` / `referents()`), materialises it as a `HashSet`, and
//! the sets are intersected at the end.  It is the **correctness oracle**: the
//! randomized equivalence tests assert that the plan-driven pipelined
//! [`crate::Executor`] returns byte-identical results on arbitrary queries.
//!
//! Collation is shared with the pipelined executor (same [`crate::exec::Collator`]),
//! so the two strategies can only differ in how candidates are found.

use std::collections::HashSet;

use graphitti_core::{AnnotationId, Marker, ReferentId, SystemView};
use ontology::ConceptId;

use crate::ast::{ContentFilter, GraphConstraint, OntologyFilter, Query, ReferentFilter, Target};
use crate::exec::Collator;
use crate::result::QueryResult;

/// A query executor that evaluates every subquery by a full scan and intersects the
/// resulting sets — no secondary indexes, no plan.
pub struct ReferenceExecutor<'g> {
    system: &'g SystemView,
}

impl<'g> ReferenceExecutor<'g> {
    /// Create a reference executor over a system.
    pub fn new(system: &'g SystemView) -> Self {
        ReferenceExecutor { system }
    }

    /// Execute a query by scan-and-intersect and return its result.
    pub fn run(&self, query: &Query) -> QueryResult {
        collation_owned_shapes(query);
        let content_anns = self.eval_content(query);
        let (onto_anns, _) = self.eval_ontology(query);

        let annotation_candidates = intersect_opt(content_anns, onto_anns.clone());
        let referent_candidates = self.eval_referents(query);

        // The ontology-only set feeds constraints like "N regions annotated with term
        // T" (see Collator::collate); mirror the pipelined executor's contract.
        let constraint_anns = if !query.constraints.is_empty()
            && !query.ontology.is_empty()
            && !query.content.is_empty()
        {
            onto_anns.map(sorted_vec)
        } else {
            None
        };

        Collator::new(self.system).collate(
            query,
            annotation_candidates.map(sorted_vec),
            referent_candidates.map(sorted_vec),
            constraint_anns,
        )
    }

    /// Evaluate content filters. Returns `None` when there are none (unconstrained),
    /// else the set of annotation ids whose content satisfies *all* filters (a content
    /// document's id is its annotation's).
    fn eval_content(&self, query: &Query) -> Option<HashSet<AnnotationId>> {
        if query.content.is_empty() {
            return None;
        }
        let store = self.system.content_store();
        let mut acc: Option<HashSet<AnnotationId>> = None;
        for filter in &query.content {
            let docs = match filter {
                ContentFilter::Phrase(p) => store.containing_phrase(p),
                ContentFilter::Keywords(ks) => {
                    let refs: Vec<&str> = ks.iter().map(String::as_str).collect();
                    store.with_all_keywords(&refs)
                }
                ContentFilter::Path(expr) => store.select(expr),
            };
            let matching: HashSet<AnnotationId> =
                docs.into_iter().map(|doc| AnnotationId(doc.0)).collect();
            acc = Some(match acc {
                None => matching,
                Some(prev) => prev.intersection(&matching).copied().collect(),
            });
        }
        acc
    }

    /// Evaluate ontology filters by scanning every annotation's term list. Returns the
    /// annotation set and the expanded set of qualifying concepts.
    fn eval_ontology(&self, query: &Query) -> (Option<HashSet<AnnotationId>>, HashSet<ConceptId>) {
        if query.ontology.is_empty() {
            return (None, HashSet::new());
        }
        let onto = self.system.ontology();
        let mut all_concepts: HashSet<ConceptId> = HashSet::new();
        let mut acc: Option<HashSet<AnnotationId>> = None;

        for filter in &query.ontology {
            // sorted, via the shared definition of "in class"
            let qualifying_concepts: Vec<ConceptId> = match filter {
                OntologyFilter::CitesTerm(c) => vec![*c],
                OntologyFilter::InClass { concept, relations } => {
                    crate::exec::expand_class(onto, *concept, relations)
                }
            };
            all_concepts.extend(&qualifying_concepts);

            // annotations citing any qualifying concept — full registry scan
            let anns: HashSet<AnnotationId> = self
                .system
                .annotations()
                .iter()
                .filter(|a| a.terms.iter().any(|t| qualifying_concepts.binary_search(t).is_ok()))
                .map(|a| a.id)
                .collect();
            acc = Some(match acc {
                None => anns,
                Some(prev) => prev.intersection(&anns).copied().collect(),
            });
        }
        (acc, all_concepts)
    }

    /// Evaluate referent filters by scanning every referent. Returns `None` when there
    /// are none, else the set of referent ids satisfying *all* filters.
    fn eval_referents(&self, query: &Query) -> Option<HashSet<ReferentId>> {
        if query.referents.is_empty() {
            return None;
        }
        let mut acc: Option<HashSet<ReferentId>> = None;
        for filter in &query.referents {
            let matching: HashSet<ReferentId> = self.eval_one_referent_filter(filter);
            acc = Some(match acc {
                None => matching,
                Some(prev) => prev.intersection(&matching).copied().collect(),
            });
        }
        acc
    }

    fn eval_one_referent_filter(&self, filter: &ReferentFilter) -> HashSet<ReferentId> {
        match filter {
            ReferentFilter::OfType(t) => self
                .system
                .referents()
                .iter()
                .filter(|r| self.system.object(r.object).map(|o| o.data_type == *t).unwrap_or(false))
                .map(|r| r.id)
                .collect(),
            ReferentFilter::OnObject(id) => self
                .system
                .referents()
                .iter()
                .filter(|r| r.object == *id)
                .map(|r| r.id)
                .collect(),
            ReferentFilter::IntervalOverlaps { domain, interval } => self
                .system
                .referents()
                .iter()
                .filter(|r| {
                    if domain.as_deref().is_some_and(|d| d != &*r.domain) {
                        return false;
                    }
                    matches!(&r.marker, Marker::Interval(iv) if iv.if_overlap(interval))
                })
                .map(|r| r.id)
                .collect(),
            ReferentFilter::RegionOverlaps { system, rect } => self
                .system
                .referents()
                .iter()
                .filter(|r| {
                    if system.as_deref().is_some_and(|s| s != &*r.domain) {
                        return false;
                    }
                    matches!(&r.marker, Marker::Region(rr) | Marker::Volume(rr) if rr.if_overlap(rect))
                })
                .map(|r| r.id)
                .collect(),
            ReferentFilter::BlockContains(ids) => {
                let want: HashSet<u64> = ids.iter().copied().collect();
                self.system
                    .referents()
                    .iter()
                    .filter(|r| match &r.marker {
                        Marker::BlockSet(set) => set.iter().any(|id| want.contains(id)),
                        _ => false,
                    })
                    .map(|r| r.id)
                    .collect()
            }
        }
    }
}

/// Compile-time pin for the AST shapes this oracle does **not** evaluate itself:
/// targets and graph constraints are collation concerns, shared with the pipelined
/// executor through [`Collator`] (see the module docs).  These exhaustive matches
/// compile to nothing, but a newly added `Target` or `GraphConstraint` variant
/// breaks compilation *here*, so the sharing gets revisited instead of silently
/// inherited — the same contract `graphitti-lint`'s footprint-exhaustiveness rule
/// enforces by name for the evaluated shapes.
fn collation_owned_shapes(query: &Query) {
    match query.target {
        Target::AnnotationContents | Target::Referents | Target::ConnectionGraphs => {}
    }
    for constraint in &query.constraints {
        match constraint {
            GraphConstraint::ConsecutiveIntervals { .. }
            | GraphConstraint::MinRegionCount { .. }
            | GraphConstraint::PathExists { .. } => {}
        }
    }
}

fn intersect_opt<T: Eq + std::hash::Hash + Clone>(
    a: Option<HashSet<T>>,
    b: Option<HashSet<T>>,
) -> Option<HashSet<T>> {
    match (a, b) {
        (None, None) => None,
        (Some(s), None) | (None, Some(s)) => Some(s),
        (Some(x), Some(y)) => Some(x.intersection(&y).cloned().collect()),
    }
}

fn sorted_vec<T: Ord>(set: HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Target;
    use crate::Executor;
    use graphitti_core::{DataType, Graphitti};

    #[test]
    fn reference_matches_pipelined_on_simple_queries() {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 5000, "chr1");
        let term = sys.ontology_mut().add_concept("T");
        for i in 0..20u64 {
            let mut b = sys
                .annotate()
                .comment(if i % 3 == 0 { "special motif" } else { "ordinary" })
                .mark(seq, Marker::interval(i * 100, i * 100 + 50));
            if i % 2 == 0 {
                b = b.cite_term(term);
            }
            b.commit().unwrap();
        }
        for q in [
            Query::new(Target::AnnotationContents).with_phrase("special motif"),
            Query::new(Target::AnnotationContents)
                .with_phrase("special")
                .with_ontology(OntologyFilter::CitesTerm(term)),
            Query::new(Target::Referents)
                .with_referent(ReferentFilter::OfType(DataType::DnaSequence)),
            Query::new(Target::ConnectionGraphs).with_ontology(OntologyFilter::CitesTerm(term)),
        ] {
            let fast = Executor::new(&sys).run(&q);
            let slow = ReferenceExecutor::new(&sys).run(&q);
            assert_eq!(fast, slow, "divergence on {q:?}");
        }
    }
}
