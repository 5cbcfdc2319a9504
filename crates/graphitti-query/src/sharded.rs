//! Scatter-gather query serving over a [`ShardedSystem`](graphitti_core::ShardedSystem).
//!
//! [`ShardedExecutor`] fans one canonical query out to every shard of a [`ShardCut`],
//! one shard after another on the calling thread: each shard plans the query against
//! its *own* live statistics and runs the seed → verify candidate pipeline over its
//! local inverted indexes (the two subquery families are independent until
//! collation, so they scatter independently).  The
//! per-shard candidate sets come back in shard-local ids, are translated to global
//! ids (order-preserving — local and global id order are both creation order), and
//! merged by [`union_sorted`](crate::setops::union_sorted)'s k-way galloping merge,
//! whose disjoint-runs fast path fires whenever the per-shard sets do not interleave.
//! Collation — candidate narrowing, graph constraints, page building — then runs
//! **once**, through the same generic [`Collator`](crate::exec) every other executor
//! uses, over the cut's global links (see [`ShardCut`]'s `Links`).  Output pages,
//! ordering and node and edge ids are therefore byte-identical to the unsharded path; the randomized cross-shard
//! battery in `tests/sharded_equivalence.rs` pins this against the
//! [`ReferenceExecutor`](crate::ReferenceExecutor) oracle at shard counts {1, 2, 3, 8}.
//!
//! **Pruning.** The one id-bearing referent filter, [`ReferentFilter::OnObject`],
//! pins its candidates to the shards actually holding that object's referents
//! (usually exactly one — the object's hash shard).  The referent family is then
//! scattered only to those shards; every other shard contributes an empty run
//! without touching its indexes.  The *annotation* family still scatters to all
//! shards: a `ConnectionGraphs` query's flat annotation list is not object-filtered,
//! so content / ontology matches from other shards remain result-visible.
//!
//! **No partial answers.**  Every shard of a cut is a snapshot held by the serving
//! process, so a shard cannot be down, slow or unreachable on its own: a scatter
//! fails only as a whole query does — its deadline passes or it is cancelled — and
//! otherwise returns the complete answer.
//!
//! [`ShardedQueryService`] is the one [`Service`] over a cut: the same pool, tickets,
//! admission control and result cache as the unsharded deployment, with a
//! [`ShardedExecutor`] as the execution a worker or an inline `resolve` runs.  A
//! publish installs the whole cut atomically: readers see either all of the
//! previous cut or all of the new one, never a torn mix.  Cache entries carry their
//! **own** per-shard `(lineage, epoch-vector)` tag and the plan's read footprint: an
//! entry is served to a reader whose cut agrees with the entry's birth cut on the
//! footprint's epochs *on every shard* — so a publish that only touched shard 2 with an
//! ingest batch invalidates nothing, and even a publish that did touch an entry's
//! footprint keeps it servable to readers still on the older cut.

use graphitti_core::{AnnotationId, ReferentId, ShardCut, Snapshot};

use crate::ast::{Query, ReferentFilter};
use crate::exec::{Collator, Executor};
use crate::plan::Plan;
use crate::resilience::{CancelToken, Interrupt, ServiceError};
use crate::result::QueryResult;
use crate::service::{Service, ServiceConfig};
use crate::setops::union_sorted;

/// The sharded deployment: a [`Service`] over a [`ShardCut`].
pub type ShardedQueryService = Service<ShardCut>;

/// The sharded deployment's configuration: the one [`ServiceConfig`].
pub type ShardedServiceConfig = ServiceConfig;

/// The scatter-gather executor over one consistent [`ShardCut`].
pub struct ShardedExecutor<'c> {
    cut: &'c ShardCut,
    cancel: CancelToken,
}

/// One shard's contribution: translated (global-id) candidate runs.
struct ShardContribution {
    ann: Option<Vec<AnnotationId>>,
    constraint_anns: Option<Vec<AnnotationId>>,
    refs: Option<Vec<ReferentId>>,
}

impl<'c> ShardedExecutor<'c> {
    /// Create a scatter-gather executor over a cut.
    pub fn new(cut: &'c ShardCut) -> Self {
        ShardedExecutor { cut, cancel: CancelToken::unbounded() }
    }

    /// Attach a cooperative cancellation token (see [`CancelToken`]): every shard's
    /// pipeline and the global collation observe it.
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Execute a query: canonicalize, scatter, merge, collate globally.
    pub fn run(&self, query: &Query) -> QueryResult {
        self.run_canonical(&query.canonicalize())
    }

    /// Execute a query **already in canonical form** (as the service does, after
    /// rendering its cache key from the same canonical query).
    pub(crate) fn run_canonical(&self, canonical: &Query) -> QueryResult {
        self.try_run_canonical(canonical)
            // lint: allow(no-panic-serving) -- with no deadline or cancellation, no fallible path is reachable
            .expect("scatter-gather with no deadline or cancellation cannot fail")
    }

    /// Execute a query already in canonical form.  It fails only with the
    /// query-level interrupts — its deadline passed or it was cancelled — as a
    /// typed [`ServiceError`].
    pub fn try_run_canonical(&self, canonical: &Query) -> Result<QueryResult, ServiceError> {
        if self.cut.shard_count() == 1 {
            // One shard: ids are global by construction and the shard's own a-graph
            // is the whole graph — the plain pipelined executor is exact.
            return Executor::new(self.cut.shard(0))
                .with_cancel(self.cancel.clone())
                .try_run_canonical(canonical)
                .map_err(ServiceError::from);
        }

        let ref_mask = self.referent_shards(canonical);
        let contributions = (0..self.cut.shard_count())
            .map(|shard| self.shard_candidates(canonical, shard, ref_mask))
            .collect::<Result<Vec<_>, _>>()?;
        let ann = merge_family(contributions.iter().map(|c| c.ann.as_deref()));
        let constraint_anns =
            merge_family(contributions.iter().map(|c| c.constraint_anns.as_deref()));
        let refs = merge_family(contributions.iter().map(|c| c.refs.as_deref()));
        Collator::new(self.cut)
            .with_cancel(self.cancel.clone())
            .try_collate(canonical, ann, refs, constraint_anns)
            .map_err(ServiceError::from)
    }

    /// The bitmask of shards the referent family must visit: all shards, narrowed by
    /// every id-bearing [`ReferentFilter::OnObject`] conjunct to the shards holding
    /// that object's referents.
    fn referent_shards(&self, canonical: &Query) -> u64 {
        let all =
            if self.cut.shard_count() == 64 { u64::MAX } else { (1 << self.cut.shard_count()) - 1 };
        canonical.referents.iter().fold(all, |mask, f| match f {
            ReferentFilter::OnObject(id) => mask & self.cut.object_referent_shards(*id),
            _ => mask,
        })
    }

    /// Run both family pipelines on one shard and translate the results to global
    /// ids.  A shard outside `ref_mask` contributes an empty referent run without
    /// executing the referent family (its indexes hold no qualifying referent).
    fn shard_candidates(
        &self,
        canonical: &Query,
        shard: usize,
        ref_mask: u64,
    ) -> Result<ShardContribution, Interrupt> {
        let snap: &Snapshot = self.cut.shard(shard);
        let plan = Plan::build(canonical, snap);
        let exec = Executor::new(snap).with_cancel(self.cancel.clone());
        let (ann, constraint_anns) = exec.annotation_candidates(canonical, &plan)?;
        let refs = if canonical.referents.is_empty() {
            None
        } else if ref_mask & (1 << shard) == 0 {
            Some(Vec::new())
        } else {
            exec.referent_candidates(canonical, &plan)?
        };
        Ok(ShardContribution {
            ann: ann.map(|v| v.into_iter().map(|a| self.cut.annotation_global(shard, a)).collect()),
            constraint_anns: constraint_anns
                .map(|v| v.into_iter().map(|a| self.cut.annotation_global(shard, a)).collect()),
            refs: refs.map(|v| v.into_iter().map(|r| self.cut.referent_global(shard, r)).collect()),
        })
    }
}

/// Merge one candidate family across shards: `None` (family unconstrained) is
/// uniform across shards because every shard evaluated the same canonical query;
/// otherwise the translated per-shard runs are disjoint and sorted, and the union
/// is [`union_sorted`]'s k-way merge.
fn merge_family<'a, T: Ord + Copy + 'a>(
    per_shard: impl Iterator<Item = Option<&'a [T]>>,
) -> Option<Vec<T>> {
    let runs: Option<Vec<&[T]>> = per_shard.collect();
    runs.map(|runs| union_sorted(&runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Target;
    use crate::reference::ReferenceExecutor;
    use graphitti_core::{DataType, Graphitti, Marker, ObjectId, ShardedSystem, WriteSystem};

    /// One interleaved write history, written once against the write surface both
    /// systems share.
    fn write_history<S: WriteSystem>(sys: &mut S) {
        let term = sys.ontology_edit(|o| o.add_concept("Motif"));
        for i in 0..8u64 {
            sys.register_sequence(format!("seq-{i}"), DataType::DnaSequence, 2_000, "chr1");
        }
        for i in 0..24u64 {
            let comment =
                if i % 3 == 0 { format!("protease motif {i}") } else { format!("quiet {i}") };
            let mut builder = sys
                .annotate()
                .comment(comment)
                .mark(ObjectId(i % 8), Marker::interval(i * 40, i * 40 + 25));
            if i % 2 == 0 {
                builder = builder.cite_term(term);
            }
            builder.commit().unwrap();
        }
    }

    /// [`write_history`] applied to an unsharded oracle and a sharded system (global
    /// ids match by construction).
    fn parallel_build(shards: usize) -> (Graphitti, ShardedSystem) {
        let mut oracle = Graphitti::new();
        let mut sharded = ShardedSystem::new(shards);
        write_history(&mut oracle);
        write_history(&mut sharded);
        (oracle, sharded)
    }

    fn phrase_query() -> Query {
        Query::new(Target::AnnotationContents).with_phrase("protease motif")
    }

    #[test]
    fn scatter_gather_matches_oracle_bytes() {
        for shards in [1, 2, 3, 5] {
            let (oracle, sharded) = parallel_build(shards);
            let cut = sharded.capture_cut();
            let queries = [
                phrase_query(),
                Query::new(Target::ConnectionGraphs).with_phrase("protease"),
                Query::new(Target::Referents)
                    .with_referent(ReferentFilter::OfType(DataType::DnaSequence)),
                Query::new(Target::Referents).with_referent(ReferentFilter::OnObject(ObjectId(3))),
                Query::new(Target::AnnotationContents), // unconstrained
            ];
            for q in queries {
                let expected = ReferenceExecutor::new(&oracle).run(&q);
                let got = ShardedExecutor::new(&cut).run(&q);
                assert_eq!(got.to_json(), expected.to_json(), "{shards} shards: {q:?}");
            }
        }
    }

    #[test]
    fn on_object_prunes_to_owning_shard_only() {
        let (_oracle, sharded) = parallel_build(4);
        let cut = sharded.capture_cut();
        let obj = ObjectId(3);
        let mask = cut.object_referent_shards(obj);
        assert_eq!(mask.count_ones(), 1, "single-object annotations live on one shard");
        let q = Query::new(Target::Referents).with_referent(ReferentFilter::OnObject(obj));
        let exec = ShardedExecutor::new(&cut);
        assert_eq!(exec.referent_shards(&q.canonicalize()), mask);
        // Two different pinned objects on different shards: the mask empties and the
        // conjunction is (correctly) empty.
        let other = (0..8)
            .map(ObjectId)
            .find(|o| cut.object_referent_shards(*o) & mask == 0)
            .expect("some object on another shard");
        let q2 = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OnObject(obj))
            .with_referent(ReferentFilter::OnObject(other));
        assert_eq!(exec.referent_shards(&q2.canonicalize()), 0);
        assert!(exec.run(&q2).referents.is_empty());
    }

    #[test]
    fn service_caches_and_publishes_cuts() {
        fn late_ingest<S: WriteSystem>(sys: &mut S) {
            let mut batch = sys.batch();
            for i in 0..3 {
                batch.register_sequence(format!("late-{i}"), DataType::DnaSequence, 500, "chr2");
            }
            batch.commit();
        }
        fn late_annotation<S: WriteSystem>(sys: &mut S) {
            sys.annotate()
                .comment("protease motif late")
                .mark(ObjectId(0), Marker::interval(900, 950))
                .commit()
                .unwrap();
        }
        let (mut oracle, mut sharded) = parallel_build(3);
        let service = ShardedQueryService::new(
            sharded.capture_cut(),
            ShardedServiceConfig::default().with_cache_capacity(8),
        );
        let before = service.run(phrase_query()).unwrap();
        assert_eq!(
            before.to_json(),
            ReferenceExecutor::new(&oracle).run(&phrase_query()).to_json()
        );
        assert_eq!(service.run(phrase_query()).unwrap(), before); // hit
        let m = service.metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 1));

        // A replicated ingest batch moves no annotation-path epochs on any shard:
        // the entry survives the publish.
        late_ingest(&mut sharded);
        late_ingest(&mut oracle);
        service.publish(sharded.capture_cut()).unwrap();
        assert_eq!(service.run(phrase_query()).unwrap(), before);
        let m = service.metrics();
        assert_eq!(m.cache_hits, 2);
        assert_eq!(m.cache_entries_evicted, 0);
        assert_eq!(m.cache_partial_invalidations, 1);

        // An annotation commit on one shard invalidates the entry (every footprint
        // reads the annotation registries of the cut): the re-run misses, and its
        // fresh answer displaces the stale one.
        late_annotation(&mut sharded);
        late_annotation(&mut oracle);
        service.publish(sharded.capture_cut()).unwrap();
        let after = service.run(phrase_query()).unwrap();
        assert_eq!(after.to_json(), ReferenceExecutor::new(&oracle).run(&phrase_query()).to_json());
        assert_eq!(after.annotations.len(), before.annotations.len() + 1);
        let m = service.metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (2, 2));
        assert_eq!(m.cache_entries_evicted, 1);
    }
}
