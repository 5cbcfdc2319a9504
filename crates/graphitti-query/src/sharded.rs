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
//! uses, over the cut's global collation mirror.  Output pages, ordering and node ids
//! are therefore byte-identical to the unsharded path; the randomized cross-shard
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
//! [`ShardedQueryService`] is the one [`Service`] over a cut: the same pool, tickets,
//! admission control and result cache as the unsharded deployment, with a
//! [`ShardedExecutor`] — under the config's retry policy, shard timeout and chaos, and
//! the request's `allow_partial` — as the execution a worker or an inline `resolve`
//! runs.  A publish installs the whole cut atomically: readers see either all of the
//! previous cut or all of the new one, never a torn mix.  Cache entries carry their
//! **own** per-shard `(lineage, epoch-vector)` tag and the plan's read footprint: an
//! entry is served to a reader whose cut agrees with the entry's birth cut on the
//! footprint's epochs *on every shard* — so a publish that only touched shard 2 with an
//! ingest batch evicts nothing, and even a publish that did touch an entry's footprint
//! keeps it servable to readers still on the older cut.

use std::time::{Duration, Instant};

use graphitti_core::{AnnotationId, ReferentId, ShardCut, Snapshot};

use crate::ast::{GraphConstraint, Query, ReferentFilter};
use crate::exec::{Collator, Executor};
use crate::plan::Plan;
use crate::resilience::{cooperative_sleep, ChaosConfig, ShardFault, SleepInterrupt};
use crate::resilience::{CancelToken, Interrupt, RetryPolicy, ServiceError};
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
    /// Per-attempt bound on how long one shard's scatter may stall (`None` = no
    /// bound).  Cooperative: it preempts injected stalls and is checked between
    /// retry attempts, not inside the shard's candidate pipeline.
    shard_timeout: Option<Duration>,
    retry: RetryPolicy,
    chaos: Option<ChaosConfig>,
    allow_partial: bool,
    /// Availability mask for tests and oracles: shards whose bit is clear are
    /// treated as down without consuming retry attempts, so a no-chaos masked run
    /// is the deterministic reference for a chaos-degraded one.
    shard_mask: u64,
}

/// One shard's contribution: translated (global-id) candidate runs.
struct ShardContribution {
    ann: Option<Vec<AnnotationId>>,
    constraint_anns: Option<Vec<AnnotationId>>,
    refs: Option<Vec<ReferentId>>,
}

/// The result of gathering one shard, retries included.
enum ShardOutcome {
    Up(ShardContribution),
    Down { attempts: u32 },
}

impl<'c> ShardedExecutor<'c> {
    /// Create a scatter-gather executor over a cut.
    pub fn new(cut: &'c ShardCut) -> Self {
        ShardedExecutor {
            cut,
            cancel: CancelToken::unbounded(),
            shard_timeout: None,
            retry: RetryPolicy::none(),
            chaos: None,
            allow_partial: false,
            shard_mask: u64::MAX,
        }
    }

    /// Attach a cooperative cancellation token (see [`CancelToken`]): the scatter,
    /// retry backoffs and the global collation all observe it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Bound each per-shard scatter attempt (injected stalls are preempted at this
    /// bound and the attempt counts as a transient failure).
    pub fn with_shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Retry policy for transiently failing shards (decorrelated-jitter backoff
    /// between attempts).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Read-path fault injection (tests and benches only).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Degrade instead of failing: when shards stay down past their retry budget,
    /// return the exact answer restricted to the responsive shards, tagged with
    /// [`QueryResult::missing_shards`], instead of
    /// [`ServiceError::ShardUnavailable`].
    pub fn with_allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }

    /// Availability mask: shards whose bit is clear are treated as down (no retry
    /// attempts consumed).  The deterministic oracle for chaos-degraded runs.
    pub fn with_shard_mask(mut self, mask: u64) -> Self {
        self.shard_mask = mask;
        self
    }

    /// Execute a query: canonicalize, scatter, merge, collate globally.
    pub fn run(&self, query: &Query) -> QueryResult {
        self.run_canonical(&query.canonicalize())
    }

    /// Execute a query **already in canonical form** (as the service does, after
    /// rendering its cache key from the same canonical query).
    pub fn run_canonical(&self, canonical: &Query) -> QueryResult {
        self.try_run_canonical(canonical)
            // lint: allow(no-panic-serving) -- with no deadline, chaos, mask or partiality configured, no fallible path is reachable
            .expect("plain scatter-gather (no deadline, chaos, mask or partiality) cannot fail")
    }

    /// Fallible [`run_canonical`](Self::run_canonical): deadlines, cancellation,
    /// shard outages and retries surface as typed [`ServiceError`]s, and — under
    /// [`with_allow_partial`](Self::with_allow_partial) — unresponsive shards
    /// degrade the result instead of failing it.
    pub fn try_run_canonical(&self, canonical: &Query) -> Result<QueryResult, ServiceError> {
        if self.cut.shard_count() == 1 && self.chaos.is_none() && self.shard_mask & 1 != 0 {
            // Single healthy shard: ids are global by construction and the shard's
            // own a-graph is the whole graph — the plain pipelined executor is exact.
            return Executor::new(self.cut.shard(0))
                .with_cancel(self.cancel.clone())
                .try_run_canonical(canonical)
                .map_err(ServiceError::from);
        }

        let ref_mask = self.referent_shard_mask(canonical);
        let shards = self.cut.shard_count();
        let outcomes: Vec<ShardOutcome> = (0..shards)
            .map(|i| self.gather_shard(canonical, i, ref_mask))
            .collect::<Result<_, _>>()?;

        let mut missing: Vec<usize> = Vec::new();
        let mut first_down_attempts = 0u32;
        let mut gathered: Vec<Option<ShardContribution>> = Vec::with_capacity(shards);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                ShardOutcome::Up(c) => gathered.push(Some(c)),
                ShardOutcome::Down { attempts } => {
                    if missing.is_empty() {
                        first_down_attempts = attempts;
                    }
                    missing.push(i);
                    gathered.push(None);
                }
            }
        }
        if !self.allow_partial {
            if let Some(&shard) = missing.first() {
                return Err(ServiceError::ShardUnavailable {
                    shard,
                    attempts: first_down_attempts,
                });
            }
        }

        let contributions: Vec<ShardContribution> = if missing.is_empty() {
            // With no shard missing every slot is `Some`; flatten keeps them all.
            gathered.into_iter().flatten().collect()
        } else {
            // Degraded: every family must be *explicitly* restricted to the
            // responsive shards, including families the query leaves unconstrained
            // (a `None` run would make the global collator enumerate the whole cut
            // — missing shards included — and silently un-degrade the answer).
            gathered
                .into_iter()
                .enumerate()
                .map(|(i, c)| match c {
                    Some(c) => self.pin_unconstrained_families(i, c),
                    None => empty_contribution(canonical),
                })
                .collect()
        };

        let ann = merge_family(contributions.iter().map(|c| c.ann.as_deref()));
        let constraint_anns =
            merge_family(contributions.iter().map(|c| c.constraint_anns.as_deref()));
        let refs = merge_family(contributions.iter().map(|c| c.refs.as_deref()));
        let mut result = Collator::new(self.cut)
            .with_cancel(self.cancel.clone())
            .try_collate(canonical, ann, refs, constraint_anns)
            .map_err(ServiceError::from)?;
        result.missing_shards = missing;
        Ok(result)
    }

    /// Gather one shard with the retry policy: an injected stall is slept through
    /// cooperatively (bounded by the shard timeout), an injected failure or a
    /// timed-out stall counts as a transient attempt, and attempts are separated by
    /// decorrelated-jitter backoff — clamped so a nap never spends budget the next
    /// attempt would need (a shard that cannot fit another attempt reports `Down`
    /// immediately rather than sleeping into `DeadlineExceeded`).  Query-level
    /// interrupts (deadline / cancellation) always take priority over shard-level
    /// outcomes.
    fn gather_shard(
        &self,
        canonical: &Query,
        shard: usize,
        ref_mask: u64,
    ) -> Result<ShardOutcome, ServiceError> {
        if self.shard_mask & (1 << shard) == 0 {
            return Ok(ShardOutcome::Down { attempts: 0 });
        }
        let attempts = self.retry.max_attempts.max(1);
        // Deterministic per-shard jitter stream (the backoff spread matters, not
        // the entropy source).
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((shard as u64) << 17) ^ (attempts as u64);
        let mut prev = self.retry.base_delay;
        for attempt in 1..=attempts {
            self.cancel.check().map_err(ServiceError::from)?;
            let attempt_start = Instant::now();
            let attempt_deadline = self.shard_timeout.map(|t| attempt_start + t);
            let fault = match &self.chaos {
                Some(chaos) => chaos.shard_attempt(shard),
                None => ShardFault::default(),
            };
            let mut transient = fault.fail;
            if let Some(delay) = fault.delay {
                match cooperative_sleep(delay, &self.cancel, attempt_deadline) {
                    Ok(()) => {}
                    Err(SleepInterrupt::Query(i)) => return Err(i.into()),
                    Err(SleepInterrupt::AttemptTimeout) => transient = true,
                }
            }
            if !transient {
                return match self.shard_candidates(canonical, shard, ref_mask) {
                    Ok(c) => Ok(ShardOutcome::Up(c)),
                    Err(i) => Err(i.into()),
                };
            }
            if attempt == attempts {
                return Ok(ShardOutcome::Down { attempts });
            }
            prev = self.retry.next_backoff(prev, &mut rng);
            // Never let the backoff nap eat the query budget: under a deadline,
            // cap the nap so at least one more attempt — estimated at the shard
            // timeout, or at what the attempt just measured — still fits.  When
            // even a zero-length nap leaves no room, the shard is out of retry
            // budget *now*: report it down (degrading or failing typed as
            // `ShardUnavailable`, consistently with an exhausted retry loop)
            // instead of sleeping into a guaranteed `DeadlineExceeded`.
            let mut nap = prev;
            if let Some(deadline) = self.cancel.deadline() {
                let attempt_cost = self
                    .shard_timeout
                    .unwrap_or_else(|| attempt_start.elapsed())
                    .max(Duration::from_millis(1));
                let remaining = deadline.saturating_duration_since(Instant::now());
                match remaining.checked_sub(attempt_cost) {
                    Some(room) if room > Duration::ZERO => nap = nap.min(room),
                    _ => return Ok(ShardOutcome::Down { attempts: attempt }),
                }
            }
            match cooperative_sleep(nap, &self.cancel, None) {
                Ok(()) => {}
                Err(SleepInterrupt::Query(i)) => return Err(i.into()),
                Err(SleepInterrupt::AttemptTimeout) => {
                    // lint: allow(no-panic-serving) -- backoff sleeps pass no attempt deadline to cooperative_sleep
                    unreachable!("backoff sleeps carry no attempt deadline")
                }
            }
        }
        // lint: allow(no-panic-serving) -- the final attempt returns Down; the 1..=attempts loop cannot fall through
        unreachable!("the attempt loop always returns")
    }

    /// In a degraded gather, replace a responsive shard's *unconstrained*
    /// annotation run (`None`) with its explicit full enumeration, translated to
    /// global ids — so the merged set spans exactly the responsive shards.  (The
    /// referent family needs no pinning: an unconstrained referent set is derived
    /// from the annotation set, and a shard's referents are colocated with its
    /// annotations.)
    fn pin_unconstrained_families(
        &self,
        shard: usize,
        mut c: ShardContribution,
    ) -> ShardContribution {
        if c.ann.is_none() {
            let snap: &Snapshot = self.cut.shard(shard);
            c.ann = Some(
                (0..snap.annotation_count() as u64)
                    .map(|a| self.cut.annotation_global(shard, AnnotationId(a)))
                    .collect(),
            );
        }
        c
    }

    /// The bitmask of shards the referent family must visit: all shards, narrowed by
    /// every id-bearing [`ReferentFilter::OnObject`] conjunct to the shards holding
    /// that object's referents.
    fn referent_shard_mask(&self, canonical: &Query) -> u64 {
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

/// A down shard's contribution: nothing, in every family — with each family's
/// `Some`/`None` shape matched to how responsive shards report it in a degraded
/// gather, so [`merge_family`]'s uniformity invariant holds.  The annotation
/// family is always explicit there (see
/// [`ShardedExecutor::pin_unconstrained_families`]); `constraint_anns` is `Some`
/// exactly when the pipeline computes an ontology-only set (the
/// `MinRegionCount`-with-mixed-filters case); the referent family is `Some`
/// exactly when referent filters exist.
fn empty_contribution(canonical: &Query) -> ShardContribution {
    let needs_onto_only = !canonical.ontology.is_empty()
        && !canonical.content.is_empty()
        && canonical
            .constraints
            .iter()
            .any(|c| matches!(c, GraphConstraint::MinRegionCount { .. }));
    ShardContribution {
        ann: Some(Vec::new()),
        constraint_anns: needs_onto_only.then(Vec::new),
        refs: (!canonical.referents.is_empty()).then(Vec::new),
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
    use crate::resilience::QueryBudget;
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
        assert_eq!(exec.referent_shard_mask(&q.canonicalize()), mask);
        // Two different pinned objects on different shards: the mask empties and the
        // conjunction is (correctly) empty.
        let other = (0..8)
            .map(ObjectId)
            .find(|o| cut.object_referent_shards(*o) & mask == 0)
            .expect("some object on another shard");
        let q2 = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OnObject(obj))
            .with_referent(ReferentFilter::OnObject(other));
        assert_eq!(exec.referent_shard_mask(&q2.canonicalize()), 0);
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

        // An annotation commit on one shard evicts (every footprint reads the
        // annotation registries of the cut).
        late_annotation(&mut sharded);
        late_annotation(&mut oracle);
        service.publish(sharded.capture_cut()).unwrap();
        let after = service.run(phrase_query()).unwrap();
        assert_eq!(after.to_json(), ReferenceExecutor::new(&oracle).run(&phrase_query()).to_json());
        assert_eq!(after.annotations.len(), before.annotations.len() + 1);
        let m = service.metrics();
        assert_eq!(m.cache_entries_evicted, 1);
    }

    /// The degraded-result contract: with chaos keeping one shard down past its
    /// retry budget, an `allow_partial` run returns byte-identically what a
    /// no-chaos run with that shard masked out returns — the exact answer
    /// restricted to the responsive shards — and tags it.
    #[test]
    fn degraded_result_is_byte_identical_to_masked_reference() {
        let (_oracle, sharded) = parallel_build(4);
        let cut = sharded.capture_cut();
        let queries = [
            phrase_query(),
            Query::new(Target::ConnectionGraphs).with_phrase("protease"),
            Query::new(Target::Referents)
                .with_referent(ReferentFilter::OfType(DataType::DnaSequence)),
            Query::new(Target::AnnotationContents), // unconstrained family
        ];
        for down in [1usize, 3] {
            for q in &queries {
                let reference = ShardedExecutor::new(&cut)
                    .with_allow_partial(true)
                    .with_shard_mask(!(1 << down))
                    .try_run_canonical(&q.canonicalize())
                    .unwrap();
                assert_eq!(reference.missing_shards, vec![down]);
                let chaos = ChaosConfig::new().with_shard_outage(down, u64::MAX);
                let degraded = ShardedExecutor::new(&cut)
                    .with_allow_partial(true)
                    .with_retry(RetryPolicy::default().with_base_delay(Duration::from_micros(50)))
                    .with_chaos(chaos.clone())
                    .try_run_canonical(&q.canonicalize())
                    .unwrap();
                assert!(degraded.is_degraded());
                assert_eq!(degraded.to_json(), reference.to_json(), "shard {down}: {q:?}");
                assert_eq!(chaos.attempts_against(down), 3, "retry budget fully spent");
            }
        }
    }

    #[test]
    fn shard_outage_without_allow_partial_fails_fast() {
        let (_oracle, sharded) = parallel_build(3);
        let cut = sharded.capture_cut();
        let err = ShardedExecutor::new(&cut)
            .with_retry(RetryPolicy::default().with_base_delay(Duration::from_micros(50)))
            .with_chaos(ChaosConfig::new().with_shard_outage(2, u64::MAX))
            .try_run_canonical(&phrase_query().canonicalize())
            .unwrap_err();
        assert_eq!(err, ServiceError::ShardUnavailable { shard: 2, attempts: 3 });
    }

    /// A shard that is merely slow — not down — survives its stall (or a retry)
    /// and the result is complete and exact.
    #[test]
    fn slow_shard_recovers_within_retry_budget() {
        let (oracle, sharded) = parallel_build(3);
        let cut = sharded.capture_cut();
        let expected = ReferenceExecutor::new(&oracle).run(&phrase_query());
        // Slow on the first attempt only: the timeout preempts the stall, the
        // retry goes through cleanly.
        let chaos = ChaosConfig::new().with_slow_shard(1, Duration::from_millis(400), 1);
        let got = ShardedExecutor::new(&cut)
            .with_shard_timeout(Duration::from_millis(30))
            .with_retry(RetryPolicy::default().with_base_delay(Duration::from_micros(50)))
            .with_chaos(chaos.clone())
            .try_run_canonical(&phrase_query().canonicalize())
            .unwrap();
        assert_eq!(got.to_json(), expected.to_json());
        assert!(!got.is_degraded());
        assert_eq!(chaos.attempts_against(1), 2, "one stalled attempt, one clean retry");
    }

    #[test]
    fn degraded_results_are_never_cached() {
        let (_oracle, sharded) = parallel_build(3);
        let service = ShardedQueryService::new(
            sharded.capture_cut(),
            ShardedServiceConfig::default()
                .with_cache_capacity(8)
                .with_retry(RetryPolicy::default().with_base_delay(Duration::from_micros(50)))
                .with_chaos(ChaosConfig::new().with_shard_outage(1, 3)),
        );
        // Outage budget 3 = exactly one query's retry budget: the first run
        // degrades, the second reaches every shard.
        let partial = QueryBudget::unbounded().with_allow_partial(true);
        let first = service.run_with_budget(phrase_query(), partial).unwrap();
        assert_eq!(first.missing_shards, vec![1]);
        assert_eq!(service.cache_len(), 0, "degraded results must not be cached");
        let second = service.run_with_budget(phrase_query(), partial).unwrap();
        assert!(!second.is_degraded());
        assert_eq!(service.cache_len(), 1);
        let m = service.metrics();
        assert_eq!(m.degraded, 1);
        assert_eq!(m.completed, 2);
    }
}
