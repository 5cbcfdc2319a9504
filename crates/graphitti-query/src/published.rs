//! The serving spine of [`Service`](crate::Service): one published [`Version`] of the
//! system behind a lock, the result cache that tracks it, the attached WAL, and the
//! counters.
//!
//! The service serves a [`Snapshot`] or a [`ShardCut`] from the same worker pool.
//! Everything it does *around* an execution — publish (durable before visible, O(1)
//! under the write lock), probe and fill an LRU cache validated where it is read,
//! count every outcome — is written once here, generic over the version and monomorphised
//! per deployment.  The one serving step a version does its own way is executing a
//! canonical query (`Servable::execute`): plan and run on a snapshot, scatter-gather
//! over a cut.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use graphitti_core::{ComponentSet, EpochVector, ShardCut, Snapshot, Wal};

use crate::ast::{CacheKey, Query};
use crate::exec::Executor;
use crate::plan::Plan;
use crate::resilience::{CancelToken, ServiceError};
use crate::result::QueryResult;
use crate::service::{Evicted, ServiceMetrics};
use crate::sharded::ShardedExecutor;
use sealed::Servable;

/// A published, immutable version of the system that a [`Service`](crate::Service)
/// serves: a [`Snapshot`], or a [`ShardCut`] (one snapshot per shard).
///
/// Sealed: those two are its only implementations, and what the service needs of a
/// version is crate-private, so the trait names the choice without opening an
/// extension point.
pub trait Version: Servable {}

impl<V: Servable> Version for V {}

pub(crate) mod sealed {
    use super::*;

    /// What the cache, the publish path and the pool need of a [`Version`].
    pub trait Servable: Clone + Send + Sync + 'static {
        /// The tag a cache entry keeps of the version it was computed at — per shard,
        /// the lineage id and epoch vector — instead of pinning the whole version alive.
        type Birth: Send;

        /// The per-shard snapshots the version is made of.
        fn snapshots(&self) -> &[Snapshot];
        /// Whether the two are views of the same published state.
        fn same_state(&self, other: &Self) -> bool;
        /// This version's birth tag.
        fn birth(&self) -> Self::Birth;
        /// Whether this version observes, through every component of `footprint` on
        /// every shard, the state a result tagged `born` was computed at (same lineage
        /// and agreeing footprint epochs) — the cache-validity test.
        fn agrees_with(&self, born: &Self::Birth, footprint: ComponentSet) -> bool;
        /// The logical version number: a snapshot's epoch, a cut's version.
        fn number(&self) -> u64;

        /// Execute one canonical query against this version, observing `cancel` at
        /// every phase boundary, and return the result with the read footprint its
        /// cache entry is keyed on.
        fn execute(
            &self,
            canonical: &Query,
            cancel: &CancelToken,
        ) -> Result<(QueryResult, ComponentSet), ServiceError>;

        /// Whether the two come from the same system lineage(s), shard for shard — the
        /// precondition for any epoch comparison between them.
        fn same_lineage(&self, other: &Self) -> bool {
            let (ours, theirs) = (self.snapshots(), other.snapshots());
            ours.len() == theirs.len() && ours.iter().zip(theirs).all(|(a, b)| a.same_system(b))
        }
    }
}

impl Servable for Snapshot {
    type Birth = (u64, EpochVector);

    fn snapshots(&self) -> &[Snapshot] {
        std::slice::from_ref(self)
    }

    fn same_state(&self, other: &Snapshot) -> bool {
        self.same_epoch(other)
    }

    fn birth(&self) -> Self::Birth {
        (self.system_id(), self.component_epochs())
    }

    fn agrees_with(&self, &(system, epochs): &Self::Birth, footprint: ComponentSet) -> bool {
        self.system_id() == system && self.component_epochs().agrees_on(epochs, footprint)
    }

    fn number(&self) -> u64 {
        self.epoch()
    }

    /// Plan against this snapshot's live statistics and run the pipelined executor.
    fn execute(
        &self,
        canonical: &Query,
        cancel: &CancelToken,
    ) -> Result<(QueryResult, ComponentSet), ServiceError> {
        let plan = Plan::build(canonical, self);
        let result =
            Executor::new(self).with_cancel(cancel.clone()).try_run_plan(canonical, &plan)?;
        Ok((result, plan.footprint))
    }
}

impl Servable for ShardCut {
    type Birth = Vec<(u64, EpochVector)>;

    fn snapshots(&self) -> &[Snapshot] {
        self.shards()
    }

    fn same_state(&self, other: &ShardCut) -> bool {
        self.same_cut(other)
    }

    fn birth(&self) -> Self::Birth {
        self.version_vector()
    }

    fn agrees_with(&self, born: &Self::Birth, footprint: ComponentSet) -> bool {
        born.len() == self.shard_count()
            && self.shards().iter().zip(born).all(|(shard, b)| shard.agrees_with(b, footprint))
    }

    fn number(&self) -> u64 {
        self.version()
    }

    /// Scatter-gather over the cut.
    fn execute(
        &self,
        canonical: &Query,
        cancel: &CancelToken,
    ) -> Result<(QueryResult, ComponentSet), ServiceError> {
        let exec = ShardedExecutor::new(self).with_cancel(cancel.clone());
        Ok((exec.try_run_canonical(canonical)?, Plan::read_footprint(canonical)))
    }
}

/// A query in canonical form next to the [`CacheKey`] rendered from it (an explicit
/// stable format, not `Debug` output).  Built once per request and carried from the
/// cache probe to the execution — inside the `Job`, when the two happen on different
/// threads — so no request canonicalizes twice.
pub(crate) struct Canonical {
    /// What the executor plans and runs.
    pub(crate) query: Query,
    key: CacheKey,
}

impl Canonical {
    pub(crate) fn of(query: &Query) -> Canonical {
        let query = query.canonicalize();
        let key = CacheKey::of_canonical(&query);
        Canonical { query, key }
    }
}

/// What [`Published::probe`] found.
pub(crate) enum Probe<V> {
    /// A valid entry: the request is answered and fully counted.
    Hit(Arc<QueryResult>),
    /// No valid entry at the version the probe read; nothing is counted yet.  A caller
    /// that executes at once hands both to [`Published::execute_miss`] (no second
    /// lookup); one that hands the canonical form to another thread drops the version,
    /// and that thread's [`Published::cached_or_execute`] reads the one current then.
    Miss(Canonical, V),
}

/// Take a result out of its `Arc` for a by-value caller: free when the caller holds
/// the only reference, a deep copy when the cache (or another waiter) shares it.
pub(crate) fn unshare(result: Arc<QueryResult>) -> QueryResult {
    Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone())
}

/// The normalized-query LRU result cache.
///
/// Keys are canonical query renderings ([`CacheKey`]); every entry additionally
/// carries its plan's **read footprint** ([`Plan::read_footprint`](crate::Plan)) and
/// the birth tag of the version it was **computed at**, while the cache as a whole
/// tracks the published version.  Entry validity is *per footprint, against the
/// entry's own birth tag*: a lookup carrying version `v` hits an entry iff `v` and
/// the entry's birth version observe identical query-visible state through every
/// component of the entry's footprint, on every shard (same system lineage and
/// agreeing per-component epochs).  Storing the birth tag per entry — rather than
/// validating everything against the cache's current version — is what lets a
/// **long-lived reader** still on an older version keep getting cache service: an
/// entry computed just before (or an insert landing just after) a publish stays
/// servable to readers on the pre-publish version, even when the publish moved the
/// entry's footprint.  Lineage is part of every comparison because a rebuilt
/// system's epochs restart low (a whole
/// [`StudySnapshot`](graphitti_core::StudySnapshot) replay is one batch, so one
/// bump): a worker still in flight on the old system holds a *numerically higher*
/// epoch than the freshly published one, and comparing numbers alone would let it
/// later serve a stale result once the numbers collide.  A stale get or insert under
/// these rules is either provably byte-identical (footprint untouched — serving it
/// is correct, not a race won) or a harmless miss / rejected write.
///
/// Because every lookup validates, a publish examines no entry: an entry the publish
/// made stale stays in its slot, unservable to readers on the new state, until an
/// insert displaces it — a fresh answer for the same key, or the LRU pop at capacity
/// — and that insert hands its answer back, through [`Published::execute_miss`], for
/// the request that inserted to free once its own response has been delivered (a
/// served miss frees no answer on its own path).  Old-lineage entries are never served and are gone within `capacity`
/// inserts; the cache never holds more than `capacity` entries.
///
/// [`install`](ResultCache::install) is the only way the tracked version moves, and
/// it runs inside [`Published::publish`] *while the version write lock is still held*
/// — no reader can observe a published version the cache has not been moved to, so
/// the insert guard below always judges against the published state.
///
/// Recency lives in a tick-keyed [`BTreeMap`] (tick → key) mirroring the entries:
/// every touch re-keys the entry's tick, and at-capacity eviction pops the smallest
/// tick — `O(log n)` under the cache mutex, not a scan.
pub(crate) struct ResultCache<V: Version> {
    capacity: usize,
    /// The published version, which the insert guard and the eviction count judge
    /// entries against (tracked even when caching is disabled, so a superseded
    /// version is never pinned alive here).
    published: V,
    tick: u64,
    /// Invalidation accounting (see the `cache_*` fields of [`ServiceMetrics`]).
    partial_invalidations: u64,
    full_invalidations: u64,
    entries_evicted: u64,
    map: HashMap<CacheKey, CacheEntry<V>>,
    /// Recency order: tick of last use → key.  Invariant: one entry here per `map`
    /// entry, keyed by that entry's `last_used` (ticks are unique — every touch takes
    /// a fresh one).
    lru: BTreeMap<u64, CacheKey>,
}

struct CacheEntry<V: Version> {
    /// Shared with every caller the entry has served, so a hit is an `Arc` bump under
    /// the lock, never a deep copy of the result pages.
    result: Arc<QueryResult>,
    /// The components the result depends on.
    footprint: ComponentSet,
    /// The version it was computed at.  Validity is agreement between *this* tag and
    /// the reader's version on the entry's footprint, not with whatever the cache's
    /// current version happens to be.
    born: V::Birth,
    last_used: u64,
}

impl<V: Version> ResultCache<V> {
    fn new(capacity: usize, published: V) -> Self {
        ResultCache {
            capacity,
            published,
            tick: 0,
            partial_invalidations: 0,
            full_invalidations: 0,
            entries_evicted: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
        }
    }

    /// Move the cache onto `published` and hand back the version it tracked until now,
    /// for the caller to drop once its locks are released — `None`, and nothing
    /// counted, when the cache already serves this state (republishing an identical
    /// version is not an invalidation).
    ///
    /// O(1): no entry is examined, moved or freed.  An entry whose birth tag no longer
    /// agrees with `published` on its footprint — for entries born at the previous
    /// version, one whose footprint meets the components dirtied since — simply stops
    /// hitting for readers on the new state ([`get`](Self::get) validates), and is
    /// freed by the insert that displaces it.  A publish of another lineage (a rebuilt
    /// or replaced system, whose epoch vectors are incomparable) counts as a full
    /// invalidation, any other changed state as a partial one; a cache-disabled
    /// service counts neither.
    ///
    /// **Contract:** `published` must be the *currently published* version, and the
    /// version write lock must be held across this call (as [`Published::publish`]
    /// does).  That is what makes this authoritative: a stale caller cannot exist, so
    /// any difference — forward publish, rebuilt system at a same-or-lower epoch — is
    /// a genuine state change and unconditionally wins.  Deciding from a reader's
    /// *execution* version instead (e.g. advancing on whichever epoch number is
    /// larger) would let a worker still in flight on a pre-rebuild system hijack the
    /// cache onto a superseded view.
    fn install(&mut self, published: &V) -> Option<V> {
        if published.same_state(&self.published) {
            return None;
        }
        if self.capacity > 0 {
            if published.same_lineage(&self.published) {
                self.partial_invalidations += 1;
            } else {
                self.full_invalidations += 1;
            }
        }
        Some(std::mem::replace(&mut self.published, published.clone()))
    }

    /// Whether the published version can serve `entry`.
    fn serves_published(&self, entry: &CacheEntry<V>) -> bool {
        self.published.agrees_with(&entry.born, entry.footprint)
    }

    /// Look up a canonical key for a query executing against `reader`, refreshing the
    /// entry's recency on a hit.  Validity is agreement between `reader` and the
    /// **entry's own** birth tag on the entry's footprint — so a long-lived reader
    /// still on an older version keeps hitting entries computed there, even ones the
    /// published state has since moved past (until an insert displaces them).  A
    /// lookup never moves the cache (only [`install`](Self::install) does).
    fn get(&mut self, key: &CacheKey, reader: &V) -> Option<Arc<QueryResult>> {
        if self.capacity == 0 {
            return None;
        }
        let entry = self.map.get_mut(key)?;
        if !reader.agrees_with(&entry.born, entry.footprint) {
            return None;
        }
        self.tick += 1;
        self.lru.remove(&entry.last_used);
        entry.last_used = self.tick;
        self.lru.insert(self.tick, key.clone());
        Some(Arc::clone(&entry.result))
    }

    /// Insert a result computed against `reader` for a plan reading `footprint`,
    /// tagged with `reader`'s birth tag.  Same-lineage inserts are accepted even when
    /// a footprint-intersecting publish has since moved the state — the entry keeps
    /// serving readers still on the older version — with one guard: an entry the
    /// *published* version can serve is never displaced by one it cannot.
    /// Cross-lineage inserts (a worker still in flight on a replaced system) are
    /// rejected outright; the cache serves the published lineage only.  Evicts the
    /// least-recently-used entry when full (`O(log n)`: pop the smallest recency
    /// tick).
    ///
    /// Returns the entry the insert displaced — the previous answer for `key`, or the
    /// LRU entry — for the caller to free after releasing the cache mutex; one that
    /// had stopped serving the published version counts as evicted.
    fn insert(
        &mut self,
        key: CacheKey,
        reader: &V,
        footprint: ComponentSet,
        result: Arc<QueryResult>,
    ) -> Option<CacheEntry<V>> {
        if self.capacity == 0 || !reader.same_lineage(&self.published) {
            return None;
        }
        let born = reader.birth();
        let mut displaced = None;
        if let Some(prev) = self.map.get(&key) {
            if self.serves_published(prev) && !self.published.agrees_with(&born, footprint) {
                return None;
            }
            self.lru.remove(&prev.last_used);
        } else if self.map.len() >= self.capacity {
            displaced = self.lru.pop_first().and_then(|(_, lru_key)| self.map.remove(&lru_key));
        }
        self.tick += 1;
        self.lru.insert(self.tick, key.clone());
        let entry = CacheEntry { result, footprint, born, last_used: self.tick };
        let displaced = self.map.insert(key, entry).or(displaced);
        if displaced.as_ref().is_some_and(|e| !self.serves_published(e)) {
            self.entries_evicted += 1;
        }
        displaced
    }

    fn len(&self) -> usize {
        debug_assert_eq!(self.map.len(), self.lru.len(), "map/recency desync");
        self.map.len()
    }
}

/// Every counter behind [`ServiceMetrics`] (all monotonic).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) executed_inline: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    cancelled: AtomicU64,
    worker_panics: AtomicU64,
    pub(crate) workers_respawned: AtomicU64,
    wal_flush_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    publishes: AtomicU64,
}

impl Counters {
    /// Count one post-admission failure in the metric breakdown.
    pub(crate) fn note_failure(&self, err: &ServiceError) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        match err {
            ServiceError::DeadlineExceeded => {
                self.deadline_misses.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::Cancelled => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            ServiceError::WorkerPanicked => {
                self.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One published [`Version`] with everything that must stay in step with it.
///
/// The locks recover from poisoning instead of panicking: every guarded section
/// moves its structure in exception-safe steps (cache map + LRU updates, whole-value
/// version / WAL swaps), so after a panic on a thread that held one — which chaos
/// injection makes a first-class event — the state is still coherent, and the
/// surviving threads keep serving rather than cascading the panic through every
/// later lock acquisition.
pub(crate) struct Published<V: Version> {
    current: RwLock<V>,
    cache: Mutex<ResultCache<V>>,
    wal: RwLock<Option<Wal>>,
    pub(crate) counters: Counters,
}

impl<V: Version> Published<V> {
    pub(crate) fn new(initial: V, cache_capacity: usize) -> Self {
        Published {
            cache: Mutex::new(ResultCache::new(cache_capacity, initial.clone())),
            current: RwLock::new(initial),
            wal: RwLock::new(None),
            counters: Counters::default(),
        }
    }

    fn cache_guard(&self) -> MutexGuard<'_, ResultCache<V>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A clone of the currently published version (`Arc` bumps under a read lock).
    pub(crate) fn current(&self) -> V {
        self.current.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The body of the service's `publish` (its docs state the contract): flush the
    /// WAL, swap the version under its write lock, move the cache onto it before
    /// releasing it, and drop the superseded version only once both locks are free.
    pub(crate) fn publish(&self, next: V) -> Result<(), ServiceError> {
        // Durable before visible: every record appended so far (the batches this
        // version is made of) reaches stable storage before any reader can observe
        // the new state.  Under `DurabilityMode::Sync` the flush is a cheap no-op
        // barrier; under `Async` it is the deferred fsync.
        if let Some(wal) = self.wal.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
            if let Err(err) = wal.flush() {
                self.counters.wal_flush_failures.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::WalFlush(err.to_string()));
            }
        }
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        // The one runtime check of the contract this cache rests on, from the
        // consumer's side of the crate boundary (`graphitti-core` keeps it by
        // construction: a component is only writable through a call that stamps
        // it): within one lineage, any component whose storage was replaced since
        // the outgoing version must have moved its epoch — on every shard —
        // otherwise the footprint-keyed cache would keep entries this publish
        // invalidated.
        #[cfg(debug_assertions)]
        for (old, new) in current.snapshots().iter().zip(next.snapshots()) {
            if old.same_system(new) {
                let moved = new.changed_components(old);
                for c in graphitti_core::Component::ALL {
                    debug_assert!(
                        new.view().shares_component(old.view(), c) || moved.contains(c),
                        "publish: {c:?} storage was replaced but its epoch never moved"
                    );
                }
            }
        }
        let superseded = std::mem::replace(&mut *current, next);
        // Documented order: version before cache — publish is the only place both
        // guards are held, and readers take them one at a time, so no inversion.
        // lint: allow(lock-discipline) -- fixed current-then-cache order, single nesting site
        let untracked = self.cache_guard().install(&current);
        drop(current);
        // Whatever only the old version kept alive is freed here, under no lock.
        drop((superseded, untracked));
        self.counters.publishes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attach a write-ahead log: [`publish`](Self::publish) will flush it before a
    /// new version becomes visible, and [`metrics`](Self::metrics) reports its
    /// durability counters.
    pub(crate) fn attach_wal(&self, wal: Wal) {
        *self.wal.write().unwrap_or_else(PoisonError::into_inner) = Some(wal);
    }

    /// Answer `query` from the cache **without executing anything** — the first step
    /// of every `resolve`.  The budget's deadline is checked first, as an execution
    /// would check it: an expired budget fails typed and is counted (`submitted` + the
    /// failure breakdown), never served.  A hit is a whole request — `submitted`,
    /// `cache_hits`, `completed`; a miss counts nothing and hands back the canonical
    /// form with the version the lookup read.
    pub(crate) fn probe(
        &self,
        query: &Query,
        cancel: &CancelToken,
    ) -> Result<Probe<V>, ServiceError> {
        if let Err(interrupt) = cancel.check() {
            let err = ServiceError::from(interrupt);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.note_failure(&err);
            return Err(err);
        }
        let canonical = Canonical::of(query);
        let version = self.current();
        let Some(hit) = self.cache_guard().get(&canonical.key, &version) else {
            return Ok(Probe::Miss(canonical, version));
        };
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        Ok(Probe::Hit(hit))
    }

    /// Answer one canonical query from the cache — counting the hit — or
    /// [`execute_miss`](Self::execute_miss) it against the current version.
    pub(crate) fn cached_or_execute(
        &self,
        canonical: Canonical,
        execute: impl FnOnce(&Query, &V) -> Result<(QueryResult, ComponentSet), ServiceError>,
    ) -> Result<(Arc<QueryResult>, Evicted), ServiceError> {
        let version = self.current();
        if let Some(hit) = self.cache_guard().get(&canonical.key, &version) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hit, Evicted::default()));
        }
        self.execute_miss(canonical, &version, execute)
    }

    /// Count the miss, run `execute` against `version` — the one the failed lookup
    /// read — and offer the answer to the cache; `execute` returns the result with the
    /// read footprint the inserted entry's validity is keyed on.
    ///
    /// The insert lands unless it would displace an answer the published state can
    /// serve with one it cannot — publish moves the cache under the version write
    /// lock, so that guard judges against what every new reader observes; an
    /// execution that straddled a publish lands anyway when its plan's footprint was
    /// untouched.  The answer of the entry the insert displaces comes back beside the
    /// result, for the caller to free once it has delivered the result.
    pub(crate) fn execute_miss(
        &self,
        canonical: Canonical,
        version: &V,
        execute: impl FnOnce(&Query, &V) -> Result<(QueryResult, ComponentSet), ServiceError>,
    ) -> Result<(Arc<QueryResult>, Evicted), ServiceError> {
        let Canonical { query, key } = canonical;
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let (result, footprint) = execute(&query, version)?;
        let result = Arc::new(result);
        let displaced = self.cache_guard().insert(key, version, footprint, Arc::clone(&result));
        Ok((result, Evicted { _answer: displaced.map(|entry| entry.result) }))
    }

    /// Number of live entries in the result cache.
    pub(crate) fn cache_len(&self) -> usize {
        self.cache_guard().len()
    }

    /// A snapshot of the counters.
    pub(crate) fn metrics(&self) -> ServiceMetrics {
        let (partial, full, evicted) = {
            let cache = self.cache_guard();
            (cache.partial_invalidations, cache.full_invalidations, cache.entries_evicted)
        };
        let wal_stats = self
            .wal
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|wal| wal.stats())
            .unwrap_or_default();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let c = &self.counters;
        ServiceMetrics {
            submitted: load(&c.submitted),
            completed: load(&c.completed),
            shed: load(&c.shed),
            executed_inline: load(&c.executed_inline),
            failed: load(&c.failed),
            deadline_misses: load(&c.deadline_misses),
            cancelled: load(&c.cancelled),
            worker_panics: load(&c.worker_panics),
            workers_respawned: load(&c.workers_respawned),
            wal_flush_failures: load(&c.wal_flush_failures),
            cache_hits: load(&c.cache_hits),
            cache_misses: load(&c.cache_misses),
            publishes: load(&c.publishes),
            cache_invalidations: partial + full,
            cache_partial_invalidations: partial,
            cache_full_invalidations: full,
            cache_entries_evicted: evicted,
            wal_records_appended: wal_stats.records_appended,
            wal_fsyncs: wal_stats.fsyncs,
            recovery_replays: wal_stats.recovery_replays,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Target;
    use graphitti_core::{Component, DataType, Graphitti, ShardedSystem, WriteSystem};

    /// Grow a fresh system by `steps` object registrations, capturing a version after
    /// each (so `versions[e]` saw `e` of them).  A registration is replicated, so it
    /// moves the same epochs — the registration path's — on every shard.
    fn versions<S: WriteSystem, V>(mut system: S, capture: fn(&S) -> V, steps: usize) -> Vec<V> {
        let mut versions = vec![capture(&system)];
        for n in 0..steps {
            system.register_sequence(format!("s{n}"), DataType::DnaSequence, 100, "chr1");
            versions.push(capture(&system));
        }
        versions
    }

    // Every cache and publish test below is one body (`…_on`) run over both kinds of
    // version a service publishes: a snapshot, and a 3-shard cut.

    fn snapshots(steps: usize) -> Vec<Snapshot> {
        versions(Graphitti::new(), Graphitti::snapshot, steps)
    }

    fn cuts(steps: usize) -> Vec<ShardCut> {
        versions(ShardedSystem::new(3), ShardedSystem::capture_cut, steps)
    }

    /// A distinct cache key per phrase (the cache tests need keys only).
    fn test_query(phrase: &str) -> Query {
        Query::new(Target::AnnotationContents).with_phrase(phrase)
    }

    fn test_key(phrase: &str) -> CacheKey {
        test_query(phrase).cache_key()
    }

    /// The footprint of a content (phrase/keyword) query.
    fn content_fp() -> ComponentSet {
        ComponentSet::of([Component::Annotations, Component::Referents, Component::Content])
    }

    /// A footprint that an object registration's dirty set intersects (an `OfType`
    /// referent filter reads the object registry).
    fn object_fp() -> ComponentSet {
        ComponentSet::of([Component::Annotations, Component::Referents, Component::Objects])
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        lru_evicts_least_recently_used_entry_on(snapshots);
        lru_evicts_least_recently_used_entry_on(cuts);
    }

    fn lru_evicts_least_recently_used_entry_on<V: Version>(versions: fn(usize) -> Vec<V>) {
        let v = &versions(0)[0];
        let mut cache = ResultCache::new(2, v.clone());
        let (a, b, c) = (test_key("a"), test_key("b"), test_key("c"));
        cache.insert(a.clone(), v, content_fp(), Arc::default());
        cache.insert(b.clone(), v, content_fp(), Arc::default());
        assert!(cache.get(&a, v).is_some()); // refresh a; b is now LRU
        let popped = cache.insert(c.clone(), v, content_fp(), Arc::default());
        assert!(popped.is_some(), "the LRU entry is handed back to be freed");
        assert_eq!(cache.entries_evicted, 0, "a still-servable entry is not counted evicted");
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&b, v).is_none());
        assert!(cache.get(&a, v).is_some());
        assert!(cache.get(&c, v).is_some());
        // re-inserting an existing key is an update, not a capacity eviction
        cache.insert(a.clone(), v, content_fp(), Arc::default());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&c, v).is_some());
    }

    #[test]
    fn install_moves_no_entry_and_lookups_serve_exactly_the_valid_ones() {
        install_moves_no_entry_and_lookups_serve_exactly_the_valid_ones_on(snapshots);
        install_moves_no_entry_and_lookups_serve_exactly_the_valid_ones_on(cuts);
    }

    fn install_moves_no_entry_and_lookups_serve_exactly_the_valid_ones_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        // The versions differ by object *registrations*, whose dirty set (a-graph,
        // objects, node maps, indexes) intersects an object-reading footprint but not
        // a content-reading one.
        let v = versions(2);
        let mut cache = ResultCache::new(4, v[0].clone());
        let (content_key, object_key) = (test_key("content"), test_key("object"));
        cache.insert(content_key.clone(), &v[0], content_fp(), Arc::default());
        cache.insert(object_key.clone(), &v[0], object_fp(), Arc::default());
        assert_eq!(cache.partial_invalidations + cache.full_invalidations, 0);

        assert!(cache.install(&v[2]).is_some(), "the superseded version is handed back");
        // the publish moved nothing: both entries keep their slots ...
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entries_evicted, 0);
        assert_eq!(cache.partial_invalidations, 1);
        assert_eq!(cache.full_invalidations, 0);
        // ... and a lookup at the published state hits only the content one
        assert!(cache.get(&object_key, &v[2]).is_none());
        assert!(cache.get(&content_key, &v[2]).is_some());
        // re-installing an identical version is a no-op
        assert!(cache.install(&v[2]).is_none());
        assert_eq!(cache.partial_invalidations, 1);
        // a fresh answer displaces the stale entry, which now counts as evicted
        assert!(cache.insert(object_key.clone(), &v[2], object_fp(), Arc::default()).is_some());
        assert_eq!((cache.len(), cache.entries_evicted), (2, 1));
        assert!(cache.get(&object_key, &v[2]).is_some());

        // A *stale* reader still in flight on v[1] agrees with the cache on the
        // content footprint (registrations never moved it), so it legitimately hits —
        // and its insert of a content-footprint result is accepted, because the
        // answer is provably identical at the published state.
        assert!(cache.get(&content_key, &v[1]).is_some());
        cache.insert(test_key("late content"), &v[1], content_fp(), Arc::default());
        assert!(cache.get(&test_key("late content"), &v[2]).is_some());
        // ...while the same stale reader's *object*-footprint traffic is refused
        assert!(cache.get(&object_key, &v[1]).is_none());
        cache.insert(test_key("late object"), &v[1], object_fp(), Arc::default());
        assert!(cache.get(&test_key("late object"), &v[2]).is_none());
    }

    #[test]
    fn entry_born_before_disjoint_publish_serves_stale_and_fresh_readers() {
        entry_born_before_disjoint_publish_serves_stale_and_fresh_readers_on(snapshots);
        entry_born_before_disjoint_publish_serves_stale_and_fresh_readers_on(cuts);
    }

    fn entry_born_before_disjoint_publish_serves_stale_and_fresh_readers_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        // The per-entry birth tag: an entry computed just before a footprint-disjoint
        // publish is served both to a long-lived reader still on the old version and
        // to readers on the new one — its *birth* tag agrees with both on the content
        // footprint.
        let v = versions(2);
        let mut cache = ResultCache::new(4, v[0].clone());
        let key = test_key("q");
        cache.insert(key.clone(), &v[0], content_fp(), Arc::default());
        cache.install(&v[1]); // register-only publish: disjoint from content_fp
        assert_eq!(cache.len(), 1, "disjoint publish must not evict");
        assert!(cache.get(&key, &v[0]).is_some(), "stale reader must be served");
        assert!(cache.get(&key, &v[1]).is_some(), "fresh reader must be served");
    }

    #[test]
    fn stale_insert_after_intersecting_publish_serves_old_snapshot_readers() {
        stale_insert_after_intersecting_publish_serves_old_version_readers_on(snapshots);
        stale_insert_after_intersecting_publish_serves_old_version_readers_on(cuts);
    }

    fn stale_insert_after_intersecting_publish_serves_old_version_readers_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        // The stronger consequence of per-entry tags: a worker that computed at v0
        // with an *object* footprint lands its insert even after a publish that
        // moved that footprint — tagged with its birth version, so readers still on
        // v0 hit it, readers on the published state miss it, and the first fresh
        // answer for its key displaces it.
        let v = versions(3);
        let mut cache = ResultCache::new(4, v[0].clone());
        cache.install(&v[2]); // registrations moved the object footprint past v0
        let key = test_key("late");
        cache.insert(key.clone(), &v[0], object_fp(), Arc::default());
        assert_eq!(cache.len(), 1, "same-lineage stale insert must land");
        assert!(cache.get(&key, &v[0]).is_some(), "old-version reader hits");
        assert!(cache.get(&key, &v[2]).is_none(), "published-state reader misses");

        // A fresh result for the same key must not be displaced by stale traffic.
        cache.insert(key.clone(), &v[2], object_fp(), Arc::default());
        assert!(cache.get(&key, &v[2]).is_some());
        cache.insert(key.clone(), &v[0], object_fp(), Arc::default());
        assert!(
            cache.get(&key, &v[2]).is_some(),
            "a published-servable entry must never be displaced by a stale one"
        );

        // The next changed publish leaves a stale entry in place — still exact for
        // readers on its birth version — until a fresh answer displaces it.
        let stale = test_key("stale2");
        cache.insert(stale.clone(), &v[0], object_fp(), Arc::default());
        cache.install(&v[3]);
        assert!(cache.get(&stale, &v[0]).is_some(), "its birth-version reader still hits");
        assert!(cache.get(&stale, &v[3]).is_none(), "the published-state reader misses");
        let evicted = cache.entries_evicted;
        assert!(cache.insert(stale.clone(), &v[3], object_fp(), Arc::default()).is_some());
        assert_eq!(cache.entries_evicted, evicted + 1);
        assert!(cache.get(&stale, &v[0]).is_none(), "displaced by the fresh answer");
    }

    #[test]
    fn stale_high_epoch_worker_cannot_hijack_cache_across_a_rebuild_publish() {
        stale_high_epoch_worker_cannot_hijack_cache_across_a_rebuild_publish_on(snapshots);
        stale_high_epoch_worker_cannot_hijack_cache_across_a_rebuild_publish_on(cuts);
    }

    fn stale_high_epoch_worker_cannot_hijack_cache_across_a_rebuild_publish_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        // System A is at a high epoch and the cache serves one of its results.  An
        // operator then publishes a rebuilt system B whose epochs restart low (a
        // whole StudySnapshot replay is one batch, so one bump).  A worker still in
        // flight on A holds a *numerically higher* epoch than anything B will reach
        // for a while; its insert may not move the cache, and no reader on B may be
        // served A's result — in particular not when B's epoch later collides with
        // A's number.
        let a = versions(10);
        let a10 = &a[10];
        let mut cache = ResultCache::new(4, a10.clone());
        let q = test_key("q");
        cache.insert(q.clone(), a10, content_fp(), Arc::default());
        assert!(cache.get(&q, a10).is_some());

        // The rebuild publish installs B at epoch 2 — another lineage, a full
        // invalidation (epoch vectors are incomparable).
        let b = versions(10);
        cache.install(&b[2]);
        assert_eq!(cache.full_invalidations, 1);

        // The stale worker finishes: its insert is rejected — the cache stays on B
        // throughout — and no B reader hits A's entry (despite A's numerically higher
        // epoch, and despite A's register-only history never touching the content
        // footprint: lineage gates every epoch comparison).
        assert!(cache.insert(q.clone(), a10, content_fp(), Arc::default()).is_none());
        assert_eq!(cache.len(), 1);
        for (epoch, version) in b.iter().enumerate() {
            assert!(cache.get(&q, version).is_none(), "B's epoch {epoch} must never see A's entry");
        }

        // ... and B's current version is served normally: its answer displaces A's.
        assert!(cache.insert(q.clone(), &b[2], content_fp(), Arc::default()).is_some());
        assert_eq!((cache.len(), cache.entries_evicted), (1, 1));
        assert!(cache.get(&q, &b[2]).is_some());
    }

    /// A publish of a rebuilt system frees no cached result; `capacity` fresh
    /// inserts then leave none of the old lineage alive.
    #[test]
    fn old_lineage_entries_are_freed_within_capacity_inserts() {
        old_lineage_entries_are_freed_within_capacity_inserts_on(snapshots);
        old_lineage_entries_are_freed_within_capacity_inserts_on(cuts);
    }

    fn old_lineage_entries_are_freed_within_capacity_inserts_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        const CAPACITY: usize = 4;
        let (a, b) = (versions(3).remove(3), versions(3).remove(3));
        let published = Published::new(a, CAPACITY);
        let run = |phrase: String| {
            published
                .cached_or_execute(Canonical::of(&test_query(&phrase)), |_, _| {
                    Ok((QueryResult::default(), content_fp()))
                })
                .expect("the stub execution succeeds")
                .0
        };
        let old: Vec<_> = (0..CAPACITY).map(|i| Arc::downgrade(&run(format!("a{i}")))).collect();
        published.publish(b).expect("no WAL attached");
        assert!(old.iter().all(|r| r.strong_count() == 1), "a publish frees no cached result");
        for i in 0..CAPACITY {
            run(format!("b{i}"));
        }
        assert!(old.iter().all(|r| r.strong_count() == 0), "an old-lineage result outlived");
        assert!(published.cache_len() <= CAPACITY);
        let m = published.metrics();
        assert_eq!((m.cache_full_invalidations, m.cache_entries_evicted), (1, CAPACITY as u64));
    }

    #[test]
    fn publishing_a_different_system_at_equal_epoch_never_serves_the_old_entry() {
        publishing_a_different_system_at_equal_epoch_never_serves_the_old_entry_on(snapshots);
        publishing_a_different_system_at_equal_epoch_never_serves_the_old_entry_on(cuts);
    }

    fn publishing_a_different_system_at_equal_epoch_never_serves_the_old_entry_on<V: Version>(
        versions: fn(usize) -> Vec<V>,
    ) {
        // Two distinct systems with identical epochs: an entry of the first must not
        // be served after the second is published — the next run of the same query
        // executes again, against the second system.
        let (a, b) = (versions(6).remove(6), versions(6).remove(6));
        let published = Published::new(a.clone(), 8);
        let run_on = |expected: &V| {
            let mut executed = false;
            published
                .cached_or_execute(Canonical::of(&test_query("q")), |_, version| {
                    executed = true;
                    assert!(version.same_state(expected), "must execute on the published version");
                    Ok((QueryResult::default(), content_fp()))
                })
                .expect("the stub execution succeeds");
            executed
        };
        assert!(run_on(&a), "first run is a miss");
        assert!(!run_on(&a), "second run hits");
        published.publish(b.clone()).expect("no WAL attached");
        assert!(run_on(&b), "an equal-epoch entry of another lineage must not be served");
        let m = published.metrics();
        assert_eq!((m.cache_hits, m.cache_misses, m.cache_full_invalidations), (1, 2, 1));
    }
}
