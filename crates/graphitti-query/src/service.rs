//! [`QueryService`] — the concurrent query-serving layer.
//!
//! The service owns a `std::thread` worker pool and serves queries against one
//! *published* [`Snapshot`] of the system:
//!
//! * **Independent queries run in parallel.**  [`QueryService::submit`] enqueues a
//!   query and returns a [`Ticket`] immediately; pool workers drain the queue, each
//!   executing against a clone of the current snapshot (an `Arc` bump), so a slow
//!   query never blocks an unrelated fast one and no query ever blocks a writer.
//!   One query is one thread of control: a worker runs it start to finish, and
//!   nothing inside the executor spawns.
//! * **A normalized-query result cache sits in front.**  Results are cached under the
//!   query's canonical form ([`Query::cache_key`]), so semantically equal queries —
//!   different conjunct order, keyword case or duplicate conjuncts — share one entry.
//!   Each entry carries its plan's **read footprint** ([`Plan::read_footprint`]: the
//!   [`graphitti_core::Component`]s the answer depends on) and stays valid across any
//!   publish whose dirty set is disjoint from that footprint — a publish evicts only
//!   the entries it can actually have changed, per the snapshots' per-component
//!   epoch vectors ([`Snapshot::component_epochs`]).  The cache is LRU-evicted at a
//!   fixed capacity (an ordered recency structure, so at-capacity eviction is
//!   `O(log n)`, not a scan).
//!
//! Writers keep mutating their [`graphitti_core::Graphitti`] as usual and make new
//! state visible to the service explicitly via [`QueryService::publish`]; until then,
//! every in-flight and future query observes the previously published epoch —
//! snapshot isolation, not read-your-writes.
//!
//! **Sustained write streams** pair the service with the core's batched write API:
//! the writer stages a burst of registers / annotates through
//! [`Graphitti::batch`](graphitti_core::Graphitti::batch) (one epoch bump per batch,
//! one accumulated dirty set), then publishes the post-batch snapshot once.  The
//! whole batch costs **one** cache invalidation (observable via
//! [`ServiceMetrics::cache_invalidations`]) instead of one per call — and that one
//! invalidation is *partial*: a pure-ingest batch (registers only) dirties no
//! component any query footprint reads, so every cached entry survives it, which is
//! what keeps the hit rate up under the paper's steady curator-write trickle
//! (measured by the benchmark's `curate_rw` workload: `service.cache_hit_rate`,
//! `service.entries_evicted_per_publish`).  Because the view is a tree of
//! per-component `Arc`s, the writer's first post-publish commit also copies only the
//! components it touches (`core.apply_shared_us`) — readers keep structurally sharing
//! the rest.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use graphitti_core::{ComponentSet, EpochVector, Snapshot, Wal};

use crate::ast::{CacheKey, Query};
use crate::exec::Executor;
use crate::plan::Plan;
use crate::resilience::{cooperative_sleep, SleepInterrupt};
use crate::resilience::{CancelToken, ChaosConfig, ChaosExec, QueryBudget, ServiceError};
use crate::result::QueryResult;

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool size: number of worker threads draining the submission queue.
    pub workers: usize,
    /// Result-cache capacity in entries; `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Admission-control bound on the submission queue: a submit finding this many
    /// jobs already queued is shed with [`ServiceError::Overloaded`] instead of
    /// enqueued.  `usize::MAX` (the default) disables shedding.
    pub queue_capacity: usize,
    /// Read-path fault injection for tests and benches (`None` in production).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        ServiceConfig {
            workers: cores,
            cache_capacity: 256,
            queue_capacity: usize::MAX,
            chaos: None,
        }
    }
}

impl ServiceConfig {
    /// Builder: set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: set the result-cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Builder: bound the submission queue — a submit finding `capacity` jobs
    /// already queued is shed with [`ServiceError::Overloaded`] (admission
    /// control, so overload degrades into fast typed rejections instead of an
    /// unboundedly growing queue).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder: inject read-path chaos faults (tests and benches only).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Counters describing what the service has done so far (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Queries submitted (via [`QueryService::submit`] / [`QueryService::run`] /
    /// [`QueryService::run_now`]).
    pub submitted: u64,
    /// Queries completed (result delivered).
    pub completed: u64,
    /// Queries shed at admission ([`ServiceError::Overloaded`]).  Invariant once
    /// the queue is drained: `shed + completed + failed == submitted`.
    pub shed: u64,
    /// Queries that ended in a typed error after admission (deadline, cancellation,
    /// worker panic, shard unavailability).
    pub failed: u64,
    /// Failed queries whose budget deadline expired (at dequeue or mid-execution).
    pub deadline_misses: u64,
    /// Failed queries cancelled via their ticket / token.
    pub cancelled: u64,
    /// Worker panics observed while executing queries (each fails that query with
    /// [`ServiceError::WorkerPanicked`]; the pool never shrinks).
    pub worker_panics: u64,
    /// Worker threads respawned after dying to a panic that escaped the job catch
    /// — the pool-size invariant in action.
    pub workers_respawned: u64,
    /// Degraded (shard-subset) results served; always `0` for the unsharded
    /// service.
    pub degraded: u64,
    /// Publish-time WAL flushes that failed (each also failed its publish with
    /// [`ServiceError::WalFlush`] *without* installing the snapshot, preserving
    /// durable-before-visible).
    pub wal_flush_failures: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries executed because the cache had no valid entry.
    pub cache_misses: u64,
    /// Snapshot publishes observed.
    pub publishes: u64,
    /// Publishes of a genuinely changed state that the cache had to react to, however
    /// cheaply (always `cache_partial_invalidations + cache_full_invalidations`).  A
    /// `CommitBatch` of any size followed by one publish costs exactly one
    /// invalidation; a cache-disabled service (capacity 0) counts none.
    pub cache_invalidations: u64,
    /// Changed-state publishes that did **not** empty a previously non-empty cache:
    /// footprint-scoped eviction where the batch's dirty set missed some entries
    /// (including the ideal case of an ingest-only batch evicting nothing), or any
    /// install that found the cache empty to begin with.
    pub cache_partial_invalidations: u64,
    /// Changed-state publishes that emptied a previously **non-empty** cache: a
    /// wholesale clear (different system lineage), or a dirty set intersecting every
    /// entry's footprint (e.g. an annotation batch — every footprint reads the
    /// annotation registry).
    pub cache_full_invalidations: u64,
    /// Entries dropped by publish-time invalidation (not by LRU capacity eviction).
    pub cache_entries_evicted: u64,
    /// WAL records appended by the attached log ([`QueryService::attach_wal`]); `0`
    /// when no log is attached.
    pub wal_records_appended: u64,
    /// Fsync barriers the attached log issued; `wal_records_appended / wal_fsyncs`
    /// is the group-commit coalescing factor.
    pub wal_fsyncs: u64,
    /// Records the recovery that opened the attached log replayed (`0` for a fresh
    /// log or when no log is attached).
    pub recovery_replays: u64,
}

/// A handle to one submitted query's pending result.
///
/// Obtained from [`QueryService::submit`]; redeem it with [`Ticket::wait`].
/// Every outcome is a typed [`ServiceError`] — a redeemed ticket never panics and
/// never hangs: worker death, deadline expiry, cancellation and double redemption
/// all come back as `Err`.  Dropping an unredeemed ticket cancels its query, so an
/// abandoned submission stops burning a worker at the next cancellation checkpoint.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
    cancel: CancelToken,
}

#[derive(Debug, Default)]
enum SlotState {
    /// Not executed yet.
    #[default]
    Pending,
    /// Result delivered (shared with the cache when it was a hit).
    Ready(Arc<QueryResult>),
    /// The query failed with a typed error (worker panic, deadline, cancellation).
    Failed(ServiceError),
    /// The outcome was already redeemed; redeeming again yields
    /// [`ServiceError::AlreadyTaken`] rather than hanging on a result that will
    /// never arrive again.
    Taken,
}

#[derive(Debug, Default)]
struct TicketCell {
    slot: Mutex<SlotState>,
    ready: Condvar,
}

impl TicketCell {
    /// Lock the slot, recovering from poisoning: the state machine only moves in
    /// single-assignment steps, so a worker that panicked while holding the lock
    /// (chaos injection does this deliberately) leaves a coherent slot — and the
    /// abort guard will still mark it `Failed` on the worker's way out.
    fn slot_guard(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Ticket {
    /// Block until the query resolves and take its outcome: the result, or the
    /// typed error it failed with.
    pub fn wait(self) -> Result<QueryResult, ServiceError> {
        let mut slot = self.cell.slot_guard();
        loop {
            match std::mem::replace(&mut *slot, SlotState::Taken) {
                SlotState::Pending => {
                    *slot = SlotState::Pending;
                    slot = self
                        .cell
                        .ready
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                SlotState::Ready(result) => {
                    return Ok(Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone()));
                }
                SlotState::Failed(err) => {
                    // Failure is sticky: every observer gets the typed error.
                    *slot = SlotState::Failed(err.clone());
                    return Err(err);
                }
                SlotState::Taken => return Err(ServiceError::AlreadyTaken),
            }
        }
    }

    /// Take the outcome if the query has already resolved, without blocking:
    /// `Ok(None)` while still pending, `Ok(Some(result))` or the query's typed
    /// error once resolved, [`ServiceError::AlreadyTaken`] after an earlier
    /// redemption.
    pub fn try_take(&self) -> Result<Option<QueryResult>, ServiceError> {
        let mut slot = self.cell.slot_guard();
        match std::mem::replace(&mut *slot, SlotState::Taken) {
            SlotState::Pending => {
                *slot = SlotState::Pending;
                Ok(None)
            }
            SlotState::Ready(result) => {
                Ok(Some(Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone())))
            }
            SlotState::Failed(err) => {
                // Failure is sticky: every observer gets the typed error.
                *slot = SlotState::Failed(err.clone());
                Err(err)
            }
            SlotState::Taken => Err(ServiceError::AlreadyTaken),
        }
    }

    /// Cancel the query: if it has not resolved yet it fails with
    /// [`ServiceError::Cancelled`] at its next cooperative checkpoint (or
    /// immediately, if still queued).  A result that already landed stays
    /// redeemable.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

impl Drop for Ticket {
    /// An abandoned ticket cancels its query — nobody will redeem the result, so
    /// the worker should stop computing it at the next checkpoint.
    fn drop(&mut self) {
        let still_pending = matches!(*self.cell.slot_guard(), SlotState::Pending);
        if still_pending {
            self.cancel.cancel();
        }
    }
}

impl TicketCell {
    fn deliver(&self, result: Arc<QueryResult>) {
        let mut slot = self.slot_guard();
        *slot = SlotState::Ready(result);
        self.ready.notify_all();
    }

    fn fail(&self, err: ServiceError) {
        let mut slot = self.slot_guard();
        // Never clobber an outcome that already landed (the abort guard fires on
        // the worker's way out even after a normal delivery attempt).
        if matches!(*slot, SlotState::Pending) {
            *slot = SlotState::Failed(err);
            self.ready.notify_all();
        }
    }
}

/// One queued unit of work: a query, the ticket cell to deliver into, and the
/// submission's cancellation token.
struct Job {
    query: Query,
    cell: Arc<TicketCell>,
    cancel: CancelToken,
}

/// The normalized-query LRU result cache.
///
/// Keys are canonical query renderings ([`CacheKey`]); every entry additionally
/// carries its plan's **read footprint** ([`Plan::read_footprint`]) and the lineage
/// id + epoch vector of the snapshot it was **computed at** (its *birth* version),
/// while the cache as a whole tracks the published snapshot.  Entry validity is *per
/// footprint, against the entry's own birth version*: a lookup carrying snapshot `s`
/// hits an entry iff `s` and the entry's birth snapshot observe identical
/// query-visible state through every component of the entry's footprint (same
/// system lineage and agreeing per-component epochs).  Storing the birth vector per
/// entry — rather than validating everything against the cache's current snapshot —
/// is what lets a **long-lived reader** still on an older snapshot keep getting
/// cache service: an entry computed just before (or an insert landing just after) a
/// publish stays servable to readers on the pre-publish snapshot, even when the
/// publish moved the entry's footprint.  Lineage is part of every comparison
/// because a rebuilt system's epochs restart low
/// (a whole [`StudySnapshot`](graphitti_core::StudySnapshot) replay is one
/// `CommitBatch`, so one bump): a worker still in flight on the old system holds a
/// *numerically higher* epoch than the freshly published one, and comparing numbers
/// alone would let it later serve a stale result once the numbers collide.  A stale
/// get or insert under these rules is either provably byte-identical (footprint
/// untouched — serving it is correct, not a race won) or a harmless miss / rejected
/// write.
///
/// [`install`](ResultCache::install) is the only way `snap` moves, and it runs inside
/// [`QueryService::publish`] *while the snapshot write lock is still held* — no reader
/// can observe a published snapshot the cache has not been synced to, so "the cache
/// serves the published state" is an invariant, not a lock race to win.  Install
/// evicts exactly the entries whose footprint intersects the components dirtied since
/// the previous snapshot (wholesale only across lineages).
///
/// Recency lives in a tick-keyed [`BTreeMap`] (tick → key) mirroring the entries:
/// every touch re-keys the entry's tick, and at-capacity eviction pops the smallest
/// tick — `O(log n)`, replacing the old full-map `min_by_key` scan that ran under the
/// cache mutex on every at-capacity miss.
struct ResultCache {
    capacity: usize,
    /// The published snapshot this cache's entries were last validated against.
    snap: Snapshot,
    tick: u64,
    /// Invalidation accounting (see the `cache_*` fields of [`ServiceMetrics`]).
    partial_invalidations: u64,
    full_invalidations: u64,
    entries_evicted: u64,
    map: HashMap<CacheKey, CacheEntry>,
    /// Recency order: tick of last use → key.  Invariant: one entry here per `map`
    /// entry, keyed by that entry's `last_used` (ticks are unique — every touch takes
    /// a fresh one).
    lru: BTreeMap<u64, CacheKey>,
}

struct CacheEntry {
    /// Shared with every ticket the entry has served, so a hit is an `Arc` bump under
    /// the lock, never a deep copy of the result pages.
    result: Arc<QueryResult>,
    /// The components the result depends on ([`Plan::read_footprint`]).
    footprint: ComponentSet,
    /// The lineage id of the snapshot this entry was computed against.
    born_system: u64,
    /// The epoch vector it was computed at.  Entry validity is agreement between
    /// *this* vector and the reader's, on the entry's footprint — so an entry
    /// computed just before (or inserted just after) a publish keeps serving readers
    /// still on the older snapshot, instead of being keyed to whatever the cache's
    /// current snapshot happens to be.
    born_epochs: EpochVector,
    last_used: u64,
}

impl ResultCache {
    fn new(capacity: usize, snap: Snapshot) -> Self {
        ResultCache {
            capacity,
            snap,
            tick: 0,
            partial_invalidations: 0,
            full_invalidations: 0,
            entries_evicted: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
        }
    }

    /// Whether an entry born at `(born_system, born_epochs)` is still the correct
    /// answer for the **published** snapshot, given its footprint.
    fn fresh_for_published(
        &self,
        born_system: u64,
        born_epochs: EpochVector,
        footprint: ComponentSet,
    ) -> bool {
        self.snap.system_id() == born_system
            && born_epochs.agrees_on(self.snap.component_epochs(), footprint)
    }

    /// Move the cache onto `published`, evicting exactly the entries the state change
    /// can have affected — a no-op when the cache already serves this state
    /// (republishing an identical snapshot must not discard entries or count an
    /// invalidation).
    ///
    /// Within one system lineage the evicted set is the entries whose **own** birth
    /// epoch vector no longer agrees with the published one on their footprint; for
    /// the common case — entries born at the cache's previous snapshot — that is
    /// exactly "footprint intersects the components dirtied since the last publish",
    /// so an ingest-only batch evicts nothing while an annotation batch still clears
    /// every entry (all footprints read the annotation/referent registries).
    /// Across lineages — a rebuilt or replaced system, where epoch vectors are
    /// incomparable — the cache clears wholesale.
    ///
    /// **Contract:** `published` must be the *currently published* snapshot, and the
    /// service's snapshot write lock must be held across this call (as
    /// [`QueryService::publish`] does).  That is what makes this authoritative: a
    /// stale caller cannot exist, so any difference — forward publish, rebuilt system
    /// at a same-or-lower epoch — is a genuine state change and unconditionally wins.
    /// Deciding from a reader's *execution* snapshot instead (e.g. advancing on
    /// whichever epoch number is larger) would let a worker still in flight on a
    /// pre-rebuild system hijack the cache onto a superseded view.
    fn install(&mut self, published: &Snapshot) {
        if published.same_epoch(&self.snap) {
            return;
        }
        // Track the published snapshot even when caching is disabled — holding a
        // superseded one would pin its whole view alive for the service's life.
        self.snap = published.clone();
        if self.capacity == 0 {
            return;
        }
        let before = self.map.len();
        // Every entry of another lineage fails the `born_system` test, so a rebuilt
        // or replaced system clears the cache wholesale through the same retain.
        let (sys, epochs) = (published.system_id(), published.component_epochs());
        self.map
            .retain(|_, e| e.born_system == sys && e.born_epochs.agrees_on(epochs, e.footprint));
        let map = &self.map;
        self.lru.retain(|_, key| map.contains_key(key));
        self.entries_evicted += (before - self.map.len()) as u64;
        // "Full" means the install emptied a non-empty cache; an install racing
        // ahead of the first inserts (nothing present yet) counts as partial, so
        // the split is deterministic for concurrent tests and benches.
        if before > 0 && self.map.is_empty() {
            self.full_invalidations += 1;
        } else {
            self.partial_invalidations += 1;
        }
    }

    /// Look up a canonical key for a query executing against `snap`, refreshing the
    /// entry's recency on a hit.  Validity is agreement between `snap` and the
    /// **entry's own** birth epoch vector on the entry's footprint — so a long-lived
    /// reader still on an older snapshot keeps hitting entries computed there, even
    /// ones the published state has since moved past (until install evicts them).
    /// A lookup never moves the cache (only [`install`](Self::install) does).
    fn get(&mut self, key: &CacheKey, snap: &Snapshot) -> Option<Arc<QueryResult>> {
        if self.capacity == 0 {
            return None;
        }
        let entry = self.map.get_mut(key)?;
        let valid = snap.system_id() == entry.born_system
            && snap.component_epochs().agrees_on(entry.born_epochs, entry.footprint);
        if !valid {
            return None;
        }
        self.tick += 1;
        self.lru.remove(&entry.last_used);
        entry.last_used = self.tick;
        self.lru.insert(self.tick, key.clone());
        Some(Arc::clone(&entry.result))
    }

    /// Insert a result computed against `snap` for a plan reading `footprint`,
    /// tagged with `snap`'s epoch vector.  Same-lineage inserts are accepted even
    /// when a footprint-intersecting publish has since moved the state — the entry
    /// keeps serving readers still on the older snapshot — with one guard: an entry
    /// the *published* snapshot can serve is never displaced by one it cannot.
    /// Cross-lineage inserts (a worker still in flight on a replaced system) are
    /// rejected outright; the cache serves the published lineage only.  Evicts the
    /// least-recently-used entry when full (`O(log n)`: pop the smallest recency
    /// tick).
    fn insert(
        &mut self,
        key: CacheKey,
        snap: &Snapshot,
        footprint: ComponentSet,
        result: Arc<QueryResult>,
    ) {
        if self.capacity == 0 {
            return;
        }
        if !snap.same_system(&self.snap) {
            return;
        }
        if let Some(prev) = self.map.get(&key) {
            let prev_fresh =
                self.fresh_for_published(prev.born_system, prev.born_epochs, prev.footprint);
            let new_fresh =
                self.fresh_for_published(snap.system_id(), snap.component_epochs(), footprint);
            if prev_fresh && !new_fresh {
                return;
            }
        }
        self.tick += 1;
        if let Some(prev) = self.map.get(&key) {
            self.lru.remove(&prev.last_used);
        } else if self.map.len() >= self.capacity {
            if let Some((_, lru_key)) = self.lru.pop_first() {
                self.map.remove(&lru_key);
            }
        }
        self.lru.insert(self.tick, key.clone());
        self.map.insert(
            key,
            CacheEntry {
                result,
                footprint,
                born_system: snap.system_id(),
                born_epochs: snap.component_epochs(),
                last_used: self.tick,
            },
        );
    }

    fn len(&self) -> usize {
        debug_assert_eq!(self.map.len(), self.lru.len(), "map/recency desync");
        self.map.len()
    }
}

/// Shared state between the service handle and its workers.
struct Inner {
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    snapshot: RwLock<Snapshot>,
    cache: Mutex<ResultCache>,
    shutdown: AtomicBool,
    queue_capacity: usize,
    chaos: Option<ChaosConfig>,
    /// Live worker handles — in `Inner` (not the service handle) so a dying
    /// worker's respawn guard can register its replacement; `Drop` joins until
    /// this is empty.
    handles: Mutex<Vec<JoinHandle<()>>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    cancelled: AtomicU64,
    worker_panics: AtomicU64,
    workers_respawned: AtomicU64,
    wal_flush_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    publishes: AtomicU64,
    wal: RwLock<Option<Wal>>,
}

impl Inner {
    // The service locks recover from poisoning instead of panicking: every guarded
    // section moves its structure in exception-safe steps (queue pushes/pops, cache
    // map + LRU updates, whole-value snapshot/WAL swaps, handle pushes), so after a
    // worker panic — which chaos injection makes a first-class event — the state is
    // still coherent, and the surviving workers keep serving rather than cascading
    // the panic through every later lock acquisition.

    /// Lock the submission queue (poison-recovering; see above).
    fn queue_guard(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lock the result cache (poison-recovering; see above).
    fn cache_guard(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lock the worker-handle registry (poison-recovering; see above).
    fn handles_guard(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The current published snapshot (an `Arc` bump under a read lock).
    fn current_snapshot(&self) -> Snapshot {
        self.snapshot.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Execute one query against the current snapshot, consulting the cache.  The
    /// query is canonicalized exactly once: the canonical form is rendered once into
    /// the [`CacheKey`] (an explicit stable format, not `Debug` output) and is also
    /// what the executor plans, and its [`Plan::read_footprint`] is what the inserted
    /// entry's validity is keyed on.  `cancel` is checked up front (a job whose
    /// deadline expired while queued is failed without executing) and at every phase
    /// and chunk boundary inside the executor.
    fn execute(
        &self,
        query: &Query,
        cancel: &CancelToken,
        chaos: ChaosExec,
    ) -> Result<Arc<QueryResult>, ServiceError> {
        cancel.check()?;
        match chaos {
            ChaosExec::Stuck(delay) => match cooperative_sleep(delay, cancel, None) {
                Ok(()) => {}
                Err(SleepInterrupt::Query(i)) => return Err(i.into()),
                Err(SleepInterrupt::AttemptTimeout) => {
                    // lint: allow(no-panic-serving) -- stuck-query chaos passes no attempt deadline to the sleep
                    unreachable!("no attempt deadline on a stuck-query stall")
                }
            },
            // lint: allow(no-panic-serving) -- chaos injection IS a panic by design; the job catch absorbs it
            ChaosExec::Panic => panic!("chaos: injected worker panic during execution"),
            // Abort is handled in `work` (it must escape the catch); None is a no-op.
            ChaosExec::Abort | ChaosExec::None => {}
        }
        let canonical = query.canonicalize();
        let key = CacheKey::of_canonical(&canonical);
        let snap = self.current_snapshot();
        if let Some(hit) = self.cache_guard().get(&key, &snap) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Plan::build(&canonical, &snap);
        let footprint = plan.footprint;
        let result = Arc::new(
            Executor::new(&snap)
                .with_cancel(cancel.clone())
                .try_run_plan(&canonical, &plan)
                .map_err(ServiceError::from)?,
        );
        // Accepted iff this execution's answer is still correct for the published
        // state — publish syncs the cache under the snapshot write lock, so the cache
        // is never behind what any reader can observe; an execution that straddled a
        // publish lands anyway when its plan's footprint was untouched, and is
        // harmlessly rejected otherwise.
        self.cache_guard().insert(key, &snap, footprint, Arc::clone(&result));
        Ok(result)
    }

    /// Count one post-admission failure in the metric breakdown.
    fn note_failure(&self, err: &ServiceError) {
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

    /// The worker loop: drain the queue until shutdown *and* the queue is empty, so
    /// every accepted ticket is always resolved.  A panic during execution fails
    /// that job's ticket with [`ServiceError::WorkerPanicked`] but never kills the
    /// worker; a panic that *escapes* the catch (chaos abort) kills the thread, and
    /// the respawn guard both resolves the in-flight ticket and replaces the worker
    /// — the pool keeps its size and the queue keeps draining either way.
    fn work(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.queue_guard();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self
                        .queue_ready
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let chaos_exec =
                self.chaos.as_ref().map(|c| c.next_execution()).unwrap_or(ChaosExec::None);
            if chaos_exec == ChaosExec::Abort {
                // The panic below escapes the catch and unwinds the worker thread:
                // the job guard fails the in-flight ticket, the respawn guard (in
                // `spawn_worker`) replaces the thread.
                let _job_guard = JobGuard { inner: self, cell: &job.cell };
                // lint: allow(no-panic-serving) -- chaos abort must escape the catch to kill the worker; the guards resolve the ticket and respawn
                panic!("chaos: injected worker abort");
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute(&job.query, &job.cancel, chaos_exec)
            }));
            match outcome {
                Ok(Ok(result)) => {
                    // Count before resolving the ticket, so a waiter that reads the
                    // metrics right after `wait` returns sees this completion.
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    job.cell.deliver(result);
                }
                Ok(Err(err)) => {
                    self.note_failure(&err);
                    job.cell.fail(err);
                }
                Err(_) => {
                    let err = ServiceError::WorkerPanicked;
                    self.note_failure(&err);
                    job.cell.fail(err);
                }
            }
        }
    }
}

/// Spawn (or respawn) one pool worker.  The respawn guard restores the pool-size
/// invariant: if the worker thread dies to a panic that escaped the job catch, a
/// replacement is spawned and registered before the dying thread exits — unless
/// the service is already shutting down.
fn spawn_worker(inner: &Arc<Inner>, idx: usize) -> std::io::Result<JoinHandle<()>> {
    let worker = Arc::clone(inner);
    std::thread::Builder::new().name(format!("graphitti-query-{idx}")).spawn(move || {
        let _respawn = RespawnGuard { inner: Arc::clone(&worker), idx };
        worker.work();
    })
}

/// Fails the in-flight job's ticket if the worker unwinds while holding it (the
/// one way a ticket could otherwise be abandoned: a panic escaping the job catch).
struct JobGuard<'a> {
    inner: &'a Inner,
    cell: &'a Arc<TicketCell>,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let err = ServiceError::WorkerPanicked;
            self.inner.note_failure(&err);
            self.cell.fail(err);
        }
    }
}

/// Restores the pool size when a worker thread dies to an escaped panic.
struct RespawnGuard {
    inner: Arc<Inner>,
    idx: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.inner.shutdown.load(Ordering::Acquire) {
            if let Ok(handle) = spawn_worker(&self.inner, self.idx) {
                self.inner.workers_respawned.fetch_add(1, Ordering::Relaxed);
                self.inner.handles_guard().push(handle);
            }
        }
    }
}

/// The concurrent query service: a worker pool plus result cache over one published
/// [`Snapshot`].  See the [module docs](self) for the concurrency model.
pub struct QueryService {
    inner: Arc<Inner>,
    workers: usize,
}

impl QueryService {
    /// Start a service over an initial snapshot with the given configuration.
    pub fn new(snapshot: Snapshot, config: ServiceConfig) -> Self {
        let cache = ResultCache::new(config.cache_capacity, snapshot.clone());
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            snapshot: RwLock::new(snapshot),
            cache: Mutex::new(cache),
            shutdown: AtomicBool::new(false),
            queue_capacity: config.queue_capacity.max(1),
            chaos: config.chaos,
            handles: Mutex::new(Vec::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            wal_flush_failures: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            wal: RwLock::new(None),
        });
        let workers = config.workers.max(1);
        {
            let mut handles = inner.handles_guard();
            for i in 0..workers {
                // lint: allow(no-panic-serving) -- pool construction: failing to spawn the initial workers is a startup error, not a serving-path state
                handles.push(spawn_worker(&inner, i).expect("spawn query worker"));
            }
        }
        QueryService { inner, workers }
    }

    /// Start a service with the default configuration.
    pub fn with_defaults(snapshot: Snapshot) -> Self {
        QueryService::new(snapshot, ServiceConfig::default())
    }

    /// Enqueue a query for execution on the pool; returns immediately with a
    /// [`Ticket`] redeemable for the result, or sheds the query with
    /// [`ServiceError::Overloaded`] when the submission queue is at capacity.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServiceError> {
        self.submit_with_budget(query, QueryBudget::unbounded())
    }

    /// [`submit`](Self::submit) with a per-query [`QueryBudget`]: the deadline is
    /// carried into the worker as a cooperative cancellation token checked at every
    /// phase and chunk boundary, so an expired (or explicitly
    /// [cancelled](Ticket::cancel)) query stops burning its worker mid-flight.
    pub fn submit_with_budget(
        &self,
        query: Query,
        budget: QueryBudget,
    ) -> Result<Ticket, ServiceError> {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::for_budget(&budget);
        let cell = Arc::new(TicketCell::default());
        {
            let mut queue = self.inner.queue_guard();
            let depth = queue.len();
            if depth >= self.inner.queue_capacity {
                drop(queue);
                self.inner.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded { depth });
            }
            queue.push_back(Job { query, cell: Arc::clone(&cell), cancel: cancel.clone() });
        }
        self.inner.queue_ready.notify_one();
        Ok(Ticket { cell, cancel })
    }

    /// Submit a query and block for its result (convenience over
    /// [`submit`](Self::submit) + [`Ticket::wait`]).
    pub fn run(&self, query: Query) -> Result<QueryResult, ServiceError> {
        self.submit(query)?.wait()
    }

    /// [`run`](Self::run) under a per-query [`QueryBudget`].
    pub fn run_with_budget(
        &self,
        query: Query,
        budget: QueryBudget,
    ) -> Result<QueryResult, ServiceError> {
        self.submit_with_budget(query, budget)?.wait()
    }

    /// Execute a query synchronously *on the calling thread* — cache-aware and with
    /// the service's verify fan-out, but bypassing the submission queue (and so also
    /// admission control and chaos injection).  Use this for one latency-critical
    /// large query whose verify phase should use the machine, rather than for
    /// throughput.
    pub fn run_now(&self, query: &Query) -> Result<QueryResult, ServiceError> {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        let result = match self.inner.execute(query, &CancelToken::unbounded(), ChaosExec::None) {
            Ok(result) => result,
            Err(err) => {
                self.inner.note_failure(&err);
                return Err(err);
            }
        };
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Publish a new snapshot: all queries executed from now on observe it, and —
    /// iff the published state actually changed — the result cache evicts exactly
    /// the entries whose read footprint intersects the components dirtied since the
    /// previous publish (an ingest-only batch evicts nothing; see
    /// [`ResultCache::install`]).  In-flight queries finish against the snapshot they
    /// already captured (snapshot isolation).
    ///
    /// The cache is installed while the snapshot write lock is still held, so a
    /// reader can never observe a published snapshot the cache has not been synced
    /// to: there is no window in which fresh results are rejected or a stale cache
    /// state lingers, and each published state costs exactly one (partial)
    /// invalidation.  (Workers hold the cache mutex only for O(log n) map
    /// operations, so the writer's wait under the lock is bounded.)
    ///
    /// Entry validity is per-footprint epoch agreement *within one system lineage*,
    /// so publishing a snapshot of a different or rebuilt system — even one whose
    /// epoch collides with or regresses below the current one — both clears the
    /// cache wholesale and makes any result a worker mid-flight on the old system
    /// later deposits unhittable: a stale get or insert can cause a miss, never a
    /// wrong answer.
    ///
    /// With a WAL attached, a failed flush aborts the publish *before* the snapshot
    /// becomes visible (durable-before-visible is preserved): the error is surfaced
    /// as [`ServiceError::WalFlush`] and counted in
    /// [`ServiceMetrics::wal_flush_failures`], and the caller may retry the publish.
    pub fn publish(&self, snapshot: Snapshot) -> Result<(), ServiceError> {
        // Durable before visible: with a WAL attached, every record appended so far
        // (the batches this snapshot is made of) reaches stable storage before any
        // reader can observe the new state.  Under `DurabilityMode::Sync` the flush
        // is a cheap no-op barrier; under `Async` it is the deferred fsync.
        if let Some(wal) =
            self.inner.wal.read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref()
        {
            if let Err(err) = wal.flush() {
                self.inner.wal_flush_failures.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::WalFlush(err.to_string()));
            }
        }
        let mut current =
            self.inner.snapshot.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Debug twin of the lint's dirty-set-soundness rule, at the serving
        // boundary: within one lineage, any component whose storage was replaced
        // since the outgoing snapshot must have moved its epoch — otherwise the
        // footprint-keyed cache would keep entries this publish invalidated.
        #[cfg(debug_assertions)]
        if current.system_id() == snapshot.system_id() {
            let moved = snapshot.component_epochs().changed(current.component_epochs());
            for c in graphitti_core::Component::ALL {
                debug_assert!(
                    snapshot.view().shares_component(current.view(), c) || moved.contains(c),
                    "publish: {c:?} storage was replaced but its epoch never moved"
                );
            }
        }
        *current = snapshot;
        // Documented order: snapshot before cache — publish is the only place both
        // guards are held, and workers take them one at a time, so no inversion.
        // lint: allow(lock-discipline) -- fixed snapshot-then-cache order, single nesting site
        self.inner.cache_guard().install(&current);
        drop(current);
        self.inner.publishes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attach a write-ahead log: [`publish`](Self::publish) will flush it before a
    /// new snapshot becomes visible, and [`metrics`](Self::metrics) reports its
    /// durability counters.
    pub fn attach_wal(&self, wal: Wal) {
        *self.inner.wal.write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(wal);
    }

    /// The epoch of the currently published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.inner.current_snapshot().epoch()
    }

    /// A clone of the currently published snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.current_snapshot()
    }

    /// Number of worker threads in the pool (the pool-size invariant: respawns
    /// keep the live thread count at this value).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Number of live worker threads.  Finished handles (aborted workers whose
    /// replacement is already registered — the respawn guard pushes the new handle
    /// *before* the dying thread exits) are pruned on read; dropping a finished
    /// handle detaches an already-dead thread, so nothing is leaked.  May briefly
    /// exceed [`worker_count`](Self::worker_count) while a dying thread is still
    /// unwinding past its replacement's registration.
    pub fn live_workers(&self) -> usize {
        let mut handles = self.inner.handles_guard();
        handles.retain(|h| !h.is_finished());
        handles.len()
    }

    /// Number of live entries in the result cache.
    pub fn cache_len(&self) -> usize {
        self.inner.cache_guard().len()
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let (partial, full, evicted) = {
            let cache = self.inner.cache_guard();
            (cache.partial_invalidations, cache.full_invalidations, cache.entries_evicted)
        };
        let wal_stats = self
            .inner
            .wal
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(|wal| wal.stats())
            .unwrap_or_default();
        ServiceMetrics {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            deadline_misses: self.inner.deadline_misses.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            worker_panics: self.inner.worker_panics.load(Ordering::Relaxed),
            workers_respawned: self.inner.workers_respawned.load(Ordering::Relaxed),
            degraded: 0,
            wal_flush_failures: self.inner.wal_flush_failures.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.inner.cache_misses.load(Ordering::Relaxed),
            publishes: self.inner.publishes.load(Ordering::Relaxed),
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

impl Drop for QueryService {
    /// Graceful shutdown: workers finish every queued job (so no ticket is ever
    /// abandoned), then exit and are joined.
    fn drop(&mut self) {
        // The store happens under the queue mutex so no worker can sit between its
        // shutdown check and `Condvar::wait` when the flag flips — otherwise the
        // notify below could be lost and the join would deadlock.
        {
            let _guard = self.inner.queue_guard();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.queue_ready.notify_all();
        // Pop-until-empty (not a single drain): a worker dying to an injected abort
        // registers its replacement's handle *before* the dying thread exits, so new
        // handles can appear while we join.
        loop {
            let handle = self.inner.handles_guard().pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{OntologyFilter, Target};
    use crate::reference::ReferenceExecutor;
    use graphitti_core::{Component, DataType, Graphitti, Marker};
    use std::time::Duration;

    /// A distinct cache key per phrase (unit tests for the cache need keys only).
    fn test_key(phrase: &str) -> CacheKey {
        Query::new(Target::AnnotationContents).with_phrase(phrase).cache_key()
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

    fn sample_system(n: u64) -> Graphitti {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("s", DataType::DnaSequence, 100_000, "chr1");
        let term = sys.ontology_mut().add_concept("T");
        for i in 0..n {
            let mut b = sys
                .annotate()
                .comment(if i % 3 == 0 { "protease motif" } else { "quiet region" })
                .mark(seq, Marker::interval(i * 50, i * 50 + 25));
            if i % 2 == 0 {
                b = b.cite_term(term);
            }
            b.commit().unwrap();
        }
        sys
    }

    fn phrase_query() -> Query {
        Query::new(Target::AnnotationContents).with_phrase("protease motif")
    }

    #[test]
    fn submitted_queries_match_direct_execution() {
        let sys = sample_system(30);
        let service = QueryService::new(sys.snapshot(), ServiceConfig::default().with_workers(3));
        let expected = Executor::new(&sys).run(&phrase_query());
        let tickets: Vec<Ticket> =
            (0..8).map(|_| service.submit(phrase_query()).expect("queue unbounded")).collect();
        for t in tickets {
            assert_eq!(t.wait().expect("query completes"), expected);
        }
        let m = service.metrics();
        assert_eq!(m.submitted, 8);
        assert_eq!(m.completed, 8);
    }

    #[test]
    fn cache_serves_equivalent_queries_from_one_entry() {
        let sys = sample_system(20);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(16),
        );
        let a = Query::new(Target::AnnotationContents).with_keywords(["Protease", "motif"]);
        let b = Query::new(Target::AnnotationContents).with_keywords(["motif", "protease"]);
        let ra = service.run(a).unwrap();
        let rb = service.run(b).unwrap();
        assert_eq!(ra, rb);
        let m = service.metrics();
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn cache_disabled_always_executes() {
        let mut sys = sample_system(10);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(0),
        );
        service.run(phrase_query()).unwrap();
        service.run(phrase_query()).unwrap();
        // a publish on a disabled cache must not report phantom invalidations
        sys.register_sequence("t", DataType::DnaSequence, 10, "chr2");
        service.publish(sys.snapshot()).unwrap();
        service.run(phrase_query()).unwrap();
        let m = service.metrics();
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 3);
        assert_eq!(m.cache_invalidations, 0);
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn publish_invalidates_cache_and_serves_new_epoch() {
        let mut sys = sample_system(9);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(2).with_cache_capacity(8),
        );
        let before = service.run(phrase_query()).unwrap();

        // Writer commits a new matching annotation and publishes.
        let seq = sys.objects()[0].id;
        sys.annotate()
            .comment("protease motif, new")
            .mark(seq, Marker::interval(90_000, 90_100))
            .commit()
            .unwrap();
        service.publish(sys.snapshot()).unwrap();

        let after = service.run(phrase_query()).unwrap();
        assert_eq!(after.annotations.len(), before.annotations.len() + 1);
        assert_eq!(service.current_epoch(), sys.epoch());
        let m = service.metrics();
        assert_eq!(m.publishes, 1);
        // both executions were misses: the publish dropped the first entry
        assert_eq!(m.cache_misses, 2);
    }

    #[test]
    fn batched_writes_cost_one_invalidation_per_publish() {
        let mut sys = sample_system(9);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(8),
        );
        let before = service.run(phrase_query()).unwrap();
        assert_eq!(service.metrics().cache_invalidations, 0);

        // A burst of 20 matching commits staged as one batch: one epoch, one publish,
        // one cache invalidation — not 20.
        let seq = sys.objects()[0].id;
        let epoch_before = sys.epoch();
        let mut batch = sys.batch();
        for i in 0..20u64 {
            batch
                .annotate()
                .comment("protease motif burst")
                .mark(seq, Marker::interval(90_000 + i * 10, 90_000 + i * 10 + 5))
                .commit()
                .unwrap();
        }
        assert_eq!(batch.commit(), 20);
        assert_eq!(sys.epoch(), epoch_before + 1);
        service.publish(sys.snapshot()).unwrap();

        let after = service.run(phrase_query()).unwrap();
        assert_eq!(after.annotations.len(), before.annotations.len() + 20);
        let m = service.metrics();
        assert_eq!(m.publishes, 1);
        assert_eq!(m.cache_invalidations, 1);
        // the annotation batch dirtied every footprint's components: nothing survived
        assert_eq!(m.cache_full_invalidations, 1);
        assert_eq!(m.cache_entries_evicted, 1);
    }

    #[test]
    fn ingest_only_publish_preserves_cache_entries() {
        let mut sys = sample_system(12);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(8),
        );
        let before = service.run(phrase_query()).unwrap(); // miss, populates the cache
        assert!(service.run(phrase_query()).unwrap() == before); // hit

        // An ingest-only batch registers objects — its dirty set touches no component
        // a phrase query reads, so the entry must survive the publish and keep
        // serving hits.
        let mut batch = sys.batch();
        for i in 0..10 {
            batch.register_sequence(format!("late-{i}"), DataType::DnaSequence, 500, "chr9");
        }
        batch.commit();
        service.publish(sys.snapshot()).unwrap();
        assert_eq!(service.cache_len(), 1, "ingest publish must not evict");
        assert!(service.run(phrase_query()).unwrap() == before); // still a hit
        let m = service.metrics();
        assert_eq!(m.cache_hits, 2);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_invalidations, 1);
        assert_eq!(m.cache_partial_invalidations, 1);
        assert_eq!(m.cache_full_invalidations, 0);
        assert_eq!(m.cache_entries_evicted, 0);

        // An annotation touching the phrase's footprint still evicts it.
        let seq = sys.objects()[0].id;
        sys.annotate()
            .comment("protease motif, newly attached")
            .mark(seq, Marker::interval(90_000, 90_100))
            .commit()
            .unwrap();
        service.publish(sys.snapshot()).unwrap();
        let after = service.run(phrase_query()).unwrap();
        assert_eq!(after.annotations.len(), before.annotations.len() + 1);
        let m = service.metrics();
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.cache_entries_evicted, 1);
        assert_eq!(m.cache_full_invalidations, 1);
    }

    fn empty_result() -> Arc<QueryResult> {
        Arc::new(QueryResult {
            pages: Vec::new(),
            annotations: Vec::new(),
            referents: Vec::new(),
            objects: Vec::new(),
            missing_shards: Vec::new(),
        })
    }

    /// Grow a fresh system until its epoch reaches `target`, capturing a snapshot at
    /// every intermediate epoch along the way.  Returns the system plus the snapshots
    /// indexed by epoch (so `snaps[e]` was captured at epoch `e`).
    fn system_with_epoch_snapshots(target: u64) -> (Graphitti, Vec<Snapshot>) {
        let mut sys = Graphitti::new();
        let mut snaps = vec![sys.snapshot()];
        while sys.epoch() < target {
            let n = sys.epoch();
            sys.register_sequence(format!("s{n}"), DataType::DnaSequence, 100, "chr1");
            snaps.push(sys.snapshot());
        }
        assert_eq!(sys.epoch(), target, "test setup: epoch must be reachable one bump at a time");
        (sys, snaps)
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let (sys, _) = system_with_epoch_snapshots(0);
        let snap = sys.snapshot();
        let mut cache = ResultCache::new(2, snap.clone());
        let empty = empty_result();
        let (a, b, c) = (test_key("a"), test_key("b"), test_key("c"));
        cache.insert(a.clone(), &snap, content_fp(), Arc::clone(&empty));
        cache.insert(b.clone(), &snap, content_fp(), Arc::clone(&empty));
        assert!(cache.get(&a, &snap).is_some()); // refresh a; b is now LRU
        cache.insert(c.clone(), &snap, content_fp(), empty.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&b, &snap).is_none());
        assert!(cache.get(&a, &snap).is_some());
        assert!(cache.get(&c, &snap).is_some());
        // re-inserting an existing key is an update, not a capacity eviction
        cache.insert(a.clone(), &snap, content_fp(), empty_result());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&c, &snap).is_some());
    }

    #[test]
    fn install_evicts_exactly_the_footprint_intersecting_entries() {
        // The snapshots differ by object *registrations*, whose dirty set (catalog,
        // a-graph, objects, node maps, indexes) intersects an object-reading
        // footprint but not a content-reading one.
        let (_sys, snaps) = system_with_epoch_snapshots(2);
        let mut cache = ResultCache::new(4, snaps[0].clone());
        let (content_key, object_key) = (test_key("content"), test_key("object"));
        cache.insert(content_key.clone(), &snaps[0], content_fp(), empty_result());
        cache.insert(object_key.clone(), &snaps[0], object_fp(), empty_result());
        assert_eq!(cache.partial_invalidations + cache.full_invalidations, 0);

        cache.install(&snaps[2]);
        // the object-footprint entry is gone, the content one survives
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.entries_evicted, 1);
        assert_eq!(cache.partial_invalidations, 1);
        assert_eq!(cache.full_invalidations, 0);
        assert!(cache.get(&object_key, &snaps[2]).is_none());
        assert!(cache.get(&content_key, &snaps[2]).is_some());
        // re-installing an identical snapshot is a no-op
        cache.install(&snaps[2]);
        assert_eq!(cache.partial_invalidations, 1);

        // A *stale* reader still in flight on snaps[1] agrees with the cache on the
        // content footprint (registrations never moved it), so it legitimately hits —
        // and its insert of a content-footprint result is accepted, because the
        // answer is provably identical at the published state.
        assert!(cache.get(&content_key, &snaps[1]).is_some());
        cache.insert(test_key("late content"), &snaps[1], content_fp(), empty_result());
        assert!(cache.get(&test_key("late content"), &snaps[2]).is_some());
        // ...while the same stale reader's *object*-footprint traffic is refused
        assert!(cache.get(&object_key, &snaps[1]).is_none());
        cache.insert(test_key("late object"), &snaps[1], object_fp(), empty_result());
        assert!(cache.get(&test_key("late object"), &snaps[2]).is_none());
    }

    #[test]
    fn entry_born_before_disjoint_publish_serves_stale_and_fresh_readers() {
        // The per-entry epoch vector pin (ROADMAP "per-entry epoch vectors"): an
        // entry computed just before a footprint-disjoint publish is served both to
        // a long-lived reader still on the old snapshot and to readers on the new
        // one — its *birth* vector agrees with both on the content footprint.
        let (_sys, snaps) = system_with_epoch_snapshots(2);
        let mut cache = ResultCache::new(4, snaps[0].clone());
        let key = test_key("q");
        cache.insert(key.clone(), &snaps[0], content_fp(), empty_result());
        cache.install(&snaps[1]); // register-only publish: disjoint from content_fp
        assert_eq!(cache.len(), 1, "disjoint publish must not evict");
        assert!(cache.get(&key, &snaps[0]).is_some(), "stale reader must be served");
        assert!(cache.get(&key, &snaps[1]).is_some(), "fresh reader must be served");
    }

    #[test]
    fn stale_insert_after_intersecting_publish_serves_old_snapshot_readers() {
        // The stronger consequence of per-entry vectors: a worker that computed at
        // S0 with an *object* footprint lands its insert even after a publish that
        // moved that footprint — tagged with its birth vector, so readers still on
        // S0 hit it, readers on the published state miss it, and the next install
        // evicts it (its birth vector no longer agrees with the published one).
        let (_sys, snaps) = system_with_epoch_snapshots(3);
        let mut cache = ResultCache::new(4, snaps[0].clone());
        cache.install(&snaps[2]); // registrations moved the object footprint past S0
        let key = test_key("late");
        cache.insert(key.clone(), &snaps[0], object_fp(), empty_result());
        assert_eq!(cache.len(), 1, "same-lineage stale insert must land");
        assert!(cache.get(&key, &snaps[0]).is_some(), "old-snapshot reader hits");
        assert!(cache.get(&key, &snaps[2]).is_none(), "published-state reader misses");

        // A fresh result for the same key must not be displaced by stale traffic.
        cache.insert(key.clone(), &snaps[2], object_fp(), empty_result());
        assert!(cache.get(&key, &snaps[2]).is_some());
        cache.insert(key.clone(), &snaps[0], object_fp(), empty_result());
        assert!(
            cache.get(&key, &snaps[2]).is_some(),
            "a published-servable entry must never be displaced by a stale one"
        );

        // The next changed publish evicts entries whose birth vector disagrees.
        cache.insert(test_key("stale2"), &snaps[0], object_fp(), empty_result());
        assert!(cache.get(&test_key("stale2"), &snaps[0]).is_some());
        cache.install(&snaps[3]);
        assert!(cache.get(&test_key("stale2"), &snaps[0]).is_none(), "evicted at install");
    }

    #[test]
    fn stale_high_epoch_worker_cannot_hijack_cache_across_a_rebuild_publish() {
        // System A is at a high epoch and the cache serves one of its results.  An
        // operator then publishes a rebuilt system B whose epochs restart low (a
        // whole StudySnapshot replay is one batch, so one bump).  A worker still in
        // flight on A holds a *numerically higher* epoch than anything B will reach
        // for a while; neither its lookup nor its insert may move the cache or let
        // A's result be served again — in particular not when B's epoch later
        // collides with A's number.
        let (_sys_a, a_snaps) = system_with_epoch_snapshots(10);
        let a10 = &a_snaps[10];
        let mut cache = ResultCache::new(4, a10.clone());
        let q = test_key("q");
        let stale = empty_result();
        cache.insert(q.clone(), a10, content_fp(), Arc::clone(&stale));
        assert!(cache.get(&q, a10).is_some());

        // The rebuild publish installs B at epoch 2 — another lineage, so the
        // footprint policy must clear wholesale (epoch vectors are incomparable).
        let (_sys_b, b_snaps) = system_with_epoch_snapshots(10);
        cache.install(&b_snaps[2]);
        assert_eq!(cache.full_invalidations, 1);

        // The stale worker finishes: its get misses (despite the numerically higher
        // epoch — and despite A's register-only history never touching the content
        // footprint: lineage gates every epoch comparison), and its insert is
        // rejected — the cache stays on B throughout.
        assert!(cache.get(&q, a10).is_none());
        cache.insert(q.clone(), a10, content_fp(), stale);
        assert_eq!(cache.len(), 0);
        for snap in &b_snaps {
            assert!(
                cache.get(&q, snap).is_none(),
                "B's epoch {} must never see A's entry",
                snap.epoch()
            );
        }

        // ... and B's current snapshot is served normally, undisturbed.
        cache.insert(q.clone(), &b_snaps[2], content_fp(), empty_result());
        assert!(cache.get(&q, &b_snaps[2]).is_some());
    }

    #[test]
    fn failed_ticket_surfaces_typed_error_instead_of_panicking() {
        let cell = Arc::new(TicketCell::default());
        cell.fail(ServiceError::WorkerPanicked);
        let ticket = Ticket { cell: Arc::clone(&cell), cancel: CancelToken::unbounded() };
        assert_eq!(ticket.try_take(), Err(ServiceError::WorkerPanicked));
        let ticket = Ticket { cell, cancel: CancelToken::unbounded() };
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerPanicked));
    }

    #[test]
    fn redeeming_a_ticket_twice_is_a_typed_error_not_a_hang() {
        let cell = Arc::new(TicketCell::default());
        cell.deliver(empty_result());
        let ticket = Ticket { cell, cancel: CancelToken::unbounded() };
        assert!(ticket.try_take().unwrap().is_some());
        // a second redemption is a caller bug: it must fail fast, not block forever
        assert_eq!(ticket.try_take(), Err(ServiceError::AlreadyTaken));
    }

    #[test]
    fn failure_never_clobbers_a_delivered_result() {
        // The abort path's job guard may fire after the worker already delivered
        // (panic between deliver and loop top): the resolved slot must win.
        let cell = Arc::new(TicketCell::default());
        cell.deliver(empty_result());
        cell.fail(ServiceError::WorkerPanicked);
        let ticket = Ticket { cell, cancel: CancelToken::unbounded() };
        assert_eq!(ticket.wait().unwrap(), *empty_result());
    }

    #[test]
    fn publishing_a_different_system_at_equal_epoch_clears_the_cache() {
        // Two distinct systems with identical epochs but different contents: the
        // publish must not let epoch-keyed entries from the first survive.
        let sys_a = sample_system(6); // 6 annotations, 2 matching
        let mut sys_b = Graphitti::new();
        let seq = sys_b.register_sequence("s", DataType::DnaSequence, 100_000, "chr1");
        sys_b.ontology_mut().add_concept("X");
        for i in 0..6 {
            sys_b
                .annotate()
                .comment("protease motif everywhere")
                .mark(seq, Marker::interval(i * 50, i * 50 + 25))
                .commit()
                .unwrap();
        }
        assert_eq!(sys_a.epoch(), sys_b.epoch(), "test setup: epochs must collide");

        let service = QueryService::new(
            sys_a.snapshot(),
            ServiceConfig::default().with_workers(1).with_cache_capacity(8),
        );
        let from_a = service.run(phrase_query()).unwrap();
        assert_eq!(from_a, Executor::new(&sys_a).run(&phrase_query()));

        service.publish(sys_b.snapshot()).unwrap();
        let from_b = service.run(phrase_query()).unwrap();
        assert_eq!(from_b, Executor::new(&sys_b).run(&phrase_query()));
        assert_ne!(from_a, from_b);
        assert_eq!(service.metrics().cache_hits, 0);
    }

    #[test]
    fn many_concurrent_clients_all_get_correct_results() {
        let sys = sample_system(40);
        let term_query = Query::new(Target::AnnotationContents)
            .with_ontology(OntologyFilter::CitesTerm(ontology::ConceptId(0)));
        let expected_phrase = ReferenceExecutor::new(&sys).run(&phrase_query());
        let expected_term = ReferenceExecutor::new(&sys).run(&term_query);
        let service = Arc::new(QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(4).with_cache_capacity(4),
        ));
        std::thread::scope(|scope| {
            for client in 0..6 {
                let service = Arc::clone(&service);
                let term_query = term_query.clone();
                let expected_phrase = &expected_phrase;
                let expected_term = &expected_term;
                scope.spawn(move || {
                    for round in 0..10 {
                        if (client + round) % 2 == 0 {
                            assert_eq!(&service.run(phrase_query()).unwrap(), expected_phrase);
                        } else {
                            assert_eq!(&service.run(term_query.clone()).unwrap(), expected_term);
                        }
                    }
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.completed, 60);
        // Every execution that starts before the first insert for its key lands is a
        // legal miss, so the worst case is workers × distinct keys = 4 × 2 misses.
        assert!(m.cache_hits >= 52, "expected mostly hits, got {m:?}");
    }

    #[test]
    fn drop_completes_queued_work() {
        let sys = sample_system(15);
        let service = QueryService::new(sys.snapshot(), ServiceConfig::default().with_workers(1));
        let tickets: Vec<Ticket> =
            (0..5).map(|_| service.submit(phrase_query()).expect("queue unbounded")).collect();
        drop(service); // graceful: queued jobs still complete
        for t in tickets {
            assert!(t.try_take().unwrap().is_some());
        }
    }

    #[test]
    fn full_queue_sheds_with_overloaded_error() {
        let sys = sample_system(10);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_queue_capacity(1).with_chaos(
                // Stall the first execution so the queue stays occupied deterministically.
                ChaosConfig::default().with_stuck_query_on(1, Duration::from_millis(200)),
            ),
        );
        let first = service.submit(phrase_query()).expect("first submission admitted");
        // Keep submitting until the stalled worker has dequeued the first job and the
        // bounded queue is occupied by a second — the third concurrent submission in
        // flight then must shed.
        let mut admitted = vec![first];
        let shed_err = loop {
            match service.submit(phrase_query()) {
                Ok(t) => admitted.push(t),
                Err(err) => break err,
            }
            assert!(admitted.len() < 64, "queue of capacity 1 admitted 64 jobs");
        };
        assert!(matches!(shed_err, ServiceError::Overloaded { depth: 1 }), "got {shed_err:?}");
        for t in admitted {
            t.wait().expect("admitted tickets all resolve");
        }
        let m = service.metrics();
        assert!(m.shed >= 1);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    #[test]
    fn expired_deadline_fails_with_deadline_exceeded() {
        let sys = sample_system(10);
        let service = QueryService::new(sys.snapshot(), ServiceConfig::default().with_workers(1));
        // An already-expired budget: the worker sheds it at dequeue without executing.
        let budget = QueryBudget::unbounded().with_deadline(Duration::from_nanos(0));
        let err = service.run_with_budget(phrase_query(), budget).unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        let m = service.metrics();
        assert_eq!(m.failed, 1);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    #[test]
    fn cancelled_ticket_fails_with_cancelled() {
        let sys = sample_system(10);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default().with_workers(1).with_chaos(
                ChaosConfig::default().with_stuck_query_on(1, Duration::from_millis(500)),
            ),
        );
        let ticket = service.submit(phrase_query()).unwrap();
        ticket.cancel();
        // The stuck-query stall observes the token cooperatively and aborts early.
        assert_eq!(ticket.wait(), Err(ServiceError::Cancelled));
        let m = service.metrics();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    #[test]
    fn pool_survives_injected_panics_and_keeps_serving() {
        let sys = sample_system(20);
        let expected = Executor::new(&sys).run(&phrase_query());
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default()
                .with_workers(2)
                .with_cache_capacity(0)
                .with_chaos(ChaosConfig::default().with_worker_panic_on(2)),
        );
        let tickets: Vec<Ticket> =
            (0..6).map(|_| service.submit(phrase_query()).unwrap()).collect();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let panicked = outcomes.iter().filter(|o| **o == Err(ServiceError::WorkerPanicked)).count();
        assert_eq!(panicked, 1, "exactly the injected execution fails: {outcomes:?}");
        for ok in outcomes.into_iter().filter_map(Result::ok) {
            assert_eq!(ok, expected);
        }
        let m = service.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.workers_respawned, 0, "caught panic must not cost a thread");
        assert_eq!(m.completed, 5);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    #[test]
    fn pool_respawns_after_worker_abort() {
        let sys = sample_system(20);
        let expected = Executor::new(&sys).run(&phrase_query());
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default()
                .with_workers(2)
                .with_cache_capacity(0)
                .with_chaos(ChaosConfig::default().with_worker_abort_on(2)),
        );
        let tickets: Vec<Ticket> =
            (0..6).map(|_| service.submit(phrase_query()).unwrap()).collect();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let aborted = outcomes.iter().filter(|o| **o == Err(ServiceError::WorkerPanicked)).count();
        assert_eq!(aborted, 1, "exactly the aborted execution fails: {outcomes:?}");
        for ok in outcomes.into_iter().filter_map(Result::ok) {
            assert_eq!(ok, expected);
        }
        // The job guard resolves the failed ticket *before* the dying thread's
        // respawn guard runs, so give the respawn a moment to register.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.metrics().workers_respawned == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let m = service.metrics();
        assert_eq!(m.workers_respawned, 1, "the dead thread must be replaced");
        assert_eq!(m.completed, 5);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
        // The replacement still serves after the originals drained everything.
        assert_eq!(service.run(phrase_query()).unwrap(), expected);
    }
}
