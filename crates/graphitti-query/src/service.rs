//! [`Service`] — the concurrent query-serving layer, one type for both deployments.
//!
//! A service owns a `std::thread` worker pool and serves queries against one
//! *published* [`Version`] of the system: a [`Snapshot`] ([`QueryService`]) or a
//! [`ShardCut`] ([`ShardedQueryService`](crate::ShardedQueryService)).  Publishing,
//! the result cache, the WAL slot and the counters are its spine (`published.rs`);
//! the pool, tickets and admission control below are written once for both, and the
//! version's own execution — plan and run on a snapshot, scatter-gather over a cut —
//! is the only code that differs between the two:
//!
//! * **Independent queries run in parallel.**  [`Service::submit`] enqueues a query
//!   and returns a [`Ticket`] immediately; pool workers drain the queue, each
//!   executing against a clone of the current version (`Arc` bumps), so a slow query
//!   never blocks an unrelated fast one and no query ever blocks a writer.  One query
//!   is one thread of control: a worker runs it start to finish, and nothing inside
//!   the executor spawns (a scatter visits its shards in turn).
//! * **A normalized-query result cache sits in front.**  Results are cached under the
//!   query's canonical form ([`Query::cache_key`]), so semantically equal queries —
//!   different conjunct order, keyword case or duplicate conjuncts — share one entry.
//!   Each entry carries its plan's **read footprint**
//!   ([`Plan::read_footprint`](crate::Plan::read_footprint): the
//!   [`graphitti_core::Component`]s the answer depends on) and stays valid across any
//!   publish whose dirty set is disjoint from that footprint, per each shard's
//!   per-component epoch vector ([`Snapshot::component_epochs`]).  An entry is
//!   validated where it is read, so a publish examines and frees nothing: an entry it
//!   made stale stops hitting and is freed by the insert that displaces it — a fresh
//!   answer for the same query, or the LRU pop at a fixed capacity (an ordered
//!   recency structure, so at-capacity eviction is `O(log n)`, not a scan).
//! * **At most `workers` executions are in progress, on whichever threads.**  A
//!   worker takes a job only into a free execution slot and an inline execution
//!   (below) claims one the same way, so the pool size bounds what runs at once, and
//!   a full queue sheds with [`ServiceError::Overloaded`] however the work arrived.
//! * **A query executes where it already is, when that costs nobody any parallelism.**
//!   [`Service::resolve`] probes the cache on the calling thread — a hit costs no
//!   queue slot, no hand-off and no ticket — and on a miss lets a caller that has
//!   nothing else to do (`here`: the network tier's reader on a closed-loop
//!   connection) execute it itself **if an execution slot is free**: fewer than
//!   `workers` executions in progress, and nothing queued, so an inline execution
//!   never overtakes queued work.  Every other miss is queued, already canonical, as
//!   [`Service::submit`] would.  [`submit`](Service::submit) and
//!   [`run`](Service::run) always cross the pool: an in-process caller asks for a
//!   ticket precisely to keep its own thread.
//! * **One body executes, on whichever thread.**  A pool worker and an inline
//!   `resolve` both run a query through `execute_isolated`: it injects the chaos
//!   fault the execution drew, catches a panic as [`ServiceError::WorkerPanicked`],
//!   and counts the one outcome.  The fault is drawn where the execution claims its
//!   slot, under the queue lock, so chaos slots count executions in the order they
//!   were dequeued or claimed — not in the order threads happen to start running.
//!
//! Writers keep mutating their system as usual and make new state visible to the
//! service explicitly via [`Service::publish`]; until then, every in-flight and future
//! query observes the previously published version — snapshot isolation, not
//! read-your-writes.  A cut is installed whole: no reader sees some shards from the
//! old cut and some from the new.
//!
//! **Sustained write streams** pair the service with the core's batched write API:
//! the writer stages a burst of registers / annotates through
//! [`Graphitti::batch`](graphitti_core::Graphitti::batch) (one epoch bump per batch,
//! one accumulated dirty set), then publishes the post-batch snapshot once.  The
//! whole batch costs **one** cache invalidation (observable via
//! [`ServiceMetrics::cache_invalidations`]) instead of one per call — and that one
//! invalidation is *partial*: a pure-ingest batch (registers only) dirties no
//! component any query footprint reads, so every cached entry keeps hitting, which
//! is what keeps the hit rate up under the paper's steady curator-write trickle
//! (measured by the benchmark's `curate_rw` workload: `service.cache_hit_rate`,
//! `service.entries_evicted_per_publish`).  Because the view is a tree of
//! per-component `Arc`s, the writer's first post-publish commit also copies only the
//! components it touches (`core.apply_shared_us`) — readers keep structurally sharing
//! the rest.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use graphitti_core::{ShardCut, Snapshot, Wal};

use crate::ast::Query;
use crate::published::{unshare, Canonical, Counters, Probe, Published, Version};
use crate::resilience::{cooperative_sleep, CancelToken, ChaosConfig, ChaosExec};
use crate::resilience::{QueryBudget, ServiceError};
use crate::result::QueryResult;

/// Tuning knobs for a [`Service`], whichever version it serves.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool size: worker threads draining the submission queue, and the bound on
    /// executions in progress on any thread.
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
    /// Queries submitted (via [`Service::submit`] / [`Service::run`] /
    /// [`Service::run_now`] / [`Service::resolve`]).
    pub submitted: u64,
    /// Queries completed (result delivered).
    pub completed: u64,
    /// Queries shed at admission ([`ServiceError::Overloaded`]), over a snapshot or a
    /// cut alike.  Invariant once the queue is drained:
    /// `shed + completed + failed == submitted`.
    pub shed: u64,
    /// Cache misses [`Service::resolve`] executed on its caller's thread instead of
    /// queueing them for a worker (`executed_inline <= cache_misses`), over a
    /// snapshot or a cut alike.
    pub executed_inline: u64,
    /// Queries that ended in a typed error after admission (deadline, cancellation,
    /// worker panic).
    pub failed: u64,
    /// Failed queries whose budget deadline expired (at dequeue or mid-execution).
    pub deadline_misses: u64,
    /// Failed queries cancelled via their ticket / token.
    pub cancelled: u64,
    /// Panics caught while executing queries, on a worker or on an inline caller
    /// (each fails that query with [`ServiceError::WorkerPanicked`]; the pool never
    /// shrinks).
    pub worker_panics: u64,
    /// Worker threads respawned after dying to a panic that escaped the job catch
    /// — the pool-size invariant in action, over a snapshot or a cut alike.
    pub workers_respawned: u64,
    /// Publish-time WAL flushes that failed (each also failed its publish with
    /// [`ServiceError::WalFlush`] *without* installing the version, preserving
    /// durable-before-visible).
    pub wal_flush_failures: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries executed because the cache had no valid entry.
    pub cache_misses: u64,
    /// Publishes observed.
    pub publishes: u64,
    /// Publishes that changed the published state (always
    /// `cache_partial_invalidations + cache_full_invalidations`).  A `CommitBatch` of
    /// any size followed by one publish costs exactly one invalidation; republishing
    /// an identical version, or any publish on a cache-disabled service (capacity 0),
    /// counts none.
    pub cache_invalidations: u64,
    /// Changed-state publishes within one system lineage: the cached entries whose
    /// footprint the state change touched stop hitting, the rest keep hitting.
    pub cache_partial_invalidations: u64,
    /// Changed-state publishes of another system lineage (a rebuilt or replaced
    /// system): no cached entry hits again.  The benchmark's
    /// `service.full_invalidation_share` reads this, so it counts lineage changes.
    pub cache_full_invalidations: u64,
    /// Entries an insert displaced — a fresh answer for the same query, or the LRU
    /// pop at capacity — after they had stopped serving the published version.  A
    /// publish itself evicts nothing: an entry it made stale is counted when the
    /// insert that displaces it runs, so over a window of publishes and queries
    /// (the benchmark's `service.entries_evicted_per_publish`) this counts the
    /// stale entries the window's re-runs replaced.
    pub cache_entries_evicted: u64,
    /// WAL records appended by the attached log ([`Service::attach_wal`]); `0`
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
/// Obtained from [`Service::submit`]; redeem it with [`Ticket::wait`].
/// Every outcome is a typed [`ServiceError`] — a redeemed ticket never panics and
/// never hangs: worker death, deadline expiry and cancellation all come back as
/// `Err`.  Dropping an unredeemed ticket cancels its query, so an
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
        self.wait_shared().map(unshare)
    }

    /// [`wait`](Self::wait) without the copy: the result as the worker delivered it,
    /// still shared with the result cache — for a caller that only reads it (the
    /// network tier encodes straight from it).  A ticket is its cell's only one and
    /// this consumes it, so the result is moved out, never redeemed twice.
    pub fn wait_shared(self) -> Result<Arc<QueryResult>, ServiceError> {
        let mut slot = self.cell.slot_guard();
        loop {
            match std::mem::take(&mut *slot) {
                SlotState::Pending => {
                    slot = self
                        .cell
                        .ready
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                SlotState::Ready(result) => return Ok(result),
                SlotState::Failed(err) => {
                    // Failure is sticky: every observer gets the typed error.
                    *slot = SlotState::Failed(err.clone());
                    return Err(err);
                }
            }
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
    /// the worker should stop computing it at the next checkpoint.  A query that
    /// already resolved checks its token no more, so for it the cancel is a no-op.
    fn drop(&mut self) {
        self.cancel.cancel();
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

/// One queued unit of work: a query — already canonical, so the worker does not redo
/// what the submitting thread's cache probe needed — the ticket cell to deliver
/// into, and the submission's cancellation token.
struct Job {
    canonical: Canonical,
    cell: Arc<TicketCell>,
    cancel: CancelToken,
}

/// How [`Service::resolve`] resolved a query without waiting on another thread.
#[derive(Debug)]
pub enum Resolved {
    /// Answered on the calling thread — from the result cache, or by executing it
    /// there: the shared result, fully counted.
    Ready(Arc<QueryResult>),
    /// Queued for a pool worker like any [`Service::submit`].
    Queued(Ticket),
}

/// One execution in progress, counted in the service's `executing` until dropped —
/// by a worker around each job, by an inline `resolve` around its one — with the
/// chaos fault it drew.
struct ExecSlot<'a, V: Version> {
    inner: &'a Inner<V>,
    fault: ChaosExec,
}

impl<'a, V: Version> ExecSlot<'a, V> {
    /// Count one more execution in and draw its chaos slot.  Callers hold the queue
    /// lock and saw a free slot, so a claim and the check it rests on are one step,
    /// and executions draw their slots in the order they claim them (a worker claims
    /// as it dequeues); the counter publishes no data (`Relaxed`).
    fn claim(inner: &'a Inner<V>) -> Self {
        inner.executing.fetch_add(1, Ordering::Relaxed);
        let fault =
            inner.config.chaos.as_ref().map_or(ChaosExec::None, ChaosConfig::next_execution);
        ExecSlot { inner, fault }
    }
}

impl<V: Version> Drop for ExecSlot<'_, V> {
    /// Free the slot and wake a worker if a job waits for one: taking the queue lock
    /// orders this release before that worker's next look at the counter.
    fn drop(&mut self) {
        let inner = self.inner;
        inner.executing.fetch_sub(1, Ordering::Relaxed);
        if !inner.queue_guard().is_empty() {
            inner.queue_ready.notify_one();
        }
    }
}

/// Run one execution the way every executing thread does — a pool worker (`ticket` =
/// the job's cell), an inline [`Service::resolve`] or a [`Service::run_now`] (`None`):
/// inject the chaos `fault` its slot drew, run `execute` under `catch_unwind`, count
/// `completed` or the failure breakdown, and hand back the outcome with an escaped
/// panic mapped to [`ServiceError::WorkerPanicked`].  `cancel` is checked up front (a
/// job whose deadline expired while queued fails without executing).
///
/// An injected abort must kill a *worker*: with a ticket it panics outside the catch
/// — the [`JobGuard`] fails the ticket, the respawn guard replaces the thread.  Off
/// the pool there is no worker to kill, so it is a caught panic like any other.
fn execute_isolated(
    counters: &Counters,
    mut fault: ChaosExec,
    cancel: &CancelToken,
    ticket: Option<&TicketCell>,
    execute: impl FnOnce() -> Result<Arc<QueryResult>, ServiceError>,
) -> Result<Arc<QueryResult>, ServiceError> {
    if fault == ChaosExec::Abort {
        match ticket {
            Some(cell) => {
                let _job_guard = JobGuard { counters, cell };
                // lint: allow(no-panic-serving) -- chaos abort must escape the catch to kill the worker; the guards resolve the ticket and respawn
                panic!("chaos: injected worker abort");
            }
            None => fault = ChaosExec::Panic,
        }
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cancel.check()?;
        match fault {
            ChaosExec::Stuck(delay) => cooperative_sleep(delay, cancel)?,
            // lint: allow(no-panic-serving) -- chaos injection IS a panic by design; the catch around this closure absorbs it
            ChaosExec::Panic => panic!("chaos: injected panic during execution"),
            // Abort was resolved above; None is a no-op.
            ChaosExec::Abort | ChaosExec::None => {}
        }
        execute()
    }));
    let outcome = caught.unwrap_or(Err(ServiceError::WorkerPanicked));
    // Counted before the caller resolves a ticket with it, so a waiter that reads the
    // metrics right after `wait` returns sees this outcome.
    match &outcome {
        Ok(_) => {
            counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => counters.note_failure(err),
    }
    outcome
}

/// Shared state between the service handle and its workers: the serving spine (the
/// published version, its cache, the WAL slot and the counters) next to the pool.
struct Inner<V: Version> {
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    published: Published<V>,
    shutdown: AtomicBool,
    /// The configuration, `workers` and `queue_capacity` at least 1.  `workers` is
    /// the pool size and the bound on executions in progress.
    config: ServiceConfig,
    /// Executions in progress on any thread (see [`ExecSlot`]).
    executing: AtomicUsize,
    /// Live worker handles — in `Inner` (not the service handle) so a dying
    /// worker's respawn guard can register its replacement; `Drop` joins until
    /// this is empty.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<V: Version> Inner<V> {
    // The pool locks recover from poisoning instead of panicking, for the reason
    // `Published` gives for its own: queue pushes/pops and handle pushes are
    // exception-safe steps, so the state stays coherent across a worker panic.

    /// Lock the submission queue (poison-recovering; see above).
    fn queue_guard(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lock the worker-handle registry (poison-recovering; see above).
    fn handles_guard(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether an execution slot is free: fewer than `workers` executions in progress
    /// on any thread.  Read under the queue lock, which every claim is made under.
    fn slot_free(&self) -> bool {
        self.executing.load(Ordering::Relaxed) < self.config.workers
    }

    /// Claim an execution slot for the calling thread, if one is free and nothing is
    /// queued (queued work is never overtaken).
    fn claim_slot(&self) -> Option<ExecSlot<'_, V>> {
        let queue = self.queue_guard();
        (queue.is_empty() && self.slot_free()).then(|| ExecSlot::claim(self))
    }

    /// Execute one canonical query against the current version, consulting the cache
    /// (see [`Published::cached_or_execute`]).
    fn execute(
        &self,
        canonical: Canonical,
        cancel: &CancelToken,
    ) -> Result<Arc<QueryResult>, ServiceError> {
        self.published
            .cached_or_execute(canonical, |canonical, version| version.execute(canonical, cancel))
    }

    /// The worker loop: take a job whenever one is queued and a slot is free, until
    /// shutdown *and* the queue is empty, so every accepted ticket is always
    /// resolved.  A panic during execution fails that job's ticket with
    /// [`ServiceError::WorkerPanicked`] but never kills the worker; a panic that
    /// *escapes* the catch (chaos abort) kills the thread, and the respawn guard both
    /// resolves the in-flight ticket and replaces the worker — the pool keeps its size
    /// and the queue keeps draining either way.
    fn work(self: &Arc<Self>) {
        loop {
            let (Job { canonical, cell, cancel }, slot) = {
                let mut queue = self.queue_guard();
                loop {
                    if self.slot_free() {
                        if let Some(job) = queue.pop_front() {
                            break (job, ExecSlot::claim(self));
                        }
                    }
                    if queue.is_empty() && self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self
                        .queue_ready
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let counters = &self.published.counters;
            let outcome = execute_isolated(counters, slot.fault, &cancel, Some(&*cell), || {
                self.execute(canonical, &cancel)
            });
            // Out before the ticket resolves: whoever it wakes finds the slot free.
            drop(slot);
            match outcome {
                Ok(result) => cell.deliver(result),
                Err(err) => cell.fail(err),
            }
        }
    }
}

/// Spawn (or respawn) one pool worker.  The respawn guard restores the pool-size
/// invariant: if the worker thread dies to a panic that escaped the job catch, a
/// replacement is spawned and registered before the dying thread exits — unless
/// the service is already shutting down.
fn spawn_worker<V: Version>(inner: &Arc<Inner<V>>, idx: usize) -> std::io::Result<JoinHandle<()>> {
    let worker = Arc::clone(inner);
    std::thread::Builder::new().name(format!("graphitti-query-{idx}")).spawn(move || {
        let _respawn = RespawnGuard { inner: Arc::clone(&worker), idx };
        worker.work();
    })
}

/// Fails the in-flight job's ticket if the worker unwinds while holding it (the
/// one way a ticket could otherwise be abandoned: a panic escaping the job catch).
struct JobGuard<'a> {
    counters: &'a Counters,
    cell: &'a TicketCell,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let err = ServiceError::WorkerPanicked;
            self.counters.note_failure(&err);
            self.cell.fail(err);
        }
    }
}

/// Restores the pool size when a worker thread dies to an escaped panic.
struct RespawnGuard<V: Version> {
    inner: Arc<Inner<V>>,
    idx: usize,
}

impl<V: Version> Drop for RespawnGuard<V> {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.inner.shutdown.load(Ordering::Acquire) {
            if let Ok(handle) = spawn_worker(&self.inner, self.idx) {
                self.inner.published.counters.workers_respawned.fetch_add(1, Ordering::Relaxed);
                self.inner.handles_guard().push(handle);
            }
        }
    }
}

/// The concurrent query service: a worker pool plus result cache over one published
/// [`Version`] — a [`Snapshot`] or a [`ShardCut`].  See the [module docs](self) for
/// the concurrency model.
pub struct Service<V: Version> {
    inner: Arc<Inner<V>>,
}

/// The unsharded deployment: a [`Service`] over a [`Snapshot`].
pub type QueryService = Service<Snapshot>;

impl<V: Version> Service<V> {
    /// Start a service over an initial version with the given configuration.
    pub fn new(initial: V, mut config: ServiceConfig) -> Self {
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            published: Published::new(initial, config.cache_capacity),
            shutdown: AtomicBool::new(false),
            config,
            executing: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        });
        {
            let mut handles = inner.handles_guard();
            for i in 0..inner.config.workers {
                // lint: allow(no-panic-serving) -- pool construction: failing to spawn the initial workers is a startup error, not a serving-path state
                handles.push(spawn_worker(&inner, i).expect("spawn query worker"));
            }
        }
        Service { inner }
    }

    /// Enqueue a query for execution on the pool; returns immediately with a
    /// [`Ticket`] redeemable for the result, or sheds the query with
    /// [`ServiceError::Overloaded`] when the submission queue is at capacity.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServiceError> {
        self.submit_with_budget(query, QueryBudget::unbounded())
    }

    /// [`submit`](Self::submit) with a per-query [`QueryBudget`]: the deadline is
    /// carried into the worker as a cooperative cancellation token checked at every
    /// phase and chunk boundary (on every shard of a scatter), so an expired (or
    /// explicitly [cancelled](Ticket::cancel)) query stops burning its worker
    /// mid-flight.
    pub fn submit_with_budget(
        &self,
        query: Query,
        budget: QueryBudget,
    ) -> Result<Ticket, ServiceError> {
        self.enqueue(Canonical::of(&query), CancelToken::for_budget(&budget))
    }

    /// Resolve `query` as far as the calling thread can without waiting on another:
    /// answer it from the result cache, execute it here, or queue it — what a
    /// connection's reader thread calls for every request.
    ///
    /// A hit draws no chaos slot and bypasses admission control: it occupies neither
    /// a queue slot nor a worker, so a full queue cannot shed it.  An already-expired
    /// budget fails typed ([`ServiceError::DeadlineExceeded`], counted `failed`)
    /// before the cache is consulted, exactly as a worker would fail it at dequeue.
    ///
    /// A miss runs on the calling thread iff the caller offers it (`here`: it has
    /// nothing else to do until the answer exists) **and** an execution slot is free —
    /// fewer than `workers` executions in progress, nothing queued.  It is the
    /// execution a worker would perform (`execute_isolated`: chaos slot, panic
    /// isolation, outcome accounting) at the version the probe read, with no second
    /// lookup.  Any other miss is queued like a
    /// [`submit_with_budget`](Self::submit_with_budget), and shed like one when the
    /// queue is full.
    ///
    /// Every query this answers or queues is exactly one `cache_hits` or one
    /// `cache_misses`, counted on whichever thread found out (the query is
    /// canonicalized once, here, and travels canonical).
    pub fn resolve(
        &self,
        query: &Query,
        budget: QueryBudget,
        here: bool,
    ) -> Result<Resolved, ServiceError> {
        let inner = &*self.inner;
        let cancel = CancelToken::for_budget(&budget);
        let (canonical, version) = match inner.published.probe(query, &cancel)? {
            Probe::Hit(result) => return Ok(Resolved::Ready(result)),
            Probe::Miss(canonical, version) => (canonical, version),
        };
        let Some(slot) = here.then(|| inner.claim_slot()).flatten() else {
            return self.enqueue(canonical, cancel).map(Resolved::Queued);
        };
        let counters = &inner.published.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        execute_isolated(counters, slot.fault, &cancel, None, || {
            // Beside the miss it is one of, so `executed_inline <= cache_misses`.
            counters.executed_inline.fetch_add(1, Ordering::Relaxed);
            inner.published.execute_miss(canonical, &version, |canonical, version| {
                version.execute(canonical, &cancel)
            })
        })
        .map(Resolved::Ready)
    }

    /// Admission control and the queue push behind every submission.
    fn enqueue(&self, canonical: Canonical, cancel: CancelToken) -> Result<Ticket, ServiceError> {
        let inner = &*self.inner;
        inner.published.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(TicketCell::default());
        {
            let mut queue = inner.queue_guard();
            let depth = queue.len();
            if depth >= inner.config.queue_capacity {
                drop(queue);
                inner.published.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded { depth });
            }
            queue.push_back(Job { canonical, cell: Arc::clone(&cell), cancel: cancel.clone() });
        }
        inner.queue_ready.notify_one();
        Ok(Ticket { cell, cancel })
    }

    /// Submit a query and block for its result (convenience over
    /// [`submit`](Self::submit) + [`Ticket::wait`]).
    pub fn run(&self, query: Query) -> Result<QueryResult, ServiceError> {
        self.submit(query)?.wait()
    }

    /// Execute a query synchronously *on the calling thread* — cache-aware, but
    /// bypassing the submission queue (and so also the pool hand-off, the execution
    /// slots, admission control and execution chaos).
    pub fn run_now(&self, query: &Query) -> Result<QueryResult, ServiceError> {
        let counters = &self.inner.published.counters;
        let cancel = CancelToken::unbounded();
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        execute_isolated(counters, ChaosExec::None, &cancel, None, || {
            self.inner.execute(Canonical::of(query), &cancel)
        })
        .map(unshare)
    }

    /// Publish a new version: all queries executed from now on observe it, and
    /// cached entries whose read footprint meets the components dirtied since their
    /// birth version, on any shard, stop hitting for those queries (after an
    /// ingest-only batch, every entry keeps hitting).  In-flight queries finish
    /// against the version they already captured (snapshot isolation), and a cut is
    /// installed whole — no reader ever sees some shards from the old cut and some
    /// from the new.
    ///
    /// A publish does O(1) work under its locks and frees nothing there: it swaps
    /// the version and moves the cache onto it while the version write lock is still
    /// held — so each changed state costs exactly one invalidation and the cache's
    /// insert guard always judges against what readers observe — and drops the
    /// superseded version once both locks are released.  No entry is examined:
    /// every lookup validates, and a stale entry is freed by the insert that
    /// displaces it, on that inserting thread.  (Workers hold the cache mutex only
    /// for O(log n) map operations, so the writer's wait under the lock is bounded.)
    ///
    /// Entry validity is per-footprint epoch agreement *within one system lineage*,
    /// so after publishing a version of a different or rebuilt system — even one
    /// whose epoch collides with or regresses below the current one — no old entry
    /// hits a reader of the new system, and a result a worker mid-flight on the old
    /// system later offers is rejected: a stale get or insert can cause a miss,
    /// never a wrong answer.
    ///
    /// With a WAL attached, a failed flush aborts the publish *before* the version
    /// becomes visible (durable-before-visible is preserved): the error is surfaced
    /// as [`ServiceError::WalFlush`] and counted in
    /// [`ServiceMetrics::wal_flush_failures`], and the caller may retry the publish.
    pub fn publish(&self, version: V) -> Result<(), ServiceError> {
        self.inner.published.publish(version)
    }

    /// Attach a write-ahead log: [`publish`](Self::publish) will flush it before a
    /// new version becomes visible, and [`metrics`](Self::metrics) reports its
    /// durability counters.
    pub fn attach_wal(&self, wal: Wal) {
        self.inner.published.attach_wal(wal);
    }

    /// The logical version of what is published: a snapshot's epoch, a cut's version.
    pub fn current_version(&self) -> u64 {
        self.inner.published.current().number()
    }

    /// Number of worker threads in the pool (the pool-size invariant: respawns
    /// keep the live thread count at this value).
    pub fn worker_count(&self) -> usize {
        self.inner.config.workers
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
        self.inner.published.cache_len()
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.published.metrics()
    }
}

impl Service<Snapshot> {
    /// A clone of the currently published snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.published.current()
    }
}

impl Service<ShardCut> {
    /// A clone of the currently published cut.
    pub fn cut(&self) -> ShardCut {
        self.inner.published.current()
    }
}

impl<V: Version> Drop for Service<V> {
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
    use crate::exec::Executor;
    use crate::reference::ReferenceExecutor;
    use graphitti_core::{DataType, Graphitti, Marker, ObjectId, ShardedSystem, WriteSystem};
    use std::time::Duration;

    /// `n` annotations over four sequences — every third a protease motif, every other
    /// citing one term — written once against the write surface both systems share.
    fn write_sample<S: WriteSystem>(mut sys: S, n: u64) -> S {
        let seqs: Vec<_> = (0..4)
            .map(|k| sys.register_sequence(format!("s{k}"), DataType::DnaSequence, 100_000, "chr1"))
            .collect();
        let term = sys.ontology_edit(|o| o.add_concept("T"));
        for i in 0..n {
            let mut b = sys
                .annotate()
                .comment(if i % 3 == 0 { "protease motif" } else { "quiet region" })
                .mark(seqs[i as usize % seqs.len()], Marker::interval(i * 50, i * 50 + 25));
            if i % 2 == 0 {
                b = b.cite_term(term);
            }
            b.commit().unwrap();
        }
        sys
    }

    fn sample_system(n: u64) -> Graphitti {
        write_sample(Graphitti::new(), n)
    }

    // The pool tests below are one body (`…_on`) run over both versions a service
    // serves: the sample's snapshot, and a 4-shard cut of the same history.  Identical
    // replay makes global ids coincide, so the unsharded system is the oracle for both.

    fn snapshot_of(n: u64) -> (Snapshot, Graphitti) {
        let sys = sample_system(n);
        (sys.snapshot(), sys)
    }

    fn cut_of(n: u64) -> (ShardCut, Graphitti) {
        (write_sample(ShardedSystem::new(4), n).capture_cut(), sample_system(n))
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
    fn resolve_executes_a_miss_here_only_into_a_free_slot() {
        resolve_executes_a_miss_here_only_into_a_free_slot_on(snapshot_of);
        resolve_executes_a_miss_here_only_into_a_free_slot_on(cut_of);
    }

    fn resolve_executes_a_miss_here_only_into_a_free_slot_on<V: Version>(
        fixture: fn(u64) -> (V, Graphitti),
    ) {
        let (version, oracle) = fixture(20);
        let chaos = ChaosConfig::default().with_stuck_query_on(2, Duration::from_secs(5));
        let service = Service::new(
            version,
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(8)
                .with_chaos(chaos.clone()),
        );
        let expected = Executor::new(&oracle).run(&phrase_query());
        let unbounded = QueryBudget::unbounded();
        let other = |i: u64| Query::new(Target::AnnotationContents).with_phrase(format!("q{i}"));

        // Idle service, caller willing: the miss runs here — resolved by the time
        // `resolve` returns, on a thread that is not a worker — as chaos execution 1.
        let Ok(Resolved::Ready(miss)) = service.resolve(&phrase_query(), unbounded, true) else {
            panic!("an idle service executes an offered miss on the caller");
        };
        assert_eq!(*miss, expected);
        assert_eq!((service.metrics().executed_inline, chaos.executions()), (1, 1));
        // The same query in another spelling: answered here, from the shared entry.
        let shouted = Query::new(Target::AnnotationContents).with_phrase("PROTEASE motif");
        let Ok(Resolved::Ready(hit)) = service.resolve(&shouted, unbounded, false) else {
            panic!("an equivalent query must hit");
        };
        assert_eq!(*hit, expected);
        // An expired budget is failed before the cache is consulted or a slot claimed.
        let expired = QueryBudget::unbounded().with_deadline(Duration::ZERO);
        let err = service.resolve(&phrase_query(), expired, true).unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);

        // A caller that does not offer itself always queues.
        let Ok(Resolved::Queued(stuck)) = service.resolve(&other(0), unbounded, false) else {
            panic!("`here = false` must queue a miss");
        };
        // That job is execution 2 and holds the one worker: once it is out of the
        // queue the slot is taken, so an offered miss queues too ...
        while chaos.executions() < 2 {
            std::thread::yield_now();
        }
        let Ok(Resolved::Queued(queued)) = service.resolve(&other(1), unbounded, true) else {
            panic!("with every worker busy an offered miss must queue");
        };
        // ... and with the queue's one slot now full, the next is shed.
        let shed = service.resolve(&other(2), unbounded, true).unwrap_err();
        assert_eq!(shed, ServiceError::Overloaded { depth: 1 });
        assert_eq!(service.metrics().executed_inline, 1, "only the first miss ran inline");

        stuck.cancel();
        assert_eq!(stuck.wait(), Err(ServiceError::Cancelled));
        queued.wait().expect("the queued miss runs once the worker is free");
        let m = service.metrics();
        assert_eq!((m.submitted, m.completed, m.failed, m.shed), (6, 3, 2, 1));
        assert_eq!((m.cache_hits, m.cache_misses, m.deadline_misses), (1, 2, 1));
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
        assert!(m.executed_inline <= m.cache_misses);
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
        assert_eq!(service.current_version(), sys.epoch());
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
        assert_eq!((m.cache_invalidations, m.cache_full_invalidations), (1, 0));
        // the annotation batch dirtied every footprint's components: the re-run
        // missed, and its fresh answer displaced the stale entry
        assert_eq!((m.cache_hits, m.cache_misses, m.cache_entries_evicted), (0, 2, 1));
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

        // An annotation touching the phrase's footprint still invalidates it: the
        // re-run misses, and its fresh answer displaces the stale entry.
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
        assert_eq!((m.cache_hits, m.cache_misses), (2, 2));
        assert_eq!(m.cache_entries_evicted, 1);
        assert_eq!((m.cache_partial_invalidations, m.cache_full_invalidations), (2, 0));
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn publish_frees_no_cached_result() {
        publish_frees_no_cached_result_on(write_sample(Graphitti::new(), 20), Graphitti::snapshot);
        publish_frees_no_cached_result_on(
            write_sample(ShardedSystem::new(4), 20),
            ShardedSystem::capture_cut,
        );
    }

    /// A publish frees no cached result: the one it made stale outlives it and is
    /// freed by the run whose fresh answer displaces it.
    fn publish_frees_no_cached_result_on<S: WriteSystem, V: Version>(
        mut sys: S,
        capture: fn(&S) -> V,
    ) {
        let service = Service::new(
            capture(&sys),
            ServiceConfig::default().with_workers(1).with_cache_capacity(8),
        );
        let Ok(Resolved::Ready(result)) =
            service.resolve(&phrase_query(), QueryBudget::unbounded(), true)
        else {
            panic!("an idle service executes an offered miss on the caller");
        };
        let cached = Arc::downgrade(&result);
        drop(result);
        assert_eq!(cached.strong_count(), 1, "the cache holds the result");

        sys.annotate()
            .comment("protease motif, late")
            .mark(ObjectId(0), Marker::interval(90_000, 90_100))
            .commit()
            .unwrap();
        service.publish(capture(&sys)).unwrap();
        assert_eq!(cached.strong_count(), 1, "a publish freed a cached result");

        let misses = service.metrics().cache_misses;
        service.run_now(&phrase_query()).unwrap();
        assert_eq!(service.metrics().cache_misses, misses + 1, "the stale entry was served");
        assert_eq!(cached.strong_count(), 0, "the displaced result outlived its displacement");
        assert_eq!(service.metrics().cache_entries_evicted, 1);
    }

    #[test]
    fn failed_ticket_surfaces_typed_error_instead_of_panicking() {
        let cell = Arc::new(TicketCell::default());
        cell.fail(ServiceError::WorkerPanicked);
        let ticket = Ticket { cell: Arc::clone(&cell), cancel: CancelToken::unbounded() };
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerPanicked));
        let ticket = Ticket { cell, cancel: CancelToken::unbounded() };
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerPanicked));
    }

    #[test]
    fn failure_never_clobbers_a_delivered_result() {
        // The abort path's job guard may fire after the worker already delivered
        // (panic between deliver and loop top): the resolved slot must win.
        let cell = Arc::new(TicketCell::default());
        cell.deliver(Arc::default());
        cell.fail(ServiceError::WorkerPanicked);
        let ticket = Ticket { cell, cancel: CancelToken::unbounded() };
        assert_eq!(ticket.wait().unwrap(), QueryResult::default());
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
            assert!(matches!(*t.cell.slot_guard(), SlotState::Ready(_)));
        }
    }

    #[test]
    fn full_queue_sheds_with_overloaded_error() {
        full_queue_sheds_with_overloaded_error_on(snapshot_of);
        full_queue_sheds_with_overloaded_error_on(cut_of);
    }

    fn full_queue_sheds_with_overloaded_error_on<V: Version>(fixture: fn(u64) -> (V, Graphitti)) {
        let (version, _) = fixture(10);
        let service = Service::new(
            version,
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
        expired_deadline_fails_with_deadline_exceeded_on(snapshot_of);
        expired_deadline_fails_with_deadline_exceeded_on(cut_of);
    }

    fn expired_deadline_fails_with_deadline_exceeded_on<V: Version>(
        fixture: fn(u64) -> (V, Graphitti),
    ) {
        let (version, _) = fixture(10);
        let service = Service::new(version, ServiceConfig::default().with_workers(1));
        // An already-expired budget: the worker sheds it at dequeue without executing.
        let budget = QueryBudget::unbounded().with_deadline(Duration::from_nanos(0));
        let outcome = service.submit_with_budget(phrase_query(), budget).and_then(Ticket::wait);
        assert_eq!(outcome, Err(ServiceError::DeadlineExceeded));
        let m = service.metrics();
        assert_eq!(m.failed, 1);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    #[test]
    fn cancelled_ticket_fails_with_cancelled() {
        cancelled_ticket_fails_with_cancelled_on(snapshot_of);
        cancelled_ticket_fails_with_cancelled_on(cut_of);
    }

    fn cancelled_ticket_fails_with_cancelled_on<V: Version>(fixture: fn(u64) -> (V, Graphitti)) {
        let (version, _) = fixture(10);
        let service = Service::new(
            version,
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
        pool_survives_injected_panics_and_keeps_serving_on(snapshot_of);
        pool_survives_injected_panics_and_keeps_serving_on(cut_of);
    }

    fn pool_survives_injected_panics_and_keeps_serving_on<V: Version>(
        fixture: fn(u64) -> (V, Graphitti),
    ) {
        let (version, oracle) = fixture(20);
        let expected = Executor::new(&oracle).run(&phrase_query());
        let service = Service::new(
            version,
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
        pool_respawns_after_worker_abort_on(snapshot_of);
        pool_respawns_after_worker_abort_on(cut_of);
    }

    fn pool_respawns_after_worker_abort_on<V: Version>(fixture: fn(u64) -> (V, Graphitti)) {
        let (version, oracle) = fixture(20);
        let expected = Executor::new(&oracle).run(&phrase_query());
        let service = Service::new(
            version,
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
