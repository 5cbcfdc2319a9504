//! The resilience substrate for query serving: typed service errors, per-query
//! budgets, cooperative cancellation, bounded retry with decorrelated-jitter
//! backoff, and the read-path chaos-injection layer.
//!
//! The pieces compose into one contract, enforced end to end by the chaos battery
//! in `tests/chaos_resilience.rs`: **every submitted query ends in exactly one of**
//!
//! 1. a *complete* result, byte-identical to the reference executor's answer;
//! 2. a *degraded* result ([`QueryResult::missing_shards`] non-empty) that is
//!    byte-identical to the answer computed with the missing shards' candidate
//!    contributions absent — an exact, marked subset, never a torn mix; or
//! 3. a typed [`ServiceError`] — never a panic out of `wait`, never a hang.
//!
//! * [`QueryBudget`] is what callers state: an optional deadline plus whether a
//!   partial (shard-degraded) answer is acceptable.
//! * [`CancelToken`] is how the budget travels: one shared token per submitted
//!   query, checked at phase and chunk boundaries inside
//!   [`Executor`](crate::exec::Executor) seed/verify/collate loops, so an expired
//!   or abandoned query stops burning its worker mid-flight.
//! * [`RetryPolicy`] bounds how hard the sharded scatter fights a transient shard
//!   failure before declaring the shard down (decorrelated jitter, so concurrent
//!   retries against one struggling shard spread out instead of stampeding).
//! * [`ChaosConfig`] injects read-path faults — slow shard, failing shard, worker
//!   panic, worker abort, stuck query — mirroring the write path's
//!   `FaultStorage`/`CrashPoint` methodology from the durability work.
//!
//! [`QueryResult::missing_shards`]: crate::result::QueryResult::missing_shards

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything that can go wrong between `submit` and a redeemed ticket, as a typed
/// error instead of a panic or a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control shed the query: the submission queue already held `depth`
    /// jobs, at or past the configured capacity.  Nothing was enqueued; back off
    /// and resubmit.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The query's [`QueryBudget`] deadline passed before a result was produced
    /// (at admission, at dequeue, or mid-execution at a cancellation checkpoint).
    DeadlineExceeded,
    /// The query was cancelled via [`Ticket::cancel`](crate::service::Ticket::cancel)
    /// (or its token) before completing.
    Cancelled,
    /// The thread executing this query panicked — a pool worker, or a caller
    /// executing it inline.  The panic is caught (a worker that dies anyway is
    /// respawned: size invariant); the submitter gets this error instead of a
    /// propagated panic, an abandoned ticket or a dead connection.
    WorkerPanicked,
    /// A shard stayed unresponsive through every retry and the caller did not
    /// opt into a partial answer (`allow_partial`).
    ShardUnavailable {
        /// The first shard that exhausted its retries.
        shard: usize,
        /// Attempts made against it (1 = no retries configured).
        attempts: u32,
    },
    /// The ticket's result was already redeemed by an earlier `wait`/`try_take`;
    /// a second redemption is a caller bug surfaced as an error, not a panic.
    AlreadyTaken,
    /// Publish-time WAL flush failed: the new snapshot was **not** installed
    /// (durable-before-visible is preserved) and the failure is surfaced instead
    /// of being a silent loss of the guarantee.
    WalFlush(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { depth } => {
                write!(f, "overloaded: submission queue at depth {depth}")
            }
            ServiceError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::WorkerPanicked => write!(f, "query worker panicked"),
            ServiceError::ShardUnavailable { shard, attempts } => {
                write!(f, "shard {shard} unavailable after {attempts} attempt(s)")
            }
            ServiceError::AlreadyTaken => write!(f, "ticket result already taken"),
            ServiceError::WalFlush(e) => write!(f, "durable publish: WAL flush failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why a cooperative checkpoint stopped an execution mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
    /// The query's deadline passed.
    DeadlineExceeded,
}

impl From<Interrupt> for ServiceError {
    fn from(i: Interrupt) -> ServiceError {
        match i {
            Interrupt::Cancelled => ServiceError::Cancelled,
            Interrupt::DeadlineExceeded => ServiceError::DeadlineExceeded,
        }
    }
}

/// What a caller is willing to spend on one query: an optional wall-clock
/// deadline, and whether a shard-degraded partial answer is acceptable.
///
/// The default budget is unbounded and demands completeness — exactly the
/// pre-resilience behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Absolute deadline; `None` = unbounded.
    pub deadline: Option<Instant>,
    /// Accept a degraded result (non-empty
    /// [`QueryResult::missing_shards`](crate::QueryResult::missing_shards)) when shards
    /// stay down, instead of failing with [`ServiceError::ShardUnavailable`].
    pub allow_partial: bool,
}

impl QueryBudget {
    /// An unbounded budget demanding a complete answer (the default).
    pub fn unbounded() -> Self {
        QueryBudget::default()
    }

    /// Builder: set the deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Builder: accept shard-degraded partial results.
    pub fn with_allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }
}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation token: one per submitted query, cloned into every phase
/// of its execution (executor, collator, scatter workers).  Checked cooperatively
/// at phase and chunk boundaries — [`check`](CancelToken::check) is a relaxed
/// atomic load plus, when a deadline is set, one `Instant::now()`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A token that never fires (no deadline, not cancellable by anyone without
    /// a clone of it).
    pub fn unbounded() -> Self {
        CancelToken::default()
    }

    /// The token enforcing a budget's deadline.
    pub(crate) fn for_budget(budget: &QueryBudget) -> Self {
        CancelToken {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: budget.deadline,
            }),
        }
    }

    /// Cancel: every subsequent [`check`](CancelToken::check) on any clone fails
    /// with [`Interrupt::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// The deadline this token enforces, if any.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The cooperative checkpoint: `Err` once the token is cancelled or its
    /// deadline has passed.  Explicit cancellation wins over the deadline when
    /// both have fired.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(Interrupt::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// How the sharded scatter fights transient shard failures: up to `max_attempts`
/// tries per shard, sleeping a decorrelated-jitter backoff between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard (1 = no retries).
    pub max_attempts: u32,
    /// Minimum backoff before a retry.
    pub base_delay: Duration,
    /// Cap on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    pub(crate) fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Builder: set total attempts per shard (min 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Builder: set the minimum backoff.
    pub fn with_base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// Builder: set the backoff cap.
    pub fn with_max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = delay;
        self
    }

    /// The next backoff after sleeping `prev`: decorrelated jitter,
    /// `min(max_delay, uniform(base_delay, prev * 3))`.  Jitter draws from the
    /// caller-held splitmix64 state, so concurrent scatters against one
    /// struggling shard decorrelate instead of stampeding in lockstep.
    pub(crate) fn next_backoff(&self, prev: Duration, rng: &mut u64) -> Duration {
        let base = self.base_delay.as_nanos().max(1) as u64;
        let prev = (prev.as_nanos() as u64).max(base);
        let hi = prev.saturating_mul(3).max(base + 1);
        let span = hi - base;
        let jittered = base + splitmix64(rng) % span;
        Duration::from_nanos(jittered.min(self.max_delay.as_nanos() as u64))
    }
}

/// The splitmix64 step: cheap, seedable, dependency-free randomness for backoff
/// jitter (the same generator the proptest shim uses).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a cooperative sleep stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SleepInterrupt {
    /// The query-level token fired (cancelled or query deadline passed).
    Query(Interrupt),
    /// The per-attempt deadline passed (the shard attempt timed out); the query
    /// itself may still proceed — this is a *shard* failure, not a query failure.
    AttemptTimeout,
}

/// Sleep `total`, sliced so the query token and an optional per-attempt deadline
/// are re-checked every couple of milliseconds — an injected slow shard or stuck
/// query can always be cancelled or timed out mid-sleep, never held to the full
/// injected delay.
pub(crate) fn cooperative_sleep(
    total: Duration,
    token: &CancelToken,
    attempt_deadline: Option<Instant>,
) -> Result<(), SleepInterrupt> {
    const SLICE: Duration = Duration::from_millis(2);
    let end = Instant::now() + total;
    loop {
        token.check().map_err(SleepInterrupt::Query)?;
        let now = Instant::now();
        if attempt_deadline.is_some_and(|d| now >= d) {
            return Err(SleepInterrupt::AttemptTimeout);
        }
        if now >= end {
            return Ok(());
        }
        let mut nap = SLICE.min(end - now);
        if let Some(d) = attempt_deadline {
            nap = nap.min(d.saturating_duration_since(now).max(Duration::from_micros(100)));
        }
        // lint: allow(lock-discipline) -- the sleep IS the mechanism: 2ms slices between deadline re-checks
        std::thread::sleep(nap);
    }
}

/// What the chaos layer injects into one query execution, on whichever thread runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ChaosExec {
    /// No fault.
    #[default]
    None,
    /// Panic inside the execution's `catch_unwind` (the query fails typed; the
    /// executing thread survives).
    Panic,
    /// Panic *outside* the `catch_unwind` of a pool worker (the worker thread dies;
    /// the pool must respawn it and still resolve the in-flight ticket).  Off the
    /// pool there is no worker to kill, so it is injected as [`Panic`](Self::Panic).
    Abort,
    /// Stall the execution for the given duration before running (cooperatively:
    /// the stall honours cancellation and deadlines).
    Stuck(Duration),
}

/// What the chaos layer injects into one shard attempt during a scatter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardFault {
    /// Delay this attempt by the given duration before executing (a slow shard).
    pub delay: Option<Duration>,
    /// Fail this attempt outright (a shard error).
    pub fail: bool,
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Executions started, on any thread (drives the `*_on` nth-query triggers).
    executed: AtomicU64,
    /// Attempts made per shard (drives `fail_shard` / `slow_shard` attempt
    /// budgets).
    shard_attempts: Mutex<Vec<u64>>,
}

/// Read-path fault injection, mirroring the write path's `FaultStorage` /
/// `CrashPoint` methodology: configure which fault fires where, hand the config
/// to a service (`ServiceConfig::with_chaos`),
/// and assert the resilience contract holds under it.  Clones share one trigger
/// state, so a test can keep a handle and inspect attempt counts.
///
/// All triggers compose; an unset trigger never fires.  Chaos is a test/bench
/// facility — a service without a `ChaosConfig` pays zero overhead on these paths.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    slow_shard: Option<(usize, Duration, u64)>,
    fail_shard: Option<(usize, u64)>,
    worker_panic_on: Option<u64>,
    worker_abort_on: Option<u64>,
    stuck_query_on: Option<(u64, Duration)>,
    state: Arc<ChaosState>,
}

impl ChaosConfig {
    /// No faults configured.
    pub fn new() -> Self {
        ChaosConfig::default()
    }

    /// Builder: delay `shard`'s first `attempts` scatter attempts by `delay`
    /// each (`u64::MAX` = every attempt, a permanently slow shard).
    pub fn with_slow_shard(mut self, shard: usize, delay: Duration, attempts: u64) -> Self {
        self.slow_shard = Some((shard, delay, attempts));
        self
    }

    /// Builder: fail `shard`'s first `attempts` scatter attempts outright
    /// (`u64::MAX` = every attempt, a down shard).
    pub fn with_shard_outage(mut self, shard: usize, attempts: u64) -> Self {
        self.fail_shard = Some((shard, attempts));
        self
    }

    /// Builder: the `nth` (1-based) execution panics inside its catch — the query
    /// fails typed, the executing thread (worker, inline caller) survives.
    pub fn with_worker_panic_on(mut self, nth: u64) -> Self {
        self.worker_panic_on = Some(nth);
        self
    }

    /// Builder: the `nth` (1-based) execution, if a pool worker runs it, panics
    /// *outside* the worker's catch — the worker thread dies and the pool must
    /// respawn it; off the pool it is a caught panic.
    pub fn with_worker_abort_on(mut self, nth: u64) -> Self {
        self.worker_abort_on = Some(nth);
        self
    }

    /// Builder: the `nth` (1-based) execution stalls for `delay` before running
    /// (cooperatively — cancellation and deadlines still fire mid-stall).
    pub fn with_stuck_query_on(mut self, nth: u64, delay: Duration) -> Self {
        self.stuck_query_on = Some((nth, delay));
        self
    }

    /// Consume one execution trigger slot and say what to inject.
    pub(crate) fn next_execution(&self) -> ChaosExec {
        let n = self.state.executed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.worker_abort_on == Some(n) {
            return ChaosExec::Abort;
        }
        if self.worker_panic_on == Some(n) {
            return ChaosExec::Panic;
        }
        if let Some((nth, delay)) = self.stuck_query_on {
            if nth == n {
                return ChaosExec::Stuck(delay);
            }
        }
        ChaosExec::None
    }

    /// Record one attempt against `shard` and say what fault it suffers.
    pub(crate) fn shard_attempt(&self, shard: usize) -> ShardFault {
        let mut attempts =
            self.state.shard_attempts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if attempts.len() <= shard {
            attempts.resize(shard + 1, 0);
        }
        // lint: allow(no-panic-serving) -- the vec was just resized to cover `shard`
        attempts[shard] += 1;
        // lint: allow(no-panic-serving) -- the vec was just resized to cover `shard`
        let nth = attempts[shard];
        drop(attempts);
        let mut fault = ShardFault::default();
        if let Some((s, delay, budget)) = self.slow_shard {
            if s == shard && nth <= budget {
                fault.delay = Some(delay);
            }
        }
        if let Some((s, budget)) = self.fail_shard {
            if s == shard && nth <= budget {
                fault.fail = true;
            }
        }
        fault
    }

    /// Attempts made against `shard` so far (for test assertions on retry
    /// behaviour).
    pub fn attempts_against(&self, shard: usize) -> u64 {
        let attempts =
            self.state.shard_attempts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        attempts.get(shard).copied().unwrap_or(0)
    }

    /// Executions started so far (pool workers, inline callers, sharded callers).
    pub fn executions(&self) -> u64 {
        self.state.executed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let token = CancelToken::unbounded();
        assert!(token.check().is_ok());
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_fires_on_every_clone() {
        let token = CancelToken::for_budget(&QueryBudget::unbounded());
        let clone = token.clone();
        token.cancel();
        assert_eq!(clone.check(), Err(Interrupt::Cancelled));
        assert_eq!(ServiceError::from(Interrupt::Cancelled), ServiceError::Cancelled);
    }

    #[test]
    fn expired_deadline_fires_and_cancellation_wins_over_it() {
        let budget = QueryBudget::unbounded().with_deadline(Duration::ZERO);
        let token = CancelToken::for_budget(&budget);
        assert_eq!(token.check(), Err(Interrupt::DeadlineExceeded));
        token.cancel();
        assert_eq!(token.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy::default()
            .with_base_delay(Duration::from_micros(100))
            .with_max_delay(Duration::from_millis(5));
        let mut rng = 42u64;
        let mut prev = policy.base_delay;
        for _ in 0..64 {
            let next = policy.next_backoff(prev, &mut rng);
            assert!(next >= policy.base_delay, "below base: {next:?}");
            assert!(next <= policy.max_delay, "above cap: {next:?}");
            prev = next;
        }
    }

    #[test]
    fn cooperative_sleep_honours_token_and_attempt_deadline() {
        let token = CancelToken::for_budget(&QueryBudget::unbounded());
        token.cancel();
        assert_eq!(
            cooperative_sleep(Duration::from_secs(5), &token, None),
            Err(SleepInterrupt::Query(Interrupt::Cancelled))
        );
        let fresh = CancelToken::unbounded();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            cooperative_sleep(Duration::from_secs(5), &fresh, Some(past)),
            Err(SleepInterrupt::AttemptTimeout)
        );
        assert_eq!(cooperative_sleep(Duration::ZERO, &fresh, None), Ok(()));
    }

    #[test]
    fn chaos_triggers_fire_on_configured_slots_only() {
        let chaos = ChaosConfig::new()
            .with_worker_panic_on(2)
            .with_stuck_query_on(3, Duration::from_millis(1));
        assert_eq!(chaos.next_execution(), ChaosExec::None);
        assert_eq!(chaos.next_execution(), ChaosExec::Panic);
        assert_eq!(chaos.next_execution(), ChaosExec::Stuck(Duration::from_millis(1)));
        assert_eq!(chaos.next_execution(), ChaosExec::None);
        assert_eq!(chaos.executions(), 4);

        let shard_chaos = ChaosConfig::new().with_shard_outage(1, 2).with_slow_shard(
            0,
            Duration::from_millis(1),
            u64::MAX,
        );
        assert!(shard_chaos.shard_attempt(0).delay.is_some());
        assert!(!shard_chaos.shard_attempt(0).fail);
        assert!(shard_chaos.shard_attempt(1).fail);
        assert!(shard_chaos.shard_attempt(1).fail);
        assert!(!shard_chaos.shard_attempt(1).fail, "outage budget exhausted");
        assert_eq!(shard_chaos.attempts_against(1), 3);
    }
}
