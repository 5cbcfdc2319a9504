//! The resilience substrate for query serving: typed service errors, per-query
//! budgets, cooperative cancellation, and the read-path chaos-injection layer.
//!
//! The pieces compose into one contract, enforced end to end by the chaos battery
//! in `tests/chaos_resilience.rs`: **every submitted query ends in exactly one of**
//!
//! 1. a *complete* result, byte-identical to the reference executor's answer; or
//! 2. a typed [`ServiceError`] — never a panic out of `wait`, never a hang.
//!
//! A shard of a cut is a snapshot in the serving process, so a scatter has no
//! partial failure of its own to report: it fails only as a whole query does.
//!
//! * [`QueryBudget`] is what callers state: an optional deadline.
//! * [`CancelToken`] is how the budget travels: one shared token per submitted
//!   query, checked at phase and chunk boundaries inside
//!   [`Executor`](crate::exec::Executor) seed/verify/collate loops, so an expired
//!   or abandoned query stops burning its worker mid-flight.
//! * [`ChaosConfig`] injects read-path faults — worker panic, worker abort, stuck
//!   query — mirroring the write path's `FaultStorage`/`CrashPoint` methodology
//!   from the durability work.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
/// deadline.
///
/// The default budget is unbounded — exactly the pre-resilience behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Absolute deadline; `None` = unbounded.
    pub deadline: Option<Instant>,
}

impl QueryBudget {
    /// An unbounded budget (the default).
    pub fn unbounded() -> Self {
        QueryBudget::default()
    }

    /// Builder: set the deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation token: one per submitted query, cloned into every phase
/// of its execution (executor, collator, every shard of a scatter).  Checked cooperatively
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

/// Sleep `total`, sliced so the query token is re-checked every couple of
/// milliseconds — an injected stuck query can always be cancelled or timed out
/// mid-sleep, never held to the full injected delay.
pub(crate) fn cooperative_sleep(total: Duration, token: &CancelToken) -> Result<(), Interrupt> {
    const SLICE: Duration = Duration::from_millis(2);
    let end = Instant::now() + total;
    loop {
        token.check()?;
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        // lint: allow(lock-discipline) -- the sleep IS the mechanism: 2ms slices between deadline re-checks
        std::thread::sleep(SLICE.min(end - now));
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

/// Read-path fault injection, mirroring the write path's `FaultStorage` /
/// `CrashPoint` methodology: configure which fault fires where, hand the config
/// to a service (`ServiceConfig::with_chaos`),
/// and assert the resilience contract holds under it.  Clones share one execution
/// counter, so a test can keep a handle and read how many executions drew a slot.
///
/// All triggers compose; an unset trigger never fires.  Chaos is a test/bench
/// facility — a service without a `ChaosConfig` pays zero overhead on these paths.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    worker_panic_on: Option<u64>,
    worker_abort_on: Option<u64>,
    stuck_query_on: Option<(u64, Duration)>,
    /// Slots drawn, one per execution in the order executions claim them (drives
    /// the `*_on` nth-execution triggers).
    executed: Arc<AtomicU64>,
}

impl ChaosConfig {
    /// No faults configured.
    pub fn new() -> Self {
        ChaosConfig::default()
    }

    /// Builder: the `nth` (1-based) execution panics inside its catch — the query
    /// fails typed, the executing thread (worker, inline caller) survives.
    // lint: allow(dead-pub) -- test oracle: tests/chaos_resilience.rs, net tests/net_e2e.rs
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
        let n = self.executed.fetch_add(1, Ordering::Relaxed) + 1;
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

    /// Execution slots drawn so far, on any thread, over a snapshot or a cut.
    // lint: allow(dead-pub) -- test oracle: net tests/net_e2e.rs
    pub fn executions(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        assert!(CancelToken::unbounded().check().is_ok());
        assert!(CancelToken::for_budget(&QueryBudget::unbounded()).check().is_ok());
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
    fn cooperative_sleep_honours_the_token() {
        let token = CancelToken::for_budget(&QueryBudget::unbounded());
        token.cancel();
        assert_eq!(cooperative_sleep(Duration::from_secs(5), &token), Err(Interrupt::Cancelled));
        let expired =
            CancelToken::for_budget(&QueryBudget::unbounded().with_deadline(Duration::ZERO));
        assert_eq!(
            cooperative_sleep(Duration::from_secs(5), &expired),
            Err(Interrupt::DeadlineExceeded)
        );
        assert_eq!(cooperative_sleep(Duration::ZERO, &CancelToken::unbounded()), Ok(()));
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
    }
}
