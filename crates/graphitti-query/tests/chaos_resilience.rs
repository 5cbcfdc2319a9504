//! The chaos battery: randomized fault injection on the read path, asserting the
//! resilience contract end to end (see `resilience` module docs):
//!
//! * **Liveness** — every accepted ticket resolves; a shed submission fails typed
//!   at the door.  No query ever hangs, whatever faults fire around it.
//! * **Correctness** — a non-degraded result is byte-identical to the
//!   [`ReferenceExecutor`]'s answer; a degraded result is byte-identical to the
//!   same query executed with the missing shards masked out — an exact, *marked*
//!   subset, never a torn mix of shard states.
//! * **Metric consistency** — `shed + completed + failed == submitted` once every
//!   ticket has resolved, and the pool-size invariant (`live_workers == workers`)
//!   is restored after every injected worker death.
//!
//! The `chaos_quick_*` tests are the bounded CI gate (slow shard, shard outage,
//! worker panic/abort, overload — at shard/worker counts 1 and 4); the battery
//! and the proptest block drive randomized schedules over the same contract.

mod common;

use std::time::{Duration, Instant};

use common::{object_domains, random_query};
use datagen::rng::WorkloadRng;
use graphitti_core::{
    DataType, Graphitti, Marker, ObjectId, ShardCut, ShardedSystem, Snapshot, WriteSystem,
};
use graphitti_query::{
    ChaosConfig, Query, QueryBudget, QueryResult, QueryService, ReferenceExecutor, RetryPolicy,
    Service, ServiceConfig, ServiceError, ShardedExecutor, ShardedQueryService,
    ShardedServiceConfig, Target, Version,
};

fn result_bytes(result: &QueryResult) -> Vec<u8> {
    result.to_json().into_bytes()
}

/// One annotation corpus, written once for an unsharded and an N-shard system alike.
fn write_corpus<S: WriteSystem>(mut sys: S, n: u64) -> S {
    let term = sys.ontology_edit(|o| o.add_concept("Motif"));
    for i in 0..6u64 {
        sys.register_sequence(format!("s{i}"), DataType::DnaSequence, 100_000, "chr1");
    }
    for i in 0..n {
        let comment = if i % 2 == 0 {
            format!("protease motif {i}")
        } else {
            format!("quiet background note {i}")
        };
        let mut builder = sys
            .annotate()
            .comment(comment)
            .mark(ObjectId(i % 6), Marker::interval(i * 90, i * 90 + 40));
        if i % 3 == 0 {
            builder = builder.cite_term(term);
        }
        builder.commit().unwrap();
    }
    sys
}

/// Build the same annotation corpus into an unsharded oracle and an N-shard
/// system by identical incremental replay (so global ids *and* a-graph node ids
/// coincide — see the sharded equivalence battery).
fn dual_corpus(shards: usize, n: u64) -> (Graphitti, ShardedSystem) {
    (write_corpus(Graphitti::new(), n), write_corpus(ShardedSystem::new(shards), n))
}

fn corpus(n: u64) -> Graphitti {
    write_corpus(Graphitti::new(), n)
}

// The pool tests run one body (`…_on`) over both versions a service serves: the
// corpus's snapshot, and a 4-shard cut of the same history (global ids coincide, so
// the unsharded corpus is the reference for both).

fn snapshot_of(n: u64) -> Snapshot {
    corpus(n).snapshot()
}

fn cut_of(n: u64) -> ShardCut {
    write_corpus(ShardedSystem::new(4), n).capture_cut()
}

/// A fast retry policy for tests: real retries, negligible backoff wall-clock.
fn quick_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(attempts)
        .with_base_delay(Duration::from_micros(200))
        .with_max_delay(Duration::from_millis(2))
}

/// Poll (bounded) until `cond` holds — the respawn guard runs on the dying
/// worker thread *after* the in-flight ticket resolves, so pool-size assertions
/// must wait for it.
fn poll_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "not reached within 5s: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Shard outage under `allow_partial` degrades to the masked-reference answer
/// (the exact marked subset); without it, the same outage fails fast with
/// [`ServiceError::ShardUnavailable`] after the whole retry budget.
#[test]
fn chaos_quick_shard_outage_degrades_to_masked_reference() {
    for shards in [1usize, 4] {
        let (oracle, sharded) = dual_corpus(shards, 30);
        let cut = sharded.capture_cut();
        let reference = ReferenceExecutor::new(&oracle);
        let domains = object_domains(&oracle);
        let mut rng = WorkloadRng::new(0xD06 ^ shards as u64);
        let down = shards - 1;
        let service = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default()
                .with_cache_capacity(0)
                .with_retry(quick_retry(2))
                .with_chaos(ChaosConfig::new().with_shard_outage(down, u64::MAX)),
        );
        for i in 0..6 {
            let q = random_query(&mut rng, &oracle, &domains);
            let r = service
                .run_with_budget(q.clone(), QueryBudget::unbounded().with_allow_partial(true))
                .expect("allow_partial turns the outage into a degraded answer");
            assert_eq!(r.missing_shards, vec![down], "shards={shards} query #{i}");
            let masked = ShardedExecutor::new(&cut)
                .with_allow_partial(true)
                .with_shard_mask(!(1u64 << down))
                .run(&q);
            assert_eq!(
                result_bytes(&r),
                result_bytes(&masked),
                "degraded answer must be the exact marked subset (shards={shards}, query #{i})"
            );
            assert_eq!(
                service.run(q.clone()),
                Err(ServiceError::ShardUnavailable { shard: down, attempts: 2 }),
                "without allow_partial the outage must fail fast, typed"
            );
            // The same query with no fault in the way is complete and reference-exact.
            let clean = ShardedExecutor::new(&cut).run(&q);
            assert!(!clean.is_degraded());
            assert_eq!(result_bytes(&clean), result_bytes(&reference.run(&q)));
        }
        let m = service.metrics();
        assert_eq!(m.degraded, 6);
        assert_eq!(m.completed, 6);
        assert_eq!(m.failed, 6);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }
}

/// A slow shard times out per attempt, is retried with backoff, and the query
/// completes (reference-exact) within the retry budget; a *permanently* slow
/// shard exhausts the budget and either degrades or fails typed.
#[test]
fn chaos_quick_slow_shard_times_out_retries_and_recovers() {
    for shards in [1usize, 4] {
        let (oracle, sharded) = dual_corpus(shards, 30);
        let cut = sharded.capture_cut();
        let slow = shards - 1;
        let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
        let expected = result_bytes(&ReferenceExecutor::new(&oracle).run(&q));

        // One slow attempt, then healthy: the retry rides it out.
        let chaos = ChaosConfig::new().with_slow_shard(slow, Duration::from_millis(60), 1);
        let service = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default()
                .with_cache_capacity(0)
                .with_shard_timeout(Duration::from_millis(10))
                .with_retry(quick_retry(3))
                .with_chaos(chaos.clone()),
        );
        let r = service.run(q.clone()).expect("one timed-out attempt is within the retry budget");
        assert!(!r.is_degraded());
        assert_eq!(result_bytes(&r), expected, "shards={shards}");
        assert_eq!(chaos.attempts_against(slow), 2, "one timeout + one clean retry");

        // Permanently slow: the budget exhausts — typed fail-fast, or a marked
        // subset when the caller opted into partial answers.
        let strict = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default()
                .with_cache_capacity(0)
                .with_shard_timeout(Duration::from_millis(10))
                .with_retry(quick_retry(3))
                .with_chaos(ChaosConfig::new().with_slow_shard(
                    slow,
                    Duration::from_millis(60),
                    u64::MAX,
                )),
        );
        assert_eq!(
            strict.run(q.clone()),
            Err(ServiceError::ShardUnavailable { shard: slow, attempts: 3 }),
            "shards={shards}"
        );
        let partial = strict
            .run_with_budget(q.clone(), QueryBudget::unbounded().with_allow_partial(true))
            .expect("partial answer accepted");
        assert_eq!(partial.missing_shards, vec![slow]);
        let masked = ShardedExecutor::new(&cut)
            .with_allow_partial(true)
            .with_shard_mask(!(1u64 << slow))
            .run(&q);
        assert_eq!(result_bytes(&partial), result_bytes(&masked));
    }
}

/// Regression (retry-nap budget clamp): the backoff must never nap the query
/// budget away.  Unclamped, the 600–700ms decorrelated-jitter naps below would
/// sleep straight past the 1.2s deadline before the third attempt (≥1.2s of
/// accumulated backoff), converting a recoverable outage into
/// [`ServiceError::DeadlineExceeded`] with a retry still owed.  Clamped, the
/// final nap is pegged to `remaining - estimated attempt cost`, so the tight
/// deadline still gets every configured attempt and the query completes.
#[test]
fn tight_deadline_retry_schedule_gets_all_configured_attempts() {
    for shards in [1usize, 4] {
        let (oracle, sharded) = dual_corpus(shards, 24);
        let cut = sharded.capture_cut();
        let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
        let expected = result_bytes(&ReferenceExecutor::new(&oracle).run(&q));
        let down = shards - 1;
        let chaos = ChaosConfig::new().with_shard_outage(down, 2);
        let service = ShardedQueryService::new(
            cut,
            ShardedServiceConfig::default()
                .with_cache_capacity(0)
                .with_shard_timeout(Duration::from_millis(200))
                .with_retry(
                    RetryPolicy::default()
                        .with_max_attempts(3)
                        .with_base_delay(Duration::from_millis(600))
                        .with_max_delay(Duration::from_millis(700)),
                )
                .with_chaos(chaos.clone()),
        );
        let budget = QueryBudget::unbounded().with_deadline(Duration::from_millis(1_200));
        let r = service
            .run_with_budget(q.clone(), budget)
            .expect("clamped backoffs leave room for the recovering third attempt");
        assert!(!r.is_degraded(), "shards={shards}");
        assert_eq!(result_bytes(&r), expected, "shards={shards}");
        assert_eq!(chaos.attempts_against(down), 3, "two outages + one clean retry");
    }
}

/// Regression (retry-nap budget clamp, the other edge): when the remaining
/// budget cannot fit even one more attempt, the retry loop reports the shard
/// down *now* — the consistent typed [`ServiceError::ShardUnavailable`] (or a
/// marked degraded subset under `allow_partial`) — instead of sleeping out the
/// budget and surfacing [`ServiceError::DeadlineExceeded`].
#[test]
fn exhausted_retry_budget_fails_fast_and_typed() {
    let (_oracle, sharded) = dual_corpus(2, 24);
    let cut = sharded.capture_cut();
    let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let config = ShardedServiceConfig::default()
        .with_cache_capacity(0)
        // The attempt-cost estimate (the shard timeout) exceeds the whole 300ms
        // budget: after the first failure there is provably no room for a
        // retry, so the loop must give up on the shard immediately.
        .with_shard_timeout(Duration::from_millis(500))
        .with_retry(quick_retry(3))
        .with_chaos(ChaosConfig::new().with_shard_outage(1, u64::MAX));
    let service = ShardedQueryService::new(cut.clone(), config);
    let started = Instant::now();
    let strict_budget = QueryBudget::unbounded().with_deadline(Duration::from_millis(300));
    match service.run_with_budget(q.clone(), strict_budget) {
        Err(ServiceError::ShardUnavailable { shard, attempts }) => {
            assert_eq!(shard, 1);
            assert_eq!(attempts, 1, "no room for a retry: exactly the attempt that fit");
        }
        other => panic!("expected a fast typed shard failure, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "fail fast — before the deadline, not by deadline-ing out"
    );
    let partial = service
        .run_with_budget(
            q.clone(),
            QueryBudget::unbounded()
                .with_deadline(Duration::from_millis(300))
                .with_allow_partial(true),
        )
        .expect("opted-in callers get the marked subset, not an error");
    assert_eq!(partial.missing_shards, vec![1]);
    let masked =
        ShardedExecutor::new(&cut).with_allow_partial(true).with_shard_mask(!(1u64 << 1)).run(&q);
    assert_eq!(result_bytes(&partial), result_bytes(&masked));
}

/// An injected worker panic (inside the catch) and an injected worker abort
/// (escaping it) each fail exactly one query with a typed error; the pool keeps
/// serving reference-exact answers and keeps its size — respawning iff the
/// thread actually died.
#[test]
fn chaos_quick_worker_panic_and_abort_keep_pool_serving() {
    let sys = corpus(24);
    let domains = object_domains(&sys);
    let reference = ReferenceExecutor::new(&sys);
    for workers in [1usize, 4] {
        for abort in [false, true] {
            let chaos = if abort {
                ChaosConfig::new().with_worker_abort_on(2)
            } else {
                ChaosConfig::new().with_worker_panic_on(2)
            };
            let service = QueryService::new(
                sys.snapshot(),
                ServiceConfig::default()
                    .with_workers(workers)
                    .with_cache_capacity(0)
                    .with_chaos(chaos),
            );
            let mut rng = WorkloadRng::new(0xC0A5 ^ workers as u64);
            let mut panics = 0u64;
            for i in 0..6 {
                let q = random_query(&mut rng, &sys, &domains);
                match service.run(q.clone()) {
                    Ok(r) => assert_eq!(
                        result_bytes(&r),
                        result_bytes(&reference.run(&q)),
                        "workers={workers} abort={abort} query #{i}"
                    ),
                    Err(ServiceError::WorkerPanicked) => panics += 1,
                    Err(e) => panic!("workers={workers} abort={abort}: unexpected error: {e}"),
                }
            }
            assert_eq!(panics, 1, "exactly the injected execution fails");
            poll_until("pool size restored", || service.live_workers() == workers);
            let expect_respawns = u64::from(abort);
            poll_until("respawn accounted", || {
                service.metrics().workers_respawned == expect_respawns
            });
            let m = service.metrics();
            assert_eq!(m.worker_panics, 1);
            assert_eq!(m.shed + m.completed + m.failed, m.submitted);
        }
    }
}

/// Admission control under overload: once the bounded queue is full, submission
/// sheds with a typed [`ServiceError::Overloaded`] — and after the stall drains,
/// the service admits and serves again.  Every accepted ticket resolves.
#[test]
fn chaos_quick_overload_sheds_typed_and_recovers() {
    let sys = corpus(24);
    let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let expected = result_bytes(&ReferenceExecutor::new(&sys).run(&q));
    let service = QueryService::new(
        sys.snapshot(),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0)
            .with_chaos(ChaosConfig::new().with_stuck_query_on(1, Duration::from_millis(150))),
    );
    // Fill the single-slot queue behind the stuck execution until admission sheds.
    let mut accepted = vec![service.submit(q.clone()).unwrap()];
    let shed_err = loop {
        match service.submit(q.clone()) {
            Ok(ticket) => accepted.push(ticket),
            Err(e) => break e,
        }
    };
    assert_eq!(shed_err, ServiceError::Overloaded { depth: 1 });
    // Liveness: the stall is bounded, every accepted ticket resolves correctly.
    for ticket in accepted {
        assert_eq!(result_bytes(&ticket.wait().unwrap()), expected);
    }
    // Recovery: the queue drained; a fresh submission is admitted and served.
    assert_eq!(result_bytes(&service.run(q.clone()).unwrap()), expected);
    let m = service.metrics();
    assert!(m.shed >= 1, "admission control must have shed: {m:?}");
    assert_eq!(m.failed, 0);
    assert_eq!(m.shed + m.completed + m.failed, m.submitted);
}

/// The randomized battery: random queries under random chaos schedules, budgets
/// and cancellations, on both serving layers.  Asserts the full contract —
/// liveness, correctness (reference- or masked-reference-exact), typed errors
/// only in their legal contexts, and metric consistency — every round.
#[test]
fn randomized_chaos_battery_liveness_correctness_and_metrics() {
    let mut rng = WorkloadRng::new(0x0BA7_7E41);

    // Pool rounds: stuck/panic/abort chaos + small bounded queues + deadlines +
    // ticket cancellation, sixteen submissions a round.
    let sys = corpus(40);
    let domains = object_domains(&sys);
    let reference = ReferenceExecutor::new(&sys);
    for round in 0..6u64 {
        let mut chaos = ChaosConfig::new()
            .with_stuck_query_on(1 + rng.range_u64(0, 4), Duration::from_millis(40));
        if rng.chance(0.5) {
            chaos = chaos.with_worker_panic_on(2 + rng.range_u64(0, 6));
        } else {
            chaos = chaos.with_worker_abort_on(2 + rng.range_u64(0, 6));
        }
        let workers = 1 + rng.range_usize(0, 3);
        let capacity = 1 + rng.range_usize(0, 3);
        let service = QueryService::new(
            sys.snapshot(),
            ServiceConfig::default()
                .with_workers(workers)
                .with_queue_capacity(capacity)
                .with_cache_capacity(0)
                .with_chaos(chaos),
        );
        let mut overloaded = 0u64;
        let mut tickets = Vec::new();
        for _ in 0..16 {
            let q = random_query(&mut rng, &sys, &domains);
            let budget = if rng.chance(0.15) {
                QueryBudget::unbounded().with_deadline(Duration::ZERO)
            } else {
                QueryBudget::unbounded()
            };
            match service.submit_with_budget(q.clone(), budget) {
                Ok(ticket) => {
                    let cancelled = rng.chance(0.1);
                    if cancelled {
                        ticket.cancel();
                    }
                    tickets.push((q, budget, cancelled, ticket));
                }
                Err(ServiceError::Overloaded { depth }) => {
                    assert_eq!(depth, capacity, "round {round}: shed depth is the full queue");
                    overloaded += 1;
                }
                Err(e) => panic!("round {round}: submission failed untyped-ly: {e}"),
            }
        }
        // Liveness + correctness: every accepted ticket resolves, each into a
        // reference-exact result or a typed error legal for its schedule.
        for (q, budget, cancelled, ticket) in tickets {
            match ticket.wait() {
                Ok(r) => {
                    assert!(!r.is_degraded(), "the unsharded pool never degrades");
                    assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q)));
                }
                Err(ServiceError::DeadlineExceeded) => assert!(budget.deadline.is_some()),
                Err(ServiceError::Cancelled) => assert!(cancelled),
                Err(ServiceError::WorkerPanicked) => {}
                Err(e) => panic!("round {round}: illegal ticket error: {e}"),
            }
        }
        let m = service.metrics();
        assert_eq!(m.submitted, 16);
        assert_eq!(m.shed, overloaded);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted, "round {round}: {m:?}");
        poll_until("pool size restored", || service.live_workers() == workers);
    }

    // Sharded rounds: outage/slow-shard chaos with finite or permanent fault
    // budgets, partiality on and off, at shard counts 1/2/4.
    for round in 0..4u64 {
        let shards = [1usize, 2, 4][rng.range_usize(0, 3)];
        let (oracle, sharded) = dual_corpus(shards, 24);
        let cut = sharded.capture_cut();
        let reference = ReferenceExecutor::new(&oracle);
        let domains = object_domains(&oracle);
        let target = rng.range_usize(0, shards);
        let fault_budget = if rng.chance(0.5) { u64::MAX } else { rng.range_u64(1, 3) };
        let chaos = if rng.chance(0.5) {
            ChaosConfig::new().with_shard_outage(target, fault_budget)
        } else {
            ChaosConfig::new().with_slow_shard(target, Duration::from_millis(40), fault_budget)
        };
        let service = ShardedQueryService::new(
            cut.clone(),
            ShardedServiceConfig::default()
                .with_cache_capacity(0)
                .with_shard_timeout(Duration::from_millis(8))
                .with_retry(quick_retry(2))
                .with_chaos(chaos),
        );
        let mut degraded = 0u64;
        for i in 0..6 {
            let q = random_query(&mut rng, &oracle, &domains);
            let allow = rng.chance(0.6);
            match service
                .run_with_budget(q.clone(), QueryBudget::unbounded().with_allow_partial(allow))
            {
                Ok(r) if !r.is_degraded() => {
                    assert_eq!(
                        result_bytes(&r),
                        result_bytes(&reference.run(&q)),
                        "round {round} shards={shards} query #{i}"
                    );
                }
                Ok(r) => {
                    degraded += 1;
                    assert!(allow, "degraded answers require opt-in");
                    assert_eq!(r.missing_shards, vec![target]);
                    let masked = ShardedExecutor::new(&cut)
                        .with_allow_partial(true)
                        .with_shard_mask(!(1u64 << target))
                        .run(&q);
                    assert_eq!(
                        result_bytes(&r),
                        result_bytes(&masked),
                        "round {round} shards={shards} query #{i}: not the marked subset"
                    );
                }
                Err(ServiceError::ShardUnavailable { shard, attempts }) => {
                    assert!(!allow, "opted-in callers degrade instead of failing");
                    assert_eq!(shard, target);
                    assert_eq!(attempts, 2);
                }
                Err(e) => panic!("round {round} shards={shards}: illegal error: {e}"),
            }
        }
        let m = service.metrics();
        assert_eq!(m.submitted, 6);
        assert_eq!(m.degraded, degraded);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted, "round {round}: {m:?}");
    }
}

/// Regression: a query that panics its worker must neither take the pool down
/// nor leak its ticket — subsequent submissions on the *same* service keep
/// completing, at pool size 1 (no spare worker to hide behind) and 4, over a
/// snapshot and over a cut.
#[test]
fn pool_survives_panicking_query_and_keeps_completing() {
    pool_survives_panicking_query_and_keeps_completing_on(snapshot_of);
    pool_survives_panicking_query_and_keeps_completing_on(cut_of);
}

fn pool_survives_panicking_query_and_keeps_completing_on<V: Version>(version: fn(u64) -> V) {
    let sys = corpus(16);
    let q = Query::new(Target::AnnotationContents).with_phrase("protease motif");
    let expected = result_bytes(&ReferenceExecutor::new(&sys).run(&q));
    for workers in [1usize, 4] {
        let service = Service::new(
            version(16),
            ServiceConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0)
                .with_chaos(ChaosConfig::new().with_worker_panic_on(1).with_worker_abort_on(3)),
        );
        assert_eq!(service.run(q.clone()), Err(ServiceError::WorkerPanicked));
        assert_eq!(result_bytes(&service.run(q.clone()).unwrap()), expected);
        assert_eq!(service.run(q.clone()), Err(ServiceError::WorkerPanicked));
        for _ in 0..4 {
            assert_eq!(result_bytes(&service.run(q.clone()).unwrap()), expected);
        }
        poll_until("pool size restored", || service.live_workers() == workers);
        let m = service.metrics();
        assert_eq!(m.worker_panics, 2);
        assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }
}

mod resilience_props {
    use super::*;
    use proptest::prelude::*;

    /// The trichotomy property on the sharded path (a plain function so the
    /// `proptest!` macro stays thin): under an arbitrary chaos schedule, budget
    /// and deadline, every query ends in exactly one of (1) a complete result
    /// byte-identical to the reference, (2) a marked-degraded subset identical
    /// to the masked reference, or (3) a typed error legal for the schedule.
    fn check_sharded(
        seed: u64,
        shards: usize,
        n: u64,
        chaos_pick: u8,
        target: usize,
        allow_partial: bool,
        expire: bool,
    ) {
        let target = target % shards;
        let (oracle, sharded) = dual_corpus(shards, n);
        let cut = sharded.capture_cut();
        let reference = ReferenceExecutor::new(&oracle);
        let domains = object_domains(&oracle);
        let mut rng = WorkloadRng::new(seed);
        let mut config =
            ShardedServiceConfig::default().with_cache_capacity(0).with_retry(quick_retry(2));
        match chaos_pick {
            1 => {
                config = config.with_chaos(ChaosConfig::new().with_shard_outage(target, 1));
            }
            2 => {
                config = config.with_chaos(ChaosConfig::new().with_shard_outage(target, u64::MAX));
            }
            3 => {
                config = config
                    .with_chaos(ChaosConfig::new().with_slow_shard(
                        target,
                        Duration::from_millis(40),
                        u64::MAX,
                    ))
                    .with_shard_timeout(Duration::from_millis(8));
            }
            _ => {}
        }
        let service = ShardedQueryService::new(cut.clone(), config);
        let mut budget = QueryBudget::unbounded().with_allow_partial(allow_partial);
        if expire {
            budget = budget.with_deadline(Duration::ZERO);
        }
        for _ in 0..3 {
            let q = random_query(&mut rng, &oracle, &domains);
            match service.run_with_budget(q.clone(), budget) {
                Ok(r) => {
                    if r.missing_shards.is_empty() {
                        prop_assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q)));
                    } else {
                        prop_assert!(allow_partial, "degraded answers require opt-in");
                        prop_assert_eq!(r.missing_shards.clone(), vec![target]);
                        let masked = ShardedExecutor::new(&cut)
                            .with_allow_partial(true)
                            .with_shard_mask(!(1u64 << target))
                            .run(&q);
                        prop_assert_eq!(result_bytes(&r), result_bytes(&masked));
                    }
                }
                Err(ServiceError::DeadlineExceeded) => prop_assert!(expire),
                Err(ServiceError::ShardUnavailable { shard, .. }) => {
                    prop_assert!(!allow_partial);
                    prop_assert!(chaos_pick == 2 || chaos_pick == 3, "a healthy scatter failed");
                    prop_assert_eq!(shard, target);
                }
                Err(e) => prop_assert!(false, "illegal error for this schedule: {:?}", e),
            }
        }
        let m = service.metrics();
        prop_assert_eq!(m.submitted, 3);
        prop_assert_eq!(m.shed + m.completed + m.failed, m.submitted);
    }

    /// The trichotomy property on the pool path, over a snapshot or a cut: random
    /// worker faults, one expired deadline and arbitrary ticket cancellations —
    /// every ticket resolves into a reference-exact answer or a typed error legal
    /// for its schedule, and the pool-size invariant is restored.
    fn check_pool<V: Version>(
        version: fn(u64) -> V,
        seed: u64,
        workers: usize,
        nth: u64,
        kind: u8,
        cancel_mask: u64,
    ) {
        let sys = corpus(16);
        let domains = object_domains(&sys);
        let reference = ReferenceExecutor::new(&sys);
        let mut rng = WorkloadRng::new(seed);
        let chaos = match kind {
            0 => ChaosConfig::new().with_worker_panic_on(nth),
            1 => ChaosConfig::new().with_worker_abort_on(nth),
            _ => ChaosConfig::new().with_stuck_query_on(nth, Duration::from_millis(30)),
        };
        let service = Service::new(
            version(16),
            ServiceConfig::default().with_workers(workers).with_cache_capacity(0).with_chaos(chaos),
        );
        let mut tickets = Vec::new();
        for i in 0..6u64 {
            let q = random_query(&mut rng, &sys, &domains);
            let budget = if i == 2 {
                QueryBudget::unbounded().with_deadline(Duration::ZERO)
            } else {
                QueryBudget::unbounded()
            };
            let ticket =
                service.submit_with_budget(q.clone(), budget).expect("unbounded queue never sheds");
            let cancelled = i < 3 && cancel_mask & (1 << i) != 0;
            if cancelled {
                ticket.cancel();
            }
            tickets.push((q, i == 2, cancelled, ticket));
        }
        for (q, deadlined, cancelled, ticket) in tickets {
            match ticket.wait() {
                Ok(r) => {
                    prop_assert!(!r.is_degraded());
                    prop_assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q)));
                }
                Err(ServiceError::DeadlineExceeded) => prop_assert!(deadlined),
                Err(ServiceError::Cancelled) => prop_assert!(cancelled),
                Err(ServiceError::WorkerPanicked) => prop_assert!(kind < 2),
                Err(e) => prop_assert!(false, "illegal error for this schedule: {:?}", e),
            }
        }
        let m = service.metrics();
        prop_assert_eq!(m.submitted, 6);
        prop_assert_eq!(m.shed, 0);
        prop_assert_eq!(m.shed + m.completed + m.failed, m.submitted);
        poll_until("pool size restored", || service.live_workers() == workers);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sharded_queries_end_complete_degraded_or_typed(
            seed in any::<u64>(),
            shards in 1usize..5,
            n in 4u64..20,
            chaos_pick in 0u8..4,
            target in 0usize..4,
            allow_partial in any::<bool>(),
            expire in any::<bool>(),
        ) {
            check_sharded(seed, shards, n, chaos_pick, target, allow_partial, expire);
        }

        #[test]
        fn pool_queries_end_complete_or_typed(
            seed in any::<u64>(),
            workers in 1usize..4,
            nth in 1u64..6,
            kind in 0u8..3,
            cancel_mask in 0u64..8,
        ) {
            check_pool(snapshot_of, seed, workers, nth, kind, cancel_mask);
            check_pool(cut_of, seed, workers, nth, kind, cancel_mask);
        }
    }
}
