//! The chaos battery: randomized fault injection on the read path, asserting the
//! resilience contract end to end (see `resilience` module docs):
//!
//! * **Liveness** — every accepted ticket resolves; a shed submission fails typed
//!   at the door.  No query ever hangs, whatever faults fire around it.
//! * **Correctness** — every result is byte-identical to the
//!   [`ReferenceExecutor`]'s answer, over a snapshot and over a cut alike; every
//!   other outcome is a typed error legal for the schedule.
//! * **Metric consistency** — `shed + completed + failed == submitted` once every
//!   ticket has resolved, and the pool-size invariant (`live_workers == workers`)
//!   is restored after every injected worker death.
//!
//! The `chaos_quick_*` tests are the bounded CI gate (worker panic/abort at worker
//! counts 1 and 4, overload); the battery and the proptest block drive randomized
//! schedules over the same contract.

mod common;

use std::time::{Duration, Instant};

use common::{object_domains, random_query};
use datagen::rng::WorkloadRng;
use graphitti_core::{
    DataType, Graphitti, Marker, ObjectId, ShardCut, ShardedSystem, Snapshot, WriteSystem,
};
use graphitti_query::{
    ChaosConfig, Query, QueryBudget, QueryResult, QueryService, ReferenceExecutor, Service,
    ServiceConfig, ServiceError, ShardedQueryService, ShardedServiceConfig, Target, Version,
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
/// and cancellations, over a snapshot and over cuts at shard counts 1, 2 and 4.
/// Asserts the full contract — liveness, reference-exact correctness, typed errors
/// only in their legal contexts, and metric consistency — every round.
#[test]
fn randomized_chaos_battery_liveness_correctness_and_metrics() {
    let mut rng = WorkloadRng::new(0x0BA7_7E41);
    let sys = corpus(40);
    for round in 0..6u64 {
        chaos_round(&mut rng, sys.snapshot(), &sys, round);
    }
    for round in 6..10u64 {
        let shards = [1usize, 2, 4][rng.range_usize(0, 3)];
        let (oracle, sharded) = dual_corpus(shards, 24);
        chaos_round(&mut rng, sharded.capture_cut(), &oracle, round);
    }
}

/// One battery round over `version` (`oracle` is its reference): stuck/panic/abort
/// chaos + a small bounded queue + deadlines + ticket cancellation, sixteen
/// submissions.
fn chaos_round<V: Version>(rng: &mut WorkloadRng, version: V, oracle: &Graphitti, round: u64) {
    let domains = object_domains(oracle);
    let reference = ReferenceExecutor::new(oracle);
    let mut chaos =
        ChaosConfig::new().with_stuck_query_on(1 + rng.range_u64(0, 4), Duration::from_millis(40));
    if rng.chance(0.5) {
        chaos = chaos.with_worker_panic_on(2 + rng.range_u64(0, 6));
    } else {
        chaos = chaos.with_worker_abort_on(2 + rng.range_u64(0, 6));
    }
    let workers = 1 + rng.range_usize(0, 3);
    let capacity = 1 + rng.range_usize(0, 3);
    let service = Service::new(
        version,
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(capacity)
            .with_cache_capacity(0)
            .with_chaos(chaos),
    );
    let mut overloaded = 0u64;
    let mut tickets = Vec::new();
    for _ in 0..16 {
        let q = random_query(rng, oracle, &domains);
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
            Ok(r) => assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q))),
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

    /// The contract on the sharded path (a plain function so the `proptest!` macro
    /// stays thin): under an arbitrary worker-fault schedule and an optionally
    /// expired deadline, every query over a cut ends in a result byte-identical to
    /// the reference or a typed error legal for the schedule.
    fn check_sharded(seed: u64, shards: usize, n: u64, chaos_pick: u8, nth: u64, expire: bool) {
        let (oracle, sharded) = dual_corpus(shards, n);
        let reference = ReferenceExecutor::new(&oracle);
        let domains = object_domains(&oracle);
        let mut rng = WorkloadRng::new(seed);
        let chaos = match chaos_pick {
            1 => ChaosConfig::new().with_worker_panic_on(nth),
            2 => ChaosConfig::new().with_worker_abort_on(nth),
            3 => ChaosConfig::new().with_stuck_query_on(nth, Duration::from_millis(40)),
            _ => ChaosConfig::new(),
        };
        let service = ShardedQueryService::new(
            sharded.capture_cut(),
            ShardedServiceConfig::default().with_cache_capacity(0).with_chaos(chaos),
        );
        let budget = if expire {
            QueryBudget::unbounded().with_deadline(Duration::ZERO)
        } else {
            QueryBudget::unbounded()
        };
        for _ in 0..3 {
            let q = random_query(&mut rng, &oracle, &domains);
            match service.submit_with_budget(q.clone(), budget).and_then(|t| t.wait()) {
                Ok(r) => prop_assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q))),
                Err(ServiceError::DeadlineExceeded) => prop_assert!(expire),
                Err(ServiceError::WorkerPanicked) => {
                    prop_assert!(chaos_pick == 1 || chaos_pick == 2, "a healthy worker failed");
                }
                Err(e) => prop_assert!(false, "illegal error for this schedule: {:?}", e),
            }
        }
        let m = service.metrics();
        prop_assert_eq!(m.submitted, 3);
        prop_assert_eq!(m.shed + m.completed + m.failed, m.submitted);
        poll_until("pool size restored", || service.live_workers() == service.worker_count());
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
                Ok(r) => prop_assert_eq!(result_bytes(&r), result_bytes(&reference.run(&q))),
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
        fn sharded_queries_end_complete_or_typed(
            seed in any::<u64>(),
            shards in 1usize..5,
            n in 4u64..20,
            chaos_pick in 0u8..4,
            nth in 1u64..4,
            expire in any::<bool>(),
        ) {
            check_sharded(seed, shards, n, chaos_pick, nth, expire);
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
