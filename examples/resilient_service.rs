//! Overload- and failure-resilient query serving.
//!
//! Run with `cargo run --release --example resilient_service`.
//!
//! Builds an influenza study and walks the resilience contract end to end,
//! using the chaos harness to inject each failure deterministically: a
//! per-query deadline expiring mid-execution, admission control shedding
//! typed errors under 2× overload (and every admitted query still
//! completing), a shard outage served as an exactly-marked partial answer,
//! and a dying worker being respawned without dropping the pool. Every
//! query ends in exactly one of: a complete answer, a marked degraded
//! subset, or a typed [`ServiceError`].

use std::time::Duration;

use graphitti::core::ShardedSystem;
use graphitti::query::{
    ChaosConfig, Query, QueryBudget, QueryService, RetryPolicy, ServiceConfig, ServiceError,
    ShardedExecutor, ShardedQueryService, ShardedServiceConfig, Target,
};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

fn main() {
    let sys = influenza::build(&InfluenzaConfig::small().with_annotations(300));
    println!("corpus: {} objects, {} annotations", sys.object_count(), sys.annotation_count());
    let protease = Query::new(Target::AnnotationContents).with_phrase("protease cleavage");
    let browse = Query::new(Target::ConnectionGraphs).with_phrase("protease");

    // ── Act 1: a deadline expires mid-query ────────────────────────────────
    // Chaos wedges the first execution for 60ms; the query carries a 10ms
    // deadline, so the cancel token trips at a pipeline checkpoint and the
    // ticket resolves with a typed error instead of a stale answer.
    let service = QueryService::new(
        sys.snapshot(),
        ServiceConfig::default()
            .with_workers(1)
            .with_chaos(ChaosConfig::new().with_stuck_query_on(1, Duration::from_millis(60))),
    );
    let ticket = service
        .submit_with_budget(
            protease.clone(),
            QueryBudget::unbounded().with_deadline(Duration::from_millis(10)),
        )
        .expect("an idle queue admits the query");
    match ticket.wait() {
        Err(ServiceError::DeadlineExceeded) => {
            println!("\nact 1: {}", ServiceError::DeadlineExceeded)
        }
        other => panic!("expected a deadline miss, got {other:?}"),
    }
    let unimpeded = service.run(protease.clone()).expect("chaos spent, query completes");
    println!(
        "act 1: retry without chaos served {} result page(s); deadline_misses = {}",
        unimpeded.pages.len(),
        service.metrics().deadline_misses
    );

    // ── Act 2: admission control under 2× overload ─────────────────────────
    // One worker is wedged for 80ms while a burst arrives. The bounded queue
    // admits up to its capacity and refuses the rest at the door with
    // `Overloaded { depth }` — and every *admitted* ticket still completes
    // once the stuck query clears: overload sheds, it does not wedge.
    let capacity = 2usize;
    let service = QueryService::new(
        sys.snapshot(),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(capacity)
            .with_chaos(ChaosConfig::new().with_stuck_query_on(1, Duration::from_millis(80))),
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..(2 * capacity + 2) {
        let q = if i % 2 == 0 { protease.clone() } else { browse.clone() };
        match service.submit(q) {
            Ok(ticket) => admitted.push(ticket),
            Err(ServiceError::Overloaded { depth }) => {
                shed += 1;
                println!("act 2: shed at the door (queue depth {depth})");
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for ticket in admitted {
        ticket.wait().expect("every admitted query completes after the stall");
    }
    let m = service.metrics();
    assert_eq!(m.shed, shed);
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "the books balance: {m:?}");
    println!(
        "act 2: submitted {} → completed {}, shed {}, failed {}",
        m.submitted, m.completed, m.shed, m.failed
    );

    // ── Act 3: a shard outage, served as a marked partial answer ───────────
    // The same corpus re-materialised over 4 shards, with shard 3 permanently
    // down. A strict query exhausts its retries into `ShardUnavailable`; with
    // `allow_partial` the scatter completes over the live shards and the
    // answer is *marked* — and byte-identical to the same query executed with
    // the dead shard masked out, not a best-effort approximation.
    let study = sys.study_snapshot();
    let sharded = ShardedSystem::from_study_snapshot(&study, 4).expect("sharded replay");
    let down = 3usize;
    let cut = sharded.capture_cut();
    let service = ShardedQueryService::new(
        sharded.capture_cut(),
        ShardedServiceConfig::default()
            .with_shard_timeout(Duration::from_millis(5))
            .with_retry(
                RetryPolicy::default()
                    .with_max_attempts(2)
                    .with_base_delay(Duration::from_micros(200))
                    .with_max_delay(Duration::from_millis(2)),
            )
            .with_chaos(ChaosConfig::new().with_shard_outage(down, u64::MAX)),
    );
    match service.run(browse.clone()) {
        Err(ServiceError::ShardUnavailable { shard, attempts }) => {
            println!(
                "\nact 3: strict query failed typed: shard {shard} down after {attempts} attempts"
            );
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    let partial = service
        .run_with_budget(browse.clone(), QueryBudget::unbounded().with_allow_partial(true))
        .expect("allow_partial rides out the outage");
    assert!(partial.is_degraded());
    let masked = ShardedExecutor::new(&cut)
        .with_allow_partial(true)
        .with_shard_mask(!(1u64 << down))
        .run(&browse);
    assert_eq!(
        format!("{partial:?}"),
        format!("{masked:?}"),
        "a degraded answer equals the masked-shard oracle"
    );
    println!(
        "act 3: degraded answer over live shards: {} page(s), missing shards {:?} (== masked oracle)",
        partial.pages.len(),
        partial.missing_shards
    );

    // ── Act 4: the pool heals itself ───────────────────────────────────────
    // Chaos aborts a worker outright on its first execution (the panic
    // message on stderr below is the injected fault escaping the worker's
    // catch — expected). The victim's ticket resolves with `WorkerPanicked`,
    // a replacement thread is registered before the dying one exits, and the
    // pool keeps serving.
    let service = QueryService::new(
        sys.snapshot(),
        ServiceConfig::default()
            .with_workers(2)
            .with_chaos(ChaosConfig::new().with_worker_abort_on(1)),
    );
    match service.run(protease.clone()) {
        Err(ServiceError::WorkerPanicked) => println!("\nact 4: victim query failed typed"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    for _ in 0..4 {
        service.run(browse.clone()).expect("the healed pool keeps serving");
    }
    // The respawn guard registers the replacement as the dying thread exits —
    // an instant after the victim's ticket resolves, so poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.metrics().workers_respawned == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let m = service.metrics();
    println!(
        "act 4: live workers {}/{}, respawned {}, completed {} after the abort",
        service.live_workers(),
        service.worker_count(),
        m.workers_respawned,
        m.completed
    );
    assert_eq!(service.live_workers(), service.worker_count());
}
