//! Overload- and failure-resilient query serving.
//!
//! Run with `cargo run --release --example resilient_service`.
//!
//! Builds an influenza study and walks the resilience contract end to end,
//! using the chaos harness to inject each failure deterministically: a
//! per-query deadline expiring mid-execution, admission control shedding
//! typed errors under 2× overload (and every admitted query still
//! completing), and a dying worker being respawned without dropping the
//! pool. Every query ends in either a complete answer or a typed
//! [`ServiceError`].

use std::time::Duration;

use graphitti::query::{
    ChaosConfig, Query, QueryBudget, QueryService, ServiceConfig, ServiceError, Target,
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
        Err(ServiceError::DeadlineExceeded) => println!(
            "\nact 1: {}; deadline_misses = {}",
            ServiceError::DeadlineExceeded,
            service.metrics().deadline_misses
        ),
        other => panic!("expected a deadline miss, got {other:?}"),
    }

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

    // ── Act 3: the pool heals itself ───────────────────────────────────────
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
        Err(ServiceError::WorkerPanicked) => println!("\nact 3: victim query failed typed"),
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
        "act 3: live workers {}/{}, respawned {}, completed {} after the abort",
        service.live_workers(),
        service.worker_count(),
        m.workers_respawned,
        m.completed
    );
    assert_eq!(service.live_workers(), service.worker_count());
}
