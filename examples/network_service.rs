//! Serving queries over TCP: the network tier end to end.
//!
//! Run with `cargo run --release --example network_service`.
//!
//! Builds an influenza study, puts a worker-pool [`QueryService`] behind a
//! [`NetServer`] on an ephemeral loopback port, and walks the wire contract:
//! query DSL text in, streamed result pages out (byte-identical to the
//! in-process answer), typed error frames for bad queries, connection-level
//! shedding at the acceptor's ceiling, and the plaintext `/health` +
//! `/metrics` endpoint a load balancer would probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphitti::net::{http_get, Backend, Client, NetError, NetServer, ServerConfig, WireBudget};
use graphitti::query::{parse_query, QueryService, ReferenceExecutor, ServiceConfig};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

fn main() {
    let sys = influenza::build(&InfluenzaConfig::small().with_annotations(300));
    println!("corpus: {} objects, {} annotations", sys.object_count(), sys.annotation_count());

    // ── Act 1: bind the front door ─────────────────────────────────────────
    let backend = Backend::Pool(Arc::new(QueryService::new(
        sys.snapshot(),
        ServiceConfig::default().with_workers(2),
    )));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        backend,
        ServerConfig::default().with_max_connections(2).with_window(4),
    )
    .expect("bind an ephemeral loopback port");
    println!(
        "act 1: serving on {} (health endpoint on {})",
        server.local_addr(),
        server.health_addr()
    );

    // ── Act 2: DSL text in, streamed pages out, byte-identical ─────────────
    let reference = ReferenceExecutor::new(&sys);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for text in [
        r#"SELECT contents WHERE content contains "protease cleavage""#,
        "SELECT referents WHERE content keywords protease",
        "SELECT graphs WHERE content contains \"protease\" AND constraint path 3",
    ] {
        let over_wire = client.query(text, &WireBudget::unbounded()).expect("query completes");
        let in_process = reference.run(&parse_query(text).expect("example query parses"));
        assert_eq!(
            format!("{over_wire:?}"),
            format!("{in_process:?}"),
            "the wire answer is the in-process answer"
        );
        println!(
            "act 2: {} page(s), {} annotation(s) over the wire — byte-identical: {text}",
            over_wire.pages.len(),
            over_wire.annotations.len()
        );
    }

    // ── Act 3: failures are typed frames, not hangs ────────────────────────
    match client.query("SELECT nonsense", &WireBudget::unbounded()) {
        Err(NetError::BadQuery(message)) => println!("act 3: typed rejection: {message}"),
        other => panic!("expected a typed BadQuery frame, got {other:?}"),
    }
    // The connection survives a rejected query.
    client.query("SELECT contents", &WireBudget::unbounded()).expect("connection still serves");

    // ── Act 4: the acceptor's ceiling sheds whole connections ──────────────
    let _second = Client::connect(server.local_addr()).expect("second connection admitted");
    // max_connections = 2: client + _second fill the house (poll: admission is
    // on the acceptor thread).
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut refused = Client::connect(server.local_addr()).expect("TCP connect still succeeds");
    match refused.recv() {
        Err(NetError::ConnectionShed { live }) => {
            println!("act 4: third connection refused with a typed frame ({live} live)")
        }
        other => panic!("expected a typed ConnectionShed frame, got {other:?}"),
    }

    // ── Act 5: what the load balancer sees ─────────────────────────────────
    let health = http_get(server.health_addr(), "/health").expect("health answers");
    print!("act 5: GET /health → {health}");
    let metrics = http_get(server.health_addr(), "/metrics").expect("metrics answers");
    let mut shown = 0;
    for line in metrics.lines() {
        // The wire counters, and which thread executed the misses.
        if line.starts_with("net_") || line.starts_with("service_executed_inline") {
            println!("act 5: {line}");
            shown += 1;
        }
    }
    assert!(shown > 0, "wire counters must be dumped");
    let m = server.metrics();
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "the wire books balance: {m:?}");

    server.shutdown();
    println!(
        "done: served {} requests, {} completed, {} failed typed",
        m.submitted, m.completed, m.failed
    );
}
