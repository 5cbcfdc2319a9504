//! End-to-end battery for the network tier: a real [`NetServer`] on an
//! ephemeral loopback port, real [`Client`] connections, and the serving
//! contract asserted across the wire:
//!
//! * **Correctness** — streamed pages reassembled client-side are byte-identical
//!   (under the result's JSON form) to the in-process [`ReferenceExecutor`]
//!   answer, on the unsharded pool backend and on sharded cuts at 1 and 4
//!   shards — including under connection churn and behind a slow reader.
//! * **Liveness** — a stalled reader never wedges the server: concurrent
//!   clients keep completing, per-connection decoded-but-unresolved requests
//!   stay bounded by the in-flight window, and the stalled client still gets
//!   every response intact when it finally reads.
//! * **Typed failure** — backend overload, unparseable queries, and
//!   connection-ceiling refusals all arrive as typed error frames, never as a
//!   hang or a torn stream; framing violations kill only their own connection.
//! * **Conservation** — once connections drain, the wire counters satisfy
//!   `shed + completed + failed == submitted`, mirroring the in-process
//!   serving invariant — and so do the backend's own counters.
//! * **The reader-thread fast path** — a cached answer written by the
//!   connection's reader keeps its place in the pipeline, never outlives a
//!   publish, bypasses a full admission queue, honours the wire deadline, and
//!   fails closed when the client vanishes mid-write.
//! * **Who executes** — on either backend, a closed-loop connection's miss is
//!   executed by its reader thread, a pipelined connection's by the pool, in
//!   parallel, and a sharded server bounds its executions and sheds the overflow
//!   as a pooled one does; a fault injected into an execution on the reader is a
//!   typed error frame, never a dead connection; a deadline is honoured under
//!   `constraint path`.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphitti_core::ontology::ConceptId;
use graphitti_core::{DataType, Graphitti, Marker, ObjectId, ShardedSystem, WriteSystem};
use graphitti_net::protocol::{
    decode_page, decode_tail, encode_request, frame_kind, read_frame, write_frame, KIND_PAGE,
};
use graphitti_net::{
    Backend, Client, NetError, NetServer, ServerConfig, WireBudget, MAX_FRAME_LEN,
};
use graphitti_query::{
    parse_query, ChaosConfig, QueryResult, QueryService, ReferenceExecutor, Service, ServiceConfig,
    ServiceError, ShardedQueryService, ShardedServiceConfig, Version,
};

fn result_bytes(result: &QueryResult) -> Vec<u8> {
    result.to_json().into_bytes()
}

/// One annotation corpus, written once for both systems; returns the term it cites.
fn write_corpus<S: WriteSystem>(sys: &mut S, n: u64) -> ConceptId {
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
    term
}

/// The same corpus built into an unsharded oracle and an N-shard system by
/// identical incremental replay (ids coincide — see the sharded equivalence
/// battery).  Returns the ontology term id for DSL queries.
fn dual_corpus(shards: usize, n: u64) -> (Graphitti, ShardedSystem, u32) {
    let mut oracle = Graphitti::new();
    let mut sharded = ShardedSystem::new(shards);
    let term = write_corpus(&mut oracle, n);
    assert_eq!(write_corpus(&mut sharded, n), term);
    (oracle, sharded, term.0)
}

/// A representative DSL mix: every target, content/referent/ontology clauses,
/// and a graph constraint.
fn query_mix(term: u32) -> Vec<String> {
    vec![
        "SELECT contents".to_string(),
        r#"SELECT contents WHERE content contains "protease motif""#.to_string(),
        "SELECT referents WHERE content keywords quiet background".to_string(),
        format!("SELECT graphs WHERE ontology term {term}"),
        "SELECT referents WHERE referent interval chr1 0 5000".to_string(),
        r#"SELECT graphs WHERE content contains "protease" AND constraint path 3"#.to_string(),
    ]
}

fn pool_backend(sys: &Graphitti, workers: usize) -> Backend {
    Backend::Pool(Arc::new(QueryService::new(
        sys.snapshot(),
        ServiceConfig::default().with_workers(workers).with_cache_capacity(0),
    )))
}

fn start_server(backend: Backend, config: ServerConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", backend, config).expect("bind ephemeral loopback")
}

/// The drain check at both levels: every request the wire decoded and every query
/// the backend was given landed on exactly one outcome, and the reader-thread
/// responses are a subset of those outcomes.
fn assert_books_balanced(server: &NetServer) {
    let n = server.metrics();
    assert_eq!(n.shed + n.completed + n.failed, n.submitted, "wire conservation: {n:?}");
    assert!(n.served_inline <= n.completed + n.shed + n.failed, "inline is an outcome: {n:?}");
    let s = server.backend_metrics();
    assert_eq!(s.shed + s.completed + s.failed, s.submitted, "service conservation: {s:?}");
}

fn poll_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "not reached within 5s: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Streamed pages reassembled by the client are byte-identical to the
/// [`ReferenceExecutor`] answer — over the pool backend and over sharded cuts
/// at 1 and 4 shards.
#[test]
fn streamed_pages_reassemble_byte_identical_to_reference() {
    let (oracle, _, term) = dual_corpus(1, 30);
    let reference = ReferenceExecutor::new(&oracle);

    // Unsharded pool backend.
    let server = start_server(pool_backend(&oracle, 2), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for text in query_mix(term) {
        let over_wire = client.query(&text, &WireBudget::unbounded()).expect("query completes");
        let in_process = reference.run(&parse_query(&text).expect("mix parses"));
        assert_eq!(result_bytes(&over_wire), result_bytes(&in_process), "pool: {text}");
    }
    drop(client);

    // Sharded backends: the clean scatter-gather answer equals the oracle's.
    for shards in [1usize, 4] {
        let (oracle, sharded, term) = dual_corpus(shards, 30);
        let reference = ReferenceExecutor::new(&oracle);
        let backend = Backend::Sharded(Arc::new(ShardedQueryService::new(
            sharded.capture_cut(),
            ShardedServiceConfig::default().with_cache_capacity(0),
        )));
        let server = start_server(backend, ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for text in query_mix(term) {
            let over_wire = client.query(&text, &WireBudget::unbounded()).expect("query completes");
            let in_process = reference.run(&parse_query(&text).expect("mix parses"));
            assert_eq!(
                result_bytes(&over_wire),
                result_bytes(&in_process),
                "shards={shards}: {text}"
            );
        }
    }
}

/// Connection churn: many short-lived connections, overlapping across threads,
/// every response reference-exact — and after the dust settles the wire
/// counters conserve: `shed + completed + failed == submitted`.
#[test]
fn connection_churn_conserves_and_stays_reference_exact() {
    let (oracle, _, term) = dual_corpus(1, 30);
    let reference = ReferenceExecutor::new(&oracle);
    let mix = query_mix(term);
    let expected: Vec<Vec<u8>> = mix
        .iter()
        .map(|text| result_bytes(&reference.run(&parse_query(text).expect("mix parses"))))
        .collect();

    let server = start_server(pool_backend(&oracle, 2), ServerConfig::default());
    let addr = server.local_addr();
    let threads = 4usize;
    let connections_each = 6usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mix = &mix;
            let expected = &expected;
            scope.spawn(move || {
                for c in 0..connections_each {
                    let mut client = Client::connect(addr).expect("connect");
                    // Each connection runs a rotating slice of the mix, then drops.
                    for k in 0..3 {
                        let i = (t + c + k) % mix.len();
                        let got = client
                            .query(&mix[i], &WireBudget::unbounded())
                            .expect("churned query completes");
                        assert_eq!(result_bytes(&got), expected[i], "thread {t} conn {c}");
                    }
                }
            });
        }
    });

    let total_connections = (threads * connections_each) as u64;
    let total_queries = total_connections * 3;
    poll_until("all connections retired", || server.live_connections() == 0);
    let m = server.metrics();
    assert_eq!(m.connections_accepted, total_connections);
    assert_eq!(m.completed, total_queries);
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "wire conservation after churn");
    assert_eq!(m.submitted, total_queries);
    assert_books_balanced(&server);
}

/// A slow reader throttles only itself: while it stalls with responses parked,
/// (a) its decoded-but-unresolved requests stay bounded by the in-flight
/// window, (b) a concurrent client keeps completing, and (c) when it finally
/// reads, every parked response arrives byte-identical.
#[test]
fn slow_reader_bounded_and_concurrent_clients_unaffected() {
    let (oracle, _, term) = dual_corpus(1, 200);
    let reference = ReferenceExecutor::new(&oracle);
    let window = 2usize;
    let server =
        start_server(pool_backend(&oracle, 2), ServerConfig::default().with_window(window));

    // The slow reader: pipeline a burst of requests, read nothing yet.
    let heavy = "SELECT contents";
    let heavy_expected = result_bytes(&reference.run(&parse_query(heavy).expect("parses")));
    let burst = 8usize;
    let mut slow = Client::connect(server.local_addr()).expect("connect slow");
    for _ in 0..burst {
        slow.send(heavy, &WireBudget::unbounded()).expect("pipelined send");
    }

    // Give the server time to drain what it can into the socket, then check the
    // bound: whatever is decoded but not yet resolved fits the window (+1 in
    // the writer's hand, +1 decoded in the reader's hand).
    std::thread::sleep(Duration::from_millis(150));
    let m = server.metrics();
    let unresolved = m.submitted - (m.completed + m.shed + m.failed);
    assert!(
        unresolved <= (window + 2) as u64,
        "slow reader must not queue unboundedly: {unresolved} unresolved > window {window} + 2"
    );

    // Liveness: a concurrent client is not behind the stalled one.
    let mut brisk = Client::connect(server.local_addr()).expect("connect brisk");
    for text in query_mix(term) {
        let got = brisk.query(&text, &WireBudget::unbounded()).expect("brisk query completes");
        let want = result_bytes(&reference.run(&parse_query(&text).expect("parses")));
        assert_eq!(result_bytes(&got), want, "brisk client behind a slow reader: {text}");
    }
    drop(brisk);

    // The slow reader finally reads: every parked response intact, in order.
    for i in 0..burst {
        let got = slow.recv().unwrap_or_else(|e| panic!("parked response #{i} lost: {e}"));
        assert_eq!(result_bytes(&got), heavy_expected, "parked response #{i}");
    }
    drop(slow);

    poll_until("all connections retired", || server.live_connections() == 0);
    let m = server.metrics();
    assert_eq!(m.completed, m.submitted, "everything sent was ultimately served");
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "wire conservation");
    assert_books_balanced(&server);
}

/// Backend overload surfaces on the wire as a typed [`ServiceError::Overloaded`]
/// error frame among otherwise-correct responses — and the wire counters
/// account every request as exactly one of completed / shed / failed.
#[test]
fn overload_arrives_typed_and_wire_counters_conserve() {
    let (oracle, _, _) = dual_corpus(1, 24);
    let q = r#"SELECT contents WHERE content contains "protease motif""#;
    let expected =
        result_bytes(&ReferenceExecutor::new(&oracle).run(&parse_query(q).expect("parses")));
    // One worker, one queue slot, first execution stuck: admission must shed.
    let backend = Backend::Pool(Arc::new(QueryService::new(
        oracle.snapshot(),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0)
            .with_chaos(ChaosConfig::new().with_stuck_query_on(1, Duration::from_millis(150))),
    )));
    let burst = 10usize;
    let server = start_server(backend, ServerConfig::default().with_window(burst));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..burst {
        client.send(q, &WireBudget::unbounded()).expect("pipelined send");
    }
    let mut completed = 0u64;
    let mut shed = 0u64;
    for i in 0..burst {
        match client.recv() {
            Ok(result) => {
                assert_eq!(result_bytes(&result), expected, "response #{i}");
                completed += 1;
            }
            Err(NetError::Service(ServiceError::Overloaded { depth })) => {
                assert_eq!(depth, 1, "shed depth is the full queue");
                shed += 1;
            }
            Err(e) => panic!("response #{i}: expected Ok or typed Overloaded, got {e}"),
        }
    }
    assert!(shed >= 1, "the stuck single-slot queue must have shed at least once");
    assert_eq!(completed + shed, burst as u64);
    drop(client);

    poll_until("all connections retired", || server.live_connections() == 0);
    let m = server.metrics();
    assert_eq!(m.completed, completed);
    assert_eq!(m.shed, shed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "wire conservation under overload");
    assert_books_balanced(&server);
}

/// The acceptor's connection ceiling: a full house is refused with a typed
/// `ConnectionShed` error frame before any request is read, and capacity
/// freed by a departing client is immediately reusable.
#[test]
fn connection_ceiling_sheds_typed_and_recovers() {
    let (oracle, _, term) = dual_corpus(1, 24);
    let server =
        start_server(pool_backend(&oracle, 1), ServerConfig::default().with_max_connections(1));
    let mix = query_mix(term);
    let first = mix.first().expect("non-empty mix");

    let mut resident = Client::connect(server.local_addr()).expect("connect resident");
    resident.query(first, &WireBudget::unbounded()).expect("resident query completes");

    // The house is full: the next connection gets a typed refusal.
    let mut refused = Client::connect(server.local_addr()).expect("tcp connect still succeeds");
    match refused.recv() {
        Err(NetError::ConnectionShed { live }) => assert_eq!(live, 1),
        other => panic!("expected a typed ConnectionShed frame, got {other:?}"),
    }

    // Capacity frees when the resident leaves, and a newcomer is served.
    drop(resident);
    poll_until("resident connection retired", || server.live_connections() == 0);
    let mut newcomer = Client::connect(server.local_addr()).expect("connect newcomer");
    newcomer.query(first, &WireBudget::unbounded()).expect("newcomer query completes");
    drop(newcomer);

    poll_until("all connections retired", || server.live_connections() == 0);
    let m = server.metrics();
    assert_eq!(m.connections_accepted, 2);
    assert!(m.connections_shed >= 1, "the ceiling must have refused at least once");
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "wire conservation at the ceiling");
    assert_books_balanced(&server);
}

/// Unparseable query text comes back as a typed `BadQuery` error frame and the
/// connection stays usable; a corrupted frame (bad CRC) kills only its own
/// connection and is counted, never crashing the server.
#[test]
fn bad_queries_and_bad_frames_fail_typed_without_collateral() {
    let (oracle, _, term) = dual_corpus(1, 24);
    let server = start_server(pool_backend(&oracle, 1), ServerConfig::default());
    let reference = ReferenceExecutor::new(&oracle);
    let mix = query_mix(term);
    let good = mix.first().expect("non-empty mix");

    // A bad query is a typed per-request failure, not a connection failure.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.query("SELECT nonsense", &WireBudget::unbounded()) {
        Err(NetError::BadQuery(message)) => {
            assert!(message.contains("unknown target"), "parser detail travels: {message}")
        }
        other => panic!("expected a typed BadQuery frame, got {other:?}"),
    }
    let got = client.query(good, &WireBudget::unbounded()).expect("connection survives BadQuery");
    let want = result_bytes(&reference.run(&parse_query(good).expect("parses")));
    assert_eq!(result_bytes(&got), want);
    drop(client);

    // A frame with a corrupt CRC kills that connection (typed at the metrics
    // level), while the server keeps serving everyone else.
    {
        let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
        let garbage = [4u8, 0, 0, 0, 0xEF, 0xBE, 0xAD, 0xDE, 1, 2, 3, 4];
        raw.write_all(&garbage).expect("write corrupt frame");
        raw.flush().expect("flush");
    }
    poll_until("corrupt frame counted", || server.metrics().bad_frames >= 1);
    let mut after = Client::connect(server.local_addr()).expect("connect after corruption");
    after.query(good, &WireBudget::unbounded()).expect("server survives a corrupt frame");
    drop(after);

    poll_until("all connections retired", || server.live_connections() == 0);
    let m = server.metrics();
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "wire conservation with bad input");
    assert_eq!(m.failed, 1, "exactly the BadQuery request failed");
    assert_books_balanced(&server);
}

/// The plaintext health endpoint: `/health` answers ok, `/metrics` dumps both
/// the wire counters and the backend's [`ServiceMetrics`], unknown paths 404.
#[test]
fn health_and_metrics_endpoints_respond() {
    let (oracle, _, term) = dual_corpus(1, 24);
    let server = start_server(pool_backend(&oracle, 1), ServerConfig::default());
    let mix = query_mix(term);
    let first = mix.first().expect("non-empty mix");

    assert_eq!(
        graphitti_net::http_get(server.health_addr(), "/health").expect("health answers"),
        "ok\n"
    );

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.query(first, &WireBudget::unbounded()).expect("query completes");
    // A response is counted once its last byte is with the socket — which the client
    // can see before the counting thread runs again.
    poll_until("the response is counted", || server.metrics().completed == 1);
    let metrics = graphitti_net::http_get(server.health_addr(), "/metrics").expect("metrics");
    for line in [
        "net_submitted 1",
        "net_completed 1",
        "net_connections_accepted 1",
        "net_served_inline 1",
        "net_live_connections 1",
    ] {
        assert!(metrics.contains(line), "metrics dump missing `{line}`:\n{metrics}");
    }
    assert!(
        metrics.contains("service_submitted"),
        "backend ServiceMetrics must be dumped too:\n{metrics}"
    );

    match graphitti_net::http_get(server.health_addr(), "/nope") {
        Err(NetError::Protocol(what)) => assert!(what.contains("404"), "status travels: {what}"),
        other => panic!("expected a 404 protocol error, got {other:?}"),
    }
}

// --- the reader-thread fast path ---------------------------------------------

/// A caching pool service over `sys`, kept by handle so a test can publish to it
/// and submit beside the wire.
fn caching_service(sys: &Graphitti, config: ServiceConfig) -> Arc<QueryService> {
    Arc::new(QueryService::new(sys.snapshot(), config.with_cache_capacity(64)))
}

/// A query no other call of this helper shares a cache entry with: its own interval,
/// and — the corpus marks one more referent every 90 positions — its own answer.
fn fresh_query(i: usize) -> String {
    format!("SELECT referents WHERE referent interval chr1 0 {}", 100 + 90 * i)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One connection pipelines a seeded mix of cached and uncached queries.  Cached
/// answers are ready the moment the reader decodes them; uncached ones wait for a
/// worker — the first of them for a long, injected stall — and still every
/// response arrives in submission order, reference-exact, at any window.
#[test]
fn pipelined_hits_and_misses_stay_in_submission_order() {
    let (oracle, _, term) = dual_corpus(1, 80);
    let reference = ReferenceExecutor::new(&oracle);
    let hot = query_mix(term);
    for window in [1usize, 2, 8] {
        // Executions 1..=hot.len() warm the cache; the next one — the pipeline's
        // first miss — stalls, with ready hits queued up behind it.
        let stall = ChaosConfig::new()
            .with_stuck_query_on(hot.len() as u64 + 1, Duration::from_millis(100));
        let service =
            caching_service(&oracle, ServiceConfig::default().with_workers(2).with_chaos(stall));
        let server = start_server(
            Backend::Pool(Arc::clone(&service)),
            ServerConfig::default().with_window(window),
        );
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for text in &hot {
            client.query(text, &WireBudget::unbounded()).expect("warm-up completes");
        }

        // hit, miss (stalled), hit — then a seeded mix.
        let mut seed = 2008 + window as u64;
        let mut texts = vec![hot[0].clone(), fresh_query(0), hot[1].clone()];
        for i in 1..40 {
            let draw = splitmix(&mut seed);
            texts.push(if draw.is_multiple_of(2) {
                hot[(draw >> 8) as usize % hot.len()].clone()
            } else {
                fresh_query(i)
            });
        }
        for text in &texts {
            client.send(text, &WireBudget::unbounded()).expect("pipelined send");
        }
        for (i, text) in texts.iter().enumerate() {
            let got = client.recv().unwrap_or_else(|e| panic!("window {window} #{i}: {e}"));
            let want = reference.run(&parse_query(text).expect("parses"));
            assert_eq!(result_bytes(&got), result_bytes(&want), "window {window} #{i}: {text}");
        }
        drop(client);

        poll_until("connection retired", || server.live_connections() == 0);
        let n = server.metrics();
        assert_eq!(n.completed, (hot.len() + texts.len()) as u64);
        assert!(n.served_inline >= 1, "the leading hit had nothing in flight before it");
        assert_books_balanced(&server);
        // Every query is exactly one hit or one miss, whichever thread counted it.
        let s = service.metrics();
        assert_eq!(s.cache_hits + s.cache_misses, s.submitted, "{s:?}");
        assert_eq!(s.submitted, n.submitted);
    }
}

/// A reader-thread hit is validated against the *published* version: a publish
/// that changes the answer is visible to the very next request, and an
/// ingest-only publish — outside the query's footprint — leaves it a hit.
#[test]
fn a_publish_between_two_hits_is_never_served_stale() {
    let (mut oracle, _, _) = dual_corpus(1, 24);
    let q = r#"SELECT contents WHERE content contains "protease motif""#;
    let query = parse_query(q).expect("parses");
    let service = caching_service(&oracle, ServiceConfig::default().with_workers(1));
    let server = start_server(Backend::Pool(Arc::clone(&service)), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let unbounded = WireBudget::unbounded();

    let before = result_bytes(&ReferenceExecutor::new(&oracle).run(&query));
    assert_eq!(result_bytes(&client.query(q, &unbounded).expect("miss")), before);
    assert_eq!(result_bytes(&client.query(q, &unbounded).expect("hit")), before);
    assert_eq!(service.metrics().cache_hits, 1);

    // A matching annotation, published: the cached answer is now wrong.
    oracle
        .annotate()
        .comment("protease motif, published between two requests")
        .mark(ObjectId(0), Marker::interval(50_000, 50_040))
        .commit()
        .unwrap();
    service.publish(oracle.snapshot()).expect("publish");
    let after = result_bytes(&ReferenceExecutor::new(&oracle).run(&query));
    assert_ne!(after, before, "the publish must change the answer");
    assert_eq!(result_bytes(&client.query(q, &unbounded).expect("miss again")), after);
    assert_eq!(service.metrics().cache_hits, 1, "the stale entry was not served");

    // An ingest-only publish moves nothing this query reads.
    oracle.register_sequence("late", DataType::DnaSequence, 1_000, "chr9");
    service.publish(oracle.snapshot()).expect("publish");
    assert_eq!(result_bytes(&client.query(q, &unbounded).expect("still a hit")), after);
    let s = service.metrics();
    assert_eq!((s.cache_hits, s.cache_misses, s.publishes), (2, 2, 2));
    drop(client);

    poll_until("connection retired", || server.live_connections() == 0);
    assert_eq!(server.metrics().served_inline, 4, "both hits were written by the reader");
    assert_books_balanced(&server);
}

/// A cache hit needs neither a queue slot nor a worker, so admission control cannot
/// shed it: with the single worker stuck and the one-slot queue occupied, a cached
/// query is answered at once while an uncached one is refused, typed.
#[test]
fn hits_are_answered_while_the_admission_queue_is_full() {
    let (oracle, _, term) = dual_corpus(1, 40);
    let reference = ReferenceExecutor::new(&oracle);
    let mix = query_mix(term);
    let hot = &mix[1];
    let service = caching_service(
        &oracle,
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            // Execution 1 caches `hot`; execution 2 holds the worker.
            .with_chaos(ChaosConfig::new().with_stuck_query_on(2, Duration::from_secs(2))),
    );
    let server = start_server(Backend::Pool(Arc::clone(&service)), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let hot_expected = result_bytes(&reference.run(&parse_query(hot).expect("parses")));
    let warm = client.query(hot, &WireBudget::unbounded()).expect("warm-up completes");
    assert_eq!(result_bytes(&warm), hot_expected);

    // Beside the wire: occupy the worker and the queue's one slot.  The second
    // ticket can only have been admitted after the worker took the first.
    let mut held = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(1);
    while held.len() < 2 {
        assert!(Instant::now() < deadline, "could not occupy worker and queue");
        if let Ok(ticket) = service.submit(parse_query(&fresh_query(held.len())).expect("parses")) {
            held.push(ticket);
        }
    }

    let got = client.query(hot, &WireBudget::unbounded()).expect("a hit is never shed");
    assert_eq!(result_bytes(&got), hot_expected);
    match client.query(&fresh_query(9), &WireBudget::unbounded()) {
        Err(NetError::Service(ServiceError::Overloaded { depth })) => assert_eq!(depth, 1),
        other => panic!("expected a typed Overloaded frame, got {other:?}"),
    }
    // Both exchanges happened while the stuck execution held the worker.
    let m = service.metrics();
    let unresolved = m.submitted - m.shed - m.completed - m.failed;
    assert_eq!(unresolved, 2, "the stall outlived the exchange: {m:?}");

    held.remove(0).cancel();
    for ticket in held {
        ticket.wait().expect("the queued query runs once the worker is free");
    }
    drop(client);
    poll_until("connection retired", || server.live_connections() == 0);
    let n = server.metrics();
    assert_eq!((n.submitted, n.completed, n.shed, n.failed), (3, 2, 1, 0));
    assert_eq!(n.served_inline, 3, "the hit and the shed were both written by the reader");
    assert_books_balanced(&server);
}

/// The wire deadline reaches the reader-thread probe: an expired budget on a
/// cached query is a typed `DeadlineExceeded` counted `failed` — not a hit — and a
/// sub-millisecond budget is a real budget, not "already expired".
#[test]
fn the_wire_deadline_applies_to_cached_queries() {
    let (oracle, _, term) = dual_corpus(1, 24);
    let mix = query_mix(term);
    let q = &mix[1];
    let expected =
        result_bytes(&ReferenceExecutor::new(&oracle).run(&parse_query(q).expect("parses")));
    let service = caching_service(&oracle, ServiceConfig::default().with_workers(1));
    let server = start_server(Backend::Pool(Arc::clone(&service)), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.query(q, &WireBudget::unbounded()).expect("warm-up completes");

    let expired = WireBudget::unbounded().with_deadline(Duration::ZERO);
    match client.query(q, &expired) {
        Err(NetError::Service(ServiceError::DeadlineExceeded)) => {}
        other => panic!("expected a typed DeadlineExceeded frame, got {other:?}"),
    }
    let tight = WireBudget::unbounded().with_deadline(Duration::from_micros(500));
    let got = client.query(q, &tight).expect("500 µs is enough for a cached answer");
    assert_eq!(result_bytes(&got), expected);
    drop(client);

    poll_until("connection retired", || server.live_connections() == 0);
    let n = server.metrics();
    assert_eq!((n.submitted, n.completed, n.shed, n.failed), (3, 2, 0, 1));
    let s = service.metrics();
    assert_eq!((s.failed, s.deadline_misses, s.cache_hits, s.cache_misses), (1, 1, 1, 1));
    assert_books_balanced(&server);
}

/// The client vanishes while the reader thread is inside the write of an inline
/// response: that request lands on `failed`, nothing else is decoded, and the
/// connection retires.
#[test]
fn client_gone_mid_inline_write_fails_closed() {
    let (oracle, _, _) = dual_corpus(1, 600);
    let heavy = "SELECT contents";
    let service = caching_service(&oracle, ServiceConfig::default().with_workers(1));
    let server = start_server(Backend::Pool(Arc::clone(&service)), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.query(heavy, &WireBudget::unbounded()).expect("warm-up completes");

    // Pipeline cached requests and read nothing: every one is an inline hit, so
    // the reader thread itself fills the socket and blocks mid-response.  Small
    // batches, so this side's sends never block on a server that stopped reading.
    let unresolved = |m: graphitti_net::NetMetrics| m.submitted - (m.completed + m.shed + m.failed);
    let stalled_mid_write = |server: &NetServer| {
        let seen = server.metrics();
        std::thread::sleep(Duration::from_millis(50));
        let now = server.metrics();
        unresolved(now) == 1 && now == seen
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while !stalled_mid_write(&server) {
        assert!(Instant::now() < deadline, "the socket never filled: {:?}", server.metrics());
        for _ in 0..64 {
            client.send(heavy, &WireBudget::unbounded()).expect("pipelined send");
        }
    }
    drop(client);

    poll_until("connection retired", || server.live_connections() == 0);
    let n = server.metrics();
    assert_eq!(n.failed, 1, "exactly the response being written was lost: {n:?}");
    assert_eq!(n.served_inline, n.submitted, "all but the warm-up were inline: {n:?}");
    assert_books_balanced(&server);
}

// --- who executes ------------------------------------------------------------

/// A fault injected into the 2nd execution of a closed-loop connection — which runs
/// on that connection's reader thread, on either backend — is that request's typed
/// error frame; the same connection then serves the next request reference-exact,
/// and the books balance at wire and service.
#[test]
fn a_fault_on_the_reader_thread_is_a_typed_frame_and_the_connection_lives() {
    let (oracle, sharded, _) = dual_corpus(4, 40);
    let reference = ReferenceExecutor::new(&oracle);
    let faults: [(fn() -> ChaosConfig, ServiceError); 3] = [
        (|| ChaosConfig::new().with_worker_panic_on(2), ServiceError::WorkerPanicked),
        (|| ChaosConfig::new().with_worker_abort_on(2), ServiceError::WorkerPanicked),
        (
            || ChaosConfig::new().with_stuck_query_on(2, Duration::from_secs(5)),
            ServiceError::DeadlineExceeded,
        ),
    ];
    for (fault, typed) in faults {
        for pooled in [true, false] {
            let what = format!("{typed:?} on {}", if pooled { "pool" } else { "sharded" });
            let chaos = fault();
            let backend = if pooled {
                let config = ServiceConfig::default().with_workers(2).with_chaos(chaos.clone());
                Backend::Pool(caching_service(&oracle, config))
            } else {
                let config = ShardedServiceConfig::default().with_chaos(chaos.clone());
                Backend::Sharded(Arc::new(ShardedQueryService::new(sharded.capture_cut(), config)))
            };
            let server = start_server(backend, ServerConfig::default());
            let mut client = Client::connect(server.local_addr()).expect("connect");
            for i in 0..3 {
                // Only the faulted request carries a deadline: the stall outlives it.
                let budget = WireBudget::unbounded();
                let budget =
                    if i == 1 { budget.with_deadline(Duration::from_millis(20)) } else { budget };
                match client.query(&fresh_query(i), &budget) {
                    Ok(got) if i != 1 => {
                        let want = reference.run(&parse_query(&fresh_query(i)).expect("parses"));
                        assert_eq!(result_bytes(&got), result_bytes(&want), "{what} #{i}");
                    }
                    Err(NetError::Service(err)) if i == 1 => assert_eq!(err, typed, "{what}"),
                    other => panic!("{what} #{i}: got {other:?}"),
                }
            }
            assert_eq!(server.live_connections(), 1, "{what}: the reader survived");
            assert_eq!(chaos.executions(), 3, "{what}: chaos slots count executions");
            drop(client);

            poll_until("connection retired", || server.live_connections() == 0);
            let n = server.metrics();
            assert_eq!((n.submitted, n.completed, n.shed, n.failed), (3, 2, 0, 1), "{what}");
            assert_eq!(n.served_inline, 3, "{what}: every answer was written by the reader");
            let s = server.backend_metrics();
            assert_eq!((s.submitted, s.completed, s.failed), (3, 2, 1), "{what}");
            assert_eq!((s.cache_hits, s.cache_misses), (0, 2), "{what}");
            // A miss the service executed on the reader is counted as such.
            assert_eq!(s.executed_inline, 2, "{what}");
            assert_eq!(s.workers_respawned, 0, "{what}: off the pool an abort kills no worker");
            if typed == ServiceError::WorkerPanicked {
                assert_eq!((s.worker_panics, s.deadline_misses), (1, 0), "{what}");
            } else {
                assert_eq!((s.worker_panics, s.deadline_misses), (0, 1), "{what}");
            }
            assert_books_balanced(&server);
        }
    }
}

/// Read one successful response off a raw connection (what `Client::recv` does).
fn recv_raw(stream: &mut TcpStream) -> QueryResult {
    let mut pages = Vec::new();
    loop {
        let frame = read_frame(stream, MAX_FRAME_LEN).expect("frame").expect("a response frame");
        if frame_kind(&frame).expect("kind") == KIND_PAGE {
            pages.push(decode_page(&frame).expect("page decodes"));
        } else {
            let (_, tail) = decode_tail(&frame).expect("a tail ends a successful response");
            return QueryResult::from_stream(pages, tail);
        }
    }
}

/// A connection that has pipelined keeps the pool, on either backend: two uncached
/// requests arriving together are both queued — the reader executes neither — so with
/// the first stuck on one worker the second completes on the other, and both
/// responses still arrive in submission order.
#[test]
fn a_pipelined_connection_keeps_the_pool_and_its_parallelism() {
    let (oracle, sharded, _) = dual_corpus(4, 40);
    a_pipelined_connection_keeps_the_pool_and_its_parallelism_on(
        &oracle,
        |config| caching_service(&oracle, config),
        Backend::Pool,
    );
    a_pipelined_connection_keeps_the_pool_and_its_parallelism_on(
        &oracle,
        |config| {
            let config = config.with_cache_capacity(64);
            Arc::new(ShardedQueryService::new(sharded.capture_cut(), config))
        },
        Backend::Sharded,
    );
}

fn a_pipelined_connection_keeps_the_pool_and_its_parallelism_on<V: Version>(
    oracle: &Graphitti,
    serve: impl FnOnce(ServiceConfig) -> Arc<Service<V>>,
    backend: fn(Arc<Service<V>>) -> Backend,
) {
    let reference = ReferenceExecutor::new(oracle);
    let stall = Duration::from_millis(100);
    let service = serve(
        ServiceConfig::default()
            .with_workers(2)
            .with_chaos(ChaosConfig::new().with_stuck_query_on(1, stall)),
    );
    let server = start_server(backend(Arc::clone(&service)), ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // One `write` carries both frames, so the reader finds the second already buffered
    // behind the first: neither request is closed-loop.
    let texts = [fresh_query(0), fresh_query(1)];
    let mut wire = Vec::new();
    for text in &texts {
        write_frame(&mut wire, &encode_request(text, &WireBudget::unbounded())).expect("frame");
    }
    let sent = Instant::now();
    stream.write_all(&wire).expect("pipelined write");

    // The first request is dequeued first, so it draws chaos execution 1 and stalls.
    poll_until("the second query completed", || service.metrics().completed == 1);
    // The counter before the clock: a clock read under the stall proves the counter
    // was read under it too.
    let written = server.metrics().completed;
    assert!(sent.elapsed() < stall, "it completed beside the stall, not after it");
    assert_eq!(written, 0, "and waits its turn behind the first");
    for text in &texts {
        let want = reference.run(&parse_query(text).expect("parses"));
        assert_eq!(result_bytes(&recv_raw(&mut stream)), result_bytes(&want), "{text}");
    }
    drop(stream);

    poll_until("connection retired", || server.live_connections() == 0);
    let (n, s) = (server.metrics(), service.metrics());
    assert_eq!((n.submitted, n.completed, n.served_inline), (2, 2, 0));
    assert_eq!((s.cache_misses, s.executed_inline), (2, 0), "both crossed the pool");
    assert_books_balanced(&server);
}

/// A sharded server bounds its executions the way a pooled one does.  K closed-loop
/// connections each send one uncached request while the first execution is stuck:
/// with one worker and one queue slot nothing else starts executing, one request
/// waits in the queue, and the rest are shed as typed `Overloaded` frames — counted
/// alike at the wire and at the service.
#[test]
fn a_sharded_server_bounds_its_executions_and_sheds_the_overflow() {
    let (oracle, sharded, _) = dual_corpus(4, 40);
    let reference = ReferenceExecutor::new(&oracle);
    let chaos = ChaosConfig::new().with_stuck_query_on(1, Duration::from_millis(500));
    let service = Arc::new(ShardedQueryService::new(
        sharded.capture_cut(),
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0)
            .with_chaos(chaos.clone()),
    ));
    let server = start_server(Backend::Sharded(Arc::clone(&service)), ServerConfig::default());
    let k = 6usize;
    let mut clients: Vec<Client> =
        (0..k).map(|_| Client::connect(server.local_addr()).expect("connect")).collect();
    // The first request takes the one execution slot and sticks there ...
    clients[0].send(&fresh_query(0), &WireBudget::unbounded()).expect("send");
    poll_until("the stuck execution started", || chaos.executions() == 1);
    // ... while the other K - 1 arrive, each alone on its connection.
    for (i, client) in clients.iter_mut().enumerate().skip(1) {
        client.send(&fresh_query(i), &WireBudget::unbounded()).expect("send");
    }
    poll_until("the overflow was refused", || server.metrics().shed == (k - 2) as u64);
    assert_eq!(chaos.executions(), 1, "nothing started beside the stuck execution");

    let mut completed = 0u64;
    for (i, client) in clients.iter_mut().enumerate() {
        match client.recv() {
            Ok(got) => {
                let want = reference.run(&parse_query(&fresh_query(i)).expect("parses"));
                assert_eq!(result_bytes(&got), result_bytes(&want), "#{i}");
                completed += 1;
            }
            Err(NetError::Service(ServiceError::Overloaded { depth })) => assert_eq!(depth, 1),
            Err(e) => panic!("#{i}: expected Ok or typed Overloaded, got {e}"),
        }
    }
    assert_eq!(completed, 2, "the stuck request and the one queued behind it");
    assert_eq!(chaos.executions(), 2);
    drop(clients);

    poll_until("connections retired", || server.live_connections() == 0);
    let (n, s) = (server.metrics(), service.metrics());
    let k = k as u64;
    assert_eq!((n.submitted, n.completed, n.shed, n.failed), (k, 2, k - 2, 0));
    assert_eq!(n.shed, s.shed, "the wire and the service count the same sheds");
    assert_eq!(s.executed_inline, 1, "the stuck request ran on its reader");
    assert_books_balanced(&server);
}

/// `constraint path` honours its deadline on the reader thread: a closed-loop
/// request whose un-cancelled evaluation takes tens of milliseconds comes back as a
/// typed `DeadlineExceeded` well before that, and the connection answers the next.
#[test]
fn a_deadline_is_honoured_under_constraint_path() {
    // One annotated object per annotation and no shared term: object `j` is reached
    // only by annotation `j`, after `j` searches that fail — quadratic on purpose.
    let mut sys = Graphitti::new();
    for i in 0..600u64 {
        let obj = sys.register_sequence(format!("s{i}"), DataType::DnaSequence, 1_000, "chr1");
        sys.annotate()
            .comment(format!("protease site {i}"))
            .mark(obj, Marker::interval(10, 50))
            .commit()
            .unwrap();
    }
    let q = r#"SELECT graphs WHERE content contains "protease" AND constraint path 6"#;
    let expected =
        result_bytes(&ReferenceExecutor::new(&sys).run(&parse_query(q).expect("parses")));
    let server = start_server(pool_backend(&sys, 1), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let started = Instant::now();
    let full = client.query(q, &WireBudget::unbounded()).expect("the unbounded query completes");
    let uncancelled = started.elapsed();
    assert_eq!(result_bytes(&full), expected);
    assert!(uncancelled >= Duration::from_millis(20), "corpus too small: {uncancelled:?}");

    let started = Instant::now();
    let tight = WireBudget::unbounded().with_deadline(Duration::from_millis(1));
    match client.query(q, &tight) {
        Err(NetError::Service(ServiceError::DeadlineExceeded)) => {}
        other => panic!("expected a typed DeadlineExceeded frame, got {other:?}"),
    }
    let cancelled = started.elapsed();
    assert!(cancelled < uncancelled / 2, "{cancelled:?} against {uncancelled:?} un-cancelled");
    let again = client.query(q, &WireBudget::unbounded()).expect("the connection still answers");
    assert_eq!(result_bytes(&again), expected);
    drop(client);

    poll_until("connection retired", || server.live_connections() == 0);
    let n = server.metrics();
    assert_eq!((n.submitted, n.completed, n.failed, n.served_inline), (3, 2, 1, 3));
    let s = server.backend_metrics();
    assert_eq!((s.deadline_misses, s.executed_inline), (1, 3), "all three ran on the reader");
    assert_books_balanced(&server);
}
