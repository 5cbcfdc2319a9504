//! The TCP front door: acceptor, per-connection pipeline, health endpoint.
//!
//! One OS thread pair per connection: a **reader** decodes request frames
//! (through a small buffered reader, into one buffer it keeps) and resolves them
//! against the backend, a **writer** sends responses for whatever a pool worker is
//! still computing.  Each response is
//! encoded in place from the shared `Arc<QueryResult>` into a connection-owned
//! [`ResponseBuffer`] and leaves in one `write`.
//!
//! **Who executes.**  The backend is one [`Service`], over a snapshot or a shard cut,
//! erased once at [`NetServer::bind`]; both deployments take the path below.  The
//! reader resolves every request as far as it can without waiting on another thread
//! ([`Service::resolve`]): a parse rejection, a result-cache hit and an admission shed
//! are always resolved there.  A *miss* is executed by the reader too when the
//! connection is closed-loop, which the reader decides from the two things it can
//! see: **nothing earlier is in flight** on the connection, and **no further request
//! bytes are already buffered** behind the frame it just took.  Such a client is
//! waiting for this one answer, so executing it here costs nobody any parallelism —
//! subject to the service's own slot rule (fewer than `workers` executions in
//! progress, nothing queued), under the same chaos draw and panic isolation a worker
//! runs under.  A client that has pipelined keeps the pool: its misses become
//! tickets, execute concurrently across the workers and come back in submission
//! order, because a reader that executes has stopped reading.  Either way the
//! service's execution bound and admission queue hold, however many connections are
//! open.
//!
//! **Who writes.**  Whatever the reader resolved it **writes itself when nothing
//! earlier is in flight on the connection**: a closed-loop answer, hot or cold, is
//! one thread wake-up and one `write`, no channel, no condvar.
//! Everything else — a pool ticket, or a resolved response behind one — goes
//! through a bounded channel of at most [`ServerConfig::window`] entries to the
//! writer, in submission order.  The socket's write half is the lock around the
//! connection's [`ResponseBuffer`], and an in-flight counter beside the channel
//! says whose turn it is: the reader bumps it before queueing; the writer, ticket
//! redeemed, takes the lock, drops the counter and writes; the reader writes
//! inline only when it reads zero, and then through the same lock — so a response
//! it writes can never overtake one the writer still holds, and exactly one
//! thread writes at a time.  Pool workers never write: a stalled client may park
//! its own connection's two threads, never a worker.
//!
//! The backpressure story is unchanged:
//!
//! * a slow reader stalls whichever of the two threads is inside the socket
//!   `write_all`; a stalled writer fills the channel, which stalls the reader
//!   (a reader stalled in its own inline write has stopped reading already), and
//!   the client's own send buffer fills — per-connection memory is bounded by
//!   `window` materialised results plus two fixed buffers (the request buffer
//!   and the [`ResponseBuffer`]), and no snapshot is ever held open for a
//!   stalled socket (results are fully materialised by the backend *before* the
//!   write path touches them);
//! * the acceptor sheds whole connections past
//!   [`ServerConfig::max_connections`] with a typed error frame, extending the
//!   admission-control `Overloaded` path to the transport;
//! * every request decoded off the wire resolves to exactly one of
//!   completed / shed / failed in [`NetMetrics`] — the same conservation
//!   invariant the in-process services keep.
//!
//! A second listener serves plaintext `GET /health` and `GET /metrics`
//! (the backend's [`ServiceMetrics`] plus the wire counters) for probes that
//! speak HTTP, not the binary protocol.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use graphitti_query::parse_query;
use graphitti_query::resilience::{QueryBudget, ServiceError};
use graphitti_query::result::QueryResult;
use graphitti_query::service::{QueryService, Resolved, Service, ServiceMetrics, Ticket};
use graphitti_query::sharded::ShardedQueryService;
use graphitti_query::{Query, Version};

use crate::protocol::{
    decode_request, encode_failure, frame_kind, read_frame_into, write_frame, ResponseBuffer,
    WireBudget, WireFailure, KIND_REQUEST, MAX_FRAME_LEN,
};

/// The reader's request buffer: a request is ≈ 100 bytes, so a whole pipelined
/// window arrives in one `read`; a larger frame bypasses the buffer.
const REQUEST_BUFFER_LEN: usize = 4 * 1024;

/// Which deployment the front door feeds: the one [`Service`], over a snapshot or a
/// shard cut.  [`NetServer::bind`] erases the choice; the two are served alike.
#[derive(Clone)]
pub enum Backend {
    /// The unsharded deployment.
    Pool(Arc<QueryService>),
    /// The sharded deployment: every execution is a scatter-gather over the cut.
    Sharded(Arc<ShardedQueryService>),
}

/// What the front door needs of its backend, whichever version it serves.
trait Serve: Send + Sync {
    /// [`Service::resolve`].
    fn resolve(
        &self,
        query: &Query,
        budget: QueryBudget,
        here: bool,
    ) -> Result<Resolved, ServiceError>;
    /// [`Service::metrics`].
    fn metrics(&self) -> ServiceMetrics;
}

impl<V: Version> Serve for Service<V> {
    fn resolve(
        &self,
        query: &Query,
        budget: QueryBudget,
        here: bool,
    ) -> Result<Resolved, ServiceError> {
        Service::resolve(self, query, budget, here)
    }

    fn metrics(&self) -> ServiceMetrics {
        Service::metrics(self)
    }
}

/// Tunables for [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection ceiling: the acceptor sheds past this with a typed error frame.
    pub max_connections: usize,
    /// Per-connection in-flight response window (bounded channel capacity).
    pub window: usize,
    /// Socket read-timeout slice: how often a blocked reader rechecks shutdown.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_connections: 64, window: 4, poll_interval: Duration::from_millis(100) }
    }
}

impl ServerConfig {
    /// Builder: set the connection ceiling (min 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Builder: set the per-connection in-flight window (min 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

/// Snapshot of the wire-level counters.  The request counters keep the serving
/// conservation invariant: once every connection has drained,
/// `shed + completed + failed == submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Request frames decoded off the wire.
    pub submitted: u64,
    /// Responses fully streamed (pages + tail flushed).
    pub completed: u64,
    /// Requests refused by backend admission control (`Overloaded`), reported
    /// to the client as a typed error frame.
    pub shed: u64,
    /// Requests that ended in any other typed error frame, could not be parsed,
    /// or whose response could not be delivered (client gone mid-stream).
    pub failed: u64,
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connections refused at the ceiling with a `ConnectionShed` error frame.
    pub connections_shed: u64,
    /// Page frames streamed to clients (counted with their response, once its last
    /// byte has been handed to the socket).
    pub pages_streamed: u64,
    /// Connections killed by a framing violation (bad CRC, oversized frame,
    /// unknown kind).
    pub bad_frames: u64,
    /// Responses the connection's reader thread wrote itself instead of handing
    /// them to the writer thread — the path every closed-loop answer takes, hot or
    /// cold.  Each is also one of `completed` / `shed` / `failed`, so
    /// `served_inline <= completed + shed + failed`.
    pub served_inline: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    connections_accepted: AtomicU64,
    connections_shed: AtomicU64,
    pages_streamed: AtomicU64,
    bad_frames: AtomicU64,
    served_inline: AtomicU64,
}

impl Counters {
    fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    fn note_connection_shed(&self) {
        self.connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_pages_streamed(&self, pages: u32) {
        self.pages_streamed.fetch_add(u64::from(pages), Ordering::Relaxed);
    }

    fn note_served_inline(&self) {
        self.served_inline.fetch_add(1, Ordering::Relaxed);
    }

    fn note_bad_frame(&self) {
        self.bad_frames.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetMetrics {
        NetMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            pages_streamed: self.pages_streamed.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            served_inline: self.served_inline.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    backend: Arc<dyn Serve>,
    config: ServerConfig,
    counters: Counters,
    live: AtomicUsize,
    shutdown: AtomicBool,
}

/// What a request resolved to: the shared result, or the typed failure to send.
type Response = Result<Arc<QueryResult>, WireFailure>;

/// One request's resolution handle: written by the reader itself, or queued from
/// reader to writer.  The result is (or will be) fully materialised by the backend
/// and is only ever read through its `Arc` — whoever writes only moves bytes, so a
/// stalled socket holds at most `window` of these, never a snapshot.
enum Pending {
    /// Resolved on the reader thread: a parse rejection, a cache hit, a closed-loop
    /// miss executed there, or an admission error.
    Ready(Response),
    /// Pool execution in flight; the writer redeems the ticket in order.
    Pool(Ticket),
}

/// What a connection's reader and writer threads share (see "Who writes" in the
/// module docs).
struct Connection {
    /// The response buffer; holding its lock is owning the socket's write half.
    write_half: Mutex<ResponseBuffer>,
    /// Responses queued to the writer that it has not yet taken the write half for.
    in_flight: AtomicUsize,
}

impl Connection {
    /// Take the write half.  Poison-recovering: every send starts by clearing the
    /// buffer, so a panic mid-send leaves nothing a later send depends on.
    fn write_half_guard(&self) -> MutexGuard<'_, ResponseBuffer> {
        self.write_half.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The network front door: a listening acceptor plus a health listener.
/// Dropping the server stops accepting and wakes both listeners; established
/// connections finish on their own threads.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    health_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind the protocol listener on `addr` (use port 0 for an ephemeral port)
    /// and the health listener on the same interface, then start accepting.
    pub fn bind(addr: &str, backend: Backend, config: ServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let health_listener = TcpListener::bind(SocketAddr::new(local_addr.ip(), 0))?;
        let health_addr = health_listener.local_addr()?;
        let backend: Arc<dyn Serve> = match backend {
            Backend::Pool(service) => service,
            Backend::Sharded(service) => service,
        };
        let shared = Arc::new(Shared {
            backend,
            config,
            counters: Counters::default(),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("graphitti-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("graphitti-net-health".to_string())
                .spawn(move || health_loop(&health_listener, &shared))?
        };
        Ok(NetServer {
            shared,
            local_addr,
            health_addr,
            acceptor: Some(acceptor),
            health: Some(health),
        })
    }

    /// The protocol endpoint clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The plaintext `/health` + `/metrics` endpoint.
    pub fn health_addr(&self) -> SocketAddr {
        self.health_addr
    }

    /// Snapshot of the wire-level counters.
    pub fn metrics(&self) -> NetMetrics {
        self.shared.counters.snapshot()
    }

    /// The backend's own serving metrics.
    pub fn backend_metrics(&self) -> ServiceMetrics {
        self.shared.backend.metrics()
    }

    /// Live protocol connections right now.
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Stop accepting and wake both listeners.  Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Poke both blocking accept loops so they observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        let _ = TcpStream::connect(self.health_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// --- acceptor --------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = incoming else { continue };
        let live = shared.live.load(Ordering::Relaxed);
        if live >= shared.config.max_connections {
            // Connection-level shedding: a typed error frame, then close — the
            // transport analogue of `ServiceError::Overloaded`.
            shared.counters.note_connection_shed();
            let shed = WireFailure::ConnectionShed { live: live as u64 };
            let _ = write_frame(&mut &stream, &encode_failure(&shed));
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        if spawn_connection(stream, shared).is_err() {
            shared.counters.note_connection_shed();
        }
    }
}

fn spawn_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // The reader polls this timeout slice so shutdown is always observed.
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    // Request-response traffic: Nagle + delayed ACK would hold a pipelined
    // response ~40ms waiting for the previous one's ACK.
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    shared.live.fetch_add(1, Ordering::Relaxed);
    shared.counters.note_connection_accepted();
    let conn_shared = Arc::clone(shared);
    let spawned =
        std::thread::Builder::new().name("graphitti-net-conn".to_string()).spawn(move || {
            let (tx, rx) = mpsc::sync_channel::<Pending>(conn_shared.config.window);
            let conn = Arc::new(Connection {
                write_half: Mutex::new(ResponseBuffer::new()),
                in_flight: AtomicUsize::new(0),
            });
            let reader = {
                let shared = Arc::clone(&conn_shared);
                let conn = Arc::clone(&conn);
                std::thread::Builder::new()
                    .name("graphitti-net-read".to_string())
                    .spawn(move || read_loop(&reader_stream, &shared, &conn, &tx))
            };
            write_loop(&stream, &conn_shared, &conn, &rx);
            // Force the reader off its socket, then account the connection done.
            let _ = stream.shutdown(Shutdown::Both);
            if let Ok(handle) = reader {
                let _ = handle.join();
            }
            conn_shared.live.fetch_sub(1, Ordering::Relaxed);
        });
    match spawned {
        Ok(_) => Ok(()),
        Err(e) => {
            // Roll the admission back: the connection never ran.
            shared.live.fetch_sub(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

// --- per-connection reader -------------------------------------------------

/// `Read` adapter that rides out read-timeout ticks (rechecking shutdown) so
/// the framing layer never observes a torn frame across a poll boundary.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if self.shared.shutdown.load(Ordering::Relaxed) {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

fn read_loop(
    stream: &TcpStream,
    shared: &Arc<Shared>,
    conn: &Connection,
    tx: &mpsc::SyncSender<Pending>,
) {
    let mut reader = BufReader::with_capacity(REQUEST_BUFFER_LEN, PatientReader { stream, shared });
    let mut payload = Vec::new();
    loop {
        match read_frame_into(&mut reader, MAX_FRAME_LEN, &mut payload) {
            Ok(true) => {}
            // Clean EOF at a frame boundary: the client is done.
            Ok(false) => return,
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    shared.counters.note_bad_frame();
                }
                return;
            }
        }
        let pending = match frame_kind(&payload).map(|k| k == KIND_REQUEST) {
            Ok(true) => match decode_request(&payload) {
                Ok(request) => {
                    shared.counters.note_submitted();
                    // Closed-loop, as far as this thread can see: nothing earlier in
                    // flight, and the client has sent nothing behind this request —
                    // it is waiting for the answer, so this thread may compute it.
                    let here =
                        conn.in_flight.load(Ordering::Acquire) == 0 && reader.buffer().is_empty();
                    dispatch(shared, &request.query, &request.budget, here)
                }
                Err(_) => {
                    shared.counters.note_bad_frame();
                    return;
                }
            },
            _ => {
                shared.counters.note_bad_frame();
                return;
            }
        };
        let pending = match pending {
            // Already resolved and nothing earlier in flight: whatever the writer
            // was last given it has taken the write half for (its `Release`
            // decrement, read here with `Acquire`, comes after its lock), and only
            // this thread gives it more — so the lock below is ours as soon as
            // that write is out, and the answer leaves without a hand-off.
            Pending::Ready(response) if conn.in_flight.load(Ordering::Acquire) == 0 => {
                shared.counters.note_served_inline();
                if respond(&mut conn.write_half_guard(), stream, shared, response).is_err() {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                continue;
            }
            queued => queued,
        };
        // Backpressure: a full window blocks here, which stops reading, which
        // fills the client's send buffer.  `Err` means the writer is gone.
        conn.in_flight.fetch_add(1, Ordering::Relaxed);
        if tx.send(pending).is_err() {
            return;
        }
    }
}

/// Parse one request and resolve it as far as this thread can without waiting on
/// another: a cache hit, a typed refusal, or — `here`, into a free execution slot —
/// the execution itself.  A miss this thread may not execute comes back as a pool
/// ticket (it resolves on a worker, so one connection's queries pipeline).
fn dispatch(shared: &Arc<Shared>, query_text: &str, wire: &WireBudget, here: bool) -> Pending {
    let query = match parse_query(query_text) {
        Ok(query) => query,
        Err(e) => return Pending::Ready(Err(WireFailure::BadQuery(e.to_string()))),
    };
    let mut budget = QueryBudget::unbounded();
    if let Some(deadline) = wire.deadline {
        budget = budget.with_deadline(deadline);
    }
    match shared.backend.resolve(&query, budget, here) {
        Ok(Resolved::Ready(result)) => Pending::Ready(Ok(result)),
        Ok(Resolved::Queued(ticket)) => Pending::Pool(ticket),
        Err(e) => Pending::Ready(Err(WireFailure::Service(e))),
    }
}

// --- per-connection writer -------------------------------------------------

fn write_loop(
    stream: &TcpStream,
    shared: &Arc<Shared>,
    conn: &Connection,
    rx: &mpsc::Receiver<Pending>,
) {
    while let Ok(pending) = rx.recv() {
        let response = match pending {
            Pending::Ready(response) => response,
            Pending::Pool(ticket) => ticket.wait_shared().map_err(WireFailure::Service),
        };
        // Write half first, counter second: a reader that reads zero finds the
        // lock held until this response is out.
        let mut out = conn.write_half_guard();
        conn.in_flight.fetch_sub(1, Ordering::Release);
        let sent = respond(&mut out, stream, shared, response);
        drop(out);
        if sent.is_err() {
            // The socket is gone: stop reading new requests, then drain what the
            // reader already queued — every decoded request must still land on
            // exactly one outcome counter (here: failed, delivery impossible).
            let _ = stream.shutdown(Shutdown::Both);
            while let Ok(undeliverable) = rx.recv() {
                abandon(shared, undeliverable);
            }
            return;
        }
    }
}

/// Send one resolved response from `out` — page frames in result order, then the
/// tail, or one typed error frame — coalesced into one write, and account it.
/// Called by whichever thread holds the write half.  `Err` only for transport
/// failures (the request itself is always accounted before returning).
fn respond(
    out: &mut ResponseBuffer,
    stream: &TcpStream,
    shared: &Arc<Shared>,
    response: Response,
) -> io::Result<()> {
    let w = &mut &*stream;
    match response {
        Err(failure) => {
            // Admission-control refusals are sheds, every other error failed.
            if matches!(failure, WireFailure::Service(ServiceError::Overloaded { .. })) {
                shared.counters.note_shed();
            } else {
                shared.counters.note_failed();
            }
            out.send_failure(w, &failure)
        }
        Ok(result) => match out.send_result(w, &result) {
            Ok(pages) => {
                shared.counters.note_pages_streamed(pages);
                shared.counters.note_completed();
                Ok(())
            }
            Err(e) => {
                // The backend answered but the client never got it.
                shared.counters.note_failed();
                Err(e)
            }
        },
    }
}

/// Account a queued request whose connection died before its response could be
/// written.  Pool tickets are cancelled so an abandoned query stops burning its
/// worker; the wire outcome is uniformly `failed` (delivery was impossible).
fn abandon(shared: &Arc<Shared>, pending: Pending) {
    if let Pending::Pool(ticket) = &pending {
        ticket.cancel();
    }
    shared.counters.note_failed();
}

// --- health / metrics endpoint ---------------------------------------------

fn health_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = incoming else { continue };
        let _ = serve_health(&stream, shared);
        let _ = stream.shutdown(Shutdown::Both);
    }
}

fn serve_health(stream: &TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    let mut request = [0u8; 512];
    let n = (&mut &*stream).read(&mut request)?;
    let text = String::from_utf8_lossy(request.get(..n).unwrap_or_default());
    let path = text.split_whitespace().nth(1).unwrap_or("").to_string();
    let (status, body) = match path.as_str() {
        "/health" => ("200 OK", "ok\n".to_string()),
        "/metrics" => ("200 OK", metrics_text(shared)),
        _ => ("404 Not Found", "unknown path (try /health or /metrics)\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    (&mut &*stream).write_all(response.as_bytes())?;
    (&mut &*stream).flush()
}

/// `/metrics` body: `name value` lines — the wire counters (`net_` prefix) and
/// the backend's full [`ServiceMetrics`] (`service_` prefix).
fn metrics_text(shared: &Arc<Shared>) -> String {
    let n = shared.counters.snapshot();
    let s = shared.backend.metrics();
    let mut out = String::new();
    let mut line = |name: &str, value: u64| {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    line("net_submitted", n.submitted);
    line("net_completed", n.completed);
    line("net_shed", n.shed);
    line("net_failed", n.failed);
    line("net_connections_accepted", n.connections_accepted);
    line("net_connections_shed", n.connections_shed);
    line("net_pages_streamed", n.pages_streamed);
    line("net_bad_frames", n.bad_frames);
    line("net_served_inline", n.served_inline);
    line("net_live_connections", shared.live.load(Ordering::Relaxed) as u64);
    line("service_submitted", s.submitted);
    line("service_completed", s.completed);
    line("service_shed", s.shed);
    line("service_executed_inline", s.executed_inline);
    line("service_failed", s.failed);
    line("service_deadline_misses", s.deadline_misses);
    line("service_cancelled", s.cancelled);
    line("service_worker_panics", s.worker_panics);
    line("service_workers_respawned", s.workers_respawned);
    line("service_wal_flush_failures", s.wal_flush_failures);
    line("service_cache_hits", s.cache_hits);
    line("service_cache_misses", s.cache_misses);
    line("service_publishes", s.publishes);
    line("service_cache_invalidations", s.cache_invalidations);
    line("service_cache_partial_invalidations", s.cache_partial_invalidations);
    line("service_cache_full_invalidations", s.cache_full_invalidations);
    line("service_cache_entries_evicted", s.cache_entries_evicted);
    line("service_wal_records_appended", s.wal_records_appended);
    line("service_wal_fsyncs", s.wal_fsyncs);
    line("service_recovery_replays", s.recovery_replays);
    out
}
