//! # graphitti-net — the network serving tier
//!
//! The front door the ROADMAP's production-scale direction calls for: a TCP
//! acceptor on `std::net` feeding the in-process serving layer — one
//! [`graphitti_query::Service`] worker pool, over a snapshot
//! ([`graphitti_query::QueryService`]) or a shard cut
//! ([`graphitti_query::ShardedQueryService`]), served alike — speaking a
//! length-framed binary protocol CRC-framed exactly like the WAL
//! (`[len u32 LE][crc32 u32 LE][payload]`, the same [`graphitti_core::wal::crc32`]).
//!
//! * [`protocol`] — the wire format: a request frame carries query DSL text plus
//!   the [`graphitti_query::QueryBudget`] (a relative deadline);
//!   the response is **a stream of result pages** (one frame per
//!   [`graphitti_query::ResultPage`], then a tail frame with the flat lists),
//!   every [`graphitti_query::ServiceError`] maps to a typed wire error frame,
//!   and one in-place encoder ([`protocol::ResponseBuffer`]) builds a whole
//!   response from the shared `Arc<QueryResult>` into a connection-owned buffer
//!   and sends it in one write;
//! * [`server`] — [`server::NetServer`]: thread-per-connection acceptor with
//!   connection-level shedding (a full house refuses with a typed error frame,
//!   extending PR 7's `Overloaded` admission path to the transport), a bounded
//!   per-connection in-flight window, a reader thread that answers whatever
//!   needs no worker — a result-cache hit above all — itself when nothing
//!   earlier is in flight ([`NetMetrics::served_inline`]), slow readers throttled
//!   by the blocking write path (results are fully materialised before they are
//!   sent, so a stalled socket never holds a snapshot open; pool workers never
//!   write), and a plaintext `/health` + `/metrics` endpoint dumping the
//!   backend's [`graphitti_query::ServiceMetrics`] and the wire counters;
//! * [`client`] — the client library: framed send/receive with pipelining,
//!   buffered reads (a response's frames arrive in one `read`), page reassembly
//!   via [`graphitti_query::QueryResult::from_stream`] (byte-identical under
//!   `to_json` to the in-process answer), and a tiny HTTP getter for the health
//!   endpoint.  Used by the `benchmark/` workload driver and
//!   `examples/network_service.rs`.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{http_get, Client, NetError};
pub use protocol::{WireBudget, MAX_FRAME_LEN};
pub use server::{Backend, NetMetrics, NetServer, ServerConfig};
