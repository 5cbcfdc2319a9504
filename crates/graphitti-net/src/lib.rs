//! # graphitti-net — the network serving tier
//!
//! The front door the ROADMAP's production-scale direction calls for: a TCP
//! acceptor on `std::net` feeding the in-process serving layers
//! ([`graphitti_query::QueryService`] worker pool or
//! [`graphitti_query::ShardedQueryService`] scatter-gather), speaking a
//! length-framed binary protocol CRC-framed exactly like the WAL
//! (`[len u32 LE][crc32 u32 LE][payload]`, the same [`graphitti_core::wal::crc32`]).
//!
//! * [`protocol`] — the wire format: a request frame carries query DSL text plus
//!   the [`graphitti_query::QueryBudget`] (relative deadline + `allow_partial`);
//!   the response is **streamed result pages** (one frame per
//!   [`graphitti_query::ResultPage`], then a tail frame with the flat lists) —
//!   never a whole-result materialised blob — and every
//!   [`graphitti_query::ServiceError`] maps to a typed wire error frame;
//! * [`server`] — [`server::NetServer`]: thread-per-connection acceptor with
//!   connection-level shedding (a full house refuses with a typed error frame,
//!   extending PR 7's `Overloaded` admission path to the transport), a bounded
//!   per-connection in-flight window, slow readers throttled by the blocking
//!   page-write path (results are fully materialised before streaming, so a
//!   stalled socket never holds a snapshot open), and a plaintext `/health` +
//!   `/metrics` endpoint dumping the backend's
//!   [`graphitti_query::ServiceMetrics`] and the wire counters;
//! * [`client`] — the client library: framed send/receive with pipelining, page
//!   reassembly via [`graphitti_query::QueryResult::from_stream`] (byte-identical
//!   under `to_json` to the in-process answer), and a tiny HTTP getter for the
//!   health endpoint.  Used by the `benchmark/` workload driver and
//!   `examples/network_service.rs`.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{http_get, Client, NetError};
pub use protocol::{WireBudget, MAX_FRAME_LEN};
pub use server::{Backend, NetMetrics, NetServer, ServerConfig};
