//! # Graphitti
//!
//! An annotation management system for heterogeneous scientific objects — a Rust
//! reproduction of the ICDE 2008 demonstration paper *"Graphitti: An Annotation
//! Management System for Heterogeneous Objects"* (Gupta, Condit, Gupta; SDSC / UCSD).
//!
//! This facade crate re-exports every subsystem so applications can depend on a single
//! crate:
//!
//! * [`core`] — the annotation model and the [`core::Graphitti`] facade,
//! * [`query`] — the graph query language, planner and executor,
//! * [`agraph`] — the a-graph ("labelled join index"): entity nodes, the `Links` a
//!   system derives from its records, and `path` / `connect` over them,
//! * [`intervals`] — interval trees for 1-D substructures,
//! * [`spatial`] — R-trees for 2-D/3-D substructures,
//! * [`xml`] — the annotation-content store (Dublin Core records read as XML
//!   documents) and its path-expression engine,
//! * [`relational`] — the row check an object's metadata row passes before it is
//!   registered, and the heap tables of the relational comparator,
//! * [`onto`] — the OntoQuest-style ontology store,
//! * [`workloads`] — synthetic scientific workloads (influenza study, brain atlas).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete annotate-then-query walk-through. In
//! short:
//!
//! ```
//! use graphitti::core::{Graphitti, DataType, Marker};
//!
//! let mut sys = Graphitti::new();
//! // register a DNA sequence and annotate an interval of it
//! let seq = sys.register_sequence("H5N1-segment-4", DataType::DnaSequence, 1_800, "chr-demo");
//! let ann = sys
//!     .annotate()
//!     .title("putative cleavage site")
//!     .comment("polybasic cleavage site observed in HA")
//!     .creator("condit")
//!     .mark(seq, Marker::interval(1_020, 1_062))
//!     .commit()
//!     .unwrap();
//! assert!(sys.annotation(ann).is_some());
//! ```
//!
//! ## Performance
//!
//! Query execution is **plan-driven and pipelined** (see [`query::plan`] and
//! [`query::exec`]):
//!
//! * the system maintains **persistent inverted indexes** incrementally at
//!   register / annotate time ([`core::Indexes`]): term → annotation postings,
//!   data type → referents, block id → referents, referent → annotations — so no
//!   subquery ever scans the registries or rebuilds a throwaway map per query;
//! * the planner estimates subquery selectivity from **live statistics**
//!   ([`core::Stats`] plus keyword / element document frequencies) and orders
//!   subqueries most-selective-first;
//! * the most selective subquery of each family **seeds** the candidate set straight
//!   from an index, later subqueries **verify** the survivors with `O(log n)`
//!   membership probes, and candidate sets are sorted id vectors intersected by a
//!   galloping merge ([`query::setops`]);
//! * collation starts neighbor expansion from the pruned candidate set and splits the
//!   witness subgraph into result pages with a single induction + union-find pass.
//!
//! The scan-and-intersect strategy it replaced is preserved as [`query::reference`],
//! the oracle that randomized tests compare against.  The committed latency rows are
//! in `BENCH_query.json`: among them the `paper` bench's Q1 / Q2 queries and its B1 / B2
//! comparisons against a relational annotation store, each at two corpus sizes.  Run
//! `cargo bench -p bench` then `cargo run -p bench --bin bench_summary` to regenerate
//! it.
//!
//! ## Concurrency
//!
//! The read path is **snapshot-isolated and concurrent** (see `ARCHITECTURE.md` for
//! the full model):
//!
//! * [`core::Graphitti`] keeps all state in an `Arc`-shared [`core::SystemView`];
//!   [`core::Snapshot`] captures it in O(1) and the first mutation afterwards
//!   copy-on-publishes, so readers never block writers and never see torn state;
//! * [`query::QueryService`] executes independent queries from a submission queue in
//!   parallel on a worker pool (one query is one thread of control), and fronts
//!   execution with an LRU result cache keyed by the canonical query form
//!   ([`query::Query::canonicalize`]) whose entries are validated against the
//!   published snapshot where they are read, so a publish frees nothing.
//!
//! ## Sharding
//!
//! [`core::ShardedSystem`] hash-partitions annotations / referents / content across N
//! independent shards by anchor-object hash (object metadata and the ontology are
//! replicated; annotation/referent ids stay **global**), and
//! [`query::ShardedQueryService`] (the same [`query::Service`], pool and all) serves
//! scatter-gather over a consistent [`core::ShardCut`] — per-shard candidate pipelines merged by a k-way sorted union,
//! one global collation pass, answers **byte-identical** to the equivalent unsharded
//! system (the randomized cross-shard battery in
//! `crates/graphitti-query/tests/sharded_equivalence.rs` pins this at shard counts
//! {1, 2, 3, 8}).  See `examples/sharded_service.rs` and the "Sharding" section of
//! `ARCHITECTURE.md`.
//!
//! Run the `benchmark/` package (`BENCHMARK.json` at the repo root) for end-to-end
//! serving latency on cold, hot, read-write and 4-shard workloads.
//!
//! ## Network tier
//!
//! [`net::NetServer`] puts either serving layer behind a TCP endpoint speaking a
//! CRC-framed binary protocol (query DSL + budget in, **streamed result pages**
//! out, typed [`query::ServiceError`]s as wire error frames), with per-connection
//! backpressure, connection-level shedding, and a plaintext `/health` +
//! `/metrics` endpoint.  See the "Network tier" section of `ARCHITECTURE.md`,
//! `examples/network_service.rs`, and `crates/graphitti-net/tests/net_e2e.rs`.

pub use agraph;
pub use datagen as workloads;
pub use graphitti_core as core;
pub use graphitti_net as net;
pub use graphitti_query as query;
pub use interval_index as intervals;
pub use ontology as onto;
pub use relstore as relational;
pub use spatial_index as spatial;
pub use xmlstore as xml;
