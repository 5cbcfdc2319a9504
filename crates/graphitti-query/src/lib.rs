//! # graphitti-query — the query language, planner and executor
//!
//! "Queries in Graphitti are essentially graph queries that resemble SPARQL expressions
//! extended to handle (i) XQuery-like path expressions on a-graphs, (ii) type-specific
//! predicates on interval trees, (iii) XQuery fragments to retrieve fragments of
//! annotation.  The result of a query can be (a) a collection of heterogeneous
//! substructures, (b) fragments of XML documents and (c) connection subgraphs.  The
//! query processor operates by separating subqueries that belong to the different types
//! of data elements, finding a feasible order among these subqueries, and collating
//! partial results from these subqueries into a set of type-extended connection
//! subgraphs."
//!
//! This crate implements exactly that pipeline:
//!
//! * [`ast`] — the query model: a [`ast::Query`] is a target plus content, referent and
//!   ontology subqueries and graph constraints;
//! * [`plan`] — subquery separation and feasible ordering, with selectivity estimated
//!   from the system's live statistics ([`graphitti_core::Stats`]);
//! * [`exec`] — the plan-driven pipelined executor: the most selective subquery seeds
//!   the candidate set from a persistent inverted index, later subqueries verify the
//!   survivors by membership probes, and collation connects the pruned set through the
//!   a-graph;
//! * [`setops`] — sorted candidate-set operations (galloping intersection, membership
//!   probes, k-way posting-list union);
//! * [`service`] — the concurrent serving layer: one [`service::Service`] worker pool
//!   executing independent queries in parallel against a published [`Version`] — a
//!   [`graphitti_core::Snapshot`] ([`QueryService`]) or a [`graphitti_core::ShardCut`]
//!   ([`ShardedQueryService`]) — with admission control and an LRU result cache keyed
//!   by the canonical query form and invalidated, per footprint, on publish;
//! * [`sharded`] — scatter-gather execution over a hash-partitioned
//!   [`graphitti_core::ShardedSystem`]: per-shard candidate pipelines merged into a
//!   global collation pass over a consistent [`graphitti_core::ShardCut`];
//! * [`resilience`] — the overload-resilience substrate: typed
//!   [`resilience::ServiceError`]s, per-query [`resilience::QueryBudget`]s threaded as
//!   cooperative [`resilience::CancelToken`]s through every execution loop, and the
//!   [`resilience::ChaosConfig`] read-path fault-injection layer behind the chaos
//!   battery in `tests/chaos_resilience.rs`;
//! * [`reference`] — the scan-and-intersect reference executor: the correctness oracle
//!   for randomized equivalence tests;
//! * [`result`] — the result model: connection subgraphs organised into result pages;
//! * [`parse`] — a small textual query DSL producing a [`ast::Query`].
//!
//! See `exec::Executor` for the entry point and the crate tests / the `bench` crate for
//! the two worked example queries from the paper.

pub mod ast;
pub mod exec;
pub mod parse;
pub mod plan;
mod published;
pub mod reference;
pub mod resilience;
pub mod result;
pub mod service;
pub mod setops;
pub mod sharded;

pub use ast::{
    CacheKey, ContentFilter, GraphConstraint, OntologyFilter, Query, ReferentFilter, Target,
};
pub use exec::{CollateView, Executor};
pub use parse::{parse_query, ParseError};
pub use plan::{Plan, SubQuery, SubQueryKind};
pub use published::Version;
pub use reference::ReferenceExecutor;
pub use resilience::{CancelToken, ChaosConfig, Interrupt, QueryBudget, ServiceError};
pub use result::{PageList, QueryResult, ResultPage, ResultTail};
pub use service::{
    Evicted, QueryService, Resolved, Service, ServiceConfig, ServiceMetrics, Ticket,
};
pub use sharded::{ShardedExecutor, ShardedQueryService, ShardedServiceConfig};
