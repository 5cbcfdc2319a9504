//! The one adapter between the end-to-end mode and the system under test.
//!
//! Everything the end-to-end run does to the repo crates goes through this
//! file, and it uses only: the wire (`NetServer`, `Backend`, `Client`,
//! `WireBudget`), the service constructors with `publish` / `attach_wal` /
//! `metrics`, the durable API (`LogOp`, `Durable*System`, `FileStorage`,
//! `recover_*`), and — for the correctness checks only — `parse_query` with the
//! in-process executors and the a-graph's `node` / `edge` lookups.  A later PR
//! that refactors one of those APIs follows it by editing this file (and
//! `layers.rs` for the per-layer timings).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphitti_core::agraph::{MultiGraph, NodeId};
use graphitti_core::{
    recover_sharded, recover_unsharded, DurabilityMode, DurableShardedSystem, DurableSystem,
    FileStorage, Graphitti, LogOp, ShardedSystem,
};
use graphitti_net::{Backend, Client, NetMetrics, NetServer, ServerConfig, WireBudget};
use graphitti_query::{
    parse_query, Executor, QueryResult, QueryService, ServiceConfig, ServiceMetrics,
    ShardedExecutor, ShardedQueryService, ShardedServiceConfig,
};

use crate::cpu;

/// An answer, opaque outside this file: the benchmark only hands it back to
/// [`exact_json`], `labelled` and [`fingerprint`].
pub type Answer = QueryResult;

/// Errors cross the adapter as text: the benchmark only counts and prints them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Which serving stack a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `DurableSystem` behind `Backend::Pool`.
    Pool,
    /// `DurableShardedSystem` with this many shards behind `Backend::Sharded`.
    Sharded(usize),
}

/// The fixed load shape (see README): pinned explicitly because
/// `ServiceConfig::default()` reads the machine.
pub const WORKERS: usize = 2;
/// Result-cache capacity, both backends.
pub const CACHE_ENTRIES: usize = 256;

enum Store {
    Pool { system: DurableSystem, service: Arc<QueryService> },
    Sharded { system: DurableShardedSystem, service: Arc<ShardedQueryService> },
}

/// A live system: durable store, service, server on `127.0.0.1:0`, one client.
pub struct Session {
    store: Store,
    server: NetServer,
    client: Client,
    dir: PathBuf,
    acked: u64,
}

fn storage(dir: &Path) -> Res<Box<FileStorage>> {
    FileStorage::open(dir).map(Box::new).map_err(text)
}

impl Session {
    /// From an empty directory to ready-to-serve: ingest the corpus,
    /// `checkpoint()`, drop, re-open, build the service, `attach_wal`, bind,
    /// connect.  `checkpoint_every` arms automatic checkpoints on the re-opened
    /// system (`0` = manual only).
    pub fn set_up(
        dir: &Path,
        shape: Shape,
        corpus: &[Vec<LogOp>],
        checkpoint_every: u64,
    ) -> Res<Session> {
        let mode = DurabilityMode::Sync;
        let (store, backend) = match shape {
            Shape::Pool => {
                let mut fresh = DurableSystem::create(storage(dir)?, mode);
                for batch in corpus {
                    fresh.apply(batch).map_err(text)?;
                }
                fresh.checkpoint().map_err(text)?;
                drop(fresh);
                let (system, _report) = DurableSystem::open(storage(dir)?, mode).map_err(text)?;
                let system = system.with_checkpoint_every(checkpoint_every);
                let config = ServiceConfig::default()
                    .with_workers(WORKERS)
                    .with_cache_capacity(CACHE_ENTRIES);
                cpu::server_side();
                let service = Arc::new(QueryService::new(system.system().snapshot(), config));
                service.attach_wal(system.wal());
                let backend = Backend::Pool(Arc::clone(&service));
                (Store::Pool { system, service }, backend)
            }
            Shape::Sharded(shards) => {
                let mut fresh = DurableShardedSystem::create(storage(dir)?, mode, shards);
                for batch in corpus {
                    fresh.apply(batch).map_err(text)?;
                }
                fresh.checkpoint().map_err(text)?;
                drop(fresh);
                let (system, _report) =
                    DurableShardedSystem::open(storage(dir)?, mode, shards).map_err(text)?;
                let system = system.with_checkpoint_every(checkpoint_every);
                let config = ShardedServiceConfig::default().with_cache_capacity(CACHE_ENTRIES);
                cpu::server_side();
                let service =
                    Arc::new(ShardedQueryService::new(system.system().capture_cut(), config));
                service.attach_wal(system.wal());
                let backend = Backend::Sharded(Arc::clone(&service));
                (Store::Sharded { system, service }, backend)
            }
        };
        let acked = match &store {
            Store::Pool { system, .. } => system.version(),
            Store::Sharded { system, .. } => system.version(),
        };
        let server = NetServer::bind("127.0.0.1:0", backend, ServerConfig::default());
        cpu::client_side();
        let server = server.map_err(text)?;
        let client = Client::connect(server.local_addr()).map_err(text)?;
        Ok(Session { store, server, client, dir: dir.to_path_buf(), acked })
    }

    /// One client round trip: request framed → last frame decoded.
    pub fn query(&mut self, dsl: &str) -> Res<Answer> {
        self.client.query(dsl, &WireBudget::unbounded()).map_err(text)
    }

    /// One durable commit: `apply(batch)` (write-ahead, fsynced) then
    /// `publish(snapshot/cut)` (which flushes the attached WAL before the state
    /// becomes visible).  Returns once the batch is durable **and** visible.
    pub fn commit(&mut self, ops: &[LogOp]) -> Res<u64> {
        let version = match &mut self.store {
            Store::Pool { system, service } => {
                let version = system.apply(ops).map_err(text)?;
                service.publish(system.system().snapshot()).map_err(text)?;
                version
            }
            Store::Sharded { system, service } => {
                let version = system.apply(ops).map_err(text)?;
                service.publish(system.system().capture_cut()).map_err(text)?;
                version
            }
        };
        self.acked = version;
        Ok(version)
    }

    /// The oracle: the single-threaded in-process executor on the snapshot (or
    /// cut) the service currently serves.
    pub fn oracle(&self, dsl: &str) -> Res<Answer> {
        let query = parse_query(dsl).map_err(text)?;
        Ok(match &self.store {
            Store::Pool { service, .. } => Executor::new(service.snapshot().view()).run(&query),
            Store::Sharded { service, .. } => ShardedExecutor::new(&service.cut()).run(&query),
        })
    }

    /// [`labelled`] against the a-graph the service currently serves.
    pub fn labelled(&self, answer: &Answer) -> String {
        match &self.store {
            Store::Pool { service, .. } => labelled(answer, service.snapshot().view().agraph()),
            Store::Sharded { service, .. } => labelled(answer, service.cut().agraph()),
        }
    }

    /// The backend's serving counters.
    pub fn service_metrics(&self) -> ServiceMetrics {
        self.server.backend_metrics()
    }

    /// Number of acknowledged commits (the durable logical version).
    pub fn acked_version(&self) -> u64 {
        self.acked
    }

    /// Drain and stop: close the client, wait for the connection to retire,
    /// read the final counters, then drop server, service and system (in that
    /// order) and measure what is left on disk.
    pub fn shut_down(self) -> Res<Shutdown> {
        let Session { store, server, client, dir, acked } = self;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.live_connections() > 0 {
            if Instant::now() > deadline {
                return Err("connection did not retire within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let net = server.metrics();
        let service = server.backend_metrics();
        drop(server);
        drop(store);
        let file_len = |name: &str| std::fs::metadata(dir.join(name)).map(|m| m.len()).unwrap_or(0);
        Ok(Shutdown {
            net,
            service,
            acked,
            wal_bytes: file_len("wal.log"),
            checkpoint_bytes: file_len("checkpoint.bin"),
        })
    }
}

/// What a drained session leaves behind.
pub struct Shutdown {
    /// Wire counters at drain.
    pub net: NetMetrics,
    /// Service counters at drain.
    pub service: ServiceMetrics,
    /// Acknowledged commits.
    pub acked: u64,
    /// `wal.log` bytes on disk.
    pub wal_bytes: u64,
    /// `checkpoint.bin` bytes on disk.
    pub checkpoint_bytes: u64,
}

/// A system recovered from a run's directory, able to answer probe queries.
pub enum Recovered {
    /// From `recover_unsharded`.
    Pool(Graphitti),
    /// From `recover_sharded`.
    Sharded(ShardedSystem),
}

/// What `recover_*` reported.
pub struct RecoveryOutcome {
    /// The recovered system.
    pub system: Recovered,
    /// Logical version it landed on.
    pub version: u64,
    /// Tail records replayed past the checkpoint.
    pub replayed: u64,
    /// Version of the checkpoint it started from.
    pub checkpoint_version: u64,
}

/// `recover_unsharded` / `recover_sharded` on a run's directory (checkpoint + tail).
pub fn recover(dir: &Path, shape: Shape) -> Res<RecoveryOutcome> {
    let storage = storage(dir)?;
    let (system, report) = match shape {
        Shape::Pool => {
            let (system, report) = recover_unsharded(storage.as_ref()).map_err(text)?;
            (Recovered::Pool(system), report)
        }
        Shape::Sharded(shards) => {
            let (system, report) = recover_sharded(storage.as_ref(), shards).map_err(text)?;
            (Recovered::Sharded(system), report)
        }
    };
    Ok(RecoveryOutcome {
        system,
        version: report.recovered_version,
        replayed: report.replayed_records as u64,
        checkpoint_version: report.checkpoint_version,
    })
}

impl Recovered {
    /// Answer a probe query in process.
    pub fn answer(&self, dsl: &str) -> Res<Answer> {
        let query = parse_query(dsl).map_err(text)?;
        Ok(match self {
            Recovered::Pool(system) => Executor::new(system.view()).run(&query),
            Recovered::Sharded(system) => ShardedExecutor::new(&system.capture_cut()).run(&query),
        })
    }

    /// [`labelled`] against the recovered a-graph.
    pub fn labelled(&self, answer: &Answer) -> String {
        match self {
            Recovered::Pool(system) => labelled(answer, system.view().agraph()),
            Recovered::Sharded(system) => labelled(answer, system.agraph()),
        }
    }
}

/// The byte-identity form of an answer (`to_json`): what the wire answer and
/// the oracle on the same snapshot must agree on.
pub fn exact_json(answer: &Answer) -> String {
    answer.to_json()
}

/// An answer with every a-graph id replaced by what it names in `graph`: per
/// page its entities, its terminals and nodes as `(kind, key)` and its edges as
/// `(from key, label, to key)`, each list sorted, pages sorted, plus the flat
/// lists.  Two answers that differ only in how their graphs number nodes and
/// edges are equal in this form; a wrong node, edge or entity is not.
fn labelled(answer: &Answer, graph: &MultiGraph) -> String {
    let node = |id: &NodeId| graph.node(*id).map(|n| format!("{:?}:{}", n.kind, n.key));
    let sorted = |mut labels: Vec<String>| {
        labels.sort_unstable();
        labels
    };
    let nodes = |ids: &[NodeId]| sorted(ids.iter().map(|id| format!("{:?}", node(id))).collect());
    let pages = answer.pages.iter().map(|p| {
        let edges = p.subgraph.subgraph.edges.iter().map(|id| {
            let edge = graph.edge(*id);
            format!("{:?}", edge.map(|e| (node(&e.from), &e.label, node(&e.to))))
        });
        let mut terms: Vec<u32> = p.terms.iter().map(|t| t.0).collect();
        terms.sort_unstable();
        format!(
            "a{:?} r{:?} o{:?} t{terms:?} terminals{:?} nodes{:?} edges{:?}",
            p.annotations,
            p.referents,
            p.objects,
            nodes(&p.subgraph.terminals),
            nodes(&p.subgraph.subgraph.nodes),
            sorted(edges.collect())
        )
    });
    format!(
        "{:?} | a{:?} r{:?} o{:?} m{:?}",
        sorted(pages.collect()),
        answer.annotations,
        answer.referents,
        answer.objects,
        answer.missing_shards
    )
}

/// A cheap, order-sensitive digest of an answer: enough to notice a wrong
/// answer on a repeated query without paying `to_json` on the timed path.
pub type Fingerprint = (usize, usize, usize, usize, usize, u64);

/// Digest an answer (see [`Fingerprint`]).
pub fn fingerprint(result: &Answer) -> Fingerprint {
    let mut mix = 0u64;
    let mut fold = |v: u64| mix = (mix ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    result.annotations.iter().for_each(|a| fold(a.0));
    result.referents.iter().for_each(|r| fold(r.0));
    result.objects.iter().for_each(|o| fold(o.0));
    result.pages.iter().for_each(|p| fold(p.size() as u64));
    (
        result.pages.len(),
        result.annotations.len(),
        result.referents.len(),
        result.objects.len(),
        result.total_nodes(),
        mix,
    )
}
