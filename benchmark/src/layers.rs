//! The wider surface the per-layer timings need — and nothing else may.
//!
//! The traced run (`trace.rs`) times calls into each module's public functions
//! from outside; every such call is one small function here, named for the
//! layer it enters.  None of them measures anything: they only cross into the
//! repo crates, so a later benchmark PR can follow an API refactor by editing
//! this file (and `sut.rs` for the end-to-end mode).

use std::path::Path;
use std::sync::Arc;

use graphitti_core::interval_index::Interval;
use graphitti_core::spatial_index::Rect;
use graphitti_core::wal::{batch_dirty, scan_frames, WalStorage};
use graphitti_core::{
    recover_unsharded, AnnotationId, Checkpoint, DurabilityMode, FileStorage, Graphitti, LogOp,
    MemStorage, ShardCut, StudySnapshot, Wal, WalRecord,
};
// Types the traced run holds between calls (it never looks inside them).
pub use graphitti_core::{DurableShardedSystem, DurableSystem, Snapshot};
pub use graphitti_query::Query;
/// The service handle the traced run passes back in.
pub type Service = QueryService;
use graphitti_net::protocol::{
    decode_page, decode_request, decode_tail, encode_page, encode_request, encode_tail, read_frame,
    write_frame, FRAME_HEADER,
};
use graphitti_net::{WireBudget, MAX_FRAME_LEN};
use graphitti_query::{
    parse_query, Executor, Plan, QueryResult, QueryService, ServiceConfig, ServiceMetrics,
    ShardedExecutor, ShardedQueryService, ShardedServiceConfig,
};

use crate::cpu;
use crate::sut::{Res, CACHE_ENTRIES, WORKERS};

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// --- graphitti-net::protocol -------------------------------------------------

/// Bytes and frames one message put on the (in-memory) wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCost {
    /// Frame bytes, headers included.
    pub bytes: u64,
    /// Frames.
    pub frames: u64,
}

/// `encode_request` + `write_frame` + `read_frame` + `decode_request` through a
/// `Vec`; returns the DSL text as the server would see it.
pub fn request_codec(dsl: &str, cost: &mut WireCost) -> Res<String> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(dsl, &WireBudget::unbounded())).map_err(text)?;
    cost.bytes += wire.len() as u64;
    cost.frames += 1;
    let payload = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN)
        .map_err(text)?
        .ok_or("request frame vanished")?;
    Ok(decode_request(&payload).map_err(text)?.query)
}

/// `into_stream`, `encode_page` × n, `encode_tail`, frame write/read,
/// `decode_page` / `decode_tail`, `from_stream` — the whole response path of
/// `server::respond` and `Client::recv`, through a `Vec`.
pub fn response_codec(result: QueryResult, cost: &mut WireCost) -> Res<QueryResult> {
    let mut wire = Vec::new();
    let (pages, tail) = result.into_stream();
    let mut streamed = 0u32;
    for page in pages {
        write_frame(&mut wire, &encode_page(&page)).map_err(text)?;
        streamed += 1;
    }
    write_frame(&mut wire, &encode_tail(streamed, &tail)).map_err(text)?;
    cost.bytes += wire.len() as u64;
    cost.frames += u64::from(streamed) + 1;

    let mut reader = wire.as_slice();
    let mut decoded = Vec::with_capacity(streamed as usize);
    for _ in 0..streamed {
        let payload =
            read_frame(&mut reader, MAX_FRAME_LEN).map_err(text)?.ok_or("page frame vanished")?;
        decoded.push(decode_page(&payload).map_err(text)?);
    }
    let payload =
        read_frame(&mut reader, MAX_FRAME_LEN).map_err(text)?.ok_or("tail frame vanished")?;
    let (_, tail) = decode_tail(&payload).map_err(text)?;
    Ok(QueryResult::from_stream(decoded, tail))
}

// --- graphitti-query::parse / ::ast / ::plan / ::exec -------------------------

/// `parse_query`.
pub fn parse(dsl: &str) -> Res<Query> {
    parse_query(dsl).map_err(text)
}

/// `canonicalize` + `cache_key`: what the service does before it probes its cache.
pub fn canonicalize(query: &Query) -> Query {
    let canonical = query.canonicalize();
    std::hint::black_box(canonical.cache_key());
    canonical
}

/// `Plan::build` on a canonical query.
pub fn plan(canonical: &Query, snapshot: &Snapshot) -> Plan {
    Plan::build(canonical, snapshot.view())
}

/// `Executor::try_run_plan`, plan prebuilt.
pub fn execute(canonical: &Query, plan: &Plan, snapshot: &Snapshot) -> Res<QueryResult> {
    Executor::new(snapshot.view()).try_run_plan(canonical, plan).map_err(|e| format!("{e:?}"))
}

/// Result shape: `(nodes, pages)`.
pub fn result_shape(result: &QueryResult) -> (u64, u64) {
    (result.total_nodes() as u64, result.page_count() as u64)
}

/// Byte-identity form of a result.
pub fn result_json(result: &QueryResult) -> String {
    result.to_json()
}

// --- graphitti-query::service -------------------------------------------------

/// A `QueryService` with the benchmark's load shape and the given cache size.
pub fn service(snapshot: Snapshot, cache_entries: usize) -> Arc<QueryService> {
    let config = ServiceConfig::default().with_workers(WORKERS).with_cache_capacity(cache_entries);
    cpu::server_side();
    let service = Arc::new(QueryService::new(snapshot, config));
    cpu::client_side();
    service
}

/// `QueryService::run`: through the submission queue and a pool worker.
pub fn service_run(service: &QueryService, query: &Query) -> Res<QueryResult> {
    service.run(query.clone()).map_err(text)
}

/// `QueryService::run_now`: cache-aware, on the calling thread.
pub fn service_run_now(service: &QueryService, query: &Query) -> Res<QueryResult> {
    service.run_now(query).map_err(text)
}

/// `QueryService::publish`.
pub fn service_publish(service: &QueryService, snapshot: Snapshot) -> Res<()> {
    service.publish(snapshot).map_err(text)
}

/// `QueryService::attach_wal` with the system's log.
pub fn attach_wal(service: &QueryService, system: &DurableSystem) {
    service.attach_wal(system.wal());
}

/// `QueryService::metrics`.
pub fn service_metrics(service: &QueryService) -> ServiceMetrics {
    service.metrics()
}

// --- graphitti-query::sharded -------------------------------------------------

/// A `ShardedQueryService` with the benchmark's configuration.
pub fn sharded_service(cut: ShardCut) -> ShardedQueryService {
    let config = ShardedServiceConfig::default().with_cache_capacity(CACHE_ENTRIES);
    cpu::server_side();
    let service = ShardedQueryService::new(cut, config);
    cpu::client_side();
    service
}

/// `ShardedExecutor::try_run_canonical` on a cut.
pub fn sharded_execute(canonical: &Query, cut: &ShardCut) -> Res<QueryResult> {
    ShardedExecutor::new(cut).try_run_canonical(canonical).map_err(text)
}

/// `ShardedQueryService::publish`.
pub fn sharded_publish(service: &ShardedQueryService, cut: ShardCut) -> Res<()> {
    service.publish(cut).map_err(text)
}

// --- graphitti-core::system / batch / snapshot / shard -------------------------

/// A `DurableSystem` on `MemStorage` with logging off: the write path without
/// the WAL, so `apply` is batch + copy-on-write + commit only.
pub fn memory_system() -> DurableSystem {
    DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off)
}

/// The sharded twin of [`memory_system`].
pub fn memory_sharded_system(shards: usize) -> DurableShardedSystem {
    DurableShardedSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off, shards)
}

/// `DurableSystem::apply`.
pub fn apply(system: &mut DurableSystem, ops: &[LogOp]) -> Res<u64> {
    system.apply(ops).map_err(text)
}

/// `DurableShardedSystem::apply`.
pub fn apply_sharded(system: &mut DurableShardedSystem, ops: &[LogOp]) -> Res<u64> {
    system.apply(ops).map_err(text)
}

/// `Graphitti::snapshot`.
pub fn snapshot(system: &DurableSystem) -> Snapshot {
    system.system().snapshot()
}

/// `ShardedSystem::capture_cut`.
pub fn capture_cut(system: &DurableShardedSystem) -> ShardCut {
    system.system().capture_cut()
}

// --- graphitti-core::wal --------------------------------------------------------

/// A `DurableSystem` on `FileStorage`, `DurabilityMode::Sync`.
pub fn file_system(dir: &Path) -> Res<DurableSystem> {
    Ok(DurableSystem::create(Box::new(FileStorage::open(dir).map_err(text)?), DurabilityMode::Sync))
}

/// Arm automatic checkpoints.
pub fn checkpoint_every(system: DurableSystem, n: u64) -> DurableSystem {
    system.with_checkpoint_every(n)
}

/// `DurableSystem::checkpoint` (`study_snapshot` + `Wal::write_checkpoint`).
pub fn checkpoint(system: &mut DurableSystem) -> Res<()> {
    system.checkpoint().map_err(text)
}

/// `(records appended, fsyncs, checkpoints)` from `Wal::stats`.
pub fn wal_counters(system: &DurableSystem) -> (u64, u64, u64) {
    let stats = system.wal().stats();
    (stats.records_appended, stats.fsyncs, stats.checkpoints)
}

/// The WAL record a batch would be logged as.
pub fn wal_record(version: u64, ops: &[LogOp]) -> WalRecord {
    WalRecord { version, dirty: batch_dirty(ops).bits(), ops: ops.to_vec() }
}

/// `WalRecord::encode` (JSON + `encode_frame`).
pub fn wal_encode(record: &WalRecord) -> Vec<u8> {
    record.encode()
}

/// `WalRecord::decode` of one frame's payload.
pub fn wal_decode(frame: &[u8]) -> Res<WalRecord> {
    WalRecord::decode(frame.get(FRAME_HEADER..).ok_or("short frame")?).map_err(text)
}

/// A bare `FileStorage` and a `Wal` over a second one, for timing append and
/// fsync apart from everything else.
pub fn file_storage(dir: &Path) -> Res<FileStorage> {
    FileStorage::open(dir).map_err(text)
}

/// `WalStorage::append` on `FileStorage` (a buffered `write_all`).
pub fn storage_append(storage: &mut FileStorage, frame: &[u8]) -> Res<()> {
    storage.append(frame).map_err(text)
}

/// A `Wal` in `Async` mode over `FileStorage`: `append_record` does not sync,
/// so `flush` is exactly one fsync of what was appended.
pub fn async_wal(dir: &Path) -> Res<Wal> {
    Ok(Wal::new(Box::new(FileStorage::open(dir).map_err(text)?), DurabilityMode::Async))
}

/// `Wal::append_record`.
pub fn wal_append(wal: &Wal, record: &WalRecord) -> Res<()> {
    wal.append_record(record).map_err(text)
}

/// `Wal::flush`.
pub fn wal_flush(wal: &Wal) -> Res<()> {
    wal.flush().map_err(text)
}

// --- graphitti-core::recovery / study -------------------------------------------

/// `read_log` + `scan_frames`; returns the frame count.
pub fn recovery_scan(storage: &FileStorage) -> Res<usize> {
    Ok(scan_frames(&storage.read_log().map_err(text)?).payloads.len())
}

/// The checkpoint blob on disk.
pub fn read_checkpoint(storage: &FileStorage) -> Res<Vec<u8>> {
    storage.read_checkpoint().map_err(text)?.ok_or_else(|| "no checkpoint on disk".to_string())
}

/// `Checkpoint::decode`.
pub fn checkpoint_decode(blob: &[u8]) -> Res<Checkpoint> {
    Checkpoint::decode(blob).map_err(text)
}

/// `Checkpoint::encode`.
pub fn checkpoint_encode(checkpoint: &Checkpoint) -> Vec<u8> {
    checkpoint.encode()
}

/// The snapshot inside a checkpoint.
pub fn checkpoint_snapshot(checkpoint: &Checkpoint) -> &StudySnapshot {
    &checkpoint.snapshot
}

/// `Graphitti::from_study_snapshot`.
pub fn rebuild(snapshot: &StudySnapshot) -> Res<Graphitti> {
    Graphitti::from_study_snapshot(snapshot).map_err(text)
}

/// `recover_unsharded`; returns `(recovered version, records replayed)`.
pub fn recover(storage: &FileStorage) -> Res<(u64, u64)> {
    let (_, report) = recover_unsharded(storage).map_err(text)?;
    Ok((report.recovered_version, report.replayed_records as u64))
}

// --- substrates -------------------------------------------------------------------

/// `xmlstore`: `ContentStore::with_keyword`.
pub fn keyword_lookup(snapshot: &Snapshot, keyword: &str) -> usize {
    snapshot.view().content_store().with_keyword(keyword).len()
}

/// `interval-index`: `DomainIntervals::overlapping`.
pub fn interval_overlap(snapshot: &Snapshot, domain: &str, start: u64, end: u64) -> usize {
    snapshot.view().intervals().overlapping(domain, Interval::new(start, end)).len()
}

/// `spatial-index`: `CoordinateSystems::overlapping`.
pub fn spatial_overlap(snapshot: &Snapshot, system: &str, rect: [f64; 4]) -> usize {
    let [x0, y0, x1, y1] = rect;
    snapshot.view().spatial().overlapping(system, Rect::rect2(x0, y0, x1, y1)).len()
}

/// `ontology`: `ci` + is-a `subtree` of one concept.
pub fn ontology_expand(snapshot: &Snapshot, concept: u32) -> usize {
    use graphitti_core::ontology::{ConceptId, RelationType};
    let ontology = snapshot.view().ontology();
    ontology.ci(ConceptId(concept)).len()
        + ontology.subtree(ConceptId(concept), &RelationType::IsA).len()
}

/// `agraph`: `connect` on the content nodes of two annotations.
pub fn agraph_connect(snapshot: &Snapshot, a: u64, b: u64) -> usize {
    snapshot
        .view()
        .connect_annotations(&[AnnotationId(a), AnnotationId(b)])
        .map_or(0, |subgraph| subgraph.size())
}

/// Annotations in a snapshot (parameter range for [`agraph_connect`]).
pub fn annotation_count(snapshot: &Snapshot) -> u64 {
    snapshot.view().annotation_count() as u64
}
