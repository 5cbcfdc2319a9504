//! Experiment D1 — durable write throughput and recovery time.
//!
//! Two sweeps over the WAL on a real [`FileStorage`] directory (under
//! `target/criterion-json/`, so fsyncs hit an actual filesystem):
//!
//! 1. **Durable writes** — N client threads append pre-encoded [`WalRecord`]s
//!    through one shared [`Wal`], sweeping [`DurabilityMode`] `Sync` (group commit:
//!    one fsync covers every concurrently submitted record) vs `Async` (append
//!    now, one barrier at publish).  Rows report records/second as `qps`, plus
//!    `records`, `fsyncs`, and the group-commit coalescing factor
//!    `batches_per_fsync` — the observable the group-commit leader exists for:
//!    under `Sync` with many clients it should clear 1.0 by a wide margin.
//! 2. **Recovery** — a durable system is driven through a batch schedule with a
//!    mid-stream checkpoint, then re-opened cold ([`DurableSystem::open`] /
//!    [`DurableShardedSystem::open`] at shards 4): checkpoint-then-tail replay,
//!    timed end-to-end.  Rows report batches recovered per second as `qps`,
//!    `recovery_ms`, and `replayed` (tail records past the checkpoint).
//!
//! This bench owns its measurement loop (like `overload.rs`) and writes the same
//! per-bench JSON directly; entries carry `qps`, so `bench_summary` routes them
//! into `BENCH_throughput.json`.  Pass `--quick` (as CI does) for a smoke run.

use std::time::Instant;

use bench::{table_header, table_row};
use graphitti_core::wal::batch_dirty;
use graphitti_core::xmlstore::DublinCore;
use graphitti_core::{
    DataType, DurabilityMode, DurableShardedSystem, DurableSystem, FileStorage, LogOp, LogReferent,
    Marker, ObjectId, Wal, WalRecord,
};

/// One measured configuration's outcome (write or recovery row).
struct Measurement {
    name: String,
    qps: f64,
    mean_ns: f64,
    records: u64,
    fsyncs: u64,
    clients: usize,
    shards: usize,
    recovery_ms: f64,
    replayed: u64,
}

/// A small representative batch: one register + one annotation (the dominant
/// published-batch shape).
fn sample_batch(step: u64) -> Vec<LogOp> {
    let start = (step * 37) % 1_500;
    vec![
        LogOp::register_sequence(format!("seq-{step}"), DataType::DnaSequence, 2_000, "chr1"),
        LogOp::Annotate {
            content: DublinCore::new()
                .field("description", format!("durable observation {step}"))
                .user_tag("curator", format!("u{}", step % 3)),
            referents: vec![LogReferent::New {
                object: ObjectId(step % 8),
                marker: Marker::interval(start, start + 40),
            }],
            terms: vec![],
        },
    ]
}

fn record_at(version: u64) -> WalRecord {
    let ops = sample_batch(version);
    WalRecord { version, dirty: batch_dirty(&ops).bits(), ops }
}

/// A scratch WAL directory under `target/` (a real filesystem, so `sync_data`
/// actually syncs), cleaned before each configuration.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = criterion::workspace_root().join("target").join("wal-bench").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durable write throughput: `clients` threads push `per_client` records each
/// through one shared group-committing [`Wal`].
fn measure_writes(mode: DurabilityMode, clients: usize, per_client: u64) -> Measurement {
    let tag = format!("writes-{mode:?}-{clients}");
    let storage = FileStorage::open(scratch_dir(&tag)).expect("open wal dir");
    let wal = Wal::new(Box::new(storage), mode);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let wal = wal.clone();
            scope.spawn(move || {
                for i in 0..per_client {
                    let version = client as u64 * per_client + i + 1;
                    wal.append_record(&record_at(version)).expect("durable append");
                }
            });
        }
    });
    // Async mode defers the barrier to publish; charge it to the run so the two
    // modes report comparable durability.
    wal.flush().expect("final barrier");
    let elapsed = start.elapsed();

    let stats = wal.stats();
    let total = clients as u64 * per_client;
    assert_eq!(stats.records_appended, total, "every record must reach the log");
    Measurement {
        name: format!(
            "D1_durability/writes/mode={}/clients={clients}",
            match mode {
                DurabilityMode::Sync => "sync",
                DurabilityMode::Async => "async",
                DurabilityMode::Off => "off",
            }
        ),
        qps: total as f64 / elapsed.as_secs_f64(),
        mean_ns: elapsed.as_nanos() as f64 / total as f64,
        records: stats.records_appended,
        fsyncs: stats.fsyncs,
        clients,
        shards: 0,
        recovery_ms: 0.0,
        replayed: 0,
    }
}

/// Recovery time: drive `batches` through a durable system with a checkpoint at
/// the midpoint, then time a cold `open` (checkpoint-then-tail replay).
fn measure_recovery(shards: usize, batches: u64) -> Measurement {
    let tag = format!("recovery-{shards}");
    let dir = scratch_dir(&tag);

    let build = |dir: &std::path::Path| FileStorage::open(dir).expect("open wal dir");
    if shards == 0 {
        let mut sys = DurableSystem::create(Box::new(build(&dir)), DurabilityMode::Sync);
        for step in 0..batches {
            sys.apply(&sample_batch(step)).expect("apply");
            if step == batches / 2 {
                sys.checkpoint().expect("checkpoint");
            }
        }
    } else {
        let mut sys =
            DurableShardedSystem::create(Box::new(build(&dir)), DurabilityMode::Sync, shards);
        for step in 0..batches {
            sys.apply(&sample_batch(step)).expect("apply");
            if step == batches / 2 {
                sys.checkpoint().expect("checkpoint");
            }
        }
    }

    let start = Instant::now();
    let (replayed, recovered_version) = if shards == 0 {
        let (sys, report) = DurableSystem::open(Box::new(build(&dir)), DurabilityMode::Sync)
            .expect("recover unsharded");
        assert_eq!(sys.version(), batches);
        (report.replayed_records as u64, report.recovered_version)
    } else {
        let (sys, report) =
            DurableShardedSystem::open(Box::new(build(&dir)), DurabilityMode::Sync, shards)
                .expect("recover sharded");
        assert_eq!(sys.version(), batches);
        (report.replayed_records as u64, report.recovered_version)
    };
    let elapsed = start.elapsed();
    assert_eq!(recovered_version, batches, "recovery must land on the published version");

    Measurement {
        name: format!("D1_durability/recovery/shards={shards}/batches={batches}"),
        qps: batches as f64 / elapsed.as_secs_f64(),
        mean_ns: elapsed.as_nanos() as f64 / batches as f64,
        records: batches,
        fsyncs: 0,
        clients: 0,
        shards,
        recovery_ms: elapsed.as_secs_f64() * 1_000.0,
        replayed,
    }
}

fn write_json(measurements: &[Measurement]) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let entries = jsonlite::Json::Arr(
        measurements
            .iter()
            .map(|m| {
                jsonlite::Json::obj([
                    ("bench", jsonlite::Json::str("durability")),
                    ("name", jsonlite::Json::str(m.name.clone())),
                    ("ns_per_iter", jsonlite::Json::Num(m.mean_ns)),
                    ("qps", jsonlite::Json::Num(m.qps)),
                    ("records", jsonlite::Json::u64(m.records)),
                    ("fsyncs", jsonlite::Json::u64(m.fsyncs)),
                    (
                        "batches_per_fsync",
                        jsonlite::Json::Num(if m.fsyncs > 0 {
                            m.records as f64 / m.fsyncs as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("clients", jsonlite::Json::u64(m.clients as u64)),
                    ("shards", jsonlite::Json::u64(m.shards as u64)),
                    ("recovery_ms", jsonlite::Json::Num(m.recovery_ms)),
                    ("replayed", jsonlite::Json::u64(m.replayed)),
                    ("cores", jsonlite::Json::u64(cores as u64)),
                ])
            })
            .collect(),
    );
    let path = std::env::var("BENCH_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
        let dir = criterion::workspace_root().join("target").join("criterion-json");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("durability.json")
    });
    if let Err(e) = std::fs::write(&path, entries.pretty() + "\n") {
        eprintln!("durability: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let client_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let per_client: u64 = if quick { 64 } else { 256 };
    let recovery_batches: u64 = if quick { 60 } else { 240 };

    table_header(
        "D1: durable write throughput & recovery",
        &["config", "clients", "qps", "records", "fsyncs", "grp", "recovery"],
    );

    let mut measurements = Vec::new();
    for &clients in client_counts {
        measurements.push(measure_writes(DurabilityMode::Sync, clients, per_client));
        measurements.push(measure_writes(DurabilityMode::Async, clients, per_client));
    }
    for shards in [0usize, 4] {
        measurements.push(measure_recovery(shards, recovery_batches));
    }

    for m in &measurements {
        table_row(&[
            m.name.clone(),
            m.clients.to_string(),
            format!("{:.0}", m.qps),
            m.records.to_string(),
            m.fsyncs.to_string(),
            if m.fsyncs > 0 {
                format!("{:.1}", m.records as f64 / m.fsyncs as f64)
            } else {
                "-".into()
            },
            if m.recovery_ms > 0.0 { format!("{:.1}ms", m.recovery_ms) } else { "-".into() },
        ]);
    }

    write_json(&measurements);
    println!("\ndurability: wrote {} measurements", measurements.len());
}
