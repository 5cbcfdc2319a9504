//! Experiment T2 — mixed read/write serving: publish stall, sustained write
//! throughput, and result-cache survival under concurrent readers.
//!
//! A writer replays the `datagen::mixed` write stream (ingest batches that register
//! new sequence objects, ontology batches that define vocabulary terms, and
//! annotation batches, each a homogeneous curation session) against a live system —
//! one [`CommitBatch`] per batch, one [`QueryService::publish`] after each — while N
//! reader clients continuously replay a query mix (content phrases plus an
//! ontology-footprint term query) against the service.  Because every publish leaves
//! a snapshot outstanding in the service, **every batch's first write is a
//! post-snapshot first write**: with per-component structural sharing it copies only
//! the components the write touches, and per-footprint cache invalidation means an
//! ingest batch evicts nothing and an ontology batch evicts only ontology-footprint
//! entries (the `per_component` row; the before-side numbers of the monolithic copy
//! and whole-cache clears it replaced are recorded in CHANGES.md, PRs 3 and 4).
//!
//! Reported per row: sustained write qps, post-snapshot first-write latency
//! p50/p95/p99 (the publish stall), concurrent read qps, and the reader cache
//! picture — hit rate, partial vs full invalidation counts, entries evicted.
//! Entries carry `qps`, so `bench_summary` routes them into `BENCH_throughput.json`.
//!
//! **Shards axis.** After the unsharded row the same drive runs against a
//! hash-partitioned [`ShardedSystem`](graphitti_core::ShardedSystem) served by the
//! scatter-gather [`ShardedQueryService`] at `shards ∈ {1, 2, 4}` (`--shards=` to
//! override): the writer replays the *same* batch stream through the shard router
//! (one logical batch → per-shard coalesced sub-batches → one published cut), the
//! readers hammer the same mix — including an id-pinned query the executor prunes to
//! its owning shard — and the final state is gated byte-for-byte against the
//! single-threaded [`Executor`] on the equivalent **unsharded oracle**.  Entries
//! carry a `shards` field (`0` = the unsharded service) so `BENCH_throughput.json`
//! reports the axis; on a single-core container shard counts cannot show wall-clock
//! wins (as with the worker sweep — see ROADMAP), so the row to watch is shards=1
//! vs the unsharded baseline (routing/merge overhead) and the cache picture.
//!
//! Pass `--quick` (as CI does) for a smoke run that doubles as a correctness gate:
//! small workload, every mix query's final answer asserted byte-identical to the
//! single-threaded [`Executor`] after the full stream (for the shard matrix: to the
//! executor on the unsharded oracle), plus a deterministic cache-metric sanity gate
//! (ingest-only batches cost zero evictions; ontology batches evict exactly the
//! ontology-footprint entry; full-dirty annotation batches still clear everything).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bench::{percentile, table_header, table_row};
use datagen::mixed::{self, MixedConfig};
use datagen::InfluenzaConfig;
use graphitti_core::{DataType, Marker, ObjectId};
use graphitti_query::{
    Executor, OntologyFilter, Query, QueryService, ReferentFilter, ServiceConfig,
    ShardedQueryService, ShardedServiceConfig, Target,
};
use interval_index::Interval;
use ontology::ConceptId;

/// One row's measured outcome.
struct Measurement {
    mode: String,
    /// Shard count (`0` = the unsharded `QueryService`).
    shards: usize,
    workers: usize,
    clients: usize,
    writes: usize,
    write_qps: f64,
    first_write_p50_ns: u64,
    first_write_p95_ns: u64,
    first_write_p99_ns: u64,
    read_qps: f64,
    read_p50_ns: u64,
    read_p95_ns: u64,
    read_p99_ns: u64,
    reads: usize,
    cache_hits: u64,
    cache_misses: u64,
    partial_invalidations: u64,
    full_invalidations: u64,
    entries_evicted: u64,
}

impl Measurement {
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The reader query mix, deliberately spanning several distinct read footprints so
/// partial invalidation has something to discriminate:
///
/// * the workload's content phrases (content footprint — evicted by annotation
///   batches only);
/// * per-segment interval-overlap queries (interval footprint — ditto);
/// * per-type referent queries (object footprint — evicted by ingest batches too,
///   conservatively: registration moves the object registry);
/// * an ontology-footprint term query (evicted by ontology / annotation batches).
fn read_mix(
    read_phrases: &[&'static str],
    read_term: Option<ConceptId>,
    segments: usize,
) -> Vec<Query> {
    let mut mix: Vec<Query> = read_phrases
        .iter()
        .map(|phrase| Query::new(Target::AnnotationContents).with_phrase(*phrase))
        .collect();
    // The id-bearing filter (object 0 is always a base sequence): under sharding the
    // scatter-gather executor prunes its referent scan to the owning shard.
    mix.push(Query::new(Target::Referents).with_referent(ReferentFilter::OnObject(ObjectId(0))));
    for seg in 0..segments.min(6) {
        for window in 0..4u64 {
            mix.push(Query::new(Target::Referents).with_referent(
                ReferentFilter::IntervalOverlaps {
                    domain: Some(format!("segment-{seg}")),
                    interval: Interval::new(window * 250, window * 250 + 300),
                },
            ));
        }
    }
    for ty in [DataType::DnaSequence, DataType::RnaSequence, DataType::ProteinSequence] {
        mix.push(Query::new(Target::Referents).with_referent(ReferentFilter::OfType(ty)));
    }
    if let Some(term) = read_term {
        mix.push(
            Query::new(Target::AnnotationContents).with_ontology(OntologyFilter::CitesTerm(term)),
        );
    }
    mix
}

/// Drive the unsharded service: the writer replays every batch (batch → publish) while
/// `clients` readers hammer the query mix; once the stream is exhausted the writer
/// keeps a paced **ingest-pad trickle** running (one single-register batch + publish
/// every ~1 ms) until the whole window reaches `min_window` — so every row serves
/// reads against the same minimum window of continuing footprint-disjoint publishes,
/// the traffic per-footprint invalidation exists for.  Write qps and the
/// publish-stall percentiles are measured over the stream replay alone (pads
/// excluded), the read/cache picture over the whole window.  Finally every mix
/// query's answer is gated against the single-threaded [`Executor`] on the final
/// state before the measurement is returned.
fn drive(
    config: &MixedConfig,
    workers: usize,
    clients: usize,
    min_window: Duration,
) -> Measurement {
    let mut workload = mixed::build(config);
    let mix = read_mix(&workload.read_phrases, workload.read_term, config.base.segments);
    let service = QueryService::new(
        workload.system.snapshot(),
        ServiceConfig::default().with_workers(workers).with_cache_capacity(256),
    );

    let mut first_write_ns: Vec<u64> = Vec::with_capacity(workload.write_batches.len());
    let mut writes = 0usize;
    let stop = AtomicBool::new(false);
    let (read_latencies, write_wall, window) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..clients)
            .map(|client| {
                let service = &service;
                let mix = &mix;
                let stop = &stop;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut i = client; // stagger the replay order per client
                    while !stop.load(Ordering::Relaxed) {
                        let q = mix[i % mix.len()].clone();
                        let t0 = Instant::now();
                        std::hint::black_box(service.run(q).unwrap());
                        lat.push(t0.elapsed().as_nanos() as u64);
                        i += 1;
                    }
                    lat
                })
            })
            .collect();

        // The writer: every batch's first write lands right after a publish, so the
        // service's snapshot is outstanding and copy-on-write is exercised each time.
        let write_start = Instant::now();
        for ops in &workload.write_batches {
            let t0 = Instant::now();
            let mut batch = workload.system.batch();
            let mut op_iter = ops.iter();
            if let Some(first) = op_iter.next() {
                writes += usize::from(first.apply(&mut batch));
                first_write_ns.push(t0.elapsed().as_nanos() as u64);
            }
            for op in op_iter {
                writes += usize::from(op.apply(&mut batch));
            }
            batch.commit();
            service.publish(workload.system.snapshot()).unwrap();
        }
        let write_wall = write_start.elapsed();

        // The ingest-pad trickle: steady footprint-disjoint publishes for the rest of
        // the window (a curator ingest session that never touches what the readers
        // ask about), paced just faster than a cleared cache could re-warm.  A pad
        // evicts only the object-footprint entries, so everything else keeps serving
        // hits across every publish.
        let mut pad = 0u64;
        while write_start.elapsed() < min_window {
            // Yield-spin to the next pad deadline: `thread::sleep` rounds up to the
            // scheduler tick (≥ 10ms on some kernels), which would turn the trickle
            // into a crawl; yielding hands the core to the reader threads instead.
            let deadline = Instant::now() + Duration::from_micros(300);
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            let mut batch = workload.system.batch();
            batch.register_sequence(format!("pad-{pad}"), DataType::DnaSequence, 1000, "chr-pad");
            pad += 1;
            batch.commit();
            service.publish(workload.system.snapshot()).unwrap();
        }
        let window = write_start.elapsed();
        stop.store(true, Ordering::Relaxed);

        let mut read_latencies = Vec::new();
        for handle in readers {
            read_latencies.extend(handle.join().expect("reader thread panicked"));
        }
        (read_latencies, write_wall, window)
    });

    // Capture the cache picture before the correctness gate below pollutes it.
    let metrics = service.metrics();

    first_write_ns.sort_unstable();
    let mut reads_sorted = read_latencies;
    reads_sorted.sort_unstable();
    let measurement = Measurement {
        mode: "per_component".to_string(),
        shards: 0,
        workers,
        clients,
        writes,
        write_qps: writes as f64 / write_wall.as_secs_f64(),
        first_write_p50_ns: percentile(&first_write_ns, 50.0),
        first_write_p95_ns: percentile(&first_write_ns, 95.0),
        first_write_p99_ns: percentile(&first_write_ns, 99.0),
        read_qps: reads_sorted.len() as f64 / window.as_secs_f64(),
        read_p50_ns: percentile(&reads_sorted, 50.0),
        read_p95_ns: percentile(&reads_sorted, 95.0),
        read_p99_ns: percentile(&reads_sorted, 99.0),
        reads: reads_sorted.len(),
        cache_hits: metrics.cache_hits,
        cache_misses: metrics.cache_misses,
        partial_invalidations: metrics.cache_partial_invalidations,
        full_invalidations: metrics.cache_full_invalidations,
        entries_evicted: metrics.cache_entries_evicted,
    };

    // Correctness gate: after the full stream, every mix query served by the pool
    // must be byte-identical to the single-threaded executor on the final state.
    let exec = Executor::new(&workload.system);
    for q in &mix {
        let expected = exec.run(q);
        let served = service.run(q.clone()).unwrap();
        assert_eq!(served.to_json(), expected.to_json(), "service diverged from Executor on {q:?}");
    }

    measurement
}

/// Drive the **sharded** serving path: same shape as [`drive`], but the writer
/// replays the stream through a [`ShardedSystem`]'s router (each logical batch
/// splits into per-shard coalesced sub-batches and publishes one consistent
/// [`ShardCut`](graphitti_core::ShardCut)) while the readers hammer the same mix
/// against a [`ShardedQueryService`] (per-footprint cut-cache invalidation; queries
/// execute on the reader's own thread — the scatter is the per-query parallelism,
/// the clients are the serving parallelism, so there is no worker pool to size).
/// The oracle replays the identical stream *after* the measured window (it is not
/// part of the sharded system's cost) and the final answers are gated byte-for-byte
/// against the single-threaded [`Executor`] on it.
fn drive_sharded(
    config: &MixedConfig,
    shards: usize,
    clients: usize,
    min_window: Duration,
) -> Measurement {
    let mut workload = mixed::build_sharded(config, shards);
    let mix = read_mix(&workload.read_phrases, workload.read_term, config.base.segments);
    let service = ShardedQueryService::new(
        workload.sharded.capture_cut(),
        ShardedServiceConfig::default().with_cache_capacity(256),
    );

    let mut first_write_ns: Vec<u64> = Vec::with_capacity(workload.write_batches.len());
    let mut writes = 0usize;
    let mut pads = 0u64;
    let stop = AtomicBool::new(false);
    let (read_latencies, write_wall, window) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..clients)
            .map(|client| {
                let service = &service;
                let mix = &mix;
                let stop = &stop;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut i = client; // stagger the replay order per client
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        std::hint::black_box(service.run(&mix[i % mix.len()]).unwrap());
                        lat.push(t0.elapsed().as_nanos() as u64);
                        i += 1;
                    }
                    lat
                })
            })
            .collect();

        // The writer: one logical batch per stream batch, one published cut after
        // each — so every batch's first write is a post-cut first write on its route
        // shard (and on every shard for a replicated registration).
        let write_start = Instant::now();
        for ops in &workload.write_batches {
            let t0 = Instant::now();
            let mut batch = workload.sharded.batch();
            let mut op_iter = ops.iter();
            if let Some(first) = op_iter.next() {
                writes += usize::from(first.apply_sharded(&mut batch));
                first_write_ns.push(t0.elapsed().as_nanos() as u64);
            }
            for op in op_iter {
                writes += usize::from(op.apply_sharded(&mut batch));
            }
            batch.commit();
            service.publish(workload.sharded.capture_cut()).unwrap();
        }
        let write_wall = write_start.elapsed();

        // The same ingest-pad trickle as the unsharded drive: each pad is a
        // replicated registration, which moves no shard's annotation-path epochs —
        // the cut cache keeps serving every non-object-footprint entry across it.
        while write_start.elapsed() < min_window {
            let deadline = Instant::now() + Duration::from_micros(300);
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            let mut batch = workload.sharded.batch();
            batch.register_sequence(format!("pad-{pads}"), DataType::DnaSequence, 1000, "chr-pad");
            pads += 1;
            batch.commit();
            service.publish(workload.sharded.capture_cut()).unwrap();
        }
        let window = write_start.elapsed();
        stop.store(true, Ordering::Relaxed);

        let mut read_latencies = Vec::new();
        for handle in readers {
            read_latencies.extend(handle.join().expect("reader thread panicked"));
        }
        (read_latencies, write_wall, window)
    });

    // Capture the cache picture before the correctness gate below pollutes it.
    let metrics = service.metrics();

    // Bring the oracle level with everything the sharded writer applied (stream,
    // then pads — identical op order means identical global ids and node ids).
    for ops in &workload.write_batches {
        let mut batch = workload.oracle.batch();
        for op in ops {
            op.apply(&mut batch);
        }
        batch.commit();
    }
    let mut batch = workload.oracle.batch();
    for pad in 0..pads {
        batch.register_sequence(format!("pad-{pad}"), DataType::DnaSequence, 1000, "chr-pad");
    }
    batch.commit();

    first_write_ns.sort_unstable();
    let mut reads_sorted = read_latencies;
    reads_sorted.sort_unstable();
    let measurement = Measurement {
        mode: format!("sharded{shards}"),
        shards,
        workers: 0, // no pool: callers execute, the scatter is the per-query fan-out
        clients,
        writes,
        write_qps: writes as f64 / write_wall.as_secs_f64(),
        first_write_p50_ns: percentile(&first_write_ns, 50.0),
        first_write_p95_ns: percentile(&first_write_ns, 95.0),
        first_write_p99_ns: percentile(&first_write_ns, 99.0),
        read_qps: reads_sorted.len() as f64 / window.as_secs_f64(),
        read_p50_ns: percentile(&reads_sorted, 50.0),
        read_p95_ns: percentile(&reads_sorted, 95.0),
        read_p99_ns: percentile(&reads_sorted, 99.0),
        reads: reads_sorted.len(),
        cache_hits: metrics.cache_hits,
        cache_misses: metrics.cache_misses,
        partial_invalidations: metrics.cache_partial_invalidations,
        full_invalidations: metrics.cache_full_invalidations,
        entries_evicted: metrics.cache_entries_evicted,
    };

    // Correctness gate: every mix query served over the final cut must be
    // byte-identical to the single-threaded executor on the unsharded oracle.
    let exec = Executor::new(&workload.oracle);
    for q in &mix {
        let expected = exec.run(q);
        let served = service.run(q).unwrap();
        assert_eq!(
            served.to_json(),
            expected.to_json(),
            "sharded service diverged from the unsharded oracle on {q:?} at {shards} shard(s)",
        );
    }

    measurement
}

/// Deterministic cache-metric sanity gate (quick mode): a single-threaded service is
/// populated from the read mix, then each batch kind is published in isolation and
/// the metrics deltas are asserted — an ingest batch costs zero content-footprint
/// evictions (only the object-footprint `OfType` entries go, conservatively), an
/// ontology batch evicts exactly the ontology-footprint entry, and a full-dirty
/// annotation batch still clears everything.
fn cache_sanity_gate(config: &MixedConfig) {
    let mut workload = mixed::build(config);
    let mix = read_mix(&workload.read_phrases, workload.read_term, config.base.segments);
    assert!(workload.read_term.is_some(), "sanity gate needs the ontology read query");
    let of_type_entries = mix
        .iter()
        .filter(|q| q.referents.iter().any(|f| matches!(f, ReferentFilter::OfType(_))))
        .count();
    let service = QueryService::new(
        workload.system.snapshot(),
        ServiceConfig::default().with_workers(1).with_cache_capacity(64),
    );
    for q in &mix {
        service.run(q.clone()).unwrap();
    }
    let entries = service.cache_len();
    assert_eq!(entries, mix.len(), "each mix query must occupy one cache entry");

    // Ingest-only batch: its dirty set misses every content / interval / ontology
    // footprint — only the `OfType` entries (object footprint) are evicted, and the
    // rest keep serving hits.
    let mut batch = workload.system.batch();
    for i in 0..5 {
        batch.register_sequence(format!("sanity-seq-{i}"), DataType::DnaSequence, 1000, "chr-s");
    }
    batch.commit();
    service.publish(workload.system.snapshot()).unwrap();
    let after_ingest = service.metrics();
    assert_eq!(
        after_ingest.cache_entries_evicted, of_type_entries as u64,
        "ingest batch must cost zero content-footprint evictions"
    );
    assert_eq!(service.cache_len(), entries - of_type_entries);
    let misses_before = after_ingest.cache_misses;
    for q in &mix {
        service.run(q.clone()).unwrap();
    }
    assert_eq!(
        service.metrics().cache_misses,
        misses_before + of_type_entries as u64,
        "every non-OfType query must hit after an ingest-only publish"
    );

    // Ontology batch: evicts exactly the ontology-footprint entry.
    let evicted_before = service.metrics().cache_entries_evicted;
    let mut batch = workload.system.batch();
    batch.ontology_mut().add_concept("sanity-term");
    batch.commit();
    service.publish(workload.system.snapshot()).unwrap();
    let after_onto = service.metrics();
    assert_eq!(
        after_onto.cache_entries_evicted,
        evicted_before + 1,
        "ontology batch must evict exactly the term-query entry"
    );
    assert_eq!(service.cache_len(), entries - 1);
    assert_eq!(after_onto.cache_partial_invalidations, 2, "both publishes were partial");
    assert_eq!(after_onto.cache_full_invalidations, 0);

    // Annotation batch: dirties what every footprint reads — the cache clears.
    for q in &mix {
        service.run(q.clone()).unwrap(); // repopulate the evicted entries first
    }
    assert_eq!(service.cache_len(), entries);
    let evicted_before = service.metrics().cache_entries_evicted;
    let target = workload.system.object_ids_of_type(DataType::DnaSequence)[0];
    let mut batch = workload.system.batch();
    batch
        .annotate()
        .comment("sanity protease note")
        .mark(target, Marker::interval(0, 10))
        .commit()
        .unwrap();
    batch.commit();
    service.publish(workload.system.snapshot()).unwrap();
    assert_eq!(service.cache_len(), 0, "annotation batch must clear every entry");
    let after_annotate = service.metrics();
    assert_eq!(after_annotate.cache_entries_evicted, evicted_before + entries as u64);
    assert_eq!(after_annotate.cache_full_invalidations, 1);
    println!("mixed_rw: cache-metric sanity gate passed ({} entries)", entries);
}

fn write_json(measurements: &[Measurement], cores: usize) {
    let mut entries = Vec::new();
    for m in measurements {
        for (kind, qps, p50, p95, p99, count) in [
            (
                "write",
                m.write_qps,
                m.first_write_p50_ns,
                m.first_write_p95_ns,
                m.first_write_p99_ns,
                m.writes,
            ),
            ("read", m.read_qps, m.read_p50_ns, m.read_p95_ns, m.read_p99_ns, m.reads),
        ] {
            let mut fields = vec![
                ("bench", jsonlite::Json::str("mixed_rw")),
                ("name", jsonlite::Json::str(format!("T2_mixed_rw/{}/{}_side", m.mode, kind))),
                // for the write side this is the post-snapshot first-write stall
                ("ns_per_iter", jsonlite::Json::Num(p50 as f64)),
                ("qps", jsonlite::Json::Num(qps)),
                ("p50_ns", jsonlite::Json::u64(p50)),
                ("p95_ns", jsonlite::Json::u64(p95)),
                ("p99_ns", jsonlite::Json::u64(p99)),
                ("clients", jsonlite::Json::u64(m.clients as u64)),
                ("workers", jsonlite::Json::u64(m.workers as u64)),
                ("shards", jsonlite::Json::u64(m.shards as u64)),
                ("cache", jsonlite::Json::u64(256)),
                ("queries", jsonlite::Json::u64(count as u64)),
                ("cores", jsonlite::Json::u64(cores as u64)),
            ];
            if kind == "read" {
                // The cache picture rides on the read side (hits are reads).
                fields.extend([
                    ("hit_rate", jsonlite::Json::Num(m.hit_rate())),
                    ("cache_hits", jsonlite::Json::u64(m.cache_hits)),
                    ("cache_misses", jsonlite::Json::u64(m.cache_misses)),
                    ("partial_invalidations", jsonlite::Json::u64(m.partial_invalidations)),
                    ("full_invalidations", jsonlite::Json::u64(m.full_invalidations)),
                    ("entries_evicted", jsonlite::Json::u64(m.entries_evicted)),
                ]);
            }
            entries.push(jsonlite::Json::obj(fields));
        }
    }
    let path = std::env::var("BENCH_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
        let dir = criterion::workspace_root().join("target").join("criterion-json");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("mixed_rw.json")
    });
    if let Err(e) = std::fs::write(&path, jsonlite::Json::Arr(entries).pretty() + "\n") {
        eprintln!("mixed_rw: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The shard matrix: `--shards=1,4` overrides (as the CI quick gate passes).
    let shard_counts: Vec<usize> = std::env::args()
        .find_map(|a| a.strip_prefix("--shards=").map(str::to_string))
        .map(|csv| {
            csv.split(',')
                .map(|s| s.trim().parse().expect("--shards takes a comma-separated list"))
                .collect()
        })
        .unwrap_or_else(|| if quick { vec![1, 4] } else { vec![1, 2, 4] });
    let (config, workers, clients, min_window) = if quick {
        (
            MixedConfig {
                seed: 7,
                base: InfluenzaConfig::small().with_annotations(120),
                batches: 8,
                writes_per_batch: 6,
                protease_prob: 0.4,
                register_batch_prob: 0.5,
                ontology_batch_prob: 0.25,
            },
            2,
            2,
            Duration::from_millis(200),
        )
    } else {
        (MixedConfig::default(), 4, 4, Duration::from_millis(1500))
    };

    if quick {
        cache_sanity_gate(&config);
    }

    table_header(
        &format!(
            "T2: mixed read/write serving ({cores} core(s), {} batches x {} writes)",
            config.batches, config.writes_per_batch
        ),
        &[
            "mode",
            "write qps",
            "stall p50",
            "stall p99",
            "read qps",
            "read p50",
            "hit rate",
            "inval p/f",
            "evicted",
        ],
    );

    let row = |m: &Measurement| {
        table_row(&[
            m.mode.to_string(),
            format!("{:.0}", m.write_qps),
            format!("{:.1}µs", m.first_write_p50_ns as f64 / 1_000.0),
            format!("{:.1}µs", m.first_write_p99_ns as f64 / 1_000.0),
            format!("{:.0}", m.read_qps),
            format!("{:.1}µs", m.read_p50_ns as f64 / 1_000.0),
            format!("{:.1}%", m.hit_rate() * 100.0),
            format!("{}/{}", m.partial_invalidations, m.full_invalidations),
            format!("{}", m.entries_evicted),
        ]);
    };
    let mut measurements = vec![drive(&config, workers, clients, min_window)];
    row(&measurements[0]);
    for &shards in &shard_counts {
        let m = drive_sharded(&config, shards, clients, min_window);
        row(&m);
        measurements.push(m);
    }

    let foot = &measurements[0];
    println!();
    for m in measurements.iter().filter(|m| m.shards > 0) {
        println!(
            "mixed_rw: shards={} read qps {:.0} ({:.2}x unsharded per_component), write qps \
             {:.0}, hit rate {:.1}%, zero divergences vs the unsharded oracle",
            m.shards,
            m.read_qps,
            m.read_qps / foot.read_qps,
            m.write_qps,
            m.hit_rate() * 100.0,
        );
    }

    write_json(&measurements, cores);
    println!("mixed_rw: wrote {} measurements", measurements.len() * 2);
}
