//! The traced run: the same inputs replayed on one thread through each
//! module's public functions, with a span around every call.
//!
//! Spans (name, start, end, parent, request id) are recorded here, in the
//! benchmark's own files, around the calls in `layers.rs`; spans inside the
//! program are a later change.  They stay in memory and are written to
//! `out/trace-<workload>.jsonl` when the run ends.  End-to-end metrics never
//! come from this run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::e2e::{Inputs, Report, RunOptions};
use crate::gen::{self, QueryOp, Rng, WriteStream};
use crate::layers::{self, WireCost};
use crate::stats;
use crate::sut::{self, Session};
use crate::workload::{Metric, Mix, Workload};

/// One recorded span.
struct Span {
    name: &'static str,
    /// Index of the causing span, or `usize::MAX` for a root.
    parent: usize,
    /// Spans of one request share this identifier.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span that was begun and not yet ended.
struct Open {
    started: Instant,
    index: Option<usize>,
}

/// The in-memory span recorder.  Durations are always measured; recording the
/// span is what `enabled` switches, so the same loop run twice gives the
/// tracing overhead.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        // Room for a whole run: a reallocation in the middle of a request would be
        // charged to the request's span and to none of its children.
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::with_capacity(1 << 18),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, request: u32) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let parent = self.open.last().copied().unwrap_or(usize::MAX);
            let start_ns = (started - self.origin).as_nanos() as u64;
            self.spans.push(Span { name, parent, request, start_ns, end_ns: start_ns });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    fn end(&mut self, open: Open) -> u64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = (now - self.origin).as_nanos() as u64;
            self.open.pop();
        }
        (now - open.started).as_nanos() as u64
    }

    /// Run `f` inside a span and push its duration (ns) onto `sink`.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        sink: &mut Vec<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, request);
        let value = f();
        sink.push(self.end(open));
        value
    }

    /// Per span, the time its child spans cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != usize::MAX {
                covered[span.parent] += span.end_ns - span.start_ns;
            }
        }
        covered
    }

    /// Per span name: `(count, total ns, self ns)` where self time is the
    /// span's duration minus what its child spans cover.
    fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let covered = self.covered();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let row = match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => row,
                None => {
                    rows.push((span.name, 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += total;
            row.3 += total.saturating_sub(covered);
        }
        rows
    }

    /// How well the children of the `root`-named spans account for them:
    /// `(Σ children ÷ Σ roots, share of roots whose own children cover ≥ 95 %)`.
    fn reconcile(&self, root: &str) -> (f64, f64) {
        let covered = self.covered();
        let (mut roots, mut within, mut total, mut children) = (0u64, 0u64, 0u64, 0u64);
        for (span, covered) in self.spans.iter().zip(covered) {
            if span.name == root {
                let duration = span.end_ns - span.start_ns;
                roots += 1;
                total += duration;
                children += covered;
                if covered as f64 >= 0.95 * duration as f64 {
                    within += 1;
                }
            }
        }
        (children as f64 / total.max(1) as f64, within as f64 / roots.max(1) as f64)
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == usize::MAX { -1 } else { span.parent as i64 };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Durations kept the way the end-to-end metrics keep them — one item per
/// distinct query (grouped by template) or per commit kind — and reported with
/// the same estimator, [`stats::grouped_low_decile`].
struct Samples {
    items: Vec<Vec<u64>>,
    group_of: Vec<usize>,
}

impl Samples {
    /// One item per query of `list`, grouped by template.
    fn per_query(list: &[QueryOp]) -> Samples {
        Samples {
            items: vec![Vec::new(); list.len()],
            group_of: list.iter().map(|op| op.template).collect(),
        }
    }

    /// One item per commit kind, each its own group.
    fn by_kind() -> Samples {
        let kinds = gen::COMMIT_KINDS.len();
        Samples { items: vec![Vec::new(); kinds], group_of: (0..kinds).collect() }
    }

    /// A single item.
    fn one() -> Samples {
        Samples { items: vec![Vec::new()], group_of: vec![0] }
    }

    fn p10_us(&mut self) -> f64 {
        stats::grouped_low_decile(&mut self.items, &self.group_of) / 1e3
    }

    fn max_ms(&self) -> f64 {
        self.items.iter().flatten().copied().max().unwrap_or(0) as f64 / 1e6
    }

    fn sum_ns(&self) -> u64 {
        self.items.iter().flatten().sum()
    }
}

/// The query-path layers of one request, in call order.
struct RequestLayers {
    request: Samples,
    request_codec: Samples,
    parse: Samples,
    canon: Samples,
    plan: Samples,
    exec: Samples,
    response_codec: Samples,
    wire: WireCost,
    nodes: u64,
    pages: u64,
    requests: u64,
}

impl RequestLayers {
    fn new(list: &[QueryOp]) -> RequestLayers {
        RequestLayers {
            request: Samples::per_query(list),
            request_codec: Samples::per_query(list),
            parse: Samples::per_query(list),
            canon: Samples::per_query(list),
            plan: Samples::per_query(list),
            exec: Samples::per_query(list),
            response_codec: Samples::per_query(list),
            wire: WireCost::default(),
            nodes: 0,
            pages: 0,
            requests: 0,
        }
    }
}

/// One request through the in-process request path — request codec → parse →
/// canonicalize → plan → execute → response codec — one span per call, all
/// children of the request's span.
fn replay_request(
    tracer: &mut Tracer,
    l: &mut RequestLayers,
    id: u32,
    at: usize,
    op: &QueryOp,
    snapshot: &layers::Snapshot,
) -> Result<(), String> {
    let request = tracer.begin("request", id);
    let dsl = tracer.time("net.request_codec", id, &mut l.request_codec.items[at], || {
        layers::request_codec(&op.text, &mut l.wire)
    })?;
    let query = tracer.time("parse", id, &mut l.parse.items[at], || layers::parse(&dsl))?;
    let canonical =
        tracer.time("canon", id, &mut l.canon.items[at], || layers::canonicalize(&query));
    let plan =
        tracer.time("plan", id, &mut l.plan.items[at], || layers::plan(&canonical, snapshot));
    let result = tracer
        .time("exec", id, &mut l.exec.items[at], || layers::execute(&canonical, &plan, snapshot))?;
    let (nodes, pages) = layers::result_shape(&result);
    let result = tracer.time("net.response_codec", id, &mut l.response_codec.items[at], || {
        layers::response_codec(result, &mut l.wire)
    })?;
    std::hint::black_box(result);
    let elapsed = tracer.end(request);
    l.request.items[at].push(elapsed);
    l.nodes += nodes;
    l.pages += pages;
    l.requests += 1;
    Ok(())
}

/// The write-path layers of one in-process commit: apply while the published
/// snapshot is still held (copy-on-write), snapshot, publish.
struct CommitLayers {
    apply_shared: Samples,
    snapshot: Samples,
    publish: Samples,
    alloc_bytes: u64,
    count: u64,
}

impl CommitLayers {
    fn new() -> CommitLayers {
        CommitLayers {
            apply_shared: Samples::by_kind(),
            snapshot: Samples::one(),
            publish: Samples::one(),
            alloc_bytes: 0,
            count: 0,
        }
    }

    fn commit(
        &mut self,
        tracer: &mut Tracer,
        system: &mut layers::DurableSystem,
        writes: &mut WriteStream,
        service: &layers::Service,
    ) -> Result<(), String> {
        let (kind, ops) = writes.next_batch();
        let id = self.count as u32;
        let before = alloc::counters().1;
        tracer.time("core.apply_shared", id, &mut self.apply_shared.items[kind], || {
            layers::apply(system, &ops)
        })?;
        self.alloc_bytes += alloc::counters().1 - before;
        let fresh = tracer
            .time("core.snapshot", id, &mut self.snapshot.items[0], || layers::snapshot(system));
        tracer.time("service.publish", id, &mut self.publish.items[0], || {
            layers::service_publish(service, fresh)
        })?;
        self.count += 1;
        Ok(())
    }
}

/// Apply the whole corpus, batch by batch.
fn ingest(system: &mut layers::DurableSystem, inputs: &Inputs) -> Result<(), String> {
    inputs.corpus.batches.iter().try_for_each(|batch| layers::apply(system, batch).map(drop))
}

/// Entries of the cold list the traced run replays (64 rounds of 7 templates).
const TRACED_LIST: usize = 64 * gen::TEMPLATES;

fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9)
}

/// Run the traced replay of one workload and report the per-layer metrics.
pub fn run(workload: Workload, inputs: &Inputs, options: &RunOptions) -> Result<Report, String> {
    let base = options.out.join(format!("trace-{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("cannot create {}: {e}", base.display()))?;
    let outcome = run_in(&base, workload, inputs, options);
    let _ = std::fs::remove_dir_all(&base);
    outcome
}

fn run_in(
    base: &Path,
    workload: Workload,
    inputs: &Inputs,
    options: &RunOptions,
) -> Result<Report, String> {
    let scale = |per_second: f64| ((per_second * options.seconds) as usize).max(gen::HOT_QUERIES);
    // The traced op list: the workload's own, the cold one cut to 64 rounds
    // (448 distinct queries — still more than the LRU keeps) so that every
    // query is repeated often enough to have a low decile of its own.
    let list = inputs.list(workload.mix);
    let list = &list[..list.len().min(TRACED_LIST)];
    let requests = scale(700.0);
    let mut tracer = Tracer::new();
    let mut violations = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut m: Vec<Metric> = Vec::new();

    // === core: ingest, then commits with no snapshot held (the in-place path) ===
    let mut inplace = layers::memory_system();
    let started = Instant::now();
    ingest(&mut inplace, inputs)?;
    let ingest_s = started.elapsed().as_secs_f64();
    let write_commits = scale(20.0).min(400);
    let mut apply_inplace = Samples::by_kind();
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    for i in 0..write_commits {
        let (kind, ops) = writes.next_batch();
        tracer.time("core.apply_inplace", i as u32, &mut apply_inplace.items[kind], || {
            layers::apply(&mut inplace, &ops)
        })?;
    }
    attempted += write_commits as u64;
    drop(inplace);
    m.push(Metric::measured(
        "core.ingest_ops_per_s",
        inputs.corpus.op_count() as f64 / ingest_s,
        "1/s",
    ));
    m.push(Metric::measured("core.apply_inplace_us", apply_inplace.p10_us(), "us"));

    // === the serving system: corpus in memory, one snapshot for the read layers ===
    let mut system = layers::memory_system();
    ingest(&mut system, inputs)?;
    let snapshot = layers::snapshot(&system);

    // --- query path, request by request ---
    // The list is replayed cyclically; cycles alternate between recording spans
    // and not, so the two sets see the same machine and their difference is the
    // tracing overhead.  The layer metrics and the allocation counts come from
    // the cycles that do not record.
    let (mut untraced, mut traced) = (RequestLayers::new(list), RequestLayers::new(list));
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    for cycle in 0..(2 * requests).div_ceil(list.len()) {
        tracer.enabled = cycle % 2 == 1;
        let before = alloc::counters();
        for (at, op) in list.iter().enumerate() {
            let id = (cycle * list.len() + at) as u32;
            let layers = if tracer.enabled { &mut traced } else { &mut untraced };
            replay_request(&mut tracer, layers, id, at, op, &snapshot)?;
        }
        if !tracer.enabled {
            let after = alloc::counters();
            allocs += after.0 - before.0;
            alloc_bytes += after.1 - before.1;
        }
    }
    tracer.enabled = true;
    attempted += untraced.requests + traced.requests;
    let n = untraced.requests as f64;
    let per_request = |l: &RequestLayers| l.request.sum_ns() as f64 / l.requests.max(1) as f64;
    let overhead = per_request(&traced) / per_request(&untraced) - 1.0;
    let (reconciled, reconciled_share) = tracer.reconcile("request");
    // On the `--quick` corpus a request is ≈ 15 µs and the recorder's own seven
    // begin/end pairs are 5 % of it: the share is printed there, not asserted.
    if options.seconds >= 2.0 && (1.0 - reconciled).abs() > 0.05 {
        violations.push(format!(
            "per-request child spans cover {:.1} % of the request spans (must be within 5 %)",
            reconciled * 100.0
        ));
    }
    let request_codec_us = untraced.request_codec.p10_us();
    let response_codec_us = untraced.response_codec.p10_us();
    let parse_us = untraced.parse.p10_us();
    let plan_us = untraced.plan.p10_us();
    let exec_us = untraced.exec.p10_us();
    let nodes_per_result = untraced.nodes as f64 / n;
    m.push(Metric::measured("net.request_codec_us", request_codec_us, "us"));
    m.push(Metric::measured("net.response_codec_us", response_codec_us, "us"));
    m.push(Metric::exact("net.bytes_per_query", untraced.wire.bytes as f64 / n, "bytes"));
    m.push(Metric::exact("net.frames_per_query", untraced.wire.frames as f64 / n, "count"));
    m.push(Metric::measured("parse.us", parse_us, "us"));
    m.push(Metric::measured("canon.us", untraced.canon.p10_us(), "us"));
    m.push(Metric::measured("plan.us", plan_us, "us"));
    m.push(Metric::measured("exec.run_us", exec_us, "us"));
    m.push(Metric::exact("exec.nodes_per_result", nodes_per_result, "count"));
    m.push(Metric::exact("exec.pages_per_result", untraced.pages as f64 / n, "count"));
    m.push(Metric::measured("exec.us_per_node", exec_us / nodes_per_result.max(1.0), "us"));
    m.push(Metric::exact("proc.allocs_per_query", allocs as f64 / n, "count"));
    m.push(Metric::exact("proc.alloc_bytes_per_query", alloc_bytes as f64 / n, "bytes"));
    m.push(Metric::measured("trace.request_us", untraced.request.p10_us(), "us"));
    m.push(Metric::measured("trace.overhead_share", overhead, "ratio"));
    m.push(Metric::measured("trace.reconciled_share", reconciled_share, "ratio"));

    // --- the one `constraint path` query, kept out of every mix ---
    let path_query = layers::canonicalize(&layers::parse(gen::path_query())?);
    let path_plan = layers::plan(&path_query, &snapshot);
    let mut path = Samples::one();
    for i in 0..5 {
        tracer.time("exec.path_constraint", i, &mut path.items[0], || {
            layers::execute(&path_query, &path_plan, &snapshot)
        })?;
    }
    attempted += 5;
    m.push(Metric::measured(
        "exec.path_constraint_ms",
        stats::percentile_of(&mut path.items[0], 50.0) as f64 / 1e6,
        "ms",
    ));

    // --- substrates: the calls `micro_operators.rs` times, on this corpus ---
    let mut rng = Rng::new(options.seed, 6);
    let (mut keyword, mut interval, mut spatial, mut ontology, mut connect) =
        (Samples::one(), Samples::one(), Samples::one(), Samples::one(), Samples::one());
    let annotations = layers::annotation_count(&snapshot);
    for i in 0..scale(200.0) as u32 {
        let word = gen::word(rng.skewed(gen::VOCAB));
        tracer.time("xmlstore.keyword", i, &mut keyword.items[0], || {
            layers::keyword_lookup(&snapshot, &word)
        });
        let (domain, start) = (gen::domain(rng.below(8) as usize), rng.below(8_000));
        tracer.time("interval.overlap", i, &mut interval.items[0], || {
            layers::interval_overlap(&snapshot, &domain, start, start + 1_500)
        });
        let (cs, x, y) =
            (gen::system(rng.below(2) as usize), rng.below(600) as f64, rng.below(600) as f64);
        tracer.time("spatial.overlap", i, &mut spatial.items[0], || {
            layers::spatial_overlap(&snapshot, &cs, [x, y, x + 300.0, y + 300.0])
        });
        let concept = rng.skewed(options.corpus.terms) as u32;
        tracer.time("ontology.expand", i, &mut ontology.items[0], || {
            layers::ontology_expand(&snapshot, concept)
        });
        let (a, b) = (rng.below(annotations), rng.below(annotations));
        tracer.time("agraph.connect", i, &mut connect.items[0], || {
            layers::agraph_connect(&snapshot, a, b)
        });
    }
    m.push(Metric::measured("xmlstore.keyword_us", keyword.p10_us(), "us"));
    m.push(Metric::measured("interval.overlap_us", interval.p10_us(), "us"));
    m.push(Metric::measured("spatial.overlap_us", spatial.p10_us(), "us"));
    m.push(Metric::measured("ontology.expand_us", ontology.p10_us(), "us"));
    m.push(Metric::measured("agraph.connect_us", connect.p10_us(), "us"));

    // --- service: the workload's op order replayed in process ---
    // Queries go through the pool (`run`); commits hold the published snapshot
    // while they apply (the copy-on-write path), then snapshot and publish.
    let service = layers::service(snapshot.clone(), sut::CACHE_ENTRIES);
    let parsed: Vec<layers::Query> =
        list.iter().map(|op| layers::parse(&op.text)).collect::<Result<_, _>>()?;
    let mut run = Samples::per_query(list);
    let mut commits = CommitLayers::new();
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    // Warm the cache the way the end-to-end run does before its timed phase.
    for query in parsed.iter().take(if workload.mix == Mix::Hot { parsed.len() } else { 0 }) {
        layers::service_run(&service, query)?;
    }
    let before = layers::service_metrics(&service);
    for i in 0..requests {
        if workload.commit_every > 0 && i % workload.commit_every == 0 {
            commits.commit(&mut tracer, &mut system, &mut writes, &service)?;
        }
        let at = i % parsed.len();
        tracer.time("service.run", i as u32, &mut run.items[at], || {
            layers::service_run(&service, &parsed[at])
        })?;
    }
    let mid = layers::service_metrics(&service);
    while commits.count < write_commits as u64 {
        commits.commit(&mut tracer, &mut system, &mut writes, &service)?;
    }
    let after = layers::service_metrics(&service);
    attempted += requests as u64 + commits.count;
    let hits = mid.cache_hits - before.cache_hits;
    let misses = mid.cache_misses - before.cache_misses;
    let publishes = (after.publishes - before.publishes).max(1) as f64;
    let invalidations = (after.cache_invalidations - before.cache_invalidations).max(1) as f64;
    let run_us = run.p10_us();
    m.push(Metric::measured("service.run_us", run_us, "us"));
    m.push(Metric::exact(
        "service.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    m.push(Metric::measured("service.publish_us", commits.publish.p10_us(), "us"));
    m.push(Metric::exact(
        "service.entries_evicted_per_publish",
        (after.cache_entries_evicted - before.cache_entries_evicted) as f64 / publishes,
        "count",
    ));
    m.push(Metric::exact(
        "service.full_invalidation_share",
        (after.cache_full_invalidations - before.cache_full_invalidations) as f64 / invalidations,
        "ratio",
    ));
    m.push(Metric::measured("core.apply_shared_us", commits.apply_shared.p10_us(), "us"));
    m.push(Metric::measured("core.snapshot_us", commits.snapshot.p10_us(), "us"));
    m.push(Metric::exact(
        "proc.alloc_bytes_per_commit",
        commits.alloc_bytes as f64 / commits.count.max(1) as f64,
        "bytes",
    ));

    // --- service: hit path, pool hand-off, miss overhead ---
    // The hot list on a warm cache: `run_now` is the hit path, `run` adds the
    // queue and the worker.  A cache of 8 entries never hits on either list,
    // so `run_now` there is the miss path with its probe, insert and eviction.
    let hot: Vec<layers::Query> =
        inputs.hot.iter().map(|op| layers::parse(&op.text)).collect::<Result<_, _>>()?;
    let hot_service = layers::service(snapshot.clone(), sut::CACHE_ENTRIES);
    for query in &hot {
        layers::service_run_now(&hot_service, query)?;
    }
    let (mut hit, mut hit_pool) =
        (Samples::per_query(&inputs.hot), Samples::per_query(&inputs.hot));
    let hot_calls = scale(300.0);
    for i in 0..hot_calls {
        let at = i % hot.len();
        tracer.time("service.hit", i as u32, &mut hit.items[at], || {
            layers::service_run_now(&hot_service, &hot[at])
        })?;
        tracer.time("service.hit_via_pool", i as u32, &mut hit_pool.items[at], || {
            layers::service_run(&hot_service, &hot[at])
        })?;
    }
    let missing = layers::service(snapshot.clone(), 8);
    let (mut miss, mut direct) = (Samples::per_query(list), Samples::per_query(list));
    for i in 0..requests {
        let at = i % parsed.len();
        tracer.time("service.miss", i as u32, &mut miss.items[at], || {
            layers::service_run_now(&missing, &parsed[at])
        })?;
        // What the miss path cannot avoid, timed beside it: plan + execute.
        let canonical = layers::canonicalize(&parsed[at]);
        tracer.time("service.miss_floor", i as u32, &mut direct.items[at], || {
            layers::execute(&canonical, &layers::plan(&canonical, &snapshot), &snapshot)
        })?;
    }
    if layers::service_metrics(&missing).cache_hits != 0 {
        violations.push("the 8-entry cache hit: the miss path was not measured".into());
    }
    attempted += (2 * hot_calls + requests) as u64;
    let hit_us = hit.p10_us();
    m.push(Metric::measured("service.hit_us", hit_us, "us"));
    m.push(Metric::measured("service.pool_handoff_us", hit_pool.p10_us() - hit_us, "us"));
    m.push(Metric::measured("service.miss_overhead_us", miss.p10_us() - direct.p10_us(), "us"));
    drop((service, hot_service, missing));

    // === sharded: the same corpus on 4 shards ===
    let mut sharded = layers::memory_sharded_system(4);
    for batch in &inputs.corpus.batches {
        layers::apply_sharded(&mut sharded, batch)?;
    }
    let cut = layers::capture_cut(&sharded);
    let mut sharded_run = Samples::per_query(list);
    for i in 0..requests {
        let at = i % parsed.len();
        let canonical = layers::canonicalize(&parsed[at]);
        let result = tracer.time("sharded.run", i as u32, &mut sharded_run.items[at], || {
            layers::sharded_execute(&canonical, &cut)
        })?;
        // Every 16th scatter-gather answer against the unsharded executor.
        if i % 16 == 0 && i < list.len() {
            attempted += 1;
            let plan = layers::plan(&canonical, &snapshot);
            let expected = layers::execute(&canonical, &plan, &snapshot)?;
            if layers::result_json(&result) != layers::result_json(&expected) {
                failed += 1;
                eprintln!("FAILED OP: sharded answer differs from unsharded: {}", list[at].text);
            }
        }
    }
    attempted += requests as u64;
    let sharded_service = layers::sharded_service(cut.clone());
    let (mut capture, mut shard_apply, mut sharded_publish) =
        (Samples::one(), Samples::by_kind(), Samples::one());
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    for i in 0..write_commits as u32 {
        let (kind, ops) = writes.next_batch();
        // The published cut is still held by the service: the shared path.
        tracer.time("shard.apply_shared", i, &mut shard_apply.items[kind], || {
            layers::apply_sharded(&mut sharded, &ops)
        })?;
        let fresh = tracer.time("sharded.capture_cut", i, &mut capture.items[0], || {
            layers::capture_cut(&sharded)
        });
        tracer.time("sharded.publish", i, &mut sharded_publish.items[0], || {
            layers::sharded_publish(&sharded_service, fresh)
        })?;
    }
    attempted += write_commits as u64;
    let sharded_us = sharded_run.p10_us();
    m.push(Metric::measured("sharded.run_us", sharded_us, "us"));
    m.push(Metric::measured("sharded.overhead_us", sharded_us - plan_us - exec_us, "us"));
    m.push(Metric::measured("sharded.publish_us", sharded_publish.p10_us(), "us"));
    m.push(Metric::measured("sharded.capture_cut_us", capture.p10_us(), "us"));
    m.push(Metric::measured("shard.apply_shared_us", shard_apply.p10_us(), "us"));
    drop((sharded_service, sharded, cut, system));

    // === wal, checkpoint, recovery, json: on FileStorage ===
    let wal_dir = base.join("wal");
    let mut durable = layers::file_system(&wal_dir)?;
    ingest(&mut durable, inputs)?;
    let mut checkpoint_write = Samples::one();
    tracer.time("wal.checkpoint_write", 0, &mut checkpoint_write.items[0], || {
        layers::checkpoint(&mut durable)
    })?;
    let storage = layers::file_storage(&wal_dir)?;
    let checkpoint_blob = layers::read_checkpoint(&storage)?;

    // Commits as the end-to-end run makes them (apply, then a publish that
    // flushes the attached log), counted; then with checkpoints armed.
    let durable_service = layers::service(layers::snapshot(&durable), sut::CACHE_ENTRIES);
    layers::attach_wal(&durable_service, &durable);
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    let (records_before, fsyncs_before, _) = layers::wal_counters(&durable);
    let mut frames = Vec::new();
    let plain_commits = 48u64;
    for _ in 0..plain_commits {
        let (_, ops) = writes.next_batch();
        let version = layers::apply(&mut durable, &ops)?;
        layers::service_publish(&durable_service, layers::snapshot(&durable))?;
        frames.push(layers::wal_record(version, &ops));
    }
    let (records_after, fsyncs_after, _) = layers::wal_counters(&durable);
    let log_frames = layers::recovery_scan(&storage)?;
    if log_frames as u64 != plain_commits || records_after - records_before != plain_commits {
        violations.push(format!("{plain_commits} commits left {log_frames} frames in the log"));
    }
    // A second manual checkpoint restarts the count the armed ones go by.
    tracer.time("wal.checkpoint_write", 1, &mut checkpoint_write.items[0], || {
        layers::checkpoint(&mut durable)
    })?;
    let checkpoint_every = 16u64;
    durable = layers::checkpoint_every(durable, checkpoint_every);
    let mut stall = Samples::one();
    for i in 0..(2 * checkpoint_every + 8) {
        let (_, ops) = writes.next_batch();
        let open = tracer.begin("wal.commit_with_checkpoints", i as u32);
        layers::apply(&mut durable, &ops)?;
        let elapsed = tracer.end(open);
        if (i + 1) % checkpoint_every == 0 {
            stall.items[0].push(elapsed);
        }
    }
    attempted += plain_commits + 2 * checkpoint_every + 8;
    let (_, _, checkpoints) = layers::wal_counters(&durable);
    if checkpoints != 4 {
        violations
            .push(format!("{checkpoints} checkpoints written; 4 expected (two manual, two armed)"));
    }
    drop(durable_service);
    drop(durable);

    // The pieces of one commit's log work, apart.
    let (mut encode, mut append, mut fsync, mut decode) =
        (Samples::one(), Samples::one(), Samples::one(), Samples::one());
    let mut scratch_storage = layers::file_storage(&base.join("append"))?;
    let wal = layers::async_wal(&base.join("fsync"))?;
    let mut frame_bytes = 0u64;
    for (i, record) in frames.iter().enumerate() {
        let i = i as u32;
        let frame = tracer
            .time("wal.record_encode", i, &mut encode.items[0], || layers::wal_encode(record));
        frame_bytes += frame.len() as u64;
        tracer.time("wal.append", i, &mut append.items[0], || {
            layers::storage_append(&mut scratch_storage, &frame)
        })?;
        layers::wal_append(&wal, record)?;
        tracer.time("wal.fsync", i, &mut fsync.items[0], || layers::wal_flush(&wal))?;
        let back = tracer
            .time("json.decode_record", i, &mut decode.items[0], || layers::wal_decode(&frame))?;
        if &back != record {
            failed += 1;
            eprintln!("FAILED OP: WAL record {i} did not survive encode → decode");
        }
    }
    attempted += frames.len() as u64;
    m.push(Metric::measured("wal.record_encode_us", encode.p10_us(), "us"));
    m.push(Metric::measured("wal.append_us", append.p10_us(), "us"));
    m.push(Metric::measured("wal.fsync_us", fsync.p10_us(), "us"));
    m.push(Metric::exact(
        "wal.bytes_per_commit",
        frame_bytes as f64 / frames.len() as f64,
        "bytes",
    ));
    m.push(Metric::exact(
        "wal.fsyncs_per_commit",
        (fsyncs_after - fsyncs_before) as f64 / plain_commits as f64,
        "count",
    ));
    m.push(Metric::measured("wal.checkpoint_write_ms", checkpoint_write.p10_us() / 1e3, "ms"));
    m.push(Metric::exact("wal.checkpoint_bytes", checkpoint_blob.len() as f64, "bytes"));
    m.push(Metric::measured("wal.checkpoint_stall_ms", stall.max_ms(), "ms"));

    // Recovery of that directory (checkpoint + a tail of 8), then its parts.  The
    // tail's replay is below what a subtraction from a one-second recovery can
    // resolve, so replay is measured where it is everything: a log of the same
    // history with no checkpoint at all.
    let (mut scan, mut cp_decode, mut rebuild, mut log_replay, mut cp_encode) =
        (Samples::one(), Samples::one(), Samples::one(), Samples::one(), Samples::one());
    let (version, replayed) = layers::recover(&storage)?;
    tracer.time("recovery.scan", 0, &mut scan.items[0], || layers::recovery_scan(&storage))?;
    let last_blob = layers::read_checkpoint(&storage)?;
    let checkpoint =
        tracer.time("recovery.checkpoint_decode", 0, &mut cp_decode.items[0], || {
            layers::checkpoint_decode(&last_blob)
        })?;
    tracer.time("recovery.rebuild", 0, &mut rebuild.items[0], || {
        layers::rebuild(layers::checkpoint_snapshot(&checkpoint)).map(drop)
    })?;
    let reencoded = tracer.time("json.encode_checkpoint", 0, &mut cp_encode.items[0], || {
        layers::checkpoint_encode(&checkpoint)
    });
    let log_dir = base.join("log-only");
    let mut logged = layers::file_system(&log_dir)?;
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    ingest(&mut logged, inputs)?;
    for _ in 0..plain_commits {
        layers::apply(&mut logged, &writes.next_batch().1)?;
    }
    drop(logged);
    let log_storage = layers::file_storage(&log_dir)?;
    let log_records = inputs.corpus.batches.len() as u64 + plain_commits;
    let (log_version, log_replayed) =
        tracer.time("recovery.log_replay", 0, &mut log_replay.items[0], || {
            layers::recover(&log_storage)
        })?;
    if (log_version, log_replayed) != (log_records, log_records) {
        failed += 1;
        eprintln!("FAILED OP: log-only recovery replayed {log_replayed} of {log_records} records");
    }
    attempted += 2;
    let expected_version =
        inputs.corpus.batches.len() as u64 + plain_commits + 2 * checkpoint_every + 8;
    if version != expected_version || replayed != 8 {
        failed += 1;
        eprintln!(
            "FAILED OP: recovery landed on v{version} after {replayed} records (v{expected_version} after 8 expected)"
        );
    }
    m.push(Metric::measured("recovery.scan_ms", scan.sum_ns() as f64 / 1e6, "ms"));
    m.push(Metric::measured(
        "recovery.checkpoint_decode_ms",
        cp_decode.sum_ns() as f64 / 1e6,
        "ms",
    ));
    m.push(Metric::measured("recovery.rebuild_ms", rebuild.sum_ns() as f64 / 1e6, "ms"));
    m.push(Metric::measured("recovery.log_replay_ms", log_replay.sum_ns() as f64 / 1e6, "ms"));
    m.push(Metric::exact("recovery.log_records", log_records as f64, "count"));
    m.push(Metric::exact("recovery.records_replayed", replayed as f64, "count"));
    m.push(Metric::measured(
        "json.encode_record_mb_per_s",
        mb_per_s(frame_bytes, encode.sum_ns()),
        "MB/s",
    ));
    m.push(Metric::measured(
        "json.decode_record_mb_per_s",
        mb_per_s(frame_bytes, decode.sum_ns()),
        "MB/s",
    ));
    m.push(Metric::measured(
        "json.encode_checkpoint_mb_per_s",
        mb_per_s(reencoded.len() as u64, cp_encode.sum_ns()),
        "MB/s",
    ));
    m.push(Metric::measured(
        "json.decode_checkpoint_mb_per_s",
        mb_per_s(last_blob.len() as u64, cp_decode.sum_ns()),
        "MB/s",
    ));

    // === transport: the same requests over TCP, for what is left over ===
    let mut session = Session::set_up(
        &base.join("tcp"),
        workload.shape,
        &inputs.corpus.batches,
        workload.checkpoint_every,
    )?;
    for op in list.iter().take(if workload.mix == Mix::Hot { list.len() } else { 0 }) {
        session.query(&op.text)?;
    }
    let mut rtt = Samples::per_query(list);
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    let switches_before = stats::voluntary_ctx_switches();
    for i in 0..requests {
        if workload.commit_every > 0 && i % workload.commit_every == 0 {
            session.commit(&writes.next_batch().1)?;
        }
        let at = i % list.len();
        tracer.time("net.round_trip", i as u32, &mut rtt.items[at], || {
            session.query(&list[at].text)
        })?;
    }
    let switches = stats::voluntary_ctx_switches() - switches_before;
    attempted += requests as u64;
    let down = session.shut_down()?;
    if down.net.shed + down.net.completed + down.net.failed != down.net.submitted {
        violations.push(format!("wire conservation violated at drain: {:?}", down.net));
    }
    let rtt_us = rtt.p10_us();
    let transport_us = rtt_us - run_us - request_codec_us - response_codec_us;
    m.push(Metric::measured("net.rtt_p10_us", rtt_us, "us"));
    m.push(Metric::measured("net.transport_us", transport_us, "us"));
    m.push(Metric::measured(
        "net.ctx_switches_per_query",
        switches as f64 / requests as f64,
        "count",
    ));
    m.push(Metric::measured("trace.unattributed_us", transport_us - parse_us, "us"));

    // === spans out, self times printed ===
    std::fs::create_dir_all(&options.out).map_err(|e| e.to_string())?;
    let path = options.out.join(format!("trace-{}.jsonl", workload.name));
    tracer.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{:<14} spans: {} in {}", workload.name, tracer.spans.len(), path.display());
    println!(
        "{:<14} {:<34} {:>8} {:>14} {:>14}",
        workload.name, "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in tracer.self_times() {
        println!(
            "{:<14} {:<34} {:>8} {:>14.3} {:>14.3}",
            workload.name,
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }

    let diagnostics = vec![Metric::measured("diag.children_cover_share", reconciled, "ratio")];
    Ok(Report { attempted, failed, violations, metrics: m, diagnostics })
}
