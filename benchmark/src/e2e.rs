//! The end-to-end run of one workload, tracing off.
//!
//! A run is several rounds, each one full life of the system: set-up → untimed
//! warm-up + correctness pass → timed segment → write epilogue → probes →
//! shutdown → recovery.  One client thread, one connection, closed loop.  Every
//! call into the system goes through `sut.rs`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::{Marked, Timeline};
use crate::gen::{self, Corpus, CorpusSize, QueryOp, WriteStream};
use crate::stats;
use crate::sut::{self, exact_json, fingerprint, Fingerprint, Session, Shape};
use crate::workload::{Metric, Mix, Workload, EPILOGUE_COMMITS};

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// `--seconds`: the timed phase is `queries_per_second × seconds` queries.
    pub seconds: f64,
    /// Corpus size.
    pub corpus: CorpusSize,
    /// Rounds per run: set-up and recovery happen once per round (medians are
    /// reported) and the timed op counts are split evenly between the rounds.
    pub repeats: usize,
    /// Directory the run's data directories are created under.
    pub out: PathBuf,
}

/// The seed's inputs, generated once per process.
pub struct Inputs {
    /// The corpus `LogOp` stream.
    pub corpus: Corpus,
    /// The cold query list.
    pub cold: Vec<QueryOp>,
    /// The hot query list (also the probe set of every workload).
    pub hot: Vec<QueryOp>,
}

impl Inputs {
    /// Generate every input of a run from its seed.
    pub fn generate(seed: u64, size: CorpusSize) -> Inputs {
        let corpus = Corpus::generate(seed, size);
        let cold = gen::cold_queries(seed, &size);
        let hot = gen::hot_queries(seed, &size);
        Inputs { corpus, cold, hot }
    }

    /// The list a mix replays.
    pub fn list(&self, mix: Mix) -> &[QueryOp] {
        match mix {
            Mix::Cold => &self.cold,
            Mix::Hot => &self.hot,
        }
    }
}

/// What a run reports.
pub struct Report {
    /// Ops attempted: every query sent, every commit, every acknowledged write
    /// and probe checked after recovery.
    pub attempted: u64,
    /// Ops failed (see README, "Failure accounting").
    pub failed: u64,
    /// Shape asserts that did not hold (each is also a non-zero exit).
    pub violations: Vec<String>,
    /// The metrics the contract names for this mode.
    pub metrics: Vec<Metric>,
    /// Ungated diagnostics and exact counts.
    pub diagnostics: Vec<Metric>,
}

/// Attempted / failed ops, with the first few failures kept for the log.
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// Send every query of `list` once; compare every `stride`-th answer with the
/// oracle under `to_json`.  Returns the fingerprints, in list order.
fn checked_pass(
    session: &mut Session,
    list: &[QueryOp],
    stride: usize,
    tally: &mut Tally,
) -> Vec<Option<Fingerprint>> {
    let mut prints = Vec::with_capacity(list.len());
    for (i, op) in list.iter().enumerate() {
        tally.attempted += 1;
        match session.query(&op.text) {
            Ok(result) => {
                prints.push(Some(fingerprint(&result)));
                if i % stride == 0 {
                    match session.oracle(&op.text) {
                        Ok(expected) if exact_json(&expected) == exact_json(&result) => {}
                        Ok(_) => {
                            tally.fail(format!("wire answer differs from oracle: {}", op.text))
                        }
                        Err(e) => tally.fail(format!("oracle failed on {}: {e}", op.text)),
                    }
                }
            }
            Err(e) => {
                prints.push(None);
                tally.fail(format!("query failed: {} ({e})", op.text));
            }
        }
    }
    prints
}

/// Commit latencies, one item per commit kind.
struct Commits {
    by_kind: Vec<Marked>,
}

impl Commits {
    fn count(&self) -> usize {
        self.by_kind.iter().map(|kind| kind.raw().len()).sum()
    }

    /// One durable commit of the write stream, timed into its kind.
    fn commit(
        &mut self,
        session: &mut Session,
        writes: &mut WriteStream,
        timeline: &Timeline,
        tally: &mut Tally,
    ) {
        let (kind, ops) = writes.next_batch();
        tally.attempted += 1;
        let t0 = Instant::now();
        match session.commit(&ops) {
            Ok(_) => self.by_kind[kind].push(t0.elapsed().as_nanos() as u64, timeline),
            Err(e) => tally.fail(format!("commit failed: {e}")),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run one workload end to end and report.
pub fn run(workload: Workload, inputs: &Inputs, options: &RunOptions) -> Result<Report, String> {
    let base = options.out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("cannot create {}: {e}", base.display()))?;
    let outcome = run_in(&base, workload, inputs, options);
    let _ = std::fs::remove_dir_all(&base);
    outcome
}

/// What one round — one full life of the system — leaves behind.
struct Round {
    hits: u64,
    misses: u64,
    evicted: u64,
    phase_s: f64,
    cpu_ms: f64,
    down: sut::Shutdown,
    replayed: u64,
    /// Probes the recovered system answered with renumbered a-graph ids.
    renumbered: u64,
    user_bytes: u64,
}

/// Everything a run accumulates over its rounds.
struct Samples {
    /// The machine's slowdown all along the run (`calib.rs`).
    timeline: Timeline,
    /// Set-up times, one per round.
    setup: Marked,
    /// Recovery times, [`RECOVERIES_PER_ROUND`] per round.
    recovery: Marked,
    /// Round trips, one item per list position (all its repetitions).
    rtt: Vec<Marked>,
    commits: Commits,
}

impl Samples {
    /// Time one long operation with the slowdown measured just before and just after.
    fn timed_long<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        self.timeline.measure(Timeline::AROUND);
        let t0 = Instant::now();
        let value = f();
        let elapsed = t0.elapsed().as_nanos() as u64;
        (value, elapsed)
    }
}

/// Queries between two measurements of the machine's slowdown.
const QUERIES_PER_REFRESH: usize = 64;
/// Epilogue commits between two measurements of the machine's slowdown.
const COMMITS_PER_REFRESH: usize = 4;
/// Recoveries timed at the end of each round.
const RECOVERIES_PER_ROUND: usize = 2;

/// What the rounds of one run share.
struct Run<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    options: &'a RunOptions,
    samples: Samples,
    tally: Tally,
    violations: Vec<String>,
}

/// One round: set-up → warm-up + correctness pass → timed segment → write
/// epilogue → probes → shutdown → recovery.  A run is `repeats` such rounds, so
/// every metric's samples are spread over the whole run rather than bunched in
/// whichever seconds the machine happened to be slow.
fn round(run: &mut Run<'_>, dir: &Path) -> Result<Round, String> {
    let Run { workload, inputs, options, samples, tally, violations } = run;
    let (workload, inputs, options) = (*workload, *inputs, *options);
    let list = inputs.list(workload.mix);
    let cold = workload.mix == Mix::Cold;
    let share = 1.0 / options.repeats.max(1) as f64;

    // --- set-up: empty directory to ready-to-serve ---
    let (session, elapsed) = samples.timed_long(|| {
        Session::set_up(dir, workload.shape, &inputs.corpus.batches, workload.checkpoint_every)
    });
    samples.setup.push(elapsed, &samples.timeline);
    samples.timeline.measure(Timeline::AROUND);
    let mut session = session?;
    let corpus_version = session.acked_version();

    // --- warm-up + correctness pass (untimed) ---
    // Cold: one pass over the list, every 16th answer against the oracle.
    // Hot: one checked pass (every answer), then four more to settle the cache.
    let prints = checked_pass(&mut session, list, if cold { 16 } else { 1 }, tally);
    if !cold {
        for op in list.iter().cycle().take(4 * list.len()) {
            tally.attempted += 1;
            if let Err(e) = session.query(&op.text) {
                tally.fail(format!("warm-up query failed: {} ({e})", op.text));
            }
        }
    }

    // --- timed segment: a fixed op count, the list replayed cyclically ---
    let timed_queries =
        ((workload.queries_per_second as f64 * options.seconds * share) as usize).max(list.len());
    let commits_before = samples.commits.count();
    let mut writes = WriteStream::new(options.seed, &inputs.corpus);
    let writes_while_timed = workload.commit_every > 0;
    let before = session.service_metrics();
    let cpu_before = stats::cpu_ms();
    let phase = Instant::now();
    for i in 0..timed_queries {
        if i % QUERIES_PER_REFRESH == 0 {
            samples.timeline.measure(1);
        }
        if writes_while_timed && i % workload.commit_every == 0 {
            samples.commits.commit(&mut session, &mut writes, &samples.timeline, tally);
        }
        let at = i % list.len();
        let op = &list[at];
        tally.attempted += 1;
        let t0 = Instant::now();
        let answer = session.query(&op.text);
        let elapsed = t0.elapsed().as_nanos() as u64;
        match answer {
            Ok(result) => {
                samples.rtt[at].push(elapsed, &samples.timeline);
                // A read-only workload must keep giving the warm-up's answer.
                if !writes_while_timed && prints[at] != Some(fingerprint(&result)) {
                    tally.fail(format!("answer changed between rounds: {}", op.text));
                }
            }
            Err(e) => tally.fail(format!("query failed: {} ({e})", op.text)),
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let cpu_ms = stats::cpu_ms() - cpu_before;
    let after = session.service_metrics();

    // --- shape: is the workload what it says? ---
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    if cold && hit_rate > 0.02 {
        violations.push(format!("cold workload hit the cache: hit rate {hit_rate:.4} > 0.02"));
    }
    if !cold && !writes_while_timed && hit_rate < 0.98 {
        violations.push(format!("hot workload missed the cache: hit rate {hit_rate:.4} < 0.98"));
    }

    // --- write epilogue (workloads that did not write while timed) ---
    if !writes_while_timed {
        let epilogue = EPILOGUE_COMMITS as f64 * (options.seconds / 10.0).min(1.0) * share;
        for i in 0..(epilogue as usize).max(20) {
            if i % COMMITS_PER_REFRESH == 0 {
                samples.timeline.measure(1);
            }
            samples.commits.commit(&mut session, &mut writes, &samples.timeline, tally);
        }
    }

    // --- probes: the 64 hot queries against the oracle, kept for recovery ---
    // Each is kept in two forms: `to_json`, which a recovery must reproduce byte
    // for byte, and with every a-graph id replaced by what it names, which tells
    // a renumbered graph from a wrong one when the first form differs.
    let mut probes = Vec::with_capacity(inputs.hot.len());
    for op in &inputs.hot {
        tally.attempted += 1;
        match (session.query(&op.text), session.oracle(&op.text)) {
            (Ok(result), Ok(expected)) => {
                let json = exact_json(&result);
                if json != exact_json(&expected) {
                    tally.fail(format!(
                        "after the last commit, answer differs from oracle: {}",
                        op.text
                    ));
                }
                probes.push((json, session.labelled(&result)));
            }
            (Err(e), _) | (_, Err(e)) => {
                tally.fail(format!("probe failed: {} ({e})", op.text));
                probes.push((String::new(), String::new()));
            }
        }
    }

    // --- shutdown: drain, conservation, what is left on disk ---
    let down = session.shut_down()?;
    let net = down.net;
    if net.shed + net.completed + net.failed != net.submitted {
        violations.push(format!("wire conservation violated at drain: {net:?}"));
    }
    if net.submitted != net.completed {
        violations.push(format!("wire counted sheds or failures on a workload with none: {net:?}"));
    }
    let commit_count = (samples.commits.count() - commits_before) as u64;
    let commits_acked = down.acked - corpus_version;
    if commits_acked != commit_count {
        violations.push(format!(
            "acknowledged version advanced by {commits_acked}, but {commit_count} commits returned"
        ));
    }

    // --- recovery: `recover_*` on the round's directory (checkpoint + tail) ---
    // Twice, for two samples; the checks below use the second outcome.
    let mut recovered = None;
    for _ in 0..RECOVERIES_PER_ROUND {
        drop(recovered.take());
        let (outcome, elapsed) = samples.timed_long(|| sut::recover(dir, workload.shape));
        samples.recovery.push(elapsed, &samples.timeline);
        samples.timeline.measure(Timeline::AROUND);
        recovered = Some(outcome?);
    }
    let outcome = recovered.ok_or("no recovery ran")?;
    // Every acknowledged write past the recovered version is a failed op.
    tally.attempted += commits_acked;
    if outcome.version != down.acked {
        tally.failed += down.acked.saturating_sub(outcome.version).max(1);
        tally
            .notes
            .push(format!("recovered version {} != acknowledged {}", outcome.version, down.acked));
    }
    // Byte identity is the rule.  A probe that differs only in how the recovered
    // a-graph numbers its nodes and edges is counted apart, as a known defect of
    // the system (README, finding 5); one that differs in anything else failed.
    let mut renumbered = 0u64;
    for (op, (json, labelled)) in inputs.hot.iter().zip(&probes) {
        tally.attempted += 1;
        match outcome.system.answer(&op.text) {
            Ok(answer) if &exact_json(&answer) == json => {}
            Ok(answer) if &outcome.system.labelled(&answer) == labelled => renumbered += 1,
            Ok(_) => tally.fail(format!("answer changed across recovery: {}", op.text)),
            Err(e) => tally.fail(format!("probe failed after recovery: {} ({e})", op.text)),
        }
    }
    let (expected_replay, expected_base) = match workload.checkpoint_every {
        0 => (commits_acked, corpus_version),
        n => (commits_acked % n, down.acked - commits_acked % n),
    };
    if outcome.replayed != expected_replay || outcome.checkpoint_version != expected_base {
        violations.push(format!(
            "recovery replayed {} records from checkpoint v{}; expected {expected_replay} from v{expected_base}",
            outcome.replayed, outcome.checkpoint_version
        ));
    }

    Ok(Round {
        hits,
        misses,
        evicted: after.cache_entries_evicted - before.cache_entries_evicted,
        phase_s,
        cpu_ms,
        down,
        replayed: outcome.replayed,
        renumbered,
        user_bytes: writes.user_bytes(),
    })
}

fn run_in(
    base: &Path,
    workload: Workload,
    inputs: &Inputs,
    options: &RunOptions,
) -> Result<Report, String> {
    let list = inputs.list(workload.mix);
    let samples = Samples {
        timeline: Timeline::new(),
        setup: Marked::default(),
        recovery: Marked::default(),
        rtt: vec![Marked::default(); list.len()],
        commits: Commits { by_kind: vec![Marked::default(); gen::COMMIT_KINDS.len()] },
    };
    let tally = Tally { attempted: 0, failed: 0, notes: Vec::new() };
    let mut run = Run { workload, inputs, options, samples, tally, violations: Vec::new() };
    let mut rounds = Vec::new();
    for k in 0..options.repeats.max(1) {
        let dir = base.join(format!("round-{k}"));
        rounds.push(round(&mut run, &dir)?);
        let _ = std::fs::remove_dir_all(dir);
    }
    let Run { samples, tally, violations, .. } = run;
    for note in &tally.notes {
        eprintln!("FAILED OP: {note}");
    }

    // --- the numbers ---
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let last = rounds.last().ok_or("no round ran")?;
    let phase_s: f64 = rounds.iter().map(|r| r.phase_s).sum();
    let judgeable = options.seconds >= 2.0; // the `--quick` corpus is smaller and faster
    if judgeable && (phase_s < 0.6 * options.seconds || phase_s > 1.6 * options.seconds) {
        eprintln!(
            "WARNING: {}: the timed segments took {phase_s:.2} s for --seconds {} — the frozen op \
             counts no longer match this system; see README, \"Op counts\"",
            workload.name, options.seconds
        );
    }
    let timed_queries = samples.rtt.iter().map(|q| q.raw().len()).sum::<usize>();
    let (hits, misses) = (sum(|r| r.hits), sum(|r| r.misses));
    let renumbered = sum(|r| r.renumbered);
    if renumbered > 0 {
        eprintln!(
            "KNOWN FAILURE: {}: {renumbered} recovery probes differ from before shutdown under \
             to_json (a-graph ids renumbered; same entities, labels and edges) — README, finding 5",
            workload.name
        );
    }
    let mut all_rtt: Vec<u64> = samples.rtt.iter().flat_map(|q| q.raw().iter().copied()).collect();
    all_rtt.sort_unstable();
    let mut all_commits: Vec<u64> =
        samples.commits.by_kind.iter().flat_map(|k| k.raw().iter().copied()).collect();
    all_commits.sort_unstable();
    // Every round replays the same writes, so the last one's disk state is each one's.
    let disk_bytes = last.down.wal_bytes + last.down.checkpoint_bytes;
    let shards = match workload.shape {
        Shape::Pool => 0,
        Shape::Sharded(n) => n,
    };

    // Each time-based metric at the reference speed (`scaled`) and as measured.
    let smoothed = samples.timeline.smoothed();
    let values =
        |m: &Marked, scaled| if scaled { m.at_reference(&smoothed) } else { m.raw().to_vec() };
    let low_decile_ms = |items: &[Marked], group_of: &[usize], scaled| {
        let mut columns: Vec<Vec<u64>> = items.iter().map(|m| values(m, scaled)).collect();
        stats::grouped_low_decile(&mut columns, group_of) / 1e6
    };
    let median_s = |m: &Marked, scaled| {
        stats::median(&values(m, scaled).iter().map(|&ns| ns as f64 / 1e9).collect::<Vec<_>>())
    };
    let templates: Vec<usize> = list.iter().map(|op| op.template).collect();
    let kinds: Vec<usize> = (0..samples.commits.by_kind.len()).collect();
    let setup_s = |scaled| median_s(&samples.setup, scaled);
    let query_ms = |scaled| low_decile_ms(&samples.rtt, &templates, scaled);
    let commit_ms = |scaled| low_decile_ms(&samples.commits.by_kind, &kinds, scaled);
    let recovery_s = |scaled| median_s(&samples.recovery, scaled);

    let metrics = vec![
        Metric::measured("setup_s", setup_s(true), "s"),
        Metric::measured("query_p10_ms", query_ms(true), "ms"),
        Metric::measured("commit_p10_ms", commit_ms(true), "ms"),
        Metric::measured("recovery_s", recovery_s(true), "s"),
        Metric::measured("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        Metric::exact(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / last.user_bytes as f64,
            "ratio",
        ),
    ];
    let count = |name, value: u64, unit| Metric::exact(name, value as f64, unit);
    let diagnostics = vec![
        Metric::measured("diag.raw_setup_s", setup_s(false), "s"),
        Metric::measured("diag.raw_query_p10_ms", query_ms(false), "ms"),
        Metric::measured("diag.raw_commit_p10_ms", commit_ms(false), "ms"),
        Metric::measured("diag.raw_recovery_s", recovery_s(false), "s"),
        Metric::measured(
            "diag.slowdown_median",
            stats::median(samples.timeline.slowdowns()),
            "ratio",
        ),
        Metric::measured("diag.rtt_p50_ms", ms(stats::percentile(&all_rtt, 50.0)), "ms"),
        Metric::measured("diag.rtt_p99_ms", ms(stats::percentile(&all_rtt, 99.0)), "ms"),
        Metric::measured("diag.commit_p50_ms", ms(stats::percentile(&all_commits, 50.0)), "ms"),
        Metric::measured("diag.commit_max_ms", ms(all_commits.last().copied().unwrap_or(0)), "ms"),
        Metric::measured(
            "diag.cpu_ms_per_query",
            rounds.iter().map(|r| r.cpu_ms).sum::<f64>() / timed_queries as f64,
            "ms",
        ),
        Metric::measured("diag.timed_phase_s", phase_s, "s"),
        Metric::measured("diag.queries_per_s", timed_queries as f64 / phase_s, "1/s"),
        Metric::exact("count.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio"),
        count("count.shards", shards as u64, "count"),
        count("count.rounds", rounds.len() as u64, "count"),
        count("count.corpus_ops", inputs.corpus.op_count() as u64, "count"),
        count("count.timed_queries", timed_queries as u64, "count"),
        count("count.repetitions_per_query", (timed_queries / list.len()) as u64, "count"),
        count("count.commits", samples.commits.count() as u64, "count"),
        count("count.cache_hits", hits, "count"),
        count("count.cache_misses", misses, "count"),
        count("count.cache_entries_evicted", sum(|r| r.evicted), "count"),
        count("count.wire_submitted", sum(|r| r.down.net.submitted), "count"),
        count("count.wire_pages", sum(|r| r.down.net.pages_streamed), "count"),
        count("count.wal_records", sum(|r| r.down.service.wal_records_appended), "count"),
        count("count.wal_fsyncs", sum(|r| r.down.service.wal_fsyncs), "count"),
        count("count.records_replayed", sum(|r| r.replayed), "count"),
        count("count.recovery_probes_renumbered", renumbered, "count"),
        count("count.wal_bytes", last.down.wal_bytes, "bytes"),
        count("count.checkpoint_bytes", last.down.checkpoint_bytes, "bytes"),
        count("count.user_bytes", last.user_bytes, "bytes"),
    ];

    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        violations,
        metrics,
        diagnostics,
    })
}
