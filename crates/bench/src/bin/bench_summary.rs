//! Merge the per-bench-binary JSON files the criterion shim writes under
//! `target/criterion-json/` into machine-readable summaries, so the performance
//! trajectory is comparable across PRs:
//!
//! * latency entries (`{bench, name, ns_per_iter}`) → `BENCH_query.json`;
//! * throughput entries (the same, plus `qps` / percentile / configuration fields
//!   written by the `durability` and `overload` benches) → `BENCH_throughput.json`.
//!
//! Usage: `cargo run -p bench --bin bench_summary [-- <input-dir> [<query-output>
//! [<throughput-output>]]]` after `cargo bench`.  Entries are sorted by
//! `(bench, name)` for stable diffs.

use std::path::Path;

/// The extra per-entry fields a throughput measurement carries beyond
/// `{bench, name, ns_per_iter}`.  `shards` is the scatter-gather axis (`0` = the
/// unsharded worker-pool service).  The durability fields (`records` through
/// `replayed`) are written by the `durability` bench: `batches_per_fsync` is the
/// group-commit coalescing factor and `recovery_ms` the cold
/// checkpoint-then-tail recovery time.  The
/// resilience fields (`goodput_qps` through `deadline_misses`) are written by the
/// `overload` bench: goodput is completed-before-deadline queries per second, and
/// `shed`/`deadline_misses` split the losses between admission control and
/// queue-time expiry.
const THROUGHPUT_FIELDS: &[&str] = &[
    "qps",
    "goodput_qps",
    "completed",
    "shed",
    "deadline_misses",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "clients",
    "workers",
    "shards",
    "cache",
    "queries",
    "cores",
    "records",
    "fsyncs",
    "batches_per_fsync",
    "recovery_ms",
    "replayed",
];

struct Entry {
    bench: String,
    name: String,
    ns_per_iter: f64,
    /// `(field, value)` pairs for the throughput fields present on this entry, in
    /// `THROUGHPUT_FIELDS` order.  Empty for plain latency entries.
    throughput: Vec<(&'static str, f64)>,
}

fn write_summary(entries: &[&Entry], output: &str) {
    let json = jsonlite::Json::obj([
        ("schema", jsonlite::Json::str("graphitti-bench-summary/v1")),
        ("entries", jsonlite::Json::u64(entries.len() as u64)),
        (
            "results",
            jsonlite::Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        let mut fields = vec![
                            ("bench", jsonlite::Json::str(e.bench.clone())),
                            ("name", jsonlite::Json::str(e.name.clone())),
                            ("ns_per_iter", jsonlite::Json::Num(e.ns_per_iter)),
                        ];
                        fields
                            .extend(e.throughput.iter().map(|&(k, v)| (k, jsonlite::Json::Num(v))));
                        jsonlite::Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(output, json.pretty() + "\n") {
        eprintln!("bench_summary: cannot write {output}: {e}");
        std::process::exit(1);
    }
    println!("bench_summary: wrote {} results to {output}", entries.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = criterion::workspace_root();
    let input_dir = args
        .first()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root.join("target").join("criterion-json"));
    let query_output =
        args.get(1).map(std::path::PathBuf::from).unwrap_or_else(|| root.join("BENCH_query.json"));
    let throughput_output = args
        .get(2)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root.join("BENCH_throughput.json"));
    let input_dir = input_dir.display().to_string();

    let mut entries: Vec<Entry> = Vec::new();
    let dir = Path::new(&input_dir);
    let read_dir = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            eprintln!("bench_summary: cannot read {input_dir}: {e} (run `cargo bench` first)");
            std::process::exit(1);
        }
    };
    for entry in read_dir.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_summary: skipping {}: {e}", path.display());
                continue;
            }
        };
        let parsed = match jsonlite::Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("bench_summary: skipping {}: {e:?}", path.display());
                continue;
            }
        };
        let Some(arr) = parsed.as_arr() else { continue };
        for item in arr {
            let bench = item.get("bench").and_then(|j| j.as_str()).unwrap_or("");
            let name = item.get("name").and_then(|j| j.as_str()).unwrap_or("");
            let ns = item.get("ns_per_iter").and_then(|j| j.as_f64()).unwrap_or(f64::NAN);
            if bench.is_empty() || name.is_empty() {
                continue;
            }
            let throughput: Vec<(&'static str, f64)> = THROUGHPUT_FIELDS
                .iter()
                .filter_map(|&f| item.get(f).and_then(|j| j.as_f64()).map(|v| (f, v)))
                .collect();
            entries.push(Entry {
                bench: bench.to_string(),
                name: name.to_string(),
                ns_per_iter: ns,
                throughput,
            });
        }
    }
    entries.sort_by(|a, b| (&a.bench, &a.name).cmp(&(&b.bench, &b.name)));

    // Entries carrying a qps measurement belong to the throughput summary; everything
    // else stays in the latency summary.
    let (throughput, latency): (Vec<&Entry>, Vec<&Entry>) =
        entries.iter().partition(|e| e.throughput.iter().any(|(k, _)| *k == "qps"));

    write_summary(&latency, &query_output.display().to_string());
    if throughput.is_empty() {
        println!(
            "bench_summary: no throughput entries found (run `cargo bench -p bench --bench durability`)"
        );
    } else {
        flag_single_core_sweeps(&throughput);
        write_summary(&throughput, &throughput_output.display().to_string());
    }
}

/// Warn about worker/shard/client sweeps measured on one core (or with no `cores`
/// stamp at all): their flat scaling curves say nothing about the algorithms —
/// only that the container had no parallelism to give — and must not be read as
/// genuine no-scaling (the standing ROADMAP caveat).
fn flag_single_core_sweeps(throughput: &[&Entry]) {
    let cores_of = |e: &Entry| e.throughput.iter().find(|(k, _)| *k == "cores").map(|&(_, v)| v);
    let mut flagged: Vec<String> = Vec::new();
    for e in throughput {
        let single = match cores_of(e) {
            Some(c) => c <= 1.0,
            None => true,
        };
        if single && !flagged.contains(&e.bench) {
            flagged.push(e.bench.clone());
        }
    }
    for bench in &flagged {
        eprintln!(
            "bench_summary: WARNING: `{bench}` sweep ran with cores <= 1 (or unstamped) — \
             flat worker/shard scaling in its rows reflects the container, not the system"
        );
    }
}
