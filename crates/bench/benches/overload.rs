//! Experiment R1 — overload resilience of the serving layer.
//!
//! Clients drive the worker pool at **2× its admission capacity**: each client
//! submits bursts of `2 × queue_capacity` deadline-budgeted queries and then
//! redeems the admitted tickets.  Two queue configurations face the same
//! pressure:
//!
//! * **bounded** — `ServiceConfig::with_queue_capacity(K)`: admission control
//!   sheds the excess at the door ([`ServiceError::Overloaded`]), so admitted
//!   queries see a queue of at most `K` and their latency stays bounded;
//! * **unbounded** — the pre-resilience behaviour: everything is admitted, the
//!   queue grows with the burst, and queries spend their deadline waiting in
//!   line (shed `0`, `deadline_misses` high, tail latency collapsed).
//!
//! The comparison metric is **goodput** — completed (served-before-deadline)
//! queries per second — not raw qps: a shed query costs its submitter one cheap
//! typed error, a deadline-missed query costs a queue slot and a dequeue.
//!
//! Rows carry `goodput_qps`, `shed` and `deadline_misses` beyond the usual
//! throughput fields; `bench_summary` routes them (they carry `qps`) into
//! `BENCH_throughput.json`.  Pass `--quick` (as CI does) for a smoke run.
//!
//! [`ServiceError::Overloaded`]: graphitti_query::ServiceError::Overloaded

use std::time::{Duration, Instant};

use bench::{influenza_system, percentile, table_header, table_row};
use graphitti_core::Graphitti;
use graphitti_query::{GraphConstraint, Query, QueryBudget, QueryService, ServiceConfig, Target};

/// One measured configuration's outcome.
struct Measurement {
    name: String,
    workers: usize,
    clients: usize,
    /// Queries attempted (submitted + shed-at-the-door).
    queries: usize,
    completed: u64,
    shed: u64,
    deadline_misses: u64,
    goodput_qps: f64,
    mean_ns: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

fn protease_mix() -> Vec<Query> {
    vec![
        Query::new(Target::Referents)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 2_000 }),
        Query::new(Target::AnnotationContents).with_phrase("protease cleavage"),
        Query::new(Target::ConnectionGraphs).with_phrase("protease"),
    ]
}

/// The client-side pressure both queue configurations face: `clients` threads
/// each submit `bursts` bursts of `burst` queries under `deadline`.
#[derive(Clone, Copy)]
struct Load {
    burst: usize,
    clients: usize,
    bursts: usize,
    deadline: Duration,
}

/// Drive the pool at 2× the *bounded* configuration's admission capacity: every
/// client submits `2 × capacity`-query bursts under a per-query deadline, then
/// redeems what was admitted.  `capacity == usize::MAX` is the unbounded
/// (pre-resilience) queue facing the same pressure.
fn measure_pool(
    sys: &Graphitti,
    mix: &[Query],
    label: &str,
    capacity: usize,
    load: Load,
) -> Measurement {
    let Load { burst, clients, bursts, deadline } = load;
    let workers = 2usize;
    let service = QueryService::new(
        sys.snapshot(),
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(capacity)
            .with_cache_capacity(0),
    );
    let start = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let service = &service;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    for round in 0..bursts {
                        let mut tickets = Vec::with_capacity(burst);
                        for i in 0..burst {
                            let q = mix[(i + client + round) % mix.len()].clone();
                            let budget = QueryBudget::unbounded().with_deadline(deadline);
                            let t0 = Instant::now();
                            if let Ok(ticket) = service.submit_with_budget(q, budget) {
                                tickets.push((t0, ticket));
                            }
                        }
                        for (t0, ticket) in tickets {
                            if ticket.wait().is_ok() {
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread panicked"));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let m = service.metrics();
    assert_eq!(m.shed + m.completed + m.failed, m.submitted, "metric consistency: {m:?}");
    latencies.sort_unstable();
    let mean_ns = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    Measurement {
        name: format!("R1_overload/q2_protease/queue={label}"),
        workers,
        clients,
        queries: (clients * bursts * burst),
        completed: m.completed,
        shed: m.shed,
        deadline_misses: m.deadline_misses,
        goodput_qps: m.completed as f64 / wall,
        mean_ns,
        p50_ns: percentile(&latencies, 50.0),
        p95_ns: percentile(&latencies, 95.0),
        p99_ns: percentile(&latencies, 99.0),
    }
}

fn write_json(measurements: &[Measurement], cores: usize) {
    let entries = jsonlite::Json::Arr(
        measurements
            .iter()
            .map(|m| {
                jsonlite::Json::obj([
                    ("bench", jsonlite::Json::str("overload")),
                    ("name", jsonlite::Json::str(m.name.clone())),
                    ("ns_per_iter", jsonlite::Json::Num(m.mean_ns)),
                    ("qps", jsonlite::Json::Num(m.goodput_qps)),
                    ("goodput_qps", jsonlite::Json::Num(m.goodput_qps)),
                    ("completed", jsonlite::Json::u64(m.completed)),
                    ("shed", jsonlite::Json::u64(m.shed)),
                    ("deadline_misses", jsonlite::Json::u64(m.deadline_misses)),
                    ("p50_ns", jsonlite::Json::u64(m.p50_ns)),
                    ("p95_ns", jsonlite::Json::u64(m.p95_ns)),
                    ("p99_ns", jsonlite::Json::u64(m.p99_ns)),
                    ("clients", jsonlite::Json::u64(m.clients as u64)),
                    ("workers", jsonlite::Json::u64(m.workers as u64)),
                    ("shards", jsonlite::Json::u64(0)),
                    ("cache", jsonlite::Json::u64(0)),
                    ("queries", jsonlite::Json::u64(m.queries as u64)),
                    ("cores", jsonlite::Json::u64(cores as u64)),
                ])
            })
            .collect(),
    );
    let path = std::env::var("BENCH_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
        let dir = criterion::workspace_root().join("target").join("criterion-json");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("overload.json")
    });
    if let Err(e) = std::fs::write(&path, entries.pretty() + "\n") {
        eprintln!("overload: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let annotations = if quick { 400 } else { 1_500 };
    let sys = influenza_system(annotations, 2008);
    let mix = protease_mix();

    let capacity = if quick { 4 } else { 8 };
    let clients = if quick { 2 } else { 4 };
    let bursts = if quick { 4 } else { 10 };
    let burst = 2 * capacity; // 2× admission capacity per burst, per client
                              // Tight enough that a burst sitting in an unbounded queue overruns it: the
                              // whole point of admission control is refusing work that would otherwise
                              // expire in line.
    let deadline = if quick { Duration::from_millis(10) } else { Duration::from_millis(25) };

    table_header(
        &format!("R1: overload resilience ({cores} core(s))"),
        &["config", "goodput", "shed", "dl_miss", "p50", "p99"],
    );

    let load = Load { burst, clients, bursts, deadline };
    let bounded = measure_pool(&sys, &mix, &format!("bounded({capacity})"), capacity, load);
    let unbounded = measure_pool(&sys, &mix, "unbounded", usize::MAX, load);

    // The resilience story in two asserts: admission control actually shed under
    // 2× pressure, and the unbounded queue admitted everything (its losses, if
    // any, are deadline misses — queue-time, not shed-at-the-door).
    assert!(bounded.shed > 0, "2x pressure must trip admission control");
    assert_eq!(unbounded.shed, 0, "the unbounded queue never sheds");

    let measurements = vec![bounded, unbounded];
    for m in &measurements {
        table_row(&[
            m.name.clone(),
            format!("{:.0}/s", m.goodput_qps),
            m.shed.to_string(),
            m.deadline_misses.to_string(),
            format!("{:.1}µs", m.p50_ns as f64 / 1_000.0),
            format!("{:.1}µs", m.p99_ns as f64 / 1_000.0),
        ]);
    }
    write_json(&measurements, cores);
    println!("\noverload: wrote {} measurements", measurements.len());
}
