//! `graphitti-benchmark` — the repo's one benchmark.  See `README.md` beside
//! `Cargo.toml` for the definitions and `BENCHMARK.json` at the repo root for
//! the contract.
//!
//! ```text
//! graphitti-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! graphitti-benchmark --quick                      # ≤ 10 s smoke of all four
//! graphitti-benchmark --check-determinism [--workload <name>] [--seconds S]
//! graphitti-benchmark --repeat                     # from the repo root; writes REPEATABILITY.md
//! ```
//!
//! A run prints every metric by name with its unit, one per line, then — as the
//! last line of standard output — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  It exits non-zero on any
//! failed op or shape violation.

mod alloc;
mod calib;
mod cpu;
mod e2e;
mod gen;
mod layers;
mod repeat;
mod stats;
mod sut;
mod trace;
mod workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::{Inputs, Report, RunOptions};
use gen::CorpusSize;
use workload::{Metric, Workload, WORKLOADS};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 2008;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up and recovery are each repeated this many times per run.
const REPEATS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_determinism: bool,
    repeat: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        check_determinism: false,
        repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--quick" => args.quick = true,
            "--check-determinism" => args.check_determinism = true,
            "--repeat" => args.repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    jsonlite::Json::str(s).compact()
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, report: &Report) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// One run of one workload in this process: end to end, or traced.
fn run_once(
    workload: Workload,
    args: &Args,
    trace: bool,
    corpus: CorpusSize,
    repeats: usize,
) -> Result<Report, String> {
    let inputs = Inputs::generate(args.seed, corpus);
    let options = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        corpus,
        repeats,
        out: args.out.clone(),
    };
    if trace {
        alloc::enable();
        trace::run(workload, &inputs, &options)
    } else {
        e2e::run(workload, &inputs, &options)
    }
}

/// Print every metric of a report by name with its unit; `true` if the run was
/// correct (no failed op, no shape violation).
fn print_report(workload: Workload, report: &Report) -> bool {
    for m in report.metrics.iter().chain(&report.diagnostics) {
        println!("{:<14} {:<40} {:>18.6} {}", workload.name, m.name, m.value, m.unit);
    }
    println!("{:<14} {:<40} {:>18} count", workload.name, "ops_attempted", report.attempted);
    println!("{:<14} {:<40} {:>18} count", workload.name, "ops_failed", report.failed);
    for v in &report.violations {
        eprintln!("SHAPE VIOLATION: {}: {v}", workload.name);
    }
    report.failed == 0 && report.violations.is_empty()
}

/// The workload `--workload` names.
fn named(args: &Args) -> Result<Workload, String> {
    args.workload.as_deref().and_then(workload::find).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {}", names.join(", "))
    })
}

/// `--quick`: all four workloads at 1/20 of the op counts on the small corpus,
/// one round each, correctness gate on (`--trace 1` smokes the traced run).
fn quick(args: &Args) -> Result<bool, String> {
    let quick = Args { seconds: DEFAULT_SECONDS / 20.0, ..args.clone() };
    let mut ok = true;
    for workload in WORKLOADS {
        ok &=
            print_report(workload, &run_once(workload, &quick, args.trace, CorpusSize::QUICK, 1)?);
    }
    Ok(ok)
}

/// `--check-determinism`: each selected workload twice end to end and twice
/// traced with one seed; every *count* metric must be identical.
fn check_determinism(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let workloads = if args.workload.is_some() { vec![named(args)?] } else { WORKLOADS.to_vec() };
    for workload in workloads {
        for trace in [false, true] {
            let exact = |report: &Report| -> Vec<Metric> {
                let all = report.metrics.iter().chain(&report.diagnostics);
                let mut exact: Vec<Metric> = all.filter(|m| m.exact).cloned().collect();
                exact.push(Metric::exact("ops_attempted", report.attempted as f64, "count"));
                exact
            };
            let first = run_once(workload, args, trace, CorpusSize::FULL, 1)?;
            let second = run_once(workload, args, trace, CorpusSize::FULL, 1)?;
            ok &= first.failed + second.failed == 0;
            for (a, b) in exact(&first).iter().zip(&exact(&second)) {
                let same = a.value.to_bits() == b.value.to_bits();
                ok &= same;
                println!(
                    "{:<14} trace={} {:<40} {:>18.6} {:>18.6} {}",
                    workload.name,
                    u8::from(trace),
                    a.name,
                    a.value,
                    b.value,
                    if same { "same" } else { "DIFFERS" }
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("graphitti-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `--repeat` only starts runs: they inherit this process's CPUs, so it keeps them all.
    if !args.repeat && !cpu::client_side() {
        eprintln!(
            "graphitti-benchmark: WARNING: cannot set CPU affinity; client and server run \
             wherever the scheduler puts them"
        );
    }

    let outcome = if args.quick {
        quick(&args)
    } else if args.check_determinism {
        check_determinism(&args)
    } else if args.repeat {
        repeat::run(&args)
    } else {
        named(&args).and_then(|workload| {
            let report = run_once(workload, &args, args.trace, CorpusSize::FULL, REPEATS)?;
            let ok = print_report(workload, &report);
            println!("{}", result_line(ok, &report));
            Ok(ok)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("graphitti-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
