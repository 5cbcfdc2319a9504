//! Minimal in-workspace benchmarking stand-in for `criterion` (offline build).
//!
//! Implements the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`, `black_box`,
//! and the `criterion_group!` / `criterion_main!` macros — with a simple adaptive
//! timer: each benchmark is warmed up, calibrated to a target measurement window, and
//! sampled several times; the best sample's mean ns/iter is reported.
//!
//! Results are printed like criterion's one-line summaries and, in addition, written as
//! a machine-readable JSON array. The output path is `$BENCH_JSON` when set, else
//! `target/criterion-json/<bench-binary>.json`; the `bench` crate's `bench_summary`
//! binary merges the per-binary files into one summary (see `BENCH_query.json`).
//!
//! Passing `--quick` (as the project CI does via `cargo bench ... -- --quick`) shrinks
//! the measurement window ~10× for smoke runs.

pub use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Label for a parameterised benchmark.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("variant", param)` → `variant/param`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{function_name}/{parameter}") }
    }

    /// `BenchmarkId::from_parameter(param)` → `param`.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// Anything usable as a benchmark label.
pub trait IntoLabel {
    /// The rendered label.
    fn into_label(self) -> String;
}

impl IntoLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoLabel for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

/// How many inputs [`Bencher::iter_batched`] should prepare per batch.  Accepted for
/// criterion API compatibility; the shim times each routine call individually, so the
/// hint does not change the measurement.
#[derive(Debug, Clone, Copy, Default)]
pub enum BatchSize {
    /// Small inputs (criterion's default).
    #[default]
    SmallInput,
    /// Large inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// The timing driver handed to benchmark closures.
pub struct Bencher {
    measurement_window: Duration,
    ns_per_iter: Option<f64>,
}

impl Bencher {
    /// Time the routine: warm up, calibrate an iteration count filling the measurement
    /// window, then take three samples and keep the fastest mean.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm-up + calibration: time single calls until we know roughly how long one
        // iteration takes (bounded so pathological routines still finish).
        let calibration_start = Instant::now();
        let mut calls = 0u64;
        while calibration_start.elapsed() < self.measurement_window / 4 && calls < 10_000 {
            black_box(routine());
            calls += 1;
        }
        let per_call = calibration_start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
        let target_ns = self.measurement_window.as_nanos() as f64;
        let iters = ((target_ns / per_call.max(1.0)) as u64).clamp(1, 50_000_000);

        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let mean = start.elapsed().as_nanos() as f64 / iters as f64;
            if mean < best {
                best = mean;
            }
        }
        self.ns_per_iter = Some(best);
    }

    /// Like [`iter`](Self::iter), but every call consumes a fresh input built by
    /// `setup`, and only the routine is timed.  Use this when the routine would
    /// otherwise accumulate state in a value shared across iterations — e.g. a write
    /// benchmark whose per-call cost grows with everything the previous iterations
    /// wrote — which would make the reported mean a function of the iteration count
    /// rather than of the operation.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        // Calibration sizes the iteration count from full wall time per call
        // (setup + routine + teardown) — the reported time stays routine-only,
        // measured in the sample loop — so an expensive setup bounds each sample
        // near the measurement window instead of multiplying it by the
        // setup/routine ratio.
        let calibration_start = Instant::now();
        let mut calls = 0u64;
        while calibration_start.elapsed() < self.measurement_window / 4 && calls < 1_000 {
            drop(black_box(routine(setup())));
            calls += 1;
        }
        let wall_per_call = calibration_start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
        let target_ns = self.measurement_window.as_nanos() as f64;
        // Tighter clamp than `iter`: every iteration pays an untimed setup, so a
        // too-fast routine must not explode the number of setups.
        let iters = ((target_ns / wall_per_call.max(1.0)) as u64).clamp(1, 10_000);

        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut sample_ns = 0u128;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                let out = routine(input);
                sample_ns += t0.elapsed().as_nanos();
                // The routine's output (often the consumed input, moved back out so
                // its teardown is not measured) drops outside the timed window.
                drop(black_box(out));
            }
            let mean = sample_ns as f64 / iters as f64;
            if mean < best {
                best = mean;
            }
        }
        self.ns_per_iter = Some(best);
    }
}

/// The benchmark harness entry point.
pub struct Criterion {
    measurement_window: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { measurement_window: Duration::from_millis(50) }
    }
}

impl Criterion {
    /// Apply command-line arguments (`--quick` shrinks the measurement window; other
    /// cargo-bench plumbing flags are accepted and ignored).
    pub fn configure_from_args(mut self) -> Self {
        if std::env::args().any(|a| a == "--quick") {
            self.measurement_window = Duration::from_millis(5);
        }
        self
    }

    /// Run a single named benchmark.
    pub fn bench_function(
        &mut self,
        name: impl IntoLabel,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        self.run(name.into_label(), f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string() }
    }

    fn run(&mut self, label: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher =
            Bencher { measurement_window: self.measurement_window, ns_per_iter: None };
        f(&mut bencher);
        let ns = bencher.ns_per_iter.unwrap_or(f64::NAN);
        println!("{label:<60} time: {}", format_ns(ns));
        RESULTS.lock().unwrap().push((label, ns));
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl<'c> BenchmarkGroup<'c> {
    /// Run a benchmark within the group.
    pub fn bench_function(&mut self, id: impl IntoLabel, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_label());
        self.criterion.run(label, f);
        self
    }

    /// Run a parameterised benchmark within the group.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        self.criterion.run(label, |b| f(b, input));
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

fn format_ns(ns: f64) -> String {
    if ns.is_nan() {
        "n/a".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The outermost ancestor of the current directory that holds a `Cargo.lock` — the
/// workspace root when run via cargo, the current directory otherwise.
pub fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut best = cwd.clone();
    let mut dir = cwd;
    loop {
        if dir.join("Cargo.lock").exists() {
            best = dir.clone();
        }
        if !dir.pop() {
            break;
        }
    }
    best
}

/// Write every recorded result as a JSON array of `{bench, name, ns_per_iter}` objects.
/// Called by `criterion_main!` after all groups have run.
pub fn write_json_summary() {
    let results = RESULTS.lock().unwrap();
    let bin = std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p).file_stem().map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_string());
    // cargo names bench executables `<name>-<hash>`; strip the trailing hash.
    let bench_name = match bin.rsplit_once('-') {
        Some((stem, hash)) if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            stem.to_string()
        }
        _ => bin,
    };
    let entries = jsonlite::Json::Arr(
        results
            .iter()
            .map(|(name, ns)| {
                jsonlite::Json::obj([
                    ("bench", jsonlite::Json::str(bench_name.clone())),
                    ("name", jsonlite::Json::str(name.clone())),
                    ("ns_per_iter", jsonlite::Json::Num(*ns)),
                ])
            })
            .collect(),
    );
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
        // Benches run with the package dir as cwd; write next to the *workspace*
        // target dir so `bench_summary` finds every bench's file in one place.
        let dir = workspace_root().join("target").join("criterion-json");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{bench_name}.json")).to_string_lossy().into_owned()
    });
    if let Err(e) = std::fs::write(&path, entries.pretty() + "\n") {
        eprintln!("criterion shim: could not write {path}: {e}");
    } else {
        println!("criterion shim: wrote {} results to {path}", results.len());
    }
}

/// Declare a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare the bench binary's `main`, running every group then writing the JSON
/// summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_a_sample() {
        let mut c = Criterion { measurement_window: Duration::from_micros(500) };
        c.bench_function("shim_smoke", |b| b.iter(|| black_box(2u64 + 2)));
        let results = RESULTS.lock().unwrap();
        let entry = results.iter().find(|(n, _)| n == "shim_smoke").unwrap();
        assert!(entry.1 > 0.0);
    }

    #[test]
    fn labels_compose() {
        assert_eq!(BenchmarkId::new("variant", 32).label, "variant/32");
        assert_eq!(BenchmarkId::from_parameter(7).label, "7");
        assert_eq!(format_ns(1500.0), "1.50 µs");
    }
}
