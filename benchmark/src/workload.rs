//! The four named workloads and the metric that carries a value out of a run.

use crate::sut::Shape;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value is a count that must repeat exactly for one seed
    /// (what `--check-determinism` compares).
    pub exact: bool,
}

impl Metric {
    /// A timing or other measured quantity.
    pub fn measured(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, exact: false }
    }

    /// A count that repeats exactly for one seed.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, exact: true }
    }
}

/// Which query list a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The 4 032-entry list on which a 256-entry LRU never hits.
    Cold,
    /// The 64 distinct queries that all fit the result cache.
    Hot,
}

/// A named workload.  Work is a fixed op count per second of `--seconds`, frozen
/// at the commit that added the benchmark — never a fixed duration, so every
/// count repeats exactly and a faster system finishes sooner.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Serving stack.
    pub shape: Shape,
    /// Query list.
    pub mix: Mix,
    /// Timed queries per second of `--seconds`.
    pub queries_per_second: usize,
    /// One durable commit before every this many timed queries (`0` = the
    /// commits are a separate write epilogue).
    pub commit_every: usize,
    /// `with_checkpoint_every` on the serving system (`0` = manual only).
    pub checkpoint_every: u64,
}

/// Commits in the write epilogue of the workloads that do not write while timed.
pub const EPILOGUE_COMMITS: usize = 600;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "explore_cold",
        shape: Shape::Pool,
        mix: Mix::Cold,
        queries_per_second: 4_500,
        commit_every: 0,
        checkpoint_every: 0,
    },
    Workload {
        name: "revisit_hot",
        shape: Shape::Pool,
        mix: Mix::Hot,
        queries_per_second: 9_000,
        commit_every: 0,
        checkpoint_every: 0,
    },
    Workload {
        name: "curate_rw",
        shape: Shape::Pool,
        mix: Mix::Hot,
        queries_per_second: 3_000,
        commit_every: 32,
        checkpoint_every: 128,
    },
    Workload {
        name: "scatter_cold",
        shape: Shape::Sharded(4),
        mix: Mix::Cold,
        queries_per_second: 3_600,
        commit_every: 0,
        checkpoint_every: 0,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
