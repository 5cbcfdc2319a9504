//! A speed reference the benchmark owns.
//!
//! The machine this benchmark was built on runs at a speed that wanders: ten
//! runs of identical code on one seed spread 19–23 % on every time-based metric
//! and moved together with the run's wall time (16.5–24.2 s for the same work);
//! in a stormy quarter of an hour the spread was 40 % (README, "Noise").  No
//! estimator inside a run removes a factor common to the whole run, so the run
//! measures the factor.  A small fixed kernel of benchmark-owned work
//! (formatting, hashing, an ordered map, a dependent walk over 256 KiB) is
//! timed all along the run — every few dozen queries, every few commits, before
//! and after each set-up and recovery — and every duration is reported **at the
//! reference speed**: `measured × NOMINAL_NS ÷ kernel time`, the kernel time
//! being the median of the measurements around the sample.  The kernel never
//! calls the system under test, so a change there cannot move it, and the raw,
//! unscaled values are printed beside the scaled ones (`diag.raw_*`).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::stats;

/// The kernel's duration on the reference machine in its usual state.  Frozen:
/// changing it rescales every time-based metric.
pub const NOMINAL_NS: f64 = 60_000.0;

/// Entries of the walk table: 256 KiB of `u32`, larger than a core's L1.
const WALK: usize = 65_536;

/// One pass of the reference kernel; returns a checksum so nothing is elided.
fn kernel(walk: &[u32]) -> u64 {
    let mut ordered: BTreeMap<String, u64> = BTreeMap::new();
    let mut hashed: HashMap<u64, String> = HashMap::new();
    let mut sum = 0u64;
    for i in 0..160u64 {
        let key = format!("ref-{:05}-{}", i.wrapping_mul(2_654_435_761) % 100_000, i % 7);
        sum = sum.wrapping_add(key.len() as u64);
        hashed.insert(i, key.clone());
        ordered.insert(key, i);
    }
    for (key, value) in &ordered {
        sum = sum.wrapping_add(u64::from(key.as_bytes()[4]) ^ value);
    }
    // A dependent walk: each step's address comes from the one before.
    let mut at = 0usize;
    for _ in 0..4_096 {
        at = walk[at] as usize;
        sum = sum.wrapping_add(at as u64);
    }
    sum.wrapping_add(hashed.len() as u64)
}

/// Times the kernel on demand and turns the timings into a slowdown factor.
pub struct Speedometer {
    walk: Vec<u32>,
}

impl Speedometer {
    /// Build the walk table (a fixed permutation, the same on every run) and
    /// warm the kernel up.
    pub fn new() -> Speedometer {
        let walk = (0..WALK).map(|i| ((i * 40_503 + 12_345) % WALK) as u32).collect();
        Speedometer { walk }
    }

    /// The machine's current slowdown: one discarded kernel pass (the system
    /// under test has just evicted the kernel's lines), then the median of three
    /// ÷ nominal.  `1.0` is the reference speed, `1.2` a machine running 20 % slow.
    pub fn slowdown(&mut self) -> f64 {
        let mut times = [0u64; 4];
        for time in &mut times {
            let t0 = Instant::now();
            std::hint::black_box(kernel(&self.walk));
            *time = t0.elapsed().as_nanos() as u64;
        }
        let measured = &mut times[1..];
        measured.sort_unstable();
        measured[1] as f64 / NOMINAL_NS
    }
}

/// Measurements on each side that a slowdown measurement is smoothed with: the
/// machine's speed moves over seconds, a single kernel timing is noisier.
const SMOOTHING: usize = 8;

/// The run's timeline of slowdown measurements.
pub struct Timeline {
    meter: Speedometer,
    slowdowns: Vec<f64>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline { meter: Speedometer::new(), slowdowns: Vec::new() }
    }

    /// Take `count` measurements now.
    pub fn measure(&mut self, count: usize) {
        for _ in 0..count {
            let slowdown = self.meter.slowdown();
            self.slowdowns.push(slowdown);
        }
    }

    /// Measurements to take on each side of one long operation so that its
    /// smoothing window is exactly "just before and just after".
    pub const AROUND: usize = SMOOTHING;

    /// Every measurement so far, as taken.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }

    /// The slowdown to scale by at each timeline position: each measurement
    /// replaced by the median of those within [`SMOOTHING`] of it.
    pub fn smoothed(&self) -> Vec<f64> {
        let n = self.slowdowns.len();
        let around =
            |i: usize| &self.slowdowns[i.saturating_sub(SMOOTHING)..(i + SMOOTHING + 1).min(n)];
        (0..n).map(|i| stats::median(around(i))).collect()
    }
}

/// Durations (ns), each marked with the timeline position it was measured at.
#[derive(Default, Clone)]
pub struct Marked {
    raw: Vec<u64>,
    mark: Vec<u32>,
}

impl Marked {
    /// Record a duration measured now.
    pub fn push(&mut self, raw_ns: u64, timeline: &Timeline) {
        self.raw.push(raw_ns);
        self.mark.push(timeline.slowdowns.len().saturating_sub(1) as u32);
    }

    /// The durations as measured.
    pub fn raw(&self) -> &[u64] {
        &self.raw
    }

    /// The durations at the reference speed, given [`Timeline::smoothed`].
    pub fn at_reference(&self, smoothed: &[f64]) -> Vec<u64> {
        let scale = |(&raw, &mark): (&u64, &u32)| {
            (raw as f64 / smoothed.get(mark as usize).copied().unwrap_or(1.0)) as u64
        };
        self.raw.iter().zip(&self.mark).map(scale).collect()
    }
}
