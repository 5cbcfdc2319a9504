//! Shared helpers for the Graphitti benchmark harness.
//!
//! Each bench target under `benches/` is a CI step that writes committed rows of
//! `BENCH_query.json` or `BENCH_throughput.json`. This library provides the workload
//! builders, the reporting helpers they share, and [`relational`], the relational
//! comparator of the `paper` target's B1 / B2 rows.

pub mod relational;

use datagen::influenza::{self, InfluenzaConfig};
use datagen::neuro::{self, NeuroConfig, NeuroWorkload};
use graphitti_core::Graphitti;

/// Build an influenza system with the given annotation count (Figure 1 sweep).
pub fn influenza_system(annotations: usize, seed: u64) -> Graphitti {
    influenza::build(&InfluenzaConfig {
        seed,
        sequences: (annotations / 10).max(20),
        annotations,
        segments: 8,
        shared_referent_prob: 0.3,
        protease_prob: 0.3,
        ..InfluenzaConfig::default()
    })
}

/// Build a neuroscience workload with the given image count.
pub fn neuro_workload(images: usize, regions_per_image: usize, seed: u64) -> NeuroWorkload {
    neuro::build(&NeuroConfig {
        seed,
        images,
        regions_per_image,
        coordinate_systems: 3,
        dcn_prob: 0.4,
        tp53_prob: 0.25,
        canvas: 1_000.0,
    })
}

/// Print a titled table header for the experiment's printed summary.
pub fn table_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
}

/// Print one row of the experiment summary.
pub fn table_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Percentile over an already-sorted latency sample (0 if empty), by the
/// **nearest-rank (ceiling)** rule: the element at rank `⌈(p/100) · len⌉` (1-based),
/// i.e. the smallest sample ≥ at least `p`% of the sample.  Shared by the
/// throughput-style benches so their p50/p95/p99 columns in `BENCH_throughput.json`
/// use the same rule.
///
/// Ceiling, not rounding: the previous `round((len-1) · p/100)` rule could round a
/// tail rank *down* — e.g. p99 over 50 samples picked index 49·0.99 ≈ 48.51 → 49 but
/// p95 picked 49·0.95 ≈ 46.55 → 47, reporting a value only ~94% of the sample sits
/// under.  Nearest-rank never under-reports a tail percentile.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn influenza_helper_builds() {
        let sys = influenza_system(100, 1);
        assert!(sys.annotation_count() > 0);
    }

    #[test]
    fn neuro_helper_builds() {
        let w = neuro_workload(10, 4, 1);
        assert_eq!(w.images.len(), 10);
    }

    #[test]
    fn percentile_uses_nearest_rank_ceiling() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 95.0), 95);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);

        // Tail ranks must never round down: p99 of 50 samples is the 50th value
        // (⌈49.5⌉ = 50), not the 49th the old rounded rule could pick.
        let fifty: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&fifty, 99.0), 50);
        assert_eq!(percentile(&fifty, 95.0), 48); // ⌈47.5⌉ = 48
        assert_eq!(percentile(&fifty, 50.0), 25);

        assert_eq!(percentile(&[], 95.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        // the reported value always bounds at least p% of the sample from above
        for p in [50.0, 90.0, 95.0, 99.0] {
            let v = percentile(&fifty, p);
            let covered = fifty.iter().filter(|&&x| x <= v).count() as f64;
            assert!(covered / fifty.len() as f64 >= p / 100.0, "p{p} under-covers");
        }
    }
}
