//! Order statistics and the `/proc` readers.  No repo type appears here.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample set in place and return its `p`-th percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// The benchmark's low-decile estimator, the shape of `query_p10_ms` and
/// `commit_p10_ms`.
///
/// `items[i]` holds the durations of item `i` — one distinct query (all its
/// repetitions) or one commit kind — and `group_of[i]` its group (the query's
/// template; a commit kind is its own group).  Each item contributes its own
/// 10th percentile: the service time of *that* query undisturbed by the
/// hypervisor, whichever seconds of the run were the quiet ones.  Items are
/// averaged within their group and groups are averaged with equal weight, so
/// neither a template of cheap queries nor the cheap queries of a template can
/// hide a regression in the expensive ones.  Items without samples are skipped.
pub fn grouped_low_decile(items: &mut [Vec<u64>], group_of: &[usize]) -> f64 {
    let groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
    let mut sum = vec![0.0f64; groups];
    let mut used = vec![0usize; groups];
    for (item, &group) in items.iter_mut().zip(group_of) {
        if !item.is_empty() {
            sum[group] += percentile_of(item, 10.0) as f64;
            used[group] += 1;
        }
    }
    let means: Vec<f64> =
        sum.iter().zip(&used).filter(|(_, &n)| n > 0).map(|(s, &n)| s / n as f64).collect();
    if means.is_empty() {
        0.0
    } else {
        means.iter().sum::<f64>() / means.len() as f64
    }
}

/// Median of a small set of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so `--repeat` reports the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(2), at(3))
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// CPU time (`utime + stime`) of this process in milliseconds.  `/proc` counts
/// clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, i.e. the 12th and 13th after the `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields.by_ref().take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 * 10.0
}

/// Voluntary context switches summed over every thread of this process.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| {
            proc_field(&t.path().join("status").to_string_lossy(), "voluntary_ctxt_switches:")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 10.0), 1);
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn low_decile_weighs_groups_not_samples() {
        // Group 0: two items with p10 10 and 30; group 1: one item with p10 100.
        let mut items = vec![vec![10, 11, 12], vec![30, 31], vec![100; 50]];
        assert_eq!(grouped_low_decile(&mut items, &[0, 0, 1]), (20.0 + 100.0) / 2.0);
        assert_eq!(grouped_low_decile(&mut [vec![], vec![7]], &[0, 1]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
