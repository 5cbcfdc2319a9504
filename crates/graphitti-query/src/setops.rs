//! Sorted candidate-set operations.
//!
//! The pipelined executor represents every candidate set as a **sorted, deduplicated
//! `Vec`** of dense ids rather than a `HashSet`: posting lists come out of the
//! [`graphitti_core::Indexes`] already sorted, intersection of sorted runs is cache
//! friendly, and membership probes are binary searches with no hashing.  Intersection
//! uses a galloping (exponential-probe) merge, which costs `O(m log(n/m))` when one
//! side is much smaller — exactly the shape the planner creates by running the most
//! selective subquery first.

/// Intersect two sorted, deduplicated slices into a sorted `Vec`.
///
/// Gallops through the longer side: for each element of the shorter side, the matching
/// position in the longer side is located by doubling probes from the current cursor,
/// then binary search inside the bracketed window.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &x in small {
        match gallop(large, lo, x) {
            Ok(pos) => {
                out.push(x);
                lo = pos + 1;
            }
            Err(pos) => lo = pos,
        }
        if lo >= large.len() {
            break;
        }
    }
    out
}

/// Locate `x` in the sorted slice `hay[from..]` by galloping: probe offsets 1, 2, 4, …
/// until the value is bracketed, then binary search the bracket. Returns `Ok(index)`
/// when found, `Err(insertion_index)` otherwise.
fn gallop<T: Ord + Copy>(hay: &[T], from: usize, x: T) -> Result<usize, usize> {
    let n = hay.len();
    if from >= n {
        return Err(n);
    }
    let mut step = 1usize;
    let mut lo = from;
    let mut hi = from;
    loop {
        match hay[hi].cmp(&x) {
            std::cmp::Ordering::Equal => return Ok(hi),
            std::cmp::Ordering::Greater => break,
            std::cmp::Ordering::Less => {
                lo = hi + 1;
                let next = hi + step;
                step <<= 1;
                if next >= n {
                    hi = n;
                    break;
                }
                hi = next;
            }
        }
    }
    match hay[lo..hi.min(n)].binary_search(&x) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// Whether `x` occurs in the sorted slice (binary-search membership probe).
pub fn contains_sorted<T: Ord>(hay: &[T], x: &T) -> bool {
    hay.binary_search(x).is_ok()
}

/// Union several sorted, deduplicated posting lists into one sorted, deduplicated `Vec`.
///
/// Two fast paths, then a general k-way merge:
///
/// * **Disjoint runs** (common for scatter-merge of shard-partitioned ids and for
///   postings over non-overlapping id ranges): when the runs, ordered by first element,
///   never overlap, the union is their concatenation — `O(n)` with bulk copies and no
///   comparisons beyond the boundary check.
/// * **General case**: a binary reduction of two-way *galloping* merges. Each two-way
///   merge gallops through whichever side currently holds the run of smaller elements
///   and bulk-copies it, so a merge of runs with long non-interleaved stretches costs
///   `O(m log(n/m))` comparisons instead of the old collect-sort-dedup's
///   `O((m+n) log(m+n))`.
pub fn union_sorted<T: Ord + Copy>(lists: &[&[T]]) -> Vec<T> {
    let mut runs: Vec<&[T]> = lists.iter().copied().filter(|l| !l.is_empty()).collect();
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs[0].to_vec(),
        _ => {}
    }
    runs.sort_by_key(|r| r[0]);
    if runs.windows(2).all(|w| w[0].last().expect("non-empty run") < &w[1][0]) {
        let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
        for r in &runs {
            out.extend_from_slice(r);
        }
        return out;
    }
    let mut round: Vec<Vec<T>> = {
        let mut first = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.chunks(2);
        for pair in &mut it {
            match pair {
                [a, b] => first.push(union_two(a, b)),
                [a] => first.push(a.to_vec()),
                _ => unreachable!("chunks(2)"),
            }
        }
        first
    };
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        let mut it = round.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(union_two(&a, &b)),
                None => next.push(a),
            }
        }
        round = next;
    }
    round.pop().expect("at least one run")
}

/// Union two sorted, deduplicated runs with galloping bulk copies: locate how far the
/// current side stays below the other side's head by exponential probe + binary search,
/// then `extend_from_slice` the whole stretch at once.
fn union_two<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            // Copy everything in `a` strictly below b[j] in one gallop + memcpy.
            let end = match gallop(a, i, b[j]) {
                Ok(pos) | Err(pos) => pos,
            };
            out.extend_from_slice(&a[i..end]);
            i = end;
        } else if b[j] < a[i] {
            let end = match gallop(b, j, a[i]) {
                Ok(pos) | Err(pos) => pos,
            };
            out.extend_from_slice(&b[j..end]);
            j = end;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deterministic sorted posting in one of three density regimes: `0` = sparse
    /// scatter over a 2²¹ universe, `1` = a dense stride-1..3 run of several thousand
    /// ids, `2` = both (a dense block inside a sparse scatter).
    fn posting(seed: u64, regime: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(99991);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut set = BTreeSet::new();
        if regime != 1 {
            for _ in 0..50 + next() % 250 {
                set.insert(next() % (1 << 21));
            }
        }
        if regime != 0 {
            let mut v = next() % (1 << 18);
            for _ in 0..4096 + next() % 4000 {
                set.insert(v);
                v += 1 + next() % 3;
            }
        }
        set.into_iter().collect()
    }

    /// Every pairing of the [`posting`] regimes, three seeds each.
    fn regime_pairs() -> impl Iterator<Item = (Vec<u64>, Vec<u64>)> {
        (0..27u64).map(|i| (posting(i, i % 3), posting(i + 1000, i / 3 % 3)))
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect_sorted::<u64>(&[], &[1, 2]), Vec::<u64>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[]), Vec::<u64>::new());
        assert_eq!(intersect_sorted(&[5], &[5]), vec![5]);
    }

    #[test]
    fn intersect_skewed_sizes_gallops() {
        let big: Vec<u64> = (0..10_000).collect();
        let small = vec![0u64, 17, 4_096, 9_999];
        assert_eq!(intersect_sorted(&small, &big), small);
        assert_eq!(intersect_sorted(&big, &small), small);
        let missing = vec![10_000u64, 20_000];
        assert!(intersect_sorted(&missing, &big).is_empty());
    }

    #[test]
    fn intersect_matches_naive_on_random_runs() {
        // deterministic pseudo-random runs
        let mut s = 42u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        for _ in 0..50 {
            let mut a: Vec<u64> = (0..(next() % 60)).map(|_| next() % 200).collect();
            let mut b: Vec<u64> = (0..(next() % 600)).map(|_| next() % 200).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let naive: Vec<u64> = a.iter().copied().filter(|x| b.contains(x)).collect();
            assert_eq!(intersect_sorted(&a, &b), naive);
        }
        for (a, b) in regime_pairs() {
            let (sa, sb): (BTreeSet<u64>, BTreeSet<u64>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let out = intersect_sorted(&a, &b);
            assert!(out.is_sorted_by(|x, y| x < y), "strictly ascending");
            assert_eq!(out, sa.intersection(&sb).copied().collect::<Vec<u64>>());
            assert_eq!(intersect_sorted(&b, &a), out, "intersection is symmetric");
        }
    }

    #[test]
    fn membership_probe() {
        let hay = [2u64, 4, 8];
        assert!(contains_sorted(&hay, &4));
        assert!(!contains_sorted(&hay, &5));
        assert!(!contains_sorted::<u64>(&[], &5));
    }

    #[test]
    fn union_dedups_and_sorts() {
        let out = union_sorted(&[&[3u64, 5][..], &[1, 3, 9][..], &[][..]]);
        assert_eq!(out, vec![1, 3, 5, 9]);
    }

    /// The pre-rewrite implementation, kept as the test oracle.
    fn union_sorted_old<T: Ord + Copy>(lists: &[&[T]]) -> Vec<T> {
        let mut out: Vec<T> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
        for l in lists {
            out.extend_from_slice(l);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn union_disjoint_fast_path_matches_old() {
        // Runs presented out of order, pairwise disjoint: concatenation path.
        let a: Vec<u64> = (100..200).collect();
        let b: Vec<u64> = (0..50).collect();
        let c: Vec<u64> = (500..900).step_by(3).collect();
        let lists: Vec<&[u64]> = vec![&a, &b, &c];
        assert_eq!(union_sorted(&lists), union_sorted_old(&lists));
    }

    #[test]
    fn union_overlapping_matches_old_on_random_runs() {
        let mut s = 7u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        for round in 0..60 {
            let k = 1 + (next() % 6) as usize;
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let mut r: Vec<u64> = (0..(next() % 80)).map(|_| next() % 300).collect();
                    r.sort_unstable();
                    r.dedup();
                    r
                })
                .collect();
            let lists: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            assert_eq!(union_sorted(&lists), union_sorted_old(&lists), "round {round}");
        }
        for (a, b) in regime_pairs() {
            let c = posting(a.len() as u64, 2);
            let lists: Vec<&[u64]> = vec![&a, &b, &c];
            let out = union_sorted(&lists);
            assert!(out.is_sorted_by(|x, y| x < y), "strictly ascending");
            assert_eq!(out, union_sorted_old(&lists));
        }
    }

    #[test]
    fn union_boundary_duplicates_cross_runs() {
        // Shared boundary values defeat the disjoint check and must be deduplicated.
        let lists: Vec<&[u64]> = vec![&[1, 5, 9], &[9, 10], &[10, 11]];
        assert_eq!(union_sorted(&lists), vec![1, 5, 9, 10, 11]);
        // Identical runs collapse to one.
        let lists: Vec<&[u64]> = vec![&[2, 4, 6]; 5];
        assert_eq!(union_sorted(&lists), vec![2, 4, 6]);
    }
}
