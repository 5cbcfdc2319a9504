//! Property tests: the interval tree must agree with a brute-force scan, the
//! algebraic operators must satisfy their invariants, a clone of the (persistent)
//! tree is isolated from every later insert into the original, and `longest_chain`
//! agrees with a search over every order of every subset.

use interval_index::{longest_chain, Interval, IntervalTree};
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..1000, 1u64..50).prop_map(|(s, len)| Interval::new(s, s + len))
}

/// Insert the entry `(interval, payload)`.
type Insert = (Interval, u64);

fn inserts(max: usize) -> impl Strategy<Value = Vec<Insert>> {
    // few distinct payloads and starts, so duplicates and equal starts occur
    prop::collection::vec((arb_interval(), 0u64..4), 0..max).prop_map(|inserts| {
        inserts
            .into_iter()
            .map(|(iv, payload)| {
                let start = iv.start % 40;
                (Interval::new(start, start + iv.len() % 6 + 1), payload)
            })
            .collect()
    })
}

fn apply(tree: &mut IntervalTree, history: &[Insert]) {
    for &(interval, payload) in history {
        tree.insert(interval, payload);
    }
}

/// Everything observable about a tree (its shape included, through `height`).
fn observe(tree: &IntervalTree) -> String {
    let probe = Interval::new(10, 20);
    format!(
        "{} entries, height {}: {:?}\noverlapping {:?}\nnext {:?}",
        tree.len(),
        tree.height(),
        tree.entries(),
        tree.overlapping(probe),
        tree.next_after(probe)
    )
}

/// The longest chain by its definition: every order of every subset of `ivs`.
fn longest_chain_brute_force(ivs: &[Interval], max_gap: u64) -> usize {
    fn extend(ivs: &[Interval], used: &mut [bool], last: Option<Interval>, gap: u64) -> usize {
        let mut best = 0;
        for (i, iv) in ivs.iter().enumerate() {
            let follows = last.is_none_or(|l| iv.start >= l.end && iv.start - l.end <= gap);
            if used[i] || !follows {
                continue;
            }
            used[i] = true;
            best = best.max(1 + extend(ivs, used, Some(*iv), gap));
            used[i] = false;
        }
        best
    }
    extend(ivs, &mut vec![false; ivs.len()], None, max_gap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_clone_is_isolated_and_the_mutated_copy_equals_a_rebuild(
        before in inserts(150),
        after in inserts(150),
    ) {
        let mut tree = IntervalTree::new();
        apply(&mut tree, &before);
        let held = tree.clone();
        let held_then = observe(&held);

        // Inserts into the original copy the nodes on their search paths;
        // everything else is shared with the clone, which must not notice.
        apply(&mut tree, &after);
        prop_assert_eq!(observe(&held), held_then);

        // Priorities derive from the insertion count, so a replay has the same shape.
        let mut rebuilt = IntervalTree::new();
        apply(&mut rebuilt, &before);
        apply(&mut rebuilt, &after);
        prop_assert_eq!(observe(&tree), observe(&rebuilt));

        let mut fork = held;
        apply(&mut fork, &after);
        prop_assert_eq!(observe(&fork), observe(&rebuilt));
    }

    #[test]
    fn overlap_is_symmetric(a in arb_interval(), b in arb_interval()) {
        prop_assert_eq!(a.if_overlap(&b), b.if_overlap(&a));
    }

    #[test]
    fn intersect_is_contained_and_consistent(a in arb_interval(), b in arb_interval()) {
        let i = a.intersect(&b);
        prop_assert_eq!(!i.is_empty(), a.if_overlap(&b));
        if !i.is_empty() {
            prop_assert!(a.contains(&i) || a == i);
            prop_assert!(b.contains(&i) || b == i);
            prop_assert!(i.len() <= a.len() && i.len() <= b.len());
        }
    }

    #[test]
    fn tree_overlap_matches_bruteforce(
        spans in prop::collection::vec(arb_interval(), 0..200),
        query in arb_interval(),
    ) {
        let mut tree = IntervalTree::new();
        for (i, iv) in spans.iter().enumerate() {
            tree.insert(*iv, i as u64);
        }
        let mut expected: Vec<u64> = spans
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.if_overlap(&query))
            .map(|(i, _)| i as u64)
            .collect();
        let mut got: Vec<u64> = tree.overlapping(query).iter().map(|e| e.payload).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn tree_next_matches_bruteforce(
        spans in prop::collection::vec(arb_interval(), 1..150),
        after in arb_interval(),
    ) {
        let mut tree = IntervalTree::new();
        for (i, iv) in spans.iter().enumerate() {
            tree.insert(*iv, i as u64);
        }
        let expected = spans
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.start >= after.end)
            .map(|(i, iv)| (iv.start, iv.end, i as u64))
            .min();
        let got = tree.next_after(after).map(|e| (e.interval.start, e.interval.end, e.payload));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn longest_chain_equals_its_brute_force(
        spans in prop::collection::vec((0u64..60, 0u64..20), 0..9),
        max_gap in 0u64..10,
    ) {
        let ivs: Vec<Interval> = spans.iter().map(|&(s, len)| Interval::new(s, s + len)).collect();
        prop_assert_eq!(longest_chain(&mut ivs.clone(), max_gap), longest_chain_brute_force(&ivs, max_gap));
    }
}
