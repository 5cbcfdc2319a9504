//! Property tests: the interval tree must agree with a brute-force scan, the
//! algebraic operators must satisfy their invariants, and a clone of the (persistent)
//! tree is isolated from every later insert / remove on the original.

use interval_index::{Interval, IntervalTree};
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..1000, 1u64..50).prop_map(|(s, len)| Interval::new(s, s + len))
}

/// Insert (`true`) or remove (`false`) the entry `(interval, payload)`.
type Edit = (bool, Interval, u64);

fn edits(max: usize) -> impl Strategy<Value = Vec<Edit>> {
    // few distinct payloads and starts, so removes hit and duplicates occur
    prop::collection::vec((any::<bool>(), arb_interval(), 0u64..4), 0..max).prop_map(|edits| {
        edits
            .into_iter()
            .map(|(insert, iv, payload)| {
                let start = iv.start % 40;
                (insert, Interval::new(start, start + iv.len() % 6 + 1), payload)
            })
            .collect()
    })
}

fn apply(tree: &mut IntervalTree, history: &[Edit]) {
    for &(insert, interval, payload) in history {
        if insert {
            tree.insert(interval, payload);
        } else {
            tree.remove(interval, payload);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_clone_is_isolated_and_the_mutated_copy_equals_a_rebuild(
        before in edits(150),
        after in edits(150),
    ) {
        let mut tree = IntervalTree::new();
        apply(&mut tree, &before);
        let held = tree.clone();
        let held_then = observe(&held);

        // Inserts and removes on the original copy the nodes on their search paths;
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
    fn tree_remove_then_query_consistent(
        spans in prop::collection::vec(arb_interval(), 1..100),
        remove_idx in 0usize..100,
        query in arb_interval(),
    ) {
        let mut tree = IntervalTree::new();
        for (i, iv) in spans.iter().enumerate() {
            tree.insert(*iv, i as u64);
        }
        let idx = remove_idx % spans.len();
        prop_assert!(tree.remove(spans[idx], idx as u64));
        prop_assert_eq!(tree.len(), spans.len() - 1);
        let mut expected: Vec<u64> = spans
            .iter()
            .enumerate()
            .filter(|(i, iv)| *i != idx && iv.if_overlap(&query))
            .map(|(i, _)| i as u64)
            .collect();
        let mut got: Vec<u64> = tree.overlapping(query).iter().map(|e| e.payload).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }
}
