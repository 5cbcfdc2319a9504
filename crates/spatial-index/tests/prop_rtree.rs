//! Property tests: the R-tree must agree with a brute-force scan, preserve its
//! structural invariants under arbitrary insertion orders and when packed from a run,
//! and a clone of the (persistent) tree is isolated from every later insert into the
//! original.

use proptest::prelude::*;
use spatial_index::{CoordinateSystems, RTree, Rect};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..500.0, 0.0f64..500.0, 1.0f64..40.0, 1.0f64..40.0)
        .prop_map(|(x, y, w, h)| Rect::rect2(x, y, x + w, y + h))
}

/// Everything observable about a tree (its shape included, through `height`).
fn observe(tree: &RTree) -> String {
    tree.check_invariants().unwrap();
    let probe = Rect::rect2(100.0, 100.0, 300.0, 300.0);
    format!(
        "{} entries, height {}: {:?}\noverlapping {:?}",
        tree.len(),
        tree.height(),
        tree.entries(),
        tree.overlapping(probe)
    )
}

/// Insert `rects[from..]` with their index as payload.
fn apply(tree: &mut RTree, rects: &[Rect], from: usize) {
    for (i, rect) in rects.iter().enumerate().skip(from) {
        tree.insert(*rect, i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_clone_is_isolated_and_the_mutated_copy_equals_a_rebuild(
        rects in prop::collection::vec(arb_rect(), 1..160),
        split in 0usize..160,
    ) {
        let split = split % rects.len();
        let mut tree = RTree::new();
        apply(&mut tree, &rects[..split], 0);
        let held = tree.clone();
        let held_then = observe(&held);

        // Inserts on the original copy the nodes on their descent paths (and splits
        // replace them); everything else is shared with the clone, which must not
        // notice.
        apply(&mut tree, &rects, split);
        prop_assert_eq!(observe(&held), held_then);

        let mut rebuilt = RTree::new();
        apply(&mut rebuilt, &rects, 0);
        prop_assert_eq!(observe(&tree), observe(&rebuilt));

        let mut fork = held;
        apply(&mut fork, &rects, split);
        prop_assert_eq!(observe(&fork), observe(&rebuilt));
    }

    #[test]
    fn a_packed_run_answers_as_its_inserts(
        rects in prop::collection::vec(arb_rect(), 0..300),
        split in 0usize..300,
    ) {
        let split = split.min(rects.len());
        let run = |range: std::ops::Range<usize>| {
            let rects = &rects;
            range.map(move |i| ("cs", rects[i], i as u64))
        };
        let mut packed = CoordinateSystems::new();
        packed.extend(run(0..split));
        packed.extend(run(split..rects.len()));
        prop_assert_eq!(packed.check_invariants(), Ok(()));
        let mut inserted = RTree::new();
        apply(&mut inserted, &rects, 0);
        prop_assert_eq!(packed.entries("cs"), inserted.entries());
        for probe in [Rect::rect2(100.0, 100.0, 300.0, 300.0), Rect::rect2(0.0, 400.0, 60.0, 520.0)] {
            prop_assert_eq!(packed.overlapping("cs", probe), inserted.overlapping(probe));
        }
        prop_assert_eq!(packed.nearest("cs", [250.0, 10.0, 0.0]), inserted.nearest([250.0, 10.0, 0.0]));
    }

    #[test]
    fn rect_overlap_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.if_overlap(&b), b.if_overlap(&a));
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
        } else {
            prop_assert!(!a.if_overlap(&b));
        }
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
    }

    #[test]
    fn rtree_overlap_matches_bruteforce(
        rects in prop::collection::vec(arb_rect(), 0..150),
        query in arb_rect(),
    ) {
        let mut tree = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i as u64);
        }
        tree.check_invariants().unwrap();
        let mut expected: Vec<u64> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.if_overlap(&query))
            .map(|(i, _)| i as u64)
            .collect();
        let mut got: Vec<u64> = tree.overlapping(query).iter().map(|e| e.payload).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rtree_nearest_matches_bruteforce(
        rects in prop::collection::vec(arb_rect(), 1..100),
        px in 0.0f64..600.0,
        py in 0.0f64..600.0,
    ) {
        let mut tree = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i as u64);
        }
        let p = [px, py, 0.0];
        let expected = rects
            .iter()
            .map(|r| r.distance2_to_point(p))
            .fold(f64::INFINITY, f64::min);
        let got = tree.nearest(p).unwrap().rect.distance2_to_point(p);
        prop_assert!((got - expected).abs() < 1e-9);
    }
}
