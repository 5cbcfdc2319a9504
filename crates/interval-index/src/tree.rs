//! An augmented interval tree.
//!
//! The tree is a randomized balanced BST (a treap keyed on interval start, with a
//! deterministic pseudo-random priority derived from insertion order) where every node
//! is augmented with the maximum `end` in its subtree.  This gives `O(log n + k)`
//! overlap queries without requiring rebuilds, which matters because annotations arrive
//! incrementally in Graphitti.
//!
//! Entries arrive a run at a time: a run takes the priorities its entries would draw
//! inserted one by one, is built as its Cartesian tree in one pass (sorted by start,
//! equal starts by descending priority), and is merged in by a split/join union.  A
//! treap is unique for its keys and priorities, so the tree is the one sequential
//! inserts give, whatever the runs were; a single insert is a run of one.
//!
//! Each stored entry carries an opaque `u64` payload — Graphitti core stores the
//! referent id there.
//!
//! The tree is **persistent**: children hang off `Arc`s, `IntervalTree::clone` bumps
//! the root pointer, and an insert into a clone copies only the nodes on its
//! search path (`Arc::make_mut` on the way down; a union copies the paths its run's
//! nodes land on) — `O(log n)` nodes, the rest stays
//! shared with the clone.  A reader snapshot that holds an old version of the tree
//! therefore costs a writer nothing beyond that path.

use std::cmp::Reverse;
use std::sync::Arc;

use crate::interval::Interval;

/// One stored entry: an interval plus its opaque payload (referent id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Entry {
    /// The indexed interval.
    pub interval: Interval,
    /// Caller-supplied payload (Graphitti referent id).
    pub payload: u64,
}

/// An entry with the priority [`IntervalTree::stage`] gave it, waiting to be merged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Staged {
    entry: Entry,
    priority: u64,
}

impl Staged {
    /// The order a run is merged in (see [`Node::key`]).
    pub(crate) fn key(&self) -> (u64, Reverse<u64>) {
        (self.entry.interval.start, Reverse(self.priority))
    }
}

/// A subtree.  Cloning a [`Node`] is shallow (two pointer bumps), which is what makes
/// `Arc::make_mut` on a shared node a path copy and not a subtree copy.
type Link = Option<Arc<Node>>;

#[derive(Debug, Clone)]
struct Node {
    entry: Entry,
    priority: u64,
    max_end: u64,
    left: Link,
    right: Link,
}

impl Node {
    fn leaf(entry: Entry, priority: u64) -> Node {
        Node { entry, priority, max_end: entry.interval.end, left: None, right: None }
    }

    /// The node's place in the in-order sequence: by start, and among equal starts by
    /// descending priority — where a sequential insert leaves it.
    fn key(&self) -> (u64, Reverse<u64>) {
        (self.entry.interval.start, Reverse(self.priority))
    }

    fn update(&mut self) {
        self.max_end = self.entry.interval.end;
        if let Some(l) = &self.left {
            self.max_end = self.max_end.max(l.max_end);
        }
        if let Some(r) = &self.right {
            self.max_end = self.max_end.max(r.max_end);
        }
    }
}

/// An augmented interval tree over one coordinate domain.
#[derive(Debug, Clone, Default)]
pub struct IntervalTree {
    root: Link,
    len: usize,
    insert_counter: u64,
}

/// A simple SplitMix64 step used to derive treap priorities deterministically from the
/// insertion counter (no external RNG dependency, fully reproducible builds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IntervalTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        IntervalTree::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an interval with its payload. Duplicate intervals and payloads are
    /// allowed (two annotations may mark the same subsequence).
    pub fn insert(&mut self, interval: Interval, payload: u64) {
        let staged = self.stage(Entry { interval, payload });
        self.merge(std::iter::once(staged));
    }

    /// Take the next priority for `entry`, which [`merge`](Self::merge) must then
    /// place: the one a sequential insert of it would draw now.
    pub(crate) fn stage(&mut self, entry: Entry) -> Staged {
        self.insert_counter += 1;
        self.len += 1;
        Staged { entry, priority: splitmix64(self.insert_counter) }
    }

    /// Place a run of [`stage`](Self::stage)d entries, ascending by
    /// [`Staged::key`]: the run is built as its Cartesian tree in one pass and merged
    /// in by split/join union.  A treap is unique for its keys and priorities, so the
    /// result is the tree inserting the run's entries one by one gives.
    pub(crate) fn merge(&mut self, run: impl IntoIterator<Item = Staged>) {
        let built = Self::build(&mut run.into_iter().peekable(), None);
        self.root = Self::union(self.root.take(), built);
    }

    /// The Cartesian tree of the longest prefix of `run` whose priorities are below
    /// `bound` (all of it without one).  Each node's left subtree is what the loop
    /// built before it, and its right subtree the lower-priority nodes that follow.
    fn build(
        run: &mut std::iter::Peekable<impl Iterator<Item = Staged>>,
        bound: Option<u64>,
    ) -> Link {
        let mut left = None;
        while let Some(staged) = run.next_if(|next| bound.is_none_or(|b| next.priority < b)) {
            let mut node = Node::leaf(staged.entry, staged.priority);
            node.left = left;
            node.right = Self::build(run, Some(staged.priority));
            node.update();
            left = Some(Arc::new(node));
        }
        left
    }

    /// The union of two treaps: the higher-priority root stays, and the other tree is
    /// split around it.  A subtree the other side adds nothing to is kept as it is, so
    /// a shared tree is copied only along the paths the other tree's nodes land on.
    fn union(a: Link, b: Link) -> Link {
        let (mut top, other) = match (a, b) {
            (None, tree) | (tree, None) => return tree,
            (Some(a), Some(b)) if a.priority > b.priority => (a, b),
            (Some(a), Some(b)) => (b, a),
        };
        let node = Arc::make_mut(&mut top);
        let (left, right) = Self::split(Some(other), node.key());
        node.left = Self::union(node.left.take(), left);
        node.right = Self::union(node.right.take(), right);
        node.update();
        Some(top)
    }

    /// Split a subtree into the nodes whose key is below `key` and the rest.
    fn split(root: Link, key: (u64, Reverse<u64>)) -> (Link, Link) {
        match root {
            None => (None, None),
            Some(mut shared) => {
                let r = Arc::make_mut(&mut shared);
                if r.key() < key {
                    let (l, rest) = Self::split(r.right.take(), key);
                    r.right = l;
                    r.update();
                    (Some(shared), rest)
                } else {
                    let (rest, right) = Self::split(r.left.take(), key);
                    r.left = right;
                    r.update();
                    (rest, Some(shared))
                }
            }
        }
    }

    /// All entries whose interval overlaps `query` (shares at least one coordinate),
    /// in ascending `(start, end, payload)` order.
    pub fn overlapping(&self, query: Interval) -> Vec<Entry> {
        let mut out = Vec::new();
        Self::collect_overlaps(&self.root, query, &mut out);
        out.sort_by_key(|e| (e.interval.start, e.interval.end, e.payload));
        out
    }

    fn collect_overlaps(node: &Link, query: Interval, out: &mut Vec<Entry>) {
        let Some(n) = node else { return };
        // prune: nothing in this subtree ends after the query starts
        if n.max_end <= query.start {
            return;
        }
        Self::collect_overlaps(&n.left, query, out);
        if n.entry.interval.if_overlap(&query) {
            out.push(n.entry);
        }
        // right subtree only useful if its starts can still be before query.end
        if n.entry.interval.start < query.end {
            Self::collect_overlaps(&n.right, query, out);
        }
    }

    /// The paper's `next : SUB-X → SUB-X` operator for ordered domains: the entry that
    /// starts soonest at or after `after.end` (ties broken by smaller end, then
    /// payload). Returns `None` when nothing follows.
    pub fn next_after(&self, after: Interval) -> Option<Entry> {
        let mut best: Option<Entry> = None;
        Self::find_next(&self.root, after.end, &mut best);
        best
    }

    fn find_next(node: &Link, from: u64, best: &mut Option<Entry>) {
        let Some(n) = node else { return };
        if n.entry.interval.start >= from {
            let better = match best {
                None => true,
                Some(b) => {
                    (n.entry.interval.start, n.entry.interval.end, n.entry.payload)
                        < (b.interval.start, b.interval.end, b.payload)
                }
            };
            if better {
                *best = Some(n.entry);
            }
            // a smaller start can only be in the left subtree ...
            Self::find_next(&n.left, from, best);
            // ... but the right subtree may hold entries tying on start with a smaller
            // (end, payload), since equal starts are inserted to the right.
            if let Some(b) = *best {
                if b.interval.start == n.entry.interval.start {
                    Self::find_next(&n.right, from, best);
                }
            }
        } else {
            Self::find_next(&n.right, from, best);
        }
    }

    /// Every stored entry in ascending order.
    pub fn entries(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.len);
        Self::collect_all(&self.root, &mut out);
        out.sort_by_key(|e| (e.interval.start, e.interval.end, e.payload));
        out
    }

    fn collect_all(node: &Link, out: &mut Vec<Entry>) {
        if let Some(n) = node {
            Self::collect_all(&n.left, out);
            out.push(n.entry);
            Self::collect_all(&n.right, out);
        }
    }

    /// Every stored entry with its priority, in pre-order: two trees list the same
    /// exactly when they have the same shape.
    pub(crate) fn preorder(&self) -> Vec<(Entry, u64)> {
        fn walk(node: &Link, out: &mut Vec<(Entry, u64)>) {
            if let Some(n) = node {
                out.push((n.entry, n.priority));
                walk(&n.left, out);
                walk(&n.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    /// The tree height (the balance check of the unit and property tests).
    // lint: allow(dead-pub) -- test oracle: tests/prop_interval.rs
    pub fn height(&self) -> usize {
        fn h(n: &Link) -> usize {
            n.as_ref().map(|n| 1 + h(&n.left).max(h(&n.right))).unwrap_or(0)
        }
        h(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(spans: &[(u64, u64)]) -> IntervalTree {
        let mut t = IntervalTree::new();
        for (i, &(s, e)) in spans.iter().enumerate() {
            t.insert(Interval::new(s, e), i as u64);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t = IntervalTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.overlapping(Interval::new(0, 100)).is_empty());
        assert!(t.next_after(Interval::new(0, 1)).is_none());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn overlap_query_basic() {
        let t = tree_of(&[(0, 10), (5, 15), (20, 30), (25, 40), (100, 110)]);
        let hits = t.overlapping(Interval::new(8, 22));
        let payloads: Vec<u64> = hits.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2]);
        assert!(t.overlapping(Interval::new(50, 60)).is_empty());
        assert_eq!(t.overlapping(Interval::new(0, 200)).len(), 5);
    }

    #[test]
    fn point_query() {
        let t = tree_of(&[(0, 10), (5, 15), (20, 30)]);
        assert_eq!(t.overlapping(Interval::new(7, 8)).len(), 2);
        assert_eq!(t.overlapping(Interval::new(15, 16)).len(), 0); // half-open: 15 not in [5,15)
        assert_eq!(t.overlapping(Interval::new(29, 30)).len(), 1);
    }

    #[test]
    fn next_after_operator() {
        let t = tree_of(&[(0, 10), (12, 20), (12, 14), (30, 40)]);
        let n = t.next_after(Interval::new(0, 10)).unwrap();
        assert_eq!(n.interval, Interval::new(12, 14)); // ties by smaller end
        let n2 = t.next_after(Interval::new(12, 21)).unwrap();
        assert_eq!(n2.interval, Interval::new(30, 40));
        assert!(t.next_after(Interval::new(30, 41)).is_none());
        // an interval ending exactly at a start is "next"-eligible
        let n3 = t.next_after(Interval::new(0, 12)).unwrap();
        assert_eq!(n3.interval.start, 12);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = IntervalTree::new();
        t.insert(Interval::new(5, 10), 1);
        t.insert(Interval::new(5, 10), 2);
        t.insert(Interval::new(5, 10), 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.overlapping(Interval::new(6, 7)).len(), 3);
    }

    #[test]
    fn entries_sorted() {
        let t = tree_of(&[(20, 30), (0, 10), (5, 15)]);
        let starts: Vec<u64> = t.entries().iter().map(|e| e.interval.start).collect();
        assert_eq!(starts, vec![0, 5, 20]);
    }

    #[test]
    fn a_merged_run_is_the_tree_sequential_inserts_build() {
        // Starts drawn from 40 values, so most runs hold equal starts.
        let spans: Vec<(u64, u64)> = (0..300u64)
            .map(|i| {
                let s = splitmix64(i) % 40;
                (s, s + 1 + i % 7)
            })
            .collect();
        let one_by_one = tree_of(&spans);
        for cut in [0, 1, 7, 150, 299, 300] {
            let mut t = tree_of(&spans[..cut]);
            let mut run: Vec<Staged> = (cut..spans.len())
                .map(|i| {
                    let interval = Interval::new(spans[i].0, spans[i].1);
                    t.stage(Entry { interval, payload: i as u64 })
                })
                .collect();
            run.sort_unstable_by_key(Staged::key);
            t.merge(run);
            assert_eq!(t.preorder(), one_by_one.preorder(), "merged after {cut} inserts");
            assert_eq!((t.len(), t.height()), (one_by_one.len(), one_by_one.height()));
        }
    }

    #[test]
    fn large_tree_stays_balanced_enough() {
        let mut t = IntervalTree::new();
        // adversarial sorted insertion order
        for i in 0..4096u64 {
            t.insert(Interval::new(i * 10, i * 10 + 5), i);
        }
        assert_eq!(t.len(), 4096);
        // a treap's expected height is O(log n); allow generous slack
        assert!(t.height() < 64, "height {} too large", t.height());
        assert_eq!(t.overlapping(Interval::new(0, 50)).len(), 5);
        assert_eq!(t.overlapping(Interval::new(40_953, 40_954)).len(), 1);
    }
}
