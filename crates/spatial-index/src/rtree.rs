//! A quadratic-split R-tree.
//!
//! The classic Guttman R-tree: leaves hold up to `MAX_ENTRIES` spatial entries, inner
//! nodes hold up to `MAX_ENTRIES` child boxes; insertion descends by least enlargement
//! and splits with the quadratic seed-picking heuristic.  Entries are only ever
//! inserted.  This is a faithful, dependency-free implementation sufficient for region
//! referents at the scale of the paper's neuroscience workloads (10⁴–10⁶ regions).
//!
//! The tree is **persistent**: child nodes hang off `Arc`s, so `RTree::clone` copies
//! the root node only (at most `MAX_ENTRIES` boxes and pointer bumps), and an insert
//! into a clone copies the nodes on its descent path (`Arc::make_mut` on the way
//! down); every other node stays shared with the clone.

use std::sync::Arc;

use crate::rect::Rect;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries per node after a split.
const MIN_ENTRIES: usize = 3;
/// What a split divides: one entry more than a node holds.
const SPLIT: usize = MAX_ENTRIES + 1;

/// One indexed spatial entry: a box plus its opaque payload (Graphitti referent id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialEntry {
    /// The indexed region.
    pub rect: Rect,
    /// Caller-supplied payload.
    pub payload: u64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { entries: Vec<SpatialEntry> },
    Inner { children: Vec<(Rect, Arc<Node>)> },
}

impl Node {
    fn bounding(&self) -> Option<Rect> {
        match self {
            Node::Leaf { entries } => entries.iter().map(|e| e.rect).reduce(|a, b| a.union(&b)),
            Node::Inner { children } => children.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Inner { children } => children.len(),
        }
    }
}

/// A quadratic-split R-tree over one coordinate system.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Node,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        RTree { root: Node::Leaf { entries: Vec::new() }, len: 0 }
    }
}

impl RTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        RTree::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a region with its payload.
    pub fn insert(&mut self, rect: Rect, payload: u64) {
        let entry = SpatialEntry { rect, payload };
        if let Some((left, right)) = Self::insert_rec(&mut self.root, entry) {
            // root split: grow the tree by one level
            let old_root = std::mem::replace(&mut self.root, Node::Leaf { entries: Vec::new() });
            drop(old_root);
            let lb = left.bounding().expect("split node is non-empty");
            let rb = right.bounding().expect("split node is non-empty");
            self.root = Node::Inner { children: vec![(lb, Arc::new(left)), (rb, Arc::new(right))] };
        }
        self.len += 1;
    }

    fn insert_rec(node: &mut Node, entry: SpatialEntry) -> Option<(Node, Node)> {
        match node {
            Node::Leaf { entries } => {
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    Some(Self::split_leaf(entries))
                } else {
                    None
                }
            }
            Node::Inner { children } => {
                // choose the child needing least enlargement (ties by smaller measure)
                let idx = children
                    .iter()
                    .enumerate()
                    .min_by(|(_, (ra, _)), (_, (rb, _))| {
                        let ea = ra.enlargement(&entry.rect);
                        let eb = rb.enlargement(&entry.rect);
                        ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal).then(
                            ra.measure()
                                .partial_cmp(&rb.measure())
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                    })
                    .map(|(i, _)| i)
                    .expect("inner node has at least one child");
                let split = Self::insert_rec(Arc::make_mut(&mut children[idx].1), entry);
                if let Some((a, b)) = split {
                    // the child was emptied by the split; replace it with the two halves
                    let ab = a.bounding().expect("non-empty");
                    let bb = b.bounding().expect("non-empty");
                    children[idx] = (ab, Arc::new(a));
                    children.push((bb, Arc::new(b)));
                    if children.len() > MAX_ENTRIES {
                        return Some(Self::split_inner(children));
                    }
                } else {
                    // refresh the child's bounding box
                    children[idx].0 =
                        children[idx].1.bounding().expect("child node is non-empty after insert");
                }
                None
            }
        }
    }

    fn split_leaf(entries: &mut Vec<SpatialEntry>) -> (Node, Node) {
        let second = Self::split_off(entries, |e| e.rect);
        (Node::Leaf { entries: std::mem::take(entries) }, Node::Leaf { entries: second })
    }

    fn split_inner(children: &mut Vec<(Rect, Arc<Node>)>) -> (Node, Node) {
        let second = Self::split_off(children, |(r, _)| *r);
        (Node::Inner { children: std::mem::take(children) }, Node::Inner { children: second })
    }

    /// Divide a node's [`SPLIT`] items by [`quadratic_partition`](Self::quadratic_partition)
    /// of their boxes: the first group stays in `items`, in order, and the second —
    /// also in order, with room to grow to a split of its own — is returned.
    fn split_off<T>(items: &mut Vec<T>, rect: impl Fn(&T) -> Rect) -> Vec<T> {
        debug_assert_eq!(items.len(), SPLIT);
        let in_first = Self::quadratic_partition(&std::array::from_fn(|i| rect(&items[i])));
        let mut second = Vec::with_capacity(SPLIT);
        let mut at = 0;
        second.extend(items.extract_if(.., |_| {
            at += 1;
            !in_first[at - 1]
        }));
        second
    }

    /// Guttman's quadratic split: pick the two rectangles that would waste the most
    /// area if grouped together as seeds, then assign the rest by least enlargement,
    /// honouring the minimum fill factor.  Returns which boxes join the first seed.
    fn quadratic_partition(rects: &[Rect; SPLIT]) -> [bool; SPLIT] {
        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::MIN);
        for i in 0..SPLIT {
            for j in (i + 1)..SPLIT {
                let waste =
                    rects[i].union(&rects[j]).measure() - rects[i].measure() - rects[j].measure();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }
        let mut in_a = [false; SPLIT];
        let mut assigned = [false; SPLIT];
        in_a[seed_a] = true;
        assigned[seed_a] = true;
        assigned[seed_b] = true;
        let (mut len_a, mut len_b) = (1, 1);
        let (mut box_a, mut box_b) = (rects[seed_a], rects[seed_b]);

        for left in (1..=SPLIT - 2).rev() {
            // honour minimum fill: the rest all go to a group that needs them
            if len_a + left <= MIN_ENTRIES || len_b + left <= MIN_ENTRIES {
                let to_a = len_a + left <= MIN_ENTRIES;
                for i in (0..SPLIT).filter(|&i| !assigned[i]) {
                    in_a[i] = to_a;
                }
                break;
            }
            // pick the rect with the greatest preference difference (the first on ties,
            // and the first unassigned one when no difference compares)
            let (mut pick, mut best_diff) = (SPLIT, f64::MIN);
            for i in (0..SPLIT).filter(|&i| !assigned[i]) {
                pick = pick.min(i);
                let diff = (box_a.enlargement(&rects[i]) - box_b.enlargement(&rects[i])).abs();
                if diff > best_diff {
                    best_diff = diff;
                    pick = i;
                }
            }
            assigned[pick] = true;
            let da = box_a.enlargement(&rects[pick]);
            let db = box_b.enlargement(&rects[pick]);
            if da < db || (da == db && len_a <= len_b) {
                in_a[pick] = true;
                len_a += 1;
                box_a = box_a.union(&rects[pick]);
            } else {
                len_b += 1;
                box_b = box_b.union(&rects[pick]);
            }
        }
        in_a
    }

    /// All entries whose region overlaps `query`, in ascending payload order.
    pub fn overlapping(&self, query: Rect) -> Vec<SpatialEntry> {
        let mut out = Vec::new();
        Self::search(&self.root, &query, &mut out);
        out.sort_by_key(|e| e.payload);
        out
    }

    fn search(node: &Node, query: &Rect, out: &mut Vec<SpatialEntry>) {
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    if e.rect.if_overlap(query) {
                        out.push(*e);
                    }
                }
            }
            Node::Inner { children } => {
                for (bb, child) in children {
                    if bb.if_overlap(query) {
                        Self::search(child, query, out);
                    }
                }
            }
        }
    }

    /// The entry whose region is nearest to the point (by box distance), if any.
    pub fn nearest(&self, p: [f64; 3]) -> Option<SpatialEntry> {
        // branch-and-bound over the tree
        fn walk(node: &Node, p: [f64; 3], best: &mut Option<(f64, SpatialEntry)>) {
            match node {
                Node::Leaf { entries } => {
                    for e in entries {
                        let d = e.rect.distance2_to_point(p);
                        let better = match best {
                            None => true,
                            Some((bd, be)) => d < *bd || (d == *bd && e.payload < be.payload),
                        };
                        if better {
                            *best = Some((d, *e));
                        }
                    }
                }
                Node::Inner { children } => {
                    let mut order: Vec<&(Rect, Arc<Node>)> = children.iter().collect();
                    order.sort_by(|a, b| {
                        a.0.distance2_to_point(p)
                            .partial_cmp(&b.0.distance2_to_point(p))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    for (bb, child) in order {
                        if let Some((bd, _)) = best {
                            if bb.distance2_to_point(p) > *bd {
                                continue;
                            }
                        }
                        walk(child, p, best);
                    }
                }
            }
        }
        let mut best = None;
        walk(&self.root, p, &mut best);
        best.map(|(_, e)| e)
    }

    /// Every stored entry (ascending payload order).
    pub fn entries(&self) -> Vec<SpatialEntry> {
        fn collect(node: &Node, out: &mut Vec<SpatialEntry>) {
            match node {
                Node::Leaf { entries } => out.extend(entries.iter().copied()),
                Node::Inner { children } => {
                    for (_, c) in children {
                        collect(c, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        collect(&self.root, &mut out);
        out.sort_by_key(|e| e.payload);
        out
    }

    /// Tree height (1 for a single leaf).
    // lint: allow(dead-pub) -- test oracle: tests/prop_rtree.rs
    pub fn height(&self) -> usize {
        fn h(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Inner { children } => {
                    1 + children.iter().map(|(_, c)| h(c)).max().unwrap_or(0)
                }
            }
        }
        h(&self.root)
    }

    /// Check structural invariants (fill factors and bounding-box correctness); used by
    /// tests. Returns an error message describing the first violation found.
    // lint: allow(dead-pub) -- test oracle: tests/prop_rtree.rs
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        fn check(node: &Node, is_root: bool) -> std::result::Result<(), String> {
            match node {
                Node::Leaf { entries } => {
                    if !is_root && entries.len() < MIN_ENTRIES {
                        return Err(format!("leaf underfilled: {}", entries.len()));
                    }
                    if entries.len() > MAX_ENTRIES {
                        return Err(format!("leaf overfilled: {}", entries.len()));
                    }
                    Ok(())
                }
                Node::Inner { children } => {
                    if children.is_empty() {
                        return Err("empty inner node".into());
                    }
                    if children.len() > MAX_ENTRIES {
                        return Err(format!("inner overfilled: {}", children.len()));
                    }
                    for (bb, child) in children {
                        let actual = child.bounding().ok_or("empty child")?;
                        if !bb.contains(&actual) {
                            return Err(format!("stale bounding box {bb} vs {actual}"));
                        }
                        check(child, false)?;
                    }
                    Ok(())
                }
            }
        }
        if self.root.len() == 0 && self.len != 0 {
            return Err("length mismatch".into());
        }
        check(&self.root, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_tree(n: u32) -> RTree {
        // n x n unit squares at integer offsets
        let mut t = RTree::new();
        let mut id = 0u64;
        for x in 0..n {
            for y in 0..n {
                t.insert(Rect::rect2(x as f64, y as f64, x as f64 + 1.0, y as f64 + 1.0), id);
                id += 1;
            }
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert!(t.overlapping(Rect::rect2(0.0, 0.0, 10.0, 10.0)).is_empty());
        assert!(t.nearest([0.0, 0.0, 0.0]).is_none());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn overlap_query_on_grid() {
        let t = grid_tree(10);
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
        assert!(t.height() > 1);
        // query covering a 2x2 block strictly inside cells (1..3) x (1..3)
        let hits = t.overlapping(Rect::rect2(1.2, 1.2, 2.8, 2.8));
        assert_eq!(hits.len(), 4);
        // touching boundaries: a thin query at x == 3.0 touches two columns
        let hits = t.overlapping(Rect::rect2(3.0, 0.1, 3.0, 0.2));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn point_queries() {
        let t = grid_tree(5);
        let at = t.overlapping(Rect::new([2.5, 2.5, 0.0], [2.5, 2.5, 0.0]));
        assert_eq!(at.len(), 1);
        // a lattice point touches 4 cells
        let corner = t.overlapping(Rect::new([2.0, 2.0, 0.0], [2.0, 2.0, 0.0]));
        assert_eq!(corner.len(), 4);
    }

    #[test]
    fn nearest_neighbour() {
        let t = grid_tree(4);
        let n = t.nearest([10.0, 10.0, 0.0]).unwrap();
        // nearest cell is the top-right one [3,4]x[3,4]
        assert!(n.rect.contains(&Rect::rect2(4.0, 4.0, 4.0, 4.0)));
        let inside = t.nearest([0.5, 0.5, 0.0]).unwrap();
        assert_eq!(inside.payload, 0);
    }

    #[test]
    fn duplicates_allowed() {
        let mut t = RTree::new();
        let r = Rect::rect2(0.0, 0.0, 1.0, 1.0);
        t.insert(r, 1);
        t.insert(r, 2);
        assert_eq!(t.overlapping(r).len(), 2);
    }

    #[test]
    fn entries_roundtrip() {
        let t = grid_tree(6);
        let e = t.entries();
        assert_eq!(e.len(), 36);
        let payloads: Vec<u64> = e.iter().map(|x| x.payload).collect();
        assert_eq!(payloads, (0..36).collect::<Vec<u64>>());
    }

    #[test]
    fn three_dimensional_entries() {
        let mut t = RTree::new();
        for z in 0..10 {
            t.insert(Rect::new([0.0, 0.0, z as f64], [1.0, 1.0, z as f64 + 0.5]), z as u64);
        }
        let hits = t.overlapping(Rect::new([0.0, 0.0, 2.0], [1.0, 1.0, 4.0]));
        assert_eq!(hits.len(), 3); // z = 2, 3, 4 slabs
        t.check_invariants().unwrap();
    }

    #[test]
    fn skewed_insertion_keeps_invariants() {
        let mut t = RTree::new();
        for i in 0..500u64 {
            let x = (i as f64) * 0.01;
            t.insert(Rect::rect2(x, 0.0, x + 0.005, 0.5), i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
        let all = t.overlapping(Rect::rect2(-1.0, -1.0, 100.0, 100.0));
        assert_eq!(all.len(), 500);
    }
}
