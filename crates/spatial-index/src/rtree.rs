//! A quadratic-split R-tree.
//!
//! The classic Guttman R-tree: leaves hold up to `MAX_ENTRIES` spatial entries, inner
//! nodes hold up to `MAX_ENTRIES` child boxes; insertion descends by least enlargement
//! and splits with the quadratic seed-picking heuristic.  Deletion reinserts orphaned
//! entries.  This is a faithful, dependency-free implementation sufficient for region
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

    /// Bulk-load a tree from a batch of entries using the Sort-Tile-Recursive (STR)
    /// packing algorithm, which produces a better-packed, lower-overlap tree than
    /// repeated insertion. Preferred when all referents for a coordinate system are known
    /// up front.
    pub fn bulk_load(entries: Vec<(Rect, u64)>) -> RTree {
        let items: Vec<SpatialEntry> =
            entries.into_iter().map(|(rect, payload)| SpatialEntry { rect, payload }).collect();
        let len = items.len();
        if items.len() <= MAX_ENTRIES {
            return RTree { root: Node::Leaf { entries: items }, len };
        }

        // 1. pack leaves via STR.
        let leaf_count = items.len().div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = slice_count * MAX_ENTRIES;

        let mut by_x = items;
        by_x.sort_by(|a, b| {
            a.rect.center()[0].partial_cmp(&b.rect.center()[0]).unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut leaves: Vec<Node> = Vec::new();
        for slice in by_x.chunks(per_slice.max(1)) {
            let mut slice_vec = slice.to_vec();
            slice_vec.sort_by(|a, b| {
                a.rect.center()[1]
                    .partial_cmp(&b.rect.center()[1])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for leaf_items in slice_vec.chunks(MAX_ENTRIES) {
                leaves.push(Node::Leaf { entries: leaf_items.to_vec() });
            }
        }

        // 2. build inner levels bottom-up.
        let mut level: Vec<Node> = leaves;
        while level.len() > 1 {
            let mut next: Vec<Node> = Vec::new();
            for group in level.chunks(MAX_ENTRIES) {
                let children: Vec<(Rect, Arc<Node>)> = group
                    .iter()
                    .map(|n| (n.bounding().expect("non-empty packed node"), Arc::new(n.clone())))
                    .collect();
                next.push(Node::Inner { children });
            }
            level = next;
        }
        let root = level.into_iter().next().unwrap_or(Node::Leaf { entries: Vec::new() });
        RTree { root, len }
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
        let items = std::mem::take(entries);
        let rects: Vec<Rect> = items.iter().map(|e| e.rect).collect();
        let (ga, gb) = Self::quadratic_partition(&rects);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            if ga.contains(&i) {
                a.push(item);
            } else {
                debug_assert!(gb.contains(&i));
                b.push(item);
            }
        }
        (Node::Leaf { entries: a }, Node::Leaf { entries: b })
    }

    fn split_inner(children: &mut Vec<(Rect, Arc<Node>)>) -> (Node, Node) {
        let items = std::mem::take(children);
        let rects: Vec<Rect> = items.iter().map(|(r, _)| *r).collect();
        let (ga, _gb) = Self::quadratic_partition(&rects);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            if ga.contains(&i) {
                a.push(item);
            } else {
                b.push(item);
            }
        }
        (Node::Inner { children: a }, Node::Inner { children: b })
    }

    /// Guttman's quadratic split: pick the two rectangles that would waste the most
    /// area if grouped together as seeds, then assign the rest by least enlargement,
    /// honouring the minimum fill factor.
    fn quadratic_partition(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
        let n = rects.len();
        debug_assert!(n >= 2);
        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::MIN);
        for i in 0..n {
            for j in (i + 1)..n {
                let waste =
                    rects[i].union(&rects[j]).measure() - rects[i].measure() - rects[j].measure();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }
        let mut group_a = vec![seed_a];
        let mut group_b = vec![seed_b];
        let mut box_a = rects[seed_a];
        let mut box_b = rects[seed_b];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

        while let Some(&next) = remaining.first() {
            // honour minimum fill
            let left = remaining.len();
            if group_a.len() + left <= MIN_ENTRIES {
                for &i in &remaining {
                    group_a.push(i);
                    box_a = box_a.union(&rects[i]);
                }
                break;
            }
            if group_b.len() + left <= MIN_ENTRIES {
                for &i in &remaining {
                    group_b.push(i);
                    box_b = box_b.union(&rects[i]);
                }
                break;
            }
            // pick the rect with the greatest preference difference
            let mut pick = next;
            let mut best_diff = f64::MIN;
            for &i in &remaining {
                let da = box_a.enlargement(&rects[i]);
                let db = box_b.enlargement(&rects[i]);
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    pick = i;
                }
            }
            remaining.retain(|&i| i != pick);
            let da = box_a.enlargement(&rects[pick]);
            let db = box_b.enlargement(&rects[pick]);
            if da < db || (da == db && group_a.len() <= group_b.len()) {
                group_a.push(pick);
                box_a = box_a.union(&rects[pick]);
            } else {
                group_b.push(pick);
                box_b = box_b.union(&rects[pick]);
            }
        }
        (group_a, group_b)
    }

    /// Remove one entry matching `(rect, payload)` exactly. Returns true when removed.
    pub fn remove(&mut self, rect: Rect, payload: u64) -> bool {
        // Simple and robust strategy: collect all entries, drop the first match, and
        // rebuild.  Removal is rare in annotation workloads (annotations are mostly
        // append-only), so clarity wins over an orphan-reinsertion implementation.
        let mut all = self.entries();
        let before = all.len();
        let mut removed = false;
        all.retain(|e| {
            if !removed && e.rect == rect && e.payload == payload {
                removed = true;
                false
            } else {
                true
            }
        });
        if !removed {
            return false;
        }
        let mut rebuilt = RTree::new();
        for e in all {
            rebuilt.insert(e.rect, e.payload);
        }
        debug_assert_eq!(rebuilt.len() + 1, before);
        *self = rebuilt;
        true
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

    /// All entries fully contained in `query`.
    pub fn contained_in(&self, query: Rect) -> Vec<SpatialEntry> {
        self.overlapping(query).into_iter().filter(|e| query.contains(&e.rect)).collect()
    }

    /// All entries containing the point.
    pub fn containing_point(&self, p: [f64; 3]) -> Vec<SpatialEntry> {
        self.overlapping(Rect::new(p, p)).into_iter().filter(|e| e.rect.contains_point(p)).collect()
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

    /// The `k` entries nearest to a point, by box distance, ascending. Ties broken by
    /// payload. Returns fewer than `k` when the tree holds fewer entries.
    pub fn k_nearest(&self, p: [f64; 3], k: usize) -> Vec<SpatialEntry> {
        if k == 0 {
            return Vec::new();
        }
        // Collect all with distances and partially sort — simple and correct; the tree's
        // branch-and-bound `nearest` covers the common k=1 case, this covers general k.
        let mut scored: Vec<(f64, SpatialEntry)> =
            self.entries().into_iter().map(|e| (e.rect.distance2_to_point(p), e)).collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.payload.cmp(&b.1.payload))
        });
        scored.truncate(k);
        scored.into_iter().map(|(_, e)| e).collect()
    }

    /// All entries whose box lies within squared distance `radius2` of the point.
    pub fn within_radius(&self, p: [f64; 3], radius2: f64) -> Vec<SpatialEntry> {
        let mut out: Vec<SpatialEntry> = self
            .entries()
            .into_iter()
            .filter(|e| e.rect.distance2_to_point(p) <= radius2)
            .collect();
        out.sort_by_key(|e| e.payload);
        out
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
    fn containment_and_point_queries() {
        let t = grid_tree(5);
        let contained = t.contained_in(Rect::rect2(0.0, 0.0, 2.0, 2.0));
        assert_eq!(contained.len(), 4);
        let at = t.containing_point([2.5, 2.5, 0.0]);
        assert_eq!(at.len(), 1);
        // a lattice point touches 4 cells
        let corner = t.containing_point([2.0, 2.0, 0.0]);
        assert_eq!(corner.len(), 4);
    }

    #[test]
    fn nearest_neighbour() {
        let t = grid_tree(4);
        let n = t.nearest([10.0, 10.0, 0.0]).unwrap();
        // nearest cell is the top-right one [3,4]x[3,4]
        assert!(n.rect.contains_point([4.0, 4.0, 0.0]));
        let inside = t.nearest([0.5, 0.5, 0.0]).unwrap();
        assert_eq!(inside.payload, 0);
    }

    #[test]
    fn k_nearest_and_radius() {
        let t = grid_tree(5);
        let knn = t.k_nearest([0.5, 0.5, 0.0], 3);
        assert_eq!(knn.len(), 3);
        // the containing cell (payload 0) is nearest (distance 0)
        assert_eq!(knn[0].payload, 0);
        // k larger than the population returns everything
        assert_eq!(t.k_nearest([0.0, 0.0, 0.0], 1000).len(), 25);
        assert!(t.k_nearest([0.0, 0.0, 0.0], 0).is_empty());

        // within_radius: cells touching a small disc around the origin
        let near = t.within_radius([0.5, 0.5, 0.0], 0.0);
        assert_eq!(near.len(), 1); // only the containing cell has distance 0
        let wider = t.within_radius([0.5, 0.5, 0.0], 4.0);
        assert!(wider.len() > 1);
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
    fn remove_entry() {
        let mut t = grid_tree(4);
        assert_eq!(t.len(), 16);
        assert!(t.remove(Rect::rect2(0.0, 0.0, 1.0, 1.0), 0));
        assert_eq!(t.len(), 15);
        assert!(!t.remove(Rect::rect2(0.0, 0.0, 1.0, 1.0), 0));
        assert!(t.containing_point([0.5, 0.5, 0.0]).is_empty());
        t.check_invariants().unwrap();
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
            t.insert(Rect::box3(0.0, 0.0, z as f64, 1.0, 1.0, z as f64 + 0.5), z as u64);
        }
        let hits = t.overlapping(Rect::box3(0.0, 0.0, 2.0, 1.0, 1.0, 4.0));
        assert_eq!(hits.len(), 3); // z = 2, 3, 4 slabs
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_matches_inserted_queries() {
        // build the same entries two ways and check query parity
        let entries: Vec<(Rect, u64)> = (0..400u64)
            .map(|i| {
                let x = (i as f64 * 7.0) % 1000.0;
                let y = (i as f64 * 13.0) % 1000.0;
                (Rect::rect2(x, y, x + 15.0, y + 15.0), i)
            })
            .collect();

        let bulk = RTree::bulk_load(entries.clone());
        let mut inserted = RTree::new();
        for (r, p) in &entries {
            inserted.insert(*r, *p);
        }
        assert_eq!(bulk.len(), 400);

        let probe = Rect::rect2(100.0, 100.0, 300.0, 300.0);
        let mut a: Vec<u64> = bulk.overlapping(probe).iter().map(|e| e.payload).collect();
        let mut b: Vec<u64> = inserted.overlapping(probe).iter().map(|e| e.payload).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // nearest distance agrees with the inserted tree
        let p = [500.0, 500.0, 0.0];
        let db = bulk.nearest(p).unwrap().rect.distance2_to_point(p);
        let di = inserted.nearest(p).unwrap().rect.distance2_to_point(p);
        assert!((db - di).abs() < 1e-9);
    }

    #[test]
    fn bulk_load_small() {
        let bulk = RTree::bulk_load(vec![(Rect::rect2(0.0, 0.0, 1.0, 1.0), 0)]);
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk.overlapping(Rect::rect2(0.0, 0.0, 2.0, 2.0)).len(), 1);
        let empty = RTree::bulk_load(vec![]);
        assert!(empty.is_empty());
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
