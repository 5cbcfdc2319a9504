//! The [`Interval`] type and the paper's 1-D substructure operators.
//!
//! Intervals are half-open `[start, end)` over `u64` coordinates, which matches the
//! usual genomic convention and makes "consecutive, non-overlapping" constraints (used
//! by the protease example query) easy to express.

/// How two intervals relate to each other on the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapRelation {
    /// `self` ends at or before the other starts.
    Before,
    /// `self` starts at or after the other ends.
    After,
    /// The intervals share at least one coordinate but neither contains the other.
    PartialOverlap,
    /// `self` fully contains the other (they may be equal).
    Contains,
    /// The other fully contains `self` and they are not equal.
    ContainedIn,
}

/// A half-open interval `[start, end)` on a 1-D coordinate domain.
///
/// `start < end` is required for non-empty intervals; `start == end` denotes an empty
/// (point-free) interval, which is permitted so that `intersect` is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive start coordinate.
    pub start: u64,
    /// Exclusive end coordinate.
    pub end: u64,
}

impl Interval {
    /// Create an interval; panics if `start > end` (an inverted interval is a bug in
    /// the caller, not recoverable state).
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted interval [{start}, {end})");
        Interval { start, end }
    }

    /// Create an interval, returning `None` if inverted.
    pub fn checked(start: u64, end: u64) -> Option<Self> {
        if start <= end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// A single-point interval `[p, p+1)`.
    pub fn point(p: u64) -> Self {
        Interval { start: p, end: p + 1 }
    }

    /// Interval length.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the interval covers no coordinates.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The paper's `ifOverlap : SUB-X × SUB-X → {0,1}`: true when the two substructures
    /// share at least one coordinate.
    pub fn if_overlap(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// The paper's `intersect : SUB-X × SUB-X → SUB-X` for convex 1-D types: the common
    /// sub-interval, which may be empty.
    pub fn intersect(&self, other: &Interval) -> Interval {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start >= end {
            Interval { start, end: start }
        } else {
            Interval { start, end }
        }
    }

    /// The smallest interval containing both inputs (the convex hull on the line).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// True when `self` fully contains `other`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end && !other.is_empty()
    }

    /// True when the coordinate `p` falls inside the interval.
    pub fn contains_point(&self, p: u64) -> bool {
        self.start <= p && p < self.end
    }

    /// True when `self` lies strictly before `other` with no shared coordinate.
    pub fn precedes(&self, other: &Interval) -> bool {
        self.end <= other.start
    }

    /// True when `self` and `other` are consecutive and disjoint (they touch but do not
    /// overlap) — the constraint used by the paper's "4 consecutive non-overlapping
    /// intervals" example query, allowing a configurable gap tolerance.
    pub fn consecutive_with(&self, other: &Interval, max_gap: u64) -> bool {
        self.precedes(other) && other.start - self.end <= max_gap
    }

    /// Classify the relation of `self` to `other`.
    pub fn relation(&self, other: &Interval) -> OverlapRelation {
        if self.precedes(other) {
            OverlapRelation::Before
        } else if other.precedes(self) {
            OverlapRelation::After
        } else if self.contains(other) {
            OverlapRelation::Contains
        } else if other.contains(self) {
            OverlapRelation::ContainedIn
        } else {
            OverlapRelation::PartialOverlap
        }
    }

    /// Gap between two disjoint intervals (0 when they touch or overlap).
    pub fn gap_to(&self, other: &Interval) -> u64 {
        if self.precedes(other) {
            other.start - self.end
        } else if other.precedes(self) {
            self.start - other.end
        } else {
            0
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Merge a set of intervals into the minimal set of disjoint intervals covering the same
/// coordinates (the union as a normalized interval set). Empty intervals are dropped.
pub fn merge_overlapping(intervals: &[Interval]) -> Vec<Interval> {
    let mut sorted: Vec<Interval> = intervals.iter().copied().filter(|i| !i.is_empty()).collect();
    sorted.sort_by_key(|i| (i.start, i.end));
    let mut out: Vec<Interval> = Vec::new();
    for iv in sorted {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => {
                last.end = last.end.max(iv.end);
            }
            _ => out.push(iv),
        }
    }
    out
}

/// Total number of coordinates covered by a set of intervals (the length of their union,
/// double-counting removed).
pub fn coverage(intervals: &[Interval]) -> u64 {
    merge_overlapping(intervals).iter().map(Interval::len).sum()
}

/// Verify that a sequence of intervals is consecutive and pairwise non-overlapping
/// (each one ends before the next begins, within `max_gap`).  Used by the query engine
/// to evaluate the graph constraint of the protease example query.
pub fn are_consecutive_disjoint(intervals: &[Interval], max_gap: u64) -> bool {
    intervals.windows(2).all(|w| w[0].consecutive_with(&w[1], max_gap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let i = Interval::new(10, 20);
        assert_eq!(i.len(), 10);
        assert!(!i.is_empty());
        assert!(Interval::new(5, 5).is_empty());
        assert_eq!(Interval::point(7), Interval::new(7, 8));
        assert_eq!(Interval::checked(3, 1), None);
        assert_eq!(Interval::checked(1, 3), Some(Interval::new(1, 3)));
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let _ = Interval::new(10, 5);
    }

    #[test]
    fn if_overlap_cases() {
        let a = Interval::new(10, 20);
        assert!(a.if_overlap(&Interval::new(15, 25)));
        assert!(a.if_overlap(&Interval::new(0, 11)));
        assert!(a.if_overlap(&Interval::new(12, 13)));
        assert!(!a.if_overlap(&Interval::new(20, 30))); // touching is not overlapping
        assert!(!a.if_overlap(&Interval::new(0, 10)));
        assert!(!a.if_overlap(&Interval::new(15, 15))); // empty never overlaps
    }

    #[test]
    fn intersect_is_commutative_and_clipped() {
        let a = Interval::new(10, 20);
        let b = Interval::new(15, 30);
        assert_eq!(a.intersect(&b), Interval::new(15, 20));
        assert_eq!(b.intersect(&a), Interval::new(15, 20));
        let disjoint = a.intersect(&Interval::new(40, 50));
        assert!(disjoint.is_empty());
    }

    #[test]
    fn hull_covers_both() {
        let a = Interval::new(10, 20);
        let b = Interval::new(30, 40);
        assert_eq!(a.hull(&b), Interval::new(10, 40));
    }

    #[test]
    fn containment() {
        let a = Interval::new(10, 100);
        assert!(a.contains(&Interval::new(10, 100)));
        assert!(a.contains(&Interval::new(50, 60)));
        assert!(!a.contains(&Interval::new(5, 60)));
        assert!(!a.contains(&Interval::new(50, 50)));
        assert!(a.contains_point(10));
        assert!(a.contains_point(99));
        assert!(!a.contains_point(100));
    }

    #[test]
    fn relation_classification() {
        let a = Interval::new(10, 20);
        assert_eq!(a.relation(&Interval::new(20, 30)), OverlapRelation::Before);
        assert_eq!(a.relation(&Interval::new(0, 10)), OverlapRelation::After);
        assert_eq!(a.relation(&Interval::new(12, 18)), OverlapRelation::Contains);
        assert_eq!(a.relation(&Interval::new(5, 25)), OverlapRelation::ContainedIn);
        assert_eq!(a.relation(&Interval::new(15, 25)), OverlapRelation::PartialOverlap);
    }

    #[test]
    fn consecutive_and_gap() {
        let a = Interval::new(10, 20);
        let b = Interval::new(20, 30);
        let c = Interval::new(25, 35);
        assert!(a.consecutive_with(&b, 0));
        assert!(!b.consecutive_with(&a, 0));
        assert!(!a.consecutive_with(&c, 4));
        assert!(a.consecutive_with(&Interval::new(23, 30), 3));
        assert_eq!(a.gap_to(&Interval::new(25, 30)), 5);
        assert_eq!(a.gap_to(&Interval::new(15, 30)), 0);
        assert_eq!(Interval::new(25, 30).gap_to(&a), 5);
    }

    #[test]
    fn consecutive_disjoint_chain() {
        let chain = vec![
            Interval::new(0, 10),
            Interval::new(10, 25),
            Interval::new(27, 30),
            Interval::new(30, 31),
        ];
        assert!(are_consecutive_disjoint(&chain, 2));
        assert!(!are_consecutive_disjoint(&chain, 1));
        let overlapping = vec![Interval::new(0, 10), Interval::new(5, 15)];
        assert!(!are_consecutive_disjoint(&overlapping, 100));
        assert!(are_consecutive_disjoint(&[Interval::new(1, 2)], 0));
        assert!(are_consecutive_disjoint(&[], 0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Interval::new(3, 9).to_string(), "[3, 9)");
    }

    #[test]
    fn merge_overlapping_normalizes() {
        let ivs = vec![
            Interval::new(0, 10),
            Interval::new(5, 15),
            Interval::new(20, 30),
            Interval::new(30, 40), // touching -> merges
            Interval::new(50, 50), // empty -> dropped
        ];
        let merged = merge_overlapping(&ivs);
        assert_eq!(merged, vec![Interval::new(0, 15), Interval::new(20, 40)]);
    }

    #[test]
    fn coverage_counts_union() {
        let ivs = vec![Interval::new(0, 10), Interval::new(5, 15), Interval::new(20, 25)];
        assert_eq!(coverage(&ivs), 15 + 5); // [0,15) + [20,25)
        assert_eq!(coverage(&[]), 0);
        assert_eq!(coverage(&[Interval::new(0, 100)]), 100);
    }
}
