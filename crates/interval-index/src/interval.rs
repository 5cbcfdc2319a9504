//! The [`Interval`] type and the paper's 1-D substructure operators.
//!
//! Intervals are half-open `[start, end)` over `u64` coordinates, which matches the
//! usual genomic convention and makes "consecutive, non-overlapping" constraints (used
//! by the protease example query) easy to express.

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

    /// True when `self` fully contains `other`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end && !other.is_empty()
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
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
    fn containment() {
        let a = Interval::new(10, 100);
        assert!(a.contains(&Interval::new(10, 100)));
        assert!(a.contains(&Interval::new(50, 60)));
        assert!(!a.contains(&Interval::new(5, 60)));
        assert!(!a.contains(&Interval::new(50, 50)));
        assert!(a.contains(&Interval::new(10, 11)));
        assert!(a.contains(&Interval::new(99, 100)));
        assert!(!a.contains(&Interval::new(100, 101)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Interval::new(3, 9).to_string(), "[3, 9)");
    }
}
