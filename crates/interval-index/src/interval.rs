//! The [`Interval`] type and the paper's 1-D substructure operators.
//!
//! Intervals are half-open `[start, end)` over `u64` coordinates, which matches the
//! usual genomic convention and makes "consecutive, non-overlapping" constraints (used
//! by the protease example query) easy to express.

/// A half-open interval `[start, end)` on a 1-D coordinate domain.
///
/// `start < end` is required for non-empty intervals; `start == end` denotes an empty
/// (point-free) interval, which is permitted so that `intersect` is closed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// Length of the longest chain of intervals drawn from `intervals` in which each one
/// starts at or after the end of the one before it, and at most `max_gap` after that
/// end — the "consecutive intervals" of the paper's protease query.
///
/// Exact, by dynamic programming over the intervals sorted by end (the order
/// `intervals` is left in): a chain runs in that order, so the longest chain ending at
/// an interval extends the longest one ending at an earlier interval whose end lies in
/// `[start - max_gap, start]` — a contiguous run of the sorted intervals.
pub fn longest_chain(intervals: &mut [Interval], max_gap: u64) -> usize {
    intervals.sort_unstable_by_key(|iv| (iv.end, iv.start));
    // `ending_at[j]`: the longest chain whose last interval is `intervals[j]`.
    let mut ending_at: Vec<usize> = Vec::with_capacity(intervals.len());
    for (j, iv) in intervals.iter().enumerate() {
        let lo = intervals.partition_point(|p| p.end < iv.start.saturating_sub(max_gap));
        // Only earlier intervals have a length yet; a later one ending by `start` is an
        // empty interval equal to this one, so it chains the same either way round.
        let hi = intervals.partition_point(|p| p.end <= iv.start).min(j);
        let before = ending_at.get(lo..hi).and_then(|run| run.iter().max()).unwrap_or(&0);
        ending_at.push(before + 1);
    }
    ending_at.into_iter().max().unwrap_or(0)
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

    #[test]
    fn longest_chain_skips_an_overlap_and_respects_the_gap() {
        let mut ivs = vec![
            Interval::new(0, 10),
            Interval::new(10, 20),
            Interval::new(20, 30),
            Interval::new(5, 15), // overlaps, breaks a chain if chosen
        ];
        assert_eq!(longest_chain(&mut ivs, 0), 3);
        let mut gapped = vec![Interval::new(0, 10), Interval::new(15, 25)];
        assert_eq!(longest_chain(&mut gapped, 0), 1);
        assert_eq!(longest_chain(&mut gapped, 5), 2);
        assert_eq!(longest_chain(&mut [], 5), 0);
    }

    #[test]
    fn longest_chain_is_not_fooled_by_the_earliest_finish() {
        // Extending [0,10] with its earliest-finishing successor [12,15] strands the
        // chain (35 - 15 > 5); [0,10] → [11,30] → [35,40] is three long.
        let mut ivs = vec![
            Interval::new(0, 10),
            Interval::new(12, 15),
            Interval::new(11, 30),
            Interval::new(35, 40),
        ];
        assert_eq!(longest_chain(&mut ivs, 5), 3);
    }
}
