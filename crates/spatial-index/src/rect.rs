//! Axis-aligned boxes in 2 or 3 dimensions and the paper's spatial substructure
//! operators.
//!
//! A [`Rect`] always stores three dimensions; genuinely 2-D regions (image regions)
//! simply use a zero-extent third axis.  This keeps one R-tree implementation serving
//! both the 2-D image-region case and the 3-D brain-volume case the paper mentions.

/// An axis-aligned box `[min, max]` per axis (closed on both ends, matching how image
/// regions are usually specified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: [f64; 3],
    /// Maximum corner.
    pub max: [f64; 3],
}

impl Rect {
    /// Create a 3-D box. Panics when any `min > max` (an inverted box is a caller bug).
    pub fn new(min: [f64; 3], max: [f64; 3]) -> Self {
        for d in 0..3 {
            assert!(min[d] <= max[d], "inverted box on axis {d}: {} > {}", min[d], max[d]);
        }
        Rect { min, max }
    }

    /// Create a 3-D box from untrusted corners: `None` when any `min > max` or any
    /// coordinate is not finite (the twin of `Interval::checked`).
    pub fn checked(min: [f64; 3], max: [f64; 3]) -> Option<Self> {
        let valid = (0..3).all(|d| min[d].is_finite() && max[d].is_finite() && min[d] <= max[d]);
        valid.then_some(Rect { min, max })
    }

    /// Create a 2-D rectangle (zero-extent z axis).
    pub fn rect2(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new([x0, y0, 0.0], [x1, y1, 0.0])
    }

    /// Create a 3-D box from scalar corners.
    pub fn box3(x0: f64, y0: f64, z0: f64, x1: f64, y1: f64, z1: f64) -> Self {
        Rect::new([x0, y0, z0], [x1, y1, z1])
    }

    /// Extent along an axis.
    pub(crate) fn extent(&self, axis: usize) -> f64 {
        self.max[axis] - self.min[axis]
    }

    /// Area in 2-D / volume measure used for R-tree heuristics: the product of extents,
    /// treating zero-extent axes as contributing a factor of 1 so 2-D rectangles get
    /// their area rather than a degenerate 0.
    pub fn measure(&self) -> f64 {
        (0..3)
            .map(|d| {
                let e = self.extent(d);
                if e == 0.0 {
                    1.0
                } else {
                    e
                }
            })
            .product()
    }

    /// The paper's `ifOverlap` for spatial substructures: true when the boxes share at
    /// least one point (closed-interval semantics, so touching boxes do overlap).
    pub fn if_overlap(&self, other: &Rect) -> bool {
        (0..3).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// The paper's `intersect` for convex spatial types: the shared box, or `None` when
    /// the boxes are disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        if !self.if_overlap(other) {
            return None;
        }
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for d in 0..3 {
            min[d] = self.min[d].max(other.min[d]);
            max[d] = self.max[d].min(other.max[d]);
        }
        Some(Rect { min, max })
    }

    /// The minimum bounding box of the two inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for d in 0..3 {
            min[d] = self.min[d].min(other.min[d]);
            max[d] = self.max[d].max(other.max[d]);
        }
        Rect { min, max }
    }

    /// How much the measure grows if `other` is merged into `self` (R-tree insertion
    /// heuristic).
    pub(crate) fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).measure() - self.measure()
    }

    /// True when `self` fully contains `other`.
    pub fn contains(&self, other: &Rect) -> bool {
        (0..3).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// True when the point lies inside the box (closed).
    pub fn contains_point(&self, p: [f64; 3]) -> bool {
        (0..3).all(|d| self.min[d] <= p[d] && p[d] <= self.max[d])
    }

    /// Squared distance from a point to the box (0 when inside) — used by
    /// nearest-neighbour search.
    pub fn distance2_to_point(&self, p: [f64; 3]) -> f64 {
        (0..3)
            .map(|d| {
                let v = if p[d] < self.min[d] {
                    self.min[d] - p[d]
                } else if p[d] > self.max[d] {
                    p[d] - self.max[d]
                } else {
                    0.0
                };
                v * v
            })
            .sum()
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[({}, {}, {})..({}, {}, {})]",
            self.min[0], self.min[1], self.min[2], self.max[0], self.max[1], self.max[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_helpers() {
        let r = Rect::rect2(0.0, 0.0, 10.0, 5.0);
        assert_eq!(r.extent(0), 10.0);
        assert_eq!(r.extent(1), 5.0);
        assert_eq!(r.extent(2), 0.0);
        assert_eq!(r.measure(), 50.0);
        let b = Rect::box3(0.0, 0.0, 0.0, 2.0, 3.0, 4.0);
        assert_eq!(b.measure(), 24.0);
        let unit = Rect::checked([0.0; 3], [1.0; 3]);
        assert_eq!(unit, Some(Rect::box3(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)));
        assert_eq!(Rect::checked([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]), None);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Rect::checked([0.0, bad, 0.0], [1.0; 3]), None);
        }
    }

    #[test]
    #[should_panic(expected = "inverted box")]
    fn inverted_box_panics() {
        let _ = Rect::new([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]);
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Rect::rect2(0.0, 0.0, 10.0, 10.0);
        let b = Rect::rect2(5.0, 5.0, 15.0, 15.0);
        let c = Rect::rect2(20.0, 20.0, 30.0, 30.0);
        assert!(a.if_overlap(&b));
        assert!(!a.if_overlap(&c));
        assert!(a.if_overlap(&Rect::rect2(10.0, 10.0, 20.0, 20.0))); // touching counts
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Rect::rect2(5.0, 5.0, 10.0, 10.0));
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn union_and_enlargement() {
        let a = Rect::rect2(0.0, 0.0, 10.0, 10.0);
        let b = Rect::rect2(20.0, 0.0, 30.0, 10.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::rect2(0.0, 0.0, 30.0, 10.0));
        assert!(a.enlargement(&b) > 0.0);
        assert_eq!(a.enlargement(&Rect::rect2(1.0, 1.0, 2.0, 2.0)), 0.0);
    }

    #[test]
    fn containment() {
        let a = Rect::rect2(0.0, 0.0, 10.0, 10.0);
        assert!(a.contains(&Rect::rect2(2.0, 2.0, 8.0, 8.0)));
        assert!(a.contains(&a));
        assert!(!a.contains(&Rect::rect2(-1.0, 0.0, 5.0, 5.0)));
        assert!(a.contains_point([10.0, 10.0, 0.0]));
        assert!(!a.contains_point([10.1, 10.0, 0.0]));
    }

    #[test]
    fn distance_to_point() {
        let a = Rect::rect2(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.distance2_to_point([5.0, 5.0, 0.0]), 0.0);
        assert_eq!(a.distance2_to_point([13.0, 14.0, 0.0]), 9.0 + 16.0);
    }

    #[test]
    fn display_is_readable() {
        let r = Rect::rect2(1.0, 2.0, 3.0, 4.0);
        assert!(r.to_string().contains("(1, 2, 0)"));
    }

    #[test]
    fn overlap_in_3d_requires_all_axes() {
        let a = Rect::box3(0.0, 0.0, 0.0, 10.0, 10.0, 10.0);
        let b = Rect::box3(5.0, 5.0, 20.0, 15.0, 15.0, 30.0);
        assert!(!a.if_overlap(&b));
        let c = Rect::box3(5.0, 5.0, 5.0, 15.0, 15.0, 15.0);
        assert!(a.if_overlap(&c));
        assert_eq!(a.intersect(&c).unwrap(), Rect::box3(5.0, 5.0, 5.0, 10.0, 10.0, 10.0));
    }
}
