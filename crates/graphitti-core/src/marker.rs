//! Substructure markers and the `SubX` abstraction.
//!
//! The annotation tab offers "a number of menus for marking the substructures of
//! different structures": a *linear interval marker* for sequences, region markers for
//! images, volume markers for 3-D models, and *block-set markers* for relational
//! records.  A [`Marker`] is one such marked substructure.
//!
//! [`SubX`] is the paper's `SUB-X` abstraction — the set of all substructures on which
//! the operators `ifOverlap`, `next` and `intersect` are defined.  We implement it over
//! the marker enum, dispatching to the interval or rectangle algebra per kind.

use std::fmt;
use std::sync::Arc;

use interval_index::Interval;
use spatial_index::Rect;

/// A marked substructure of a data object.
#[derive(Debug, Clone, PartialEq)]
pub enum Marker {
    /// A half-open interval on a 1-D sequence / alignment.
    Interval(Interval),
    /// A 2-D image region.
    Region(Rect),
    /// A 3-D sub-volume.
    Volume(Rect),
    /// A block-set of discrete identifiers (relation row ids, graph node ids, tree
    /// clade ids), kept sorted and deduplicated — shared, so cloning a referent
    /// copies no id.
    BlockSet(Arc<[u64]>),
}

impl Marker {
    /// Create an interval marker.
    pub fn interval(start: u64, end: u64) -> Marker {
        Marker::Interval(Interval::new(start, end))
    }

    /// Create a 2-D region marker.
    pub fn region(x0: f64, y0: f64, x1: f64, y1: f64) -> Marker {
        Marker::Region(Rect::rect2(x0, y0, x1, y1))
    }

    /// Create a 3-D volume marker.
    pub fn volume(x0: f64, y0: f64, z0: f64, x1: f64, y1: f64, z1: f64) -> Marker {
        Marker::Volume(Rect::box3(x0, y0, z0, x1, y1, z1))
    }

    /// Create a block-set marker (ids are sorted and deduplicated).
    pub fn block_set(ids: impl IntoIterator<Item = u64>) -> Marker {
        let mut v: Vec<u64> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Marker::BlockSet(v.into())
    }

    /// What the constructors above assert or normalise, for a marker built field by
    /// field (as a decoder builds one): `Some(violation)` for an inverted interval, a
    /// box with any `min > max` or a NaN coordinate, or a block set that is not
    /// strictly increasing.
    pub(crate) fn malformed(&self) -> Option<&'static str> {
        match self {
            Marker::Interval(iv) => (iv.start > iv.end).then_some("inverted interval"),
            Marker::Region(rect) | Marker::Volume(rect) => rect
                .min
                .iter()
                .zip(&rect.max)
                .any(|(min, max)| min.is_nan() || max.is_nan() || min > max)
                .then_some("inverted or NaN box"),
            Marker::BlockSet(ids) => {
                (!ids.is_sorted_by(|a, b| a < b)).then_some("unsorted or duplicated block set")
            }
        }
    }

    /// The marker's dimensionality, used to validate it against an object's data type.
    pub(crate) fn dimensionality(&self) -> crate::types::Dimensionality {
        use crate::types::Dimensionality;
        match self {
            Marker::Interval(_) => Dimensionality::Linear,
            Marker::Region(_) => Dimensionality::Planar,
            Marker::Volume(_) => Dimensionality::Volumetric,
            Marker::BlockSet(_) => Dimensionality::Discrete,
        }
    }
}

/// The marker in short: `ivl:10-50`, `reg:0,0-1,2`, `vol:…`, `blk:1.2.3`.
impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marker::Interval(i) => write!(f, "ivl:{}-{}", i.start, i.end),
            Marker::Region(r) => {
                write!(f, "reg:{},{}-{},{}", r.min[0], r.min[1], r.max[0], r.max[1])
            }
            Marker::Volume(r) => write!(
                f,
                "vol:{},{},{}-{},{},{}",
                r.min[0], r.min[1], r.min[2], r.max[0], r.max[1], r.max[2]
            ),
            Marker::BlockSet(ids) => {
                f.write_str("blk:")?;
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        f.write_str(".")?;
                    }
                    write!(f, "{id}")?;
                }
                Ok(())
            }
        }
    }
}

/// The paper's `SUB-X` substructure abstraction: the operators defined on all
/// substructures (`ifOverlap`), and those defined only on suitable ones (`next` on
/// ordered types, `intersect` on convex types).
pub trait SubX: Sized {
    /// `ifOverlap : SUB-X × SUB-X → {0,1}` — whether two substructures overlap. Two
    /// substructures of different kinds never overlap.
    fn if_overlap(&self, other: &Self) -> bool;

    /// `intersect : SUB-X × SUB-X → SUB-X` — the intersection of two substructures,
    /// when defined for the (convex) type, else `None`.
    fn intersect(&self, other: &Self) -> Option<Self>;

    /// `next : SUB-X → SUB-X` over an explicit ordered population: the substructure
    /// immediately following `self` in the given collection, for ordered types. Returns
    /// `None` for unordered types or when nothing follows.
    fn next_in<'a>(&self, population: &'a [Self]) -> Option<&'a Self>;
}

impl SubX for Marker {
    fn if_overlap(&self, other: &Marker) -> bool {
        match (self, other) {
            (Marker::Interval(a), Marker::Interval(b)) => a.if_overlap(b),
            (Marker::Region(a), Marker::Region(b)) => a.if_overlap(b),
            (Marker::Volume(a), Marker::Volume(b)) => a.if_overlap(b),
            (Marker::BlockSet(a), Marker::BlockSet(b)) => {
                // sorted sets: overlap iff they share an id
                let mut i = 0;
                let mut j = 0;
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            _ => false,
        }
    }

    fn intersect(&self, other: &Marker) -> Option<Marker> {
        match (self, other) {
            (Marker::Interval(a), Marker::Interval(b)) => {
                let i = a.intersect(b);
                if i.is_empty() {
                    None
                } else {
                    Some(Marker::Interval(i))
                }
            }
            (Marker::Region(a), Marker::Region(b)) => a.intersect(b).map(Marker::Region),
            (Marker::Volume(a), Marker::Volume(b)) => a.intersect(b).map(Marker::Volume),
            (Marker::BlockSet(a), Marker::BlockSet(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if out.is_empty() {
                    None
                } else {
                    Some(Marker::BlockSet(out.into()))
                }
            }
            _ => None,
        }
    }

    fn next_in<'a>(&self, population: &'a [Marker]) -> Option<&'a Marker> {
        match self {
            Marker::Interval(a) => population
                .iter()
                .filter_map(|m| match m {
                    Marker::Interval(b) if b.start >= a.end => Some((b.start, b.end, m)),
                    _ => None,
                })
                .min_by_key(|&(s, e, _)| (s, e))
                .map(|(_, _, m)| m),
            // spatial and discrete substructures have no canonical linear ordering
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Dimensionality;

    #[test]
    fn marker_dimensionality() {
        assert_eq!(Marker::interval(0, 10).dimensionality(), Dimensionality::Linear);
        assert_eq!(Marker::region(0.0, 0.0, 1.0, 1.0).dimensionality(), Dimensionality::Planar);
        assert_eq!(
            Marker::volume(0.0, 0.0, 0.0, 1.0, 1.0, 1.0).dimensionality(),
            Dimensionality::Volumetric
        );
        assert_eq!(Marker::block_set([1, 2]).dimensionality(), Dimensionality::Discrete);
    }

    #[test]
    fn block_set_normalizes() {
        let m = Marker::block_set([3, 1, 2, 1]);
        assert_eq!(m, Marker::BlockSet(Arc::from([1, 2, 3])));
    }

    #[test]
    fn marker_display() {
        let shown = |m: Marker| m.to_string();
        assert_eq!(shown(Marker::interval(10, 50)), "ivl:10-50");
        assert_eq!(shown(Marker::block_set([1, 2, 3])), "blk:1.2.3");
        assert_eq!(shown(Marker::block_set([])), "blk:");
        assert_eq!(shown(Marker::region(0.0, 0.5, 1.0, 2.0)), "reg:0,0.5-1,2");
        assert_eq!(shown(Marker::volume(0.0, 0.0, -1.0, 1.0, 1.0, 0.0)), "vol:0,0,-1-1,1,0");
        assert_eq!(shown(Marker::block_set([9_007_199_254_740_993, 7])), "blk:7.9007199254740993");
    }

    #[test]
    fn overlap_same_kind() {
        assert!(Marker::interval(0, 10).if_overlap(&Marker::interval(5, 15)));
        assert!(!Marker::interval(0, 10).if_overlap(&Marker::interval(10, 20)));
        assert!(
            Marker::region(0.0, 0.0, 10.0, 10.0).if_overlap(&Marker::region(5.0, 5.0, 15.0, 15.0))
        );
        assert!(Marker::block_set([1, 2, 3]).if_overlap(&Marker::block_set([3, 4, 5])));
        assert!(!Marker::block_set([1, 2]).if_overlap(&Marker::block_set([3, 4])));
    }

    #[test]
    fn overlap_different_kinds_is_false() {
        assert!(!Marker::interval(0, 10).if_overlap(&Marker::region(0.0, 0.0, 1.0, 1.0)));
        assert!(!Marker::block_set([1]).if_overlap(&Marker::interval(0, 10)));
    }

    #[test]
    fn intersect_dispatch() {
        assert_eq!(
            Marker::interval(0, 10).intersect(&Marker::interval(5, 20)),
            Some(Marker::interval(5, 10))
        );
        assert_eq!(Marker::interval(0, 5).intersect(&Marker::interval(5, 10)), None);
        assert_eq!(
            Marker::block_set([1, 2, 3]).intersect(&Marker::block_set([2, 3, 4])),
            Some(Marker::BlockSet(Arc::from([2, 3])))
        );
        assert_eq!(Marker::block_set([1]).intersect(&Marker::block_set([2])), None);
        assert_eq!(
            Marker::region(0.0, 0.0, 10.0, 10.0).intersect(&Marker::region(5.0, 5.0, 15.0, 15.0)),
            Some(Marker::region(5.0, 5.0, 10.0, 10.0))
        );
        assert!(Marker::interval(0, 10).intersect(&Marker::block_set([1])).is_none());
    }

    #[test]
    fn next_on_intervals() {
        let pop = vec![Marker::interval(0, 10), Marker::interval(12, 20), Marker::interval(30, 40)];
        let n = Marker::interval(0, 10).next_in(&pop).unwrap();
        assert_eq!(*n, Marker::interval(12, 20));
        assert!(Marker::interval(30, 40).next_in(&pop).is_none());
        // non-interval markers have no "next"
        assert!(Marker::block_set([1]).next_in(&pop).is_none());
    }
}
