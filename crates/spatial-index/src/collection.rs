//! The "collection of R-trees" keyed by coordinate system.
//!
//! All regions registered against the same coordinate system (e.g. every mouse-brain
//! image at the 25 µm resolution) share one R-tree, exactly as the paper prescribes to
//! keep the number of index structures small.
//!
//! The collection is keyed by vocabulary (coordinate-system names), not by corpus
//! size, so it stays a plain map, under `Arc<str>` names; its values are persistent trees (see
//! [`crate::rtree`]), so cloning the collection copies one root node per system and a
//! write to a clone copies one descent path of the one system's tree it lands in.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::rect::Rect;
use crate::rtree::{RTree, SpatialEntry};

/// A collection of R-trees, one per named coordinate system.
#[derive(Debug, Clone, Default)]
pub struct CoordinateSystems {
    systems: BTreeMap<Arc<str>, RTree>,
}

impl CoordinateSystems {
    /// Create an empty collection.
    pub fn new() -> Self {
        CoordinateSystems::default()
    }

    /// Number of coordinate systems with at least one region.
    pub fn system_count(&self) -> usize {
        self.systems.len()
    }

    /// Total number of regions across all systems.
    pub fn len(&self) -> usize {
        self.systems.values().map(|t| t.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a region into a coordinate system, creating it on first use (the only
    /// insert that copies the system's name).
    pub fn insert(&mut self, system: &str, rect: Rect, payload: u64) {
        match self.systems.get_mut(system) {
            Some(tree) => tree.insert(rect, payload),
            None => self.systems.entry(Arc::from(system)).or_default().insert(rect, payload),
        }
    }

    /// Remove a `(rect, payload)` entry; empty systems are dropped.
    pub fn remove(&mut self, system: &str, rect: Rect, payload: u64) -> bool {
        let Some(tree) = self.systems.get_mut(system) else { return false };
        let removed = tree.remove(rect, payload);
        if tree.is_empty() {
            self.systems.remove(system);
        }
        removed
    }

    /// Regions overlapping `query` within one coordinate system.
    pub fn overlapping(&self, system: &str, query: Rect) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.overlapping(query)).unwrap_or_default()
    }

    /// Regions fully contained in `query` within one coordinate system.
    pub fn contained_in(&self, system: &str, query: Rect) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.contained_in(query)).unwrap_or_default()
    }

    /// Regions containing a point within one coordinate system.
    pub fn containing_point(&self, system: &str, p: [f64; 3]) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.containing_point(p)).unwrap_or_default()
    }

    /// Nearest region to a point within one coordinate system.
    pub fn nearest(&self, system: &str, p: [f64; 3]) -> Option<SpatialEntry> {
        self.systems.get(system).and_then(|t| t.nearest(p))
    }

    /// All regions of a coordinate system.
    pub fn entries(&self, system: &str) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.entries()).unwrap_or_default()
    }

    /// Registered coordinate-system names, sorted.
    pub fn systems(&self) -> Vec<&str> {
        self.systems.keys().map(|name| &**name).collect()
    }

    /// Whether a coordinate system exists.
    pub fn has_system(&self, system: &str) -> bool {
        self.systems.contains_key(system)
    }

    /// Search every coordinate system for regions overlapping `query`.
    pub fn overlapping_all_systems(&self, query: Rect) -> Vec<(String, SpatialEntry)> {
        let mut out = Vec::new();
        for (name, tree) in &self.systems {
            for e in tree.overlapping(query) {
                out.push((name.to_string(), e));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoordinateSystems {
        let mut cs = CoordinateSystems::new();
        cs.insert("brain-25um", Rect::rect2(0.0, 0.0, 10.0, 10.0), 1);
        cs.insert("brain-25um", Rect::rect2(5.0, 5.0, 15.0, 15.0), 2);
        cs.insert("brain-100um", Rect::rect2(0.0, 0.0, 10.0, 10.0), 3);
        cs
    }

    #[test]
    fn insert_and_count() {
        let cs = sample();
        assert_eq!(cs.system_count(), 2);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.systems(), vec!["brain-100um", "brain-25um"]);
        assert!(cs.has_system("brain-25um"));
        assert!(!cs.has_system("atlas"));
        assert!(!cs.is_empty());
    }

    #[test]
    fn queries_scoped_by_system() {
        let cs = sample();
        assert_eq!(cs.overlapping("brain-25um", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 2);
        assert_eq!(cs.overlapping("brain-100um", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 1);
        assert_eq!(cs.overlapping("none", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 0);
        assert_eq!(cs.containing_point("brain-25um", [1.0, 1.0, 0.0]).len(), 1);
        assert_eq!(cs.contained_in("brain-25um", Rect::rect2(0.0, 0.0, 20.0, 20.0)).len(), 2);
        assert!(cs.nearest("brain-100um", [100.0, 100.0, 0.0]).is_some());
        assert!(cs.nearest("none", [0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn cross_system_search() {
        let cs = sample();
        let hits = cs.overlapping_all_systems(Rect::rect2(1.0, 1.0, 2.0, 2.0));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn remove_drops_empty_system() {
        let mut cs = sample();
        assert!(cs.remove("brain-100um", Rect::rect2(0.0, 0.0, 10.0, 10.0), 3));
        assert_eq!(cs.system_count(), 1);
        assert!(!cs.remove("brain-100um", Rect::rect2(0.0, 0.0, 10.0, 10.0), 3));
    }

    #[test]
    fn entries_listing() {
        let cs = sample();
        assert_eq!(cs.entries("brain-25um").len(), 2);
        assert!(cs.entries("none").is_empty());
    }
}
