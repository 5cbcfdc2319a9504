//! The "collection of R-trees" keyed by coordinate system.
//!
//! All regions registered against the same coordinate system (e.g. every mouse-brain
//! image at the 25 µm resolution) share one R-tree, exactly as the paper prescribes to
//! keep the number of index structures small.
//!
//! The collection is keyed by vocabulary (coordinate-system names), not by corpus
//! size, so it stays a plain map; its values are persistent trees (see
//! [`crate::rtree`]), so cloning the collection copies one root node per system and a
//! write to a clone copies one descent path of the one system's tree it lands in.

use std::collections::BTreeMap;

use crate::rect::Rect;
use crate::rtree::{RTree, SpatialEntry};

/// Summary statistics for one coordinate system's R-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Coordinate-system name.
    pub system: String,
    /// Number of stored regions.
    pub entries: usize,
    /// Height of the underlying R-tree.
    pub height: usize,
}

/// A collection of R-trees, one per named coordinate system.
#[derive(Debug, Clone, Default)]
pub struct CoordinateSystems {
    systems: BTreeMap<String, RTree>,
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

    /// Insert a region into a coordinate system, creating it on first use.
    pub fn insert(&mut self, system: &str, rect: Rect, payload: u64) {
        self.systems.entry(system.to_string()).or_default().insert(rect, payload);
    }

    /// Bulk-load an entire coordinate system's R-tree via STR packing, replacing any
    /// existing tree for that system.
    pub fn bulk_load(&mut self, system: &str, entries: Vec<(Rect, u64)>) {
        self.systems.insert(system.to_string(), RTree::bulk_load(entries));
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
        self.systems.keys().map(String::as_str).collect()
    }

    /// Whether a coordinate system exists.
    pub fn has_system(&self, system: &str) -> bool {
        self.systems.contains_key(system)
    }

    /// Per-system statistics.
    pub fn stats(&self) -> Vec<SystemStats> {
        self.systems
            .iter()
            .map(|(name, tree)| SystemStats {
                system: name.clone(),
                entries: tree.len(),
                height: tree.height(),
            })
            .collect()
    }

    /// Search every coordinate system for regions overlapping `query`.
    pub fn overlapping_all_systems(&self, query: Rect) -> Vec<(String, SpatialEntry)> {
        let mut out = Vec::new();
        for (name, tree) in &self.systems {
            for e in tree.overlapping(query) {
                out.push((name.clone(), e));
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
    fn stats() {
        let cs = sample();
        let st = cs.stats();
        assert_eq!(st.len(), 2);
        assert_eq!(st[1].system, "brain-25um");
        assert_eq!(st[1].entries, 2);
        assert!(st[1].height >= 1);
    }

    #[test]
    fn entries_listing() {
        let cs = sample();
        assert_eq!(cs.entries("brain-25um").len(), 2);
        assert!(cs.entries("none").is_empty());
    }

    #[test]
    fn bulk_load_system() {
        let mut cs = CoordinateSystems::new();
        let entries: Vec<(Rect, u64)> = (0..50u64)
            .map(|i| {
                let x = i as f64 * 10.0;
                (Rect::rect2(x, 0.0, x + 5.0, 5.0), i)
            })
            .collect();
        cs.bulk_load("cs", entries);
        assert_eq!(cs.entries("cs").len(), 50);
        assert_eq!(cs.overlapping("cs", Rect::rect2(0.0, 0.0, 25.0, 5.0)).len(), 3);
    }
}
