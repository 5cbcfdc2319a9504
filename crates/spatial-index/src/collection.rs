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

    /// Insert a run of `(system, rect, payload)` regions: into a system that holds
    /// regions already one by one, as [`insert`](Self::insert) does, and a new
    /// system's share packed into its tree at once (see `RTree::packed`).  Answers do
    /// not depend on the tree's shape: every query orders its hits by payload.
    pub fn extend<'a>(&mut self, run: impl IntoIterator<Item = (&'a str, Rect, u64)>) {
        let mut unpacked: Vec<(&str, SpatialEntry)> = Vec::new();
        for (system, rect, payload) in run {
            match self.systems.get_mut(system) {
                Some(tree) => tree.insert(rect, payload),
                None => unpacked.push((system, SpatialEntry { rect, payload })),
            }
        }
        // Stable: each system keeps its regions in run order.
        unpacked.sort_by(|a, b| a.0.cmp(b.0));
        for group in unpacked.chunk_by(|a, b| a.0 == b.0) {
            let tree = RTree::packed(group.iter().map(|&(_, entry)| entry).collect());
            self.systems.insert(Arc::from(group[0].0), tree);
        }
    }

    /// Regions overlapping `query` within one coordinate system.
    pub fn overlapping(&self, system: &str, query: Rect) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.overlapping(query)).unwrap_or_default()
    }

    /// Nearest region to a point within one coordinate system.
    pub fn nearest(&self, system: &str, p: [f64; 3]) -> Option<SpatialEntry> {
        self.systems.get(system).and_then(|t| t.nearest(p))
    }

    /// All regions of a coordinate system.
    pub fn entries(&self, system: &str) -> Vec<SpatialEntry> {
        self.systems.get(system).map(|t| t.entries()).unwrap_or_default()
    }

    /// Check every system's tree against the R-tree invariants (fill factors and
    /// bounding boxes); the first violation, named by its system.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, tree) in &self.systems {
            tree.check_invariants().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
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
        assert!(!cs.is_empty());
    }

    #[test]
    fn queries_scoped_by_system() {
        let cs = sample();
        assert_eq!(cs.overlapping("brain-25um", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 2);
        assert_eq!(cs.overlapping("brain-100um", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 1);
        assert_eq!(cs.overlapping("none", Rect::rect2(6.0, 6.0, 7.0, 7.0)).len(), 0);
        assert_eq!(
            cs.overlapping("brain-25um", Rect::new([1.0, 1.0, 0.0], [1.0, 1.0, 0.0])).len(),
            1
        );
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
    fn an_extended_run_answers_as_its_inserts() {
        let run: Vec<(&str, Rect, u64)> = (0..100u64)
            .map(|i| (["brain-25um", "new"][(i % 2) as usize], i as f64))
            .map(|(system, x)| (system, Rect::rect2(x, x / 2.0, x + 3.0, x / 2.0 + 3.0), x as u64))
            .collect();
        let (mut extended, mut one_by_one) = (sample(), sample());
        extended.extend(run.iter().copied());
        run.iter().for_each(|&(system, rect, payload)| one_by_one.insert(system, rect, payload));
        extended.check_invariants().unwrap();
        for system in ["brain-25um", "brain-100um", "new"] {
            assert_eq!(extended.entries(system), one_by_one.entries(system), "{system}");
            let query = Rect::rect2(10.0, 0.0, 40.0, 30.0);
            assert_eq!(extended.overlapping(system, query), one_by_one.overlapping(system, query));
        }
    }

    #[test]
    fn entries_listing() {
        let cs = sample();
        assert_eq!(cs.entries("brain-25um").len(), 2);
        assert!(cs.entries("none").is_empty());
    }
}
