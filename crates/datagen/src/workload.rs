//! High-level workload bundles for the benchmark harness.
//!
//! A [`Workload`] pairs a populated [`Graphitti`] system with a [`WorkloadStats`]
//! summary, so a bench target can build a workload once and report what it contains.

use graphitti_core::Graphitti;

use crate::influenza::{self, InfluenzaConfig};
use crate::neuro::{self, NeuroConfig};

/// Summary statistics of a populated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Registered objects.
    pub objects: usize,
    /// Committed annotations.
    pub annotations: usize,
    /// Created referents.
    pub referents: usize,
    /// Distinct interval-index domains.
    pub interval_domains: usize,
    /// Distinct R-tree coordinate systems.
    pub coordinate_systems: usize,
    /// Distinct annotation-content documents.
    pub content_docs: usize,
}

impl WorkloadStats {
    /// Compute statistics from a system.
    pub fn of(system: &Graphitti) -> Self {
        let (interval_domains, coordinate_systems) = system.index_structure_count();
        WorkloadStats {
            objects: system.object_count(),
            annotations: system.annotation_count(),
            referents: system.referent_count(),
            interval_domains,
            coordinate_systems,
            content_docs: system.content_store().len(),
        }
    }
}

/// A named workload: a populated system and its statistics.
pub struct Workload {
    /// Workload name (for bench labels).
    pub name: String,
    /// The populated system.
    pub system: Graphitti,
    /// Summary statistics.
    pub stats: WorkloadStats,
}

impl Workload {
    /// Build the Influenza workload from a config.
    pub fn influenza(config: &InfluenzaConfig) -> Workload {
        let system = influenza::build(config);
        let stats = WorkloadStats::of(&system);
        Workload { name: "influenza".into(), system, stats }
    }

    /// Build the neuroscience workload from a config.
    pub fn neuro(config: &NeuroConfig) -> Workload {
        let w = neuro::build(config);
        let stats = WorkloadStats::of(&w.system);
        Workload { name: "neuro".into(), system: w.system, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphitti_core::DataType;

    #[test]
    fn influenza_workload_stats() {
        let w = Workload::influenza(&InfluenzaConfig::small());
        assert_eq!(w.name, "influenza");
        assert_eq!(w.stats.objects, w.system.object_count());
        assert_eq!(w.stats.annotations, w.system.annotation_count());
        assert!(w.stats.content_docs <= w.stats.annotations);
        assert!(!w.system.object_ids_of_type(DataType::DnaSequence).is_empty());
    }

    #[test]
    fn neuro_workload_stats() {
        let w = Workload::neuro(&NeuroConfig::small());
        assert_eq!(w.name, "neuro");
        assert!(w.stats.coordinate_systems >= 1);
        assert!(!w.system.object_ids_of_type(DataType::Image).is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let w = Workload::influenza(&InfluenzaConfig::small());
        let recomputed = WorkloadStats::of(&w.system);
        assert_eq!(w.stats, recomputed);
    }
}
