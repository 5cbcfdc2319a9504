//! The "collection of interval trees" keyed by coordinate domain.
//!
//! The paper keeps the number of index structures small by sharing one interval tree
//! per coordinate domain — "a single interval tree is created per chromosome instead of
//! per annotated DNA sequence".  [`DomainIntervals`] is that collection; Graphitti core
//! maps every 1-D data object to a domain name (its chromosome, its alignment id, …)
//! when the object is registered.
//!
//! The collection is keyed by vocabulary (domain names), not by corpus size, so it
//! stays a plain map, under `Arc<str>` names; its values are persistent trees (see
//! [`crate::tree`]), so cloning the collection copies no name and one pointer per
//! domain, and a write to a clone copies one search path of the one domain's tree it
//! lands in.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::interval::Interval;
use crate::tree::{Entry, IntervalTree};

/// A collection of interval trees, one per named coordinate domain.
#[derive(Debug, Clone, Default)]
pub struct DomainIntervals {
    domains: BTreeMap<Arc<str>, IntervalTree>,
}

impl DomainIntervals {
    /// Create an empty collection.
    pub fn new() -> Self {
        DomainIntervals::default()
    }

    /// Number of domains (each holds at least one interval).
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Total number of stored intervals across all domains.
    pub fn len(&self) -> usize {
        self.domains.values().map(|t| t.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an interval with payload into a domain, creating the domain on first use
    /// (the only insert that copies the domain's name).
    pub fn insert(&mut self, domain: &str, interval: Interval, payload: u64) {
        match self.domains.get_mut(domain) {
            Some(tree) => tree.insert(interval, payload),
            None => self.domains.entry(Arc::from(domain)).or_default().insert(interval, payload),
        }
    }

    /// Entries overlapping `query` within one domain.
    pub fn overlapping(&self, domain: &str, query: Interval) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.overlapping(query)).unwrap_or_default()
    }

    /// The `next` substructure after `after` within one domain.
    pub fn next_after(&self, domain: &str, after: Interval) -> Option<Entry> {
        self.domains.get(domain).and_then(|t| t.next_after(after))
    }

    /// All entries of a domain in ascending order.
    pub fn entries(&self, domain: &str) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.entries()).unwrap_or_default()
    }

    /// Search every domain for entries overlapping `query`; returns `(domain, entry)`
    /// pairs. Used when a query does not pin down the coordinate domain.
    pub fn overlapping_all_domains(&self, query: Interval) -> Vec<(String, Entry)> {
        let mut out = Vec::new();
        for (name, tree) in &self.domains {
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

    fn sample() -> DomainIntervals {
        let mut d = DomainIntervals::new();
        d.insert("chr1", Interval::new(0, 100), 1);
        d.insert("chr1", Interval::new(50, 150), 2);
        d.insert("chr2", Interval::new(0, 100), 3);
        d
    }

    #[test]
    fn insert_and_count() {
        let d = sample();
        assert_eq!(d.domain_count(), 2);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn queries_are_domain_scoped() {
        let d = sample();
        assert_eq!(d.overlapping("chr1", Interval::new(60, 70)).len(), 2);
        assert_eq!(d.overlapping("chr2", Interval::new(60, 70)).len(), 1);
        assert_eq!(d.overlapping("chrX", Interval::new(60, 70)).len(), 0);
        assert_eq!(d.overlapping("chr1", Interval::new(120, 121)).len(), 1);
        assert!(d.next_after("chr2", Interval::new(0, 100)).is_none());
    }

    #[test]
    fn cross_domain_search() {
        let d = sample();
        let hits = d.overlapping_all_domains(Interval::new(0, 10));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "chr1");
        assert_eq!(hits[1].0, "chr2");
    }

    #[test]
    fn entries_listing() {
        let d = sample();
        let e = d.entries("chr1");
        assert_eq!(e.len(), 2);
        assert!(d.entries("nope").is_empty());
    }
}
