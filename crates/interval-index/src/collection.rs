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

    /// Number of domains with at least one interval.
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

    /// Remove an exact `(interval, payload)` entry from a domain. Empty domains are
    /// dropped so that `domain_count` reflects live domains only.
    pub fn remove(&mut self, domain: &str, interval: Interval, payload: u64) -> bool {
        let Some(tree) = self.domains.get_mut(domain) else { return false };
        let removed = tree.remove(interval, payload);
        if tree.is_empty() {
            self.domains.remove(domain);
        }
        removed
    }

    /// Entries overlapping `query` within one domain.
    pub fn overlapping(&self, domain: &str, query: Interval) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.overlapping(query)).unwrap_or_default()
    }

    /// Entries containing point `p` within one domain.
    pub fn stabbing(&self, domain: &str, p: u64) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.stabbing(p)).unwrap_or_default()
    }

    /// Entries fully contained in `query` within one domain.
    pub fn contained_in(&self, domain: &str, query: Interval) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.contained_in(query)).unwrap_or_default()
    }

    /// The `next` substructure after `after` within one domain.
    pub fn next_after(&self, domain: &str, after: Interval) -> Option<Entry> {
        self.domains.get(domain).and_then(|t| t.next_after(after))
    }

    /// All entries of a domain in ascending order.
    pub fn entries(&self, domain: &str) -> Vec<Entry> {
        self.domains.get(domain).map(|t| t.entries()).unwrap_or_default()
    }

    /// The registered domain names, sorted.
    pub fn domains(&self) -> Vec<&str> {
        self.domains.keys().map(|name| &**name).collect()
    }

    /// Whether a domain exists.
    pub fn has_domain(&self, domain: &str) -> bool {
        self.domains.contains_key(domain)
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
        assert_eq!(d.domains(), vec!["chr1", "chr2"]);
        assert!(d.has_domain("chr1"));
        assert!(!d.has_domain("chrX"));
    }

    #[test]
    fn queries_are_domain_scoped() {
        let d = sample();
        assert_eq!(d.overlapping("chr1", Interval::new(60, 70)).len(), 2);
        assert_eq!(d.overlapping("chr2", Interval::new(60, 70)).len(), 1);
        assert_eq!(d.overlapping("chrX", Interval::new(60, 70)).len(), 0);
        assert_eq!(d.stabbing("chr1", 120).len(), 1);
        assert_eq!(d.contained_in("chr1", Interval::new(0, 120)).len(), 1);
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
    fn remove_drops_empty_domains() {
        let mut d = sample();
        assert!(d.remove("chr2", Interval::new(0, 100), 3));
        assert_eq!(d.domain_count(), 1);
        assert!(!d.has_domain("chr2"));
        assert!(!d.remove("chr2", Interval::new(0, 100), 3));
        assert!(!d.remove("chr1", Interval::new(0, 100), 999));
    }

    #[test]
    fn entries_listing() {
        let d = sample();
        let e = d.entries("chr1");
        assert_eq!(e.len(), 2);
        assert!(d.entries("nope").is_empty());
    }
}
