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

use chunked::SmallList;

use crate::interval::Interval;
use crate::tree::{Entry, IntervalTree, Staged};

/// Entries a run stages inline: what a live commit brings, so it allocates no buffer.
const STAGED_INLINE: usize = 8;

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
        self.tree_mut(domain).insert(interval, payload);
    }

    /// Insert a run of `(domain, interval, payload)` entries: each domain's share is
    /// merged into its tree at once (see [`crate::tree`]), which leaves every tree as
    /// inserting the entries one by one, in this order, would.
    pub fn extend<'a>(&mut self, run: impl IntoIterator<Item = (&'a str, Interval, u64)>) {
        let run = run.into_iter();
        let mut staged = SmallList::<(&str, Staged), STAGED_INLINE>::new();
        staged.reserve(run.size_hint().1.unwrap_or(0));
        for (domain, interval, payload) in run {
            staged.push((domain, self.tree_mut(domain).stage(Entry { interval, payload })));
        }
        let staged = staged.as_mut_slice();
        staged.sort_unstable_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.key().cmp(&b.1.key())));
        for group in staged.chunk_by(|a, b| a.0 == b.0) {
            let tree = self.domains.get_mut(group[0].0).expect("staged into above");
            tree.merge(group.iter().map(|&(_, staged)| staged));
        }
    }

    /// The tree of `domain`, created empty on first use.
    fn tree_mut(&mut self, domain: &str) -> &mut IntervalTree {
        if !self.domains.contains_key(domain) {
            self.domains.insert(Arc::from(domain), IntervalTree::new());
        }
        self.domains.get_mut(domain).expect("inserted above")
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

    /// Every entry of a domain's tree with its priority, in pre-order: equal lists
    /// mean equal tree shapes.
    pub fn preorder(&self, domain: &str) -> Vec<(Entry, u64)> {
        self.domains.get(domain).map(IntervalTree::preorder).unwrap_or_default()
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
    fn an_extended_run_leaves_the_trees_inserts_leave() {
        let run: Vec<(&str, Interval, u64)> = (0..200u64)
            .map(|i| (["chr1", "chr2", "chr3"][(i % 3) as usize], i % 17, i))
            .map(|(domain, start, i)| (domain, Interval::new(start, start + 1 + i % 5), i))
            .collect();
        let mut one_by_one = sample();
        for &(domain, interval, payload) in &run {
            one_by_one.insert(domain, interval, payload);
        }
        let mut extended = sample();
        extended.extend(run[..1].iter().copied());
        extended.extend(run[1..].iter().copied());
        for domain in ["chr1", "chr2", "chr3"] {
            assert_eq!(extended.preorder(domain), one_by_one.preorder(domain), "{domain}");
        }
        assert_eq!(extended.len(), one_by_one.len());
    }

    #[test]
    fn entries_listing() {
        let d = sample();
        let e = d.entries("chr1");
        assert_eq!(e.len(), 2);
        assert!(d.entries("nope").is_empty());
    }
}
