//! The annotation-content collection store.
//!
//! "The collection of all annotations constitutes a database of XML documents" — this
//! module is that database.  Documents are stored by dense id with two inverted
//! indexes:
//!
//! * a **keyword index** over every text token in a document (supports the substring /
//!   keyword conditions of queries such as *annotations containing "protein TP53"*), and
//! * an **element-path index** mapping `element-name → documents containing it`, which
//!   prunes path-expression evaluation across the collection.
//!
//! `ContentStore::clone` is shallow, and a write to a clone copies only what it
//! touches.  The documents (ids are dense and allocated monotonically) are slots of
//! a [`ChunkedVec`] — an insert copies the tail chunk, an update or remove the one
//! chunk holding the slot.  The two inverted indexes are keyed by vocabulary, not by
//! document, so they stay maps — under `Arc<str>` keys, so cloning one copies no
//! string — and their posting lists are ascending `ChunkedVec`s behind `Arc`.
//! Document ids only grow, so indexing a new document appends to the postings of its
//! tokens and element names — one tail chunk each; `update` and `remove`, which edit
//! a posting in the middle, rebuild that one posting.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use chunked::ChunkedVec;

use crate::model::Document;
use crate::path::PathExpr;

/// Identifier of a stored annotation document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

/// One stored document with the lowercased full text phrase search probes.
#[derive(Debug, Clone)]
struct DocSlot {
    doc: Document,
    /// Lowercased full text, computed once on insert / update.  Phrase search
    /// verifies keyword-index candidates by substring probe; without this cache
    /// every probe re-walks the document tree and re-lowercases its text — the
    /// dominant allocation cost of the seed-content phase on phrase-heavy query
    /// mixes.
    lowered_text: String,
}

/// A posting list: the ids of the documents containing one token or element name,
/// strictly ascending.
type Postings = Arc<ChunkedVec<DocId>>;

/// An inverted index: token or element name → postings.  Keys and values are both
/// `Arc`s, so cloning the index allocates one table and bumps two counters per entry —
/// no string is copied.
type PostingIndex = HashMap<Arc<str>, Postings>;

/// The XML document collection with its inverted indexes.
#[derive(Debug, Clone, Default)]
pub struct ContentStore {
    /// Indexed by [`DocId`]; a removed document leaves `None` (ids are never reused).
    slots: ChunkedVec<Option<DocSlot>>,
    live: usize,
    keyword_index: PostingIndex,
    element_index: PostingIndex,
}

impl ContentStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ContentStore::default()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a document and return its id.
    pub fn insert(&mut self, doc: Document) -> DocId {
        let id = DocId(self.slots.len() as u64);
        let slot = self.index(id, doc);
        self.slots.push(Some(slot));
        self.live += 1;
        id
    }

    /// Add `doc` to both inverted indexes under `id` and wrap it into its slot.
    fn index(&mut self, id: DocId, doc: Document) -> DocSlot {
        for kw in doc.keywords() {
            add_posting(&mut self.keyword_index, &kw, id);
        }
        for element in doc.root.descendants() {
            add_posting(&mut self.element_index, &element.name, id);
        }
        DocSlot { lowered_text: doc.root.deep_text().to_lowercase(), doc }
    }

    /// Remove a document; returns it if it existed.
    pub fn remove(&mut self, id: DocId) -> Option<Document> {
        let DocSlot { doc, .. } = self.slot(id)?.take()?;
        self.live -= 1;
        for kw in doc.keywords() {
            remove_posting(&mut self.keyword_index, &kw, id);
        }
        for element in doc.root.descendants() {
            remove_posting(&mut self.element_index, &element.name, id);
        }
        Some(doc)
    }

    /// Mutable access to a live document's slot (`None` for unknown or removed ids,
    /// without copying anything).
    fn slot(&mut self, id: DocId) -> Option<&mut Option<DocSlot>> {
        self.live_slot(id)?;
        self.slots.get_mut(id.0 as usize)
    }

    fn live_slot(&self, id: DocId) -> Option<&DocSlot> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Fetch a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.live_slot(id).map(|slot| &slot.doc)
    }

    /// Replace a document in place (re-indexing it). Returns false when the id is
    /// unknown.
    pub fn update(&mut self, id: DocId, doc: Document) -> bool {
        if self.remove(id).is_none() {
            return false;
        }
        // re-insert under the same id
        let slot = self.index(id, doc);
        *self.slots.get_mut(id.0 as usize).expect("slot of the document just removed") = Some(slot);
        self.live += 1;
        true
    }

    /// All stored document ids in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(i, _)| DocId(i as u64))
            .collect()
    }

    /// Documents whose text contains the keyword (single lowercase token, exact match
    /// against the keyword index).
    pub fn with_keyword(&self, keyword: &str) -> Vec<DocId> {
        self.keyword_postings(keyword)
            .map(|postings| postings.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The postings of a keyword (matched case-insensitively), if any document has it.
    fn keyword_postings(&self, keyword: &str) -> Option<&ChunkedVec<DocId>> {
        self.keyword_index.get(keyword.to_lowercase().as_str()).map(Arc::as_ref)
    }

    /// Documents containing **all** the given keywords.
    pub fn with_all_keywords(&self, keywords: &[&str]) -> Vec<DocId> {
        if keywords.is_empty() {
            return self.ids();
        }
        let mut sets: Vec<&ChunkedVec<DocId>> = Vec::with_capacity(keywords.len());
        for kw in keywords {
            match self.keyword_postings(kw) {
                Some(s) => sets.push(s),
                None => return Vec::new(),
            }
        }
        // intersect starting from the smallest set
        sets.sort_by_key(|s| s.len());
        let (first, rest) = sets.split_first().expect("non-empty");
        first
            .iter()
            .copied()
            .filter(|id| rest.iter().all(|s| s.binary_search(id).is_ok()))
            .collect()
    }

    /// Documents whose full text contains `phrase` as a (case-insensitive) substring.
    /// The keyword index narrows the candidates first; documents are then verified.
    pub fn containing_phrase(&self, phrase: &str) -> Vec<DocId> {
        let lowered = phrase.to_lowercase();
        let tokens: Vec<&str> = crate::keyword_tokens(&lowered).collect();
        let candidates =
            if tokens.is_empty() { self.ids() } else { self.with_all_keywords(&tokens) };
        candidates.into_iter().filter(|&id| self.text_contains(id, &lowered)).collect()
    }

    /// Documents containing at least one element with the given name.
    pub fn with_element(&self, element_name: &str) -> Vec<DocId> {
        self.element_index
            .get(element_name)
            .map(|postings| postings.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Evaluate a path expression across the collection, returning matching document
    /// ids.  When the expression's last step names an element, the element-path index
    /// prunes the candidate set before evaluation.
    pub fn select(&self, expr: &PathExpr) -> Vec<DocId> {
        let candidates: Vec<DocId> = match expr.steps.last().map(|s| &s.name) {
            Some(crate::path::NameTest::Named(name)) => self.with_element(name),
            _ => self.ids(),
        };
        candidates.into_iter().filter(|&id| self.doc_matches(id, expr)).collect()
    }

    /// Evaluate a path expression and return `(doc, values)` for every matching
    /// document — the "XQuery fragment retrieval" operation of the query processor.
    pub fn select_values(&self, expr: &PathExpr) -> Vec<(DocId, Vec<String>)> {
        self.select(expr)
            .into_iter()
            .filter_map(|id| Some((id, expr.eval_strings(self.get(id)?))))
            .collect()
    }

    /// Number of documents matching a path expression (the XQuery `count()` of a
    /// collection query).
    pub fn count_matching(&self, expr: &PathExpr) -> usize {
        self.select(expr).len()
    }

    /// Evaluate a *union* of path expressions across the collection: documents matching
    /// any of the expressions (deduplicated, ascending id order).
    pub fn select_union(&self, exprs: &[PathExpr]) -> Vec<DocId> {
        let mut set: BTreeSet<DocId> = BTreeSet::new();
        for expr in exprs {
            set.extend(self.select(expr));
        }
        set.into_iter().collect()
    }

    /// Number of distinct indexed keywords (diagnostics).
    pub fn keyword_count(&self) -> usize {
        self.keyword_index.len()
    }

    // --- membership probes and document frequencies ---
    //
    // The pipelined query executor verifies *candidate* documents against later
    // subqueries instead of recomputing full matching sets, and the planner estimates
    // selectivity from document frequencies. Both need per-document probes that cost
    // O(log n) index lookups, not collection scans.

    /// Document frequency of a keyword: how many documents contain the token.
    pub fn keyword_df(&self, keyword: &str) -> usize {
        self.keyword_postings(keyword).map_or(0, ChunkedVec::len)
    }

    /// Document frequency of an element name: how many documents contain the element.
    pub fn element_df(&self, element_name: &str) -> usize {
        self.element_index.get(element_name).map_or(0, |postings| postings.len())
    }

    /// Whether document `id` contains the keyword (single index probe).
    pub fn doc_has_keyword(&self, id: DocId, keyword: &str) -> bool {
        self.keyword_postings(keyword).is_some_and(|postings| postings.binary_search(&id).is_ok())
    }

    /// Whether document `id` contains **all** the given keywords.
    pub fn doc_has_all_keywords(&self, id: DocId, keywords: &[&str]) -> bool {
        keywords.iter().all(|kw| self.doc_has_keyword(id, kw))
    }

    /// Whether document `id`'s full text contains `phrase` as a case-insensitive
    /// substring. Token probes against the keyword index short-circuit before the
    /// substring check, mirroring [`containing_phrase`](Self::containing_phrase).
    pub fn doc_contains_phrase(&self, id: DocId, phrase: &str) -> bool {
        let lowered = phrase.to_lowercase();
        let tokens: Vec<&str> = crate::keyword_tokens(&lowered).collect();
        if !tokens.iter().all(|t| self.doc_has_keyword(id, t)) {
            return false;
        }
        self.text_contains(id, &lowered)
    }

    /// Whether document `id`'s lowercased full text contains `lowered`.
    fn text_contains(&self, id: DocId, lowered: &str) -> bool {
        self.live_slot(id).is_some_and(|slot| slot.lowered_text.contains(lowered))
    }

    /// Whether document `id` matches a path expression.
    pub fn doc_matches(&self, id: DocId, expr: &PathExpr) -> bool {
        self.get(id).is_some_and(|doc| expr.matches(doc))
    }
}

/// Add `id` to the postings of `key` (a no-op when already there).  A new document's
/// id exceeds every indexed one, so the common case appends — copying one tail chunk
/// iff a clone of the store still shares it.
fn add_posting(index: &mut PostingIndex, key: &str, id: DocId) {
    if !index.contains_key(key) {
        index.insert(Arc::from(key), Postings::default());
    }
    let postings = index.get_mut(key).expect("inserted just above");
    if postings.last().is_none_or(|&last| last < id) {
        Arc::make_mut(postings).push(id);
    } else if let Err(at) = postings.binary_search(&id) {
        edit_posting(postings, |ids| ids.insert(at, id));
    }
}

/// Drop `id` from the postings of `key`, and the list itself once empty.
fn remove_posting(index: &mut PostingIndex, key: &str, id: DocId) {
    if let Some(postings) = index.get_mut(key) {
        if let Ok(at) = postings.binary_search(&id) {
            edit_posting(postings, |ids| {
                ids.remove(at);
            });
        }
        if postings.is_empty() {
            index.remove(key);
        }
    }
}

/// Rebuild one posting list around an edit in its middle (the `update` / `remove`
/// path; a chunked vector only appends).
fn edit_posting(postings: &mut Postings, edit: impl FnOnce(&mut Vec<DocId>)) {
    let mut ids: Vec<DocId> = postings.iter().copied().collect();
    edit(&mut ids);
    *postings = Arc::new(ids.into_iter().collect());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dublin::DublinCore;
    use crate::parse::parse_document;

    fn store() -> (ContentStore, DocId, DocId, DocId) {
        let mut s = ContentStore::new();
        let a = s.insert(
            DublinCore::new()
                .title("TP53 expression in cerebellum")
                .description("strong staining for protein TP53 in the Deep Cerebellar nuclei")
                .creator("martone")
                .to_document(),
        );
        let b = s.insert(
            DublinCore::new()
                .title("protease motif")
                .description("protease cleavage site found in segment 4")
                .creator("gupta")
                .to_document(),
        );
        let c = s.insert(
            parse_document(
                "<annotation><note priority=\"low\">routine follow-up</note></annotation>",
            )
            .unwrap(),
        );
        (s, a, b, c)
    }

    #[test]
    fn insert_get_remove() {
        let (mut s, a, b, c) = store();
        assert_eq!(s.len(), 3);
        assert!(s.get(a).is_some());
        assert!(s.remove(b).is_some());
        assert_eq!(s.len(), 2);
        assert!(s.get(b).is_none());
        assert!(s.remove(b).is_none());
        assert!(!s.is_empty());
        assert_eq!(s.ids(), vec![a, c]);
    }

    #[test]
    fn keyword_search() {
        let (s, a, b, _) = store();
        assert_eq!(s.with_keyword("tp53"), vec![a]);
        assert_eq!(s.with_keyword("TP53"), vec![a]);
        assert_eq!(s.with_keyword("protease"), vec![b]);
        assert!(s.with_keyword("nonexistent").is_empty());
        assert_eq!(s.with_all_keywords(&["protein", "tp53"]), vec![a]);
        assert!(s.with_all_keywords(&["protein", "protease"]).is_empty());
        assert_eq!(s.with_all_keywords(&[]).len(), 3);
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let (s, a, _, _) = store();
        assert_eq!(s.containing_phrase("protein TP53"), vec![a]);
        assert_eq!(s.containing_phrase("Deep Cerebellar nuclei"), vec![a]);
        assert!(s.containing_phrase("TP53 protein").is_empty());
    }

    #[test]
    fn element_index() {
        let (s, _, _, c) = store();
        assert_eq!(s.with_element("note"), vec![c]);
        assert_eq!(s.with_element("dc:title").len(), 2);
        assert!(s.with_element("missing").is_empty());
    }

    #[test]
    fn select_by_path_expression() {
        let (s, a, b, c) = store();
        let expr = PathExpr::parse("//dc:description[contains(text(), 'protease')]").unwrap();
        assert_eq!(s.select(&expr), vec![b]);
        let expr2 = PathExpr::parse("//note[@priority='low']").unwrap();
        assert_eq!(s.select(&expr2), vec![c]);
        let expr3 = PathExpr::parse("//dc:creator").unwrap();
        assert_eq!(s.select(&expr3), vec![a, b]);
    }

    #[test]
    fn select_values_returns_fragments() {
        let (s, a, _, _) = store();
        let expr = PathExpr::parse("//dc:title/text()").unwrap();
        let values = s.select_values(&expr);
        assert_eq!(values.len(), 2);
        let (id, texts) = &values[0];
        assert_eq!(*id, a);
        assert_eq!(texts[0], "TP53 expression in cerebellum");
    }

    #[test]
    fn remove_cleans_indexes() {
        let (mut s, a, _, _) = store();
        assert!(!s.with_keyword("tp53").is_empty());
        s.remove(a);
        assert!(s.with_keyword("tp53").is_empty());
        assert!(s.with_keyword("cerebellum").is_empty());
    }

    #[test]
    fn update_reindexes() {
        let (mut s, a, _, _) = store();
        let new_doc = DublinCore::new().title("replaced title about kinases").to_document();
        assert!(s.update(a, new_doc));
        assert!(s.with_keyword("tp53").is_empty());
        assert_eq!(s.with_keyword("kinases"), vec![a]);
        assert!(!s.update(DocId(999), DublinCore::new().to_document()));
    }

    #[test]
    fn phrase_cache_tracks_update_and_remove() {
        let (mut s, a, b, _) = store();
        assert_eq!(s.containing_phrase("protein TP53"), vec![a]);
        assert!(s.doc_contains_phrase(a, "protein TP53"));
        // Update replaces the cached lowered text along with the indexes.
        let new_doc =
            DublinCore::new().title("now about protein TP53 binding kinetics").to_document();
        assert!(s.update(b, new_doc));
        assert_eq!(s.containing_phrase("protein TP53"), vec![a, b]);
        assert!(s.doc_contains_phrase(b, "protein tp53 binding"));
        assert!(!s.doc_contains_phrase(b, "protease cleavage"));
        // Remove drops the cache entry: the doc stops matching any phrase.
        s.remove(a);
        assert_eq!(s.containing_phrase("protein TP53"), vec![b]);
        assert!(!s.doc_contains_phrase(a, "protein TP53"));
    }

    #[test]
    fn keyword_count_diagnostic() {
        let (s, ..) = store();
        assert!(s.keyword_count() > 10);
    }

    #[test]
    fn count_and_union() {
        let (s, a, b, _) = store();
        let creators = PathExpr::parse("//dc:creator").unwrap();
        assert_eq!(s.count_matching(&creators), 2);
        let titles = PathExpr::parse("//dc:title").unwrap();
        let notes = PathExpr::parse("//note").unwrap();
        let union = s.select_union(&[titles, notes]);
        assert_eq!(union.len(), 3); // two titled docs + one note doc
        let protease = PathExpr::parse("//dc:description[contains(text(), 'protease')]").unwrap();
        assert_eq!(s.select_union(&[protease]), vec![b]);
        let _ = a;
    }
}
