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
//! chunk holding the slot — and a slot shares its document and lowered text, so that
//! copy allocates once.  The two inverted indexes are keyed by vocabulary, not by
//! document, so they stay maps — [`BucketMap`]s under `Arc<str>` keys, so cloning one
//! allocates nothing and a write copies the bucket of each key it touches — and their
//! posting lists are ascending `ChunkedVec`s, which clone without allocating.
//! Document ids only grow, so indexing a new document appends to the postings of its
//! tokens and element names — one tail chunk each; `update` and `remove`, which edit
//! a posting in the middle, rebuild that one posting.

use std::sync::Arc;

use chunked::{BucketMap, ChunkedVec};

use crate::model::{keyword_tokens, Document, Element, XmlNode};
use crate::path::PathExpr;

/// Identifier of a stored annotation document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

/// One stored document with the lowercased full text phrase search probes; both are
/// immutable until the document is replaced, so both are shared.
#[derive(Debug, Clone)]
struct DocSlot {
    doc: Arc<Document>,
    /// Lowercased full text, computed once on insert / update.  Phrase search
    /// verifies keyword-index candidates by substring probe; without this cache
    /// every probe re-walks the document tree and re-lowercases its text — the
    /// dominant allocation cost of the seed-content phase on phrase-heavy query
    /// mixes.
    lowered_text: Arc<str>,
}

/// A posting list: the ids of the documents containing one token or element name,
/// strictly ascending.
type Postings = ChunkedVec<DocId>;

/// An inverted index: token or element name → postings.  Keys and values are both
/// `Arc`s, in shared buckets: cloning the index allocates nothing, and a write copies
/// the buckets of the keys it touches — no string and no posting.
type PostingIndex = BucketMap<Arc<str>, Postings>;

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
        let keywords = &mut self.keyword_index;
        let lowered_text = lowercase(&doc.root, |keyword| add_posting(keywords, keyword, id));
        each_element(&doc.root, &mut |name| add_posting(&mut self.element_index, name, id));
        DocSlot { lowered_text: Arc::from(lowered_text), doc: Arc::new(doc) }
    }

    /// Remove a document; returns it if it existed.
    pub fn remove(&mut self, id: DocId) -> Option<Document> {
        let DocSlot { doc, .. } = self.slot(id)?.take()?;
        self.live -= 1;
        let keywords = &mut self.keyword_index;
        lowercase(&doc.root, |keyword| remove_posting(keywords, keyword, id));
        each_element(&doc.root, &mut |name| remove_posting(&mut self.element_index, name, id));
        Some(Arc::unwrap_or_clone(doc))
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
        self.live_slot(id).map(|slot| &*slot.doc)
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
        self.keyword_index.get(keyword.to_lowercase().as_str())
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
    /// The keyword index narrows the candidates first; documents are then verified,
    /// unless the postings already decide the phrase.
    pub fn containing_phrase(&self, phrase: &str) -> Vec<DocId> {
        let lowered = phrase.to_lowercase();
        let tokens: Vec<&str> = crate::keyword_tokens(&lowered).collect();
        let candidates =
            if tokens.is_empty() { self.ids() } else { self.with_all_keywords(&tokens) };
        if postings_decide(&lowered, &tokens) {
            return candidates;
        }
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
    pub(crate) fn doc_has_keyword(&self, id: DocId, keyword: &str) -> bool {
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
        postings_decide(&lowered, &tokens) || self.text_contains(id, &lowered)
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

/// The one tokenizer `index` and `remove` share.  Every text node of `root` is
/// lowercased on its own — ASCII in place, anything else through `str::to_lowercase`,
/// as [`Document::keywords`] lowercases it — into one buffer, and each of the node's
/// keyword tokens is handed to `token` as a slice of that buffer the moment the node
/// is cut.  So the tokens are exactly `Document::keywords()`'s (cut per node, so
/// adjacent nodes never merge); one the document repeats is handed over again, and
/// posting a document twice is a no-op.  Returns the document's lowercased full
/// text, `deep_text().to_lowercase()`.
fn lowercase(root: &Element, mut token: impl FnMut(&str)) -> String {
    /// Append every text node under `element`; whether all of them were ASCII.
    fn walk(element: &Element, text: &mut String, token: &mut impl FnMut(&str)) -> bool {
        let mut ascii = true;
        for child in &element.children {
            match child {
                XmlNode::Text(node) => {
                    let start = text.len();
                    if node.is_ascii() {
                        text.push_str(node);
                        text[start..].make_ascii_lowercase();
                    } else {
                        ascii = false;
                        text.push_str(&node.to_lowercase());
                    }
                    keyword_tokens(&text[start..]).for_each(&mut *token);
                }
                XmlNode::Element(e) => ascii &= walk(e, text, token),
                XmlNode::Comment(_) => {}
            }
        }
        ascii
    }
    fn text_len(element: &Element) -> usize {
        let node = |child: &XmlNode| match child {
            XmlNode::Text(t) => t.len(),
            XmlNode::Element(e) => text_len(e),
            XmlNode::Comment(_) => 0,
        };
        element.children.iter().map(node).sum()
    }
    let mut text = String::with_capacity(text_len(root));
    if walk(root, &mut text, &mut token) {
        text
    } else {
        // Lowercasing node by node can differ from lowercasing the whole: a final
        // `Σ` depends on what follows it.
        root.deep_text().to_lowercase()
    }
}

/// Whether a document in the postings of every token of `lowered` (a lowercased
/// phrase, `tokens` its keyword tokens) must contain it: true when the phrase is ASCII
/// and exactly its one token.  A document's postings hold the tokens of its text
/// nodes, each node lowercased on its own; an ASCII token is the same run of bytes in
/// the lowercasing of the whole text, since only a final `Σ` lowercases by what
/// surrounds it — so the substring probe could only confirm it.
fn postings_decide(lowered: &str, tokens: &[&str]) -> bool {
    lowered.is_ascii() && tokens == [lowered]
}

/// Visit the name of every element of the tree, root first — what
/// [`Element::descendants`] lists, without collecting it.
fn each_element<'a>(element: &'a Element, visit: &mut impl FnMut(&'a str)) {
    visit(&element.name);
    for child in element.child_elements() {
        each_element(child, visit);
    }
}

/// Add `id` to the postings of `key` (a no-op when already there) — one hash probe
/// when the key is indexed already.  A new document's id exceeds every indexed one,
/// so the common case appends — copying one tail chunk iff a clone of the store
/// still shares it.
fn add_posting(index: &mut PostingIndex, key: &str, id: DocId) {
    let Some(postings) = index.get_mut(key) else {
        index.insert(Arc::from(key), std::iter::once(id).collect());
        return;
    };
    if postings.last().is_none_or(|&last| last < id) {
        postings.push(id);
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
    *postings = ids.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dublin::DublinCore;
    use crate::parse::parse_document;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// Build a tree from a flat program of `(op, text)` steps: open an element, close
    /// one, add a text node (drawn, or one of a few fixed case-mapping traps), or a
    /// comment.
    fn tree(steps: Vec<(u8, String)>) -> Document {
        const NAMES: [&str; 4] = ["dc:title", "note", "em", "tags"];
        const TRAPS: [&str; 7] = ["ΑΣ", "ΣΑΣ. x", "ὈΔΥΣΣΕΎΣ", "Straße", "İstanbul", "", "a-b_c.d"];
        let mut stack = vec![Element::new("annotation")];
        for (op, text) in steps {
            let node = match op % 6 {
                0 => {
                    stack.push(Element::new(NAMES[text.len() % NAMES.len()]));
                    continue;
                }
                1 if stack.len() > 1 => XmlNode::Element(stack.pop().expect("more than the root")),
                1..=3 => XmlNode::Text(text),
                4 => XmlNode::Text(TRAPS[text.len() % TRAPS.len()].into()),
                _ => XmlNode::Comment(text),
            };
            stack.last_mut().expect("the root is never popped").children.push(node);
        }
        while stack.len() > 1 {
            let done = stack.pop().expect("more than the root");
            stack.last_mut().expect("the root").children.push(XmlNode::Element(done));
        }
        Document::new(stack.pop().expect("the root"))
    }

    /// The store's indexes and cached text, against their definitions over its live
    /// documents: `Document::keywords`, the names `descendants` lists, and
    /// `deep_text().to_lowercase()`.
    fn assert_definitions(s: &ContentStore) {
        let (mut keywords, mut elements) = (BTreeMap::new(), BTreeMap::new());
        for id in s.ids() {
            let slot = s.live_slot(id).expect("a live id");
            for keyword in slot.doc.keywords() {
                keywords.entry(keyword).or_insert_with(Vec::new).push(id);
            }
            let mut names: Vec<String> =
                slot.doc.root.descendants().iter().map(|e| e.name.to_string()).collect();
            names.sort();
            names.dedup();
            for name in names {
                elements.entry(name).or_insert_with(Vec::new).push(id);
            }
            assert_eq!(*slot.lowered_text, slot.doc.root.deep_text().to_lowercase());
        }
        let postings = |index: &PostingIndex| -> BTreeMap<String, Vec<DocId>> {
            index
                .iter()
                .map(|(key, ids)| (key.to_string(), ids.iter().copied().collect()))
                .collect()
        };
        assert_eq!(postings(&s.keyword_index), keywords);
        assert_eq!(postings(&s.element_index), elements);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_indexes_equal_their_definitions_after_insert_update_and_remove(
            history in prop::collection::vec(
                (0u8..3, 0usize..64, prop::collection::vec(
                    (any::<u8>(), "[a-zA-Z0-9 .,;!_ΣσςßİÄé-]{0,12}"),
                    0..24,
                )),
                1..12,
            ),
        ) {
            let mut s = ContentStore::new();
            for (op, target, steps) in history {
                let doc = tree(steps);
                let at = DocId((target % (s.slots.len() + 1)) as u64);
                match op {
                    0 => {
                        s.insert(doc);
                    }
                    1 => {
                        s.update(at, doc);
                    }
                    _ => {
                        s.remove(at);
                    }
                }
                assert_definitions(&s);
            }
        }
    }
}
