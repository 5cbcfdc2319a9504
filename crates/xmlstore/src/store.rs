//! The annotation-content collection store.
//!
//! "The collection of all annotations constitutes a database of XML documents" — this
//! module is that database.  A document is an annotation's own Dublin Core record,
//! shared with the annotation (`Arc<DublinCore>`), read through the fixed layout of
//! [`crate::dublin`].  Documents are stored by dense id with two inverted indexes:
//!
//! * a **keyword index** over every text token in a document (supports the substring /
//!   keyword conditions of queries such as *annotations containing "protein TP53"*), and
//! * an **element-path index** mapping `element-name → documents containing it`, which
//!   prunes path-expression evaluation across the collection.
//!
//! `ContentStore::clone` is shallow, and an insert into a clone copies only what it
//! touches.  The documents (ids are dense and allocated monotonically) are slots of
//! a [`ChunkedVec`] — an insert copies the tail chunk — and a slot shares its record
//! and lowered text, so that copy allocates once.  The two inverted indexes are keyed
//! by vocabulary, not by document, so they stay maps — [`BucketMap`]s under `Arc<str>`
//! keys, so cloning one allocates nothing and a write copies the bucket of each key it
//! touches — and their posting lists are ascending `ChunkedVec`s, which clone without
//! allocating.  Documents are never replaced or removed, and a new one's id exceeds
//! every indexed one, so indexing it appends to the postings of its tokens and element
//! names — one tail chunk each.

use std::sync::Arc;

use chunked::{BucketMap, ChunkedVec};

use crate::dublin::{DublinCore, Node};
use crate::path::PathExpr;

/// Split text into the tokens the keyword index stores: maximal runs of alphanumerics
/// plus `.` `_` `-`.  Every consumer of the keyword index (document indexing, phrase
/// search, per-document probes, the query planner's document-frequency estimates) must
/// tokenize through this one function so their notions of "keyword" can never drift
/// apart.  Lowercasing is the caller's concern.
pub fn keyword_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric() && c != '.' && c != '_' && c != '-')
        .filter(|t| !t.is_empty())
}

/// Identifier of a stored annotation document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

/// One stored document with the lowercased full text phrase search probes; both are
/// immutable, so both are shared.
#[derive(Debug, Clone)]
struct DocSlot {
    record: Arc<DublinCore>,
    /// Lowercased full text, computed once on insert.  Phrase search verifies
    /// keyword-index candidates by substring probe; without this cache every probe
    /// re-collects the record's text and re-lowercases it — the dominant allocation
    /// cost of the seed-content phase on phrase-heavy query mixes.
    lowered_text: Arc<str>,
}

/// A posting list: the ids of the documents containing one token or element name,
/// strictly ascending.
type Postings = ChunkedVec<DocId>;

/// An inverted index: token or element name → postings.  Keys and values are both
/// `Arc`s, in shared buckets: cloning the index allocates nothing, and a write copies
/// the buckets of the keys it touches — no string and no posting.
type PostingIndex = BucketMap<Arc<str>, Postings>;

/// The annotation document collection with its inverted indexes.
#[derive(Debug, Clone, Default)]
pub struct ContentStore {
    /// Indexed by [`DocId`].
    slots: ChunkedVec<DocSlot>,
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
        self.slots.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Insert a record as the next document, indexing it, and return its id.
    pub fn insert(&mut self, record: Arc<DublinCore>) -> DocId {
        let id = DocId(self.slots.len() as u64);
        let keywords = &mut self.keyword_index;
        let lowered_text = lowercase(&record, |keyword| add_posting(keywords, keyword, id));
        record.each_node(Node::Root, &mut |node| {
            add_posting(&mut self.element_index, &record.node_name(node), id);
        });
        self.slots.push(DocSlot { record, lowered_text: Arc::from(lowered_text) });
        id
    }

    /// The record stored as document `id`.
    pub fn record(&self, id: DocId) -> Option<&Arc<DublinCore>> {
        self.slots.get(id.0 as usize).map(|slot| &slot.record)
    }

    /// All stored document ids in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        (0..self.slots.len() as u64).map(DocId).collect()
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
        let tokens: Vec<&str> = keyword_tokens(&lowered).collect();
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

    // --- membership probes and document frequencies ---
    //
    // The pipelined query executor verifies *candidate* documents against later
    // subqueries instead of recomputing full matching sets, and the planner estimates
    // selectivity from document frequencies. Both need per-document probes that cost
    // O(log n) index lookups, not collection scans.

    /// The document frequency of a keyword: how many documents contain the token.
    pub fn keyword_df(&self, keyword: &str) -> usize {
        self.keyword_postings(keyword).map_or(0, ChunkedVec::len)
    }

    /// The document frequency of an element name: how many documents contain it.
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
        let tokens: Vec<&str> = keyword_tokens(&lowered).collect();
        if !tokens.iter().all(|t| self.doc_has_keyword(id, t)) {
            return false;
        }
        postings_decide(&lowered, &tokens) || self.text_contains(id, &lowered)
    }

    /// Whether document `id`'s lowercased full text contains `lowered`.
    fn text_contains(&self, id: DocId, lowered: &str) -> bool {
        self.slots.get(id.0 as usize).is_some_and(|slot| slot.lowered_text.contains(lowered))
    }

    /// Whether document `id` matches a path expression.
    pub fn doc_matches(&self, id: DocId, expr: &PathExpr) -> bool {
        self.record(id).is_some_and(|record| expr.matches(record))
    }
}

/// The tokenizer of [`ContentStore::insert`].  The record's text nodes — each node's
/// direct text, in document order: every field value, then every tag value — are
/// lowercased one by one (ASCII in place, anything else through `str::to_lowercase`)
/// into one buffer, and each node's keyword tokens are handed to `token` as slices of
/// that buffer the moment the node is cut, so adjacent nodes never merge.  A token the
/// record repeats is handed over again, and posting a document twice is a no-op.
/// Returns the record's lowercased full text: its text nodes joined, then lowercased.
fn lowercase(record: &DublinCore, mut token: impl FnMut(&str)) -> String {
    let each_text = |visit: &mut dyn FnMut(&str)| {
        record.each_node(Node::Root, &mut |node| visit(record.node_text(node)));
    };
    let mut len = 0;
    each_text(&mut |node| len += node.len());
    let mut text = String::with_capacity(len);
    let mut ascii = true;
    each_text(&mut |node| {
        let start = text.len();
        if node.is_ascii() {
            text.push_str(node);
            text[start..].make_ascii_lowercase();
        } else {
            ascii = false;
            text.push_str(&node.to_lowercase());
        }
        keyword_tokens(&text[start..]).for_each(&mut token);
    });
    if ascii {
        return text;
    }
    // Lowercasing node by node can differ from lowercasing the whole: a final `Σ`
    // depends on what follows it.
    text.clear();
    each_text(&mut |node| text.push_str(node));
    text.to_lowercase()
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

/// Add `id` to the postings of `key` (a no-op when already there) — one hash probe
/// when the key is indexed already.  A new document's id exceeds every indexed one, so
/// it appends — copying one tail chunk iff a clone of the store still shares it.
fn add_posting(index: &mut PostingIndex, key: &str, id: DocId) {
    let Some(postings) = index.get_mut(key) else {
        index.insert(Arc::from(key), std::iter::once(id).collect());
        return;
    };
    if postings.last() != Some(&id) {
        debug_assert!(postings.last().is_none_or(|&last| last < id), "document ids only grow");
        postings.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn store() -> (ContentStore, DocId, DocId, DocId) {
        let mut s = ContentStore::new();
        let mut insert = |record: DublinCore| s.insert(Arc::new(record));
        let a = insert(
            DublinCore::new()
                .title("TP53 expression in cerebellum")
                .description("strong staining for protein TP53 in the Deep Cerebellar nuclei")
                .creator("martone"),
        );
        let b = insert(
            DublinCore::new()
                .title("protease motif")
                .description("protease cleavage site found in segment 4")
                .creator("gupta"),
        );
        let c = insert(DublinCore::new().user_tag("note", "routine follow-up"));
        (s, a, b, c)
    }

    #[test]
    fn an_insert_keeps_the_record_it_is_given() {
        let (mut s, a, b, c) = store();
        assert_eq!((s.len(), s.ids()), (3, vec![a, b, c]));
        let record = Arc::new(DublinCore::new().title("shared"));
        let d = s.insert(Arc::clone(&record));
        assert!(Arc::ptr_eq(s.record(d).unwrap(), &record));
        assert!(s.record(DocId(4)).is_none());
        assert!(!s.is_empty());
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
        assert!(s.doc_contains_phrase(a, "protein tp53"));
        assert!(!s.doc_contains_phrase(DocId(9), "protein tp53"));
    }

    #[test]
    fn element_index() {
        let (s, a, b, c) = store();
        assert_eq!(s.with_element("note"), vec![c]);
        assert_eq!(s.with_element("tags"), vec![c]);
        assert_eq!(s.with_element("dc:title"), vec![a, b]);
        assert_eq!(s.with_element("annotation"), vec![a, b, c]);
        assert!(s.with_element("missing").is_empty());
    }

    #[test]
    fn select_by_path_expression() {
        let (s, a, b, c) = store();
        let select = |path: &str| s.select(&PathExpr::parse(path).unwrap());
        assert_eq!(select("//dc:description[contains(text(), 'protease')]"), vec![b]);
        assert_eq!(select("//note[contains(text(), 'routine')]"), vec![c]);
        assert!(select("//note[@priority='low']").is_empty());
        assert_eq!(select("//dc:creator"), vec![a, b]);
        assert_eq!(select("/*"), vec![a, b, c]);
    }

    /// A record from a flat program of `(kind, name, text)` entries: a field or a user
    /// tag, named from a few names that include unknown fields and tags named like
    /// layout elements, with drawn text or one of a few fixed case-mapping traps.
    fn record(entries: Vec<(u8, usize, String)>) -> DublinCore {
        const FIELDS: [&str; 4] = ["title", "description", "x-local", "subject"];
        const TAGS: [&str; 4] = ["lab", "tags", "dc:title", "annotation"];
        const TRAPS: [&str; 7] = ["ΑΣ", "ΣΑΣ. x", "ὈΔΥΣΣΕΎΣ", "Straße", "İstanbul", "", "a-b_c.d"];
        let mut dc = DublinCore::new();
        for (kind, name, text) in entries {
            let text = if kind % 4 == 3 { TRAPS[name % TRAPS.len()].to_owned() } else { text };
            dc = match kind % 2 {
                0 => dc.field(FIELDS[name % FIELDS.len()], text),
                _ => dc.user_tag(TAGS[name % TAGS.len()], text),
            };
        }
        dc
    }

    /// The store's indexes and cached text, against their definitions over its
    /// records: the lowercased tokens of each value on its own, the element names of
    /// the layout, and the values joined, then lowercased.
    fn assert_definitions(s: &ContentStore) {
        let (mut keywords, mut elements) = (BTreeMap::new(), BTreeMap::new());
        for id in s.ids() {
            let record = s.record(id).expect("a stored id");
            let values: Vec<&str> =
                record.fields.iter().chain(&record.user_tags).map(|(_, v)| v.as_str()).collect();
            let mut words: Vec<String> = values
                .iter()
                .flat_map(|v| {
                    keyword_tokens(&v.to_lowercase()).map(str::to_owned).collect::<Vec<_>>()
                })
                .collect();
            let mut names = vec!["annotation".to_owned()];
            names.extend(record.fields.iter().map(|(field, _)| format!("dc:{field}")));
            if !record.user_tags.is_empty() {
                names.push("tags".to_owned());
            }
            names.extend(record.user_tags.iter().map(|(tag, _)| tag.clone()));
            for (index, keys) in [(&mut keywords, &mut words), (&mut elements, &mut names)] {
                keys.sort();
                keys.dedup();
                for key in keys.drain(..) {
                    index.entry(key).or_insert_with(Vec::new).push(id);
                }
            }
            let slot = s.slots.get(id.0 as usize).expect("a stored id");
            assert_eq!(*slot.lowered_text, values.concat().to_lowercase());
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
        fn the_indexes_equal_their_definitions_after_every_insert(
            history in prop::collection::vec(
                prop::collection::vec(
                    (any::<u8>(), 0usize..64, "[a-zA-Z0-9 .,;!_ΣσςßİÄé-]{0,12}"),
                    0..12,
                ),
                1..12,
            ),
        ) {
            let mut s = ContentStore::new();
            for entries in history {
                s.insert(Arc::new(record(entries)));
                assert_definitions(&s);
            }
        }
    }
}
