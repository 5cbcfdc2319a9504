//! The annotation-content collection store.
//!
//! "The collection of all annotations constitutes a database of XML documents" — this
//! module is that database.  A document is an annotation's own Dublin Core record —
//! one shared block, the same allocation the annotation holds — read through the
//! fixed layout of [`crate::dublin`].  Documents are stored by dense id with two
//! inverted indexes:
//!
//! * a **keyword index** over every text token in a document (supports the substring /
//!   keyword conditions of queries such as *annotations containing "protein TP53"*), and
//! * an **element-path index** mapping `element-name → documents containing it`, which
//!   prunes path-expression evaluation across the collection.
//!
//! Phrase search verifies keyword-index candidates by a substring probe of the
//! record's [lowered text](DublinCore::lowered_text), which the record carries: its
//! text itself when that is lowercase ASCII, otherwise a lowered copy in the same block.
//!
//! `ContentStore::clone` is shallow, and an insert into a clone copies only what it
//! touches.  The documents (ids are dense and allocated monotonically) are slots of
//! a [`ChunkedVec`] — an insert copies the tail chunk — and a slot is its record's
//! block pointer, so that copy allocates once.  The two inverted indexes are keyed
//! by vocabulary, not by document, so they stay maps — [`BucketMap`]s under `Arc<str>`
//! keys, so cloning one allocates nothing and a write copies the bucket of each key it
//! touches — and their posting lists are ascending `ChunkedVec`s, which clone without
//! allocating.  Documents are never replaced or removed, and a new one's id exceeds
//! every indexed one, so indexing it appends to the postings of its tokens and element
//! names — one tail chunk each.

use std::sync::Arc;

use chunked::{BucketMap, ChunkedVec};

use crate::dublin::DublinCore;
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
    records: ChunkedVec<DublinCore>,
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
        self.records.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Insert a record as the next document, indexing it, and return its id.
    pub fn insert(&mut self, record: DublinCore) -> DocId {
        let id = DocId(self.records.len() as u64);
        let keywords = &mut self.keyword_index;
        each_keyword(&record, |keyword| add_posting(keywords, keyword, id));
        record.each_node_name(|name| add_posting(&mut self.element_index, name, id));
        self.records.push(record);
        id
    }

    /// The record stored as document `id`.
    pub fn record(&self, id: DocId) -> Option<&DublinCore> {
        self.records.get(id.0 as usize)
    }

    /// All stored document ids in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        (0..self.records.len() as u64).map(DocId).collect()
    }

    /// Documents whose text contains the keyword (single lowercase token, exact match
    /// against the keyword index).
    pub fn with_keyword(&self, keyword: &str) -> Vec<DocId> {
        self.keyword_postings(keyword)
            .map(|postings| postings.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The postings of a keyword (matched case-insensitively), if any document has it.
    fn keyword_postings(&self, keyword: &str) -> Option<&Postings> {
        self.keyword_index.get(keyword.to_lowercase().as_str())
    }

    /// Documents containing **all** the given keywords.
    pub fn with_all_keywords(&self, keywords: &[&str]) -> Vec<DocId> {
        self.keywords_probe(keywords).matching()
    }

    /// Documents whose full text contains `phrase` as a (case-insensitive) substring.
    /// The keyword index narrows the candidates first; documents are then verified,
    /// unless the postings already decide the phrase.
    pub fn containing_phrase(&self, phrase: &str) -> Vec<DocId> {
        self.phrase_probe(phrase).matching()
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

    /// The probe of a phrase filter, resolved once: a document matches when its full
    /// text contains `phrase` as a case-insensitive substring — it is in the postings
    /// of every token of the lowered phrase and, unless those decide it, its lowered
    /// text contains the lowered phrase.
    pub fn phrase_probe(&self, phrase: &str) -> ContentProbe<'_> {
        let lowered = phrase.to_lowercase();
        let tokens: Vec<&str> = keyword_tokens(&lowered).collect();
        let postings = tokens.iter().map(|&token| self.keyword_index.get(token)).collect();
        let decided = postings_decide(&lowered, &tokens);
        drop(tokens);
        ContentProbe { store: self, postings, phrase: (!decided).then_some(lowered) }
    }

    /// The probe of a keyword filter, resolved once: a document matches when it
    /// contains **all** the keywords.
    pub fn keywords_probe(&self, keywords: &[impl AsRef<str>]) -> ContentProbe<'_> {
        let postings = keywords.iter().map(|k| self.keyword_postings(k.as_ref())).collect();
        ContentProbe { store: self, postings, phrase: None }
    }

    /// Whether document `id`'s lowered full text contains `lowered`.
    fn text_contains(&self, id: DocId, lowered: &str) -> bool {
        self.record(id).is_some_and(|record| record.lowered_text().contains(lowered))
    }

    /// Whether document `id` matches a path expression.
    pub fn doc_matches(&self, id: DocId, expr: &PathExpr) -> bool {
        self.record(id).is_some_and(|record| expr.matches(record))
    }
}

/// A phrase or keyword filter resolved against a store once — the filter lowered and
/// tokenized, each token's postings found — so verifying a candidate is binary
/// searches and at most one substring probe, and allocates nothing.
#[derive(Debug)]
pub struct ContentProbe<'s> {
    store: &'s ContentStore,
    /// Each token's postings; `None` when some token is in no document.
    postings: Option<Vec<&'s Postings>>,
    /// The lowered phrase a document's lowered text must contain, unless the postings
    /// decide it.
    phrase: Option<String>,
}

impl ContentProbe<'_> {
    /// Whether document `id` satisfies the filter.
    pub fn matches(&self, id: DocId) -> bool {
        self.matches_beside(id, None)
    }

    /// Every matching document, ascending: the shortest token posting, each of its
    /// documents verified against the other postings and the phrase — or, when the
    /// filter has no token, every document verified.
    fn matching(&self) -> Vec<DocId> {
        let Some(postings) = &self.postings else { return Vec::new() };
        match (0..postings.len()).min_by_key(|&at| postings[at].len()) {
            Some(at) => {
                let candidates = postings[at].iter().copied();
                candidates.filter(|&id| self.matches_beside(id, Some(at))).collect()
            }
            None => self.store.ids().into_iter().filter(|&id| self.matches(id)).collect(),
        }
    }

    /// [`matches`](Self::matches) for a document already known to be in the
    /// postings of token `known`.
    fn matches_beside(&self, id: DocId, known: Option<usize>) -> bool {
        let Some(postings) = &self.postings else { return false };
        let in_postings =
            |(at, p): (usize, &&Postings)| Some(at) == known || p.binary_search(&id).is_ok();
        postings.iter().enumerate().all(in_postings)
            && self.phrase.as_deref().is_none_or(|phrase| self.store.text_contains(id, phrase))
    }
}

/// Hand each keyword token of `record` to `token`: each text node (every field value,
/// then every tag value) lowercased on its own and split, so adjacent nodes never
/// merge.  An ASCII record's lowered text is its text lowered byte for byte, so a
/// node's tokens are read from the lowered text at the node's offsets, allocating
/// nothing; any other record lowers each node on its own, since lowering the whole
/// can differ (a final `Σ` depends on what follows it).  A token the record repeats is
/// handed over again, and posting a document twice is a no-op.
fn each_keyword(record: &DublinCore, mut token: impl FnMut(&str)) {
    let (text, lowered) = (record.text(), record.lowered_text());
    let ascii = text.is_ascii();
    let mut start = 0;
    for entry in record.entries() {
        let value = entry.value();
        match lowered.get(start..start + value.len()) {
            Some(node) if ascii => keyword_tokens(node).for_each(&mut token),
            _ => keyword_tokens(&value.to_lowercase()).for_each(&mut token),
        }
        start += value.len();
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
        let mut insert = |record: DublinCore| s.insert(record);
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
        let record = DublinCore::new().title("shared");
        let d = s.insert(record.clone());
        assert!(s.record(d).unwrap().shares_block(&record));
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
        let probe = s.phrase_probe("protein tp53");
        assert!(probe.matches(a));
        assert!(!probe.matches(DocId(9)));
        assert!(!s.phrase_probe("TP53 protein").matches(a));
        assert!(s.phrase_probe("tp53").matches(a));
        assert!(!s.phrase_probe("absent").matches(a));
        assert!(s.keywords_probe(&["Protein", "tp53"]).matches(a));
        assert!(!s.keywords_probe(&["protein", "protease"]).matches(a));
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
            let values: Vec<&str> = record.entries().map(|e| e.value()).collect();
            let mut words: Vec<String> = values
                .iter()
                .flat_map(|v| {
                    keyword_tokens(&v.to_lowercase()).map(str::to_owned).collect::<Vec<_>>()
                })
                .collect();
            let mut names = vec!["annotation".to_owned()];
            names.extend(record.fields().map(|(field, _)| format!("dc:{field}")));
            if record.user_tags().len() > 0 {
                names.push("tags".to_owned());
            }
            names.extend(record.user_tags().map(|(tag, _)| tag.to_owned()));
            for (index, keys) in [(&mut keywords, &mut words), (&mut elements, &mut names)] {
                keys.sort();
                keys.dedup();
                for key in keys.drain(..) {
                    index.entry(key).or_insert_with(Vec::new).push(id);
                }
            }
            assert_eq!(record.lowered_text(), values.concat().to_lowercase());
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
                s.insert(record(entries));
                assert_definitions(&s);
            }
        }
    }
}
