//! Property tests: serialize → parse must round-trip arbitrary element trees, the
//! keyword index must agree with a direct text scan, and a clone of the store is
//! isolated from every later insert / update / remove on the original.

use proptest::prelude::*;
use xmlstore::{parse_document, ContentStore, DocId, Document, DublinCore, Element};

/// One mutation of a random history: `(kind, target, words)` — insert a document
/// whose description is `words` (indices into a ten-word vocabulary), or update /
/// remove the document `target % ids allocated so far` (a no-op once removed).
type Mutation = (u8, usize, Vec<usize>);

fn mutations(max: usize) -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec((0u8..8, 0usize..1_000, prop::collection::vec(0usize..10, 1..5)), 0..max)
}

fn apply(store: &mut ContentStore, allocated: &mut usize, history: &[Mutation]) {
    for (kind, target, words) in history {
        let text: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
        let mut content = DublinCore::new().description(text.join(" "));
        if words.len() > 2 {
            content = content.subject(format!("w{}", words[0]));
        }
        let doc = content.to_document();
        match kind {
            0..=3 => {
                assert_eq!(store.insert(doc), DocId(*allocated as u64));
                *allocated += 1;
            }
            4 | 5 if *allocated > 0 => {
                store.update(DocId((target % *allocated) as u64), doc);
            }
            6 | 7 if *allocated > 0 => {
                store.remove(DocId((target % *allocated) as u64));
            }
            _ => {}
        }
    }
}

/// Everything observable about a store whose ids range below `bound`.
fn observe(store: &ContentStore, bound: u64) -> String {
    let mut out = format!(
        "{} docs, {} keywords, ids {:?}\n",
        store.len(),
        store.keyword_count(),
        store.ids()
    );
    for id in (0..bound).map(DocId) {
        out.push_str(&format!("{id:?} {:?}\n", store.get(id).map(Document::to_xml)));
    }
    for w in 0..10 {
        let word = format!("w{w}");
        out.push_str(&format!(
            "{word}: df {} docs {:?} phrase {:?} with w0 {:?}\n",
            store.keyword_df(&word),
            store.with_keyword(&word),
            store.containing_phrase(&format!("{word} w1")),
            store.with_all_keywords(&[&word, "w0"]),
        ));
    }
    for element in ["dc:description", "dc:subject", "missing"] {
        out.push_str(&format!(
            "{element}: df {} docs {:?}\n",
            store.element_df(element),
            store.with_element(element)
        ));
    }
    out
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}(:[a-z][a-z0-9]{0,6})?"
}

fn arb_text() -> impl Strategy<Value = String> {
    // printable text including characters that require escaping
    "[ -~]{0,24}".prop_map(|s| s.replace(']', " "))
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (arb_name(), arb_text(), prop::collection::vec((arb_name(), arb_text()), 0..3))
        .prop_map(|(name, text, attrs)| {
            let mut e = Element::new(name);
            for (k, v) in attrs {
                // attribute names must be unique to round-trip deterministically
                if e.attr(&k).is_none() {
                    e.set_attr(k, v);
                }
            }
            if !text.trim().is_empty() {
                e.push_text(text);
            }
            e
        });
    if depth == 0 {
        leaf.boxed()
    } else {
        (leaf, prop::collection::vec(arb_element(depth - 1), 0..3))
            .prop_map(|(mut e, children)| {
                for c in children {
                    e.children.push(xmlstore::XmlNode::Element(c));
                }
                e
            })
            .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_roundtrip(root in arb_element(3)) {
        let doc = Document::new(root);
        let xml = doc.to_xml();
        let parsed = parse_document(&xml).expect("own output must parse");
        prop_assert_eq!(parsed, doc);
    }

    #[test]
    fn keyword_index_matches_scan(
        descriptions in prop::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,5}", 1..20),
        probe in "[a-z]{1,8}",
    ) {
        let mut store = ContentStore::new();
        let mut docs = Vec::new();
        for d in &descriptions {
            let doc = DublinCore::new().description(d.clone()).to_document();
            let id = store.insert(doc.clone());
            docs.push((id, doc));
        }
        let mut expected: Vec<_> = docs
            .iter()
            .filter(|(_, doc)| {
                doc.root
                    .deep_text()
                    .split_whitespace()
                    .any(|w| w == probe)
            })
            .map(|(id, _)| *id)
            .collect();
        let mut got = store.with_keyword(&probe);
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn a_clone_is_isolated_and_the_mutated_copy_equals_a_rebuild(
        before in mutations(200),
        after in mutations(200),
    ) {
        let bound = (before.len() + after.len()) as u64;

        let (mut store, mut allocated) = (ContentStore::new(), 0usize);
        apply(&mut store, &mut allocated, &before);
        let (held, held_allocated) = (store.clone(), allocated);
        let held_then = observe(&held, bound);

        // Mutate the original: inserts extend the tail chunks and postings, updates and
        // removes edit slots and postings the clone still shares.
        apply(&mut store, &mut allocated, &after);
        prop_assert_eq!(observe(&held, bound), held_then);

        // The mutated copy is what building the whole history from scratch gives ...
        let (mut rebuilt, mut rebuilt_allocated) = (ContentStore::new(), 0usize);
        apply(&mut rebuilt, &mut rebuilt_allocated, &before);
        apply(&mut rebuilt, &mut rebuilt_allocated, &after);
        prop_assert_eq!(observe(&store, bound), observe(&rebuilt, bound));

        // ... and the clone can itself be taken forward, independently.
        let (mut fork, mut fork_allocated) = (held, held_allocated);
        apply(&mut fork, &mut fork_allocated, &after);
        prop_assert_eq!(observe(&fork, bound), observe(&rebuilt, bound));
    }

    #[test]
    fn dublin_core_roundtrip(
        title in "[A-Za-z0-9][A-Za-z0-9 ]{0,29}",
        desc in "([A-Za-z0-9][A-Za-z0-9 .,]{0,59})?",
        subjects in prop::collection::vec("[a-z]{1,12}", 0..4),
    ) {
        let mut dc = DublinCore::new().title(title).description(desc);
        for s in subjects {
            dc = dc.subject(s);
        }
        let xml = dc.to_document().to_xml();
        let parsed = parse_document(&xml).unwrap();
        prop_assert_eq!(DublinCore::from_document(&parsed), dc);
    }
}
