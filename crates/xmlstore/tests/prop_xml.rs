//! Property tests: a one-block record reads back what the two-vector model of the
//! same builder program holds, a path expression locates in a record's layout exactly
//! what it locates in the element tree the record's document was once built as, the
//! keyword index and phrase search agree with a direct scan of the records, and a
//! clone of the store is isolated from every later insert on the original.

mod model;
mod tree;

use model::{Model, Op};
use proptest::prelude::*;
use xmlstore::{ContentStore, DocId, DublinCore, Node, PathExpr, DC_ELEMENTS};

/// Insert, for each entry of `history`, a record whose description is the entry's
/// words (indices into a ten-word vocabulary), with a subject when it has more than two.
fn apply(store: &mut ContentStore, history: &[Vec<usize>]) {
    for words in history {
        let text: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
        let mut content = DublinCore::new().description(text.join(" "));
        if words.len() > 2 {
            content = content.subject(format!("w{}", words[0]));
        }
        let allocated = store.len() as u64;
        assert_eq!(store.insert(content), DocId(allocated));
    }
}

/// Everything observable about a store whose ids range below `bound`.
fn observe(store: &ContentStore, bound: u64) -> String {
    let mut out = format!("{} docs, ids {:?}\n", store.len(), store.ids());
    for id in (0..bound).map(DocId) {
        out.push_str(&format!("{id:?} {:?}\n", store.record(id)));
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

/// Characters phrase search must treat alike however it finds them: ASCII letters,
/// separators, and non-ASCII letters whose lowercasing is ASCII (Kelvin `K`), grows
/// (`İ`), or depends on what follows (`Σ`).
const PHRASE_ALPHABET: [char; 14] =
    ['a', 'b', 'k', 'K', '\u{212A}', 'Σ', 'σ', 'ς', 'İ', 'i', 'é', ' ', '-', '/'];

/// A string over [`PHRASE_ALPHABET`].
fn phrase_text(indices: &[usize]) -> String {
    indices.iter().map(|&i| PHRASE_ALPHABET[i % PHRASE_ALPHABET.len()]).collect()
}

/// A record's text nodes in document order: every field value, then every tag value.
fn values(record: &DublinCore) -> Vec<&str> {
    record.entries().map(|entry| entry.value()).collect()
}

/// A record's keywords: each text node lowercased on its own and split into tokens.
fn keywords(record: &DublinCore) -> Vec<String> {
    let mut words: Vec<String> = values(record)
        .iter()
        .flat_map(|v| {
            xmlstore::keyword_tokens(&v.to_lowercase()).map(str::to_owned).collect::<Vec<_>>()
        })
        .collect();
    words.sort();
    words.dedup();
    words
}

/// What phrase search means, by scan: every keyword token of the lowered phrase is a
/// keyword of the record, and its lowered full text contains the lowered phrase.
fn phrase_by_scan(record: &DublinCore, phrase: &str) -> bool {
    let lowered = phrase.to_lowercase();
    let keywords = keywords(record);
    xmlstore::keyword_tokens(&lowered).all(|t| keywords.iter().any(|k| k == t))
        && values(record).concat().to_lowercase().contains(&lowered)
}

/// A random builder program: `(kind, name, value)` calls, each a field or a user tag.
/// Field names repeat and include an unknown one; tag names include the layout's own
/// `tags` and `dc:title`; values include empty ones and case-mapping traps.
fn arb_program() -> impl Strategy<Value = Vec<Op>> {
    const FIELDS: [&str; 4] = ["title", "subject", "x-local", "description"];
    const TAGS: [&str; 4] = ["lab", "tags", "dc:title", "annotation"];
    const VALUES: [&str; 10] = ["", "a", "ab", "ba", "Σ a", "ΑΣ", "Straße", "a]b", "x y", "b"];
    prop::collection::vec((0u8..2, 0usize..4, 0usize..10), 0..7).prop_map(|calls| {
        let call = |(kind, name, value): (u8, usize, usize)| match kind {
            0 => Op::Field(FIELDS[name].to_owned(), VALUES[value].to_owned()),
            _ => Op::Tag(TAGS[name].to_owned(), VALUES[value].to_owned()),
        };
        calls.into_iter().map(call).collect()
    })
}

/// A random builder program over every Dublin Core element, unknown fields, tags named
/// like layout elements (`tags`, `dc:title`) or elements (`title`), and values drawn
/// or taken from the case-mapping traps: `Σ` (lowered by what follows), `İ` (grows),
/// `ß` (uppercases to two letters), Kelvin `K` (lowers to ASCII).
fn arb_wide_program() -> impl Strategy<Value = Vec<Op>> {
    const UNKNOWN: [&str; 4] = ["x-local", "Title", "dc:title", ""];
    const TAGS: [&str; 5] = ["tags", "dc:title", "title", "lab", "annotation"];
    const TRAPS: [&str; 8] =
        ["ΑΣ", "ΣΑΣ. x", "İstanbul", "Straße", "\u{212A}elvin", "", "TP53", "a-b"];
    let value = (any::<bool>(), 0usize..8, "[a-zA-Z0-9 .,_ΣσςßİÄé-]{0,10}")
        .prop_map(|(trap, at, drawn)| if trap { TRAPS[at].to_owned() } else { drawn });
    let call = (0u8..3, 0usize..20, value).prop_map(|(kind, name, value)| match kind {
        0 => Op::Field(DC_ELEMENTS[name % 15].to_owned(), value),
        1 => Op::Field(UNKNOWN[name % 4].to_owned(), value),
        _ => Op::Tag(TAGS[name % 5].to_owned(), value),
    });
    prop::collection::vec(call, 0..10)
}

/// Text of a random path: one to four child or `//` steps over names of the layout
/// (and one of none), each with up to two predicates of every kind, then an optional
/// terminal selector.
fn arb_path() -> impl Strategy<Value = String> {
    const NAMES: [&str; 9] = [
        "*",
        "annotation",
        "dc:title",
        "dc:subject",
        "dc:x-local",
        "tags",
        "lab",
        "dc:title",
        "none",
    ];
    const NEEDLES: [&str; 7] = ["", "a", "b", "Σ", "a]b", "x y", "ß"];
    const SELECTORS: [&str; 3] = ["", "/text()", "/@id"];
    let predicate = (0usize..9, 0usize..7, any::<bool>()).prop_map(|(kind, needle, double)| {
        let quote = if double { '"' } else { '\'' };
        let needle = format!("{quote}{}{quote}", NEEDLES[needle]);
        match kind {
            0 => format!("[{}]", 1 + needle.len() % 3),
            1 => "[last()]".to_owned(),
            2 => "[@id]".to_owned(),
            3 => format!("[@id={needle}]"),
            4 => format!("[contains(text(), {needle})]"),
            5 => format!("[contains(., {needle})]"),
            6 => format!("[starts-with(text(), {needle})]"),
            7 => format!("[ends-with(text(), {needle})]"),
            _ => format!("[contains(text(),{needle})]"),
        }
    });
    let step = (any::<bool>(), 0usize..9, prop::collection::vec(predicate, 0..3));
    (prop::collection::vec(step, 1..5), 0usize..3).prop_map(|(steps, selector)| {
        let mut path = String::new();
        for (descendant, name, predicates) in steps {
            path.push_str(if descendant { "//" } else { "/" });
            path.push_str(NAMES[name]);
            predicates.iter().for_each(|p| path.push_str(p));
        }
        path + SELECTORS[selector]
    })
}

/// A node's position in the record's document order.
fn position(record: &DublinCore, node: Node) -> usize {
    let fields = record.fields().len();
    match node {
        Node::Root => 0,
        Node::Field(i) => 1 + i,
        Node::Tags => 1 + fields,
        Node::Tag(i) => 2 + fields + i,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_path_locates_in_the_layout_what_it_locates_in_the_tree(
        program in arb_program(),
        paths in prop::collection::vec(arb_path(), 8..9),
    ) {
        let (model, record) = Model::build(&program);
        let root = tree::to_document(&model);
        let order = root.descendants();
        for path in &paths {
            let expr = PathExpr::parse(path).expect("generated paths are well formed");
            let expected: Vec<usize> = tree::eval_elements(&expr, &root)
                .iter()
                .map(|&e| order.iter().position(|&d| std::ptr::eq(d, e)).expect("a tree node"))
                .collect();
            let got: Vec<usize> =
                expr.eval(&record).into_iter().map(|node| position(&record, node)).collect();
            prop_assert_eq!(got, expected, "{} on {:?}", path, record);
            prop_assert_eq!(expr.matches(&record), !expected.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_record_reads_back_what_its_builder_program_wrote(program in arb_wide_program()) {
        let (model, record) = Model::build(&program);
        for element in DC_ELEMENTS.iter().chain(&["x-local", "Title", "dc:title", "", "tags"]) {
            prop_assert_eq!(record.get(element), model.get(element), "{}", element);
        }
        let pairs = |pairs: &[(String, String)]| -> Vec<(String, String)> { pairs.to_vec() };
        let owned = |(n, v): (&str, &str)| (n.to_owned(), v.to_owned());
        prop_assert_eq!(record.fields().map(owned).collect::<Vec<_>>(), pairs(&model.fields));
        prop_assert_eq!(record.user_tags().map(owned).collect::<Vec<_>>(), pairs(&model.user_tags));
        // The layout in document order: `//*` locates every node once.
        let nodes = PathExpr::parse("//*").expect("a path").eval(&record);
        let layout: Vec<(String, String)> = nodes
            .iter()
            .map(|&node| (record.node_name(node).into_owned(), record.node_text(node).to_owned()))
            .collect();
        prop_assert_eq!(layout, model.nodes());
        prop_assert_eq!(record.text(), model.text());
        prop_assert_eq!(record.lowered_text(), model.lowered_text());
        // Equal programs give equal records; a record equals its own entries rebuilt.
        prop_assert_eq!(&Model::build(&program).1, &record);
        let entries: Vec<_> = record.entries().collect();
        prop_assert_eq!(&DublinCore::from_entries(&entries, &mut String::new()), &record);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keyword_index_matches_scan(
        descriptions in prop::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,5}", 1..20),
        probe in "[a-z]{1,8}",
    ) {
        let mut store = ContentStore::new();
        let mut expected = Vec::new();
        for d in &descriptions {
            let id = store.insert(DublinCore::new().description(d));
            if d.split_whitespace().any(|w| w == probe) {
                expected.push(id);
            }
        }
        prop_assert_eq!(store.with_keyword(&probe), expected);
    }

    #[test]
    fn phrase_search_agrees_with_a_scan(
        docs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0usize..14, 0..10), 1..4),
            1..8,
        ),
        phrase in prop::collection::vec(0usize..14, 1..6),
    ) {
        // Each record's text nodes alternate between fields and user tags, so tokens
        // are cut at node boundaries the full text runs across.
        let mut store = ContentStore::new();
        let mut stored = Vec::new();
        for nodes in &docs {
            let mut record = DublinCore::new();
            for (n, text) in nodes.iter().enumerate() {
                record = if n % 2 == 0 {
                    record.description(phrase_text(text))
                } else {
                    record.user_tag("p", phrase_text(text))
                };
            }
            stored.push((store.insert(record.clone()), record));
        }
        // Every keyword of every record, in both cases — the single-token phrases
        // the postings decide alone when ASCII — and one arbitrary phrase.
        let mut phrases = vec![phrase_text(&phrase)];
        for (_, record) in &stored {
            for keyword in keywords(record) {
                phrases.push(keyword.to_uppercase());
                phrases.push(keyword);
            }
        }
        for phrase in &phrases {
            let expected: Vec<DocId> = stored
                .iter()
                .filter(|(_, record)| phrase_by_scan(record, phrase))
                .map(|(id, _)| *id)
                .collect();
            prop_assert_eq!(store.containing_phrase(phrase), expected.clone(), "{:?}", phrase);
            let probe = store.phrase_probe(phrase);
            for (id, _) in &stored {
                prop_assert_eq!(
                    probe.matches(*id),
                    expected.contains(id),
                    "{:?} in {:?}",
                    phrase,
                    id
                );
            }
        }
    }

    #[test]
    fn a_clone_is_isolated_and_the_grown_copy_equals_a_rebuild(
        before in prop::collection::vec(prop::collection::vec(0usize..10, 1..5), 0..100),
        after in prop::collection::vec(prop::collection::vec(0usize..10, 1..5), 0..100),
    ) {
        let bound = (before.len() + after.len()) as u64;

        let mut store = ContentStore::new();
        apply(&mut store, &before);
        let held = store.clone();
        let held_then = observe(&held, bound);

        // Grow the original: inserts extend the tail chunks and postings the clone
        // still shares.
        apply(&mut store, &after);
        prop_assert_eq!(observe(&held, bound), held_then);

        // The grown copy is what building the whole history from scratch gives ...
        let mut rebuilt = ContentStore::new();
        apply(&mut rebuilt, &before);
        apply(&mut rebuilt, &after);
        prop_assert_eq!(observe(&store, bound), observe(&rebuilt, bound));

        // ... and the clone can itself be taken forward, independently.
        let mut fork = held;
        apply(&mut fork, &after);
        prop_assert_eq!(observe(&fork, bound), observe(&rebuilt, bound));
    }
}
