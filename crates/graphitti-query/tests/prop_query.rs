//! Property tests for the query engine: determinism, plan feasibility,
//! monotonicity of filtering (adding a conjunct never grows the result), and a DSL
//! parser that answers `Ok` or `Err` for any text, never a panic.

use graphitti_core::{DataType, Graphitti, Marker};
use graphitti_query::{parse_query, Executor, Query, ReferentFilter, Target};
use proptest::prelude::*;

/// A deterministic small system of protease / non-protease interval annotations.
fn build(seed: u64, n: usize) -> Graphitti {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("seq", DataType::DnaSequence, 100_000, "chr1");
    let img = sys.register_image("img", 1000, 1000, "confocal", "cs");
    for i in 0..n {
        let protease = next() % 2 == 0;
        let comment = if protease { "protease motif here" } else { "quiet region" };
        if next() % 3 == 0 {
            let x = (next() % 900) as f64;
            let _ = sys
                .annotate()
                .comment(comment)
                .mark(img, Marker::region(x, x, x + 30.0, x + 30.0))
                .commit();
        } else {
            let start = next() % 99000;
            let _ = sys
                .annotate()
                .comment(comment)
                .mark(seq, Marker::interval(start, start + 40))
                .commit();
        }
        let _ = i;
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_is_deterministic(seed in any::<u64>(), n in 0usize..60) {
        let sys = build(seed, n);
        let q = Query::new(Target::AnnotationContents).with_phrase("protease");
        let r1 = Executor::new(&sys).run(&q);
        let r2 = Executor::new(&sys).run(&q);
        prop_assert_eq!(r1.annotations, r2.annotations);
        prop_assert_eq!(r1.objects, r2.objects);
    }

    #[test]
    fn plan_is_selectivity_ordered(seed in any::<u64>(), n in 1usize..40) {
        let sys = build(seed, n);
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("protease motif")
            .with_referent(ReferentFilter::OfType(DataType::DnaSequence));
        let plan = Executor::new(&sys).plan(&q);
        for w in plan.order.windows(2) {
            prop_assert!(w[0].selectivity <= w[1].selectivity);
        }
    }

    #[test]
    fn random_plans_are_selectivity_ordered_and_complete(
        seed in any::<u64>(),
        n in 1usize..40,
        phrases in prop::collection::vec(0usize..4, 0..3),
        types in prop::collection::vec(0usize..2, 0..3),
        terms in prop::collection::vec(0u32..5, 0..3),
    ) {
        use graphitti_query::OntologyFilter;
        use ontology::ConceptId;
        const PHRASES: [&str; 4] = ["protease", "quiet region", "motif here", "absent words"];
        const TYPES: [DataType; 2] = [DataType::DnaSequence, DataType::Image];
        let sys = build(seed, n);
        let mut q = Query::new(Target::ConnectionGraphs);
        for p in &phrases {
            q = q.with_phrase(PHRASES[*p]);
        }
        for t in &types {
            q = q.with_referent(ReferentFilter::OfType(TYPES[*t]));
        }
        for t in &terms {
            q = q.with_ontology(OntologyFilter::CitesTerm(ConceptId(*t)));
        }
        let plan = Executor::new(&sys).plan(&q);
        // every canonical subquery appears exactly once (the executor canonicalizes
        // first, so duplicate conjuncts collapse before planning) …
        let c = q.canonicalize();
        prop_assert_eq!(plan.order.len(), c.content.len() + c.referents.len() + c.ontology.len());
        // … estimates are valid fractions, and the order is ascending selectivity
        for s in &plan.order {
            prop_assert!((0.0..=1.0).contains(&s.selectivity), "bad fraction {}", s.selectivity);
        }
        for w in plan.order.windows(2) {
            prop_assert!(w[0].selectivity <= w[1].selectivity);
        }
    }

    #[test]
    fn adding_conjunct_never_grows_results(seed in any::<u64>(), n in 1usize..50) {
        let sys = build(seed, n);
        let broad = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OfType(DataType::DnaSequence));
        let narrow = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OfType(DataType::DnaSequence))
            .with_phrase("protease");
        let rb = Executor::new(&sys).run(&broad);
        let rn = Executor::new(&sys).run(&narrow);
        prop_assert!(rn.referents.len() <= rb.referents.len());
    }

    #[test]
    fn phrase_results_actually_contain_phrase(seed in any::<u64>(), n in 0usize..60) {
        let sys = build(seed, n);
        let q = Query::new(Target::AnnotationContents).with_phrase("protease");
        let res = Executor::new(&sys).run(&q);
        for aid in res.annotations {
            let ann = sys.annotation(aid).unwrap();
            let text = ann.comment().unwrap_or("").to_lowercase();
            prop_assert!(text.contains("protease"));
        }
    }

    #[test]
    fn referent_type_filter_only_returns_that_type(seed in any::<u64>(), n in 0usize..60) {
        let sys = build(seed, n);
        let q = Query::new(Target::Referents)
            .with_referent(ReferentFilter::OfType(DataType::Image));
        let res = Executor::new(&sys).run(&q);
        for rid in res.referents {
            let r = sys.referent(rid).unwrap();
            let ty = sys.object(r.object).unwrap().data_type;
            prop_assert_eq!(ty, DataType::Image);
        }
    }
}

/// Queries the parser's unit tests accept; their truncations are inputs too.
const VALID: &[&str] = &[
    "SELECT graphs",
    r#"SELECT contents WHERE content contains "protein TP53""#,
    "SELECT referents WHERE content keywords protease cleavage site",
    "SELECT referents WHERE referent type dna AND referent interval chr7 100 250",
    "SELECT graphs WHERE referent region mouse-25um 0 0 100 100",
    "SELECT graphs WHERE ontology class 3 AND constraint consecutive 4 60 AND constraint path 5",
    r#"SELECT contents WHERE content path "//dc:subject[contains(text(), 'nuclei')]""#,
    r#"SELECT contents WHERE content path "//dc:title[contains(text(), 'a]b')]""#,
    r#"SELECT graphs WHERE content contains "protein TP53" AND ontology term 7 AND constraint regions 2 cs25 0 0 1000 1000"#,
];

/// Numbers a substrate constructor would refuse or truncate, and ordinary ones.
const NUMBERS: &[&str] = &[
    "NaN",
    "inf",
    "-inf",
    "-1",
    "0",
    "1",
    "2.5",
    "-0.0",
    "1e308",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

/// Clause words and stray Unicode.
const WORDS: &[&str] = &[
    "SELECT",
    "WHERE",
    "AND",
    "graphs",
    "content",
    "referent",
    "ontology",
    "constraint",
    "dna",
    "path",
    "é",
    "日本",
    "\u{1F600}",
    "\"",
    "'",
    "\"é",
    "'ü'",
    "\u{0}",
    "s",
];

/// Pieces of path-expression text, glued without spaces.
const PATH_PIECES: &[&str] = &[
    "/",
    "//",
    "a",
    "dc:x",
    "*",
    "[",
    "]",
    "1",
    "0",
    "last()",
    "@",
    "id",
    "=",
    "'",
    "\"",
    "contains(",
    "starts-with(",
    "ends-with(",
    "text()",
    ",",
    ".",
    ")",
    "é",
    "日",
    "\u{1F600}",
];

/// Clause shapes: `n` is filled from [`NUMBERS`] (or a random integer / float), `w`
/// from [`WORDS`], `p` with random path text, quoted or not.
const CLAUSES: &[&str] = &[
    "content contains w",
    "content keywords w w",
    "content path p",
    "referent type w",
    "referent interval w n n",
    "referent region w n n n n",
    "ontology term n",
    "ontology class n",
    "constraint consecutive n n",
    "constraint regions n w n n n n",
    "constraint path n",
    "w",
];

/// A linear congruential generator: enough to pick slots and values.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next() >> 11) % bound as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// One random query text from `seed`: a `SELECT … WHERE` head (mostly), then clauses
/// joined by `AND` (mostly), their slots filled with hostile values.
fn random_text(seed: u64) -> String {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut words: Vec<String> = Vec::new();
    if rng.below(8) != 0 {
        let target = rng.pick(&["graphs", "contents", "referents"]);
        words.extend(["SELECT", target, "WHERE"].map(String::from));
    }
    for c in 0..rng.below(5) {
        if c > 0 {
            words.push(if rng.below(6) == 0 { rng.pick(WORDS) } else { "AND" }.into());
        }
        for slot in rng.pick(CLAUSES).split(' ') {
            let word = match slot {
                "n" => match rng.below(4) {
                    0 => rng.next().to_string(),
                    1 => f64::from_bits(rng.next()).to_string(),
                    _ => rng.pick(NUMBERS).into(),
                },
                "w" => rng.pick(WORDS).into(),
                "p" => {
                    let path: String = (0..rng.below(10)).map(|_| rng.pick(PATH_PIECES)).collect();
                    if rng.below(2) == 0 {
                        path
                    } else {
                        format!("\"{path}\"")
                    }
                }
                keyword => keyword.into(),
            };
            words.push(word);
        }
    }
    words.join(" ")
}

/// `parse_query(text)`, with a panic turned into a failed assertion naming the text.
fn parses_or_errs(text: &str) -> std::result::Result<(), String> {
    match std::panic::catch_unwind(|| parse_query(text).is_ok()) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!("parse_query panicked on {text:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_parser_answers_any_clause_sequence(seed in any::<u64>()) {
        let text = random_text(seed);
        prop_assert_eq!(parses_or_errs(&text), Ok(()));
    }

    #[test]
    fn the_parser_answers_any_truncation_of_a_valid_query(which in 0..VALID.len(), cut in 0usize..160) {
        // Cut at a character boundary, and again at the byte `cut` when that is one.
        let text = VALID[which % VALID.len()];
        let by_chars: String = text.chars().take(cut).collect();
        prop_assert_eq!(parses_or_errs(&by_chars), Ok(()));
        if let Some(prefix) = text.get(..cut.min(text.len())) {
            prop_assert_eq!(parses_or_errs(prefix), Ok(()));
        }
    }
}
