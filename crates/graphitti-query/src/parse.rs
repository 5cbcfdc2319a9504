//! A small textual query DSL.
//!
//! The demo's GUI query form "translates directly to a query expression"; this module is
//! a compact textual surface for that expression, so queries can be written, stored and
//! replayed without constructing the [`Query`] AST by hand.
//!
//! Tokens are borrowed from the request: the tokenizer yields `&str` slices of the
//! input, and keywords are matched case-insensitively without copying the token to
//! the heap, so a parse allocates only the strings and lists of the [`Query`] it
//! builds (and an error's text).
//!
//! Grammar (case-insensitive keywords, clauses separated by `AND`):
//!
//! ```text
//! SELECT (contents | referents | graphs)
//! [ WHERE <clause> (AND <clause>)* ]
//!
//! clause :=
//!     content contains "<phrase>"
//!   | content keywords <word>+
//!   | content path <path-expression>
//!   | referent type <tag>                       ; dna, rna, protein, msa, image, model, ...
//!   | referent interval <domain> <start> <end>
//!   | referent region <system> <x0> <y0> <x1> <y1>
//!   | ontology term <concept-id>
//!   | ontology class <concept-id>
//!   | constraint consecutive <count> <gap>
//!   | constraint regions <count> <system> <x0> <y0> <x1> <y1>
//!   | constraint path <max-len>
//! ```
//!
//! A `content path` expression is evaluated over each annotation's content read as the
//! document `annotation / dc:<field>* / tags / <tag>*` — a `dc:*` leaf per Dublin Core
//! field, then, when the annotation has user tags, a `tags` element holding a leaf per
//! tag.  No element carries an attribute, so an attribute predicate (`[@a]`,
//! `[@a='v']`) never matches; an `@attr` selector is kept in the query and decides
//! nothing, like `text()`.

use graphitti_core::DataType;
use interval_index::Interval;
use ontology::ConceptId;
use spatial_index::Rect;
use xmlstore::PathExpr;

use crate::ast::{ContentFilter, GraphConstraint, OntologyFilter, Query, ReferentFilter, Target};

/// An error parsing the query DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// A human-readable description of the problem.
    pub message: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> ParseError {
        ParseError { message: msg.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// Parse a query from the textual DSL.
pub fn parse_query(input: &str) -> Result<Query> {
    let mut tokens = Tokens(input).peekable();

    expect_keyword(&mut tokens, "select")?;
    let target = next_token(&mut tokens)?;
    let target = match fold(target).as_str() {
        "contents" | "content" => Target::AnnotationContents,
        "referents" | "referent" => Target::Referents,
        "graphs" | "graph" => Target::ConnectionGraphs,
        _ => return Err(unknown("target", target)),
    };
    let mut query = Query::new(target);

    if tokens.peek().is_none() {
        return Ok(query);
    }
    expect_keyword(&mut tokens, "where")?;

    loop {
        parse_clause(&mut tokens, &mut query)?;
        match tokens.next() {
            None => break,
            Some(t) if t.eq_ignore_ascii_case("and") => {}
            Some(t) => return Err(ParseError::new(format!("expected AND or end, found '{t}'"))),
        }
    }
    Ok(query)
}

fn parse_clause(tokens: &mut Lexer<'_>, query: &mut Query) -> Result<()> {
    let head = next_token(tokens)?;
    match fold(head).as_str() {
        "content" => parse_content(tokens, query),
        "referent" => parse_referent(tokens, query),
        "ontology" => parse_ontology(tokens, query),
        "constraint" => parse_constraint(tokens, query),
        _ => Err(unknown("clause", head)),
    }
}

fn parse_content(tokens: &mut Lexer<'_>, query: &mut Query) -> Result<()> {
    let kind = next_token(tokens)?;
    match fold(kind).as_str() {
        "contains" => {
            let phrase = next_token(tokens)?;
            query.content.push(ContentFilter::Phrase(unquote(phrase).to_owned()));
        }
        "keywords" => {
            let mut words = Vec::new();
            while let Some(t) = tokens.next_if(|t| !is_clause_boundary(t)) {
                words.push(unquote(t).to_owned());
            }
            if words.is_empty() {
                return Err(ParseError::new("content keywords needs at least one word"));
            }
            query.content.push(ContentFilter::Keywords(words));
        }
        "path" => {
            let expr = next_token(tokens)?;
            let parsed = PathExpr::parse(unquote(expr))
                .map_err(|e| ParseError::new(format!("bad path expression: {e}")))?;
            query.content.push(ContentFilter::Path(parsed));
        }
        _ => return Err(unknown("content predicate", kind)),
    }
    Ok(())
}

fn parse_referent(tokens: &mut Lexer<'_>, query: &mut Query) -> Result<()> {
    let kind = next_token(tokens)?;
    match fold(kind).as_str() {
        "type" => {
            let tag = next_token(tokens)?;
            let ty = DataType::from_tag(fold(tag).as_str())
                .ok_or_else(|| unknown("data type tag", tag))?;
            query.referents.push(ReferentFilter::OfType(ty));
        }
        "interval" => {
            let domain = next_token(tokens)?;
            let start = parse_u64(tokens)?;
            let end = parse_u64(tokens)?;
            let interval = Interval::checked(start, end)
                .ok_or_else(|| ParseError::new("inverted interval in query"))?;
            query.referents.push(ReferentFilter::IntervalOverlaps {
                domain: Some(unquote(domain).to_owned()),
                interval,
            });
        }
        "region" => {
            let system = next_token(tokens)?;
            let rect = parse_rect2(tokens)?;
            query.referents.push(ReferentFilter::RegionOverlaps {
                system: Some(unquote(system).to_owned()),
                rect,
            });
        }
        _ => return Err(unknown("referent predicate", kind)),
    }
    Ok(())
}

fn parse_ontology(tokens: &mut Lexer<'_>, query: &mut Query) -> Result<()> {
    let kind = next_token(tokens)?;
    let id = parse_u64(tokens)?;
    let id = u32::try_from(id)
        .map_err(|_| ParseError::new(format!("concept id {id} is out of range")))?;
    match fold(kind).as_str() {
        "term" => query.ontology.push(OntologyFilter::CitesTerm(ConceptId(id))),
        "class" => query
            .ontology
            .push(OntologyFilter::InClass { concept: ConceptId(id), relations: Vec::new() }),
        _ => return Err(unknown("ontology predicate", kind)),
    }
    Ok(())
}

fn parse_constraint(tokens: &mut Lexer<'_>, query: &mut Query) -> Result<()> {
    let kind = next_token(tokens)?;
    match fold(kind).as_str() {
        "consecutive" => {
            let count = parse_u64(tokens)? as usize;
            let gap = parse_u64(tokens)?;
            query.constraints.push(GraphConstraint::ConsecutiveIntervals { count, max_gap: gap });
        }
        "regions" => {
            let count = parse_u64(tokens)? as usize;
            let system = next_token(tokens)?;
            let within = parse_rect2(tokens)?;
            query.constraints.push(GraphConstraint::MinRegionCount {
                count,
                within,
                system: unquote(system).to_owned(),
            });
        }
        "path" => {
            let max_len = parse_u64(tokens)? as usize;
            query.constraints.push(GraphConstraint::PathExists { max_len });
        }
        _ => return Err(unknown("constraint", kind)),
    }
    Ok(())
}

// --- tokenizer & helpers ---

/// The tokens of a request, each a slice of it: whitespace separates them, a quote
/// ends an unquoted token, and a quoted token runs from its quote through the
/// matching one (or to the end of the input) and keeps both quotes.
struct Tokens<'a>(&'a str);

type Lexer<'a> = std::iter::Peekable<Tokens<'a>>;

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0.trim_start_matches(char::is_whitespace);
        let mut chars = rest.chars();
        let first = chars.next()?;
        let len = if first == '"' || first == '\'' {
            // One byte of opening quote, then through the closing one.
            chars.as_str().find(first).map_or(rest.len(), |close| close + 2)
        } else {
            rest.find(|c: char| c.is_whitespace() || c == '"' || c == '\'').unwrap_or(rest.len())
        };
        let (token, after) = rest.split_at_checked(len)?;
        self.0 = after;
        Some(token)
    }
}

/// Longer than every keyword of the DSL, clause words and data type tags alike.
const KEYWORD_MAX: usize = 16;

/// A token ASCII-lowercased on the stack, to match against the DSL's keywords; a
/// token longer than [`KEYWORD_MAX`] matches none, so it folds to "".
struct Folded {
    bytes: [u8; KEYWORD_MAX],
    len: usize,
}

impl Folded {
    fn as_str(&self) -> &str {
        self.bytes.get(..self.len).and_then(|b| std::str::from_utf8(b).ok()).unwrap_or("")
    }
}

fn fold(token: &str) -> Folded {
    let mut bytes = [0; KEYWORD_MAX];
    let len = match bytes.get_mut(..token.len()) {
        Some(head) => {
            head.copy_from_slice(token.as_bytes());
            head.make_ascii_lowercase();
            token.len()
        }
        None => 0,
    };
    Folded { bytes, len }
}

/// `unknown <what> '<token>'`, the token ASCII-lowercased as the keyword match saw it.
fn unknown(what: &str, token: &str) -> ParseError {
    ParseError::new(format!("unknown {what} '{}'", token.to_ascii_lowercase()))
}

fn unquote(s: &str) -> &str {
    let quoted = ['"', '\''].into_iter().find_map(|q| s.strip_prefix(q)?.strip_suffix(q));
    quoted.unwrap_or(s)
}

fn is_clause_boundary(token: &str) -> bool {
    matches!(fold(token).as_str(), "and" | "content" | "referent" | "ontology" | "constraint")
}

fn next_token<'a>(tokens: &mut Lexer<'a>) -> Result<&'a str> {
    tokens.next().ok_or_else(|| ParseError::new("unexpected end of query"))
}

fn expect_keyword(tokens: &mut Lexer<'_>, keyword: &str) -> Result<()> {
    let t = next_token(tokens)?;
    if t.eq_ignore_ascii_case(keyword) {
        Ok(())
    } else {
        Err(ParseError::new(format!("expected '{keyword}', found '{t}'")))
    }
}

fn parse_u64(tokens: &mut Lexer<'_>) -> Result<u64> {
    let t = next_token(tokens)?;
    t.parse::<u64>().map_err(|_| ParseError::new(format!("expected an integer, found '{t}'")))
}

fn parse_f64(tokens: &mut Lexer<'_>) -> Result<f64> {
    let t = next_token(tokens)?;
    t.parse::<f64>().map_err(|_| ParseError::new(format!("expected a number, found '{t}'")))
}

/// `<x0> <y0> <x1> <y1>` as a 2-D box; an inverted or non-finite box is an error.
fn parse_rect2(tokens: &mut Lexer<'_>) -> Result<Rect> {
    let (x0, y0) = (parse_f64(tokens)?, parse_f64(tokens)?);
    let (x1, y1) = (parse_f64(tokens)?, parse_f64(tokens)?);
    Rect::checked([x0, y0, 0.0], [x1, y1, 0.0])
        .ok_or_else(|| ParseError::new(format!("bad region {x0} {y0} {x1} {y1}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse_query("SELECT graphs").unwrap();
        assert_eq!(q.target, Target::ConnectionGraphs);
        assert!(q.content.is_empty() && q.referents.is_empty() && q.ontology.is_empty());
        assert!(q.constraints.is_empty());
    }

    #[test]
    fn content_phrase() {
        let q = parse_query(r#"SELECT contents WHERE content contains "protein TP53""#).unwrap();
        assert_eq!(q.target, Target::AnnotationContents);
        assert_eq!(q.content, vec![ContentFilter::Phrase("protein TP53".into())]);
    }

    #[test]
    fn content_keywords_multiple() {
        let q =
            parse_query("SELECT referents WHERE content keywords protease cleavage site").unwrap();
        assert_eq!(
            q.content,
            vec![ContentFilter::Keywords(vec![
                "protease".into(),
                "cleavage".into(),
                "site".into()
            ])]
        );
    }

    #[test]
    fn referent_type_and_interval() {
        let q = parse_query(
            "SELECT referents WHERE referent type dna AND referent interval chr7 100 250",
        )
        .unwrap();
        assert_eq!(q.referents.len(), 2);
        assert_eq!(q.referents[0], ReferentFilter::OfType(DataType::DnaSequence));
        match &q.referents[1] {
            ReferentFilter::IntervalOverlaps { domain, interval } => {
                assert_eq!(domain.as_deref(), Some("chr7"));
                assert_eq!(*interval, Interval::new(100, 250));
            }
            _ => panic!("wrong filter"),
        }
    }

    #[test]
    fn referent_region() {
        let q = parse_query("SELECT graphs WHERE referent region mouse-25um 0 0 100 100").unwrap();
        match &q.referents[0] {
            ReferentFilter::RegionOverlaps { system, rect } => {
                assert_eq!(system.as_deref(), Some("mouse-25um"));
                assert_eq!(*rect, Rect::rect2(0.0, 0.0, 100.0, 100.0));
            }
            _ => panic!("wrong filter"),
        }
    }

    #[test]
    fn ontology_and_constraints() {
        let q = parse_query(
            "SELECT graphs WHERE ontology class 3 AND constraint consecutive 4 60 AND constraint path 5",
        )
        .unwrap();
        assert_eq!(
            q.ontology,
            vec![OntologyFilter::InClass { concept: ConceptId(3), relations: vec![] }]
        );
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(
            q.constraints[0],
            GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 60 }
        );
        assert_eq!(q.constraints[1], GraphConstraint::PathExists { max_len: 5 });
    }

    #[test]
    fn content_path_expression() {
        let q = parse_query(
            r#"SELECT contents WHERE content path "//dc:subject[contains(text(), 'nuclei')]""#,
        )
        .unwrap();
        assert!(matches!(q.content[0], ContentFilter::Path(_)));
    }

    #[test]
    fn a_quoted_bracket_in_a_path_predicate_reaches_the_key() {
        let q = parse_query(
            r#"SELECT contents WHERE content path "//dc:title[contains(text(), 'a]b')]""#,
        )
        .unwrap();
        let expected = PathExpr {
            steps: vec![xmlstore::Step {
                descendant: true,
                name: xmlstore::NameTest::Named("dc:title".into()),
                predicates: vec![xmlstore::Predicate::ContainsText("a]b".into())],
            }],
            selector: xmlstore::Selector::Elements,
        };
        let mut built = Query::new(Target::AnnotationContents);
        built.content.push(ContentFilter::Path(expected));
        assert_eq!(q, built);
        assert_eq!(q.cache_key(), built.cache_key());
        assert!(q.cache_key().as_str().contains("[text~ 3:a]b]"), "{}", q.cache_key().as_str());
    }

    #[test]
    fn full_tp53_query_parses() {
        let q = parse_query(
            r#"SELECT graphs WHERE content contains "protein TP53" AND ontology term 7 AND constraint regions 2 cs25 0 0 1000 1000"#,
        )
        .unwrap();
        assert_eq!(q.content.len(), 1);
        assert_eq!(q.ontology.len(), 1);
        assert_eq!(q.constraints.len(), 1);
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT bogus").is_err());
        assert!(parse_query("SELECT graphs content contains \"x\"").is_err()); // missing WHERE
        assert!(parse_query("SELECT graphs WHERE referent type nope").is_err());
        assert!(parse_query("SELECT graphs WHERE content keywords").is_err());
        assert!(parse_query("SELECT graphs WHERE constraint consecutive four 60").is_err());
        assert!(parse_query("SELECT graphs WHERE bogus clause").is_err());
        // Values the substrate constructors would panic on, or truncate, are errors.
        assert!(parse_query("SELECT graphs WHERE referent region s 10 0 0 0").is_err());
        assert!(parse_query("SELECT graphs WHERE referent region s NaN 0 1 1").is_err());
        assert!(parse_query("SELECT graphs WHERE referent region s 0 0 inf 1").is_err());
        assert!(parse_query("SELECT graphs WHERE constraint regions 2 s 5 5 1 1").is_err());
        assert!(parse_query("SELECT graphs WHERE ontology term 4294967296").is_err());
        assert!(parse_query("SELECT graphs WHERE ontology class 4294967295").is_ok());
    }

    /// What `parse_query` made of `input`: the query's `Debug` form and its cache key,
    /// or the error text.
    fn outcome(input: &str) -> std::result::Result<(String, String), String> {
        parse_query(input)
            .map(|q| (format!("{q:?}"), q.cache_key().as_str().to_string()))
            .map_err(|e| e.message)
    }

    /// A pinned outcome: the query's `Debug` form and cache key, or the error text.
    type Golden = std::result::Result<(&'static str, &'static str), &'static str>;

    #[test]
    fn the_dsl_goldens_hold() {
        // Pinned from the parser that tokenized into one `String` per token: case,
        // both quote kinds (unterminated, or glued to a word), Unicode whitespace,
        // non-ASCII and over-long tokens, keyword lists that run into a clause word,
        // and empty input each parse to these exact queries, keys and error texts.
        #[rustfmt::skip]
        let table: &[(&str, Golden)] = &[
            ("", Err("unexpected end of query")),
            ("   \t ", Err("unexpected end of query")),
            ("SeLeCt GrApHs", Ok(("Query { target: ConnectionGraphs, content: [], referents: [], ontology: [], constraints: [] }", "graphs"))),
            ("select CONTENTS where CONTENT Contains \"Protein TP53\" and ONTOLOGY Term 7", Ok(("Query { target: AnnotationContents, content: [Phrase(\"Protein TP53\")], referents: [], ontology: [CitesTerm(ConceptId(7))], constraints: [] }", "contents|c:phrase 12:protein tp53|o:cites 7"))),
            ("SELECT Referents WHERE Referent TYPE DNA AND Constraint CONSECUTIVE 2 2000", Ok(("Query { target: Referents, content: [], referents: [OfType(DnaSequence)], ontology: [], constraints: [ConsecutiveIntervals { count: 2, max_gap: 2000 }] }", "referents|r:type dna|g:consec 2 2000"))),
            ("SELECT graphs WHERE content contains 'protein TP53'", Ok(("Query { target: ConnectionGraphs, content: [Phrase(\"protein TP53\")], referents: [], ontology: [], constraints: [] }", "graphs|c:phrase 12:protein tp53"))),
            ("SELECT graphs WHERE content contains \"it's\"", Ok(("Query { target: ConnectionGraphs, content: [Phrase(\"it's\")], referents: [], ontology: [], constraints: [] }", "graphs|c:phrase 4:it's"))),
            ("SELECT graphs WHERE content contains 'say \"hi\"'", Ok(("Query { target: ConnectionGraphs, content: [Phrase(\"say \\\"hi\\\"\")], referents: [], ontology: [], constraints: [] }", "graphs|c:phrase 8:say \"hi\""))),
            ("SELECT graphs WHERE content contains \"protein TP53", Ok(("Query { target: ConnectionGraphs, content: [Phrase(\"\\\"protein TP53\")], referents: [], ontology: [], constraints: [] }", "graphs|c:phrase 13:\"protein tp53"))),
            ("SELECT graphs WHERE content contains 'unterminated", Ok(("Query { target: ConnectionGraphs, content: [Phrase(\"'unterminated\")], referents: [], ontology: [], constraints: [] }", "graphs|c:phrase 13:'unterminated"))),
            ("SELECT graphs WHERE content keywords foo\"bar baz\"", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"foo\", \"bar baz\"])], referents: [], ontology: [], constraints: [] }", "graphs|c:kw 7:bar baz 3:foo"))),
            ("SELECT graphs WHERE content contains \"a\"b", Err("expected AND or end, found 'b'")),
            ("SELECT graphs WHERE content keywords it's done", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"it\", \"'s done\"])], referents: [], ontology: [], constraints: [] }", "graphs|c:kw 7:'s done 2:it"))),
            ("SELECT\tgraphs\tWHERE\tontology\tterm\t3", Ok(("Query { target: ConnectionGraphs, content: [], referents: [], ontology: [CitesTerm(ConceptId(3))], constraints: [] }", "graphs|o:cites 3"))),
            ("SELECT\u{a0}graphs\u{a0}WHERE\u{a0}content\u{a0}keywords\u{a0}a\u{a0}b", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"a\", \"b\"])], referents: [], ontology: [], constraints: [] }", "graphs|c:kw 1:a 1:b"))),
            ("SELECT\u{3000}contents\u{3000}WHERE\u{3000}content\u{3000}contains\u{3000}\"x\u{3000}y\"", Ok(("Query { target: AnnotationContents, content: [Phrase(\"x\\u{3000}y\")], referents: [], ontology: [], constraints: [] }", "contents|c:phrase 5:x\u{3000}y"))),
            ("SELECT contents WHERE content keywords Ünïcode 蛋白质 ΑΒΓ", Ok(("Query { target: AnnotationContents, content: [Keywords([\"Ünïcode\", \"蛋白质\", \"ΑΒΓ\"])], referents: [], ontology: [], constraints: [] }", "contents|c:kw 9:ünïcode 6:αβγ 9:蛋白质"))),
            ("SELECT contents WHERE referent interval 染色体7 100 250", Ok(("Query { target: AnnotationContents, content: [], referents: [IntervalOverlaps { domain: Some(\"染色体7\"), interval: Interval { start: 100, end: 250 } }], ontology: [], constraints: [] }", "contents|r:ival 10:染色体7 100 250"))),
            ("SELECT ГРАФЫ", Err("unknown target 'ГРАФЫ'")),
            ("SELECT graphs WHERE referent type ÄDN", Err("unknown data type tag 'Ädn'")),
            ("SELECT graphs WHERE ontology term 9999999999999999999999999", Err("expected an integer, found '9999999999999999999999999'")),
            ("SELECT graphs WHERE content keywords protease cleavage content contains \"x\"", Err("expected AND or end, found 'content'")),
            ("SELECT graphs WHERE content keywords protease AND referent type dna", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"protease\"])], referents: [OfType(DnaSequence)], ontology: [], constraints: [] }", "graphs|c:kw 8:protease|r:type dna"))),
            ("SELECT graphs WHERE content keywords protease And ontology term 3", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"protease\"])], referents: [], ontology: [CitesTerm(ConceptId(3))], constraints: [] }", "graphs|c:kw 8:protease|o:cites 3"))),
            ("SELECT graphs WHERE content keywords CONSTRAINT consecutive 2 5", Err("content keywords needs at least one word")),
            ("SELECT graphs WHERE content keywords \"and\" 'content' b", Ok(("Query { target: ConnectionGraphs, content: [Keywords([\"and\", \"content\", \"b\"])], referents: [], ontology: [], constraints: [] }", "graphs|c:kw 3:and 1:b 7:content"))),
            ("SELECT graphs WHERE content keywords a b REFERENT region s 0 0 1 1", Err("expected AND or end, found 'REFERENT'")),
            ("SELECT graphs WHERE", Err("unexpected end of query")),
            ("SELECT graphs WHERE content", Err("unexpected end of query")),
            ("SELECT graphs WHERE content contains", Err("unexpected end of query")),
            ("SELECT graphs WHERE content contains \"x\" AND", Err("unexpected end of query")),
            ("SELECT graphs WHERE content contains \"x\" OR content contains \"y\"", Err("expected AND or end, found 'OR'")),
            ("\"SELECT\" graphs", Err("expected 'select', found '\"SELECT\"'")),
            ("SELECT graphs WHERE referent region 'mouse 25um' 0 0 1.5e2 100", Ok(("Query { target: ConnectionGraphs, content: [], referents: [RegionOverlaps { system: Some(\"mouse 25um\"), rect: Rect { min: [0.0, 0.0, 0.0], max: [150.0, 100.0, 0.0] } }], ontology: [], constraints: [] }", "graphs|r:region 10:mouse 25um 0000000000000000 0000000000000000 0000000000000000 4062c00000000000 4059000000000000 0000000000000000"))),
            ("SELECT graphs WHERE content path \"//dc:subject[contains(text(), 'nuclei')]\"", Ok(("Query { target: ConnectionGraphs, content: [Path(PathExpr { steps: [Step { descendant: true, name: Named(\"dc:subject\"), predicates: [ContainsText(\"nuclei\")] }], selector: Elements })], referents: [], ontology: [], constraints: [] }", "graphs|c:path//10:dc:subject[text~ 6:nuclei]!elems"))),
            ("SELECT graphs WHERE content path //dc:title[", Err("bad path expression: cannot parse path expression: //dc:title[")),
            ("SELECT graphs WHERE ontology Class 4294967295 AND ontology term 4294967296", Err("concept id 4294967296 is out of range")),
            ("SELECT graphs WHERE Constraint Regions 2 cs25 0 0 1000 1000 AND constraint PATH 5", Ok(("Query { target: ConnectionGraphs, content: [], referents: [], ontology: [], constraints: [MinRegionCount { count: 2, within: Rect { min: [0.0, 0.0, 0.0], max: [1000.0, 1000.0, 0.0] }, system: \"cs25\" }, PathExists { max_len: 5 }] }", "graphs|g:minregions 2 4:cs25 0000000000000000 0000000000000000 0000000000000000 408f400000000000 408f400000000000 0000000000000000|g:pathlen 5"))),
            ("SELECT graphs WHERE constraint consecutive -1 5", Err("expected an integer, found '-1'")),
            ("SELECT graphs WHERE constraint bogus", Err("unknown constraint 'bogus'")),
            ("SELECT graphs WHERE Ontology BOGUS 3", Err("unknown ontology predicate 'bogus'")),
            ("SELECT graphs WHERE Referent BOGUS", Err("unknown referent predicate 'bogus'")),
            ("SELECT graphs WHERE Content BOGUS", Err("unknown content predicate 'bogus'")),
            ("SELECT graphs WHERE BOGUS", Err("unknown clause 'bogus'")),
            ("SELECT graphs WHERE referent interval chr7 250 100", Err("inverted interval in query")),
            ("SELECT graphs trailing", Err("expected 'where', found 'trailing'")),
        ];
        for (input, expected) in table {
            let expected = expected.map(|(q, k)| (q.to_string(), k.to_string()));
            assert_eq!(outcome(input), expected.map_err(str::to_string), "{input:?}");
        }

        // Tokens longer than any keyword (300 bytes; a 25-digit integer is in the table).
        let long_word = "w".repeat(300);
        assert_eq!(
            outcome(&format!("SELECT contents WHERE content keywords {long_word}")),
            Ok((
                format!(
                    "Query {{ target: AnnotationContents, content: [Keywords([\"{long_word}\"])], \
                     referents: [], ontology: [], constraints: [] }}"
                ),
                format!("contents|c:kw 300:{long_word}")
            ))
        );
        assert_eq!(
            outcome(&format!("SELECT {long_word}")),
            Err(format!("unknown target '{long_word}'"))
        );
    }

    #[test]
    fn unquote_strips_one_matching_pair() {
        assert_eq!(unquote("'a b'"), "a b");
        assert_eq!(unquote("\"x\""), "x");
        assert_eq!(unquote("\"\""), "");
        for unchanged in ["\"", "'", "\"a'", "plain", "'é"] {
            assert_eq!(unquote(unchanged), unchanged);
        }
    }

    #[test]
    fn roundtrip_through_executor_shape() {
        // Just ensure a parsed query has the expected structure to feed the executor.
        let q = parse_query(
            "SELECT referents WHERE content contains \"protease\" AND constraint consecutive 4 60",
        )
        .unwrap();
        assert_eq!(q.target, Target::Referents);
        assert_eq!((q.content.len(), q.referents.len(), q.ontology.len()), (1, 0, 0));
        assert_eq!(q.constraints.len(), 1);
    }
}
