//! A small textual query DSL.
//!
//! The demo's GUI query form "translates directly to a query expression"; this module is
//! a compact textual surface for that expression, so queries can be written, stored and
//! replayed without constructing the [`Query`] AST by hand.
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
    let tokens = tokenize(input);
    let mut i = 0;

    expect_keyword(&tokens, &mut i, "select")?;
    let target = match next(&tokens, &mut i)?.to_ascii_lowercase().as_str() {
        "contents" | "content" => Target::AnnotationContents,
        "referents" | "referent" => Target::Referents,
        "graphs" | "graph" => Target::ConnectionGraphs,
        other => return Err(ParseError::new(format!("unknown target '{other}'"))),
    };
    let mut query = Query::new(target);

    if i >= tokens.len() {
        return Ok(query);
    }
    expect_keyword(&tokens, &mut i, "where")?;

    loop {
        parse_clause(&tokens, &mut i, &mut query)?;
        match tokens.get(i) {
            None => break,
            Some(t) if t.eq_ignore_ascii_case("and") => {
                i += 1;
            }
            Some(t) => return Err(ParseError::new(format!("expected AND or end, found '{t}'"))),
        }
    }
    Ok(query)
}

fn parse_clause(tokens: &[String], i: &mut usize, query: &mut Query) -> Result<()> {
    let head = next(tokens, i)?.to_ascii_lowercase();
    match head.as_str() {
        "content" => parse_content(tokens, i, query),
        "referent" => parse_referent(tokens, i, query),
        "ontology" => parse_ontology(tokens, i, query),
        "constraint" => parse_constraint(tokens, i, query),
        other => Err(ParseError::new(format!("unknown clause '{other}'"))),
    }
}

fn parse_content(tokens: &[String], i: &mut usize, query: &mut Query) -> Result<()> {
    let kind = next(tokens, i)?.to_ascii_lowercase();
    match kind.as_str() {
        "contains" => {
            let phrase = next(tokens, i)?;
            query.content.push(ContentFilter::Phrase(unquote(&phrase)));
        }
        "keywords" => {
            let mut words = Vec::new();
            while let Some(t) = tokens.get(*i) {
                if is_clause_boundary(t) {
                    break;
                }
                words.push(unquote(t));
                *i += 1;
            }
            if words.is_empty() {
                return Err(ParseError::new("content keywords needs at least one word"));
            }
            query.content.push(ContentFilter::Keywords(words));
        }
        "path" => {
            let expr = next(tokens, i)?;
            let parsed = PathExpr::parse(&unquote(&expr))
                .map_err(|e| ParseError::new(format!("bad path expression: {e}")))?;
            query.content.push(ContentFilter::Path(parsed));
        }
        other => return Err(ParseError::new(format!("unknown content predicate '{other}'"))),
    }
    Ok(())
}

fn parse_referent(tokens: &[String], i: &mut usize, query: &mut Query) -> Result<()> {
    let kind = next(tokens, i)?.to_ascii_lowercase();
    match kind.as_str() {
        "type" => {
            let tag = next(tokens, i)?.to_ascii_lowercase();
            let ty = DataType::from_tag(&tag)
                .ok_or_else(|| ParseError::new(format!("unknown data type tag '{tag}'")))?;
            query.referents.push(ReferentFilter::OfType(ty));
        }
        "interval" => {
            let domain = next(tokens, i)?;
            let start = parse_u64(tokens, i)?;
            let end = parse_u64(tokens, i)?;
            let interval = Interval::checked(start, end)
                .ok_or_else(|| ParseError::new("inverted interval in query"))?;
            query.referents.push(ReferentFilter::IntervalOverlaps {
                domain: Some(unquote(&domain)),
                interval,
            });
        }
        "region" => {
            let system = next(tokens, i)?;
            let rect = parse_rect2(tokens, i)?;
            query
                .referents
                .push(ReferentFilter::RegionOverlaps { system: Some(unquote(&system)), rect });
        }
        other => return Err(ParseError::new(format!("unknown referent predicate '{other}'"))),
    }
    Ok(())
}

fn parse_ontology(tokens: &[String], i: &mut usize, query: &mut Query) -> Result<()> {
    let kind = next(tokens, i)?.to_ascii_lowercase();
    let id = parse_u64(tokens, i)?;
    let id = u32::try_from(id)
        .map_err(|_| ParseError::new(format!("concept id {id} is out of range")))?;
    match kind.as_str() {
        "term" => query.ontology.push(OntologyFilter::CitesTerm(ConceptId(id))),
        "class" => query
            .ontology
            .push(OntologyFilter::InClass { concept: ConceptId(id), relations: Vec::new() }),
        other => return Err(ParseError::new(format!("unknown ontology predicate '{other}'"))),
    }
    Ok(())
}

fn parse_constraint(tokens: &[String], i: &mut usize, query: &mut Query) -> Result<()> {
    let kind = next(tokens, i)?.to_ascii_lowercase();
    match kind.as_str() {
        "consecutive" => {
            let count = parse_u64(tokens, i)? as usize;
            let gap = parse_u64(tokens, i)?;
            query.constraints.push(GraphConstraint::ConsecutiveIntervals { count, max_gap: gap });
        }
        "regions" => {
            let count = parse_u64(tokens, i)? as usize;
            let system = next(tokens, i)?;
            let within = parse_rect2(tokens, i)?;
            query.constraints.push(GraphConstraint::MinRegionCount {
                count,
                within,
                system: unquote(&system),
            });
        }
        "path" => {
            let max_len = parse_u64(tokens, i)? as usize;
            query.constraints.push(GraphConstraint::PathExists { max_len });
        }
        other => return Err(ParseError::new(format!("unknown constraint '{other}'"))),
    }
    Ok(())
}

// --- tokenizer & helpers ---

fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' || c == '\'' {
            let quote = c;
            chars.next();
            let mut s = String::from(quote);
            for ch in chars.by_ref() {
                s.push(ch);
                if ch == quote {
                    break;
                }
            }
            tokens.push(s);
        } else {
            let mut s = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '"' || ch == '\'' {
                    break;
                }
                s.push(ch);
                chars.next();
            }
            tokens.push(s);
        }
    }
    tokens
}

fn unquote(s: &str) -> String {
    let quoted = ['"', '\''].into_iter().find_map(|q| s.strip_prefix(q)?.strip_suffix(q));
    quoted.unwrap_or(s).to_string()
}

fn is_clause_boundary(token: &str) -> bool {
    matches!(
        token.to_ascii_lowercase().as_str(),
        "and" | "content" | "referent" | "ontology" | "constraint"
    )
}

fn next(tokens: &[String], i: &mut usize) -> Result<String> {
    let t = tokens.get(*i).cloned().ok_or_else(|| ParseError::new("unexpected end of query"))?;
    *i += 1;
    Ok(t)
}

fn expect_keyword(tokens: &[String], i: &mut usize, keyword: &str) -> Result<()> {
    let t = next(tokens, i)?;
    if t.eq_ignore_ascii_case(keyword) {
        Ok(())
    } else {
        Err(ParseError::new(format!("expected '{keyword}', found '{t}'")))
    }
}

fn parse_u64(tokens: &[String], i: &mut usize) -> Result<u64> {
    let t = next(tokens, i)?;
    t.parse::<u64>().map_err(|_| ParseError::new(format!("expected an integer, found '{t}'")))
}

fn parse_f64(tokens: &[String], i: &mut usize) -> Result<f64> {
    let t = next(tokens, i)?;
    t.parse::<f64>().map_err(|_| ParseError::new(format!("expected a number, found '{t}'")))
}

/// `<x0> <y0> <x1> <y1>` as a 2-D box; an inverted or non-finite box is an error.
fn parse_rect2(tokens: &[String], i: &mut usize) -> Result<Rect> {
    let (x0, y0) = (parse_f64(tokens, i)?, parse_f64(tokens, i)?);
    let (x1, y1) = (parse_f64(tokens, i)?, parse_f64(tokens, i)?);
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
        assert_eq!(q.subquery_count(), 0);
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
        let built = Query::new(Target::AnnotationContents).with_path(expected);
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
        assert_eq!(q.subquery_count(), 1);
        assert_eq!(q.constraints.len(), 1);
    }
}
