//! An XPath/XQuery-lite path-expression engine.
//!
//! Graphitti's query processor embeds "XQuery fragments to retrieve fragments of
//! annotation" and substring conditions on annotation contents.  This module implements
//! the required subset, evaluated over a record's document layout
//! (`annotation / dc:* / tags / <tag>`, see [`crate::dublin`]):
//!
//! * absolute paths with child (`/name`) and descendant-or-self (`//name`) steps,
//! * the wildcard step `*`,
//! * predicates: positional (`[2]`, `[last()]`), attribute tests (`[@id]`,
//!   `[@id='a1']`), `contains(text(), 'word')` and `contains(., 'word')` (deep text),
//!   `starts-with(text(), …)` and `ends-with(text(), …)`,
//! * terminal selectors `text()` and `@attr` (parsed and kept in the query's canonical
//!   form; a match is decided by the nodes the steps locate).
//!
//! No node of the layout has an attribute, so an attribute predicate never holds.
//!
//! ```
//! use xmlstore::{DublinCore, PathExpr};
//!
//! let content = DublinCore::new().subject("protease");
//! assert!(PathExpr::parse("//dc:subject[contains(text(), 'prote')]").unwrap().matches(&content));
//! assert!(!PathExpr::parse("/annotation/dc:title/text()").unwrap().matches(&content));
//! ```

use crate::dublin::{DublinCore, Node};
use crate::error::XmlError;
use crate::Result;

/// A name test in a step: a literal name or the wildcard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// Match any element name.
    Any,
    /// Match a specific element name (including any prefix, e.g. `dc:subject`).
    Named(String),
}

impl NameTest {
    fn matches(&self, record: &DublinCore, node: Node) -> bool {
        match self {
            NameTest::Any => true,
            NameTest::Named(n) => record.node_name(node) == n.as_str(),
        }
    }
}

/// A predicate attached to a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `[n]` — keep only the n-th match (1-based, per XPath convention).
    Position(usize),
    /// `[last()]` — keep only the final match.
    Last,
    /// `[@name='value']` — attribute equality (never holds: no node has attributes).
    AttrEquals {
        /// Attribute name.
        name: String,
        /// Required value.
        value: String,
    },
    /// `[@name]` — attribute existence (never holds: no node has attributes).
    HasAttr(String),
    /// `[contains(text(), 'needle')]` — substring of the element's direct text.
    ContainsText(String),
    /// `[contains(., 'needle')]` — substring of the element's deep text.
    ContainsDeep(String),
    /// `[starts-with(text(), 'prefix')]`.
    StartsWith(String),
    /// `[ends-with(text(), 'suffix')]`.
    EndsWith(String),
}

impl Predicate {
    fn keep(&self, record: &DublinCore, node: Node, position: usize, total: usize) -> bool {
        match self {
            Predicate::Position(n) => position == *n,
            Predicate::Last => position == total,
            Predicate::AttrEquals { .. } | Predicate::HasAttr(_) => false,
            Predicate::ContainsText(needle) => record.node_text(node).contains(needle.as_str()),
            Predicate::ContainsDeep(needle) => {
                let mut deep = String::new();
                record.each_node(node, &mut |n| deep.push_str(record.node_text(n)));
                deep.contains(needle.as_str())
            }
            Predicate::StartsWith(prefix) => record.node_text(node).starts_with(prefix.as_str()),
            Predicate::EndsWith(suffix) => record.node_text(node).ends_with(suffix.as_str()),
        }
    }
}

/// One location step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// True when the step is a descendant-or-self step (`//name`).
    pub descendant: bool,
    /// The name test.
    pub name: NameTest,
    /// Predicates applied in order.
    pub predicates: Vec<Predicate>,
}

/// What the expression finally selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selector {
    /// The matched nodes themselves.
    Elements,
    /// Their direct text (`.../text()`).
    Text,
    /// An attribute value (`.../@name`).
    Attribute(String),
}

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpr {
    /// The location steps, applied from the document root.
    pub steps: Vec<Step>,
    /// The terminal selector.
    pub selector: Selector,
}

impl PathExpr {
    /// Parse an expression such as `//dc:subject[contains(text(), 'nuclei')]/text()`.
    pub fn parse(input: &str) -> Result<PathExpr> {
        let input = input.trim();
        if input.is_empty() || !input.starts_with('/') {
            return Err(XmlError::BadPathExpression(input.to_string()));
        }
        let mut steps = Vec::new();
        let mut selector = Selector::Elements;
        let mut rest = input;

        while !rest.is_empty() {
            let descendant = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                true
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                false
            } else {
                return Err(XmlError::BadPathExpression(input.to_string()));
            };
            if rest.is_empty() {
                return Err(XmlError::BadPathExpression(input.to_string()));
            }
            // terminal selectors
            if let Some(r) = rest.strip_prefix("text()") {
                if !r.is_empty() || steps.is_empty() {
                    return Err(XmlError::BadPathExpression(input.to_string()));
                }
                selector = Selector::Text;
                break;
            }
            if let Some(r) = rest.strip_prefix('@') {
                let name: String = r
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == ':' || *c == '_' || *c == '-')
                    .collect();
                let remainder = &r[name.len()..];
                if name.is_empty() || !remainder.is_empty() || steps.is_empty() {
                    return Err(XmlError::BadPathExpression(input.to_string()));
                }
                selector = Selector::Attribute(name);
                break;
            }
            // a normal step: name test then predicates
            let name_len = rest
                .char_indices()
                .take_while(|(_, c)| {
                    c.is_alphanumeric()
                        || *c == ':'
                        || *c == '_'
                        || *c == '-'
                        || *c == '.'
                        || *c == '*'
                })
                .map(|(i, c)| i + c.len_utf8())
                .last()
                .unwrap_or(0);
            if name_len == 0 {
                return Err(XmlError::BadPathExpression(input.to_string()));
            }
            let raw_name = &rest[..name_len];
            rest = &rest[name_len..];
            let name = if raw_name == "*" {
                NameTest::Any
            } else if raw_name.contains('*') {
                return Err(XmlError::BadPathExpression(input.to_string()));
            } else {
                NameTest::Named(raw_name.to_string())
            };

            let mut predicates = Vec::new();
            while rest.starts_with('[') {
                let end = predicate_end(rest)
                    .ok_or_else(|| XmlError::BadPathExpression(input.to_string()))?;
                let body = &rest[1..end];
                predicates.push(Self::parse_predicate(body, input)?);
                rest = &rest[end + 1..];
            }
            steps.push(Step { descendant, name, predicates });
        }

        if steps.is_empty() {
            return Err(XmlError::BadPathExpression(input.to_string()));
        }
        Ok(PathExpr { steps, selector })
    }

    fn parse_predicate(body: &str, whole: &str) -> Result<Predicate> {
        let body = body.trim();
        if body == "last()" {
            return Ok(Predicate::Last);
        }
        if let Ok(n) = body.parse::<usize>() {
            if n == 0 {
                return Err(XmlError::BadPathExpression(whole.to_string()));
            }
            return Ok(Predicate::Position(n));
        }
        if let Some(attr) = body.strip_prefix('@') {
            if let Some((name, value)) = attr.split_once('=') {
                let value = value.trim().trim_matches('\'').trim_matches('"');
                return Ok(Predicate::AttrEquals {
                    name: name.trim().to_string(),
                    value: value.to_string(),
                });
            }
            return Ok(Predicate::HasAttr(attr.trim().to_string()));
        }
        if let Some(inner) = body.strip_prefix("contains(").and_then(|b| b.strip_suffix(')')) {
            let (target, needle) = inner
                .split_once(',')
                .ok_or_else(|| XmlError::BadPathExpression(whole.to_string()))?;
            let needle = needle.trim().trim_matches('\'').trim_matches('"').to_string();
            return match target.trim() {
                "text()" => Ok(Predicate::ContainsText(needle)),
                "." => Ok(Predicate::ContainsDeep(needle)),
                _ => Err(XmlError::BadPathExpression(whole.to_string())),
            };
        }
        if let Some(inner) = body.strip_prefix("starts-with(").and_then(|b| b.strip_suffix(')')) {
            let (target, prefix) = inner
                .split_once(',')
                .ok_or_else(|| XmlError::BadPathExpression(whole.to_string()))?;
            if target.trim() != "text()" {
                return Err(XmlError::BadPathExpression(whole.to_string()));
            }
            let prefix = prefix.trim().trim_matches('\'').trim_matches('"').to_string();
            return Ok(Predicate::StartsWith(prefix));
        }
        if let Some(inner) = body.strip_prefix("ends-with(").and_then(|b| b.strip_suffix(')')) {
            let (target, suffix) = inner
                .split_once(',')
                .ok_or_else(|| XmlError::BadPathExpression(whole.to_string()))?;
            if target.trim() != "text()" {
                return Err(XmlError::BadPathExpression(whole.to_string()));
            }
            let suffix = suffix.trim().trim_matches('\'').trim_matches('"').to_string();
            return Ok(Predicate::EndsWith(suffix));
        }
        Err(XmlError::BadPathExpression(whole.to_string()))
    }

    /// The nodes of `record`'s layout the steps locate, in the order they are found
    /// (regardless of the terminal selector).  A `//` step reaches a node once through
    /// each located ancestor, so a node may repeat, and the positional predicates
    /// count it each time.
    pub fn eval(&self, record: &DublinCore) -> Vec<Node> {
        let mut current = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            let mut next = Vec::new();
            let mut reach = |node: Node| {
                if step.descendant {
                    record.each_node(node, &mut |n| next.push(n));
                } else {
                    next.push(node);
                }
            };
            if i == 0 {
                // The document node's only child is the root.
                reach(Node::Root);
            } else {
                current.iter().flat_map(|&node| record.node_children(node)).for_each(&mut reach);
            }
            // Name first, so positional predicates (`last()` included) count only the
            // nodes the name test keeps; every predicate sees the same positions.
            next.retain(|&node| step.name.matches(record, node));
            let total = next.len();
            let mut position = 0;
            next.retain(|&node| {
                position += 1;
                step.predicates.iter().all(|p| p.keep(record, node, position, total))
            });
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// True when the expression locates at least one node of `record`.
    pub fn matches(&self, record: &DublinCore) -> bool {
        !self.eval(record).is_empty()
    }
}

/// The byte offset of the `]` that closes the predicate `rest` opens, skipping any
/// inside a quoted argument.
fn predicate_end(rest: &str) -> Option<usize> {
    let mut quote = None;
    let end = rest.char_indices().find(|&(_, c)| match quote {
        Some(open) => {
            if c == open {
                quote = None;
            }
            false
        }
        None if c == '\'' || c == '"' => {
            quote = Some(c);
            false
        }
        None => c == ']',
    });
    end.map(|(at, _)| at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DublinCore {
        DublinCore::new()
            .title("Cleavage site")
            .subject("protease")
            .subject("influenza")
            .description("observed protease motif near residue 340")
            .user_tag("confidence", "high")
            .user_tag("lab", "SDSC")
    }

    /// The direct text of each node `path` locates in [`record`].
    fn texts(path: &str) -> Vec<String> {
        let record = record();
        let nodes = PathExpr::parse(path).unwrap().eval(&record);
        nodes.iter().map(|&node| record.node_text(node).to_owned()).collect()
    }

    fn matches(path: &str) -> bool {
        PathExpr::parse(path).unwrap().matches(&record())
    }

    #[test]
    fn absolute_child_path() {
        assert_eq!(texts("/annotation/dc:title/text()"), ["Cleavage site"]);
    }

    #[test]
    fn descendant_step() {
        assert_eq!(texts("//confidence/text()"), ["high"]);
        assert_eq!(texts("//dc:subject"), ["protease", "influenza"]);
    }

    #[test]
    fn wildcard_step() {
        let e = PathExpr::parse("/annotation/*").unwrap();
        let tail = [Node::Field(3), Node::Tags];
        assert_eq!(e.eval(&record())[3..], tail);
        assert_eq!(
            PathExpr::parse("/*/*/*").unwrap().eval(&record()),
            [Node::Tag(0), Node::Tag(1)]
        );
    }

    #[test]
    fn positional_predicate() {
        assert_eq!(texts("/annotation/dc:subject[2]/text()"), ["influenza"]);
        assert_eq!(texts("/annotation/dc:subject[1]/text()"), ["protease"]);
    }

    #[test]
    fn last_predicate() {
        assert_eq!(texts("/annotation/dc:subject[last()]/text()"), ["influenza"]);
        // with a single match, last() == the only one
        assert_eq!(texts("/annotation/dc:title[last()]/text()"), ["Cleavage site"]);
    }

    #[test]
    fn a_descendant_step_reaches_a_node_through_each_located_ancestor() {
        // `lab` is below both the root and `tags`, so `//*//lab` finds it twice.
        assert_eq!(texts("//*//lab"), ["SDSC", "SDSC"]);
        assert!(matches("//*//lab[2]"));
        assert!(!matches("//lab[2]"));
    }

    #[test]
    fn attribute_predicates_never_hold_and_the_selector_is_kept() {
        let e = PathExpr::parse("/annotation/dc:title/@lang").unwrap();
        assert_eq!(e.selector, Selector::Attribute("lang".into()));
        assert!(e.matches(&record()));
        assert!(!matches("/annotation[@id='a1']"));
        assert!(!matches("//dc:title[@lang]"));
        assert!(!matches("//*[@*]"));
    }

    #[test]
    fn contains_predicates() {
        assert_eq!(texts("//dc:subject[contains(text(), 'prote')]"), ["protease"]);
        // an inner node has no direct text; its deep text runs across its leaves
        assert!(!matches("//tags[contains(text(), 'high')]"));
        assert!(matches("//tags[contains(., 'high')]"));
        assert!(matches("/annotation[contains(., '340highSDSC')]"));
    }

    #[test]
    fn element_selector_locates_the_inner_node() {
        let e = PathExpr::parse("/annotation/tags").unwrap();
        assert_eq!(e.selector, Selector::Elements);
        assert_eq!(e.eval(&record()), [Node::Tags]);
        assert!(!PathExpr::parse("/annotation/tags").unwrap().matches(&DublinCore::new()));
    }

    #[test]
    fn no_match_returns_empty() {
        let e = PathExpr::parse("/nothing/here").unwrap();
        assert!(e.eval(&record()).is_empty());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "annotation",
            "/",
            "//",
            "/a/[1]",
            "/a[contains(foo, 'x')]",
            "/a[unclosed",
            "/a[contains(text(), 'unclosed]",
            "/a[0]",
            "/text()",
            "/@id",
            "/a*b",
        ] {
            assert!(PathExpr::parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn a_quoted_bracket_does_not_end_the_predicate() {
        for (path, needle) in [
            ("//dc:title[contains(text(), 'a]b')]", "a]b"),
            (r#"//dc:title[contains(text(), "]")]"#, "]"),
            (r#"//dc:title[contains(text(), "it's]")]"#, "it's]"),
        ] {
            let e = PathExpr::parse(path).unwrap();
            assert_eq!(e.steps[0].predicates, [Predicate::ContainsText(needle.into())], "{path}");
        }
        let content = DublinCore::new().title("x a]b y");
        assert!(PathExpr::parse("//dc:title[contains(text(), 'a]b')][1]")
            .unwrap()
            .matches(&content));
    }

    #[test]
    fn starts_and_ends_with() {
        assert!(matches("//dc:title[starts-with(text(), 'Cleav')]"));
        assert!(!matches("//dc:title[starts-with(text(), 'zzz')]"));
        assert_eq!(texts("//dc:subject[ends-with(text(), 'ase')]/text()"), ["protease"]);
        // ends-with on a non-text() target is rejected
        assert!(PathExpr::parse("//dc:title[ends-with(., 'x')]").is_err());
    }

    #[test]
    fn combined_descendant_with_predicate_and_text() {
        assert_eq!(texts("//dc:subject[contains(text(), 'influenza')]/text()"), ["influenza"]);
    }

    #[test]
    fn first_step_must_match_root_name() {
        assert!(!matches("/wrongroot/dc:title"));
        assert!(matches("/*/dc:title"));
    }
}
