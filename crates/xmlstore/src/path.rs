//! An XPath/XQuery-lite path-expression engine.
//!
//! Graphitti's query processor embeds "XQuery fragments to retrieve fragments of
//! annotation" and substring conditions on annotation contents.  This module implements
//! the required subset:
//!
//! * absolute paths with child (`/name`) and descendant-or-self (`//name`) steps,
//! * the wildcard step `*`,
//! * predicates: positional (`[2]`), attribute equality (`[@id='a1']`),
//!   `contains(text(), 'word')` and `contains(., 'word')` (deep text),
//! * terminal selectors `text()` and `@attr` (parsed and kept in the query's canonical
//!   form; a match is decided by the elements the steps locate).
//!
//! ```
//! use xmlstore::{parse_document, PathExpr};
//!
//! let doc = parse_document("<annotation><dc:subject>protease</dc:subject></annotation>").unwrap();
//! assert!(PathExpr::parse("//dc:subject[contains(text(), 'prote')]").unwrap().matches(&doc));
//! assert!(!PathExpr::parse("/annotation/dc:title/text()").unwrap().matches(&doc));
//! ```

use crate::error::XmlError;
use crate::model::{Document, Element};
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
    fn matches(&self, element: &Element) -> bool {
        match self {
            NameTest::Any => true,
            NameTest::Named(n) => element.name == n.as_str(),
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
    /// `[@name='value']` — attribute equality.
    AttrEquals {
        /// Attribute name.
        name: String,
        /// Required value.
        value: String,
    },
    /// `[@name]` — attribute existence.
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
    fn keep(&self, element: &Element, position: usize, total: usize) -> bool {
        match self {
            Predicate::Position(n) => position == *n,
            Predicate::Last => position == total,
            Predicate::AttrEquals { name, value } => element.attr(name) == Some(value.as_str()),
            Predicate::HasAttr(name) => element.attr(name).is_some(),
            Predicate::ContainsText(needle) => element.text().contains(needle),
            Predicate::ContainsDeep(needle) => element.deep_text().contains(needle),
            Predicate::StartsWith(prefix) => element.text().starts_with(prefix.as_str()),
            Predicate::EndsWith(suffix) => element.text().ends_with(suffix.as_str()),
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
    /// The matched elements themselves.
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
                let end =
                    rest.find(']').ok_or_else(|| XmlError::BadPathExpression(input.to_string()))?;
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

    /// Evaluate the expression, returning the matched elements (regardless of the
    /// terminal selector).
    pub(crate) fn eval_elements<'a>(&self, doc: &'a Document) -> Vec<&'a Element> {
        // The virtual root has the document root as its only child.
        let mut current: Vec<&Element> = vec![&doc.root];
        for (i, step) in self.steps.iter().enumerate() {
            let candidates: Vec<&Element> = if i == 0 {
                // First step matches against the root element itself (child of the
                // virtual document node), or any descendant for `//`.
                if step.descendant {
                    doc.root.descendants()
                } else {
                    vec![&doc.root]
                }
            } else {
                let mut next = Vec::new();
                for element in &current {
                    if step.descendant {
                        for d in element.descendants() {
                            if !std::ptr::eq(d, *element) {
                                next.push(d);
                            }
                        }
                    } else {
                        next.extend(element.child_elements());
                    }
                }
                next
            };
            // First restrict to name-matching candidates so positional predicates
            // (including `last()`) see the right total.
            let named: Vec<&Element> =
                candidates.into_iter().filter(|e| step.name.matches(e)).collect();
            let total = named.len();
            let mut matched: Vec<&Element> = Vec::new();
            for (i, candidate) in named.into_iter().enumerate() {
                let position = i + 1;
                if step.predicates.iter().all(|p| p.keep(candidate, position, total)) {
                    matched.push(candidate);
                }
            }
            current = matched;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// True when the expression matches at least one node of the document.
    pub fn matches(&self, doc: &Document) -> bool {
        !self.eval_elements(doc).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn doc() -> Document {
        parse_document(
            r#"<annotation id="a1">
                 <dc:title>Cleavage site</dc:title>
                 <dc:subject>protease</dc:subject>
                 <dc:subject>influenza</dc:subject>
                 <body lang="en">observed <em>protease</em> motif near residue 340</body>
                 <tags><confidence>high</confidence></tags>
               </annotation>"#,
        )
        .unwrap()
    }

    /// The direct text of each element `path` matches in [`doc`].
    fn texts(path: &str) -> Vec<String> {
        PathExpr::parse(path).unwrap().eval_elements(&doc()).iter().map(|e| e.text()).collect()
    }

    #[test]
    fn absolute_child_path() {
        assert_eq!(texts("/annotation/dc:title/text()"), ["Cleavage site"]);
    }

    #[test]
    fn descendant_step() {
        assert_eq!(texts("//confidence/text()"), ["high"]);
        let e2 = PathExpr::parse("//dc:subject").unwrap();
        assert_eq!(e2.eval_elements(&doc()).len(), 2);
    }

    #[test]
    fn wildcard_step() {
        let e = PathExpr::parse("/annotation/*").unwrap();
        assert_eq!(e.eval_elements(&doc()).len(), 5);
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
    fn attribute_predicates_and_selector() {
        let e = PathExpr::parse("/annotation[@id='a1']/body/@lang").unwrap();
        assert_eq!(e.selector, Selector::Attribute("lang".into()));
        let d = doc();
        let bodies = e.eval_elements(&d);
        assert_eq!(bodies.iter().map(|b| b.attr("lang")).collect::<Vec<_>>(), [Some("en")]);
        let missing = PathExpr::parse("/annotation[@id='zzz']").unwrap();
        assert!(!missing.matches(&doc()));
        let has = PathExpr::parse("//body[@lang]").unwrap();
        assert!(has.matches(&doc()));
        let hasnt = PathExpr::parse("//body[@dir]").unwrap();
        assert!(!hasnt.matches(&doc()));
    }

    #[test]
    fn contains_predicates() {
        let direct = PathExpr::parse("//dc:subject[contains(text(), 'prote')]").unwrap();
        assert_eq!(direct.eval_elements(&doc()).len(), 1);
        // body's direct text does not include the <em> child, deep text does
        let shallow = PathExpr::parse("//body[contains(text(), 'protease')]").unwrap();
        assert!(!shallow.matches(&doc()));
        let deep = PathExpr::parse("//body[contains(., 'protease')]").unwrap();
        assert!(deep.matches(&doc()));
    }

    #[test]
    fn element_selector_returns_xml() {
        let e = PathExpr::parse("/annotation/tags").unwrap();
        assert_eq!(e.selector, Selector::Elements);
        let d = doc();
        let elements = e.eval_elements(&d);
        assert_eq!(elements.len(), 1);
        assert!(elements[0].to_xml().starts_with("<tags>"));
    }

    #[test]
    fn no_match_returns_empty() {
        let e = PathExpr::parse("/nothing/here").unwrap();
        assert!(e.eval_elements(&doc()).is_empty());
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
            "/a[0]",
            "/text()",
            "/@id",
            "/a*b",
        ] {
            assert!(PathExpr::parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn starts_and_ends_with() {
        let starts = PathExpr::parse("//dc:title[starts-with(text(), 'Cleav')]").unwrap();
        assert!(starts.matches(&doc()));
        let not_starts = PathExpr::parse("//dc:title[starts-with(text(), 'zzz')]").unwrap();
        assert!(!not_starts.matches(&doc()));
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
        let e = PathExpr::parse("/wrongroot/dc:title").unwrap();
        assert!(!e.matches(&doc()));
        let any = PathExpr::parse("/*/dc:title").unwrap();
        assert!(any.matches(&doc()));
    }
}
