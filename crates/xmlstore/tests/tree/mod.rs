//! The element tree annotation contents were stored as before a content document
//! became its record, with the evaluator that walked it: the oracle `prop_xml` holds
//! [`PathExpr::eval`] to.  It shares no code with the crate's evaluator — it builds the
//! tree from the record's [`Model`] and matches the parsed expression's public
//! variants itself.

use xmlstore::{NameTest, PathExpr, Predicate};

use crate::model::Model;

/// A node in an element's child list.
pub enum XmlNode {
    /// A nested element.
    Element(Element),
    /// A text run.
    Text(String),
}

/// An XML element: name, attributes and children.
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl Element {
    fn new(name: impl Into<String>, children: Vec<XmlNode>) -> Element {
        Element { name: name.into(), attributes: Vec::new(), children }
    }

    fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|child| match child {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The concatenated text of this element's direct text children.
    fn text(&self) -> String {
        let texts = self.children.iter().filter_map(|child| match child {
            XmlNode::Text(t) => Some(t.as_str()),
            XmlNode::Element(_) => None,
        });
        texts.collect()
    }

    /// The concatenated text of this element and all descendants, in document order.
    fn deep_text(&self) -> String {
        let mut out = String::new();
        fn collect(element: &Element, out: &mut String) {
            for child in &element.children {
                match child {
                    XmlNode::Text(t) => out.push_str(t),
                    XmlNode::Element(e) => collect(e, out),
                }
            }
        }
        collect(self, &mut out);
        out
    }

    /// This element and every descendant element, depth first.
    pub fn descendants(&self) -> Vec<&Element> {
        let mut out = vec![self];
        for child in self.child_elements() {
            out.extend(child.descendants());
        }
        out
    }
}

/// The `<annotation>` document of a record: `dc:*` children first, then a `<tags>`
/// section of user-defined tags.
pub fn to_document(dc: &Model) -> Element {
    let leaf = |name: String, value: &str| {
        XmlNode::Element(Element::new(name, vec![XmlNode::Text(value.to_owned())]))
    };
    let mut children: Vec<XmlNode> =
        dc.fields.iter().map(|(field, value)| leaf(format!("dc:{field}"), value)).collect();
    if !dc.user_tags.is_empty() {
        let tags = dc.user_tags.iter().map(|(tag, value)| leaf(tag.clone(), value)).collect();
        children.push(XmlNode::Element(Element::new("tags", tags)));
    }
    Element::new("annotation", children)
}

fn name_matches(test: &NameTest, element: &Element) -> bool {
    match test {
        NameTest::Any => true,
        NameTest::Named(n) => element.name == *n,
    }
}

fn keep(predicate: &Predicate, element: &Element, position: usize, total: usize) -> bool {
    match predicate {
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

/// The elements `expr` matches in the document rooted at `root`.
pub fn eval_elements<'a>(expr: &PathExpr, root: &'a Element) -> Vec<&'a Element> {
    let mut current: Vec<&Element> = vec![root];
    for (i, step) in expr.steps.iter().enumerate() {
        let candidates: Vec<&Element> = if i == 0 {
            // The first step matches the root itself (the only child of the virtual
            // document node), or any descendant for `//`.
            if step.descendant {
                root.descendants()
            } else {
                vec![root]
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
            candidates.into_iter().filter(|e| name_matches(&step.name, e)).collect();
        let total = named.len();
        let mut matched: Vec<&Element> = Vec::new();
        for (i, candidate) in named.into_iter().enumerate() {
            if step.predicates.iter().all(|p| keep(p, candidate, i + 1, total)) {
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
