//! The XML element tree used for annotation contents.
//!
//! The model is deliberately simple: a [`Document`] wraps a root [`Element`]; an element
//! has a name, ordered attributes and ordered child [`XmlNode`]s (elements, text or
//! comments).  Namespaces are carried as literal prefixes in names (`dc:creator`), which
//! is exactly how the paper's annotation documents use Dublin Core.

/// Split text into the tokens the keyword index stores: maximal runs of alphanumerics
/// plus `.` `_` `-`.  Every consumer of the keyword index (document indexing, phrase
/// search, per-document probes, the query planner's document-frequency estimates) must
/// tokenize through this one function so their notions of "keyword" can never drift
/// apart.  Lowercasing is the caller's concern.
pub fn keyword_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric() && c != '.' && c != '_' && c != '-')
        .filter(|t| !t.is_empty())
}

/// A node in an element's child list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A nested element.
    Element(Element),
    /// A text run (entity references already resolved).
    Text(String),
    /// A comment (`<!-- ... -->`), preserved for round-tripping.
    Comment(String),
}

impl XmlNode {
    /// The nested element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The text content, if this node is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            XmlNode::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: name, attributes and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Element name, possibly prefixed (`dc:title`).
    pub name: String,
    /// Attributes in document order as `(name, value)` pairs.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder-style: add a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Builder-style: add an element child.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Add an element child in place and return a mutable reference to it.
    pub fn push_child(&mut self, child: Element) -> &mut Element {
        self.children.push(XmlNode::Element(child));
        match self.children.last_mut() {
            Some(XmlNode::Element(e)) => e,
            _ => unreachable!("just pushed an element"),
        }
    }

    /// Add a text child in place.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(XmlNode::Text(text.into()));
    }

    /// Value of an attribute, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Set (or replace) an attribute value.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Direct element children.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// First direct child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All direct child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// The concatenated text of this element's direct text children (not descendants).
    pub fn text(&self) -> String {
        self.children.iter().filter_map(XmlNode::as_text).collect::<Vec<_>>().join("")
    }

    /// The concatenated text of this element and all descendants, in document order.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                XmlNode::Text(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
                XmlNode::Comment(_) => {}
            }
        }
    }

    /// Depth-first iterator over this element and every descendant element.
    pub fn descendants(&self) -> Vec<&Element> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Element, out: &mut Vec<&'a Element>) {
            out.push(e);
            for c in e.child_elements() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Number of elements in the subtree rooted here (including `self`).
    pub fn element_count(&self) -> usize {
        1 + self.child_elements().map(Element::element_count).sum::<usize>()
    }

    /// Serialize this element (and its subtree) to a string.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    fn write_xml(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                XmlNode::Element(e) => e.write_xml(out),
                XmlNode::Text(t) => out.push_str(&escape(t)),
                XmlNode::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

/// A parsed annotation document: the root element (a prolog, if present, is discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The root element.
    pub root: Element,
}

impl Document {
    /// Wrap a root element into a document.
    pub fn new(root: Element) -> Self {
        Document { root }
    }

    /// Serialize to an XML string with a standard prolog.
    pub fn to_xml(&self) -> String {
        format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>{}", self.root.to_xml())
    }

    /// All text anywhere in the document, lowercased and split into keywords — feeds
    /// the content store's keyword index.  Tokens are extracted per text node so that
    /// words from adjacent elements never merge into one keyword.
    pub fn keywords(&self) -> Vec<String> {
        fn walk(element: &Element, words: &mut Vec<String>) {
            for child in &element.children {
                match child {
                    XmlNode::Text(t) => {
                        for w in keyword_tokens(&t.to_lowercase()) {
                            words.push(w.to_string());
                        }
                    }
                    XmlNode::Element(e) => walk(e, words),
                    XmlNode::Comment(_) => {}
                }
            }
        }
        let mut words = Vec::new();
        walk(&self.root, &mut words);
        words.sort();
        words.dedup();
        words
    }
}

/// Escape the five predefined XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("annotation")
            .with_attr("id", "ann-1")
            .with_child(Element::new("dc:title").with_text("cleavage site"))
            .with_child(Element::new("dc:creator").with_text("condit"))
            .with_child(
                Element::new("body")
                    .with_attr("lang", "en")
                    .with_text("polybasic cleavage site in HA ")
                    .with_child(Element::new("em").with_text("protease")),
            )
    }

    #[test]
    fn builders_and_accessors() {
        let e = sample();
        assert_eq!(e.name, "annotation");
        assert_eq!(e.attr("id"), Some("ann-1"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.child("dc:title").unwrap().text(), "cleavage site");
        assert_eq!(e.children_named("dc:creator").count(), 1);
        assert_eq!(e.child_elements().count(), 3);
        assert_eq!(e.element_count(), 5);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("x").with_attr("a", "1");
        e.set_attr("a", "2");
        e.set_attr("b", "3");
        assert_eq!(e.attr("a"), Some("2"));
        assert_eq!(e.attr("b"), Some("3"));
        assert_eq!(e.attributes.len(), 2);
    }

    #[test]
    fn text_vs_deep_text() {
        let e = sample();
        let body = e.child("body").unwrap();
        assert_eq!(body.text(), "polybasic cleavage site in HA ");
        assert_eq!(body.deep_text(), "polybasic cleavage site in HA protease");
        assert!(e.deep_text().contains("condit"));
    }

    #[test]
    fn descendants_walk() {
        let e = sample();
        let names: Vec<&str> = e.descendants().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["annotation", "dc:title", "dc:creator", "body", "em"]);
    }

    #[test]
    fn serialization_escapes() {
        let e = Element::new("note").with_attr("q", "a<b & \"c\"").with_text("x < y & z");
        let xml = e.to_xml();
        assert_eq!(xml, "<note q=\"a&lt;b &amp; &quot;c&quot;\">x &lt; y &amp; z</note>");
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(Element::new("br").to_xml(), "<br/>");
    }

    #[test]
    fn document_keywords() {
        let doc = Document::new(sample());
        let kw = doc.keywords();
        assert!(kw.contains(&"protease".to_string()));
        assert!(kw.contains(&"cleavage".to_string()));
        assert!(kw.contains(&"condit".to_string()));
        // deduplicated and lowercased
        assert!(kw.iter().all(|w| w.chars().all(|c| !c.is_uppercase())));
        let mut sorted = kw.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(kw, sorted);
    }

    #[test]
    fn document_to_xml_has_prolog() {
        let doc = Document::new(Element::new("a"));
        assert!(doc.to_xml().starts_with("<?xml"));
        assert!(doc.to_xml().ends_with("<a/>"));
    }

    #[test]
    fn push_child_returns_mutable_handle() {
        let mut e = Element::new("root");
        {
            let child = e.push_child(Element::new("k"));
            child.push_text("v");
        }
        assert_eq!(e.child("k").unwrap().text(), "v");
    }
}
