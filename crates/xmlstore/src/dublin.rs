//! Dublin Core support, and the document layout an annotation's content has.
//!
//! The paper specifies that annotation contents are XML documents "whose elements
//! consist of Dublin core attributes and other user-defined tags".  [`DublinCore`] is a
//! typed builder for the fifteen DCMES elements plus free-form user tags, and it is
//! the stored content itself: the document a path expression walks is the record read
//! through one fixed layout, whose nodes are [`Node`]s:
//!
//! ```text
//! annotation          Node::Root
//!   dc:<field>        Node::Field(i)   one per fields[i], its value the text
//!   tags              Node::Tags       present iff the record has a user tag
//!     <tag>           Node::Tag(i)     one per user_tags[i], named by the tag
//! ```
//!
//! No node has an attribute, and only a leaf (field or tag) has text.

use std::borrow::Cow;

/// The `dc:`-prefixed element name of each of [`DC_ELEMENTS`], in the same order.
const DC_NAMES: [&str; 15] = [
    "dc:title",
    "dc:creator",
    "dc:subject",
    "dc:description",
    "dc:publisher",
    "dc:contributor",
    "dc:date",
    "dc:type",
    "dc:format",
    "dc:identifier",
    "dc:source",
    "dc:language",
    "dc:relation",
    "dc:coverage",
    "dc:rights",
];

/// The fifteen elements of DCMES, the Dublin Core metadata element set, in canonical order.
pub const DC_ELEMENTS: [&str; 15] = [
    "title",
    "creator",
    "subject",
    "description",
    "publisher",
    "contributor",
    "date",
    "type",
    "format",
    "identifier",
    "source",
    "language",
    "relation",
    "coverage",
    "rights",
];

/// The position of `element` in [`DC_ELEMENTS`], or `None` for any other name.
pub fn dc_element_position(element: &str) -> Option<usize> {
    DC_ELEMENTS.iter().position(|dc| *dc == element)
}

/// A node of a record's document layout (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// `<annotation>`, the document element.
    Root,
    /// The `dc:*` leaf of `fields[i]`.
    Field(usize),
    /// `<tags>`, the parent of the user tags.
    Tags,
    /// The leaf of `user_tags[i]`.
    Tag(usize),
}

/// A typed Dublin Core record plus user-defined tags: an annotation's content, read as
/// a document through the layout of the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DublinCore {
    /// `dc:*` fields as `(element, value)` pairs in insertion order; an element may
    /// repeat (e.g. several subjects).
    pub fields: Vec<(String, String)>,
    /// User-defined tags as `(tag, value)` pairs.
    pub user_tags: Vec<(String, String)>,
}

impl DublinCore {
    /// An empty record.
    pub fn new() -> Self {
        DublinCore::default()
    }

    /// Add a Dublin Core field. Unknown element names are accepted.
    pub fn field(mut self, element: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((element.into(), value.into()));
        self
    }

    /// Add a user-defined tag.
    pub fn user_tag(mut self, tag: impl Into<String>, value: impl Into<String>) -> Self {
        self.user_tags.push((tag.into(), value.into()));
        self
    }

    /// Convenience: set `dc:title`.
    pub fn title(self, value: impl Into<String>) -> Self {
        self.field("title", value)
    }

    /// Convenience: set `dc:creator`.
    pub fn creator(self, value: impl Into<String>) -> Self {
        self.field("creator", value)
    }

    /// Convenience: set `dc:description` (the annotation comment body).
    pub fn description(self, value: impl Into<String>) -> Self {
        self.field("description", value)
    }

    /// Convenience: add a `dc:subject` keyword.
    pub fn subject(self, value: impl Into<String>) -> Self {
        self.field("subject", value)
    }

    /// First value of a Dublin Core element, if present.
    pub fn get(&self, element: &str) -> Option<&str> {
        self.fields.iter().find(|(e, _)| e == element).map(|(_, v)| v.as_str())
    }

    /// The element name of `node`: `annotation`, `dc:<field>`, `tags` or the tag.
    pub(crate) fn node_name(&self, node: Node) -> Cow<'_, str> {
        match node {
            Node::Root => Cow::Borrowed("annotation"),
            Node::Field(i) => {
                let field = &self.fields[i].0;
                match dc_element_position(field) {
                    Some(at) => Cow::Borrowed(DC_NAMES[at]),
                    None => Cow::Owned(["dc:", field].concat()),
                }
            }
            Node::Tags => Cow::Borrowed("tags"),
            Node::Tag(i) => Cow::Borrowed(&self.user_tags[i].0),
        }
    }

    /// The direct text of `node`: a leaf's value; the two inner nodes have none.
    pub(crate) fn node_text(&self, node: Node) -> &str {
        match node {
            Node::Root | Node::Tags => "",
            Node::Field(i) => &self.fields[i].1,
            Node::Tag(i) => &self.user_tags[i].1,
        }
    }

    /// The children of `node`, in document order.
    pub(crate) fn node_children(&self, node: Node) -> impl Iterator<Item = Node> {
        let (fields, tags, tag_leaves) = match node {
            Node::Root => (self.fields.len(), !self.user_tags.is_empty(), 0),
            Node::Tags => (0, false, self.user_tags.len()),
            Node::Field(_) | Node::Tag(_) => (0, false, 0),
        };
        let fields = (0..fields).map(Node::Field);
        fields.chain(tags.then_some(Node::Tags)).chain((0..tag_leaves).map(Node::Tag))
    }

    /// Visit `node` and every node below it, in document order.
    pub(crate) fn each_node(&self, node: Node, visit: &mut impl FnMut(Node)) {
        visit(node);
        for child in self.node_children(node) {
            self.each_node(child, visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_getters() {
        let dc = DublinCore::new()
            .title("Cleavage site in HA")
            .creator("sandeep")
            .subject("protease")
            .subject("influenza")
            .user_tag("confidence", "high")
            .user_tag("lab", "SDSC");
        assert_eq!(dc.get("title"), Some("Cleavage site in HA"));
        assert_eq!(dc.get("subject"), Some("protease"));
        assert_eq!(dc.get("missing"), None);
        assert_eq!(dc.user_tags.len(), 2);
    }

    /// Every node of `dc` in document order, as `(name, text)`.
    fn layout(dc: &DublinCore) -> Vec<(String, String)> {
        let mut nodes = Vec::new();
        dc.each_node(Node::Root, &mut |node| {
            nodes.push((dc.node_name(node).into_owned(), dc.node_text(node).to_owned()))
        });
        nodes
    }

    #[test]
    fn every_dublin_core_name_is_its_prefixed_element() {
        for (element, name) in DC_ELEMENTS.iter().zip(DC_NAMES) {
            assert_eq!(format!("dc:{element}"), name);
        }
        let dc = DublinCore::new().title("t").field("x-local", "").user_tag("lab", "SDSC");
        let pairs = |nodes: &[(&str, &str)]| -> Vec<(String, String)> {
            nodes.iter().map(|&(n, t)| (n.to_owned(), t.to_owned())).collect()
        };
        assert_eq!(
            layout(&dc),
            pairs(&[
                ("annotation", ""),
                ("dc:title", "t"),
                ("dc:x-local", ""),
                ("tags", ""),
                ("lab", "SDSC")
            ])
        );
        // No user tag, no `tags` node; an empty record is its root alone.
        assert_eq!(
            layout(&DublinCore::new().title("t")),
            pairs(&[("annotation", ""), ("dc:title", "t")])
        );
        assert_eq!(layout(&DublinCore::new()), pairs(&[("annotation", "")]));
    }
}
