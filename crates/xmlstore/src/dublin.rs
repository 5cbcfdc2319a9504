//! Dublin Core support.
//!
//! The paper specifies that annotation contents are XML documents "whose elements
//! consist of Dublin core attributes and other user-defined tags".  [`DublinCore`] is a
//! typed builder for the fifteen DCMES elements plus free-form user tags; it produces
//! (and can be recovered from) the [`Element`] tree the content store persists.

use std::borrow::Cow;

use crate::model::{Document, Element, XmlNode};

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

/// The fifteen elements of the Dublin Core Metadata Element Set, in canonical order.
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

/// A typed Dublin Core record plus user-defined tags, convertible to and from the XML
/// annotation document layout used by Graphitti.
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

    /// Render as the `<annotation>` document layout Graphitti stores:
    /// `dc:*` children first, then a `<tags>` section of user-defined tags.  The
    /// layout's fixed names are `'static`; every text and child list is allocated at
    /// its final size, once.
    pub fn to_document(&self) -> Document {
        fn element(name: Cow<'static, str>, children: Vec<XmlNode>) -> Element {
            Element { name, attributes: Vec::new(), children }
        }
        /// `<name>value</name>`.
        fn leaf(name: Cow<'static, str>, value: &str) -> XmlNode {
            XmlNode::Element(element(name, vec![XmlNode::Text(value.to_owned())]))
        }
        let tags = !self.user_tags.is_empty();
        let mut children = Vec::with_capacity(self.fields.len() + usize::from(tags));
        for (field, value) in &self.fields {
            let name = match dc_element_position(field) {
                Some(at) => Cow::Borrowed(DC_NAMES[at]),
                None => Cow::Owned(["dc:", field].concat()),
            };
            children.push(leaf(name, value));
        }
        if tags {
            let tags = self.user_tags.iter();
            let tags = tags.map(|(tag, value)| leaf(Cow::Owned(tag.clone()), value)).collect();
            children.push(XmlNode::Element(element(Cow::Borrowed("tags"), tags)));
        }
        Document::new(element(Cow::Borrowed("annotation"), children))
    }

    /// Recover a record from a stored annotation document (inverse of
    /// [`to_document`](Self::to_document); unknown children are treated as user tags).
    pub fn from_document(doc: &Document) -> DublinCore {
        let mut dc = DublinCore::new();
        for child in doc.root.child_elements() {
            if let Some(stripped) = child.name.strip_prefix("dc:") {
                dc.fields.push((stripped.to_string(), child.text()));
            } else if child.name == "tags" {
                for tag in child.child_elements() {
                    dc.user_tags.push((tag.name.to_string(), tag.text()));
                }
            } else {
                dc.user_tags.push((child.name.to_string(), child.text()));
            }
        }
        dc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DublinCore {
        DublinCore::new()
            .title("Cleavage site in HA")
            .creator("sandeep")
            .description("polybasic cleavage site suggests high pathogenicity")
            .subject("protease")
            .subject("influenza")
            .field("date", "2008-02-11")
            .user_tag("confidence", "high")
            .user_tag("lab", "SDSC")
    }

    #[test]
    fn builder_and_getters() {
        let dc = sample();
        assert_eq!(dc.get("title"), Some("Cleavage site in HA"));
        assert_eq!(dc.get("subject"), Some("protease"));
        assert_eq!(dc.get("missing"), None);
        assert_eq!(dc.user_tags.len(), 2);
    }

    #[test]
    fn document_roundtrip() {
        let dc = sample();
        let doc = dc.to_document();
        assert_eq!(doc.root.name, "annotation");
        let child = |name: &str| doc.root.child_elements().find(|c| c.name == name).unwrap();
        assert_eq!(child("dc:title").text(), "Cleavage site in HA");
        assert_eq!(child("tags").child_elements().count(), 2);
        let back = DublinCore::from_document(&doc);
        assert_eq!(back, dc);
    }

    #[test]
    fn roundtrip_through_xml_text() {
        let dc = sample();
        let xml = dc.to_document().to_xml();
        let parsed = crate::parse::parse_document(&xml).unwrap();
        let back = DublinCore::from_document(&parsed);
        assert_eq!(back, dc);
    }

    #[test]
    fn unknown_children_become_user_tags() {
        let doc = crate::parse::parse_document(
            "<annotation><dc:title>t</dc:title><extra>v</extra></annotation>",
        )
        .unwrap();
        let dc = DublinCore::from_document(&doc);
        assert_eq!(dc.get("title"), Some("t"));
        assert_eq!(dc.user_tags, vec![("extra".to_string(), "v".to_string())]);
    }

    #[test]
    fn every_dublin_core_name_is_its_prefixed_element() {
        for (element, name) in DC_ELEMENTS.iter().zip(DC_NAMES) {
            assert_eq!(format!("dc:{element}"), name);
        }
        let dc = DublinCore::new().title("t").field("x-local", "v").user_tag("lab", "SDSC");
        let names: Vec<String> =
            dc.to_document().root.descendants().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, ["annotation", "dc:title", "dc:x-local", "tags", "lab"]);
    }

    #[test]
    fn empty_record_document() {
        let dc = DublinCore::new();
        let doc = dc.to_document();
        assert_eq!(doc.root.child_elements().count(), 0);
        assert_eq!(DublinCore::from_document(&doc), dc);
    }
}
