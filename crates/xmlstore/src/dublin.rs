//! Dublin Core support.
//!
//! The paper specifies that annotation contents are XML documents "whose elements
//! consist of Dublin core attributes and other user-defined tags".  [`DublinCore`] is a
//! typed builder for the fifteen DCMES elements plus free-form user tags; it produces
//! (and can be recovered from) the [`Element`] tree the content store persists.

use crate::model::{Document, Element};

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

    /// Add a Dublin Core field. Unknown element names are accepted but flagged by
    /// [`is_core_element`].
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

    /// Convenience: set `dc:date` (ISO-8601 string; Graphitti does not interpret it).
    pub fn date(self, value: impl Into<String>) -> Self {
        self.field("date", value)
    }

    /// First value of a Dublin Core element, if present.
    pub fn get(&self, element: &str) -> Option<&str> {
        self.fields.iter().find(|(e, _)| e == element).map(|(_, v)| v.as_str())
    }

    /// All values of a Dublin Core element.
    pub fn get_all(&self, element: &str) -> Vec<&str> {
        self.fields.iter().filter(|(e, _)| e == element).map(|(_, v)| v.as_str()).collect()
    }

    /// Whether an element name belongs to the DCMES fifteen.
    pub fn is_core_element(element: &str) -> bool {
        DC_ELEMENTS.contains(&element)
    }

    /// Render as the `<annotation>` document layout Graphitti stores:
    /// `dc:*` children first, then a `<tags>` section of user-defined tags.
    pub fn to_document(&self) -> Document {
        let mut root = Element::new("annotation");
        for (e, v) in &self.fields {
            root.children.push(crate::model::XmlNode::Element(
                Element::new(format!("dc:{e}")).with_text(v.clone()),
            ));
        }
        if !self.user_tags.is_empty() {
            let mut tags = Element::new("tags");
            for (t, v) in &self.user_tags {
                tags.children.push(crate::model::XmlNode::Element(
                    Element::new(t.clone()).with_text(v.clone()),
                ));
            }
            root.children.push(crate::model::XmlNode::Element(tags));
        }
        Document::new(root)
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
                    dc.user_tags.push((tag.name.clone(), tag.text()));
                }
            } else {
                dc.user_tags.push((child.name.clone(), child.text()));
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
            .date("2008-02-11")
            .user_tag("confidence", "high")
            .user_tag("lab", "SDSC")
    }

    #[test]
    fn builder_and_getters() {
        let dc = sample();
        assert_eq!(dc.get("title"), Some("Cleavage site in HA"));
        assert_eq!(dc.get("subject"), Some("protease"));
        assert_eq!(dc.get_all("subject"), vec!["protease", "influenza"]);
        assert_eq!(dc.get("missing"), None);
        assert_eq!(dc.user_tags.len(), 2);
    }

    #[test]
    fn core_element_membership() {
        assert!(DublinCore::is_core_element("title"));
        assert!(DublinCore::is_core_element("rights"));
        assert!(!DublinCore::is_core_element("confidence"));
        assert_eq!(DC_ELEMENTS.len(), 15);
    }

    #[test]
    fn document_roundtrip() {
        let dc = sample();
        let doc = dc.to_document();
        assert_eq!(doc.root.name, "annotation");
        assert_eq!(doc.root.child("dc:title").unwrap().text(), "Cleavage site in HA");
        assert_eq!(doc.root.child("tags").unwrap().child_elements().count(), 2);
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
    fn empty_record_document() {
        let dc = DublinCore::new();
        let doc = dc.to_document();
        assert_eq!(doc.root.child_elements().count(), 0);
        assert_eq!(DublinCore::from_document(&doc), dc);
    }
}
