//! The record as two vectors of owned pairs — the representation a record had before
//! it became one block — with the layout read off them directly: the model `prop_xml`
//! holds [`DublinCore`] to.  It shares no code with the crate.

use xmlstore::DublinCore;

/// One builder call: a field or a user tag, with its name and value.
#[derive(Debug, Clone)]
pub enum Op {
    /// `DublinCore::field(name, value)`.
    Field(String, String),
    /// `DublinCore::user_tag(name, value)`.
    Tag(String, String),
}

/// A record as `(name, value)` pairs: the fields, then the user tags, each in the
/// order their builder calls came.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub fields: Vec<(String, String)>,
    pub user_tags: Vec<(String, String)>,
}

impl Model {
    /// The model and the record one builder program makes.
    pub fn build(program: &[Op]) -> (Model, DublinCore) {
        let (mut model, mut record) = (Model::default(), DublinCore::new());
        for op in program {
            record = match op {
                Op::Field(name, value) => {
                    model.fields.push((name.clone(), value.clone()));
                    record.field(name, value)
                }
                Op::Tag(name, value) => {
                    model.user_tags.push((name.clone(), value.clone()));
                    record.user_tag(name, value)
                }
            };
        }
        (model, record)
    }

    /// First value of a field.
    pub fn get(&self, element: &str) -> Option<&str> {
        self.fields.iter().find(|(name, _)| name == element).map(|(_, value)| value.as_str())
    }

    /// Every node of the layout in document order, as `(name, text)`: the root, a
    /// `dc:` leaf per field, then a `tags` node and a leaf per tag when there are tags.
    pub fn nodes(&self) -> Vec<(String, String)> {
        let mut nodes = vec![("annotation".to_owned(), String::new())];
        nodes.extend(self.fields.iter().map(|(name, value)| (format!("dc:{name}"), value.clone())));
        if !self.user_tags.is_empty() {
            nodes.push(("tags".to_owned(), String::new()));
            nodes.extend(self.user_tags.iter().cloned());
        }
        nodes
    }

    /// The text nodes' values in document order.
    pub fn values(&self) -> Vec<&str> {
        self.fields.iter().chain(&self.user_tags).map(|(_, value)| value.as_str()).collect()
    }

    /// The full text: every value in document order, joined.
    pub fn text(&self) -> String {
        self.values().concat()
    }

    /// The text phrase search probes: the full text, lowercased as a whole.
    pub fn lowered_text(&self) -> String {
        self.text().to_lowercase()
    }
}
