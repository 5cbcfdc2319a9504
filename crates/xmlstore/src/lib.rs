//! # xmlstore — the annotation-content store
//!
//! In Graphitti every annotation content is an XML document "whose elements consist of
//! Dublin Core attributes and other user-defined tags"; the collection of all
//! annotations constitutes a database of XML documents searched with XQuery.
//!
//! Here an annotation's content is its Dublin Core record, and the document is that
//! record read through one fixed layout: an `annotation` root holding a `dc:*` leaf per
//! field, then — when the record has user tags — a `tags` element holding a leaf per
//! tag.  No element has an attribute.  The crate is that model and what searches it:
//!
//! * [`dublin`] — the Dublin Core element set, the record ([`DublinCore`], one shared
//!   heap block) and its layout ([`Node`]);
//! * [`path`] — an XPath/XQuery-lite path-expression engine over the layout (child /
//!   descendant steps, wildcards, positional, attribute and text predicates);
//! * [`store`] — the document collection with keyword and element-path inverted
//!   indexes, which is what Graphitti core commits annotation contents into.

pub mod dublin;
pub mod error;
pub mod path;
pub mod store;

pub use dublin::{dc_element_position, DublinCore, Entries, Entry, Node, DC_ELEMENTS};
pub use error::XmlError;
pub use path::{NameTest, PathExpr, Predicate, Selector, Step};
pub use store::{keyword_tokens, ContentProbe, ContentStore, DocId};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, XmlError>;
