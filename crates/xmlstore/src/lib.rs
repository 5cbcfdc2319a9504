//! # xmlstore — the annotation-content store
//!
//! In Graphitti every annotation content is an XML document "whose elements consist of
//! Dublin Core attributes and other user-defined tags"; the collection of all
//! annotations constitutes a database of XML documents searched with XQuery.
//!
//! This crate provides the pieces of that story, built from scratch:
//!
//! * [`model`] — an XML element tree ([`Element`], [`XmlNode`]) with a serializer;
//! * [`parse`] — a small, strict XML parser (elements, attributes, text, comments,
//!   CDATA, entity references) sufficient for annotation documents;
//! * [`dublin`] — the Dublin Core element set and a typed builder for annotation
//!   documents;
//! * [`path`] — an XPath/XQuery-lite path-expression engine (child / descendant steps,
//!   wildcards, attribute and text tests, positional and `contains()` predicates);
//! * [`store`] — the document collection with keyword and element-path inverted
//!   indexes, which is what Graphitti core commits annotation contents into.

pub mod dublin;
pub mod error;
pub mod model;
pub mod parse;
pub mod path;
pub mod store;

pub use dublin::DublinCore;
pub use error::XmlError;
pub use model::{keyword_tokens, Document, Element, XmlNode};
pub use parse::parse_document;
pub use path::{NameTest, PathExpr, Predicate, Selector, Step};
pub use store::{ContentStore, DocId};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, XmlError>;
