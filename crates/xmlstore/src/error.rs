//! Error type for path expressions.

use std::fmt;

/// Errors raised while parsing path expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// A path expression could not be parsed.
    BadPathExpression(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::BadPathExpression(p) => write!(f, "cannot parse path expression: {p}"),
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_path() {
        assert!(XmlError::BadPathExpression("//".into()).to_string().contains("path"));
    }
}
