//! A small, strict XML parser.
//!
//! Supports the subset needed for annotation documents: prolog, elements, attributes
//! (single- or double-quoted), text with the five predefined entities plus numeric
//! character references, comments and CDATA sections.  DTDs and processing instructions
//! other than the prolog are rejected — annotation contents are machine-produced, so a
//! strict parser surfaces corruption early rather than guessing.

use crate::error::XmlError;
use crate::model::{Document, Element, XmlNode};
use crate::Result;

/// Parse a complete XML document.
pub fn parse_document(input: &str) -> Result<Document> {
    let mut p = Parser { input: input.as_bytes(), pos: 0 };
    p.skip_prolog_and_misc()?;
    let root = p.parse_element()?;
    p.skip_whitespace_and_comments();
    if p.pos < p.input.len() {
        return Err(XmlError::TrailingContent);
    }
    Ok(Document::new(root))
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                if let Some(end) = self.find("-->") {
                    self.pos = end + 3;
                    continue;
                }
            }
            break;
        }
    }

    fn find(&self, needle: &str) -> Option<usize> {
        let bytes = needle.as_bytes();
        (self.pos..=self.input.len().saturating_sub(bytes.len()))
            .find(|&i| &self.input[i..i + bytes.len()] == bytes)
    }

    fn skip_prolog_and_misc(&mut self) -> Result<()> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            match self.find("?>") {
                Some(end) => self.pos = end + 2,
                None => return Err(XmlError::UnexpectedEof { expected: "?> of the prolog" }),
            }
        }
        self.skip_whitespace_and_comments();
        if self.starts_with("<!DOCTYPE") {
            return Err(XmlError::Syntax {
                offset: self.pos,
                message: "DTDs are not supported in annotation documents".into(),
            });
        }
        if self.peek().is_none() {
            return Err(XmlError::NoRootElement);
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let c = c as char;
            if c.is_alphanumeric() || c == ':' || c == '_' || c == '-' || c == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::Syntax { offset: start, message: "expected a name".into() });
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn parse_element(&mut self) -> Result<Element> {
        if self.peek() != Some(b'<') {
            return Err(XmlError::Syntax {
                offset: self.pos,
                message: "expected '<' to open an element".into(),
            });
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut element = Element::new(name.clone());

        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(XmlError::Syntax {
                            offset: self.pos,
                            message: "expected '/>'".into(),
                        });
                    }
                    self.bump(2);
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::Syntax {
                            offset: self.pos,
                            message: format!("expected '=' after attribute {attr_name}"),
                        });
                    }
                    self.bump(1);
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    element.attributes.push((attr_name, value));
                }
                None => return Err(XmlError::UnexpectedEof { expected: "end of open tag" }),
            }
        }

        // children until the matching close tag
        loop {
            if self.pos >= self.input.len() {
                return Err(XmlError::UnexpectedEof { expected: "close tag" });
            }
            if self.starts_with("</") {
                self.bump(2);
                let close = self.parse_name()?;
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(XmlError::Syntax {
                        offset: self.pos,
                        message: "expected '>' in close tag".into(),
                    });
                }
                self.bump(1);
                if close != name {
                    return Err(XmlError::MismatchedTag { open: name, close });
                }
                return Ok(element);
            } else if self.starts_with("<!--") {
                let Some(end) = self.find("-->") else {
                    return Err(XmlError::UnexpectedEof { expected: "-->" });
                };
                let text = String::from_utf8_lossy(&self.input[self.pos + 4..end]).into_owned();
                element.children.push(XmlNode::Comment(text));
                self.pos = end + 3;
            } else if self.starts_with("<![CDATA[") {
                let Some(end) = self.find("]]>") else {
                    return Err(XmlError::UnexpectedEof { expected: "]]>" });
                };
                let text = String::from_utf8_lossy(&self.input[self.pos + 9..end]).into_owned();
                element.children.push(XmlNode::Text(text));
                self.pos = end + 3;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.children.push(XmlNode::Element(child));
            } else {
                let text = self.parse_text()?;
                if !text.is_empty() {
                    element.children.push(XmlNode::Text(text));
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(XmlError::Syntax {
                    offset: self.pos,
                    message: "expected a quoted attribute value".into(),
                })
            }
        };
        self.bump(1);
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.bump(1);
                return unescape(&raw);
            }
            self.pos += 1;
        }
        Err(XmlError::UnexpectedEof { expected: "closing quote of attribute value" })
    }

    fn parse_text(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        // Whitespace-only runs between elements are not significant for annotations.
        if raw.trim().is_empty() {
            return Ok(String::new());
        }
        unescape(&raw)
    }
}

/// Resolve the predefined entities and numeric character references in a text run.
fn unescape(raw: &str) -> Result<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((_, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        // collect until ';'
        let mut entity = String::new();
        loop {
            match chars.next() {
                Some((_, ';')) => break,
                Some((_, ch)) if entity.len() < 12 => entity.push(ch),
                _ => return Err(XmlError::UnknownEntity(entity)),
            }
        }
        match entity.as_str() {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                if let Some(hex) = other.strip_prefix("#x").or_else(|| other.strip_prefix("#X")) {
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| XmlError::UnknownEntity(other.to_string()))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| XmlError::UnknownEntity(other.to_string()))?,
                    );
                } else if let Some(dec) = other.strip_prefix('#') {
                    let code: u32 =
                        dec.parse().map_err(|_| XmlError::UnknownEntity(other.to_string()))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| XmlError::UnknownEntity(other.to_string()))?,
                    );
                } else {
                    return Err(XmlError::UnknownEntity(other.to_string()));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?><annotation id=\"a1\"><dc:title>Hi</dc:title></annotation>",
        )
        .unwrap();
        assert_eq!(doc.root.name, "annotation");
        assert_eq!(doc.root.attr("id"), Some("a1"));
        let title = doc.root.child_elements().next().unwrap();
        assert_eq!((&*title.name, title.text()), ("dc:title", "Hi".to_string()));
    }

    #[test]
    fn parse_without_prolog() {
        let doc = parse_document("<a><b/><c>text</c></a>").unwrap();
        assert_eq!(doc.root.child_elements().count(), 2);
    }

    #[test]
    fn roundtrip_serialize_parse() {
        use crate::model::Element;
        let mut original = Element::new("annotation");
        original.set_attr("id", "x");
        original.push_child(Element::new("dc:subject")).push_text("Deep Cerebellar nuclei");
        original.push_child(Element::new("note")).push_text("a & b < c");
        let xml = original.to_xml();
        let parsed = parse_document(&xml).unwrap();
        assert_eq!(parsed.root, original);
    }

    #[test]
    fn entities_and_numeric_references() {
        let doc = parse_document("<a>&amp;&lt;&gt;&quot;&apos;&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root.text(), "&<>\"'AB");
    }

    #[test]
    fn unknown_entity_rejected() {
        assert_eq!(parse_document("<a>&nope;</a>"), Err(XmlError::UnknownEntity("nope".into())));
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse_document("<a k='v &amp; w'/>").unwrap();
        assert_eq!(doc.root.attr("k"), Some("v & w"));
    }

    #[test]
    fn comments_and_cdata() {
        let doc = parse_document("<a><!-- note --><![CDATA[1 < 2 & 3]]></a>").unwrap();
        assert_eq!(doc.root.deep_text(), "1 < 2 & 3");
        assert!(matches!(doc.root.children[0], XmlNode::Comment(_)));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = parse_document("<a>\n  <b>x</b>\n  <c>y</c>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
    }

    #[test]
    fn mismatched_tags_error() {
        assert_eq!(
            parse_document("<a><b></a></b>"),
            Err(XmlError::MismatchedTag { open: "b".into(), close: "a".into() })
        );
    }

    #[test]
    fn truncated_document_error() {
        assert!(matches!(parse_document("<a><b>"), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn trailing_content_error() {
        assert_eq!(parse_document("<a/><b/>"), Err(XmlError::TrailingContent));
        // trailing comments and whitespace are fine
        assert!(parse_document("<a/> <!-- done --> ").is_ok());
    }

    #[test]
    fn doctype_rejected() {
        assert!(matches!(parse_document("<!DOCTYPE html><a/>"), Err(XmlError::Syntax { .. })));
    }

    #[test]
    fn empty_input_error() {
        assert_eq!(parse_document("   "), Err(XmlError::NoRootElement));
    }

    #[test]
    fn nested_depth() {
        let mut xml = String::new();
        for i in 0..50 {
            xml.push_str(&format!("<n{i}>"));
        }
        xml.push_str("leaf");
        for i in (0..50).rev() {
            xml.push_str(&format!("</n{i}>"));
        }
        let doc = parse_document(&xml).unwrap();
        assert_eq!(doc.root.descendants().len(), 50);
        assert_eq!(doc.root.deep_text(), "leaf");
    }
}
