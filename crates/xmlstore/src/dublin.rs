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
//!   dc:<field>        Node::Field(i)   one per field i, its value the text
//!   tags              Node::Tags       present iff the record has a user tag
//!     <tag>           Node::Tag(i)     one per user tag i, named by the tag
//! ```
//!
//! No node has an attribute, and only a leaf (field or tag) has text.
//!
//! A record is **one shared heap block**, an `Arc<str>`, so cloning it copies nothing
//! and the annotation and the content store hold the same allocation:
//!
//! ```text
//! header    fields, tags, text length, lowered length, names length
//! text      every value in document order: the record's full text, one slice
//! lowered   the full text lowercased; absent when the text is lowercase ASCII already
//! names     the spelled-out names in document order: fields outside the fifteen, tags
//! table     per entry in document order: element code, [name length,] value length
//! ```
//!
//! An element code is the durable format's: a field's position in [`DC_ELEMENTS`]
//! plus one, or 0 when its name is spelled out — and 0 for every user tag, which the
//! header's field count tells from a field.  Only a code-0 entry has a name length.
//! A number is written in 6-bit groups, low group first, one ASCII byte each (`0x40`
//! set on every group but the last), so the whole block is text and every part of it
//! is a `&str` slice.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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
    /// The `dc:*` leaf of field `i`.
    Field(usize),
    /// `<tags>`, the parent of the user tags.
    Tags,
    /// The leaf of user tag `i`.
    Tag(usize),
}

/// One entry of a record: a field or a user tag, with its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry<'a> {
    /// A field that is one of [`DC_ELEMENTS`], by its element code (its position
    /// there plus one).
    Coded(u8, &'a str),
    /// A field outside the fifteen, its name spelled out.
    Named(&'a str, &'a str),
    /// A user-defined tag.
    Tag(&'a str, &'a str),
}

impl<'a> Entry<'a> {
    /// A field named `element`: coded when it is one of the fifteen.
    pub fn field(element: &'a str, value: &'a str) -> Entry<'a> {
        match dc_element_position(element) {
            Some(at) => Entry::Coded(at as u8 + 1, value),
            None => Entry::Named(element, value),
        }
    }

    /// The element or tag name (a field's without its `dc:` prefix).
    pub fn name(&self) -> &'a str {
        match *self {
            Entry::Coded(code, _) => {
                DC_ELEMENTS.get(usize::from(code).wrapping_sub(1)).copied().unwrap_or_default()
            }
            Entry::Named(name, _) | Entry::Tag(name, _) => name,
        }
    }

    /// The value: the text of the entry's leaf.
    pub fn value(&self) -> &'a str {
        match *self {
            Entry::Coded(_, value) | Entry::Named(_, value) | Entry::Tag(_, value) => value,
        }
    }

    fn is_tag(&self) -> bool {
        matches!(self, Entry::Tag(..))
    }

    /// The element code the table stores: 0 for a spelled-out name.
    fn code(&self) -> u8 {
        match *self {
            Entry::Coded(code, _) => code,
            Entry::Named(..) | Entry::Tag(..) => 0,
        }
    }

    /// The name the block spells out: none for a coded field.
    fn spelled(&self) -> &'a str {
        match *self {
            Entry::Coded(..) => "",
            Entry::Named(name, _) | Entry::Tag(name, _) => name,
        }
    }

    /// The element name of the entry's leaf in the layout: `dc:<field>` or the tag.
    fn node_name(&self) -> Cow<'a, str> {
        match *self {
            Entry::Coded(code, _) => Cow::Borrowed(
                DC_NAMES.get(usize::from(code).wrapping_sub(1)).copied().unwrap_or_default(),
            ),
            Entry::Named(name, _) => Cow::Owned(["dc:", name].concat()),
            Entry::Tag(name, _) => Cow::Borrowed(name),
        }
    }
}

/// A typed Dublin Core record plus user-defined tags: an annotation's content, read as
/// a document through the layout of the [module docs](self), held in one shared block.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DublinCore {
    block: Arc<str>,
}

/// Where the parts of a block lie (see the [module docs](self)).
struct Layout {
    fields: usize,
    tags: usize,
    text: Range<usize>,
    lowered: Range<usize>,
    names: usize,
    table: usize,
}

impl DublinCore {
    /// An empty record.
    pub fn new() -> Self {
        DublinCore::default()
    }

    /// The record of `entries`: its fields in the order given, then its user tags in
    /// the order given.  Every part is written into `scratch`, which keeps its
    /// capacity for the next record, and the block is allocated once, at its size.
    pub fn from_entries<'a>(entries: &[Entry<'a>], scratch: &mut String) -> DublinCore {
        if entries.is_empty() {
            return DublinCore::default();
        }
        // A field spelled as one of the fifteen is stored by its code, so equal
        // records are equal blocks.
        let canonical = |e: &Entry<'a>| match *e {
            Entry::Named(name, value) => Entry::field(name, value),
            e => e,
        };
        let ordered = || {
            let fields = entries.iter().filter(|e| !e.is_tag());
            fields.chain(entries.iter().filter(|e| e.is_tag())).map(canonical)
        };
        // The lowered text is absent when the text is lowercase ASCII, the text's
        // length when it is ASCII, and otherwise a sum over characters:
        // `str::to_lowercase` maps each character on its own but `Σ`, whose two
        // forms are both two bytes.
        let (mut fields, mut text_len, mut names_len) = (0, 0, 0);
        let (mut ascii, mut upper) = (true, false);
        for entry in entries.iter().map(canonical) {
            let value = entry.value();
            fields += usize::from(!entry.is_tag());
            text_len += value.len();
            names_len += entry.spelled().len();
            ascii &= value.is_ascii();
            upper |= value.bytes().fold(false, |upper, b| upper | b.is_ascii_uppercase());
        }
        let lowered_len = match (ascii, upper) {
            (true, false) => 0,
            (true, true) => text_len,
            (false, _) => {
                let chars = entries.iter().flat_map(|e| e.value().chars());
                chars.flat_map(char::to_lowercase).map(char::len_utf8).sum()
            }
        };

        scratch.clear();
        for n in [fields, entries.len() - fields, text_len, lowered_len, names_len] {
            put_number(scratch, n);
        }
        let text = scratch.len();
        ordered().for_each(|e| scratch.push_str(e.value()));
        let lowered = scratch.len();
        if ascii && upper {
            scratch.extend_from_within(text..lowered);
            scratch[lowered..].make_ascii_lowercase();
        } else if !ascii {
            let folded = scratch[text..].to_lowercase();
            scratch.push_str(&folded);
        }
        assert_eq!(scratch.len() - lowered, lowered_len, "the lowered length the header holds");
        ordered().for_each(|e| scratch.push_str(e.spelled()));
        for entry in ordered() {
            assert!(entry.code() <= 15, "element code {} is not one ASCII byte", entry.code());
            scratch.push(char::from(entry.code()));
            if entry.code() == 0 {
                put_number(scratch, entry.spelled().len());
            }
            put_number(scratch, entry.value().len());
        }
        DublinCore { block: Arc::from(scratch.as_str()) }
    }

    /// This record with `entry` added after every entry of its kind.
    fn with(self, entry: Entry<'_>) -> Self {
        let mut entries: Vec<Entry<'_>> = self.entries().collect();
        entries.push(entry);
        DublinCore::from_entries(&entries, &mut String::new())
    }

    /// Add a Dublin Core field. Unknown element names are accepted.
    pub fn field(self, element: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.with(Entry::field(element.as_ref(), value.as_ref()))
    }

    /// Add a user-defined tag.
    pub fn user_tag(self, tag: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.with(Entry::Tag(tag.as_ref(), value.as_ref()))
    }

    /// Convenience: set `dc:title`.
    pub fn title(self, value: impl AsRef<str>) -> Self {
        self.field("title", value)
    }

    /// Convenience: set `dc:creator`.
    pub fn creator(self, value: impl AsRef<str>) -> Self {
        self.field("creator", value)
    }

    /// Convenience: set `dc:description` (the annotation comment body).
    pub fn description(self, value: impl AsRef<str>) -> Self {
        self.field("description", value)
    }

    /// Convenience: add a `dc:subject` keyword.
    pub fn subject(self, value: impl AsRef<str>) -> Self {
        self.field("subject", value)
    }

    /// First value of a Dublin Core element, if present.
    pub fn get(&self, element: &str) -> Option<&str> {
        self.fields().find(|&(e, _)| e == element).map(|(_, v)| v)
    }

    /// Every entry in document order: the fields, then the user tags.
    pub fn entries(&self) -> Entries<'_> {
        let layout = self.layout();
        Entries {
            block: &self.block,
            fields: layout.fields,
            index: 0,
            len: layout.fields + layout.tags,
            table: layout.table,
            value: layout.text.start,
            name: layout.names,
        }
    }

    /// The fields as `(element, value)` pairs in insertion order; an element may
    /// repeat (e.g. several subjects).
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&str, &str)> {
        let fields = self.layout().fields;
        self.entries().take(fields).map(|e| (e.name(), e.value()))
    }

    /// The user-defined tags as `(tag, value)` pairs in insertion order.
    pub fn user_tags(&self) -> impl ExactSizeIterator<Item = (&str, &str)> {
        let fields = self.layout().fields;
        self.entries().skip(fields).map(|e| (e.name(), e.value()))
    }

    /// The record's full text: every value in document order, joined.
    pub fn text(&self) -> &str {
        self.block.get(self.layout().text).unwrap_or_default()
    }

    /// The full text lowercased (`str::to_lowercase`) — the text itself when it is
    /// lowercase ASCII already, so only any other record stores a second copy.
    pub fn lowered_text(&self) -> &str {
        let layout = self.layout();
        let range = if layout.lowered.is_empty() { layout.text } else { layout.lowered };
        self.block.get(range).unwrap_or_default()
    }

    /// Whether two records are one block — one allocation, shared.
    pub fn shares_block(&self, other: &DublinCore) -> bool {
        Arc::ptr_eq(&self.block, &other.block)
    }

    fn layout(&self) -> Layout {
        let bytes = self.block.as_bytes();
        let mut at = 0;
        let mut numbers = [0; 5];
        for n in &mut numbers {
            *n = read_number(bytes, &mut at);
        }
        let [fields, tags, text_len, lowered_len, names_len] = numbers;
        let text = at..at + text_len;
        let lowered = text.end..text.end + lowered_len;
        let names = lowered.end;
        Layout { fields, tags, text, lowered, names, table: names + names_len }
    }

    /// The entry of a leaf.
    fn leaf(&self, node: Node) -> Option<Entry<'_>> {
        let index = match node {
            Node::Root | Node::Tags => return None,
            Node::Field(i) => i,
            Node::Tag(i) => self.layout().fields + i,
        };
        self.entries().nth(index)
    }

    /// The element name of `node`: `annotation`, `dc:<field>`, `tags` or the tag.
    pub fn node_name(&self, node: Node) -> Cow<'_, str> {
        match node {
            Node::Root => Cow::Borrowed("annotation"),
            Node::Tags => Cow::Borrowed("tags"),
            Node::Field(_) | Node::Tag(_) => {
                self.leaf(node).map(|e| e.node_name()).unwrap_or_default()
            }
        }
    }

    /// The direct text of `node`: a leaf's value; the two inner nodes have none.
    pub fn node_text(&self, node: Node) -> &str {
        self.leaf(node).map(|e| e.value()).unwrap_or_default()
    }

    /// Every element name of the layout in document order, each once per node.
    pub(crate) fn each_node_name(&self, mut visit: impl FnMut(&str)) {
        visit("annotation");
        let fields = self.layout().fields;
        for (i, entry) in self.entries().enumerate() {
            if i == fields {
                visit("tags");
            }
            visit(&entry.node_name());
        }
    }

    /// The children of `node`, in document order.
    pub(crate) fn node_children(&self, node: Node) -> impl Iterator<Item = Node> {
        let layout = self.layout();
        let (fields, tags, tag_leaves) = match node {
            Node::Root => (layout.fields, layout.tags > 0, 0),
            Node::Tags => (0, false, layout.tags),
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

impl fmt::Debug for DublinCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DublinCore")
            .field("fields", &self.fields().collect::<Vec<_>>())
            .field("user_tags", &self.user_tags().collect::<Vec<_>>())
            .finish()
    }
}

/// The entries of a record in document order (see [`DublinCore::entries`]).
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    block: &'a str,
    fields: usize,
    index: usize,
    len: usize,
    /// Cursors: the next table entry, value and spelled-out name.
    table: usize,
    value: usize,
    name: usize,
}

impl<'a> Iterator for Entries<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Entry<'a>> {
        if self.index == self.len {
            return None;
        }
        let bytes = self.block.as_bytes();
        let code = bytes.get(self.table).copied().unwrap_or_default();
        self.table += 1;
        let name_len = if code == 0 { read_number(bytes, &mut self.table) } else { 0 };
        let value_len = read_number(bytes, &mut self.table);
        let name = self.block.get(self.name..self.name + name_len).unwrap_or_default();
        let value = self.block.get(self.value..self.value + value_len).unwrap_or_default();
        (self.name, self.value) = (self.name + name_len, self.value + value_len);
        let entry = match code {
            _ if self.index >= self.fields => Entry::Tag(name, value),
            0 => Entry::Named(name, value),
            code => Entry::Coded(code, value),
        };
        self.index += 1;
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// Append `n` in 6-bit groups, low group first, one ASCII byte each.
fn put_number(out: &mut String, mut n: usize) {
    loop {
        let group = (n & 0x3f) as u8;
        n >>= 6;
        if n == 0 {
            out.push(char::from(group));
            return;
        }
        out.push(char::from(group | 0x40));
    }
}

/// The number [`put_number`] wrote at `*at`, moving `*at` past it.
fn read_number(bytes: &[u8], at: &mut usize) -> usize {
    let (mut n, mut shift) = (0usize, 0u32);
    while let Some(&byte) = bytes.get(*at) {
        *at += 1;
        n |= usize::from(byte & 0x3f).checked_shl(shift).unwrap_or_default();
        if byte & 0x40 == 0 {
            break;
        }
        shift += 6;
    }
    n
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
        assert_eq!(dc.user_tags().len(), 2);
        assert_eq!(dc.text(), "Cleavage site in HAsandeepproteaseinfluenzahighSDSC");
        assert_eq!(dc.lowered_text(), "cleavage site in hasandeepproteaseinfluenzahighsdsc");
    }

    #[test]
    fn a_field_added_after_a_tag_comes_before_every_tag() {
        let dc = DublinCore::new().user_tag("lab", "SDSC").title("t").field("x-local", "x");
        let entries: Vec<Entry<'_>> = dc.entries().collect();
        assert_eq!(
            entries,
            [Entry::Coded(1, "t"), Entry::Named("x-local", "x"), Entry::Tag("lab", "SDSC")]
        );
        assert_eq!(dc, DublinCore::new().title("t").field("x-local", "x").user_tag("lab", "SDSC"));
        // A field spelled as one of the fifteen is that element's code.
        assert_eq!(
            DublinCore::from_entries(&[Entry::Named("title", "t")], &mut String::new()),
            DublinCore::new().title("t")
        );
    }

    #[test]
    fn only_a_record_whose_text_is_not_lowercase_ascii_stores_it_lowered() {
        let size = |dc: &DublinCore| dc.block.len();
        let lower = DublinCore::new().description("protein tp53");
        // Header (5), text (12), table (code, value length).
        assert_eq!(size(&lower), 5 + 12 + 2);
        assert_eq!(lower.lowered_text(), lower.text());
        let upper = DublinCore::new().description("protein TP53");
        assert_eq!(size(&upper), 5 + 2 * 12 + 2);
        assert_eq!(upper.lowered_text(), "protein tp53");
        // `İ` lowercases to three bytes, and a final `Σ` by what follows it.
        let traps = DublinCore::new().description("İΣ").user_tag("p", "ΑΣ x");
        assert_eq!(traps.text(), "İΣΑΣ x");
        assert_eq!(traps.lowered_text(), "İΣΑΣ x".to_lowercase());
        assert_eq!(DublinCore::new().lowered_text(), "");
        assert_eq!(size(&DublinCore::new()), 0);
    }

    #[test]
    fn a_number_survives_its_six_bit_groups() {
        for n in [0, 1, 63, 64, 4095, 4096, 1 << 40, usize::MAX] {
            let mut out = String::new();
            put_number(&mut out, n);
            assert!(out.is_ascii());
            let mut at = 0;
            assert_eq!((read_number(out.as_bytes(), &mut at), at), (n, out.len()));
        }
        let long = "x".repeat(70_000);
        let dc = DublinCore::new().field(&long, &long).user_tag("t", "");
        assert_eq!(dc.fields().collect::<Vec<_>>(), [(long.as_str(), long.as_str())]);
        assert_eq!(dc.user_tags().collect::<Vec<_>>(), [("t", "")]);
    }

    /// Every node of `dc` in document order, as `(name, text)`.
    fn layout(dc: &DublinCore) -> Vec<(String, String)> {
        let mut nodes = Vec::new();
        dc.each_node(Node::Root, &mut |node| {
            nodes.push((dc.node_name(node).into_owned(), dc.node_text(node).to_owned()))
        });
        let mut names = Vec::new();
        dc.each_node_name(|name| names.push(name.to_owned()));
        assert_eq!(names, nodes.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>());
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
