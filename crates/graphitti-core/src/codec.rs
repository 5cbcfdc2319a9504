//! The one binary codec: a bounds-checked byte cursor, in-place CRC framing, and the
//! durable layout of everything this crate writes to stable storage.
//!
//! **Primitives.**  [`Writer`] appends to a buffer it borrows and [`Reader`] walks a
//! received payload; every read is bounds-checked into a [`CodecError`], and every
//! length prefix is checked against the bytes remaining *before* anything is reserved,
//! so a truncated or lying payload can neither panic nor drive an allocation larger
//! than its own length.  Two families of integers share the cursor: fixed-width
//! little-endian (`u32` / `u64` / `str` / `u64_list` — the wire protocol's layout,
//! `graphitti-net`'s `protocol.rs`) and the durable format's canonical LEB128
//! `varint`, zig-zag `i64` and raw `f64` bit patterns.
//! [`frame_in_place`] reserves a frame header, lets the payload be encoded directly
//! behind it and back-fills `len` + `crc32`: a frame is built where it is sent from.
//!
//! **The durable layout.**  A WAL record and a checkpoint are each one frame whose
//! payload starts with the format byte [`FORMAT`]; the grammar is in ARCHITECTURE
//! "Log format".  Writers write this format only and readers read it only: any other
//! leading byte is a typed error naming it, and a format change replaces this one (a
//! new format byte, the old layout deleted) rather than forking a second path.
//!
//! **Canonical and total.**  Every value has exactly one encoding — a varint has no
//! redundant continuation bytes, a bool is `0` or `1`, tags are dense, text is UTF-8,
//! and a payload ends where its last field ends — so `decode(x) == Ok(v)` implies
//! `encode(v) == x`: the bytes recovery trusted are the bytes a re-encoding would
//! write, which is what lets `valid_log_len` be reasoned about on either.  Anything
//! else is a [`CodecError`], never a panic.

use interval_index::Interval;
use ontology::{ConceptId, InstanceId, Ontology, RelationType};
use relstore::Value;
use spatial_index::Rect;
use xmlstore::{dc_element_position, DublinCore, Entry, DC_ELEMENTS};

use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::study::{AnnotationSnapshot, Created, ObjectSnapshot, ReferentSnapshot, StudySnapshot};
use crate::system::ObjectId;
use crate::types::DataType;
use crate::wal::{crc32, Checkpoint, LogOp, LogReferent, FRAME_HEADER};
use crate::CoreError;

/// A payload that does not decode: truncated, non-canonical, or carrying an unknown
/// tag.  The message names the field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Durability(format!("persisted state does not decode: {e}"))
    }
}

fn truncated(what: &str) -> CodecError {
    CodecError(format!("truncated {what}"))
}

// --- primitives ------------------------------------------------------------

/// Append-only payload builder over a buffer it borrows — the caller's frame buffer,
/// so payloads are encoded where they will be sent or written from.  (The primitives
/// are `#[inline]`: `graphitti-net` calls them once per id of every page it sends, from
/// another crate, and the workspace builds without LTO.)
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Start a payload at the end of `buf` with its leading tag byte (a wire frame
    /// kind, or the durable format byte).
    #[inline]
    pub fn tagged(buf: &'a mut Vec<u8>, tag: u8) -> Self {
        buf.push(tag);
        Writer { buf }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Text behind a fixed-width `u32` length.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A `u32` count, then fixed-width `u64`s.
    pub fn u64_list(&mut self, items: impl ExactSizeIterator<Item = u64>) {
        self.u32(items.len() as u32);
        for v in items {
            self.u64(v);
        }
    }

    /// A `u32` count, then fixed-width `u32`s.
    pub fn u32_list(&mut self, items: impl ExactSizeIterator<Item = u32>) {
        self.u32(items.len() as u32);
        for v in items {
            self.u32(v);
        }
    }

    /// LEB128: seven bits per byte, low group first, the high bit set on every byte
    /// but the last — 1 byte below 128, at most 10 for `u64::MAX`.
    #[inline]
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A count or index as a varint.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.varint(n as u64);
    }

    /// Zig-zag `i64` (small magnitudes of either sign stay short) as a varint.
    #[inline]
    pub(crate) fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// The IEEE-754 bit pattern, fixed-width: `-0.0` and every NaN survive as written.
    #[inline]
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `0` or `1`.
    #[inline]
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bytes behind a varint length.
    #[inline]
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Text behind a varint length.
    #[inline]
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor over a received payload; every read is bounds-checked into a
/// [`CodecError`] — a truncated or lying payload can never panic its reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        let b = self.take(1, what)?;
        b.first().copied().ok_or_else(|| truncated(what))
    }

    /// Fixed-width little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| truncated(what))?))
    }

    /// Fixed-width little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().map_err(|_| truncated(what))?))
    }

    #[inline]
    fn utf8(&mut self, len: usize, what: &str) -> Result<String, CodecError> {
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError(format!("non-UTF-8 {what}")))
    }

    /// Text behind a fixed-width `u32` length.
    #[inline]
    pub fn str(&mut self, what: &str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        self.utf8(len, what)
    }

    /// A list cannot be longer than the bytes remaining in the payload — reject
    /// before reserving, so a lying count cannot drive a huge allocation.
    #[inline]
    fn bounded(&self, len: u64, what: &str) -> Result<usize, CodecError> {
        match usize::try_from(len) {
            Ok(len) if len <= self.buf.len().saturating_sub(self.pos) => Ok(len),
            _ => Err(CodecError(format!("{what} count exceeds frame"))),
        }
    }

    /// `len` items, one `item` at a time; `len` has been [`bounded`](Self::bounded).
    fn repeat<T>(
        &mut self,
        len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A `u32` count, then fixed-width `u64`s.
    pub fn u64_list<T>(
        &mut self,
        what: &str,
        wrap: impl Fn(u64) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.u32(what)?;
        let len = self.bounded(u64::from(len), what)?;
        self.repeat(len, |r| r.u64(what).map(&wrap))
    }

    /// A `u32` count, then fixed-width `u32`s.
    pub fn u32_list<T>(
        &mut self,
        what: &str,
        wrap: impl Fn(u32) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.u32(what)?;
        let len = self.bounded(u64::from(len), what)?;
        self.repeat(len, |r| r.u32(what).map(&wrap))
    }

    /// A varint count, then that many `item`s.
    pub fn list<T>(
        &mut self,
        what: &str,
        item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.count(what)?;
        self.repeat(len, item)
    }

    /// A canonical LEB128 `u64`: a final group of zero after another group (an
    /// overlong spelling) and bits past the 64th are both errors.
    #[inline]
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        let mut value = 0u64;
        // Ten groups of seven bits at shifts 0, 7, … 63; the tenth holds bit 63 alone.
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                break;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError(format!("overlong varint in {what}")));
                }
                return Ok(value);
            }
        }
        Err(CodecError(format!("varint overflows 64 bits in {what}")))
    }

    /// A varint count, bounded by the bytes remaining (see `Reader::varint`).
    #[inline]
    pub fn count(&mut self, what: &str) -> Result<usize, CodecError> {
        let len = self.varint(what)?;
        self.bounded(len, what)
    }

    /// A varint that must fit the index type it is read into.
    #[inline]
    pub(crate) fn index<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, CodecError> {
        let v = self.varint(what)?;
        T::try_from(v).map_err(|_| CodecError(format!("{what} {v} out of range")))
    }

    /// Zig-zag `i64`.
    #[inline]
    pub(crate) fn zigzag(&mut self, what: &str) -> Result<i64, CodecError> {
        let v = self.varint(what)?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// An `f64` from its bit pattern.
    #[inline]
    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        self.u64(what).map(f64::from_bits)
    }

    /// `0` or `1`; any other byte is an error.
    #[inline]
    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("{what} is {other}, not a bool"))),
        }
    }

    /// Bytes behind a varint length.
    #[inline]
    pub(crate) fn bytes(&mut self, what: &str) -> Result<&'a [u8], CodecError> {
        let len = self.count(what)?;
        self.take(len, what)
    }

    /// Text behind a varint length, borrowed from the payload.
    #[inline]
    pub(crate) fn borrowed_text(&mut self, what: &str) -> Result<&'a str, CodecError> {
        let bytes = self.bytes(what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError(format!("non-UTF-8 {what}")))
    }

    /// Text behind a varint length.
    #[inline]
    pub fn text(&mut self, what: &str) -> Result<String, CodecError> {
        let len = self.count(what)?;
        self.utf8(len, what)
    }

    /// Whether every payload byte was consumed (a well-formed payload leaves none).
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// --- framing ---------------------------------------------------------------

/// Append one CRC frame to `out`, its payload encoded in place by `payload`: reserve
/// the header, let `payload` append behind it, back-fill `len` + `crc32`.  The one
/// place a frame is built — WAL records, checkpoints and wire frames all go through
/// it, so none of them copies a payload into its frame.
pub fn frame_in_place(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    payload(out);
    let body = header + FRAME_HEADER;
    let payload = out.get(body..).unwrap_or_default();
    let (len, crc) = ((payload.len() as u32).to_le_bytes(), crc32(payload).to_le_bytes());
    if let Some(slot) = out.get_mut(header..body) {
        let (len_slot, crc_slot) = slot.split_at_mut(len.len());
        len_slot.copy_from_slice(&len);
        crc_slot.copy_from_slice(&crc);
    }
}

// --- the durable layout ------------------------------------------------------

/// The format byte that leads every record and checkpoint payload.
pub const FORMAT: u8 = 0x02;

/// Start reading a durable payload: its format byte must be [`FORMAT`].
fn durable<'a>(payload: &'a [u8], what: &str) -> Result<Reader<'a>, CodecError> {
    let mut r = Reader::new(payload);
    match r.u8(what)? {
        FORMAT => Ok(r),
        other => Err(CodecError(format!(
            "unsupported {what} format byte {other:#04x} (this build reads and writes \
             {FORMAT:#04x} only)"
        ))),
    }
}

fn finish<T>(r: &Reader<'_>, value: T, what: &str) -> Result<T, CodecError> {
    if r.exhausted() {
        Ok(value)
    } else {
        Err(CodecError(format!("trailing bytes after {what}")))
    }
}

/// A record payload: format byte, version, the ops.  The batch's dirty set is not
/// stored — it is a function of the ops ([`batch_dirty`](crate::wal::batch_dirty)).
pub(crate) fn put_record(out: &mut Vec<u8>, version: u64, ops: &[LogOp]) {
    let mut w = Writer::tagged(out, FORMAT);
    w.varint(version);
    w.count(ops.len());
    for op in ops {
        put_op(&mut w, op);
    }
}

/// Decode a record payload into `(version, ops)`.
pub(crate) fn read_record(payload: &[u8]) -> Result<(u64, Vec<LogOp>), CodecError> {
    let mut r = durable(payload, "record")?;
    let version = r.varint("record version")?;
    let mut scratch = ContentScratch::default();
    let ops = r.list("record ops", |r| read_op(r, &mut scratch))?;
    finish(&r, (version, ops), "record")
}

fn put_op(w: &mut Writer<'_>, op: &LogOp) {
    match op {
        LogOp::Register { data_type, name, metadata, payload, domain } => {
            w.u8(0);
            put_registration(w, *data_type, name, domain, metadata, payload);
        }
        LogOp::Annotate { content, referents, terms } => {
            w.u8(1);
            put_dublin_core(w, content);
            w.count(referents.len());
            for referent in referents {
                match referent {
                    LogReferent::New { object, marker } => {
                        w.u8(0);
                        w.varint(object.0);
                        put_marker(w, marker);
                    }
                    LogReferent::Existing(id) => {
                        w.u8(1);
                        w.varint(id.0);
                    }
                }
            }
            put_terms(w, terms);
        }
        LogOp::DefineTerm { name } => {
            w.u8(2);
            w.text(name);
        }
    }
}

fn read_op<'a>(r: &mut Reader<'a>, scratch: &mut ContentScratch<'a>) -> Result<LogOp, CodecError> {
    Ok(match r.u8("op tag")? {
        0 => {
            let ObjectSnapshot { data_type, name, domain, metadata, payload } =
                read_registration(r)?;
            LogOp::Register { data_type, name, metadata, payload, domain }
        }
        1 => LogOp::Annotate {
            content: read_dublin_core(r, scratch)?,
            referents: r.list("op referents", |r| {
                Ok(match r.u8("referent tag")? {
                    0 => LogReferent::New {
                        object: ObjectId(r.varint("marked object")?),
                        marker: read_marker(r)?,
                    },
                    1 => LogReferent::Existing(ReferentId(r.varint("reused referent")?)),
                    other => return Err(CodecError(format!("unknown referent tag {other}"))),
                })
            })?,
            terms: read_terms(r)?,
        },
        2 => LogOp::DefineTerm { name: r.text("term name")? },
        other => return Err(CodecError(format!("unknown op tag {other}"))),
    })
}

/// One object registration — the body of a `Register` op and an object row of a
/// checkpoint: type, name, domain, metadata columns, payload bytes.
fn put_registration(
    w: &mut Writer<'_>,
    data_type: DataType,
    name: &str,
    domain: &str,
    metadata: &[Value],
    payload: &[u8],
) {
    // A data type is its index in `DataType::ALL`, which lists them in declaration order.
    w.u8(data_type as u8);
    w.text(name);
    w.text(domain);
    w.count(metadata.len());
    for value in metadata {
        match value {
            Value::Null => w.u8(0),
            Value::Int(i) => {
                w.u8(1);
                w.zigzag(*i);
            }
            Value::Float(f) => {
                w.u8(2);
                w.f64(*f);
            }
            Value::Text(t) => {
                w.u8(3);
                w.text(t);
            }
            Value::Bool(b) => {
                w.u8(4);
                w.bool(*b);
            }
            Value::Blob(b) => {
                w.u8(5);
                w.bytes(b);
            }
        }
    }
    w.bytes(payload);
}

fn read_registration(r: &mut Reader<'_>) -> Result<ObjectSnapshot, CodecError> {
    let tag = r.u8("data type")?;
    let data_type = *DataType::ALL
        .get(usize::from(tag))
        .ok_or_else(|| CodecError(format!("unknown data type {tag}")))?;
    Ok(ObjectSnapshot {
        data_type,
        name: r.text("object name")?,
        domain: r.text("object domain")?,
        metadata: r.list("metadata columns", |r| {
            Ok(match r.u8("value tag")? {
                0 => Value::Null,
                1 => Value::Int(r.zigzag("int value")?),
                2 => Value::Float(r.f64("float value")?),
                3 => Value::Text(r.text("text value")?),
                4 => Value::Bool(r.bool("bool value")?),
                5 => Value::blob(r.bytes("blob value")?),
                other => return Err(CodecError(format!("unknown value tag {other}"))),
            })
        })?,
        payload: r.bytes("object payload")?.to_vec(),
    })
}

fn put_marker(w: &mut Writer<'_>, marker: &Marker) {
    match marker {
        // Start, then length modulo 2^64: one spelling for every (start, end) pair,
        // so even an inverted interval round-trips to where `add_referent` rejects it.
        Marker::Interval(iv) => {
            w.u8(0);
            w.varint(iv.start);
            w.varint(iv.end.wrapping_sub(iv.start));
        }
        // A planar region is its four x / y coordinates; any other z — `-0.0`, NaN,
        // non-zero — keeps all six under tag 4, so replay meets the region as written.
        Marker::Region(rect) if planar(rect) => {
            let ([x0, y0, _], [x1, y1, _]) = (rect.min, rect.max);
            w.u8(1);
            for v in [x0, y0, x1, y1] {
                w.f64(v);
            }
        }
        Marker::Region(rect) => put_rect(w, 4, rect),
        Marker::Volume(rect) => put_rect(w, 2, rect),
        Marker::BlockSet(ids) => {
            w.u8(3);
            w.count(ids.len());
            for &id in ids.iter() {
                w.varint(id);
            }
        }
    }
}

/// Whether both z bit patterns are `+0.0` — a region tag 1 spells in four coordinates.
fn planar(rect: &Rect) -> bool {
    let ([_, _, z0], [_, _, z1]) = (rect.min, rect.max);
    z0.to_bits() == 0 && z1.to_bits() == 0
}

/// A rect is its six coordinates' bit patterns, `min` then `max`.
fn put_rect(w: &mut Writer<'_>, tag: u8, rect: &Rect) {
    w.u8(tag);
    for &v in rect.min.iter().chain(&rect.max) {
        w.f64(v);
    }
}

fn read_marker(r: &mut Reader<'_>) -> Result<Marker, CodecError> {
    Ok(match r.u8("marker tag")? {
        0 => {
            let start = r.varint("interval start")?;
            let end = start.wrapping_add(r.varint("interval length")?);
            Marker::Interval(Interval { start, end })
        }
        1 => {
            let mut xy = [0.0; 4];
            for slot in &mut xy {
                *slot = r.f64("region coordinate")?;
            }
            let [x0, y0, x1, y1] = xy;
            Marker::Region(Rect { min: [x0, y0, 0.0], max: [x1, y1, 0.0] })
        }
        2 => Marker::Volume(read_rect(r)?),
        3 => Marker::BlockSet(r.list("block set", |r| r.varint("block id"))?.into()),
        4 => match read_rect(r)? {
            rect if planar(&rect) => {
                return Err(CodecError("planar region spelled in six coordinates".to_string()))
            }
            rect => Marker::Region(rect),
        },
        other => return Err(CodecError(format!("unknown marker tag {other}"))),
    })
}

fn read_rect(r: &mut Reader<'_>) -> Result<Rect, CodecError> {
    let (mut min, mut max) = ([0.0; 3], [0.0; 3]);
    for slot in min.iter_mut().chain(&mut max) {
        *slot = r.f64("rect coordinate")?;
    }
    Ok(Rect { min, max })
}

/// A Dublin Core field's element is its code — one more than its position in
/// [`DC_ELEMENTS`] — or code 0 and the name spelled out when it is none of the fifteen.
/// User tags are free text.
fn put_dublin_core(w: &mut Writer<'_>, content: &DublinCore) {
    let (mut entries, fields) = (content.entries(), content.fields().len());
    w.count(fields);
    for entry in entries.by_ref().take(fields) {
        match entry {
            Entry::Coded(code, _) => w.u8(code),
            Entry::Named(name, _) | Entry::Tag(name, _) => {
                w.u8(0);
                w.text(name);
            }
        }
        w.text(entry.value());
    }
    w.count(entries.len());
    for entry in entries {
        w.text(entry.name());
        w.text(entry.value());
    }
}

/// What decoding one Dublin Core record after another reuses: the record's entries,
/// borrowed from the payload, and the buffer its block is written in — so a record
/// costs its block and nothing else.
#[derive(Default)]
struct ContentScratch<'a> {
    entries: Vec<Entry<'a>>,
    block: String,
}

fn read_dublin_core<'a>(
    r: &mut Reader<'a>,
    scratch: &mut ContentScratch<'a>,
) -> Result<DublinCore, CodecError> {
    let entries = &mut scratch.entries;
    entries.clear();
    for _ in 0..r.count("content fields")? {
        let entry = match r.u8("element code")? {
            0 => match r.borrowed_text("content element")? {
                name if dc_element_position(name).is_some() => {
                    return Err(CodecError(format!(
                        "element {name:?} spelled where its code belongs"
                    )))
                }
                name => Entry::Named(name, r.borrowed_text("content value")?),
            },
            code if usize::from(code) <= DC_ELEMENTS.len() => {
                Entry::Coded(code, r.borrowed_text("content value")?)
            }
            code => return Err(CodecError(format!("unknown element code {code}"))),
        };
        entries.push(entry);
    }
    for _ in 0..r.count("content user tags")? {
        let tag = r.borrowed_text("content key")?;
        entries.push(Entry::Tag(tag, r.borrowed_text("content value")?));
    }
    Ok(DublinCore::from_entries(entries, &mut scratch.block))
}

fn put_terms(w: &mut Writer<'_>, terms: &[ConceptId]) {
    w.count(terms.len());
    for term in terms {
        w.varint(u64::from(term.0));
    }
}

fn read_terms(r: &mut Reader<'_>) -> Result<Vec<ConceptId>, CodecError> {
    r.list("cited terms", |r| r.index("term id").map(ConceptId))
}

/// A checkpoint payload: format byte, version, shard tag, creation order, then the
/// study — object rows, referent rows, annotation rows, the ontology.
pub(crate) fn put_checkpoint(out: &mut Vec<u8>, checkpoint: &Checkpoint) {
    let Checkpoint { version, shards, order, snapshot } = checkpoint;
    let mut w = Writer::tagged(out, FORMAT);
    w.varint(*version);
    w.count(*shards);
    w.count(order.len());
    for &(kind, count) in order {
        w.u8(kind as u8);
        w.count(count);
    }
    w.count(snapshot.objects.len());
    for o in &snapshot.objects {
        put_registration(&mut w, o.data_type, &o.name, &o.domain, &o.metadata, &o.payload);
    }
    w.count(snapshot.referents.len());
    for referent in &snapshot.referents {
        w.count(referent.object);
        put_marker(&mut w, &referent.marker);
    }
    w.count(snapshot.annotations.len());
    for annotation in &snapshot.annotations {
        put_dublin_core(&mut w, &annotation.content);
        w.count(annotation.referents.len());
        for &referent in &annotation.referents {
            w.count(referent);
        }
        put_terms(&mut w, &annotation.terms);
    }
    put_ontology(&mut w, &snapshot.ontology);
}

/// Decode a checkpoint payload.
pub(crate) fn read_checkpoint(payload: &[u8]) -> Result<Checkpoint, CodecError> {
    let mut r = durable(payload, "checkpoint")?;
    let mut scratch = ContentScratch::default();
    let checkpoint = Checkpoint {
        version: r.varint("checkpoint version")?,
        shards: r.index("checkpoint shard tag")?,
        order: read_order(&mut r)?,
        snapshot: StudySnapshot {
            objects: r.list("objects", read_registration)?,
            referents: r.list("referents", |r| {
                Ok(ReferentSnapshot {
                    object: r.index("referent object")?,
                    marker: read_marker(r)?,
                })
            })?,
            annotations: r.list("annotations", |r| {
                Ok(AnnotationSnapshot {
                    content: read_dublin_core(r, &mut scratch)?,
                    referents: r.list("annotation referents", |r| r.index("referent index"))?,
                    terms: read_terms(r)?,
                })
            })?,
            ontology: read_ontology(&mut r)?,
        },
    };
    finish(&r, checkpoint, "checkpoint")
}

/// The creation order's runs: a kind and a count each, no run empty and no two
/// neighbours of one kind — so an order has one spelling.
fn read_order(r: &mut Reader<'_>) -> Result<Vec<(Created, usize)>, CodecError> {
    let mut previous = None;
    r.list("creation runs", |r| {
        let kind = match r.u8("creation kind")? {
            0 => Created::Object,
            1 => Created::Annotation,
            other => return Err(CodecError(format!("unknown creation kind {other}"))),
        };
        let count = r.index("creation run length")?;
        if count == 0 {
            return Err(CodecError("empty creation run".to_string()));
        }
        if previous == Some(kind) {
            return Err(CodecError(format!("two {kind:?} creation runs in a row")));
        }
        previous = Some(kind);
        Ok((kind, count))
    })
}

/// The ontology through its public API: every concept name, then each concept's
/// outgoing relations, then the instances in id order.  The name index is not
/// stored — `add_concept` rebuilds it.
fn put_ontology(w: &mut Writer<'_>, ontology: &Ontology) {
    let concepts = || (0..ontology.concept_count() as u32).map(ConceptId);
    w.count(ontology.concept_count());
    for concept in concepts() {
        w.text(ontology.concept_name(concept).unwrap_or_default());
    }
    for concept in concepts() {
        let children = ontology.children(concept);
        w.count(children.len());
        for (child, relation) in &children {
            w.varint(u64::from(child.0));
            match relation {
                RelationType::IsA => w.u8(0),
                RelationType::PartOf => w.u8(1),
                RelationType::DevelopsFrom => w.u8(2),
                RelationType::Regulates => w.u8(3),
                RelationType::Named(name) => {
                    w.u8(4);
                    w.text(name);
                }
            }
        }
    }
    w.count(ontology.instance_count());
    for instance in (0..ontology.instance_count() as u32).map(InstanceId) {
        w.varint(ontology.instance_concept(instance).map_or(0, |c| u64::from(c.0)));
        w.text(ontology.instance_name(instance).unwrap_or_default());
    }
}

fn read_ontology(r: &mut Reader<'_>) -> Result<Ontology, CodecError> {
    let mut ontology = Ontology::new();
    // Concept ids are `u32`, and `add_relation` / `add_instance` panic on an unknown
    // one: both are checked here, where the ids arrive.
    let concepts: u32 = r
        .count("concepts")?
        .try_into()
        .map_err(|_| CodecError("concept count out of range".to_string()))?;
    let concept = |r: &mut Reader<'_>, what: &str| match r.index::<u32>(what)? {
        id if id < concepts => Ok(ConceptId(id)),
        id => Err(CodecError(format!("{what} {id} names no concept"))),
    };
    for _ in 0..concepts {
        ontology.add_concept(r.text("concept name")?);
    }
    for parent in (0..concepts).map(ConceptId) {
        for _ in 0..r.count("concept relations")? {
            let child = concept(r, "related concept")?;
            let relation = match r.u8("relation tag")? {
                0 => RelationType::IsA,
                1 => RelationType::PartOf,
                2 => RelationType::DevelopsFrom,
                3 => RelationType::Regulates,
                4 => RelationType::Named(r.text("relation name")?),
                other => return Err(CodecError(format!("unknown relation tag {other}"))),
            };
            ontology.add_relation(parent, child, relation);
        }
    }
    for _ in 0..r.count("instances")? {
        let of = concept(r, "instance concept")?;
        ontology.add_instance(of, r.text("instance name")?);
    }
    Ok(ontology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{batch_dirty, scan_frames, WalRecord};

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn golden_record() -> WalRecord {
        let ops = vec![
            LogOp::register_sequence("seq-7", DataType::DnaSequence, 2_000, "chr1"),
            LogOp::Annotate {
                content: DublinCore::new()
                    .description("cleavage site")
                    .field("x-lab", "SDSC")
                    .user_tag("curator", "u1"),
                referents: vec![
                    LogReferent::New {
                        object: ObjectId(7),
                        marker: Marker::interval(1_000, 1_050),
                    },
                    LogReferent::Existing(ReferentId(300)),
                ],
                terms: vec![ConceptId(2)],
            },
            LogOp::DefineTerm { name: "term-7".to_string() },
        ];
        WalRecord { version: 7, dirty: batch_dirty(&ops).bits(), ops }
    }

    /// Two objects, each registered before the annotation that first marks it: the
    /// creation order is four runs.
    fn golden_checkpoint() -> Checkpoint {
        let mut sys = crate::Graphitti::new();
        let seq = sys.register_sequence("seg4", DataType::DnaSequence, 2_000, "chr-flu");
        let protease = sys.ontology_mut().add_concept("Protease");
        let enzyme = sys.ontology_mut().add_concept("Enzyme");
        sys.ontology_mut().add_relation(enzyme, protease, RelationType::IsA);
        sys.ontology_mut().add_instance(protease, "NS3");
        let first = sys
            .annotate()
            .comment("cleavage site")
            .creator("condit")
            .mark(seq, Marker::interval(1_000, 1_050))
            .cite_term(protease)
            .commit()
            .unwrap();
        let img = sys.register_image("brain", 512, 512, "confocal", "cs25");
        let shared = sys.annotation(first).unwrap().referents[0];
        sys.annotate()
            .comment("roi")
            .mark_existing(shared)
            .mark(img, Marker::region(10.0, 10.5, 60.0, 60.0))
            .commit()
            .unwrap();
        Checkpoint::capture(&sys, 9)
    }

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        Writer::tagged(&mut buf, 0).varint(v);
        buf.split_off(1)
    }

    #[test]
    fn varints_zigzags_bools_and_floats_have_exactly_one_spelling() {
        for v in [0, 1, 127, 128, 300, 16_383, 16_384, u64::from(u32::MAX), 1 << 62, u64::MAX] {
            let bytes = varint_bytes(v);
            assert_eq!(bytes.len(), (64 - v.leading_zeros()).div_ceil(7).max(1) as usize, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint("v"), Ok(v));
            assert!(r.exhausted());
            // A redundant continuation group spells the same number: refused.
            let mut overlong = bytes.clone();
            *overlong.last_mut().unwrap() |= 0x80;
            overlong.push(0x00);
            assert!(Reader::new(&overlong).varint("v").is_err(), "{v}: {overlong:02x?}");
            // ... and so is every proper prefix.
            for cut in 0..bytes.len() {
                assert!(Reader::new(&bytes[..cut]).varint("v").is_err(), "{v} cut at {cut}");
            }
        }
        // Bits past the 64th: a tenth group above 1, or an eleventh byte.
        let mut past = vec![0xff; 9];
        past.push(0x02);
        assert!(Reader::new(&past).varint("v").is_err());
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert!(Reader::new(&eleven).varint("v").is_err());

        for v in [i64::MIN, -65, -64, -1, 0, 1, 63, 64, i64::MAX] {
            let mut buf = Vec::new();
            Writer::tagged(&mut buf, 0).zigzag(v);
            assert_eq!(Reader::new(&buf[1..]).zigzag("v"), Ok(v));
            assert_eq!(buf.len() == 2, (-64..64).contains(&v), "{v}: small magnitudes are 1 byte");
        }

        assert_eq!(Reader::new(&[0]).bool("b"), Ok(false));
        assert_eq!(Reader::new(&[1]).bool("b"), Ok(true));
        assert!((2..=255u8).all(|b| Reader::new(&[b]).bool("b").is_err()));

        for bits in [(-0.0f64).to_bits(), f64::NAN.to_bits() | 0xBEEF, f64::INFINITY.to_bits()] {
            let mut buf = Vec::new();
            Writer::tagged(&mut buf, 0).f64(f64::from_bits(bits));
            assert_eq!(buf[1..], bits.to_le_bytes());
            assert_eq!(Reader::new(&buf[1..]).f64("f").unwrap().to_bits(), bits);
        }

        // A count is checked against the bytes behind it before anything is reserved.
        let lying = varint_bytes(1 << 60);
        assert!(Reader::new(&lying).count("n").is_err());
        assert!(Reader::new(&lying).text("t").is_err());
        assert!(Reader::new(&[0x02, 0xff, 0xfe]).text("t").unwrap_err().0.contains("UTF-8"));
    }

    /// Ops that between them carry every `Value`, `Marker` and `DataType` variant, the
    /// integer extremes, `-0.0`, and every empty string and list.
    fn extreme_ops() -> Vec<LogOp> {
        let every_value = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-1),
            Value::Float(-0.0),
            Value::Float(f64::NEG_INFINITY),
            Value::Text(String::new()),
            Value::text("naïve ☃"),
            Value::Bool(false),
            Value::Bool(true),
            Value::blob(Vec::new()),
            Value::blob(vec![0u8, 0xff, 0x80]),
        ];
        let mut ops: Vec<LogOp> = DataType::ALL
            .into_iter()
            .map(|data_type| LogOp::Register {
                data_type,
                name: data_type.tag().to_string(),
                metadata: every_value.clone(),
                payload: vec![0xde, 0xad],
                domain: String::new(),
            })
            .collect();
        let every_marker = [
            Marker::interval(0, 0),
            Marker::interval(u64::MAX - 1, u64::MAX),
            Marker::Interval(Interval { start: 9, end: 5 }),
            Marker::region(-0.0, 1.5, 2.0, 1e300),
            Marker::Region(Rect { min: [0.0, 0.0, -0.0], max: [1.0, 1.0, 0.0] }),
            Marker::Region(Rect { min: [0.0, 0.0, 0.0], max: [1.0, 1.0, f64::NAN] }),
            Marker::Region(Rect { min: [0.0, 0.0, 2.0], max: [1.0, 1.0, 3.0] }),
            Marker::Volume(Rect::new([-3.0, -2.0, -1.0], [0.0, 0.0, -0.0])),
            Marker::Volume(Rect::new([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])),
            Marker::block_set([]),
            Marker::block_set([0, 127, 128, u64::MAX]),
        ];
        // Every DCMES element (as a code), then names that only look like one.
        let mut content = DublinCore::new();
        for element in DC_ELEMENTS.into_iter().chain(["", "Title", "dc:title", "title "]) {
            content = content.field(element, element);
        }
        ops.push(LogOp::Annotate {
            content: content.user_tag("k", "").user_tag("title", "t"),
            referents: every_marker
                .into_iter()
                .map(|marker| LogReferent::New { object: ObjectId(u64::MAX), marker })
                .chain([
                    LogReferent::Existing(ReferentId(0)),
                    LogReferent::Existing(ReferentId(u64::MAX)),
                ])
                .collect(),
            terms: vec![ConceptId(0), ConceptId(u32::MAX)],
        });
        ops.push(LogOp::Annotate { content: DublinCore::new(), referents: vec![], terms: vec![] });
        ops.push(LogOp::DefineTerm { name: String::new() });
        ops
    }

    #[test]
    fn every_variant_and_extreme_round_trips_to_the_same_value_and_the_same_bytes() {
        let mut records = vec![
            WalRecord { version: 0, dirty: 0, ops: vec![] },
            WalRecord { version: u64::MAX, dirty: 0, ops: vec![] },
        ];
        let ops = extreme_ops();
        records.push(WalRecord { version: 1 << 35, dirty: batch_dirty(&ops).bits(), ops });
        for record in records {
            let frame = record.encode();
            let decoded = WalRecord::decode(&frame[FRAME_HEADER..]).expect("decodes");
            // `NaN != NaN`, so the values are compared as printed; and `-0.0 == 0.0`,
            // so only the bytes show that the sign survived.
            assert_eq!(format!("{decoded:?}"), format!("{record:?}"));
            assert_eq!(decoded.encode(), frame);
        }

        // A study built from the same ops' parts, plus an ontology with every relation
        // type; it need not be loadable — this is the codec's test, not `replay_study`'s.
        let mut ontology = Ontology::new();
        let concepts: Vec<ConceptId> =
            ["a", "", "a", "d"].into_iter().map(|name| ontology.add_concept(name)).collect();
        for (i, relation) in [
            RelationType::IsA,
            RelationType::PartOf,
            RelationType::DevelopsFrom,
            RelationType::Regulates,
            RelationType::Named(String::new()),
            RelationType::Named("binds".into()),
        ]
        .into_iter()
        .enumerate()
        {
            ontology.add_relation(concepts[i % 3], concepts[3 - i % 2], relation);
        }
        ontology.add_instance(concepts[3], "");
        ontology.add_instance(concepts[0], "img-1");
        ontology.add_instance(concepts[3], "img-2");
        let mut snapshot =
            StudySnapshot { objects: vec![], referents: vec![], annotations: vec![], ontology };
        for op in extreme_ops() {
            match op {
                LogOp::Register { data_type, name, metadata, payload, domain } => snapshot
                    .objects
                    .push(ObjectSnapshot { data_type, name, domain, metadata, payload }),
                LogOp::Annotate { content, referents, terms } => {
                    for referent in &referents {
                        if let LogReferent::New { marker, .. } = referent {
                            snapshot.referents.push(ReferentSnapshot {
                                object: usize::MAX,
                                marker: marker.clone(),
                            });
                        }
                    }
                    snapshot.annotations.push(AnnotationSnapshot {
                        content,
                        referents: vec![0, usize::MAX],
                        terms,
                    });
                }
                LogOp::DefineTerm { .. } => {}
            }
        }
        let order =
            vec![(Created::Object, usize::MAX), (Created::Annotation, 1), (Created::Object, 1)];
        for checkpoint in [
            Checkpoint { version: u64::MAX, shards: usize::MAX, order, snapshot },
            Checkpoint::capture(&crate::Graphitti::new(), 0),
        ] {
            let blob = checkpoint.encode();
            let decoded = Checkpoint::decode(&blob).expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{checkpoint:?}"));
            assert_eq!(decoded.encode(), blob);
        }
    }

    fn decode_content(bytes: &[u8]) -> Result<DublinCore, CodecError> {
        read_dublin_core(&mut Reader::new(bytes), &mut ContentScratch::default())
    }

    fn content_bytes(content: &DublinCore) -> Vec<u8> {
        let mut buf = Vec::new();
        put_dublin_core(&mut Writer::tagged(&mut buf, 0), content);
        buf.split_off(1)
    }

    fn marker_bytes(marker: &Marker) -> Vec<u8> {
        let mut buf = Vec::new();
        put_marker(&mut Writer::tagged(&mut buf, 0), marker);
        buf.split_off(1)
    }

    #[test]
    fn a_dcmes_element_is_one_byte_and_any_other_name_is_spelled_out() {
        // One field of value "v", no user tags.
        for (at, element) in DC_ELEMENTS.into_iter().enumerate() {
            let content = DublinCore::new().field(element, "v");
            let bytes = content_bytes(&content);
            assert_eq!(bytes, [1, at as u8 + 1, 1, b'v', 0], "{element}");
            assert_eq!(decode_content(&bytes), Ok(content));
        }
        for literal in ["Title", "dc:title", "", "title "] {
            let content = DublinCore::new().field(literal, "v");
            let bytes = content_bytes(&content);
            let spelled = [&[1, 0, literal.len() as u8][..], literal.as_bytes(), &[1, b'v', 0]];
            assert_eq!(bytes, spelled.concat(), "{literal:?}");
            assert_eq!(decode_content(&bytes), Ok(content));
        }
        // A user tag is free text even when it is a DCMES name.
        let tagged = DublinCore::new().user_tag("title", "v");
        assert_eq!(content_bytes(&tagged), [0, 1, 5, b't', b'i', b't', b'l', b'e', 1, b'v']);
    }

    #[test]
    fn a_planar_region_is_four_coordinates_and_any_other_keeps_six() {
        let planar = Marker::region(-0.0, 1.5, 2.0, 1e300);
        let bytes = marker_bytes(&planar);
        assert_eq!((bytes[0], bytes.len()), (1, 1 + 4 * 8));
        let back = read_marker(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(marker_bytes(&back), bytes, "x keeps its sign");
        for (z0, z1) in [(-0.0, 0.0), (0.0, -0.0), (f64::NAN, 0.0), (0.0, 5.0), (-1.0, 1.0)] {
            let region = Marker::Region(Rect { min: [0.0, 1.0, z0], max: [2.0, 3.0, z1] });
            let bytes = marker_bytes(&region);
            assert_eq!((bytes[0], bytes.len()), (4, 1 + 6 * 8), "z {z0} / {z1}");
            let Ok(Marker::Region(back)) = read_marker(&mut Reader::new(&bytes)) else {
                panic!("z {z0} / {z1} reads back as a region");
            };
            assert_eq!(
                [back.min[2].to_bits(), back.max[2].to_bits()],
                [z0.to_bits(), z1.to_bits()]
            );
        }
        // A volume in the plane is still a volume, in six coordinates.
        let flat_volume =
            marker_bytes(&Marker::Volume(Rect::new([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])));
        assert_eq!((flat_volume[0], flat_volume.len()), (2, 1 + 6 * 8));
    }

    #[test]
    fn every_second_spelling_is_a_typed_error() {
        let content = |bytes: &[u8]| decode_content(bytes).unwrap_err().0;
        // Code 0 followed by one of the fifteen names: the code is its one spelling.
        for element in DC_ELEMENTS {
            let spelled = [&[1, 0, element.len() as u8][..], element.as_bytes(), &[1, b'v', 0]];
            assert!(content(&spelled.concat()).contains(element), "{element}");
        }
        for code in 16..=255u8 {
            assert!(content(&[1, code, 1, b'v', 0]).contains("unknown element code"), "{code}");
        }
        // Tag 4 whose z is `+0.0` / `+0.0`: tag 1 is that region's spelling.
        let mut six = vec![4];
        for v in [0.0f64, 1.0, 0.0, 2.0, 3.0, 0.0] {
            six.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert!(read_marker(&mut Reader::new(&six)).unwrap_err().0.contains("planar"));
        // A creation run that is empty, repeats its neighbour's kind, or has no kind.
        for (runs, names) in [
            (&[1, 0, 0][..], "empty creation run"),
            (&[2, 1, 3, 1, 4][..], "two Annotation creation runs"),
            (&[1, 2, 1][..], "unknown creation kind 2"),
        ] {
            assert!(read_order(&mut Reader::new(runs)).unwrap_err().0.contains(names), "{names}");
        }
        // A payload of the format this one replaced.
        let mut payload = golden_record().encode().split_off(FRAME_HEADER);
        payload[0] = 0x01;
        let mut checkpoint = golden_checkpoint().encode();
        checkpoint[FRAME_HEADER] = 0x01;
        let checkpoint = crate::wal::encode_frame(&checkpoint[FRAME_HEADER..]);
        for err in
            [WalRecord::decode(&payload).unwrap_err(), Checkpoint::decode(&checkpoint).unwrap_err()]
        {
            let CoreError::Durability(message) = &err else { panic!("{err:?}") };
            assert!(message.contains("unsupported") && message.contains("0x01"), "{message}");
        }
    }

    // The format, pinned: a change to either literal is a change of format, and lands
    // with a new format byte (module docs).
    const GOLDEN_RECORD: &str = "\
        6a000000315e39750207030000057365712d3704636872310401a01f0307756e6b6e6f776e020000\
        00000000e03f030463687231000102040d636c65617661676520736974650005782d6c6162045344\
        5343010763757261746f7202753102000700e8073201ac02010202067465726d2d37";
    const GOLDEN_CHECKPOINT: &str = "\
        cb0000008ad5a4d402090004000101010001010102000473656734076368722d666c750401a01f03\
        07756e6b6e6f776e02000000000000e03f03076368722d666c75000705627261696e046373323504\
        0180080180080308636f6e666f63616c03046373323500020000e807320101000000000000244000\
        000000000025400000000000004e400000000000004e400202040d636c6561766167652073697465\
        0206636f6e6469740001000100010403726f690002000100020850726f746561736506456e7a796d\
        65000100000100034e5333";

    #[test]
    fn a_record_frame_equals_its_golden_bytes() {
        let record = golden_record();
        let frame = record.encode();
        assert_eq!(hex(&frame), GOLDEN_RECORD);
        let scan = scan_frames(&unhex(GOLDEN_RECORD));
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(scan.payloads[0][0], FORMAT);
        assert_eq!(WalRecord::decode(&scan.payloads[0]).unwrap(), record);
    }

    #[test]
    fn a_checkpoint_frame_equals_its_golden_bytes() {
        let checkpoint = golden_checkpoint();
        assert_eq!(checkpoint.snapshot.objects.len(), 2);
        assert_eq!(hex(&checkpoint.encode()), GOLDEN_CHECKPOINT);
        assert_eq!(Checkpoint::decode(&unhex(GOLDEN_CHECKPOINT)).unwrap(), checkpoint);
    }
}
