//! The wire protocol: WAL-style CRC frames carrying a tagged binary payload.
//!
//! Every frame is `[len u32 LE][crc32 u32 LE][payload]` — the same header and the
//! same [`crc32`] as the WAL's on-disk format, so a torn or corrupted frame is
//! detected before a single payload byte is interpreted.  The first payload byte
//! is the frame kind:
//!
//! | kind | frame | body |
//! |------|-------|------|
//! | 1 | request | `deadline_ms u64` (rounded up; `u64::MAX` = unbounded) · `flags u8` (bit 0 = `allow_partial`) · query DSL text |
//! | 2 | page | one binary-encoded [`ResultPage`] |
//! | 3 | tail | page count + the flat annotation/referent/object lists + `missing_shards` |
//! | 4 | error | a typed [`ServiceError`] / parse / shed error |
//!
//! A response is a stream: zero or more page frames followed by exactly one tail
//! frame, or one error frame.  Ids are plain `u64`/`u32` newtypes end to end, so
//! the page codec is a deterministic length-prefixed integer layout — two
//! faithful endpoints reassemble a [`QueryResult`] byte-identical under `to_json`.
//!
//! **One encoder.**  The byte cursor and the framing are `graphitti_core::codec`'s
//! `Writer` / `Reader` / `frame_in_place` — the cursor the WAL and checkpoint codec is
//! written over; the wire uses its fixed-width integers only, so its bytes are what
//! they were when the cursor lived here.  Every frame is built in place:
//! `frame_in_place` reserves the 8 header bytes in the caller's buffer, lets the
//! payload be encoded directly behind them, and back-fills `len` + `crc32` — no
//! per-frame `Vec`, no payload copy.  The
//! server's response path is [`ResponseBuffer`]: it encodes a whole response straight
//! from a borrowed `&QueryResult` (the result cache's shared `Arc` is read, never
//! cloned or split) into one connection-owned buffer and hands it to the socket in
//! **one `write`** — frames are coalesced per response, and only an answer larger
//! than [`RESPONSE_BUFFER_LEN`] flushes early.  [`encode_page`], [`encode_tail`],
//! [`encode_failure`] and [`write_frame`] are thin wrappers over the same payload
//! encoders and the same framing, for callers that want one payload or one frame at
//! a time (the client's request path, the acceptor's shed frame).  The bytes on the
//! wire do not depend on which entry point produced them.

use std::io::{self, Read, Write};
use std::time::Duration;

use agraph::{ConnectionSubgraph, EdgeId, NodeId, Subgraph};
use graphitti_core::codec::{
    frame_in_place, CodecError, Reader as WireReader, Writer as WireWriter,
};
use graphitti_core::wal::crc32;
use graphitti_core::{AnnotationId, ObjectId, ReferentId};
use graphitti_query::resilience::ServiceError;
use graphitti_query::result::{QueryResult, ResultPage, ResultTail};
use ontology::ConceptId;

/// Frame header: payload length + CRC, both little-endian u32 (the WAL's layout).
pub use graphitti_core::wal::FRAME_HEADER;

/// Upper bound on a single frame payload — a decode-side guard so a corrupt or
/// hostile length prefix cannot ask either endpoint to allocate unboundedly.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame kind tags (first payload byte).
pub const KIND_REQUEST: u8 = 1;
/// One streamed result page.
pub const KIND_PAGE: u8 = 2;
/// End of a successful response stream.
pub const KIND_TAIL: u8 = 3;
/// Typed failure, terminal for its request.
pub const KIND_ERROR: u8 = 4;

/// Wire error codes (first byte of an error frame body).
const ERR_OVERLOADED: u8 = 1;
const ERR_DEADLINE: u8 = 2;
const ERR_CANCELLED: u8 = 3;
const ERR_WORKER_PANICKED: u8 = 4;
const ERR_SHARD_UNAVAILABLE: u8 = 5;
const ERR_ALREADY_TAKEN: u8 = 6;
const ERR_WAL_FLUSH: u8 = 7;
const ERR_BAD_QUERY: u8 = 8;
const ERR_CONNECTION_SHED: u8 = 9;

/// A protocol violation observed while decoding: bad CRC, truncated payload,
/// oversized length prefix, unknown tag.  Always terminal for the connection —
/// after a framing error there is no trustworthy resynchronisation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol violation: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A payload the shared cursor could not read is a protocol violation.
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError(e.0)
    }
}

fn truncated(what: &str) -> WireError {
    WireError(format!("truncated {what}"))
}

/// The request side of a [`QueryBudget`](graphitti_query::QueryBudget), carried
/// relative on the wire: the server rebuilds the absolute deadline at decode
/// time, so clocks never need to agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBudget {
    /// Time allowed from server-side decode, `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Accept shard-degraded partial answers (the sharded backend's opt-in).
    pub allow_partial: bool,
}

impl WireBudget {
    /// Unbounded, complete-answer budget.
    pub fn unbounded() -> Self {
        WireBudget::default()
    }

    /// Builder: allow `timeout` from server-side decode.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    /// Builder: accept shard-degraded partial answers.
    pub fn with_allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The query, as DSL text (parsed server-side by `graphitti_query::parse`).
    pub query: String,
    /// The budget to execute it under.
    pub budget: WireBudget,
}

/// An error frame's decoded content: a typed service error, a query-text
/// rejection, or transport-level connection shedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFailure {
    /// A [`ServiceError`] from the backend, round-tripped losslessly.
    Service(ServiceError),
    /// The server could not parse the query DSL text.
    BadQuery(String),
    /// The acceptor refused the connection: the house is full (`live`
    /// connections at the configured ceiling) — the transport-level analogue of
    /// [`ServiceError::Overloaded`].
    ConnectionShed {
        /// Live connections observed at refusal.
        live: u64,
    },
}

// --- framing ---------------------------------------------------------------

/// Write one CRC frame around `payload` (header + body in one buffer, one
/// `write_all` — the transport never observes a torn header).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame_in_place(&mut frame, |out| out.extend_from_slice(payload));
    w.write_all(&frame)
}

/// Size a connection's response buffer flushes at: a response that fits leaves in
/// one `write`; a larger one is cut at the first frame boundary past this many
/// bytes.  Fixed — it bounds per-connection memory, and two orders of magnitude
/// separate a typical answer (≈ 2 KB) from it, so there is nothing to tune.
pub const RESPONSE_BUFFER_LEN: usize = 32 * 1024;

/// A connection-owned buffer that encodes whole responses in place and sends each
/// in as few writes as its size allows (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct ResponseBuffer {
    buf: Vec<u8>,
}

impl ResponseBuffer {
    /// An empty buffer; it grows to what the connection's answers need, up to
    /// [`RESPONSE_BUFFER_LEN`] plus one frame.
    pub fn new() -> Self {
        ResponseBuffer::default()
    }

    /// Send `result` as its response stream — one page frame per page, then the tail
    /// frame — reading it in place.  Returns the number of page frames sent.
    pub fn send_result(&mut self, w: &mut impl Write, result: &QueryResult) -> io::Result<u32> {
        self.buf.clear();
        let mut pages = 0u32;
        for page in &result.pages {
            frame_in_place(&mut self.buf, |out| put_page(out, page));
            pages += 1;
            if self.buf.len() >= RESPONSE_BUFFER_LEN {
                self.flush(w)?;
            }
        }
        frame_in_place(&mut self.buf, |out| {
            put_tail(
                out,
                pages,
                &result.annotations,
                &result.referents,
                &result.objects,
                &result.missing_shards,
            );
        });
        self.flush(w)?;
        Ok(pages)
    }

    /// Send one typed error frame.
    pub fn send_failure(&mut self, w: &mut impl Write, failure: &WireFailure) -> io::Result<()> {
        self.buf.clear();
        frame_in_place(&mut self.buf, |out| put_failure(out, failure));
        self.flush(w)
    }

    fn flush(&mut self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.buf)?;
        self.buf.clear();
        // One oversized frame must not pin its allocation for the connection's life.
        self.buf.shrink_to(2 * RESPONSE_BUFFER_LEN);
        w.flush()
    }
}

/// Read one CRC frame; `Ok(None)` on clean EOF at a frame boundary.  CRC or
/// length violations come back as [`WireError`] via `io::ErrorKind::InvalidData`
/// — see [`wire_error_of`] to recover the typed form.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_len, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a buffer the caller keeps — a connection reads every frame
/// into the one it owns, so a frame costs no allocation once the buffer has grown to
/// the connection's frames.  `Ok(true)`: `payload` holds exactly the frame's payload;
/// `Ok(false)`: clean EOF at a frame boundary.  The buffer is sized to the declared
/// length only after the cap check, and one oversized frame does not pin its
/// allocation: past [`RESPONSE_BUFFER_LEN`] the capacity is given back before the
/// next frame, as [`ResponseBuffer`] does on the sending side.
pub fn read_frame_into(r: &mut impl Read, max_len: u32, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; FRAME_HEADER];
    if !read_full(r, &mut header)? {
        return Ok(false);
    }
    let (len_bytes, crc_bytes) = header.split_at(4);
    let len = u32::from_le_bytes(len_bytes.try_into().map_err(|_| short_header())?);
    let expect_crc = u32::from_le_bytes(crc_bytes.try_into().map_err(|_| short_header())?);
    if len > max_len {
        return Err(invalid(WireError(format!("frame length {len} exceeds cap {max_len}"))));
    }
    payload.clear();
    payload.shrink_to(2 * RESPONSE_BUFFER_LEN);
    payload.resize(len as usize, 0);
    if !read_full(r, payload)? {
        return Err(invalid(truncated("frame payload")));
    }
    if crc32(payload) != expect_crc {
        return Err(invalid(WireError("frame CRC mismatch".to_string())));
    }
    Ok(true)
}

fn short_header() -> io::Error {
    invalid(truncated("frame header"))
}

fn invalid(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// The [`WireError`] carried by an `InvalidData` io error from this module.
pub fn wire_error_of(err: &io::Error) -> Option<WireError> {
    if err.kind() != io::ErrorKind::InvalidData {
        return None;
    }
    err.get_ref().and_then(|e| e.downcast_ref::<WireError>()).cloned()
}

/// Fill `buf` completely; `Ok(false)` on EOF before the first byte.  Unlike
/// `read_exact`, a timeout-induced partial read resumes where it left off, so a
/// socket read timeout (the server's shutdown poll) never tears a frame.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            return Ok(true);
        };
        match r.read(rest) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(invalid(truncated("frame (mid-read EOF)")));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// --- request ---------------------------------------------------------------

/// Encode a request payload (frame it with [`write_frame`]).  The deadline travels
/// in whole milliseconds, rounded **up**: a sub-millisecond budget must not arrive
/// as `0` — "already expired" — when a cached answer takes tens of microseconds.
pub fn encode_request(query: &str, budget: &WireBudget) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = WireWriter::tagged(&mut out, KIND_REQUEST);
    let deadline_ms = match budget.deadline {
        Some(d) => {
            let ceil_ms = d.as_nanos().div_ceil(1_000_000);
            u64::try_from(ceil_ms).unwrap_or(u64::MAX).min(u64::MAX - 1)
        }
        None => u64::MAX,
    };
    w.u64(deadline_ms);
    w.u8(u8::from(budget.allow_partial));
    w.str(query);
    out
}

/// Decode a request payload (tag byte included).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = WireReader::new(payload);
    expect_tag(&mut r, KIND_REQUEST, "request")?;
    let deadline_ms = r.u64("request deadline")?;
    let flags = r.u8("request flags")?;
    let query = r.str("request query")?;
    let deadline =
        if deadline_ms == u64::MAX { None } else { Some(Duration::from_millis(deadline_ms)) };
    Ok(Request { query, budget: WireBudget { deadline, allow_partial: flags & 1 != 0 } })
}

fn expect_tag(r: &mut WireReader<'_>, want: u8, what: &str) -> Result<(), WireError> {
    let tag = r.u8(what)?;
    if tag != want {
        return Err(WireError(format!("expected {what} frame (kind {want}), got kind {tag}")));
    }
    Ok(())
}

// --- pages & tail ----------------------------------------------------------

/// Encode one result page as a page frame payload.
pub fn encode_page(page: &ResultPage) -> Vec<u8> {
    let mut out = Vec::new();
    put_page(&mut out, page);
    out
}

fn put_page(out: &mut Vec<u8>, page: &ResultPage) {
    let mut w = WireWriter::tagged(out, KIND_PAGE);
    w.u64_list(page.subgraph.terminals.iter().map(|n| n.0));
    w.u64_list(page.subgraph.subgraph.nodes.iter().map(|n| n.0));
    w.u64_list(page.subgraph.subgraph.edges.iter().map(|e| e.0));
    w.u64_list(page.annotations.iter().map(|a| a.0));
    w.u64_list(page.referents.iter().map(|r| r.0));
    w.u64_list(page.objects.iter().map(|o| o.0));
    w.u32_list(page.terms.iter().map(|t| t.0));
}

/// Decode a page frame payload.
pub fn decode_page(payload: &[u8]) -> Result<ResultPage, WireError> {
    let mut r = WireReader::new(payload);
    expect_tag(&mut r, KIND_PAGE, "page")?;
    let terminals = r.u64_list("page terminals", NodeId)?;
    let nodes = r.u64_list("page nodes", NodeId)?;
    let edges = r.u64_list("page edges", EdgeId)?;
    let annotations = r.u64_list("page annotations", AnnotationId)?;
    let referents = r.u64_list("page referents", ReferentId)?;
    let objects = r.u64_list("page objects", ObjectId)?;
    let terms = r.u32_list("page terms", ConceptId)?;
    if !r.exhausted() {
        return Err(WireError("trailing bytes after page".to_string()));
    }
    Ok(ResultPage {
        subgraph: ConnectionSubgraph { terminals, subgraph: Subgraph { nodes, edges } },
        annotations,
        referents,
        objects,
        terms,
    })
}

/// Encode the response tail: the page count the client must have seen, plus the
/// flat lists of the [`ResultTail`].
pub fn encode_tail(pages_streamed: u32, tail: &ResultTail) -> Vec<u8> {
    let ResultTail { annotations, referents, objects, missing_shards } = tail;
    let mut out = Vec::new();
    put_tail(&mut out, pages_streamed, annotations, referents, objects, missing_shards);
    out
}

/// The tail payload from the flat lists themselves — a [`ResultTail`]'s or, read in
/// place, a [`QueryResult`]'s.
fn put_tail(
    out: &mut Vec<u8>,
    pages_streamed: u32,
    annotations: &[AnnotationId],
    referents: &[ReferentId],
    objects: &[ObjectId],
    missing_shards: &[usize],
) {
    let mut w = WireWriter::tagged(out, KIND_TAIL);
    w.u32(pages_streamed);
    w.u64_list(annotations.iter().map(|a| a.0));
    w.u64_list(referents.iter().map(|r| r.0));
    w.u64_list(objects.iter().map(|o| o.0));
    w.u64_list(missing_shards.iter().map(|&s| s as u64));
}

/// Decode a tail frame payload into `(expected page count, tail)`.
pub fn decode_tail(payload: &[u8]) -> Result<(u32, ResultTail), WireError> {
    let mut r = WireReader::new(payload);
    expect_tag(&mut r, KIND_TAIL, "tail")?;
    let pages = r.u32("tail page count")?;
    let annotations = r.u64_list("tail annotations", AnnotationId)?;
    let referents = r.u64_list("tail referents", ReferentId)?;
    let objects = r.u64_list("tail objects", ObjectId)?;
    let missing_shards = r.u64_list("tail missing shards", |v| v as usize)?;
    if !r.exhausted() {
        return Err(WireError("trailing bytes after tail".to_string()));
    }
    Ok((pages, ResultTail { annotations, referents, objects, missing_shards }))
}

// --- errors ----------------------------------------------------------------

/// Encode a failure as an error frame payload.
pub fn encode_failure(failure: &WireFailure) -> Vec<u8> {
    let mut out = Vec::new();
    put_failure(&mut out, failure);
    out
}

fn put_failure(out: &mut Vec<u8>, failure: &WireFailure) {
    let mut w = WireWriter::tagged(out, KIND_ERROR);
    match failure {
        WireFailure::Service(err) => match err {
            ServiceError::Overloaded { depth } => {
                w.u8(ERR_OVERLOADED);
                w.u64(*depth as u64);
            }
            ServiceError::DeadlineExceeded => w.u8(ERR_DEADLINE),
            ServiceError::Cancelled => w.u8(ERR_CANCELLED),
            ServiceError::WorkerPanicked => w.u8(ERR_WORKER_PANICKED),
            ServiceError::ShardUnavailable { shard, attempts } => {
                w.u8(ERR_SHARD_UNAVAILABLE);
                w.u64(*shard as u64);
                w.u64(u64::from(*attempts));
            }
            ServiceError::AlreadyTaken => w.u8(ERR_ALREADY_TAKEN),
            ServiceError::WalFlush(msg) => {
                w.u8(ERR_WAL_FLUSH);
                w.str(msg);
            }
        },
        WireFailure::BadQuery(msg) => {
            w.u8(ERR_BAD_QUERY);
            w.str(msg);
        }
        WireFailure::ConnectionShed { live } => {
            w.u8(ERR_CONNECTION_SHED);
            w.u64(*live);
        }
    }
}

/// Decode an error frame payload.
pub fn decode_failure(payload: &[u8]) -> Result<WireFailure, WireError> {
    let mut r = WireReader::new(payload);
    expect_tag(&mut r, KIND_ERROR, "error")?;
    let code = r.u8("error code")?;
    let failure = match code {
        ERR_OVERLOADED => WireFailure::Service(ServiceError::Overloaded {
            depth: r.u64("overloaded depth")? as usize,
        }),
        ERR_DEADLINE => WireFailure::Service(ServiceError::DeadlineExceeded),
        ERR_CANCELLED => WireFailure::Service(ServiceError::Cancelled),
        ERR_WORKER_PANICKED => WireFailure::Service(ServiceError::WorkerPanicked),
        ERR_SHARD_UNAVAILABLE => {
            let shard = r.u64("shard index")? as usize;
            let attempts = r.u64("shard attempts")? as u32;
            WireFailure::Service(ServiceError::ShardUnavailable { shard, attempts })
        }
        ERR_ALREADY_TAKEN => WireFailure::Service(ServiceError::AlreadyTaken),
        ERR_WAL_FLUSH => WireFailure::Service(ServiceError::WalFlush(r.str("wal message")?)),
        ERR_BAD_QUERY => WireFailure::BadQuery(r.str("parse message")?),
        ERR_CONNECTION_SHED => WireFailure::ConnectionShed { live: r.u64("live connections")? },
        other => return Err(WireError(format!("unknown error code {other}"))),
    };
    Ok(failure)
}

/// The kind tag of a received payload (its first byte).
pub fn frame_kind(payload: &[u8]) -> Result<u8, WireError> {
    payload.first().copied().ok_or_else(|| truncated("frame kind"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> ResultPage {
        ResultPage {
            subgraph: ConnectionSubgraph {
                terminals: vec![NodeId(4), NodeId(9)],
                subgraph: Subgraph {
                    nodes: vec![NodeId(4), NodeId(7), NodeId(9)],
                    edges: vec![EdgeId(1), EdgeId(2)],
                },
            },
            annotations: vec![AnnotationId(11)],
            referents: vec![ReferentId(3), ReferentId(5)],
            objects: vec![ObjectId(0)],
            terms: vec![ConceptId(2)],
        }
    }

    #[test]
    fn request_roundtrip() {
        for budget in [
            WireBudget::unbounded(),
            WireBudget::unbounded().with_deadline(Duration::from_millis(250)),
            WireBudget::unbounded().with_allow_partial(true),
        ] {
            let payload = encode_request("SELECT referents WHERE phrase \"x\"", &budget);
            let req = decode_request(&payload).unwrap();
            assert_eq!(req.query, "SELECT referents WHERE phrase \"x\"");
            assert_eq!(req.budget, budget);
        }
        // The deadline travels in whole milliseconds, rounded up: only `ZERO` may
        // arrive as "already expired".
        for (sent_us, arrives_ms) in [(1, 1), (999, 1), (1_000, 1), (1_500, 2), (0, 0)] {
            let budget = WireBudget::unbounded().with_deadline(Duration::from_micros(sent_us));
            let req = decode_request(&encode_request("SELECT contents", &budget)).unwrap();
            assert_eq!(
                req.budget.deadline,
                Some(Duration::from_millis(arrives_ms)),
                "{sent_us} µs"
            );
        }
    }

    #[test]
    fn page_and_tail_roundtrip() {
        let page = sample_page();
        assert_eq!(decode_page(&encode_page(&page)).unwrap(), page);
        let tail = ResultTail {
            annotations: vec![AnnotationId(1), AnnotationId(2)],
            referents: vec![ReferentId(9)],
            objects: vec![],
            missing_shards: vec![1, 3],
        };
        let (pages, decoded) = decode_tail(&encode_tail(7, &tail)).unwrap();
        assert_eq!(pages, 7);
        assert_eq!(decoded, tail);
    }

    #[test]
    fn every_failure_roundtrips() {
        let failures = [
            WireFailure::Service(ServiceError::Overloaded { depth: 12 }),
            WireFailure::Service(ServiceError::DeadlineExceeded),
            WireFailure::Service(ServiceError::Cancelled),
            WireFailure::Service(ServiceError::WorkerPanicked),
            WireFailure::Service(ServiceError::ShardUnavailable { shard: 3, attempts: 2 }),
            WireFailure::Service(ServiceError::AlreadyTaken),
            WireFailure::Service(ServiceError::WalFlush("disk gone".to_string())),
            WireFailure::BadQuery("expected SELECT".to_string()),
            WireFailure::ConnectionShed { live: 64 },
        ];
        for f in failures {
            assert_eq!(decode_failure(&encode_failure(&f)).unwrap(), f);
        }
    }

    #[test]
    fn framing_roundtrips_and_rejects_corruption() {
        let payload = encode_page(&sample_page());
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap(), None, "clean EOF");

        // Flip one payload byte: the CRC catches it, typed.
        let mut corrupt = buf.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        let mut cursor = io::Cursor::new(corrupt);
        let _first = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        let err = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap_err();
        assert!(wire_error_of(&err).unwrap().0.contains("CRC"));

        // A lying length prefix is rejected before allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        hostile.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(hostile), MAX_FRAME_LEN).unwrap_err();
        assert!(wire_error_of(&err).unwrap().0.contains("exceeds cap"));

        // Truncation mid-payload is typed, not a hang or a panic.
        let cut = buf.get(..buf.len() - 3).unwrap().to_vec();
        let mut cursor = io::Cursor::new(cut);
        let _first = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap();
        let err = read_frame(&mut cursor, MAX_FRAME_LEN).unwrap_err();
        assert!(wire_error_of(&err).is_some());
    }

    #[test]
    fn truncated_payloads_decode_to_typed_errors() {
        let page = encode_page(&sample_page());
        for cut in 0..page.len() {
            let sliced = page.get(..cut).unwrap();
            assert!(decode_page(sliced).is_err(), "cut at {cut} must not decode");
        }
        // A lying list count inside a frame is rejected before allocation.
        let mut lying = Vec::new();
        WireWriter::tagged(&mut lying, KIND_PAGE).u32(u32::MAX);
        assert!(decode_page(&lying).is_err());
    }

    // --- the wire format, pinned ------------------------------------------------

    fn golden_page(seed: u64) -> ResultPage {
        ResultPage {
            subgraph: ConnectionSubgraph {
                terminals: vec![NodeId(seed), NodeId(seed + 5)],
                subgraph: Subgraph {
                    nodes: vec![NodeId(seed), NodeId(seed + 3), NodeId(seed + 5)],
                    edges: vec![EdgeId(seed * 2), EdgeId(seed * 2 + 1)],
                },
            },
            annotations: vec![AnnotationId(seed + 11)],
            referents: vec![ReferentId(seed + 3), ReferentId(seed + 5)],
            objects: vec![ObjectId(seed % 3)],
            terms: vec![ConceptId(seed as u32 + 2)],
        }
    }

    fn golden_result(pages: u64, missing_shards: Vec<usize>) -> QueryResult {
        QueryResult {
            pages: (0..pages).map(|i| golden_page(i * 7 + 1)).collect(),
            annotations: (0..pages).map(|i| AnnotationId(i * 7 + 12)).collect(),
            referents: vec![ReferentId(4), ReferentId(6)],
            objects: if pages == 0 { vec![] } else { vec![ObjectId(0), ObjectId(1)] },
            missing_shards,
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// The response stream as the one-payload / one-frame wrappers spell it.
    fn wire_by_wrappers(result: &QueryResult) -> Vec<u8> {
        let mut wire = Vec::new();
        let (pages, tail) = result.clone().into_stream();
        let mut streamed = 0u32;
        for page in pages {
            write_frame(&mut wire, &encode_page(&page)).unwrap();
            streamed += 1;
        }
        write_frame(&mut wire, &encode_tail(streamed, &tail)).unwrap();
        wire
    }

    fn wire_by_response_buffer(result: &QueryResult) -> Vec<u8> {
        let mut wire = Vec::new();
        let pages = ResponseBuffer::new().send_result(&mut wire, result).unwrap();
        assert_eq!(pages as usize, result.pages.len());
        wire
    }

    // Captured at the commit before the in-place encoder, from
    // `write_frame(encode_page(..))… + write_frame(encode_tail(..))` over
    // `golden_result` — the independent oracle: the wrappers now share the
    // encoder's code, so agreeing with them alone would prove nothing.
    const PAGE_1: &str = "\
        790000009b2687350202000000010000000000000006000000000000000300000001000000000000\
        00040000000000000006000000000000000200000002000000000000000300000000000000010000\
        000c0000000000000002000000040000000000000006000000000000000100000001000000000000\
        000100000003000000";
    const PAGE_8: &str = "\
        7900000078cd8430020200000008000000000000000d000000000000000300000008000000000000\
        000b000000000000000d000000000000000200000010000000000000001100000000000000010000\
        001300000000000000020000000b000000000000000d000000000000000100000002000000000000\
        00010000000a000000";
    const PAGE_15: &str = "\
        7900000073973ff902020000000f000000000000001400000000000000030000000f000000000000\
        0012000000000000001400000000000000020000001e000000000000001f00000000000000010000\
        001a0000000000000002000000120000000000000014000000000000000100000000000000000000\
        000100000011000000";
    const TAIL_0: &str = "\
        25000000854d4c470300000000000000000200000004000000000000000600000000000000000000\
        0000000000";
    const TAIL_1: &str = "\
        3d000000f4810b860301000000010000000c00000000000000020000000400000000000000060000\
        0000000000020000000000000000000000010000000000000000000000";
    const TAIL_3: &str = "\
        4d000000ccbd62630303000000030000000c0000000000000013000000000000001a000000000000\
        00020000000400000000000000060000000000000002000000000000000000000001000000000000\
        0000000000";
    const TAIL_2_DEGRADED: &str = "\
        55000000f08518970302000000020000000c00000000000000130000000000000002000000040000\
        00000000000600000000000000020000000000000000000000010000000000000002000000010000\
        00000000000300000000000000";

    #[test]
    fn response_bytes_equal_the_golden_wire_format() {
        let cases = [
            (golden_result(0, vec![]), vec![TAIL_0]),
            (golden_result(1, vec![]), vec![PAGE_1, TAIL_1]),
            (golden_result(3, vec![]), vec![PAGE_1, PAGE_8, PAGE_15, TAIL_3]),
            (golden_result(2, vec![1, 3]), vec![PAGE_1, PAGE_8, TAIL_2_DEGRADED]),
        ];
        for (result, frames) in cases {
            let golden = unhex(&frames.concat());
            let pages = result.pages.len();
            assert_eq!(wire_by_response_buffer(&result), golden, "{pages} pages: encoder");
            assert_eq!(wire_by_wrappers(&result), golden, "{pages} pages: wrappers");
        }
    }

    #[test]
    fn failure_bytes_equal_the_golden_wire_format() {
        let cases = [
            (
                WireFailure::Service(ServiceError::Overloaded { depth: 12 }),
                "0a00000000c9b5aa04010c00000000000000",
            ),
            (WireFailure::Service(ServiceError::DeadlineExceeded), "02000000d7b6bbcb0402"),
            (WireFailure::Service(ServiceError::Cancelled), "020000004186bcbc0403"),
            (WireFailure::Service(ServiceError::WorkerPanicked), "02000000e213d8220404"),
            (
                WireFailure::Service(ServiceError::ShardUnavailable { shard: 3, attempts: 2 }),
                "120000004847f0f3040503000000000000000200000000000000",
            ),
            (WireFailure::Service(ServiceError::AlreadyTaken), "02000000ce72d6cc0406"),
            (
                WireFailure::Service(ServiceError::WalFlush("disk gone".to_string())),
                "0f000000e627722c0407090000006469736b20676f6e65",
            ),
            (
                WireFailure::BadQuery("expected SELECT".to_string()),
                "15000000c3ba879e04080f00000065787065637465642053454c454354",
            ),
            (WireFailure::ConnectionShed { live: 64 }, "0a000000babc5f6f04094000000000000000"),
        ];
        for (failure, golden) in cases {
            let golden = unhex(golden);
            let mut by_buffer = Vec::new();
            ResponseBuffer::new().send_failure(&mut by_buffer, &failure).unwrap();
            assert_eq!(by_buffer, golden, "{failure:?}: encoder");
            let mut by_wrappers = Vec::new();
            write_frame(&mut by_wrappers, &encode_failure(&failure)).unwrap();
            assert_eq!(by_wrappers, golden, "{failure:?}: wrappers");
        }
    }

    /// A byte source that hands out `bytes` in reads ending at each of `cuts`, and
    /// fails one read with `TimedOut` when it reaches `stall_at`.
    struct Choppy<'a> {
        bytes: &'a [u8],
        pos: usize,
        cuts: Vec<usize>,
        stall_at: Option<usize>,
    }

    impl Read for Choppy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.stall_at == Some(self.pos) {
                self.stall_at = None;
                return Err(io::ErrorKind::TimedOut.into());
            }
            let next_cut = self.cuts.iter().copied().find(|&c| c > self.pos);
            let end = next_cut.unwrap_or(self.bytes.len()).min(self.pos + buf.len());
            let chunk = &self.bytes[self.pos..end];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.pos = end;
            Ok(chunk.len())
        }
    }

    /// What the server's `PatientReader` does with a poll-interval timeout: retry.
    struct Patient<R>(R);

    impl<R: Read> Read for Patient<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            loop {
                match self.0.read(buf) {
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                    other => return other,
                }
            }
        }
    }

    #[test]
    fn a_response_split_at_any_byte_reassembles_byte_identical() {
        let result = golden_result(3, vec![2]);
        let expected = result.to_json();
        let wire = wire_by_response_buffer(&result);
        let reassemble = |source: Choppy<'_>| {
            let mut reader = io::BufReader::with_capacity(RESPONSE_BUFFER_LEN, Patient(source));
            let got = crate::client::read_response(&mut reader, MAX_FRAME_LEN).unwrap();
            assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), None, "nothing left over");
            got.to_json()
        };
        for cut in 0..=wire.len() {
            // Two reads meeting at `cut`...
            let split = Choppy { bytes: &wire, pos: 0, cuts: vec![cut], stall_at: None };
            assert_eq!(reassemble(split), expected, "split at byte {cut}");
            // ...and a read that times out there — mid-header or mid-payload for most
            // cuts — before the rest arrives.
            let stalled = Choppy { bytes: &wire, pos: 0, cuts: vec![cut], stall_at: Some(cut) };
            assert_eq!(reassemble(stalled), expected, "timeout at byte {cut}");
        }
        // Every byte its own read.
        let drip = Choppy { bytes: &wire, pos: 0, cuts: (0..wire.len()).collect(), stall_at: None };
        assert_eq!(reassemble(drip), expected);
    }

    /// Counts `write` calls and keeps what was written.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_a_larger_one_flushes_early() {
        let mut out = ResponseBuffer::new();

        // Ten pages and a tail: eleven frames, one write (a write per frame before).
        let ten = golden_result(10, vec![]);
        let mut w = CountingWriter::default();
        assert_eq!(out.send_result(&mut w, &ten).unwrap(), 10);
        assert_eq!(w.writes.len(), 1, "writes: {:?}", w.writes);
        assert_eq!(w.bytes, wire_by_wrappers(&ten));

        // An answer several buffers long leaves in buffer-sized writes, cut at frame
        // boundaries, and the bytes are still the same stream.
        let large = golden_result(1_000, vec![]);
        let wire = wire_by_wrappers(&large);
        assert!(wire.len() > 3 * RESPONSE_BUFFER_LEN);
        let mut w = CountingWriter::default();
        assert_eq!(out.send_result(&mut w, &large).unwrap(), 1_000);
        assert_eq!(w.bytes, wire);
        let page_frame = FRAME_HEADER + encode_page(&golden_page(1)).len();
        let (last, early) = w.writes.split_last().unwrap();
        assert_eq!(early.len(), 3, "writes: {:?}", w.writes);
        for len in early {
            // Flushed at the first frame boundary past the threshold.
            assert!((RESPONSE_BUFFER_LEN..RESPONSE_BUFFER_LEN + page_frame).contains(len));
        }
        assert_eq!(early.iter().sum::<usize>() + last, wire.len());

        // The buffer is reusable after either, and an error frame is one write too.
        let mut w = CountingWriter::default();
        out.send_failure(&mut w, &WireFailure::Service(ServiceError::Cancelled)).unwrap();
        assert_eq!(w.writes, vec![10]);
    }
}
