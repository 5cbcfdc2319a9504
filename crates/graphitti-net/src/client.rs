//! Client side of the wire protocol: framed send/receive with pipelining,
//! page reassembly, and a tiny HTTP getter for the health endpoint.
//!
//! [`Client::query`] is the one-shot path; [`Client::send`] + [`Client::recv`]
//! decouple the halves so a caller can keep several requests in flight on one
//! connection (responses come back in submission order).  Received pages are
//! reassembled with [`QueryResult::from_stream`], so the client-side result is
//! byte-identical under `to_json` to the in-process answer.
//!
//! Responses are read through a [`RESPONSE_BUFFER_LEN`] buffered reader: the server
//! sends a response's frames in one write, so a typical answer costs the client one
//! `read` — not a header read and a payload read per frame.  A socket read timeout
//! ([`Client::set_read_timeout`]) surfaces from [`recv`](Client::recv) as before.

use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use graphitti_query::resilience::ServiceError;
use graphitti_query::result::QueryResult;

use crate::protocol::{
    decode_failure, decode_page, decode_tail, encode_request, frame_kind, read_frame_into,
    wire_error_of, write_frame, WireBudget, WireFailure, KIND_ERROR, KIND_PAGE, KIND_TAIL,
    MAX_FRAME_LEN, RESPONSE_BUFFER_LEN,
};

/// Everything a query over the wire can come back as, short of a result.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, or write).
    Io(io::Error),
    /// The peer violated the wire protocol (bad CRC, truncated frame,
    /// unexpected frame kind, or the connection closed mid-response).
    Protocol(String),
    /// The server answered with a typed serving error.
    Service(ServiceError),
    /// The server could not parse the query text.
    BadQuery(String),
    /// The acceptor refused the connection at its ceiling (`live` connections).
    ConnectionShed {
        /// Live connections observed when this one was refused.
        live: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Service(e) => write!(f, "service error: {e}"),
            NetError::BadQuery(what) => write!(f, "rejected query: {what}"),
            NetError::ConnectionShed { live } => {
                write!(f, "connection shed: server at its ceiling ({live} live)")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        // Framing violations travel as `InvalidData` wrapping a `WireError`;
        // surface those as protocol errors, everything else as transport.
        match wire_error_of(&e) {
            Some(wire) => NetError::Protocol(wire.0.clone()),
            None => NetError::Io(e),
        }
    }
}

impl From<crate::protocol::WireError> for NetError {
    fn from(e: crate::protocol::WireError) -> Self {
        NetError::Protocol(e.0)
    }
}

impl From<WireFailure> for NetError {
    fn from(failure: WireFailure) -> Self {
        match failure {
            WireFailure::Service(e) => NetError::Service(e),
            WireFailure::BadQuery(what) => NetError::BadQuery(what),
            WireFailure::ConnectionShed { live } => NetError::ConnectionShed { live },
        }
    }
}

/// A connection to a [`NetServer`](crate::server::NetServer).
pub struct Client {
    /// The connection; requests are written to the stream inside the reader.
    stream: BufReader<TcpStream>,
    /// Every response frame is read into this one buffer and decoded from it.
    frame: Vec<u8>,
    max_frame_len: u32,
}

impl Client {
    /// Connect to a server's protocol endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request frames must leave immediately, not sit behind Nagle waiting
        // for the ACK of a previous request on a pipelined connection.
        stream.set_nodelay(true)?;
        let stream = BufReader::with_capacity(RESPONSE_BUFFER_LEN, stream);
        Ok(Client { stream, frame: Vec::new(), max_frame_len: MAX_FRAME_LEN })
    }

    /// Cap the frame size this client will accept (default [`MAX_FRAME_LEN`]).
    pub fn with_max_frame_len(mut self, len: u32) -> Client {
        self.max_frame_len = len;
        self
    }

    /// Bound how long [`recv`](Client::recv) blocks between frames.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Send one request without waiting for its response.  Responses to
    /// pipelined sends come back in submission order.
    pub fn send(&mut self, query: &str, budget: &WireBudget) -> Result<(), NetError> {
        let mut stream = self.stream.get_ref();
        write_frame(&mut stream, &encode_request(query, budget))?;
        stream.flush()?;
        Ok(())
    }

    /// Receive the next response: page frames reassembled through
    /// [`QueryResult::from_stream`], or the typed error the server sent.
    pub fn recv(&mut self) -> Result<QueryResult, NetError> {
        read_response_into(&mut self.stream, self.max_frame_len, &mut self.frame)
    }

    /// One-shot request/response.
    pub fn query(&mut self, query: &str, budget: &WireBudget) -> Result<QueryResult, NetError> {
        self.send(query, budget)?;
        self.recv()
    }
}

/// Read one response stream off `r`: page frames up to the tail frame, or one error
/// frame ([`Client::recv`] over any byte source).
#[cfg(test)]
pub(crate) fn read_response(
    r: &mut impl Read,
    max_frame_len: u32,
) -> Result<QueryResult, NetError> {
    read_response_into(r, max_frame_len, &mut Vec::new())
}

/// The body of [`Client::recv`]: each frame is read into `frame` and decoded from it.
fn read_response_into(
    r: &mut impl Read,
    max_frame_len: u32,
    frame: &mut Vec<u8>,
) -> Result<QueryResult, NetError> {
    let mut pages = Vec::new();
    loop {
        if !read_frame_into(r, max_frame_len, frame)? {
            return Err(NetError::Protocol(format!(
                "connection closed mid-response after {} pages",
                pages.len()
            )));
        }
        match frame_kind(frame)? {
            KIND_PAGE => pages.push(decode_page(frame)?),
            KIND_TAIL => {
                let (streamed, tail) = decode_tail(frame)?;
                if streamed as usize != pages.len() {
                    return Err(NetError::Protocol(format!(
                        "tail frame claims {streamed} pages but {} were streamed",
                        pages.len()
                    )));
                }
                return Ok(QueryResult::from_stream(pages, tail));
            }
            KIND_ERROR => return Err(decode_failure(frame)?.into()),
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected frame kind {other} in a response stream"
                )))
            }
        }
    }
}

/// Fetch a path from the plaintext health endpoint; returns the response body.
/// A non-`200` status comes back as an error carrying the status line.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, NetError> {
    let mut stream = TcpStream::connect(addr).map_err(NetError::Io)?;
    let request = format!("GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(NetError::Io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(NetError::Io)?;
    let (head, body) = match response.split_once("\r\n\r\n") {
        Some(split) => split,
        None => return Err(NetError::Protocol("health response had no header/body split".into())),
    };
    let status_line = head.lines().next().unwrap_or("");
    if status_line.split_whitespace().nth(1) != Some("200") {
        return Err(NetError::Protocol(format!("health endpoint answered: {status_line}")));
    }
    Ok(body.to_string())
}
