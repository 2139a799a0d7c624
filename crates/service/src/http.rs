//! A minimal, dependency-free HTTP/1.1 subset for the campaign service.
//!
//! The workspace is offline-shimmed, so the wire layer is hand-rolled over
//! `std::net` — exactly the subset the campaign protocol needs and nothing
//! more: HTTP/1.1 keep-alive connections carrying any number of sequential
//! requests, `Content-Length` request bodies, and chunked transfer encoding
//! for the live event streams. Either side may end the conversation with a
//! `Connection: close` header; protocol errors always close. Both the server
//! and the [`Client`](crate::Client) speak through these helpers, so the two
//! ends of the protocol cannot drift apart.
//!
//! Because connections are reused, request framing is strict: a request
//! carrying `Transfer-Encoding`, or duplicate/conflicting `Content-Length`
//! headers, is rejected outright — ambiguous framing on a reused connection
//! is the classic request-smuggling shape, so it is a loud 400, never a
//! guess. Responses are held to the same rule on the client side: a pooled
//! connection that misreads one response boundary misreads every later one.
//!
//! Every outgoing message — a request, a whole sized response, a chunked
//! response head, each chunk frame — is framed by a [`MessageWriter`] into
//! one buffer and leaves the process in a single `write_all`, so the kernel
//! never sees a message split across small writes (see the crate docs'
//! write discipline).

use std::fmt;
use std::io::{self, BufRead, Write};
use std::net::TcpStream;
use std::time::Duration;

pub(crate) use mabfuzz::report::json_string;

/// Upper bound on a request body (campaign specs are a few KiB; a service
/// must not buffer unbounded attacker-controlled input).
pub(crate) const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on header count — enough for any real client, small enough
/// to bound a hostile request.
const MAX_HEADERS: usize = 64;

/// Upper bound on a single response chunk. The server writes chunks sized
/// by event-broadcast batches (KiB, not MiB); a hostile peer declaring a
/// multi-gigabyte chunk must not make the client materialise it.
const MAX_CHUNK_BYTES: usize = 4 << 20;

/// Upper bound on any single protocol line (request line, header, chunk
/// size). `read_line` alone would buffer a newline-free byte stream without
/// limit; every line in this module goes through [`read_line_capped`] so a
/// hostile peer cannot grow memory past this.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
/// `Ok(None)` is a clean EOF before any byte; an overlong line is an error.
fn read_line_capped<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    // UFCS pins `Self = &mut R` so `take` borrows the reader instead of
    // consuming it (plain `reader.take(..)` auto-derefs and moves `*reader`).
    let read = io::Read::take(reader, MAX_LINE_BYTES).read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') && read as u64 == MAX_LINE_BYTES {
        return Err(protocol_error(format!(
            "protocol line exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    Ok(Some(line))
}

/// One parsed request: method, path, (possibly empty) body, the
/// `Authorization` header value if the client sent one, and whether the
/// client asked for the connection to close after this exchange (the only
/// non-framing headers the protocol consumes — see the auth and keep-alive
/// sections of the crate docs).
#[derive(Debug)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    pub authorization: Option<String>,
    pub close: bool,
}

/// Whether a `Connection` header value asks for the connection to close
/// (token list, case-insensitive per RFC 9110).
fn wants_close(value: &str) -> bool {
    value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"))
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// without sending anything (a keep-alive peer finishing its conversation,
/// or the server's shutdown self-wake).
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(line) = read_line_capped(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) => (method, path, version),
        _ => return Err(protocol_error(format!("malformed request line `{}`", line.trim_end()))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(protocol_error(format!("unsupported protocol `{version}`")));
    }
    let request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        body: Vec::new(),
        authorization: None,
        close: false,
    };
    let headers = read_headers(reader)?;
    let authorization = header_value(&headers, "authorization").map(str::to_owned);
    let close = header_value(&headers, "connection").is_some_and(wants_close);
    // Ambiguous framing is a smuggling vector once connections are reused:
    // if the two ends ever disagreed about where a request body ends, every
    // later request on the connection would be parsed out of attacker-chosen
    // bytes. The protocol never uses chunked *requests*, so any
    // `Transfer-Encoding` is rejected, as are duplicate or conflicting
    // `Content-Length` headers — loudly, not by picking one.
    if header_value(&headers, "transfer-encoding").is_some() {
        return Err(protocol_error(
            "requests must use Content-Length framing; Transfer-Encoding is not accepted",
        ));
    }
    let content_length = content_length(&headers)?.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(protocol_error(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { body, authorization, close, ..request }))
}

/// Reads header lines until the blank separator, lower-casing names.
fn read_headers<R: BufRead>(reader: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line_capped(reader)? else {
            return Err(protocol_error("connection closed inside the header block"));
        };
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(protocol_error("too many headers"));
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
            }
            None => return Err(protocol_error(format!("malformed header `{line}`"))),
        }
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(key, _)| key == name).map(|(_, value)| value.as_str())
}

/// The message's `Content-Length`, if it carries one. Duplicate or
/// conflicting headers are rejected — loudly, not by picking one — because
/// two parsers that fold them differently disagree on where the body ends.
fn content_length(headers: &[(String, String)]) -> io::Result<Option<usize>> {
    let mut content_length = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        let parsed = value
            .parse::<usize>()
            .map_err(|_| protocol_error(format!("invalid Content-Length `{value}`")))?;
        match content_length {
            Some(seen) if seen != parsed => {
                return Err(protocol_error("conflicting Content-Length headers"))
            }
            Some(_) => return Err(protocol_error("duplicate Content-Length headers")),
            None => content_length = Some(parsed),
        }
    }
    Ok(content_length)
}

/// The reason phrase of the status codes the service emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// The `Connection` response header for a keep-alive or closing exchange.
fn connection_header(close: bool) -> &'static str {
    if close {
        "close"
    } else {
        "keep-alive"
    }
}

/// Sets up a connected socket for this protocol, on both ends: read/write
/// deadlines plus `TCP_NODELAY`. Every message already leaves in one write
/// (see [`MessageWriter`]), so Nagle's algorithm has nothing left to
/// coalesce — it would only hold each small segment back until the peer's
/// delayed ACK, about 44 ms per exchange on Linux. All three settings are
/// attempted even if one fails; the first failure is returned.
pub(crate) fn configure_socket(
    stream: &TcpStream,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> io::Result<()> {
    let nodelay = stream.set_nodelay(true);
    let read = stream.set_read_timeout(read_timeout);
    let write = stream.set_write_timeout(write_timeout);
    nodelay.and(read).and(write)
}

/// A writer that sends each HTTP message in exactly one `write_all`.
///
/// Every message is framed into a buffer the writer keeps (so a
/// connection reuses one allocation for all its responses and chunk
/// frames) and only then handed to the socket. Requests and responses
/// both go through [`send`](MessageWriter::send), so the client and the
/// server cannot drift apart on the discipline.
pub(crate) struct MessageWriter<W> {
    inner: W,
    frame: Vec<u8>,
}

impl<W: Write> MessageWriter<W> {
    pub(crate) fn new(inner: W) -> MessageWriter<W> {
        MessageWriter { inner, frame: Vec::new() }
    }

    /// Frames `head`, then `body`, then `tail` into the buffer and sends
    /// the whole frame in one write.
    fn send(&mut self, head: fmt::Arguments<'_>, body: &[u8], tail: &[u8]) -> io::Result<()> {
        self.frame.clear();
        self.frame.write_fmt(head)?;
        self.frame.extend_from_slice(body);
        self.frame.extend_from_slice(tail);
        self.inner.write_all(&self.frame)?;
        self.inner.flush()
    }

    #[cfg(test)]
    pub(crate) fn into_inner(self) -> W {
        self.inner
    }
}

/// Sends one request with a `Content-Length` body (possibly empty), head
/// and body together in a single write.
pub(crate) fn send_request<W: Write>(
    writer: &mut MessageWriter<W>,
    method: &str,
    path: &str,
    host: impl fmt::Display,
    bearer_token: Option<&str>,
    body: &[u8],
) -> io::Result<()> {
    let auth = match bearer_token {
        Some(token) => format!("Authorization: Bearer {token}\r\n"),
        None => String::new(),
    };
    writer.send(
        format_args!(
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\n{auth}Content-Length: {}\r\n\r\n",
            body.len()
        ),
        body,
        b"",
    )
}

/// Sends a complete JSON response (`Content-Length` framing). `close`
/// announces that the server will close the connection after this response;
/// otherwise the connection stays open for the next request.
pub(crate) fn respond_json<W: Write>(
    writer: &mut MessageWriter<W>,
    status: u16,
    body: &str,
    close: bool,
) -> io::Result<()> {
    writer.send(
        format_args!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: {}\r\n\r\n",
            status_text(status),
            body.len(),
            connection_header(close)
        ),
        body.as_bytes(),
        b"",
    )
}

/// Sends an error response whose body is `{"error":"<message>"}`.
pub(crate) fn respond_error<W: Write>(
    writer: &mut MessageWriter<W>,
    status: u16,
    message: &str,
    close: bool,
) -> io::Result<()> {
    respond_json(writer, status, &format!("{{\"error\":{}}}", json_string(message)), close)
}

/// Starts a chunked NDJSON response; follow with [`write_chunk`] per payload
/// and one [`finish_chunked`]. Chunked framing is self-terminating, so the
/// connection survives the stream unless `close` is set.
pub(crate) fn start_chunked<W: Write>(
    writer: &mut MessageWriter<W>,
    close: bool,
) -> io::Result<()> {
    writer.send(
        format_args!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            connection_header(close)
        ),
        b"",
        b"",
    )
}

/// Sends one non-empty chunk frame — size line, payload, CRLF — in one
/// write (an empty chunk would terminate the stream).
pub(crate) fn write_chunk<W: Write>(writer: &mut MessageWriter<W>, bytes: &[u8]) -> io::Result<()> {
    debug_assert!(!bytes.is_empty(), "an empty chunk is the terminator");
    writer.send(format_args!("{:x}\r\n", bytes.len()), bytes, b"\r\n")
}

/// Sends the terminating zero-length chunk.
pub(crate) fn finish_chunked<W: Write>(writer: &mut MessageWriter<W>) -> io::Result<()> {
    writer.send(format_args!("0\r\n\r\n"), b"", b"")
}

/// The parsed status line and framing headers of a response.
#[derive(Debug)]
pub(crate) struct ResponseHead {
    pub status: u16,
    pub chunked: bool,
    pub content_length: Option<usize>,
    /// The server announced it will close the connection after this
    /// response, so the client must not pool it for reuse.
    pub close: bool,
}

/// Reads a response's status line and headers, leaving the reader at the
/// first body byte.
pub(crate) fn read_response_head<R: BufRead>(reader: &mut R) -> io::Result<ResponseHead> {
    let Some(line) = read_line_capped(reader)? else {
        // `UnexpectedEof`, not `InvalidData`: a clean close before the
        // status line is the signature of a stale pooled connection, which
        // the client's reconnect-once logic keys on the error kind.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    };
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| {
                protocol_error(format!("malformed status line `{}`", line.trim_end()))
            })?
        }
        _ => return Err(protocol_error(format!("malformed status line `{}`", line.trim_end()))),
    };
    let headers = read_headers(reader)?;
    // The same strictness as `read_request`: a pooled connection that
    // guessed wrong about this body's end would misparse every later
    // response on it.
    let transfer_encoding = header_value(&headers, "transfer-encoding");
    let content_length = content_length(&headers)?;
    if transfer_encoding.is_some() && content_length.is_some() {
        return Err(protocol_error(
            "response carries both Transfer-Encoding and Content-Length",
        ));
    }
    let chunked = transfer_encoding.is_some_and(|value| value.eq_ignore_ascii_case("chunked"));
    let close = header_value(&headers, "connection").is_some_and(wants_close);
    Ok(ResponseHead { status, chunked, content_length, close })
}

/// Reads a `Content-Length`-framed body (the non-streaming endpoints).
pub(crate) fn read_sized_body<R: BufRead>(
    reader: &mut R,
    head: &ResponseHead,
) -> io::Result<Vec<u8>> {
    let length = head.content_length.ok_or_else(|| {
        protocol_error("response carries neither Content-Length nor chunked framing")
    })?;
    if length > MAX_BODY_BYTES {
        return Err(protocol_error(format!(
            "response body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Decodes a chunked body, forwarding each chunk's payload to `sink` as it
/// arrives (this is how the client tails a live event stream). Returns the
/// total payload bytes streamed.
pub(crate) fn stream_chunked_body<R: BufRead>(
    reader: &mut R,
    sink: &mut dyn Write,
) -> io::Result<u64> {
    let mut total = 0u64;
    let mut chunk = Vec::new();
    loop {
        let Some(size_line) = read_line_capped(reader)? else {
            return Err(protocol_error("connection closed inside the chunked body"));
        };
        let size_token = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| protocol_error(format!("invalid chunk size `{size_token}`")))?;
        if size > MAX_CHUNK_BYTES {
            return Err(protocol_error(format!(
                "chunk of {size} bytes exceeds the {MAX_CHUNK_BYTES}-byte limit"
            )));
        }
        if size == 0 {
            // Trailer section: header lines (none in practice) up to the
            // final blank line, ignored. A malformed or over-long trailer
            // leaves the framing position unknown, so it is an error and
            // the connection must not be reused.
            read_headers(reader)?;
            return Ok(total);
        }
        chunk.resize(size, 0);
        reader.read_exact(&mut chunk)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(protocol_error("chunk payload not terminated by CRLF"));
        }
        sink.write_all(&chunk)?;
        total += size as u64;
    }
}

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn requests_parse_method_path_and_body() {
        let raw = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/campaigns");
        assert_eq!(request.body, b"{\"a\"");
        assert!(!request.close, "absent Connection header keeps the connection alive");
    }

    #[test]
    fn connection_close_requests_are_flagged() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert!(request.close, "Connection: close is honoured case-insensitively");
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert!(!request.close);
    }

    #[test]
    fn ambiguously_framed_requests_are_rejected_loudly() {
        // Transfer-Encoding on a request: the protocol never chunks request
        // bodies, so this is either a confused client or a smuggling probe.
        let raw = b"POST /campaigns HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("transfer-encoding rejected");
        assert!(error.to_string().contains("Transfer-Encoding"), "{error}");

        // Conflicting Content-Length values: no winner is picked.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("conflicting lengths rejected");
        assert!(error.to_string().contains("conflicting Content-Length"), "{error}");

        // Even *agreeing* duplicates are rejected: a proxy that folds them
        // differently than we do would de-sync the connection.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("duplicate lengths rejected");
        assert!(error.to_string().contains("duplicate Content-Length"), "{error}");
    }

    #[test]
    fn empty_connections_and_garbage_fail_cleanly() {
        assert!(
            read_request(&mut BufReader::new(Cursor::new(&b""[..]))).unwrap().is_none(),
            "a silent close is not an error"
        );
        let error = read_request(&mut BufReader::new(Cursor::new(&b"nonsense\r\n\r\n"[..])))
            .expect_err("malformed request line");
        assert!(error.to_string().contains("malformed request line"), "{error}");
        let raw = b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("bogus length");
        assert!(error.to_string().contains("invalid Content-Length"), "{error}");
    }

    #[test]
    fn newline_free_streams_cannot_grow_memory_unboundedly() {
        // A peer that never sends `\n` is cut off at MAX_LINE_BYTES, not
        // buffered forever: the request line, the header block and chunk
        // size lines all read through the capped line reader.
        let endless = "X".repeat(MAX_LINE_BYTES as usize + 1);
        let error = read_request(&mut BufReader::new(Cursor::new(endless.clone().into_bytes())))
            .expect_err("capped request line");
        assert!(error.to_string().contains("byte limit"), "{error}");
        let raw = format!("GET / HTTP/1.1\r\n{endless}");
        let error = read_request(&mut BufReader::new(Cursor::new(raw.into_bytes())))
            .expect_err("capped header line");
        assert!(error.to_string().contains("byte limit"), "{error}");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let error = read_request(&mut BufReader::new(Cursor::new(raw.into_bytes())))
            .expect_err("limit enforced");
        assert!(error.to_string().contains("exceeds"), "{error}");
    }

    #[test]
    fn responses_round_trip_sized_bodies() {
        let mut wire = MessageWriter::new(Vec::new());
        respond_json(&mut wire, 201, "{\"id\":7}", false).unwrap();
        let mut reader = BufReader::new(Cursor::new(wire.into_inner()));
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status, 201);
        assert!(!head.chunked);
        assert!(!head.close, "keep-alive responses leave the connection open");
        assert_eq!(read_sized_body(&mut reader, &head).unwrap(), b"{\"id\":7}");
    }

    #[test]
    fn closing_responses_announce_connection_close() {
        let mut wire = MessageWriter::new(Vec::new());
        respond_json(&mut wire, 200, "{}", true).unwrap();
        let wire = wire.into_inner();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Connection: close"), "{text}");
        let head = read_response_head(&mut BufReader::new(Cursor::new(wire))).unwrap();
        assert!(head.close);
    }

    #[test]
    fn chunked_streams_round_trip_byte_identically() {
        let mut wire = MessageWriter::new(Vec::new());
        start_chunked(&mut wire, false).unwrap();
        write_chunk(&mut wire, b"{\"event\":\"a\"}\n").unwrap();
        write_chunk(&mut wire, b"{\"event\":\"b\"}\n{\"event\":\"c\"}\n").unwrap();
        finish_chunked(&mut wire).unwrap();
        let mut reader = BufReader::new(Cursor::new(wire.into_inner()));
        let head = read_response_head(&mut reader).unwrap();
        assert!(head.chunked);
        let mut decoded = Vec::new();
        let total = stream_chunked_body(&mut reader, &mut decoded).unwrap();
        assert_eq!(decoded, b"{\"event\":\"a\"}\n{\"event\":\"b\"}\n{\"event\":\"c\"}\n");
        assert_eq!(total, decoded.len() as u64);
    }

    #[test]
    fn error_bodies_escape_their_message() {
        let mut wire = MessageWriter::new(Vec::new());
        respond_error(&mut wire, 400, "bad \"spec\"", true).unwrap();
        let text = String::from_utf8(wire.into_inner()).unwrap();
        assert!(text.contains("{\"error\":\"bad \\\"spec\\\"\"}"), "{text}");
    }

    #[test]
    fn every_message_keeps_its_exact_wire_bytes() {
        let mut wire = MessageWriter::new(Vec::new());
        send_request(&mut wire, "POST", "/campaigns", "127.0.0.1:9", Some("tok"), b"{}").unwrap();
        send_request(&mut wire, "GET", "/healthz", "127.0.0.1:9", None, b"").unwrap();
        respond_json(&mut wire, 201, "{\"id\":1}", false).unwrap();
        start_chunked(&mut wire, true).unwrap();
        write_chunk(&mut wire, &[b'x'; 26]).unwrap();
        finish_chunked(&mut wire).unwrap();
        let expected = "POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1:9\r\n\
                        Authorization: Bearer tok\r\nContent-Length: 2\r\n\r\n{}\
                        GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:9\r\nContent-Length: 0\r\n\r\n\
                        HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
                        Content-Length: 8\r\nConnection: keep-alive\r\n\r\n{\"id\":1}\
                        HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                        Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
                        1a\r\nxxxxxxxxxxxxxxxxxxxxxxxxxx\r\n0\r\n\r\n";
        assert_eq!(String::from_utf8(wire.into_inner()).unwrap(), expected);
    }

    /// A sink that records the size of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The `write` calls `send` makes on a fresh counting writer.
    fn writes_of(send: impl FnOnce(&mut MessageWriter<CountingWriter>) -> io::Result<()>) -> usize {
        let mut writer = MessageWriter::new(CountingWriter::default());
        send(&mut writer).unwrap();
        writer.into_inner().writes.len()
    }

    #[test]
    fn every_message_and_chunk_frame_is_exactly_one_write() {
        let body = "{\"id\":7,\"status\":\"queued\"}";
        assert_eq!(writes_of(|w| respond_json(w, 201, body, false)), 1, "respond_json");
        assert_eq!(writes_of(|w| respond_error(w, 404, "unknown id", true)), 1, "respond_error");
        assert_eq!(writes_of(|w| start_chunked(w, false)), 1, "start_chunked");
        assert_eq!(writes_of(finish_chunked), 1, "finish_chunked");
        assert_eq!(
            writes_of(|w| send_request(w, "POST", "/campaigns", "h:1", Some("t"), body.as_bytes())),
            1,
            "a whole request, head and body together"
        );

        // A stream on one writer: one write per frame, and the reused frame
        // buffer never leaks bytes from a previous (larger) frame.
        let mut writer = MessageWriter::new(CountingWriter::default());
        start_chunked(&mut writer, false).unwrap();
        for payload in [&[b'a'; 300][..], b"b\n", &[b'c'; 70_000][..]] {
            write_chunk(&mut writer, payload).unwrap();
        }
        finish_chunked(&mut writer).unwrap();
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(
            writer.into_inner().writes,
            [head.len(), 3 + 2 + 300 + 2, 1 + 2 + 2 + 2, 5 + 2 + 70_000 + 2, 5],
            "head, three chunk frames and the terminator: one write each"
        );
    }

    #[test]
    fn both_ends_turn_on_tcp_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let deadline = Some(Duration::from_secs(5));
        for stream in [&client, &server] {
            configure_socket(stream, deadline, deadline).unwrap();
            assert!(stream.nodelay().unwrap(), "TCP_NODELAY is on");
            assert_eq!(stream.read_timeout().unwrap(), deadline);
            assert_eq!(stream.write_timeout().unwrap(), deadline);
        }
    }

    #[test]
    fn ambiguously_framed_responses_are_rejected_loudly() {
        for (headers, why) in [
            ("Content-Length: 2\r\nContent-Length: 3", "conflicting Content-Length"),
            ("Content-Length: 2\r\nContent-Length: 2", "duplicate Content-Length"),
            (
                "Transfer-Encoding: chunked\r\nContent-Length: 7",
                "both Transfer-Encoding and Content-Length",
            ),
        ] {
            let raw = format!("HTTP/1.1 200 OK\r\n{headers}\r\n\r\n0\r\n\r\n");
            let error = read_response_head(&mut BufReader::new(Cursor::new(raw.into_bytes())))
                .expect_err("ambiguous response framing");
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
            assert!(error.to_string().contains(why), "{error}");
        }
    }

    #[test]
    fn trailer_errors_propagate_instead_of_ending_the_stream() {
        let decode = |raw: Vec<u8>| {
            let mut decoded = Vec::new();
            stream_chunked_body(&mut BufReader::new(Cursor::new(raw)), &mut decoded)
                .map(|total| (total, decoded))
        };
        let malformed = b"2\r\n{}\r\n0\r\nno-colon-here\r\n\r\n".to_vec();
        let error = decode(malformed).expect_err("malformed trailer line");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
        assert!(error.to_string().contains("malformed header"), "{error}");

        let endless = "x".repeat(MAX_LINE_BYTES as usize);
        let endless = format!("2\r\n{{}}\r\n0\r\nX-Trailer: {endless}");
        let error = decode(endless.into_bytes()).expect_err("over-long trailer line");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
        assert!(error.to_string().contains("byte limit"), "{error}");

        let clean = b"2\r\n{}\r\n0\r\nX-Trailer: ignored\r\n\r\n".to_vec();
        let decoded = decode(clean).expect("a well-formed trailer is still ignored");
        assert_eq!(decoded, (2, b"{}".to_vec()));
    }
}
