//! A deliberately small HTTP/1.1 layer: request parsing and response
//! framing, with no socket code (the event loop in `epoll` owns the
//! sockets).
//!
//! Only what the API needs: request-line + headers + `Content-Length`
//! bodies in, fixed-header responses out. The parser is **resumable**:
//! [`RequestParser`] accumulates bytes across partial reads and yields
//! complete requests one at a time, so a connection can carry many
//! requests (`Connection: keep-alive`, the HTTP/1.1 default) and clients
//! may pipeline — bytes buffered past one request simply begin the next.
//! Size limits bound what a hostile peer can make the server buffer:
//! 8 KiB of headers, 1 MiB of body.

use crate::decode::FleetRequest;
use crate::handlers::BadRequest;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tn_core::json;

/// Maximum bytes of request line + headers.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum request body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// How long a staged response may go undrained before the event loop
/// drops the connection (a peer that stopped reading).
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request: method, path, raw body and connection disposition.
///
/// The body is read-only, so the fleet request the server decodes from
/// it (once per request) can never go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase HTTP method, e.g. `GET`.
    pub method: String,
    /// Request target path (query strings are not used by this API and
    /// are kept attached).
    pub path: String,
    body: Vec<u8>,
    /// Whether the client asked to keep the connection open after this
    /// request (RFC 7230 §6.3: HTTP/1.1 defaults to keep-alive unless a
    /// `Connection: close` token is present; HTTP/1.0 defaults to close
    /// unless `Connection: keep-alive` is present).
    pub keep_alive: bool,
    fleet: FleetMemo,
}

/// The body's [`FleetRequest::decode`] result, computed on first use. It
/// caches a function of the body, so every memo compares equal to every
/// other.
#[derive(Debug, Clone, Default)]
struct FleetMemo(OnceLock<Result<FleetRequest, BadRequest>>);

impl PartialEq for FleetMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FleetMemo {}

impl Request {
    /// A request whose body has not been decoded yet.
    pub(crate) fn new(method: &str, path: &str, body: Vec<u8>, keep_alive: bool) -> Self {
        Self {
            method: method.to_string(),
            path: path.to_string(),
            body,
            keep_alive,
            fleet: FleetMemo::default(),
        }
    }

    /// Raw request body (empty when no `Content-Length` was sent).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as a fleet request, or the 400 it earns.
    ///
    /// The body is scanned on the first call only, so the router's
    /// offload check and the handler share one decode.
    pub(crate) fn fleet(&self) -> Result<&FleetRequest, &BadRequest> {
        self.fleet
            .0
            .get_or_init(|| FleetRequest::decode(&self.body))
            .as_ref()
    }

    /// Whether [`Request::fleet`] has decoded the body yet.
    #[cfg(test)]
    pub(crate) fn is_decoded(&self) -> bool {
        self.fleet.0.get().is_some()
    }
}

/// Why a request could not be served at the transport layer.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
    /// Headers or body exceed the fixed limits.
    TooLarge(&'static str),
}

/// RFC 7230 connection disposition from the version and the
/// `Connection` header value (a comma-separated token list, case
/// insensitive; later tokens win when a confused client sends both).
fn resolve_keep_alive(version: &str, connection: Option<&str>) -> bool {
    let mut keep = version != "HTTP/1.0";
    if let Some(value) = connection {
        for token in value.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                keep = false;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                keep = true;
            }
        }
    }
    keep
}

/// An incremental HTTP/1.1 request parser.
///
/// Feed raw socket bytes with [`RequestParser::push`] in whatever chunks
/// the transport delivers them; [`RequestParser::try_next`] yields a
/// complete [`Request`] as soon as one is buffered and retains any
/// trailing bytes as the start of the next (pipelined) request. The
/// parse is resumable at *every* byte boundary — torn reads anywhere in
/// the request line, headers or body produce identical results.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Whether the buffered prefix has already passed its header block
    /// (so a stall or close now is mid-body, not mid-headers).
    in_body: bool,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no bytes are buffered — the peer is *between* requests,
    /// so an idle timeout or EOF here is a clean close, not an error.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// What a read timeout at this parse position means.
    pub fn stall_error(&self) -> &'static str {
        if self.in_body {
            "timed out mid-body (Content-Length larger than body sent)"
        } else {
            "timed out waiting for headers"
        }
    }

    /// What an EOF at this parse position means (buffer non-empty).
    pub fn eof_error(&self) -> &'static str {
        if self.in_body {
            "connection closed mid-body"
        } else {
            "connection closed mid-headers"
        }
    }

    /// Tries to parse one complete request from the buffer. `Ok(None)`
    /// means more bytes are needed; consumed bytes are drained so any
    /// leftover begins the next request.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        // Only scan the prefix the limit allows: a pipelined buffer may
        // legitimately hold megabytes *after* this request's headers.
        let scan = self.buf.len().min(MAX_HEADER_BYTES + 4);
        let Some(header_end) = find_header_end(&self.buf[..scan]) else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::TooLarge("header block exceeds 8 KiB"));
            }
            self.in_body = false;
            return Ok(None);
        };

        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| HttpError::Malformed("non-UTF-8 header block"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
            _ => return Err(HttpError::Malformed("bad request line")),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }

        let mut content_length = 0usize;
        let mut connection: Option<&str> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("unparseable Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim());
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("body exceeds 1 MiB"));
        }
        let keep_alive = resolve_keep_alive(version, connection);

        let body_start = header_end + 4;
        let total = body_start + content_length;
        if self.buf.len() < total {
            self.in_body = true;
            return Ok(None);
        }
        let request = Request::new(
            method,
            path,
            self.buf[body_start..total].to_vec(),
            keep_alive,
        );
        self.buf.drain(..total);
        self.in_body = false;
        Ok(Some(request))
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response payload: either a single buffer sent with
/// `Content-Length`, or newline-terminated records streamed with
/// `Transfer-Encoding: chunked`, one chunk per record (e.g. one JSONL
/// line of a fleet stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// One contiguous body, framed by `Content-Length`. Shared, not
    /// copied, between the response cache, coalesced callers and the
    /// socket writer.
    Full(Arc<str>),
    /// Records, each ending in `\n` (the last may omit it), framed by
    /// `Transfer-Encoding: chunked` with one chunk per record. Shared
    /// like [`Body::Full`]. A record is never empty, so no zero-size
    /// chunk, the protocol's end-of-body marker, can appear mid-stream.
    Chunked(Arc<str>),
}

impl Body {
    /// Total payload bytes (excluding chunked framing overhead).
    pub fn len(&self) -> usize {
        match self {
            Body::Full(s) | Body::Chunked(s) => s.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload as one string (without chunk framing), for tests and
    /// golden snapshots that inspect response content.
    pub fn text(&self) -> String {
        match self {
            Body::Full(s) | Body::Chunked(s) => s.to_string(),
        }
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
    /// Additional response headers, e.g. `x-request-id`, `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Full(body.into()),
            extra_headers: Vec::new(),
        }
    }

    /// A chunked (streaming) response; each newline-terminated record
    /// of `records` becomes one HTTP chunk on the wire.
    pub fn chunked(status: u16, content_type: &'static str, records: impl Into<Arc<str>>) -> Self {
        Self {
            status,
            content_type,
            body: Body::Chunked(records.into()),
            extra_headers: Vec::new(),
        }
    }

    /// Total payload bytes of the body (excluding chunked framing).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The body as one string (without chunk framing).
    pub fn body_text(&self) -> String {
        self.body.text()
    }

    /// Adds a response header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// The 503 an event-loop shard answers a Monte-Carlo request with
    /// when every worker is busy and the queue is full; tells
    /// well-behaved clients when to retry.
    pub fn overload() -> Self {
        Self::json(
            503,
            "{\"error\":\"server overloaded, retry later\"}".to_string(),
        )
        .with_header("Retry-After", "1")
    }

    /// A JSON error response with the canonical `{"error": ...}` shape.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        json::push_json_str(&mut body, message);
        body.push('}');
        Self::json(status, body)
    }

    /// A Prometheus text-format response (`/metrics`).
    pub fn metrics_text(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: Body::Full(body.into()),
            extra_headers: Vec::new(),
        }
    }

    /// The response in two wire parts. The head is built per response
    /// (so `Connection` and `x-request-id` stay per request): the status
    /// line and headers, plus the whole framed payload of a chunked body.
    /// A full body comes back beside it as the shared `Arc`, so writers
    /// send it after the head without copying it.
    pub(crate) fn head_and_body(&self, keep_alive: bool) -> (Vec<u8>, Option<Arc<str>>) {
        let mut head = Vec::with_capacity(256);
        self.push_head(&mut head, keep_alive);
        match &self.body {
            Body::Full(body) => (head, Some(Arc::clone(body))),
            Body::Chunked(_) => (head, None),
        }
    }

    /// Appends the status line, the headers and, for a chunked body, the
    /// framed chunks. Full bodies are framed with `Content-Length`;
    /// chunked bodies with `Transfer-Encoding: chunked`
    /// (`{size:x}\r\n{record}\r\n` per record, `0\r\n\r\n`
    /// terminator).
    fn push_head(&self, out: &mut Vec<u8>, keep_alive: bool) {
        out.extend_from_slice(b"HTTP/1.1 ");
        push_digits::<10>(out, usize::from(self.status));
        out.push(b' ');
        out.extend_from_slice(reason(self.status).as_bytes());
        out.extend_from_slice(b"\r\nContent-Type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        match &self.body {
            Body::Full(body) => {
                out.extend_from_slice(b"\r\nContent-Length: ");
                push_digits::<10>(out, body.len());
                out.extend_from_slice(b"\r\n");
            }
            Body::Chunked(_) => out.extend_from_slice(b"\r\nTransfer-Encoding: chunked\r\n"),
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n"
        } else {
            b"Connection: close\r\n"
        });
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        if let Body::Chunked(records) = &self.body {
            // Framing adds a size line and a CRLF per record, a few per
            // cent of a JSONL body: a 1/16 margin usually avoids regrowing.
            out.reserve(records.len() + records.len() / 16 + 5);
            for record in records.split_inclusive('\n') {
                push_digits::<16>(out, record.len());
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(record.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"0\r\n\r\n");
        }
    }

    /// Serialises the whole response (status line, headers, framed body)
    /// into one buffer. The event loop sends the head and a full body as
    /// two parts without joining them; this contiguous form is the exact
    /// byte sequence it produces.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.body_len());
        self.push_head(&mut out, keep_alive);
        if let Body::Full(body) = &self.body {
            out.extend_from_slice(body.as_bytes());
        }
        out
    }
}

/// Appends `n` in base `RADIX` (at most 16), lowercase and without
/// leading zeros: decimal for a status code or a `Content-Length`, hex
/// as a chunk-size line wants it.
fn push_digits<const RADIX: usize>(out: &mut Vec<u8>, n: usize) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; usize::BITS as usize];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = DIGITS[rest % RADIX];
        rest /= RADIX;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 500, 503] {
            assert_ne!(reason(code), "Unknown");
        }
        assert_eq!(reason(418), "Unknown");
    }

    #[test]
    fn overload_response_advises_retry() {
        let r = Response::overload();
        assert_eq!(r.status, 503);
        assert!(r.body_text().contains("\"error\""));
        assert!(r
            .extra_headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
    }

    #[test]
    fn error_responses_are_json_escaped() {
        let r = Response::error(400, "bad \"quote\"");
        assert_eq!(r.body_text(), "{\"error\":\"bad \\\"quote\\\"\"}");
        assert_eq!(r.content_type, "application/json");
    }

    #[test]
    fn full_body_is_framed_with_content_length() {
        let wire = Response::json(200, "{\"ok\":true}".to_string()).to_bytes(false);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(!text.contains("Transfer-Encoding"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    #[test]
    fn keep_alive_responses_advertise_it() {
        let wire = Response::json(200, "{}".to_string()).to_bytes(true);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn heads_match_the_formatted_heads() {
        // The head as `format!` wrote it before it was written in place.
        let formatted = |r: &Response, keep_alive: bool| {
            let framing = match &r.body {
                Body::Full(body) => format!("Content-Length: {}\r\n", body.len()),
                Body::Chunked(_) => "Transfer-Encoding: chunked\r\n".to_string(),
            };
            let connection = if keep_alive { "keep-alive" } else { "close" };
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{framing}Connection: {connection}\r\n",
                r.status,
                reason(r.status),
                r.content_type,
            )
        };
        for status in [200, 400, 404, 405, 413, 500, 503, 418, 7] {
            for len in [0, 1, 9, 10, 99, 100, 65_535, 1 << 20] {
                let body = "x".repeat(len);
                for r in [
                    Response::json(status, body.clone()).with_header("x-request-id", "00ff"),
                    Response::chunked(status, "application/x-ndjson", body + "\n"),
                ] {
                    for keep_alive in [false, true] {
                        let (head, _) = r.head_and_body(keep_alive);
                        let want = formatted(&r, keep_alive);
                        assert!(head.starts_with(want.as_bytes()), "{want}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_body_uses_hex_framing_and_terminator() {
        let r = Response::chunked(200, "application/x-ndjson", "{\"a\":1}\n{\"b\":22}\n");
        assert_eq!(r.body_len(), 17);
        assert_eq!(r.body_text(), "{\"a\":1}\n{\"b\":22}\n");
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        // 8 bytes -> "8", 9 bytes -> "9", then the 0-size terminator.
        assert!(
            text.ends_with("\r\n\r\n8\r\n{\"a\":1}\n\r\n9\r\n{\"b\":22}\n\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn chunked_hex_sizes_and_empty_chunks() {
        // A 26-byte record must be framed as hex "1a" and a 4,096-byte
        // one as "1000". A blank line is a 1-byte record, so no empty
        // chunk (a zero-size chunk would terminate the stream early at
        // the client) can occur; a last record without its newline is
        // still a chunk.
        let short = "abcdefghijklmnopqrstuvwxy\n";
        let long = format!("{}\n", "x".repeat(4095));
        let r = Response::chunked(200, "application/x-ndjson", format!("{short}\n{long}z"));
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        let body_start = text.find("\r\n\r\n").unwrap() + 4;
        assert_eq!(
            &text[body_start..],
            format!("1a\r\n{short}\r\n1\r\n\n\r\n1000\r\n{long}\r\n1\r\nz\r\n0\r\n\r\n")
        );
    }

    #[test]
    fn chunked_with_no_chunks_is_just_the_terminator() {
        let r = Response::chunked(200, "application/x-ndjson", "");
        assert!(r.body.is_empty());
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(text.ends_with("\r\n\r\n0\r\n\r\n"), "{text}");
    }

    // ---- resumable parser ---------------------------------------------

    fn pipelined_two_requests() -> Vec<u8> {
        let first_body = "{\"seed\":1}";
        let mut wire = format!(
            "POST /v1/fit HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{first_body}",
            first_body.len()
        )
        .into_bytes();
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        wire
    }

    #[test]
    fn parser_yields_pipelined_requests_in_order() {
        let mut parser = RequestParser::new();
        parser.push(&pipelined_two_requests());
        let first = parser.try_next().unwrap().expect("first request");
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/fit");
        assert_eq!(first.body(), b"{\"seed\":1}");
        assert!(first.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let second = parser.try_next().unwrap().expect("second request");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body().is_empty());
        assert!(!second.keep_alive, "explicit close honoured");
        assert!(parser.is_empty());
        assert!(parser.try_next().unwrap().is_none());
    }

    /// The satellite requirement: torn reads at *every* byte boundary of
    /// a pipelined two-request buffer parse identically to the one-shot
    /// feed, whatever byte the read tears at.
    #[test]
    fn torn_reads_at_every_boundary_parse_identically() {
        let wire = pipelined_two_requests();
        let mut reference = RequestParser::new();
        reference.push(&wire);
        let want_first = reference.try_next().unwrap().expect("first");
        let want_second = reference.try_next().unwrap().expect("second");

        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            parser.push(&wire[..split]);
            while let Some(r) = parser.try_next().unwrap() {
                got.push(r);
            }
            parser.push(&wire[split..]);
            while let Some(r) = parser.try_next().unwrap() {
                got.push(r);
            }
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(got[0], want_first, "split at {split}");
            assert_eq!(got[1], want_second, "split at {split}");
            assert!(parser.is_empty(), "split at {split}");
        }
    }

    #[test]
    fn connection_header_tokens_resolve_per_rfc7230() {
        assert!(resolve_keep_alive("HTTP/1.1", None));
        assert!(!resolve_keep_alive("HTTP/1.0", None));
        assert!(!resolve_keep_alive("HTTP/1.1", Some("close")));
        assert!(!resolve_keep_alive("HTTP/1.1", Some("Close")));
        assert!(resolve_keep_alive("HTTP/1.0", Some("keep-alive")));
        assert!(resolve_keep_alive("HTTP/1.0", Some("Keep-Alive")));
        assert!(!resolve_keep_alive("HTTP/1.1", Some("keep-alive, close")));
        assert!(resolve_keep_alive("HTTP/1.1", Some("upgrade")));
    }

    #[test]
    fn oversized_trailing_garbage_grows_the_buffer_not_the_request() {
        // A complete request followed by > MAX_HEADER_BYTES of bytes that
        // never form a header block: the first request parses, the
        // garbage is rejected as an oversized header block.
        let mut parser = RequestParser::new();
        parser.push(b"GET /healthz HTTP/1.1\r\n\r\n");
        parser.push(&vec![b'x'; MAX_HEADER_BYTES + 1]);
        let first = parser.try_next().unwrap().expect("real request parses");
        assert_eq!(first.path, "/healthz");
        let err = parser.try_next().unwrap_err();
        assert!(
            matches!(err, HttpError::TooLarge(m) if m.contains("header block")),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_declared_body_is_rejected_up_front() {
        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "POST /v1/fit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        let err = parser.try_next().unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err:?}");
    }

    #[test]
    fn stall_errors_distinguish_headers_from_body() {
        let mut parser = RequestParser::new();
        parser.push(b"POST /v1/fit HTT");
        assert!(parser.try_next().unwrap().is_none());
        assert!(parser.stall_error().contains("waiting for headers"));
        assert!(parser.eof_error().contains("mid-headers"));

        let mut parser = RequestParser::new();
        parser.push(b"POST /v1/fit HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort");
        assert!(parser.try_next().unwrap().is_none());
        assert!(parser.stall_error().contains("mid-body"));
        assert!(parser.eof_error().contains("mid-body"));
    }
}
