//! Hardened HTTP/1.1 request parsing and response writing.
//!
//! This is a deliberately small subset of HTTP/1.1 — enough for the four
//! endpoints the server exposes — parsed defensively: every length is
//! bounded before allocation, every conversion is checked, and every
//! failure is a typed [`HttpError`] the connection loop maps to a status
//! code. No panic-family call appears on any path in this module.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Hard caps applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is refused
    /// before any body byte is read).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_head_bytes: 8 * 1024, max_body_bytes: 8 * 1024 * 1024 }
    }
}

/// Typed failure while reading or parsing a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The socket read timed out (slow-loris client) → 408.
    Timeout,
    /// The peer closed the connection before a full request arrived.
    Closed,
    /// A limit from [`Limits`] was exceeded → 413.
    TooLarge(&'static str),
    /// Malformed request line, header, or length field → 400.
    Bad(String),
    /// Underlying socket error (connection reset and friends).
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => write!(f, "request read timed out"),
            Self::Closed => write!(f, "connection closed mid-request"),
            Self::TooLarge(what) => write!(f, "request too large: {what}"),
            Self::Bad(why) => write!(f, "bad request: {why}"),
            Self::Io(why) => write!(f, "socket error: {why}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof => HttpError::Closed,
        _ => HttpError::Io(e.to_string()),
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/predict`.
    pub path: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `stream`.
///
/// The caller is expected to have set socket read timeouts; a timeout
/// surfaces as [`HttpError::Timeout`].
///
/// # Errors
///
/// Any [`HttpError`] variant; the connection loop maps them to 400/408/413
/// responses or a silent close.
pub(crate) fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    let (head, mut leftover) = read_head(stream, limits)?;
    let (method, path, headers) = parse_head(&head)?;
    let body_len = content_length(&headers)?;
    if body_len > limits.max_body_bytes {
        return Err(HttpError::TooLarge("body exceeds max_body_bytes"));
    }
    if leftover.len() > body_len {
        return Err(HttpError::Bad("more body bytes than Content-Length".into()));
    }
    let mut body = std::mem::take(&mut leftover);
    body.reserve(body_len - body.len());
    let mut chunk = [0u8; 4096];
    while body.len() < body_len {
        let want = (body_len - body.len()).min(chunk.len());
        let slot = chunk.get_mut(..want).ok_or(HttpError::Bad("chunk sizing".into()))?;
        match stream.read(slot) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => body.extend_from_slice(slot.get(..n).unwrap_or(&[])),
            Err(e) => return Err(io_error(&e)),
        }
    }
    Ok(Request { method, path, headers, body })
}

/// Reads until the end-of-headers marker, returning `(head, leftover)`
/// where `leftover` is any body prefix that arrived in the same read.
fn read_head(stream: &mut TcpStream, limits: &Limits) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_blank_line(&buf) {
            let rest = buf.split_off(pos + 4);
            buf.truncate(pos);
            return Ok((buf, rest));
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::TooLarge("headers exceed max_head_bytes"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) => return Err(io_error(&e)),
        }
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

type Head = (String, String, Vec<(String, String)>);

fn parse_head(head: &[u8]) -> Result<Head, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Bad("non-UTF8 head".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| HttpError::Bad("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("malformed request line: {request_line:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method, path, headers))
}

/// The body length the head declares: 0 without a `Content-Length`, else
/// its one value. A value is digits only (`u64::from_str` would also take a
/// leading `+`), and every `Content-Length` field, or comma-separated item
/// of one, must carry the same value: conflicting lengths make the framing
/// ambiguous, so they are a 400 rather than a guess (RFC 9112 §6.3).
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut length = None;
    let values = headers.iter().filter(|(n, _)| n == "content-length");
    for item in values.flat_map(|(_, v)| v.split(',')).map(str::trim) {
        let digits = !item.is_empty() && item.bytes().all(|b| b.is_ascii_digit());
        let n: u64 = item
            .parse()
            .ok()
            .filter(|_| digits)
            .ok_or_else(|| HttpError::Bad(format!("bad Content-Length: {item:?}")))?;
        if length.is_some_and(|seen| seen != n) {
            return Err(HttpError::Bad("conflicting Content-Length values".into()));
        }
        length = Some(n);
    }
    usize::try_from(length.unwrap_or(0))
        .map_err(|_| HttpError::TooLarge("Content-Length exceeds usize"))
}

/// One response to write. Always closed after writing (`Connection: close`
/// keeps the state machine trivial — no keep-alive parsing edge cases).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond Content-Type/Content-Length/Connection.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error body `{"error": "..."}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":\"{}\"}}", json_escape(message)))
    }

    /// A 503 with the `Retry-After` hint admission control promises.
    pub fn overloaded(message: &str) -> Self {
        let mut r = Self::error(503, message);
        r.headers.push(("Retry-After".into(), "1".into()));
        r
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes `response` into one buffer and writes it in one call (head and
/// body in one segment, as `HttpClient` sends requests); the caller closes
/// the stream.
///
/// # Errors
///
/// Propagates socket write errors (including write timeouts).
pub(crate) fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", response.status, reason(response.status));
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    head.push_str("Connection: close\r\n\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&response.body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_splits_request_line_and_headers() {
        let head = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nX-Recipe: b; rw; rf";
        let (method, path, headers) = parse_head(head).expect("well-formed");
        assert_eq!(method, "POST");
        assert_eq!(path, "/v1/predict");
        assert_eq!(
            headers,
            vec![
                ("host".to_string(), "x".to_string()),
                ("x-recipe".to_string(), "b; rw; rf".to_string()),
            ]
        );
    }

    #[test]
    fn parse_head_rejects_garbage() {
        assert!(parse_head(b"").is_err());
        assert!(parse_head(b"GET").is_err());
        assert!(parse_head(b"GET /x SMTP/3").is_err());
        assert!(parse_head(b"GET /x HTTP/1.1\r\nno-colon-here").is_err());
        assert!(parse_head(&[0xFF, 0xFE, b'G']).is_err());
    }

    #[test]
    fn content_length_is_checked() {
        let ok = vec![("content-length".to_string(), "12".to_string())];
        assert_eq!(content_length(&ok), Ok(12));
        assert_eq!(content_length(&[]), Ok(0));
        let bad = vec![("content-length".to_string(), "-4".to_string())];
        assert!(content_length(&bad).is_err());
        let nan = vec![("content-length".to_string(), "twelve".to_string())];
        assert!(content_length(&nan).is_err());
    }

    #[test]
    fn content_length_rejects_a_sign_and_conflicting_values() {
        let field = |v: &str| ("content-length".to_string(), v.to_string());
        let bad = |e: Result<usize, HttpError>| matches!(e, Err(HttpError::Bad(_)));
        assert!(bad(content_length(&[field("+12")])), "a leading + is not a length");
        assert!(bad(content_length(&[field("")])));
        assert!(bad(content_length(&[field("12"), field("13")])), "first of two won");
        assert!(bad(content_length(&[field("12, 13")])));
        assert!(bad(content_length(&[field("12"), field("+12")])));
        // Repeats of one value are one length (RFC 9112 §6.3).
        assert_eq!(content_length(&[field("12"), field("12")]), Ok(12));
        assert_eq!(content_length(&[field("12, 12")]), Ok(12));
        assert_eq!(content_length(&[field("007")]), Ok(7));
    }

    #[test]
    fn request_header_lookup_is_case_insensitive() {
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            headers: vec![("x-deadline-ms".into(), "250".into())],
            body: Vec::new(),
        };
        assert_eq!(req.header("X-Deadline-Ms"), Some("250"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn response_builders_set_status_and_hints() {
        let r = Response::error(422, "checkpoint \"x\" refused");
        assert_eq!(r.status, 422);
        assert!(String::from_utf8(r.body).expect("utf8").contains("\\\"x\\\""));
        let o = Response::overloaded("engine overloaded: 4/4");
        assert_eq!(o.status, 503);
        assert!(o.headers.iter().any(|(n, v)| n == "Retry-After" && v == "1"));
    }

    #[test]
    fn find_blank_line_locates_header_end() {
        assert_eq!(find_blank_line(b"a\r\n\r\nbody"), Some(1));
        assert_eq!(find_blank_line(b"no marker"), None);
    }
}
