//! Hand-rolled HTTP/1.1 framing, shared by the server and the client.
//!
//! Only the subset the job service needs: request/status lines, header
//! fields, `Content-Length` bodies, and keep-alive. No chunked
//! encoding, no TLS, no compression. Limits are enforced while reading
//! (oversized inputs fail fast instead of buffering unboundedly).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use telemetry::json;

/// How often an idle server-side connection (and an accept loop)
/// wakes to check for shutdown.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// Time a client has to send the rest of a request once its first
/// byte has arrived.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Maximum accepted request-line or header-line length in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted header count per message.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted body size in bytes (job specs are tiny; metrics
/// documents fetched by the client are comfortably below this).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query parsing; the API doesn't use
    /// query strings).
    pub path: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 semantics are not
    /// supported so everything else keeps the connection open).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one request from `stream`. `Ok(None)` means the peer closed
/// the connection cleanly before sending another request.
pub fn read_request(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(request_line) = read_line(stream)? else { return Ok(None) };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_owned(), p.to_owned(), v),
        _ => return Err(bad_request("malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad_request("unsupported HTTP version"));
    }
    let headers = read_headers(stream)?;
    let length = content_length(&headers)?;
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok(Some(Request { method, path, headers, body }))
}

/// The server side of one keep-alive connection.
///
/// Idle waits and request reads run under different clocks: the wait
/// for a request's first byte wakes every [`POLL_INTERVAL`] to check
/// for shutdown, while the rest of the request must arrive within
/// [`REQUEST_DEADLINE`] and is read in one pass, so a client that
/// pauses mid-request keeps its partial request.
pub(crate) struct ServerConnection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServerConnection {
    /// Wraps an accepted stream.
    pub(crate) fn new(stream: TcpStream) -> io::Result<ServerConnection> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ServerConnection { reader: BufReader::new(stream), writer })
    }

    /// Reads the next request. `None` means close the connection: the
    /// peer hung up, `stop` was set while the connection sat idle, the
    /// request deadline passed, I/O failed, or the request was
    /// malformed (answered with a `400` first).
    pub(crate) fn next_request(&mut self, stop: &AtomicBool) -> Option<Request> {
        loop {
            match self.reader.fill_buf() {
                Ok([]) => return None,
                Ok(_) => break,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                        && !stop.load(Ordering::SeqCst) => {}
                Err(_) => return None,
            }
        }
        let mut rest = Deadline {
            reader: &mut self.reader,
            deadline: Instant::now() + REQUEST_DEADLINE,
            armed: false,
        };
        let result = read_request(&mut rest);
        if rest.armed && self.reader.get_ref().set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return None;
        }
        match result {
            Ok(request) => request,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = self.respond(&Response::error(400, &e.to_string()), true);
                None
            }
            Err(_) => None,
        }
    }

    /// Writes `response`, announcing `close` in its framing.
    pub(crate) fn respond(&mut self, response: &Response, close: bool) -> io::Result<()> {
        response.write(&mut self.writer, close)
    }
}

/// A started request's remaining bytes: each socket read waits only
/// for the time left until `deadline`.
struct Deadline<'a> {
    reader: &'a mut BufReader<TcpStream>,
    deadline: Instant,
    /// Whether the socket's read timeout was changed from
    /// [`POLL_INTERVAL`].
    armed: bool,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Deadline<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.reader.buffer().is_empty() {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.reader.get_ref().set_read_timeout(Some(left))?;
            self.armed = true;
        }
        self.reader.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.reader.consume(n);
    }
}

/// A response about to be written: status, extra headers, body.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra header fields (`Content-Length` and `Connection` are
    /// emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".to_owned(), "application/json".to_owned())],
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error response: `{"error":"<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        json::write_string(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Writes the response in HTTP/1.1 framing.
    pub fn write(&self, stream: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n", self.body.len()));
        head.push_str(if close { "connection: close\r\n" } else { "connection: keep-alive\r\n" });
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A response read back by the client side.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header fields, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from `stream` (client side).
pub fn read_response(stream: &mut impl BufRead) -> io::Result<ClientResponse> {
    let status_line =
        read_line(stream)?.ok_or_else(|| bad_request("connection closed before response"))?;
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| bad_request("malformed status code"))?
        }
        _ => return Err(bad_request("malformed status line")),
    };
    let headers = read_headers(stream)?;
    let length = content_length(&headers)?;
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok(ClientResponse { status, headers, body })
}

fn bad_request(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator.
/// `Ok(None)` on immediate EOF.
fn read_line(stream: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte)? {
            0 if line.is_empty() => return Ok(None),
            0 => return Err(bad_request("connection closed mid-line")),
            _ => {}
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map(Some).map_err(|_| bad_request("non-UTF-8 line"));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(bad_request("line too long"));
        }
    }
}

fn read_headers(stream: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(stream)?.ok_or_else(|| bad_request("connection closed in headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad_request("too many headers"));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad_request("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
}

fn content_length(headers: &[(String, String)]) -> io::Result<usize> {
    let Some((_, value)) = headers.iter().find(|(k, _)| k == "content-length") else {
        return Ok(0);
    };
    let length: usize = value.parse().map_err(|_| bad_request("malformed content-length"))?;
    if length > MAX_BODY_BYTES {
        return Err(bad_request("body too large"));
    }
    Ok(length)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_framing() {
        let wire = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody".to_vec();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..])).unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected_before_reading() {
        let wire = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = read_request(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("too large"));
    }

    #[test]
    fn malformed_request_lines_error() {
        for wire in ["GARBAGE\r\n\r\n", "GET /x HTTP/2.0\r\n\r\n", "GET /x HTTP/1.1 extra\r\n\r\n"]
        {
            assert!(read_request(&mut BufReader::new(wire.as_bytes())).is_err(), "{wire:?}");
        }
    }

    #[test]
    fn response_writes_and_reads_back() {
        let mut wire = Vec::new();
        Response::json(429, "{\"error\":\"queue full\"}")
            .with_header("retry-after", "1")
            .write(&mut wire, false)
            .unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{\"error\":\"queue full\"}");
    }

    #[test]
    fn connection_close_is_honored_in_parsing() {
        let wire = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert!(req.wants_close());
    }
}
