//! Hand-rolled HTTP/1.1 framing, shared by the server and the client,
//! and the front door `sim_server` and `sim_router` share.
//!
//! Only the subset the job service needs: request/status lines, header
//! fields, `Content-Length` bodies, and keep-alive. No chunked
//! encoding, no TLS, no compression. Limits are enforced while reading
//! (oversized inputs fail fast instead of buffering unboundedly).
//!
//! ```text
//!   FrontDoor: accept loop ──▶ one thread per connection (ServerConnection)
//!     keep-alive: read request ──▶ Endpoint::parse ──▶ Service::route
//!                                        └──▶ otherwise 404 / 405
//!   Door: draining (submissions get 503), in-flight request count,
//!         terminate (close wakes the blocked accept loop with one
//!         connection to its own address; idle connections exit at
//!         their next read-timeout check)
//!   run_until_shutdown: addr-file, SIGINT/SIGTERM ──▶ ShutdownHandle,
//!                       join, final --metrics document
//! ```
//!
//! Both services drain by one rule: once shutdown begins, submissions
//! are refused while every other endpoint keeps serving; `join` returns
//! only after the last request being routed has had its response
//! written.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use telemetry::json;

use crate::jobspec::JobSpec;

/// How often an idle keep-alive connection wakes to check for
/// shutdown. Off the request path: a request's first byte ends the wait
/// at once, and the accept loop blocks instead of polling.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// How long the accept loop backs off after an accept error (for
/// example `EMFILE`), so a persistent error cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
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

/// The job API's endpoints, parsed once from a request's method and
/// path.
pub(crate) enum Endpoint<'a> {
    /// `POST /jobs`.
    Submit,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /shutdown`.
    Shutdown,
    /// `GET /jobs/<id>`, or `GET /jobs/<id>/result` when `result`.
    Job { id: &'a str, result: bool },
}

impl Endpoint<'_> {
    /// Parses `request`'s method and path. `Err` carries the answer
    /// both services give to anything else: `405` for a known path
    /// under another method, `404` for an unknown path.
    pub(crate) fn parse(request: &Request) -> Result<Endpoint<'_>, Response> {
        let path = request.path.as_str();
        let (endpoint, method) = match path {
            "/jobs" => (Endpoint::Submit, "POST"),
            "/healthz" => (Endpoint::Healthz, "GET"),
            "/metrics" => (Endpoint::Metrics, "GET"),
            "/shutdown" => (Endpoint::Shutdown, "POST"),
            _ => {
                let Some(rest) = path.strip_prefix("/jobs/") else {
                    return Err(Response::error(404, "no such endpoint"));
                };
                let job = match rest.strip_suffix("/result") {
                    Some(id) => Endpoint::Job { id, result: true },
                    None => Endpoint::Job { id: rest, result: false },
                };
                (job, "GET")
            }
        };
        if request.method == method {
            Ok(endpoint)
        } else {
            Err(Response::error(405, "method not allowed"))
        }
    }
}

/// The drain state a service shares with its front door.
#[derive(Default)]
pub(crate) struct Door {
    /// Set when shutdown begins: submissions are refused, every other
    /// endpoint is still served.
    draining: AtomicBool,
    /// Set when the drain is over: the accept loop exits at its wake-up
    /// connection, idle connections at their next poll.
    terminate: AtomicBool,
    /// Requests being routed or answered; the drain waits for none.
    inflight: AtomicU64,
}

impl Door {
    /// Starts the drain. Idempotent.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// `true` once the drain has started.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// `true` once the front door has closed.
    pub(crate) fn closed(&self) -> bool {
        self.terminate.load(Ordering::SeqCst)
    }

    /// The precheck of `POST /jobs`: `refusal()` while draining, then
    /// `400` for a body that is not UTF-8 or not a valid job spec.
    /// Returns the body and its spec.
    pub(crate) fn submission<'r>(
        &self,
        request: &'r Request,
        refusal: impl FnOnce() -> Response,
    ) -> Result<(&'r str, JobSpec), Response> {
        if self.draining() {
            return Err(refusal());
        }
        let body = std::str::from_utf8(&request.body)
            .map_err(|_| Response::error(400, "body is not UTF-8"))?;
        let spec = JobSpec::parse(body).map_err(|message| Response::error(400, &message))?;
        Ok((body, spec))
    }
}

/// A service behind the front door: its routing and its shutdown.
pub(crate) trait Service: Send + Sync + 'static {
    /// The drain state shared with the front door.
    fn door(&self) -> &Door;

    /// Answers one request for `endpoint`.
    fn route(&self, endpoint: Endpoint<'_>, request: &Request) -> Response;

    /// See [`ShutdownHandle::begin_shutdown`].
    fn begin_shutdown(&self, abort: bool);

    /// The `GET /metrics` document.
    fn metrics_json(&self) -> String;
}

/// A service's listener: an accept loop, blocked in `accept`, that
/// hands each connection to its own keep-alive thread.
pub(crate) struct FrontDoor {
    service: Arc<dyn Service>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
}

impl FrontDoor {
    /// Starts serving `listener` for `service`; `name` prefixes the
    /// thread names.
    pub(crate) fn open(
        listener: TcpListener,
        name: &'static str,
        service: Arc<dyn Service>,
    ) -> io::Result<FrontDoor> {
        let local_addr = listener.local_addr()?;
        let accept = {
            let service = Arc::clone(&service);
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, name, &service))?
        };
        Ok(FrontDoor { service, local_addr, accept })
    }

    /// The bound address (useful with an ephemeral port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle on the service that outlives [`FrontDoor::close`].
    pub(crate) fn handle(&self) -> ShutdownHandle {
        ShutdownHandle { service: Arc::clone(&self.service) }
    }

    /// Waits until no request is being routed or answered, then stops
    /// the accept loop and every idle connection. The drain must have
    /// started.
    pub(crate) fn close(self) {
        let door = self.service.door();
        while door.inflight.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        door.terminate.store(true, Ordering::SeqCst);
        // The loop sits in a blocking `accept`, and any return from it
        // now ends the loop: one connection to the listener wakes it. A
        // wake that fails (no file descriptor to spare, say) is tried
        // again until the loop has exited some other way.
        let wake = wake_addr(self.local_addr);
        while TcpStream::connect_timeout(&wake, POLL_INTERVAL).is_err()
            && !self.accept.is_finished()
        {
            thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = self.accept.join();
    }
}

/// The address that reaches a listener bound to `bound`: the same,
/// with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: &TcpListener, name: &str, service: &Arc<dyn Service>) {
    loop {
        let accepted = listener.accept();
        // Once the door has closed, whatever woke the loop (the wake-up
        // connection, a late client, an error) ends it; a connection is
        // dropped unanswered.
        if service.door().closed() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let service = Arc::clone(service);
                let _ = thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || serve_connection(stream, &*service));
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn serve_connection(stream: TcpStream, service: &dyn Service) {
    let door = service.door();
    let Ok(mut conn) = ServerConnection::new(stream) else { return };
    while let Some(request) = conn.next_request(&door.terminate) {
        let close = request.wants_close() || door.closed();
        // The in-flight window covers routing AND writing the reply, so
        // a drain never cuts a response mid-stream.
        door.inflight.fetch_add(1, Ordering::SeqCst);
        let response = match Endpoint::parse(&request) {
            Ok(endpoint) => service.route(endpoint, &request),
            Err(response) => response,
        };
        let wrote = conn.respond(&response, close);
        door.inflight.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() || close {
            return;
        }
    }
}

/// A cloneable handle on a running [`Server`](crate::Server) or
/// [`Router`](crate::Router) that outlives its `join`: the signal path
/// starts (and escalates) the drain through it, and the binaries flush
/// the final metrics through it.
#[derive(Clone)]
pub struct ShutdownHandle {
    service: Arc<dyn Service>,
}

impl ShutdownHandle {
    /// Starts shutdown without blocking: new submissions get `503`
    /// while every other endpoint keeps serving. With `abort`, a server
    /// also cancels its queued and running jobs; a router holds no jobs,
    /// so for it `abort` is the same drain. Idempotent, and callable
    /// while (or after) another thread joins the service.
    pub fn begin_shutdown(&self, abort: bool) {
        self.service.begin_shutdown(abort);
    }

    /// `true` once shutdown has been requested (a signal, the
    /// `/shutdown` endpoint, or [`ShutdownHandle::begin_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.service.door().draining()
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.service.metrics_json()
    }
}

/// Signals received so far; bumped from the (async-signal-safe) handler.
static SIGNALS: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // SIGINT = 2, SIGTERM = 15 on every platform this builds for. The
    // libc `signal` entry point is reached directly to keep the crate
    // zero-dependency.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` only installs the handler, and `on_signal` does
    // nothing but an atomic add, which is async-signal-safe.
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

/// The tail of the `sim_server` and `sim_router` binaries, once the
/// service listens on `addr`: writes `addr` to `addr_file`, serves
/// until SIGINT, SIGTERM or `POST /shutdown`, drains through `join`,
/// and writes the final metrics document to `metrics_path`. The first
/// signal starts the drain; a second one calls
/// [`ShutdownHandle::begin_shutdown`]`(true)`, which aborts a server's
/// jobs.
pub fn run_until_shutdown(
    name: &str,
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: impl FnOnce(),
    addr_file: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<(), String> {
    install_signal_handlers();
    if let Some(path) = addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let watcher = handle.clone();
    // Detached: it exits with the process.
    thread::spawn(move || loop {
        match SIGNALS.load(Ordering::SeqCst) {
            0 => {}
            1 => watcher.begin_shutdown(false),
            _ => {
                watcher.begin_shutdown(true);
                return;
            }
        }
        thread::sleep(Duration::from_millis(50));
    });

    while !handle.shutdown_requested() {
        thread::sleep(Duration::from_millis(50));
    }
    eprintln!("{name}: shutting down, draining in-flight work");
    join();
    // The handle outlives the join, so the flushed document carries the
    // final post-drain counts.
    if let Some(path) = metrics_path {
        std::fs::write(path, handle.metrics_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("{name}: wrote final metrics to {path}");
    }
    eprintln!("{name}: drained and stopped");
    Ok(())
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
        Response::json(
            status,
            json::object(|o| {
                o.str("error", message);
            }),
        )
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
    fn wake_addr_replaces_only_an_unspecified_ip() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:4600"), "127.0.0.1:4600");
        assert_eq!(wake("[::]:4600"), "[::1]:4600");
        assert_eq!(wake("10.1.0.2:4600"), "10.1.0.2:4600");
    }

    #[test]
    fn connection_close_is_honored_in_parsing() {
        let wire = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert!(req.wants_close());
    }
}
