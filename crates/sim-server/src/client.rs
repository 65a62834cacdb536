//! A small blocking HTTP client for the job API, shared by
//! `sim_client`, `server_bench`, the integration tests, and the router's
//! backend forwards: [`Connection::send`] is the one request writer.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::http::{read_response, ClientResponse};
use crate::json::Value;

/// One keep-alive connection to a job server.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr` (e.g. `127.0.0.1:4600`). The address works
    /// the same whether it is a `sim_server` backend or a `sim_router`
    /// front — the job API is identical, only id shapes differ.
    pub fn connect(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot connect to {addr}: {e} (is the server up? check GET /healthz)"),
            )
        })?;
        Connection::over(stream)
    }

    /// Connects to `addr` within `connect_timeout`; every later read or
    /// write fails once it waits `io_timeout`. The router forwards
    /// through these, so a stalled backend costs a bounded wait.
    pub(crate) fn connect_with_deadlines(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> io::Result<Connection> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Connection::over(stream)
    }

    fn over(stream: TcpStream) -> io::Result<Connection> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Connection { reader: BufReader::new(stream), writer })
    }

    /// Sends one request and reads the response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.exchange(method, path, body).map_err(|(e, _answered)| e)
    }

    /// [`Connection::send`], whose error also says whether any byte of
    /// the response had arrived. One that failed unanswered may never
    /// have been read: that is how a keep-alive connection the peer
    /// closed while it sat idle fails.
    pub(crate) fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<ClientResponse, (io::Error, bool)> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: sim-server\r\n");
        if !body.is_empty() {
            head.push_str(&format!(
                "content-type: application/json\r\ncontent-length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let unanswered = |e| (e, false);
        self.writer.write_all(head.as_bytes()).map_err(unanswered)?;
        self.writer.write_all(body.as_bytes()).map_err(unanswered)?;
        self.writer.flush().map_err(unanswered)?;
        if self.reader.fill_buf().map_err(unanswered)?.is_empty() {
            return Err(unanswered(io::ErrorKind::UnexpectedEof.into()));
        }
        read_response(&mut self.reader).map_err(|e| (e, true))
    }

    /// Submits a job body; returns the assigned job id. Ids are opaque
    /// strings: a bare backend issues numeric ids (`"17"`), a router
    /// issues shard-qualified ones (`"s0-17"`); either feeds straight
    /// back into [`Connection::wait`] / [`Connection::fetch`].
    pub fn submit(&mut self, body: &str) -> io::Result<String> {
        let response = self.send("POST", "/jobs", body)?;
        if response.status != 202 {
            return Err(api_error("submit", &response));
        }
        parse_id(&response)
    }

    /// Polls `GET /jobs/<id>` until the job reaches a terminal state or
    /// `timeout` elapses; returns the final status string.
    pub fn wait(&mut self, id: &str, timeout: Duration) -> io::Result<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let response = self.send("GET", &format!("/jobs/{id}"), "")?;
            if response.status != 200 {
                return Err(api_error("poll", &response));
            }
            let status = Value::parse(&response.text())
                .ok()
                .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_owned))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed status body: {}", response.text()),
                    )
                })?;
            if matches!(status.as_str(), "done" | "failed" | "cancelled") {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still {status} after {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Fetches the result document of a finished job.
    pub fn fetch(&mut self, id: &str) -> io::Result<String> {
        let response = self.send("GET", &format!("/jobs/{id}/result"), "")?;
        if response.status != 200 {
            return Err(api_error("fetch", &response));
        }
        Ok(response.text())
    }

    /// Submit, wait, fetch — the whole round trip. A `429` submission
    /// is retried with capped exponential backoff (honouring the
    /// server's `Retry-After` hint) until `timeout` elapses; every
    /// other submission error is immediate. [`Connection::submit`]
    /// stays strict so overload tests and benches can count rejections.
    pub fn run(&mut self, body: &str, timeout: Duration) -> io::Result<String> {
        let deadline = Instant::now() + timeout;
        let mut attempt = 0u32;
        let id = loop {
            let response = self.send("POST", "/jobs", body)?;
            match response.status {
                202 => break parse_id(&response)?,
                429 => {
                    let hint = response
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    let delay = retry_delay(attempt, hint);
                    if Instant::now() + delay >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("submit still refused (429) after {timeout:?}"),
                        ));
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                _ => return Err(api_error("submit", &response)),
            }
        };
        let status = self.wait(&id, deadline.saturating_duration_since(Instant::now()))?;
        if status != "done" {
            let detail = self.send("GET", &format!("/jobs/{id}/result"), "")?;
            return Err(io::Error::other(format!("job {id} {status}: {}", detail.text())));
        }
        self.fetch(&id)
    }
}

/// Backoff before retrying a `429`: exponential from 50 ms, raised to
/// the server's `Retry-After` hint when that is longer, capped at 2 s.
fn retry_delay(attempt: u32, hint: Option<Duration>) -> Duration {
    let backoff = Duration::from_millis(50) * (1u32 << attempt.min(6));
    backoff.max(hint.unwrap_or(Duration::ZERO)).min(Duration::from_secs(2))
}

fn parse_id(response: &ClientResponse) -> io::Result<String> {
    // Backends issue ids as JSON numbers, the router as strings
    // (`"s0-17"`); accept both so one client speaks to either.
    Value::parse(&response.text())
        .ok()
        .and_then(|v| {
            let id = v.get("id")?;
            id.as_str().map(str::to_owned).or_else(|| id.as_u64().map(|n| n.to_string()))
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response carried no job id"))
}

fn api_error(action: &str, response: &ClientResponse) -> io::Error {
    io::Error::other(format!("{action} failed: HTTP {} {}", response.status, response.text()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_grows_exponentially_and_caps() {
        assert_eq!(retry_delay(0, None), Duration::from_millis(50));
        assert_eq!(retry_delay(1, None), Duration::from_millis(100));
        assert_eq!(retry_delay(3, None), Duration::from_millis(400));
        assert_eq!(retry_delay(6, None), Duration::from_secs(2), "3.2 s capped to 2 s");
        assert_eq!(retry_delay(60, None), Duration::from_secs(2), "huge attempts do not overflow");
    }

    #[test]
    fn retry_delay_honours_a_longer_server_hint() {
        let hint = Some(Duration::from_secs(1));
        assert_eq!(retry_delay(0, hint), Duration::from_secs(1), "hint floors the delay");
        assert_eq!(retry_delay(5, hint), Duration::from_millis(1_600), "backoff beyond the hint");
        assert_eq!(retry_delay(0, Some(Duration::from_secs(30))), Duration::from_secs(2), "capped");
    }
}
