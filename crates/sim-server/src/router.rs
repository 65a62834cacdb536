//! The sharding router: one front door for a fleet of `sim_server`
//! backends.
//!
//! ```text
//!   sim_client / curl                       sim_server shard s0
//!         │ POST /jobs                    ┌──────────────────────┐
//!         ▼                          ┌──▶ │ queue → workers → …  │
//!   ┌──────────────── sim_router ────┤    └──────────────────────┘
//!   │ validate spec (local 400s)     │      sim_server shard s1
//!   │ ring.route(source_key) ────────┤    ┌──────────────────────┐
//!   │   429/503/refused: walk to the └──▶ │ queue → workers → …  │
//!   │   next distinct ring replica        └──────────────────────┘
//!   │   with capped backoff                        ▲
//!   │ health thread: /healthz probes ──────────────┘
//!   │   eject on failure, re-admit on recovery
//!   │ GET /jobs/s<shard>-<id>[/result] → proxied to that shard
//!   │ GET /metrics → router.* + fleet sums scraped from shards
//!   │ front door (http.rs) and drain: shared with sim_server
//!   └───────────────────────────────────
//! ```
//!
//! Routing is by the job's [`source key`](crate::JobSpec::source_key) — the
//! same canonicalization the backends' batch planners and result caches
//! use — so every spelling of a spec over one record stream lands on
//! one shard, keeping that shard's artifact cache, fused batching, and
//! result cache hot for "its" traces.
//!
//! Job ids become *shard-qualified* on the way back: a backend's
//! `{"id":17,…}` is rewritten to `{"id":"s2-17",…}`, and
//! `GET /jobs/s2-17[/result]` proxies to shard 2's `/jobs/17`. Result
//! documents are relayed **verbatim** — the byte-identity anchor (a
//! routed trace-job result is still byte-for-byte what a local
//! `champsim-run --metrics` writes) survives the extra hop.
//!
//! Accepting, connection handling, endpoint parsing and the drain wait
//! are the front door in [`crate::http`], shared with `sim_server`;
//! backend requests are written by [`Connection::send`], the client's
//! one request writer.
//!
//! Every forward (submission, job status, result, the `/metrics` fleet
//! scrape) goes through one `Shared::forward`, which takes an idle
//! keep-alive connection from the backend's pool (at most
//! [`BACKEND_POOL_CAP`] idle) or opens a fresh one, so a routed request
//! pays no TCP handshake and no accept on the backend. A pooled
//! connection that fails before any response byte (the backend closed
//! it while idle) is retried once on a fresh connection; that is not a
//! failover hop. Health probes open a fresh connection on purpose: a
//! probe tests that the backend still accepts.
//!
//! Shutdown is a single-grade drain: new submissions get `503` while
//! status polls, result fetches, `/healthz`, and `/metrics` keep
//! working; [`Router::join`] returns once the last in-flight proxied
//! request has been answered.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use telemetry::{catalog, Registry};

use crate::client::Connection;
use crate::http::{
    ClientResponse, Door, Endpoint, FrontDoor, Request, Response, Service, ShutdownHandle,
    POLL_INTERVAL,
};
use crate::json;
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Read/write deadline on a proxied backend exchange. Generous: every
/// backend endpoint answers without waiting on job execution.
const PROXY_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle keep-alive connections the router keeps per backend. Forwards
/// beyond it in flight at once open extra connections, which close
/// after their exchange.
pub const BACKEND_POOL_CAP: usize = 8;

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend `host:port` addresses, one per shard. Order defines the
    /// shard indices (`s0`, `s1`, …) baked into job ids.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Delay between health-probe sweeps over the backends.
    pub health_interval: Duration,
    /// Connect deadline for probes and proxied requests.
    pub connect_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            vnodes: DEFAULT_VNODES,
            health_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

struct Backend {
    addr: String,
    /// Last probe verdict; flips eject/re-admit the fleet membership
    /// for new submissions (proxied polls ignore it — a draining shard
    /// still answers them).
    healthy: AtomicBool,
    /// Idle keep-alive connections, at most [`BACKEND_POOL_CAP`].
    idle: Mutex<Vec<Connection>>,
}

impl Backend {
    /// Returns `connection` to the pool after `response`, unless the
    /// backend announced `connection: close` or the pool is full.
    fn release(&self, connection: Connection, response: &ClientResponse) {
        let close = response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let mut idle = self.idle.lock().expect("pool lock");
        if !close && idle.len() < BACKEND_POOL_CAP {
            idle.push(connection);
        }
    }
}

/// Routing-edge counters exported under the `router.*` descriptors.
#[derive(Default)]
pub struct RouterMetrics {
    routed: AtomicU64,
    retried: AtomicU64,
    rejected: AtomicU64,
    unroutable: AtomicU64,
    ejected: AtomicU64,
    readmitted: AtomicU64,
    connects: AtomicU64,
    reused: AtomicU64,
}

impl RouterMetrics {
    fn note_routed(&self) {
        self.routed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_retried(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn note_unroutable(&self) {
        self.unroutable.fetch_add(1, Ordering::Relaxed);
    }

    fn note_ejected(&self) {
        self.ejected.fetch_add(1, Ordering::Relaxed);
    }

    fn note_readmitted(&self) {
        self.readmitted.fetch_add(1, Ordering::Relaxed);
    }

    fn note_connect(&self) {
        self.connects.fetch_add(1, Ordering::Relaxed);
    }

    fn note_reused(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the router counters plus the caller-scraped fleet
    /// totals into a registry.
    pub fn export(&self, healthy: usize, fleet: &FleetTotals) -> Registry {
        let mut registry = Registry::new();
        registry.label("tool", "sim-router");
        registry.counter(&catalog::ROUTER_JOBS_ROUTED, self.routed.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_JOBS_RETRIED, self.retried.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_JOBS_REJECTED, self.rejected.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_JOBS_UNROUTABLE, self.unroutable.load(Ordering::Relaxed));
        registry.gauge(&catalog::ROUTER_BACKENDS_HEALTHY, healthy as f64);
        registry.counter(&catalog::ROUTER_BACKENDS_EJECTED, self.ejected.load(Ordering::Relaxed));
        registry
            .counter(&catalog::ROUTER_BACKENDS_READMITTED, self.readmitted.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_BACKEND_CONNECTS, self.connects.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_BACKEND_REUSED, self.reused.load(Ordering::Relaxed));
        registry.counter(&catalog::ROUTER_FLEET_JOBS_ACCEPTED, fleet.jobs_accepted);
        registry.counter(&catalog::ROUTER_FLEET_JOBS_COMPLETED, fleet.jobs_completed);
        registry.counter(&catalog::ROUTER_FLEET_JOBS_REJECTED, fleet.jobs_rejected);
        registry.gauge(&catalog::ROUTER_FLEET_QUEUE_DEPTH, fleet.queue_depth as f64);
        registry
    }
}

/// `server.*` counters summed over every reachable shard at scrape
/// time (an unreachable shard contributes nothing).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetTotals {
    /// Sum of `server.jobs.accepted`.
    pub jobs_accepted: u64,
    /// Sum of `server.jobs.completed`.
    pub jobs_completed: u64,
    /// Sum of `server.jobs.rejected`.
    pub jobs_rejected: u64,
    /// Sum of `server.queue.depth`.
    pub queue_depth: u64,
}

impl FleetTotals {
    /// Adds one backend's `/metrics` registry document. A metric the
    /// document lacks reads as `0` (a shard running an older build
    /// simply contributes nothing).
    fn add(&mut self, doc: &json::Value) {
        let value = |name| doc.metric(name).and_then(json::Value::as_f64).map_or(0, |v| v as u64);
        self.jobs_accepted += value("server.jobs.accepted");
        self.jobs_completed += value("server.jobs.completed");
        self.jobs_rejected += value("server.jobs.rejected");
        self.queue_depth += value("server.queue.depth");
    }
}

struct Shared {
    config: RouterConfig,
    ring: HashRing,
    backends: Vec<Backend>,
    metrics: RouterMetrics,
    door: Door,
}

impl Shared {
    fn healthy_count(&self) -> usize {
        self.backends.iter().filter(|b| b.healthy.load(Ordering::SeqCst)).count()
    }

    /// Sends one request to `backend` on an idle pooled connection, or
    /// on a fresh one when the pool is empty or its connection turns
    /// out stale, and pools the connection again after a complete
    /// keep-alive response.
    fn forward(
        &self,
        backend: &Backend,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<ClientResponse> {
        let pooled = backend.idle.lock().expect("pool lock").pop();
        if let Some(mut connection) = pooled {
            match connection.exchange(method, path, body) {
                Ok(response) => {
                    self.metrics.note_reused();
                    backend.release(connection, &response);
                    return Ok(response);
                }
                // A connection the backend closed while it sat idle
                // fails unanswered and is retried once, fresh: re-sending
                // even `POST /jobs` is safe, as the backend coalesces
                // identical specs onto one execution. A timeout is a
                // stalled backend, which a second wait would not cure.
                Err((e, answered)) => {
                    let timed_out =
                        matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
                    if answered || timed_out {
                        return Err(e);
                    }
                }
            }
        }
        let mut connection = Connection::connect_with_deadlines(
            &backend.addr,
            self.config.connect_timeout,
            PROXY_IO_TIMEOUT,
        )?;
        self.metrics.note_connect();
        let response = connection.send(method, path, body)?;
        backend.release(connection, &response);
        Ok(response)
    }
}

impl Service for Shared {
    fn door(&self) -> &Door {
        &self.door
    }

    fn route(&self, endpoint: Endpoint<'_>, request: &Request) -> Response {
        match endpoint {
            Endpoint::Submit => forward_submit(request, self),
            Endpoint::Healthz => healthz(self),
            Endpoint::Metrics => Response::json(200, self.metrics_json()),
            Endpoint::Shutdown => {
                self.door.drain();
                Response::json(
                    200,
                    json::object(|o| {
                        o.str("status", "shutting down");
                    }),
                )
            }
            Endpoint::Job { id, result } => proxy_job_get(id, result, self),
        }
    }

    /// The router holds no job state, so there is nothing to abort:
    /// both grades drain.
    fn begin_shutdown(&self, _abort: bool) {
        self.door.drain();
    }

    fn metrics_json(&self) -> String {
        let mut fleet = FleetTotals::default();
        for backend in &self.backends {
            let Ok(response) = self.forward(backend, "GET", "/metrics", "") else {
                continue;
            };
            if response.status != 200 {
                continue;
            }
            if let Ok(doc) = json::Value::parse(&response.text()) {
                fleet.add(&doc);
            }
        }
        self.metrics.export(self.healthy_count(), &fleet).to_json()
    }
}

/// A running sharding router; see the module docs for the data flow.
pub struct Router {
    shared: Arc<Shared>,
    front: FrontDoor,
    health: JoinHandle<()>,
}

impl Router {
    /// Binds `config.addr`, probes every backend once (a backend down
    /// at startup begins life ejected), and spawns the accept loop and
    /// the health checker.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let ring = HashRing::new(&config.backends, config.vnodes);
        let backends: Vec<Backend> = config
            .backends
            .iter()
            .map(|addr| Backend {
                healthy: AtomicBool::new(probe(addr, config.connect_timeout)),
                addr: addr.clone(),
                idle: Mutex::new(Vec::new()),
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            ring,
            backends,
            metrics: RouterMetrics::default(),
            door: Door::default(),
        });
        let front = FrontDoor::open(listener, "router", shared.clone())?;
        let health = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("router-health".to_owned())
                .spawn(move || health_loop(&shared))
                .expect("spawn health loop")
        };
        Ok(Router { shared, front, health })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Backends the health checker currently considers live.
    pub fn healthy_backends(&self) -> usize {
        self.shared.healthy_count()
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// A cloneable handle that outlives [`Router::join`]; signal
    /// handlers use it to trigger the drain, and the binary uses it to
    /// flush final metrics afterwards.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.handle()
    }

    /// Drains and stops: refuses new submissions, waits for in-flight
    /// proxied requests to finish, then tears down the accept and
    /// health loops.
    pub fn join(self) {
        self.shared.door.drain();
        self.front.close();
        let _ = self.health.join();
    }
}

fn health_loop(shared: &Arc<Shared>) {
    while !shared.door.closed() {
        for backend in &shared.backends {
            if shared.door.closed() {
                return;
            }
            let live = probe(&backend.addr, shared.config.connect_timeout);
            let was = backend.healthy.swap(live, Ordering::SeqCst);
            if was && !live {
                shared.metrics.note_ejected();
            } else if !was && live {
                shared.metrics.note_readmitted();
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.config.health_interval && !shared.door.closed() {
            let step = Duration::from_millis(10).min(shared.config.health_interval - slept);
            thread::sleep(step);
            slept += step;
        }
    }
}

/// One `/healthz` probe, on a fresh connection so that it tests that
/// the backend accepts: healthy iff the backend answers `200` with
/// `"status":"ok"`. A *draining* backend reports `"draining"` and is
/// treated as unhealthy — it would refuse new submissions anyway.
fn probe(addr: &str, timeout: Duration) -> bool {
    let connection = Connection::connect_with_deadlines(addr, timeout, timeout.max(POLL_INTERVAL));
    match connection.and_then(|mut c| c.send("GET", "/healthz", "")) {
        Ok(response) if response.status == 200 => {
            let text = response.text();
            json::Value::parse(&text)
                .ok()
                .as_ref()
                .and_then(|v| v.get("status"))
                .and_then(json::Value::as_str)
                == Some("ok")
        }
        _ => false,
    }
}

/// Validates the spec locally (a bad body earns its `400` without
/// touching any shard), routes by source key, and walks the ring's
/// distinct replicas until one accepts. `429`/`503` answers and
/// unreachable shards both advance the walk; busy shards additionally
/// pace it with capped exponential backoff.
fn forward_submit(request: &Request, shared: &Shared) -> Response {
    let refusal = || Response::error(503, "router is draining").with_header("retry-after", "1");
    let (body, spec) = match shared.door.submission(request, refusal) {
        Ok(submission) => submission,
        Err(response) => return response,
    };
    let preference = shared.ring.preference(&spec.source_key());
    // Prefer live shards in ring order; when the health checker has
    // ejected everyone its view may be stale, so fall back to trying
    // the full walk rather than refusing outright.
    let live: Vec<usize> = preference
        .iter()
        .copied()
        .filter(|&index| shared.backends[index].healthy.load(Ordering::SeqCst))
        .collect();
    let order = if live.is_empty() { preference } else { live };

    let mut retry_after: Option<u64> = None;
    let mut pace = false;
    for (attempt, &index) in order.iter().enumerate() {
        if attempt > 0 {
            shared.metrics.note_retried();
            if pace {
                thread::sleep(backoff(attempt));
            }
        }
        let backend = &shared.backends[index];
        match shared.forward(backend, "POST", "/jobs", body) {
            Ok(response) if response.status == 202 => {
                shared.metrics.note_routed();
                let text = response.text();
                return match shard_qualify(&text, index) {
                    Some(body) => Response::json(202, body),
                    None => relay(response),
                };
            }
            Ok(response) if response.status == 429 || response.status == 503 => {
                pace = true;
                let hint = response
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(1);
                retry_after = Some(retry_after.map_or(hint, |seen| seen.max(hint)));
            }
            // Anything else is a definitive per-request verdict (e.g. a
            // 400 local validation missed); relay it verbatim.
            Ok(response) => return relay(response),
            Err(_) => {}
        }
    }
    match retry_after {
        Some(seconds) => {
            shared.metrics.note_rejected();
            Response::error(429, "every shard refused the job")
                .with_header("retry-after", &seconds.to_string())
        }
        None => {
            shared.metrics.note_unroutable();
            Response::error(503, "no shard is reachable").with_header("retry-after", "1")
        }
    }
}

/// Proxy `GET /jobs/s<shard>-<id>[/result]` to the owning shard.
/// Health status is ignored here: a draining shard still serves its
/// job table, and the job's state lives nowhere else.
fn proxy_job_get(id_text: &str, want_result: bool, shared: &Shared) -> Response {
    let Some((shard, raw_id)) = parse_shard_id(id_text) else {
        return Response::error(404, "malformed job id (router job ids look like \"s0-17\")");
    };
    if shard >= shared.backends.len() {
        return Response::error(
            404,
            &format!("no shard s{shard} (this router fronts {} shards)", shared.backends.len()),
        );
    }
    let backend = &shared.backends[shard];
    let backend_path =
        if want_result { format!("/jobs/{raw_id}/result") } else { format!("/jobs/{raw_id}") };
    match shared.forward(backend, "GET", &backend_path, "") {
        // A finished result document is relayed verbatim: this is the
        // byte-identity anchor, never rewritten.
        Ok(response) if want_result && response.status == 200 => relay(response),
        Ok(response) => {
            let text = response.text();
            match shard_qualify(&text, shard) {
                Some(body) => {
                    let status = response.status;
                    let mut out = Response::json(status, body);
                    if let Some(hint) = response.header("retry-after") {
                        out = out.with_header("retry-after", hint);
                    }
                    out
                }
                None => relay(response),
            }
        }
        Err(_) => Response::error(
            503,
            &format!(
                "shard s{shard} ({}) is unreachable; if it died, the job's state died \
                 with it — resubmit through the router",
                backend.addr
            ),
        )
        .with_header("retry-after", "1"),
    }
}

fn healthz(shared: &Shared) -> Response {
    Response::json(
        200,
        json::object(|o| {
            o.str("status", if shared.door.draining() { "draining" } else { "ok" })
                .u64("backends", shared.backends.len() as u64)
                .u64("healthy_backends", shared.healthy_count() as u64)
                .objects(
                    "shards",
                    shared.backends.iter().enumerate(),
                    |shard, (index, backend)| {
                        shard
                            .str("shard", &format!("s{index}"))
                            .str("addr", &backend.addr)
                            .bool("healthy", backend.healthy.load(Ordering::SeqCst));
                    },
                );
        }),
    )
}

/// Backoff before re-walking to the next replica after a busy signal:
/// 50 ms doubling, capped at 200 ms (the client retry loop above this
/// owns the long waits).
fn backoff(attempt: usize) -> Duration {
    Duration::from_millis(25u64 << attempt.min(3))
}

/// Rewrites a backend body's leading `{"id":<n>` to the
/// shard-qualified `{"id":"s<shard>-<n>"`, preserving the rest of the
/// body byte-for-byte. `None` when the body doesn't lead with a
/// numeric id (then the body is relayed untouched).
fn shard_qualify(body: &str, shard: usize) -> Option<String> {
    let rest = body.strip_prefix("{\"id\":")?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    let (id, tail) = rest.split_at(digits);
    Some(format!("{{\"id\":\"s{shard}-{id}\"{tail}"))
}

/// Parses a shard-qualified job id `s<shard>-<raw>`.
fn parse_shard_id(text: &str) -> Option<(usize, u64)> {
    let rest = text.strip_prefix('s')?;
    let (shard, raw) = rest.split_once('-')?;
    Some((shard.parse().ok()?, raw.parse().ok()?))
}

/// Converts a backend's response into ours, body untouched. The
/// framing headers (`content-length`, `connection`) are regenerated by
/// [`Response::write`].
fn relay(response: ClientResponse) -> Response {
    let headers = response
        .headers
        .into_iter()
        .filter(|(name, _)| name != "content-length" && name != "connection")
        .collect();
    Response { status: response.status, headers, body: response.body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_qualify_rewrites_only_the_leading_id() {
        assert_eq!(
            shard_qualify("{\"id\":17,\"status\":\"queued\"}", 2).as_deref(),
            Some("{\"id\":\"s2-17\",\"status\":\"queued\"}")
        );
        assert_eq!(
            shard_qualify("{\"id\":4,\"status\":\"done\",\"queue_ms\":0,\"run_ms\":3}", 0)
                .as_deref(),
            Some("{\"id\":\"s0-4\",\"status\":\"done\",\"queue_ms\":0,\"run_ms\":3}")
        );
        assert_eq!(shard_qualify("{\"error\":\"nope\"}", 1), None, "no leading id: untouched");
        assert_eq!(shard_qualify("{\"id\":\"s0-1\"}", 1), None, "already qualified: untouched");
    }

    #[test]
    fn shard_ids_parse_and_reject_malformed_forms() {
        assert_eq!(parse_shard_id("s0-17"), Some((0, 17)));
        assert_eq!(parse_shard_id("s12-9000"), Some((12, 9000)));
        for bad in ["17", "s-17", "sx-17", "s1-", "s1-abc", "1-2", "s1", ""] {
            assert_eq!(parse_shard_id(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(50));
        assert_eq!(backoff(2), Duration::from_millis(100));
        assert_eq!(backoff(3), Duration::from_millis(200));
        assert_eq!(backoff(9), Duration::from_millis(200), "capped");
    }

    #[test]
    fn metric_values_parse_out_of_registry_documents() {
        let doc = "{\"metrics\":[{\"name\":\"server.jobs.accepted\",\"kind\":\"counter\",\
                   \"value\":7},{\"name\":\"server.queue.depth\",\"value\":2.0}]}";
        let mut fleet = FleetTotals::default();
        fleet.add(&json::Value::parse(doc).unwrap());
        fleet.add(&json::Value::parse(doc).unwrap());
        assert_eq!(fleet.jobs_accepted, 14);
        assert_eq!(fleet.queue_depth, 4);
        assert_eq!(fleet.jobs_rejected, 0, "absent reads as zero");
    }

    #[test]
    fn router_metrics_export_under_router_descriptors() {
        let metrics = RouterMetrics::default();
        metrics.note_routed();
        metrics.note_routed();
        metrics.note_retried();
        metrics.note_rejected();
        metrics.note_unroutable();
        metrics.note_ejected();
        metrics.note_readmitted();
        metrics.note_connect();
        metrics.note_reused();
        metrics.note_reused();
        let fleet =
            FleetTotals { jobs_accepted: 10, jobs_completed: 8, jobs_rejected: 1, queue_depth: 3 };
        let registry = metrics.export(2, &fleet);
        assert_eq!(registry.counter_value("router.jobs.routed"), 2);
        assert_eq!(registry.counter_value("router.jobs.retried"), 1);
        assert_eq!(registry.counter_value("router.jobs.rejected"), 1);
        assert_eq!(registry.counter_value("router.jobs.unroutable"), 1);
        assert_eq!(registry.counter_value("router.backends.ejected"), 1);
        assert_eq!(registry.counter_value("router.backends.readmitted"), 1);
        assert_eq!(registry.counter_value("router.backend.connects"), 1);
        assert_eq!(registry.counter_value("router.backend.reused"), 2);
        assert_eq!(registry.counter_value("router.fleet.jobs_accepted"), 10);
        assert_eq!(registry.counter_value("router.fleet.jobs_completed"), 8);
        assert_eq!(registry.counter_value("router.fleet.jobs_rejected"), 1);
        let doc = registry.to_json();
        assert!(doc.contains("router.backends.healthy"));
        assert!(doc.contains("router.fleet.queue_depth"));
        assert!(doc.contains("\"tool\":\"sim-router\""));
    }
}
