//! The job service itself: listener, connection handling, worker pool,
//! job table, and shutdown choreography.
//!
//! ```text
//!                  connection threads                     worker pool
//!   TCP accept ──▶ parse request ──▶ BoundedQueue ──────▶ pop (id, source key)
//!   (nonblocking,     │   │ full       (depth N)          │ drain_matching:
//!    poll loop)       │   └──▶ 429 + Retry-After          │ claim co-queued jobs
//!                     │                                   ▼ with same source key
//!                     ├──▶ ResultCache hit ─▶ Done   JobSpec::execute_batch
//!                     │    (canonical key)          (one fused streaming pass,
//!                     ├──▶ in-flight dup ─▶ attach   N reports; shared cache,
//!                     │    as follower              per-job cancel tokens)
//!      GET /jobs/<id>[/result], /healthz, /metrics        │
//!                     │                                   ▼
//!                     └──▶ job table lookup ◀──── record outcomes, fill
//!                                                 cache, settle followers
//! ```
//!
//! The submission fast paths come first: a result-cache hit (keyed by
//! the [`canonical job-spec key`](JobSpec::canonical_key)) creates the
//! job already `Done` with the memoized document, and a submission that
//! duplicates a job still in flight attaches to that execution as a
//! *follower* — accepted, never queued, settled when the primary
//! finishes. Everything else queues as `(id, source key)`; a worker
//! that pops a job scans the queue for co-queued jobs with the same
//! source key (up to `max_batch`) and drives them through one fused
//! streaming pass over the shared decoded record stream.
//!
//! Shutdown has two grades. *Graceful* (`begin_shutdown(false)`): new
//! submissions get `503`, the queue closes, workers finish the backlog,
//! polls and result fetches keep working throughout the drain. *Abort*
//! (`begin_shutdown(true)`): the backlog is drained to `cancelled` and
//! every in-flight token is tripped, so running simulations stop at
//! their next cooperative check and report `cancelled`. In both grades
//! [`Server::join`] returns only after the workers and the accept loop
//! have exited.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use experiments::ArtifactCache;
use sim::CancelToken;

use crate::http::{Request, Response, ServerConnection, POLL_INTERVAL};
use crate::jobspec::{JobError, JobSpec};
use crate::json;
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::result_cache::ResultCache;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Bounded queue depth; submissions beyond it get `429`.
    pub queue_depth: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-job deadline, measured from submission (queue wait counts).
    pub job_timeout: Duration,
    /// Most jobs one worker fuses into a single streaming pass
    /// (`1` disables batching).
    pub max_batch: usize,
    /// Result-cache capacity in documents (`0` disables memoization).
    pub result_cache_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_depth: 64,
            workers: 2,
            job_timeout: Duration::from_secs(300),
            max_batch: 8,
            result_cache_entries: 256,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the metrics document is available.
    Done,
    /// Failed; a diagnostic is available.
    Failed,
    /// Cancelled by deadline or shutdown abort.
    Cancelled,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled)
    }
}

struct JobState {
    status: JobStatus,
    result: Option<String>,
    error: Option<String>,
    started: Option<Instant>,
    finished: Option<Instant>,
}

struct Job {
    spec: JobSpec,
    token: CancelToken,
    submitted: Instant,
    /// Full-spec memoization key; see [`JobSpec::canonical_key`].
    canonical_key: String,
    /// Stream-grouping key; see [`JobSpec::source_key`].
    source_key: String,
    state: Mutex<JobState>,
}

impl Job {
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Jobs coalesced onto one execution of a canonical spec: the primary
/// is queued (or running); followers were accepted but never queued —
/// they are settled with the primary's outcome when it finishes.
struct Inflight {
    primary: u64,
    followers: Vec<u64>,
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<(u64, String)>,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// canonical key → the execution duplicates attach to.
    inflight: Mutex<HashMap<String, Inflight>>,
    next_id: AtomicU64,
    metrics: ServerMetrics,
    cache: ArtifactCache,
    result_cache: ResultCache,
    /// Submissions refused (`503`); polls and fetches still served.
    shutting_down: AtomicBool,
    /// Connection threads and the accept loop exit at next poll.
    terminate: AtomicBool,
}

impl Shared {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs_lock().get(&id).cloned()
    }

    fn jobs_lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<Job>>> {
        self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn inflight_lock(&self) -> MutexGuard<'_, HashMap<String, Inflight>> {
        self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn metrics_json(&self) -> String {
        self.metrics.export(self.queue.len(), self.result_cache.stats()).to_json()
    }
}

/// A running job service; see the module docs for the thread layout.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the worker pool and accept loop, and
    /// returns once the listener is live.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            result_cache: ResultCache::new(config.result_cache_entries),
            config,
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: ServerMetrics::default(),
            cache: ArtifactCache::with_spill(None),
            shutting_down: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("sim-accept".to_owned())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Server { shared, local_addr, accept: Some(accept), workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts shutdown without blocking: refuse new submissions, close
    /// the queue; with `abort`, also cancel queued and running jobs.
    /// Idempotent. Call [`Server::join`] afterwards to wait out the
    /// drain.
    pub fn begin_shutdown(&self, abort: bool) {
        begin_shutdown(&self.shared, abort);
    }

    /// `true` once shutdown has been requested (signal handler, the
    /// `/shutdown` endpoint, or [`Server::begin_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Jobs accepted / rejected / completed so far (for smoke checks).
    pub fn job_counts(&self) -> (u64, u64, u64) {
        (
            self.shared.metrics.accepted(),
            self.shared.metrics.rejected(),
            self.shared.metrics.completed(),
        )
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// A cloneable handle that outlives [`Server::join`]; signal
    /// handlers use it to trigger (and escalate) shutdown, and the
    /// binary uses it to flush final metrics after the drain.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// Waits for the workers to finish the (possibly drained) backlog,
    /// then stops the accept loop and open connections. Implies
    /// [`Server::begin_shutdown`]`(false)` if shutdown wasn't already
    /// requested.
    pub fn join(mut self) {
        begin_shutdown(&self.shared, false);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.terminate.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// See [`Server::shutdown_handle`].
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Same as [`Server::begin_shutdown`]; callable while (or after)
    /// another thread joins the server.
    pub fn begin_shutdown(&self, abort: bool) {
        begin_shutdown(&self.shared, abort);
    }

    /// `true` once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }
}

fn begin_shutdown(shared: &Shared, abort: bool) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    if abort {
        let mut doomed: Vec<u64> =
            shared.queue.close_and_drain().into_iter().map(|(id, _)| id).collect();
        // Followers never sit in the queue; drain the in-flight map so
        // they are not stranded waiting for a primary that will report
        // cancellation (or was itself just drained).
        for (_, entry) in shared.inflight_lock().drain() {
            doomed.extend(entry.followers);
        }
        for id in doomed {
            if let Some(job) = shared.job(id) {
                let mut state = job.lock();
                if !state.status.is_terminal() {
                    state.status = JobStatus::Cancelled;
                    state.finished = Some(Instant::now());
                    shared.metrics.note_cancelled();
                }
            }
        }
        for job in shared.jobs_lock().values() {
            job.token.cancel();
        }
    } else {
        shared.queue.close();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.terminate.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("sim-conn".to_owned())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(mut conn) = ServerConnection::new(stream) else { return };
    while let Some(request) = conn.next_request(&shared.terminate) {
        let close = request.wants_close() || shared.terminate.load(Ordering::SeqCst);
        let response = route(&request, shared);
        if conn.respond(&response, close).is_err() || close {
            return;
        }
    }
}

fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit(request, shared),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Response::json(200, shared.metrics_json()),
        ("POST", "/shutdown") => shutdown_endpoint(request, shared),
        ("GET", _) if path.starts_with("/jobs/") => job_endpoint(path, shared),
        (_, "/jobs" | "/healthz" | "/metrics" | "/shutdown") => {
            Response::error(405, "method not allowed")
        }
        (_, _) if path.starts_with("/jobs/") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn submit(request: &Request, shared: &Arc<Shared>) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::error(503, "server is shutting down");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let canonical_key = spec.canonical_key();
    let source_key = spec.source_key();
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let submitted = Instant::now();

    // Fast path 1: the exact spec already finished — answer from the
    // result cache with a job born `Done`. The memoized document is the
    // byte-identical output of the original execution.
    if let Some(document) = shared.result_cache.get(&canonical_key) {
        let job = Arc::new(Job {
            spec,
            token: CancelToken::new(),
            submitted,
            canonical_key,
            source_key,
            state: Mutex::new(JobState {
                status: JobStatus::Done,
                result: Some(document),
                error: None,
                started: Some(submitted),
                finished: Some(submitted),
            }),
        });
        shared.jobs_lock().insert(id, job);
        shared.metrics.note_accepted();
        shared.metrics.note_completed(Duration::ZERO, Duration::ZERO);
        return Response::json(202, format!("{{\"id\":{id},\"status\":\"done\"}}"));
    }

    let job = Arc::new(Job {
        spec,
        token: CancelToken::with_deadline(submitted + shared.config.job_timeout),
        submitted,
        canonical_key: canonical_key.clone(),
        source_key: source_key.clone(),
        state: Mutex::new(JobState {
            status: JobStatus::Queued,
            result: None,
            error: None,
            started: None,
            finished: None,
        }),
    });
    // The job must be visible in the table before it can appear in the
    // in-flight map: a worker settling followers looks ids up there.
    shared.jobs_lock().insert(id, job);

    // Fast path 2: the same spec is already queued or running — attach
    // to that execution as a follower instead of queueing a duplicate.
    {
        let mut inflight = shared.inflight_lock();
        match inflight.get_mut(&canonical_key) {
            Some(entry) => {
                entry.followers.push(id);
                drop(inflight);
                shared.metrics.note_accepted();
                shared.metrics.note_coalesced();
                return Response::json(202, format!("{{\"id\":{id},\"status\":\"queued\"}}"));
            }
            None => {
                inflight
                    .insert(canonical_key.clone(), Inflight { primary: id, followers: Vec::new() });
            }
        }
    }

    if shared.queue.try_push((id, source_key)).is_err() {
        shared.jobs_lock().remove(&id);
        // Duplicates may have attached in the window before the push
        // failed; give one of them a chance to take the execution.
        let followers = remove_inflight_entry(shared, &canonical_key, id);
        promote_followers(shared, followers);
        shared.metrics.note_rejected();
        return Response::error(429, "queue full").with_header("retry-after", "1");
    }
    shared.metrics.note_accepted();
    Response::json(202, format!("{{\"id\":{id},\"status\":\"queued\"}}"))
}

/// Removes the in-flight entry for `key` if `id` is still its primary,
/// returning any followers that had attached to it.
fn remove_inflight_entry(shared: &Shared, key: &str, id: u64) -> Vec<u64> {
    let mut inflight = shared.inflight_lock();
    match inflight.get(key) {
        Some(entry) if entry.primary == id => {
            inflight.remove(key).map(|entry| entry.followers).unwrap_or_default()
        }
        _ => Vec::new(),
    }
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let status = if shared.shutting_down.load(Ordering::SeqCst) { "draining" } else { "ok" };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"queue_depth\":{},\"queue_capacity\":{}}}",
            shared.queue.len(),
            shared.queue.capacity()
        ),
    )
}

fn shutdown_endpoint(request: &Request, shared: &Arc<Shared>) -> Response {
    let abort = std::str::from_utf8(&request.body)
        .ok()
        .filter(|body| !body.trim().is_empty())
        .and_then(|body| json::Value::parse(body).ok())
        .and_then(|v| v.get("abort").and_then(json::Value::as_bool))
        .unwrap_or(false);
    begin_shutdown(shared, abort);
    Response::json(200, format!("{{\"status\":\"shutting down\",\"abort\":{abort}}}"))
}

fn job_endpoint(path: &str, shared: &Arc<Shared>) -> Response {
    let rest = &path["/jobs/".len()..];
    let (id_text, want_result) = match rest.strip_suffix("/result") {
        Some(id_text) => (id_text, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, "malformed job id");
    };
    let Some(job) = shared.job(id) else {
        return Response::error(404, "no such job");
    };
    if want_result {
        job_result(id, &job)
    } else {
        Response::json(200, job_status_json(id, &job))
    }
}

fn job_result(id: u64, job: &Job) -> Response {
    let state = job.lock();
    match state.status {
        JobStatus::Done => Response::json(200, state.result.clone().unwrap_or_default()),
        JobStatus::Failed => {
            let mut body = format!("{{\"id\":{id},\"status\":\"failed\",\"error\":");
            json::write_string(&mut body, state.error.as_deref().unwrap_or("job failed"));
            body.push('}');
            Response::json(409, body)
        }
        JobStatus::Cancelled => Response::json(
            409,
            format!("{{\"id\":{id},\"status\":\"cancelled\",\"error\":\"job was cancelled\"}}"),
        ),
        JobStatus::Queued | JobStatus::Running => Response::json(
            409,
            format!(
                "{{\"id\":{id},\"status\":\"{}\",\"error\":\"job not finished\"}}",
                state.status.as_str()
            ),
        ),
    }
}

fn job_status_json(id: u64, job: &Job) -> String {
    let state = job.lock();
    let mut body = format!("{{\"id\":{id},\"status\":\"{}\"", state.status.as_str());
    if let Some(started) = state.started {
        let queued_ms = started.duration_since(job.submitted).as_millis();
        body.push_str(&format!(",\"queue_ms\":{queued_ms}"));
        if let Some(finished) = state.finished {
            let run_ms = finished.duration_since(started).as_millis();
            body.push_str(&format!(",\"run_ms\":{run_ms}"));
        }
    }
    if let Some(error) = &state.error {
        body.push_str(",\"error\":");
        json::write_string(&mut body, error);
    }
    body.push('}');
    body
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((id, source_key)) = shared.queue.pop() {
        // Batch planner: claim co-queued jobs that decode the same
        // record stream, so one pass feeds every config.
        let mut ids = vec![id];
        if shared.config.max_batch > 1 {
            let claimed = shared
                .queue
                .drain_matching(|(_, key)| key == &source_key, shared.config.max_batch - 1);
            ids.extend(claimed.into_iter().map(|(id, _)| id));
        }
        run_batch(&ids, shared);
    }
}

fn run_batch(ids: &[u64], shared: &Arc<Shared>) {
    let started = Instant::now();
    // Admit each claimed job into the pass: skip terminal ones, settle
    // already-cancelled ones (their followers included), run the rest.
    let mut live: Vec<(u64, Arc<Job>)> = Vec::with_capacity(ids.len());
    for &id in ids {
        let Some(job) = shared.job(id) else { continue };
        {
            let mut state = job.lock();
            if state.status.is_terminal() {
                continue;
            }
            if job.token.is_cancelled() {
                state.status = JobStatus::Cancelled;
                state.finished = Some(started);
                shared.metrics.note_cancelled();
            } else {
                state.status = JobStatus::Running;
                state.started = Some(started);
                live.push((id, Arc::clone(&job)));
                continue;
            }
        }
        let followers = remove_inflight_entry(shared, &job.canonical_key, id);
        promote_followers(shared, followers);
    }
    if live.is_empty() {
        return;
    }
    shared.metrics.note_batch(live.len());
    let batch: Vec<(&JobSpec, &CancelToken)> =
        live.iter().map(|(_, job)| (&job.spec, &job.token)).collect();
    let outcomes = JobSpec::execute_batch(&batch, &shared.cache);
    let finished = Instant::now();
    let ran = finished.duration_since(started);
    for ((id, job), outcome) in live.iter().zip(outcomes) {
        let queued = started.duration_since(job.submitted);
        {
            let mut state = job.lock();
            state.finished = Some(finished);
            match &outcome {
                Ok(document) => {
                    state.status = JobStatus::Done;
                    state.result = Some(document.clone());
                    shared.metrics.note_completed(queued, ran);
                }
                Err(JobError::Cancelled) => {
                    state.status = JobStatus::Cancelled;
                    shared.metrics.note_cancelled();
                }
                Err(JobError::Failed(message)) => {
                    state.status = JobStatus::Failed;
                    state.error = Some(message.clone());
                    shared.metrics.note_failed(queued, ran);
                }
            }
        }
        let followers = remove_inflight_entry(shared, &job.canonical_key, *id);
        match outcome {
            Ok(document) => {
                shared.result_cache.insert(job.canonical_key.clone(), document.clone());
                settle_followers(shared, followers, finished, &document);
            }
            Err(JobError::Failed(message)) => {
                fail_followers(shared, followers, finished, &message);
            }
            Err(JobError::Cancelled) => {
                // Only this job's deadline tripped; duplicates keep
                // their own deadlines — hand the execution to one.
                promote_followers(shared, followers);
            }
        }
    }
}

/// Delivers the primary's finished document to its followers.
fn settle_followers(shared: &Shared, followers: Vec<u64>, finished: Instant, document: &str) {
    for id in followers {
        let Some(job) = shared.job(id) else { continue };
        let mut state = job.lock();
        if state.status.is_terminal() {
            continue;
        }
        state.status = JobStatus::Done;
        state.result = Some(document.to_owned());
        state.started = Some(finished);
        state.finished = Some(finished);
        shared.metrics.note_completed(finished.duration_since(job.submitted), Duration::ZERO);
    }
}

/// Delivers the primary's failure to its followers (the same spec
/// would fail the same way).
fn fail_followers(shared: &Shared, followers: Vec<u64>, finished: Instant, message: &str) {
    for id in followers {
        let Some(job) = shared.job(id) else { continue };
        let mut state = job.lock();
        if state.status.is_terminal() {
            continue;
        }
        state.status = JobStatus::Failed;
        state.error = Some(message.to_owned());
        state.started = Some(finished);
        state.finished = Some(finished);
        shared.metrics.note_failed(finished.duration_since(job.submitted), Duration::ZERO);
    }
}

/// A primary went away without a result (its own deadline or a refused
/// enqueue): hand the execution to the first follower that is still
/// live by re-enqueueing it as a new primary carrying the rest. If the
/// queue refuses (closed or full), nobody is stranded — everyone left
/// is cancelled.
fn promote_followers(shared: &Shared, followers: Vec<u64>) {
    let mut rest = followers.into_iter();
    while let Some(id) = rest.next() {
        let Some(job) = shared.job(id) else { continue };
        if job.token.is_cancelled() {
            cancel_job(shared, &job);
            continue;
        }
        let remaining: Vec<u64> = rest.collect();
        {
            let mut inflight = shared.inflight_lock();
            if let Some(entry) = inflight.get_mut(&job.canonical_key) {
                // A newer submission already became primary for this
                // spec; attach everyone to it instead.
                entry.followers.push(id);
                entry.followers.extend(remaining);
                return;
            }
            inflight
                .insert(job.canonical_key.clone(), Inflight { primary: id, followers: remaining });
        }
        if shared.queue.try_push((id, job.source_key.clone())).is_ok() {
            return;
        }
        let stranded = remove_inflight_entry(shared, &job.canonical_key, id);
        cancel_job(shared, &job);
        for id in stranded {
            if let Some(job) = shared.job(id) {
                cancel_job(shared, &job);
            }
        }
        return;
    }
}

fn cancel_job(shared: &Shared, job: &Job) {
    let mut state = job.lock();
    if !state.status.is_terminal() {
        state.status = JobStatus::Cancelled;
        state.finished = Some(Instant::now());
        shared.metrics.note_cancelled();
    }
}
