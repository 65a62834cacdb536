//! The job service itself: routing, worker pool, job table, and
//! shutdown choreography. Accepting, connection handling, endpoint
//! parsing and the drain wait are the front door in [`crate::http`],
//! shared with the router.
//!
//! ```text
//!                  Service::route                         worker pool
//!   front door ──▶ POST /jobs ─────▶ BoundedQueue ──────▶ pop (id, source key)
//!   (http.rs,         │   │ full       (depth N)          │ drain_matching:
//!    shared)          │   └──▶ 429 + Retry-After          │ claim co-queued jobs
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
//! [`Server::join`] returns only after the workers have exited, every
//! request being routed has had its response written, and the accept
//! loop has stopped.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use experiments::ArtifactCache;
use sim::CancelToken;

use crate::http::{Door, Endpoint, FrontDoor, Request, Response, Service, ShutdownHandle};
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
    door: Door,
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
}

impl Service for Shared {
    fn door(&self) -> &Door {
        &self.door
    }

    fn route(&self, endpoint: Endpoint<'_>, request: &Request) -> Response {
        match endpoint {
            Endpoint::Submit => submit(request, self),
            Endpoint::Healthz => healthz(self),
            Endpoint::Metrics => Response::json(200, self.metrics_json()),
            Endpoint::Shutdown => shutdown_endpoint(request, self),
            Endpoint::Job { id, result } => job_endpoint(id, result, self),
        }
    }

    fn begin_shutdown(&self, abort: bool) {
        self.door.drain();
        if abort {
            let mut doomed: Vec<u64> =
                self.queue.close_and_drain().into_iter().map(|(id, _)| id).collect();
            // Followers never sit in the queue; drain the in-flight map so
            // they are not stranded waiting for a primary that will report
            // cancellation (or was itself just drained).
            for (_, entry) in self.inflight_lock().drain() {
                doomed.extend(entry.followers);
            }
            for id in doomed {
                if let Some(job) = self.job(id) {
                    let mut state = job.lock();
                    if !state.status.is_terminal() {
                        state.status = JobStatus::Cancelled;
                        state.finished = Some(Instant::now());
                        self.metrics.note_cancelled();
                    }
                }
            }
            for job in self.jobs_lock().values() {
                job.token.cancel();
            }
        } else {
            self.queue.close();
        }
    }

    fn metrics_json(&self) -> String {
        self.metrics.export(self.queue.len(), self.result_cache.stats()).to_json()
    }
}

/// A running job service; see the module docs for the thread layout.
pub struct Server {
    shared: Arc<Shared>,
    front: FrontDoor,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the worker pool and accept loop, and
    /// returns once the listener is live.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
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
            door: Door::default(),
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
        // Closing the queue lets the workers exit if the listener fails.
        let front = FrontDoor::open(listener, "sim", shared.clone())
            .inspect_err(|_| shared.queue.close())?;
        Ok(Server { shared, front, workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Starts shutdown without blocking: refuse new submissions, close
    /// the queue; with `abort`, also cancel queued and running jobs.
    /// Idempotent. Call [`Server::join`] afterwards to wait out the
    /// drain.
    pub fn begin_shutdown(&self, abort: bool) {
        self.shared.begin_shutdown(abort);
    }

    /// `true` once shutdown has been requested (signal handler, the
    /// `/shutdown` endpoint, or [`Server::begin_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.door.draining()
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// A cloneable handle that outlives [`Server::join`]; signal
    /// handlers use it to trigger (and escalate) shutdown, and the
    /// binary uses it to flush final metrics after the drain.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.handle()
    }

    /// Waits for the workers to finish the (possibly drained) backlog
    /// and for every response being written, then stops the accept loop
    /// and open connections. Implies [`Server::begin_shutdown`]`(false)`
    /// if shutdown wasn't already requested.
    pub fn join(self) {
        self.shared.begin_shutdown(false);
        for worker in self.workers {
            let _ = worker.join();
        }
        self.front.close();
    }
}

fn submit(request: &Request, shared: &Shared) -> Response {
    let refusal = || Response::error(503, "server is shutting down");
    let spec = match shared.door.submission(request, refusal) {
        Ok((_, spec)) => spec,
        Err(response) => return response,
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

fn healthz(shared: &Shared) -> Response {
    let status = if shared.door.draining() { "draining" } else { "ok" };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"queue_depth\":{},\"queue_capacity\":{}}}",
            shared.queue.len(),
            shared.queue.capacity()
        ),
    )
}

fn shutdown_endpoint(request: &Request, shared: &Shared) -> Response {
    let abort = std::str::from_utf8(&request.body)
        .ok()
        .filter(|body| !body.trim().is_empty())
        .and_then(|body| json::Value::parse(body).ok())
        .and_then(|v| v.get("abort").and_then(json::Value::as_bool))
        .unwrap_or(false);
    shared.begin_shutdown(abort);
    Response::json(200, format!("{{\"status\":\"shutting down\",\"abort\":{abort}}}"))
}

fn job_endpoint(id_text: &str, want_result: bool, shared: &Shared) -> Response {
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
