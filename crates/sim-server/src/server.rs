//! The job service itself: routing, worker pool, execution table, and
//! shutdown choreography. Accepting, connection handling, endpoint
//! parsing and the drain wait are the front door in [`crate::http`],
//! shared with the router.
//!
//! ```text
//!                  Service::route
//!   front door ──▶ POST /jobs ──▶ execution table (canonical key)
//!   (http.rs,         │            ├─ done: job born done (LRU hit)
//!    shared)          │            ├─ queued/running: attach, extend deadline
//!                     │            └─ none: new execution ──▶ BoundedQueue
//!                     │                  full: 429 + Retry-After   (depth N)
//!                     │                                               │
//!                     │                       worker pool: pop an execution,
//!                     │                       drain_matching claims co-queued
//!                     │                       ones with the same source key
//!                     │                                               ▼
//!      GET /jobs/<id>[/result], /healthz, /metrics      JobSpec::execute_batch
//!                     │                                 (one fused pass, N reports;
//!                     │                                  one token per execution)
//!                     │                                               │
//!                     └──▶ job table: id → execution ◀──── settle: store the outcome
//!                          + own submission, deadline      once, decide each job,
//!                                                          keep done ones (LRU)
//! ```
//!
//! The table holds one execution per
//! [`canonical job-spec key`](JobSpec::canonical_key): queued and
//! running ones, plus up to `result_cache_entries` done ones kept under
//! a least-recently-used rule. A submission whose key finds a done
//! execution is born `done` (a result-cache hit); one that finds a
//! queued or running execution attaches to it (coalesced); otherwise a
//! new execution goes onto the queue. Job ids map to an execution plus
//! the job's own submission time and deadline, so every job waiting on
//! one execution reads the one stored document. When an execution
//! settles, the settle rule decides each attached job: a job whose
//! deadline passed first is `cancelled`, every other job takes the
//! execution's outcome. Failed and cancelled executions leave the table,
//! so resubmitting their spec runs it again. A worker that pops an
//! execution scans the queue for co-queued executions with the same
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
}

/// One run of a canonical spec, shared by every job that asked for it.
struct Execution {
    spec: JobSpec,
    /// Table key; see [`JobSpec::canonical_key`].
    canonical_key: String,
    /// Stream-grouping key; see [`JobSpec::source_key`].
    source_key: String,
    /// Trips at the latest deadline among the attached jobs.
    token: CancelToken,
    state: Mutex<ExecutionState>,
}

struct ExecutionState {
    started: Option<Instant>,
    finished: Option<Instant>,
    /// `None` while queued or running; the document is stored here once.
    outcome: Option<Result<String, JobError>>,
    /// Jobs waiting for the outcome; settling decides and clears them.
    attached: Vec<JobClock>,
}

impl Execution {
    fn new(spec: JobSpec, canonical_key: String, clock: JobClock) -> Execution {
        Execution {
            source_key: spec.source_key(),
            spec,
            canonical_key,
            token: CancelToken::with_deadline(clock.deadline),
            state: Mutex::new(ExecutionState {
                started: None,
                finished: None,
                outcome: None,
                attached: vec![clock],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecutionState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attaches a job to this queued or running execution, moving the
    /// execution's deadline out to the job's. `false` once the token
    /// has tripped: the job needs a fresh execution.
    fn attach(&self, clock: JobClock) -> bool {
        let live = self.token.extend_deadline(clock.deadline);
        if live {
            self.lock().attached.push(clock);
        }
        live
    }
}

impl ExecutionState {
    fn status(&self) -> JobStatus {
        match (&self.outcome, self.started) {
            (None, None) => JobStatus::Queued,
            (None, Some(_)) => JobStatus::Running,
            (Some(Ok(_)), _) => JobStatus::Done,
            (Some(Err(JobError::Failed(_))), _) => JobStatus::Failed,
            (Some(Err(JobError::Cancelled)), _) => JobStatus::Cancelled,
        }
    }
}

/// One job's own submission time and deadline.
#[derive(Clone, Copy)]
struct JobClock {
    submitted: Instant,
    deadline: Instant,
}

impl JobClock {
    /// This job's status: the execution's, decided by [`settle_rule`]
    /// once the execution has settled.
    fn status(self, execution: &ExecutionState) -> JobStatus {
        let status = execution.status();
        match execution.finished {
            Some(finished) => settle_rule(status, finished, self.deadline),
            None => status,
        }
    }

    /// Queue wait and (once settled) run time, both measured from this
    /// job's own submission: an execution that started earlier counts
    /// as starting then, so the queue wait saturates at zero. `None`
    /// until the execution starts.
    fn timings(self, execution: &ExecutionState) -> Option<(Duration, Option<Duration>)> {
        let start = execution.started?.max(self.submitted);
        let ran = execution.finished.map(|finished| finished.saturating_duration_since(start));
        Some((start - self.submitted, ran))
    }
}

/// The settle rule: a job whose deadline passed before its execution
/// settled at `finished` is cancelled; every other job takes the
/// execution's `outcome`. A job is `done` only if its result arrived
/// before its deadline.
fn settle_rule(outcome: JobStatus, finished: Instant, deadline: Instant) -> JobStatus {
    if deadline < finished {
        JobStatus::Cancelled
    } else {
        outcome
    }
}

/// A job id's entry in the job table.
#[derive(Clone)]
struct Job {
    execution: Arc<Execution>,
    clock: JobClock,
}

struct Slot {
    execution: Arc<Execution>,
    /// Recency stamp once done; `None` while queued or running.
    used: Option<u64>,
}

/// Canonical key → the one execution of that spec; see the module docs.
struct ExecutionTable {
    /// Most done executions kept (`0` disables memoization).
    capacity: usize,
    slots: HashMap<String, Slot>,
    /// Done slots, at most `capacity`.
    memoized: usize,
    /// Monotonic use counter backing the recency stamps.
    clock: u64,
}

impl ExecutionTable {
    fn new(capacity: usize) -> ExecutionTable {
        ExecutionTable { capacity, slots: HashMap::new(), memoized: 0, clock: 0 }
    }

    /// The execution filed under `key` and whether it is done; a done
    /// one counts as used.
    fn lookup(&mut self, key: &str) -> Option<(Arc<Execution>, bool)> {
        let slot = self.slots.get_mut(key)?;
        if slot.used.is_some() {
            self.clock += 1;
            slot.used = Some(self.clock);
        }
        Some((Arc::clone(&slot.execution), slot.used.is_some()))
    }

    /// Files a settled execution: a done one stays as a memoized result,
    /// evicting the least recently used done one beyond `capacity`;
    /// anything else leaves. An execution no longer in its slot (a fresh
    /// one replaced it) changes nothing. Returns the evictions.
    fn settle(&mut self, execution: &Arc<Execution>, done: bool) -> u64 {
        let key = &execution.canonical_key;
        let Some(slot) =
            self.slots.get_mut(key).filter(|slot| Arc::ptr_eq(&slot.execution, execution))
        else {
            return 0;
        };
        if !done || self.capacity == 0 {
            self.slots.remove(key);
            return 0;
        }
        self.clock += 1;
        slot.used = Some(self.clock);
        self.memoized += 1;
        let mut evicted = 0;
        while self.memoized > self.capacity {
            let Some(oldest) = self
                .slots
                .iter()
                .filter_map(|(key, slot)| Some((slot.used?, key)))
                .min()
                .map(|(_, key)| key.clone())
            else {
                break;
            };
            self.slots.remove(&oldest);
            self.memoized -= 1;
            evicted += 1;
        }
        evicted
    }
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<Arc<Execution>>,
    jobs: Mutex<HashMap<u64, Job>>,
    table: Mutex<ExecutionTable>,
    next_id: AtomicU64,
    metrics: ServerMetrics,
    cache: ArtifactCache,
    door: Door,
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        Shared {
            queue: BoundedQueue::new(config.queue_depth),
            table: Mutex::new(ExecutionTable::new(config.result_cache_entries)),
            config,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: ServerMetrics::default(),
            cache: ArtifactCache::new(),
            door: Door::default(),
        }
    }

    fn job(&self, id: u64) -> Option<Job> {
        self.jobs_lock().get(&id).cloned()
    }

    fn jobs_lock(&self) -> MutexGuard<'_, HashMap<u64, Job>> {
        self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn table(&self) -> MutexGuard<'_, ExecutionTable> {
        self.table.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Files job `id`: onto the done execution of its spec (born
    /// `Done`), onto a queued or running one (attached), or onto a new
    /// one pushed while the table lock is held, so nothing can attach
    /// to an execution the queue refused. `None` when it refused.
    fn admit(&self, id: u64, spec: JobSpec) -> Option<JobStatus> {
        let key = spec.canonical_key();
        let mut table = self.table();
        let submitted = Instant::now();
        let clock = JobClock { submitted, deadline: submitted + self.config.job_timeout };
        let (execution, status) = match table.lookup(&key) {
            Some((execution, true)) => {
                self.metrics.note_cache_hit();
                self.metrics.note_completed(Duration::ZERO, Duration::ZERO);
                (execution, JobStatus::Done)
            }
            Some((execution, false)) if execution.attach(clock) => {
                self.metrics.note_cache_miss();
                self.metrics.note_coalesced();
                (execution, JobStatus::Queued)
            }
            _ => {
                self.metrics.note_cache_miss();
                let execution = Arc::new(Execution::new(spec, key.clone(), clock));
                if self.queue.try_push(Arc::clone(&execution)).is_err() {
                    self.metrics.note_rejected();
                    return None;
                }
                table.slots.insert(key, Slot { execution: Arc::clone(&execution), used: None });
                (execution, JobStatus::Queued)
            }
        };
        drop(table);
        self.metrics.note_accepted();
        self.jobs_lock().insert(id, Job { execution, clock });
        Some(status)
    }

    /// Stores `outcome` on `execution`, decides every attached job by
    /// the settle rule, and files the execution in the table.
    fn settle(
        &self,
        execution: &Arc<Execution>,
        outcome: Result<String, JobError>,
        finished: Instant,
    ) {
        let done = outcome.is_ok();
        let mut table = self.table();
        {
            let mut state = execution.lock();
            state.finished = Some(finished);
            state.outcome = Some(outcome);
            for clock in std::mem::take(&mut state.attached) {
                match (clock.status(&state), clock.timings(&state)) {
                    (JobStatus::Done, Some((queued, Some(ran)))) => {
                        self.metrics.note_completed(queued, ran)
                    }
                    (JobStatus::Failed, Some((queued, Some(ran)))) => {
                        self.metrics.note_failed(queued, ran)
                    }
                    _ => self.metrics.note_cancelled(),
                }
            }
        }
        let evicted = table.settle(execution, done);
        self.metrics.note_evicted(evicted);
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
            let now = Instant::now();
            for execution in self.queue.close_and_drain() {
                self.settle(&execution, Err(JobError::Cancelled), now);
            }
            for slot in self.table().slots.values().filter(|slot| slot.used.is_none()) {
                slot.execution.token.cancel();
            }
        } else {
            self.queue.close();
        }
    }

    fn metrics_json(&self) -> String {
        self.metrics.export(self.queue.len(), &self.cache).to_json()
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
        let shared = Arc::new(Shared::new(config));
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
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    match shared.admit(id, spec) {
        Some(status) => Response::json(
            202,
            json::object(|o| {
                o.u64("id", id).str("status", status.as_str());
            }),
        ),
        None => Response::error(429, "queue full").with_header("retry-after", "1"),
    }
}

fn healthz(shared: &Shared) -> Response {
    let status = if shared.door.draining() { "draining" } else { "ok" };
    Response::json(
        200,
        json::object(|o| {
            o.str("status", status)
                .u64("queue_depth", shared.queue.len() as u64)
                .u64("queue_capacity", shared.queue.capacity() as u64);
        }),
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
    Response::json(
        200,
        json::object(|o| {
            o.str("status", "shutting down").bool("abort", abort);
        }),
    )
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
    let state = job.execution.lock();
    let status = job.clock.status(&state);
    let error = match (status, &state.outcome) {
        (JobStatus::Done, Some(Ok(document))) => return Response::json(200, document.clone()),
        (JobStatus::Failed, Some(Err(JobError::Failed(message)))) => message.as_str(),
        (JobStatus::Cancelled, _) => "job was cancelled",
        _ => "job not finished",
    };
    Response::json(
        409,
        json::object(|o| {
            o.u64("id", id).str("status", status.as_str()).str("error", error);
        }),
    )
}

fn job_status_json(id: u64, job: &Job) -> String {
    let state = job.execution.lock();
    let status = job.clock.status(&state);
    json::object(|o| {
        o.u64("id", id).str("status", status.as_str());
        if let Some((queued, ran)) = job.clock.timings(&state) {
            o.u64("queue_ms", queued.as_millis() as u64);
            if let Some(ran) = ran {
                o.u64("run_ms", ran.as_millis() as u64);
            }
        }
        if let (JobStatus::Failed, Some(Err(JobError::Failed(message)))) = (status, &state.outcome)
        {
            o.str("error", message);
        }
    })
}

fn worker_loop(shared: &Shared) {
    while let Some(first) = shared.queue.pop() {
        // Batch planner: claim co-queued executions that decode the
        // same record stream, so one pass feeds every config.
        let limit = shared.config.max_batch.saturating_sub(1);
        let claimed =
            shared.queue.drain_matching(|other| other.source_key == first.source_key, limit);
        run_batch(std::iter::once(first).chain(claimed).collect(), shared);
    }
}

fn run_batch(executions: Vec<Arc<Execution>>, shared: &Shared) {
    let started = Instant::now();
    // Admit each claimed execution into the pass; one whose token has
    // already tripped settles as cancelled without running.
    let mut live = Vec::with_capacity(executions.len());
    for execution in executions {
        if execution.token.is_cancelled() {
            shared.settle(&execution, Err(JobError::Cancelled), started);
        } else {
            execution.lock().started = Some(started);
            live.push(execution);
        }
    }
    if live.is_empty() {
        return;
    }
    shared.metrics.note_batch(live.len());
    let batch: Vec<(&JobSpec, &CancelToken)> =
        live.iter().map(|execution| (&execution.spec, &execution.token)).collect();
    let outcomes = JobSpec::execute_batch(&batch, &shared.cache);
    let finished = Instant::now();
    for (execution, outcome) in live.iter().zip(outcomes) {
        shared.settle(execution, outcome, finished);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(result_cache_entries: usize) -> Shared {
        Shared::new(ServerConfig { result_cache_entries, ..ServerConfig::default() })
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::parse(&format!(r#"{{"workload": {{"kind": "crypto", "seed": {seed}}}}}"#)).unwrap()
    }

    /// Submits the spec for `seed` under `id`, as `POST /jobs` does.
    fn submit_seed(shared: &Shared, id: u64, seed: u64) -> JobStatus {
        shared.admit(id, spec(seed)).expect("the queue has room")
    }

    /// Runs the next queued execution to `document`, as a worker does.
    fn finish_next(shared: &Shared, document: &str) {
        let execution = shared.queue.pop().expect("a queued execution");
        execution.lock().started = Some(Instant::now());
        shared.settle(&execution, Ok(document.to_owned()), Instant::now());
    }

    fn counter(shared: &Shared, name: &str) -> u64 {
        shared.metrics.export(shared.queue.len(), &shared.cache).counter_value(name)
    }

    fn document(shared: &Shared, id: u64) -> Option<String> {
        match &shared.job(id)?.execution.lock().outcome {
            Some(Ok(document)) => Some(document.clone()),
            _ => None,
        }
    }

    #[test]
    fn settle_rule_cancels_jobs_whose_deadline_passed_first() {
        let finished = Instant::now();
        let before = finished - Duration::from_millis(5);
        let after = finished + Duration::from_millis(5);
        for outcome in [JobStatus::Done, JobStatus::Failed, JobStatus::Cancelled] {
            assert_eq!(settle_rule(outcome, finished, before), JobStatus::Cancelled);
            assert_eq!(settle_rule(outcome, finished, after), outcome);
            assert_eq!(settle_rule(outcome, finished, finished), outcome, "not yet passed");
        }
    }

    #[test]
    fn settle_decides_each_attached_job_by_its_own_deadline() {
        let shared = shared(4);
        let execution = Arc::new(Execution::new(spec(1), spec(1).canonical_key(), {
            let submitted = Instant::now() - Duration::from_secs(2);
            JobClock { submitted, deadline: submitted + Duration::from_secs(1) }
        }));
        let submitted = Instant::now();
        let late = JobClock { submitted, deadline: submitted + Duration::from_secs(60) };
        assert!(execution.attach(late));
        execution.lock().started = Some(submitted);
        shared.settle(&execution, Ok("doc".to_owned()), Instant::now());
        let state = execution.lock();
        assert_eq!(late.status(&state), JobStatus::Done);
        assert_eq!(counter(&shared, "server.jobs.completed"), 1);
        assert_eq!(counter(&shared, "server.jobs.cancelled"), 1, "the first deadline passed");
    }

    #[test]
    fn hit_returns_the_stored_document() {
        let shared = shared(4);
        assert_eq!(submit_seed(&shared, 1, 1), JobStatus::Queued);
        finish_next(&shared, "doc-a");
        assert_eq!(submit_seed(&shared, 2, 1), JobStatus::Done, "born done");
        assert_eq!(document(&shared, 2).as_deref(), Some("doc-a"));
        assert!(Arc::ptr_eq(&shared.job(1).unwrap().execution, &shared.job(2).unwrap().execution));
        assert_eq!(counter(&shared, "server.result_cache.hits"), 1);
        assert_eq!(counter(&shared, "server.result_cache.misses"), 1);
        assert_eq!(counter(&shared, "server.result_cache.evictions"), 0);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let shared = shared(2);
        submit_seed(&shared, 1, 1);
        finish_next(&shared, "1");
        submit_seed(&shared, 2, 2);
        finish_next(&shared, "2");
        assert_eq!(submit_seed(&shared, 3, 1), JobStatus::Done, "refresh 1 so 2 is the LRU");
        submit_seed(&shared, 4, 3);
        finish_next(&shared, "3");
        assert_eq!(counter(&shared, "server.result_cache.evictions"), 1);
        assert_eq!(submit_seed(&shared, 5, 2), JobStatus::Queued, "2 was evicted");
        assert_eq!(submit_seed(&shared, 6, 1), JobStatus::Done);
        assert_eq!(submit_seed(&shared, 7, 3), JobStatus::Done);
        assert_eq!(shared.table().memoized, 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let shared = shared(0);
        submit_seed(&shared, 1, 1);
        finish_next(&shared, "doc");
        assert!(shared.table().slots.is_empty());
        assert_eq!(submit_seed(&shared, 2, 1), JobStatus::Queued, "runs again");
        assert_eq!(counter(&shared, "server.result_cache.hits"), 0);
        assert_eq!(counter(&shared, "server.result_cache.misses"), 2);
    }

    #[test]
    fn artifacts_stay_within_budget_across_distinct_sources() {
        const LENGTH: u64 = 40_000;
        // The largest single artifact: one source's generated trace.
        let entry = LENGTH * std::mem::size_of::<cvp_trace::CvpInstruction>() as u64;
        let shared = shared(0);
        let serve = |id: u64, seed: u64| {
            let body = format!(
                r#"{{"workload": {{"kind": "crypto", "seed": {seed}, "length": {LENGTH}}}}}"#
            );
            shared.admit(id, JobSpec::parse(&body).unwrap()).expect("the queue has room");
            run_batch(vec![shared.queue.pop().expect("a queued execution")], &shared);
            document(&shared, id).expect("the job finished")
        };
        let first = serve(1, 0);
        for seed in 1..8 {
            serve(seed + 1, seed);
            let resident = shared.cache.resident_bytes();
            let budget = shared.cache.budget_bytes();
            assert!(resident <= budget + entry, "{resident} bytes resident over {budget}");
        }
        assert!(counter(&shared, "server.artifacts.evictions") > 0, "the sources overran");
        assert_eq!(serve(9, 0), first, "re-served byte for byte after its eviction");
        assert_eq!(shared.cache.counters().trace_misses, 9, "the first source regenerated");
    }

    #[test]
    fn duplicates_attach_until_the_token_trips() {
        let shared = shared(4);
        submit_seed(&shared, 1, 1);
        assert_eq!(submit_seed(&shared, 2, 1), JobStatus::Queued);
        assert_eq!(counter(&shared, "server.jobs.coalesced"), 1);
        assert_eq!(shared.queue.len(), 1, "the queue counts executions");
        shared.job(1).unwrap().execution.token.cancel();
        submit_seed(&shared, 3, 1);
        assert_eq!(counter(&shared, "server.jobs.coalesced"), 1, "a tripped token takes no jobs");
        assert_eq!(shared.queue.len(), 2, "a fresh execution");
    }
}
