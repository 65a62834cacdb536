//! The `serve` and `route` workloads: two closed-loop clients on
//! keep-alive connections opened during set-up, submitting sweeps of
//! jobs to an in-process `sim_server`, or through `sim_router` to two.
//!
//! A sweep is K jobs over one workload source. Three sweeps in four use
//! a new source, so the server generates, converts and simulates it;
//! every fourth repeats the sweep [`REPEAT_DISTANCE`] before it, whose
//! documents the result cache still holds, so the cache answers.
//! Clients poll with `Connection::send` every [`POLL`], far below job
//! time. Each fetched document is checked byte for byte, by digest,
//! against `JobSpec::execute` of the same spec, computed after the
//! measured phase. Traced and untraced phases poll alike; a traced
//! phase reads its per-layer figures after the phase ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use experiments::ArtifactCache;
use sim::{CancelToken, RunOptions, Simulator};
use sim_server::json::Value;
use sim_server::{Connection, JobSpec, Router, RouterConfig, Server, ServerConfig};
use workloads::WorkloadKind;

use crate::components;
use crate::mix;
use crate::phase::{Metrics, Phase};
use crate::stats::{median, Digest};

/// Client poll interval: far below job latency, and rare enough that
/// polling takes little CPU from the worker.
const POLL: Duration = Duration::from_millis(10);
/// Jobs a worker fuses into one pass. Batching stays on, but at the
/// default of 8 the fused pass over 8 cold engines outgrows the host's
/// caches: it ran slower than batches of 2 and spread twice as widely.
const MAX_BATCH: usize = 2;
/// Closed-loop clients, each on one keep-alive connection.
const CLIENTS: usize = 2;
/// Warm-up sweeps run during set-up.
const WARM_SWEEPS: usize = 12;
/// How far back a repeated sweep reaches: finished, since two clients
/// hold at most two sweeps at once, and recent enough that the result
/// cache (256 documents, 16 sweeps of `serve`) still holds it.
const REPEAT_DISTANCE: usize = 7;
/// Source kinds, cycled over sweeps.
const KINDS: [WorkloadKind; 6] = [
    WorkloadKind::Server,
    WorkloadKind::BranchyInt,
    WorkloadKind::Crypto,
    WorkloadKind::Streaming,
    WorkloadKind::PointerChase,
    WorkloadKind::FpKernel,
];
/// Cores of the `serve` sweep.
const CORES: [&str; 2] = ["iiswc", "ipc1"];

/// The configurations of one `serve` sweep, core by prefetcher (none,
/// or one of [`components::SWEEP_PREFETCHERS`]), over one source.
fn lanes() -> Vec<(&'static str, Option<&'static str>)> {
    let prefetchers = std::iter::once(None).chain(components::SWEEP_PREFETCHERS.map(Some));
    let prefetchers: Vec<Option<&str>> = prefetchers.collect();
    CORES.iter().flat_map(|&core| prefetchers.iter().map(move |&pf| (core, pf))).collect()
}

/// Which service shape runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One server, one worker, batching and the result cache on.
    Serve,
    /// A router in front of two servers with one worker each.
    Route,
}

impl Shape {
    /// Instructions per job source.
    fn length(self) -> usize {
        match self {
            Shape::Serve => 24_000,
            Shape::Route => 4_000,
        }
    }
}

/// One planned sweep: the job bodies, and whether it repeats an
/// earlier sweep.
struct Sweep {
    bodies: Vec<String>,
    repeat: bool,
}

/// One job as the client saw it.
struct JobRecord {
    body: String,
    latency_ms: f64,
    /// Digest and length of the fetched document.
    document: Option<(u64, usize)>,
    refused: bool,
    /// Round trips of the `POST /jobs` and of the poll that fetched the
    /// document.
    submit_ms: f64,
    fetch_ms: f64,
    /// The job id the service issued.
    id: Option<String>,
}

struct SweepRecord {
    index: usize,
    repeat: bool,
    jobs: Vec<JobRecord>,
}

/// A running service with its clients.
pub struct Service {
    shape: Shape,
    seed: u64,
    servers: Vec<Server>,
    router: Option<Router>,
    clients: Vec<Connection>,
    /// Sweeps are numbered across phases; warm-up takes the first.
    next_sweep: usize,
}

impl Service {
    /// Starts the service, opens the client connections, and runs the
    /// warm-up sweeps.
    pub fn setup(shape: Shape, seed: u64) -> Result<Service, String> {
        let backends = match shape {
            Shape::Serve => 1,
            Shape::Route => 2,
        };

        let mut servers = Vec::new();
        for _ in 0..backends {
            let config =
                ServerConfig { workers: 1, max_batch: MAX_BATCH, ..ServerConfig::default() };
            servers.push(Server::start(config).map_err(|e| format!("server start: {e}"))?);
        }
        let router = match shape {
            Shape::Serve => None,
            Shape::Route => Some(
                Router::start(RouterConfig {
                    backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("router start: {e}"))?,
            ),
        };
        let addr = match &router {
            Some(router) => router.local_addr().to_string(),
            None => servers[0].local_addr().to_string(),
        };
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            clients.push(Connection::connect(&addr).map_err(|e| e.to_string())?);
        }
        let mut service = Service { shape, seed, servers, router, clients, next_sweep: 0 };
        let Sweeps { records, .. } = service.run_sweeps(Stop::Count(WARM_SWEEPS));
        let failed = records.iter().flat_map(|s| &s.jobs).filter(|j| j.document.is_none()).count();
        if failed > 0 {
            return Err(format!("{failed} warm-up jobs failed"));
        }
        Ok(service)
    }

    /// Stops the router, then the servers, and waits for their threads.
    pub fn shutdown(mut self) {
        self.clients.clear();
        if let Some(router) = self.router.take() {
            router.join();
        }
        for server in self.servers.drain(..) {
            server.join();
        }
    }

    /// Runs sweeps on every client until `stop`.
    fn run_sweeps(&mut self, stop: Stop) -> Sweeps {
        let next = AtomicUsize::new(self.next_sweep);
        let done = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let first = self.next_sweep;
        let records = Mutex::new(Vec::new());
        let start = Instant::now();
        let (shape, seed) = (self.shape, self.seed);
        std::thread::scope(|scope| {
            for conn in self.clients.iter_mut() {
                let (next, done, records, peak) = (&next, &done, &records, &peak);
                scope.spawn(move || {
                    loop {
                        // Each client draws one index past the end,
                        // so the next phase starts at a fixed index.
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let more = match stop {
                            Stop::Count(n) => index < first + n,
                            Stop::After { seconds, min_sweeps, deadline } => {
                                let t = start.elapsed().as_secs_f64();
                                t < deadline
                                    && (t < seconds || done.load(Ordering::SeqCst) < min_sweeps)
                            }
                        };
                        if !more {
                            break;
                        }
                        let sweep = plan(shape, seed, index);
                        let jobs = run_sweep(conn, &sweep.bodies);
                        records.lock().expect("no client panicked").push(SweepRecord {
                            index,
                            repeat: sweep.repeat,
                            jobs,
                        });
                        let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Stop::After { min_sweeps, .. } = stop {
                            if finished == min_sweeps {
                                peak.store(crate::alloc::peak_bytes(), Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        self.next_sweep = next.into_inner();
        let mut records = records.into_inner().expect("no client panicked");
        records.sort_by_key(|r| r.index);
        Sweeps { records, wall, peak_bytes: peak.into_inner() }
    }

    /// Runs sweeps until `seconds` have passed and at least `min_sweeps`
    /// sweeps finished, then checks every fetched document.
    pub fn measure(
        &mut self,
        seconds: f64,
        min_sweeps: usize,
        traced: bool,
    ) -> (Phase, Option<Metrics>) {
        let stop = Stop::After { seconds, min_sweeps, deadline: 3.0 * seconds + 30.0 };
        let Sweeps { records, wall, peak_bytes } = self.run_sweeps(stop);
        let mut phase = Phase {
            wall_s: wall,
            groups: records.len(),
            peak_heap_bytes: (peak_bytes > 0).then_some(peak_bytes),
            ..Phase::default()
        };
        let references = self.references(&records);
        // The digest covers a fixed set of sweeps, whatever the speed.
        let digested = if min_sweeps > 0 { min_sweeps } else { records.len() };
        let mut digest = Digest::default();
        for (n, sweep) in records.iter().enumerate() {
            for job in &sweep.jobs {
                phase.attempted += 1;
                let (reference, instructions) = references[&job.body];
                let ok = job.document == Some(reference);
                if ok {
                    phase.latencies_ms.push(job.latency_ms);
                    if !sweep.repeat {
                        phase.instructions += instructions;
                    }
                    if n < digested {
                        digest.update_u64(reference.0);
                    }
                } else {
                    if job.refused {
                        phase.refused += 1;
                    } else if job.document.is_some() {
                        eprintln!("{:?}: document differs from JobSpec::execute", self.shape);
                    }
                    phase.failed += 1;
                    phase.latencies_ms.push(f64::INFINITY);
                }
            }
        }
        phase.digest = digest.value();
        let layers = traced.then(|| self.layer_metrics(&records));
        (phase, layers)
    }

    /// Digest and length, and instruction count, of `JobSpec::execute`'s
    /// document for every distinct body, sharing one artifact cache per
    /// sweep. The checks run after the measured phase, on [`CLIENTS`]
    /// threads.
    fn references(&self, records: &[SweepRecord]) -> HashMap<String, ((u64, usize), u64)> {
        let mut distinct: Vec<&SweepRecord> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for sweep in records {
            if sweep.jobs.iter().filter(|j| seen.insert(j.body.as_str())).count() > 0 {
                distinct.push(sweep);
            }
        }
        let next = AtomicUsize::new(0);
        let out = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    while let Some(sweep) = distinct.get(next.fetch_add(1, Ordering::SeqCst)) {
                        let cache = ArtifactCache::new();
                        for job in &sweep.jobs {
                            let reference = JobSpec::parse(&job.body)
                                .and_then(|spec| {
                                    spec.execute(&cache, &CancelToken::new())
                                        .map_err(|e| e.to_string())
                                })
                                .map(|doc| {
                                    ((Digest::of(doc.as_bytes()), doc.len()), instructions(&doc))
                                })
                                .unwrap_or_else(|e| {
                                    eprintln!("reference execution failed: {e}");
                                    ((0, 0), 0)
                                });
                            out.lock()
                                .expect("no checker panicked")
                                .insert(job.body.clone(), reference);
                        }
                    }
                });
            }
        });
        out.into_inner().expect("no checker panicked")
    }

    /// Each fetched job's queue wait and run time as its server
    /// reports them (whole milliseconds), read from its job status after
    /// the phase; routed jobs are read from their backend directly.
    fn server_times(&mut self, records: &[SweepRecord]) -> HashMap<String, (f64, f64)> {
        let mut direct: Vec<Option<Connection>> = match self.shape {
            Shape::Serve => Vec::new(),
            Shape::Route => self
                .servers
                .iter()
                .map(|s| Connection::connect(&s.local_addr().to_string()).ok())
                .collect(),
        };
        let mut out = HashMap::new();
        let fetched = records.iter().flat_map(|s| &s.jobs).filter(|j| j.document.is_some());
        for id in fetched.filter_map(|j| j.id.as_deref()) {
            let response = match self.shape {
                Shape::Serve => self.clients[0].send("GET", &format!("/jobs/{id}"), ""),
                Shape::Route => {
                    let Some((shard, raw)) = shard_of(id) else { continue };
                    let Some(Some(conn)) = direct.get_mut(shard) else { continue };
                    conn.send("GET", &format!("/jobs/{raw}"), "")
                }
            };
            let status = response.ok().filter(|r| r.status == 200);
            let Some(v) = status.and_then(|r| Value::parse(&r.text()).ok()) else { continue };
            let field = |key| v.get(key).and_then(Value::as_f64);
            if let (Some(queue), Some(run)) = (field("queue_ms"), field("run_ms")) {
                out.insert(id.to_owned(), (queue, run));
            }
        }
        out
    }

    fn layer_metrics(&mut self, records: &[SweepRecord]) -> Metrics {
        let times = self.server_times(records);
        let mut m = Metrics::default();
        // The share of fetched jobs' latency that the measured layers
        // explain: the client's submit round trip, the server's queue
        // wait and run (which begin inside the submit, so the two
        // overlap; counted from the submit's start, a lower bound), and
        // the fetch round trip. The rest is time between a job finishing
        // and the client's next poll, which no layer spends.
        let (mut explained, mut latency) = (0.0, 0.0);
        for job in records.iter().flat_map(|s| &s.jobs).filter(|j| j.document.is_some()) {
            let (queue, run) =
                job.id.as_ref().and_then(|id| times.get(id)).copied().unwrap_or_default();
            let covered = job.submit_ms.max(queue + run) + job.fetch_ms;
            explained += covered.min(job.latency_ms);
            latency += job.latency_ms;
        }
        m.push("trace.accounted_pct", 100.0 * explained / latency, "%");
        match self.shape {
            Shape::Serve => self.server_metrics(records, &times, &mut m),
            Shape::Route => self.router_metrics(records, &mut m),
        }
        m
    }

    fn server_metrics(
        &mut self,
        records: &[SweepRecord],
        times: &HashMap<String, (f64, f64)>,
        m: &mut Metrics,
    ) {
        let conn = &mut self.clients[0];
        let mut rtts = Vec::new();
        for _ in 0..200 {
            let start = Instant::now();
            if conn.send("GET", "/healthz", "").is_ok() {
                rtts.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        m.push("server.http_rtt_ms", median_or_zero(&rtts), "ms");
        let submits: Vec<f64> = records.iter().flat_map(|s| &s.jobs).map(|j| j.submit_ms).collect();
        m.push("server.submit_ms", median_or_zero(&submits), "ms");
        // Means, since the server reports whole milliseconds.
        let new_jobs = records.iter().filter(|s| !s.repeat).flat_map(|s| &s.jobs);
        let split: Vec<(f64, f64)> =
            new_jobs.filter_map(|j| j.id.as_ref().and_then(|id| times.get(id)).copied()).collect();
        let mean = |values: Vec<f64>| values.iter().sum::<f64>() / values.len().max(1) as f64;
        m.push("server.queue_wait_ms", mean(split.iter().map(|t| t.0).collect()), "ms");
        m.push("server.run_ms", mean(split.iter().map(|t| t.1).collect()), "ms");

        // The same batches, run in-process as the worker runs them: one
        // artifact cache per sweep, so a sweep's first batch generates
        // and converts its source and the rest reuse it.
        let mut executes = Vec::new();
        for sweep in records.iter().filter(|s| !s.repeat).take(20) {
            let specs: Vec<JobSpec> =
                sweep.jobs.iter().filter_map(|j| JobSpec::parse(&j.body).ok()).collect();
            let token = CancelToken::new();
            let cache = ArtifactCache::new();
            for chunk in specs.chunks(MAX_BATCH) {
                let batch: Vec<(&JobSpec, &CancelToken)> =
                    chunk.iter().map(|s| (s, &token)).collect();
                let start = Instant::now();
                std::hint::black_box(JobSpec::execute_batch(&batch, &cache));
                executes.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        m.push("server.execute_ms", median_or_zero(&executes), "ms");

        let metrics = conn
            .send("GET", "/metrics", "")
            .ok()
            .and_then(|r| Value::parse(&r.text()).ok())
            .unwrap_or(Value::Null);
        let batch_mean = metric(&metrics, "server.batch.size")
            .and_then(|v| v.get("mean"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        m.push("server.batch.mean_size", batch_mean, "jobs");
        let counter = |name| metric(&metrics, name).and_then(Value::as_f64).unwrap_or(0.0);
        let (hits, misses) =
            (counter("server.result_cache.hits"), counter("server.result_cache.misses"));
        m.push("server.result_cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        m.push("server.jobs.coalesced", counter("server.jobs.coalesced"), "count");

        // One sweep source, simulated fused across the sweep's lanes,
        // and its fetch stream through each sweep prefetcher.
        if let Some(spec) = records
            .iter()
            .find(|s| !s.repeat)
            .and_then(|s| s.jobs.first())
            .and_then(|j| JobSpec::parse(&j.body).ok())
        {
            if let sim_server::JobSource::Workload(trace) = &spec.source {
                let cache = ArtifactCache::new();
                let converted = cache.converted_shared(trace, trace.length(), spec.improvements);
                // The server's batches over this source.
                let lanes = lanes();
                let cores: Vec<sim::CoreConfig> = lanes
                    .iter()
                    .map(|(core, _)| match *core {
                        "ipc1" => sim::CoreConfig::ipc1(),
                        _ => sim::CoreConfig::iiswc_main(),
                    })
                    .collect();
                let mut rates = Vec::new();
                for _ in 0..3 {
                    let start = Instant::now();
                    for batch in cores.iter().zip(&lanes).collect::<Vec<_>>().chunks(MAX_BATCH) {
                        let batch = batch.iter().map(|(core, (_, pf))| {
                            let mut options = RunOptions::default();
                            if let Some(pf) = pf.and_then(iprefetch::by_name) {
                                options = options.with_prefetcher(pf);
                            }
                            (*core, options)
                        });
                        std::hint::black_box(Simulator::run_fused(
                            batch,
                            converted.records.iter().copied(),
                        ));
                    }
                    let seconds = start.elapsed().as_secs_f64();
                    rates.push(converted.records.len() as f64 / seconds / 1e6);
                }
                m.push("sim.fused_mips_per_lane", median(&rates), "MIPS");
                m.extend(components::measure_prefetchers(&converted.records));
            }
        }
    }

    fn router_metrics(&mut self, records: &[SweepRecord], m: &mut Metrics) {
        // The same finished job read through the router and straight
        // from its backend, both on keep-alive connections.
        let mut hop = 0.0;
        if let Some(id) = records.iter().rev().flat_map(|s| &s.jobs).find_map(|j| j.id.clone()) {
            if let Some((shard, raw)) = shard_of(&id) {
                let backend = self.servers.get(shard);
                if let Some(Ok(mut direct)) =
                    backend.map(|b| Connection::connect(&b.local_addr().to_string()))
                {
                    let routed = time_gets(&mut self.clients[0], &format!("/jobs/{id}"), 15);
                    let straight = time_gets(&mut direct, &format!("/jobs/{raw}"), 15);
                    hop = routed - straight;
                }
            }
        }
        m.push("router.hop_ms", hop, "ms");
        let metrics = self
            .router
            .as_ref()
            .and_then(|r| Value::parse(&r.metrics_json()).ok())
            .unwrap_or(Value::Null);
        let counter = |name| metric(&metrics, name).and_then(Value::as_f64).unwrap_or(0.0);
        m.push("router.jobs.retried", counter("router.jobs.retried"), "count");
        m.push("router.jobs.rejected", counter("router.jobs.rejected"), "count");
    }
}

/// What [`Service::run_sweeps`] saw.
struct Sweeps {
    /// Every sweep, in index order.
    records: Vec<SweepRecord>,
    wall: f64,
    /// Peak live heap when the `min_sweeps`-th sweep finished: the
    /// server keeps every source's artifacts, so live heap grows with
    /// the work served, and a fixed amount of work makes the peak
    /// independent of speed.
    peak_bytes: usize,
}

#[derive(Clone, Copy)]
enum Stop {
    /// Run exactly this many sweeps.
    Count(usize),
    /// Run until `seconds` and `min_sweeps` are both reached, or the
    /// deadline passes.
    After { seconds: f64, min_sweeps: usize, deadline: f64 },
}

/// Sweep `index` of a run seeded with `seed`.
fn plan(shape: Shape, seed: u64, index: usize) -> Sweep {
    if index >= WARM_SWEEPS && index % 4 == 3 {
        return Sweep { repeat: true, ..plan(shape, seed, index - REPEAT_DISTANCE) };
    }
    let kind = KINDS[index % KINDS.len()];
    // Job specs carry seeds as JSON numbers, exact below 2^53.
    let source = format!(
        "{{\"kind\":\"{kind}\",\"seed\":{},\"length\":{}}}",
        mix(seed, index as u64) >> 11,
        shape.length()
    );
    let lanes = match shape {
        Shape::Serve => lanes(),
        Shape::Route => vec![lanes()[index % 8]],
    };
    let bodies = lanes
        .into_iter()
        .map(|(core, prefetcher)| {
            let prefetcher =
                prefetcher.map_or(String::new(), |p| format!(",\"prefetcher\":\"{p}\""));
            format!(
                "{{\"workload\":{source},\"improvements\":\"All_imps\",\"core\":\"{core}\"{prefetcher}}}"
            )
        })
        .collect();
    Sweep { bodies, repeat: false }
}

/// Submits every job of a sweep, then polls until each has a result or
/// has failed.
fn run_sweep(conn: &mut Connection, bodies: &[String]) -> Vec<JobRecord> {
    let mut jobs: Vec<JobRecord> = Vec::with_capacity(bodies.len());
    let mut submitted = Vec::with_capacity(bodies.len());
    for body in bodies {
        let start = Instant::now();
        let response = conn.send("POST", "/jobs", body);
        let mut job = JobRecord {
            body: body.clone(),
            latency_ms: f64::INFINITY,
            document: None,
            refused: false,
            submit_ms: start.elapsed().as_secs_f64() * 1e3,
            fetch_ms: 0.0,
            id: None,
        };
        match response {
            Ok(r) if r.status == 202 => job.id = job_id(&r.text()),
            Ok(r) if r.status == 429 || r.status == 503 => job.refused = true,
            Ok(r) => eprintln!("submit: HTTP {} {}", r.status, r.text()),
            Err(e) => eprintln!("submit: {e}"),
        }
        jobs.push(job);
        submitted.push(start);
    }
    // Poll in submission order, one request per wait while the head
    // job is unfinished: jobs finish in that order, batch by batch, and
    // polling every pending job would compete with the worker for CPU.
    for (job, submitted) in jobs.iter_mut().zip(submitted) {
        let Some(id) = job.id.clone() else { continue };
        loop {
            let start = Instant::now();
            match poll(conn, &id) {
                Poll::Done(document) => {
                    let now = Instant::now();
                    job.latency_ms = now.duration_since(submitted).as_secs_f64() * 1e3;
                    job.fetch_ms = now.duration_since(start).as_secs_f64() * 1e3;
                    job.document = Some((Digest::of(document.as_bytes()), document.len()));
                    break;
                }
                Poll::Pending => {}
                Poll::Failed(why) => {
                    eprintln!("job {id}: {why}");
                    break;
                }
            }
            std::thread::sleep(POLL);
        }
    }
    jobs
}

enum Poll {
    Pending,
    Done(String),
    Failed(String),
}

/// One poll: asks for the result, which a `409` says is not ready yet.
fn poll(conn: &mut Connection, id: &str) -> Poll {
    match conn.send("GET", &format!("/jobs/{id}/result"), "") {
        Ok(r) if r.status == 200 => Poll::Done(r.text()),
        Ok(r) if r.status == 409 => {
            let status = Value::parse(&r.text())
                .ok()
                .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_owned));
            match status.as_deref() {
                Some("queued" | "running") => Poll::Pending,
                other => Poll::Failed(format!("result HTTP 409 ({other:?})")),
            }
        }
        Ok(r) => Poll::Failed(format!("result HTTP {}", r.status)),
        Err(e) => Poll::Failed(e.to_string()),
    }
}

/// The shard and backend job id of a routed job id (`s0-17`).
fn shard_of(id: &str) -> Option<(usize, &str)> {
    let (shard, raw) = id.strip_prefix('s')?.split_once('-')?;
    Some((shard.parse().ok()?, raw))
}

/// The job id of a `202` body: a number from a server, a string from a
/// router.
fn job_id(body: &str) -> Option<String> {
    let v = Value::parse(body).ok()?;
    let id = v.get("id")?;
    id.as_str().map(str::to_owned).or_else(|| id.as_u64().map(|n| n.to_string()))
}

/// The `value` of metric `name` in a registry document.
fn metric<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    match doc.get("metrics")? {
        Value::Array(items) => items
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("value")),
        _ => None,
    }
}

/// Simulated instructions recorded in a result document.
fn instructions(document: &str) -> u64 {
    Value::parse(document)
        .ok()
        .and_then(|doc| metric(&doc, "sim.instructions").and_then(Value::as_u64))
        .unwrap_or(0)
}

/// Median milliseconds of `n` keep-alive GETs of `path`.
fn time_gets(conn: &mut Connection, path: &str, n: usize) -> f64 {
    let mut times = Vec::new();
    for _ in 0..n {
        let start = Instant::now();
        if conn.send("GET", path, "").is_ok() {
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    median_or_zero(&times)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}
