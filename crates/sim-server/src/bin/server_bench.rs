//! Load generator for the job service: throughput, latency tails,
//! backpressure, fused fan-out batching, and duplicate coalescing.
//!
//! ```text
//! server_bench [--scale smoke|test|paper] [--shards N] [--out <path>]
//!              [--check <baseline.json>] [--tolerance <pct>]
//! ```
//!
//! Phase 1 (throughput): starts an in-process server, then a closed
//! loop of client connections each submitting, polling, and fetching
//! workload jobs over a per-client source (the artifact cache makes
//! this a pure simulate-throughput measurement after the warm-up; job
//! `n` of a client warms up `n` records, so every job is a distinct
//! spec and actually simulates). Reports jobs/s and p50/p99 end-to-end
//! latency.
//!
//! Phase 2 (overload): a depth-1, single-worker server is flooded with
//! distinct submissions; the measured `429` rejection rate demonstrates
//! the bounded queue, and the timed graceful shutdown demonstrates the
//! drain.
//!
//! Phase 3 (fan-out): N configs of one `.champsimz` trace, submitted
//! one-at-a-time to an unbatched server and co-submitted to a batching
//! server whose worker fuses them into one streaming pass. The
//! per-config documents must match byte-for-byte between the two
//! servers, and the batched submission must be at least 2× faster.
//!
//! Phase 4 (duplicate storm): identical specs submitted while the
//! first is still running coalesce onto one execution, and a
//! resubmission after completion is answered from the result cache —
//! both verified through `/metrics` counters and document equality.
//!
//! Phase 5 (sharding, `--shards N`, default 2): one fixed burst of
//! distinct jobs per record stream (distinct in every trial), N streams each homed (by
//! consistent-hash ring prediction) on a distinct shard, runs through a
//! `sim_router` in front of one single-worker `sim_server` and in front
//! of N. Reports each fleet's jobs/s over the bursts' makespan, and
//! shard parallelism: how many jobs the N shards ran at once, from the
//! backends' own run times, over the one shard's. Hard-fails below 1.7x
//! at 2 shards.
//!
//! Results land in `BENCH_server.json` (`--out` to redirect).
//! `--check <baseline>` gates the run against a committed
//! `BENCH_server.json` with [`experiments::bench::gate`] — the CI
//! perf-smoke gate. `jobs_per_sec`, `fanout_jobs_per_sec` and
//! `router_jobs_per_sec` must reach the baseline value less
//! `--tolerance` percent (default 30); a regression, or a gated field
//! the baseline lacks, fails the run (exit 1) and names the field.
//! Latency tails are reported but not gated; they are too
//! host-sensitive for CI. Every hard check above (no 429s, fan-out
//! under 2x, nothing coalesced or cached, shard parallelism under
//! 1.7x, documents that differ, a result-cache hit in a phase that
//! times simulation) also exits 1; usage errors and a server that
//! cannot be started or reached exit 2.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use experiments::bench::{Cli, Exit, SERVER_BENCH};
use sim_server::json::{self, Value};
use sim_server::ring::DEFAULT_VNODES;
use sim_server::{Connection, HashRing, JobSpec, Router, RouterConfig, Server, ServerConfig};
use trace_store::{ChampsimzWriter, StoreError};
use workloads::{TraceSpec, WorkloadKind};

const CLI: &Cli = &SERVER_BENCH.cli;

/// Every server's job timeout, and every client's wait for one job.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Bursts per fleet in the sharding phase.
const ROUTER_TRIALS: usize = 3;

struct Scale {
    name: &'static str,
    /// Workload length per job.
    length: u64,
    /// Closed-loop client connections.
    clients: usize,
    /// Jobs per client.
    jobs_per_client: usize,
    /// Worker threads for the throughput phase.
    workers: usize,
    /// Submissions fired at the depth-1 overload server.
    overload_jobs: usize,
    /// Configs fused over one trace in the fan-out phase.
    fanout_configs: usize,
    /// Identical submissions in the duplicate-storm phase.
    dup_jobs: usize,
    /// Workload length per job in the sharding phase: long enough that
    /// a job's whole-millisecond run time is exact to a few percent.
    router_length: u64,
    /// Distinct jobs each record stream submits at once in the sharding
    /// phase.
    router_burst: usize,
}

const SCALES: [Scale; 3] = [
    Scale {
        name: "smoke",
        length: 2_000,
        clients: 2,
        jobs_per_client: 4,
        workers: 2,
        overload_jobs: 8,
        fanout_configs: 8,
        dup_jobs: 4,
        router_length: 200_000,
        router_burst: 16,
    },
    Scale {
        name: "test",
        length: 5_000,
        clients: 3,
        jobs_per_client: 8,
        workers: 2,
        overload_jobs: 12,
        fanout_configs: 8,
        dup_jobs: 6,
        router_length: 200_000,
        router_burst: 24,
    },
    Scale {
        name: "paper",
        length: 20_000,
        clients: 4,
        jobs_per_client: 16,
        workers: 4,
        overload_jobs: 16,
        fanout_configs: 8,
        dup_jobs: 8,
        router_length: 400_000,
        router_burst: 32,
    },
];

struct Results {
    total_jobs: usize,
    jobs_per_sec: f64,
    p50: f64,
    p99: f64,
    rejected: usize,
    rejection_rate: f64,
    drain_ms: f64,
    fanout_sequential_jobs_per_sec: f64,
    fanout_jobs_per_sec: f64,
    fanout_speedup: f64,
    fanout_stream_passes: u64,
    dup_jobs_per_sec: f64,
    dup_coalesced: u64,
    dup_cache_hits: u64,
    router_shards: usize,
    router_solo_jobs_per_sec: f64,
    router_jobs_per_sec: f64,
    router_parallelism: f64,
}

fn main() {
    let mut shards = 2usize;
    let args = SERVER_BENCH.args(|flag, rest| {
        if flag != "--shards" {
            return Ok(false);
        }
        shards = rest
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|n: &usize| (1..=16).contains(n))
            .ok_or("--shards needs a count in 1..=16")?;
        Ok(true)
    });
    let scale = SCALES
        .iter()
        .find(|s| s.name == args.scale_name)
        .expect("the parser accepts only smoke|test|paper, the names of SCALES");

    let (total_jobs, jobs_per_sec, p50, p99) = throughput_phase(scale);
    let (rejected, rejection_rate, drain_ms) = overload_phase(scale);
    let (fanout_sequential_jobs_per_sec, fanout_jobs_per_sec, fanout_stream_passes) =
        fanout_phase(scale);
    let (dup_jobs_per_sec, dup_coalesced, dup_cache_hits) = duplicate_phase(scale);
    let (router_solo_jobs_per_sec, router_jobs_per_sec, router_parallelism) =
        router_phase(scale, shards);

    let results = Results {
        total_jobs,
        jobs_per_sec,
        p50,
        p99,
        rejected,
        rejection_rate,
        drain_ms,
        fanout_sequential_jobs_per_sec,
        fanout_jobs_per_sec,
        fanout_speedup: fanout_jobs_per_sec / fanout_sequential_jobs_per_sec,
        fanout_stream_passes,
        dup_jobs_per_sec,
        dup_coalesced,
        dup_cache_hits,
        router_shards: shards,
        router_solo_jobs_per_sec,
        router_jobs_per_sec,
        router_parallelism,
    };
    SERVER_BENCH.finish(&args, &document(scale, &results), None);
}

/// A `crypto` workload job body: `length` instructions from `seed`,
/// converted with `improvements`.
fn workload_body(seed: usize, length: u64, improvements: &str) -> String {
    warmed_body(seed, length, improvements, 0)
}

/// [`workload_body`] warming `warmup` records up: the jobs of one
/// source that warm up differently are distinct specs over one record
/// stream, so each simulates.
fn warmed_body(seed: usize, length: u64, improvements: &str, warmup: usize) -> String {
    json::object(|o| {
        o.object("workload", |w| {
            w.str("kind", "crypto").u64("seed", seed as u64).u64("length", length);
        })
        .str("improvements", improvements)
        .u64("warmup", warmup as u64);
    })
}

/// A fan-out job body: `trace` with 200 warm-up records, simulated
/// with `prefetcher` attached (`None`: the baseline front-end).
fn fanout_body(trace: &str, prefetcher: Option<&str>) -> String {
    json::object(|o| {
        o.str("trace", trace).u64("warmup", 200);
        if let Some(name) = prefetcher {
            o.str("prefetcher", name);
        }
    })
}

/// Starts an in-process server on an ephemeral port and returns it with
/// its address. `max_batch: None` keeps the service's batching default;
/// `Some(n)` fuses at most `n` jobs per pass.
fn start_server(queue_depth: usize, workers: usize, max_batch: Option<usize>) -> (Server, String) {
    let mut config =
        ServerConfig { queue_depth, workers, job_timeout: JOB_TIMEOUT, ..ServerConfig::default() };
    if let Some(max_batch) = max_batch {
        config.max_batch = max_batch;
    }
    let server = Server::start(config)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("cannot start server: {e}")));
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Stops `server` after checking that no job of `phase` was answered
/// from the result cache: that phase times simulation, so every job
/// must be a distinct spec.
fn join_uncached(server: Server, phase: &str) {
    let hits = metric_count(&server.metrics_json(), "server.result_cache.hits");
    server.join();
    if hits > 0 {
        let message = format!("{phase}: {hits} jobs were result-cache hits, not simulations");
        CLI.fail(Exit::Check, &message);
    }
}

fn connect(addr: &str) -> Connection {
    Connection::connect(addr)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("cannot connect to {addr}: {e}")))
}

/// Submits, waits for and fetches one job; `what` names it in errors.
fn run(conn: &mut Connection, body: &str, what: &str) -> String {
    conn.run(body, JOB_TIMEOUT).unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("{what}: {e}")))
}

fn submit(conn: &mut Connection, body: &str, what: &str) -> String {
    conn.submit(body).unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("{what} submit: {e}")))
}

/// Waits for job `id` and fetches its document; a job that settles
/// other than `done` fails the check.
fn wait_and_fetch(conn: &mut Connection, id: &str, what: &str) -> String {
    let status = conn
        .wait(id, JOB_TIMEOUT)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("{what} wait: {e}")));
    if status != "done" {
        CLI.fail(Exit::Check, &format!("{what} job {id} finished {status}"));
    }
    conn.fetch(id).unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("{what} fetch: {e}")))
}

// ---- Phase 1: closed-loop throughput and latency ----
fn throughput_phase(scale: &Scale) -> (usize, f64, f64, f64) {
    // Each job must actually simulate — memoized or fused runs would
    // measure the caches, not the service.
    let (server, addr) = start_server(scale.clients * 2, scale.workers, Some(1));
    // Distinct seeds keep the closed loops from coalescing onto each
    // other's executions, and distinct warm-ups (job `n` warms `n`
    // records up; the warm-up job none) keep a client's jobs from
    // hitting the result cache.
    let seeds: Vec<usize> = (0..scale.clients).map(|client| 100 + client).collect();
    let body = |seed, n| warmed_body(seed, scale.length, "All_imps", n);
    let addr = &addr;
    // Warm-up: one run per source, so the measurement is job-service
    // overhead plus simulation rather than one-time generation and
    // conversion. Then one client per source runs its jobs back to back
    // on one connection.
    for &seed in &seeds {
        run(&mut connect(addr), &body(seed, 0), "warm-up job");
    }
    let wall = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    (1..=scale.jobs_per_client)
                        .map(|n| {
                            let start = Instant::now();
                            run(&mut conn, &body(seed, n), "job");
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();
    join_uncached(server, "throughput");

    let total_jobs = latencies_ms.len();
    let jobs_per_sec = total_jobs as f64 / elapsed;
    latencies_ms.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies_ms, 50.0);
    let p99 = percentile(&latencies_ms, 99.0);
    eprintln!(
        "[server_bench] throughput: {total_jobs} jobs in {elapsed:.2}s = {jobs_per_sec:.2} jobs/s, \
         p50 {p50:.1} ms, p99 {p99:.1} ms"
    );
    (total_jobs, jobs_per_sec, p50, p99)
}

// ---- Phase 2: overload (bounded queue) and drain ----
fn overload_phase(scale: &Scale) -> (usize, f64, f64) {
    let (server, addr) = start_server(1, 1, None);
    let mut conn = connect(&addr);
    let mut rejected = 0usize;
    for i in 0..scale.overload_jobs {
        // Distinct seeds: identical bodies would coalesce onto the
        // running job instead of exercising the bounded queue.
        let body = workload_body(200 + i, scale.length, "All_imps");
        let response = conn
            .send("POST", "/jobs", &body)
            .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("overload submit: {e}")));
        match response.status {
            202 => {}
            429 if response.header("retry-after").is_some() => rejected += 1,
            429 => CLI.fail(Exit::Check, "429 without Retry-After header"),
            other => CLI.fail(Exit::Check, &format!("overload submit: unexpected HTTP {other}")),
        }
    }
    let rejection_rate = rejected as f64 / scale.overload_jobs as f64;
    let drain = Instant::now();
    server.begin_shutdown(false);
    server.join();
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "[server_bench] overload: {rejected}/{} rejected ({:.0}%), drain {drain_ms:.0} ms",
        scale.overload_jobs,
        rejection_rate * 100.0
    );
    if rejected == 0 {
        CLI.fail(Exit::Check, "overload produced no 429s — the queue is not applying backpressure");
    }
    (rejected, rejection_rate, drain_ms)
}

// ---- Phase 3: fused fan-out over one trace ----
fn fanout_phase(scale: &Scale) -> (f64, f64, u64) {
    let dir = std::env::temp_dir().join(format!("server-bench-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("scratch dir {}: {e}", dir.display())));
    let trace = dir.join("fanout.champsimz");
    write_trace(&trace, scale.length as usize)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("fan-out trace {}: {e}", trace.display())));
    let trace_text =
        trace.to_str().unwrap_or_else(|| CLI.fail(Exit::Io, "scratch path is not UTF-8"));

    // Config 0 runs the baseline front-end; the rest attach contest
    // prefetchers — the same sweep shape as the paper's Table 3.
    let mut prefetchers: Vec<Option<&str>> = vec![None];
    prefetchers
        .extend(iprefetch::CONTEST_NAMES.iter().copied().map(Some).take(scale.fanout_configs - 1));
    let bodies: Vec<String> =
        prefetchers.iter().map(|prefetcher| fanout_body(trace_text, *prefetcher)).collect();

    // Unbatched: one config at a time, each its own streaming pass.
    let (server, addr) = start_server(bodies.len() + 1, 1, Some(1));
    let mut conn = connect(&addr);
    let wall = Instant::now();
    let sequential_docs: Vec<String> =
        bodies.iter().map(|body| run(&mut conn, body, "sequential fan-out job")).collect();
    let sequential_elapsed = wall.elapsed().as_secs_f64();
    join_uncached(server, "sequential fan-out");

    // Batched: a decoy job occupies the single worker while every
    // config queues up, so the planner claims them in one fused pass.
    let (server, addr) = start_server(bodies.len() + 1, 1, Some(bodies.len()));
    let mut conn = connect(&addr);
    submit(&mut conn, &workload_body(777, scale.length, "No_imp"), "decoy");
    let wall = Instant::now();
    let ids: Vec<String> = bodies.iter().map(|body| submit(&mut conn, body, "fan-out")).collect();
    let batched_docs: Vec<String> =
        ids.iter().map(|id| wait_and_fetch(&mut conn, id, "fan-out")).collect();
    let batched_elapsed = wall.elapsed().as_secs_f64();
    let metrics = metrics_text(&mut conn);
    join_uncached(server, "batched fan-out");
    let _ = std::fs::remove_dir_all(&dir);

    for (i, (sequential, batched)) in sequential_docs.iter().zip(&batched_docs).enumerate() {
        if sequential != batched {
            let message =
                format!("fan-out config {i}: batched document differs from sequential run");
            CLI.fail(Exit::Check, &message);
        }
    }
    // Total passes minus the decoy's own pass.
    let stream_passes = metric_count(&metrics, "server.batch.passes").saturating_sub(1);
    let sequential_jps = sequential_docs.len() as f64 / sequential_elapsed;
    let batched_jps = batched_docs.len() as f64 / batched_elapsed;
    let speedup = batched_jps / sequential_jps;
    eprintln!(
        "[server_bench] fan-out: {} configs, sequential {sequential_jps:.2} jobs/s, \
         batched {batched_jps:.2} jobs/s ({speedup:.2}x, {stream_passes} stream passes)",
        bodies.len(),
    );
    if speedup < 2.0 {
        CLI.fail(
            Exit::Check,
            &format!(
                "fan-out batching speedup {speedup:.2}x is below the required 2x \
                 ({batched_jps:.2} vs {sequential_jps:.2} jobs/s)"
            ),
        );
    }
    (sequential_jps, batched_jps, stream_passes)
}

// ---- Phase 4: duplicate coalescing and the result cache ----
fn duplicate_phase(scale: &Scale) -> (f64, u64, u64) {
    let (server, addr) = start_server(4, 1, None);
    let mut conn = connect(&addr);
    // Long enough that the first execution is still running while the
    // duplicates arrive and attach to it.
    let body = workload_body(900, scale.length * 25, "All_imps");

    let wall = Instant::now();
    let ids: Vec<String> =
        (0..scale.dup_jobs).map(|_| submit(&mut conn, &body, "duplicate")).collect();
    let mut docs: Vec<String> =
        ids.iter().map(|id| wait_and_fetch(&mut conn, id, "duplicate")).collect();
    // Resubmission after completion: answered from the result cache.
    docs.push(run(&mut conn, &body, "cached rerun"));
    let elapsed = wall.elapsed().as_secs_f64();
    if docs.windows(2).any(|pair| pair[0] != pair[1]) {
        CLI.fail(Exit::Check, "coalesced/cached documents differ from the primary execution");
    }
    let metrics = metrics_text(&mut conn);
    server.join();

    let coalesced = metric_count(&metrics, "server.jobs.coalesced");
    let cache_hits = metric_count(&metrics, "server.result_cache.hits");
    let jobs_per_sec = docs.len() as f64 / elapsed;
    eprintln!(
        "[server_bench] duplicates: {} identical jobs + 1 rerun in {elapsed:.2}s \
         ({jobs_per_sec:.2} jobs/s), {coalesced} coalesced, {cache_hits} cache hits",
        scale.dup_jobs
    );
    if coalesced == 0 {
        CLI.fail(Exit::Check, "no submission coalesced onto the in-flight execution");
    }
    if cache_hits == 0 {
        CLI.fail(Exit::Check, "the resubmission was not answered from the result cache");
    }
    (jobs_per_sec, coalesced, cache_hits)
}

// ---- Phase 5: sharding behind the router (shard parallelism) ----
//
// The same work runs through a router in front of one shard and in
// front of `shards`: one record stream per shard, each homed by the
// ring on a distinct shard, and each submitting a burst of distinct
// jobs at once. Every shard has one worker, and every job simulates
// (no batching; a distinct warm-up per trial and job, so no result-cache
// hit) a source its shard generated and converted during warm-up.
//
// The check is on shard parallelism: the mean number of jobs running at
// once, from the first submission until the first stream's last job
// ends (until then every stream still has work queued), in the N-shard
// fleet over the one-shard fleet. Run times are the backends' own
// `queue_ms`/`run_ms`. One shard's worker runs the bursts back to back
// (1 job at a time); N workers run one burst each (N at a time), so a
// router that homed two streams on one shard, or starved the shards by
// forwarding slower than they simulate, fails the 1.7x check. Jobs/s,
// by contrast, is bounded by how fast the host runs N busy cores, which
// on a shared 2-vCPU host swings by more than the check's margin.
fn router_phase(scale: &Scale, shards: usize) -> (f64, f64, f64) {
    // The single shard queues every burst at once.
    let depth = shards * scale.router_burst;
    let mut fleets = vec![Fleet::start(shards, depth)];
    let streams = home_streams(&fleets[0].addrs, scale);
    if shards > 1 {
        fleets.push(Fleet::start(1, depth));
    }
    for fleet in &fleets {
        for &seed in &streams {
            let body = warmed_body(seed, scale.router_length, "All_imps", 0);
            run(&mut connect(&fleet.addr), &body, "warm-up job");
        }
    }
    // Trials alternate between the fleets, so a slow spell of the host
    // slows both; each fleet keeps its shortest makespan and its highest
    // parallelism.
    let mut best = vec![(f64::INFINITY, 0.0f64); fleets.len()];
    for trial in 0..ROUTER_TRIALS {
        for (fleet, best) in fleets.iter().zip(&mut best) {
            let (makespan, parallelism) = fleet.burst(scale, &streams, trial);
            *best = (best.0.min(makespan), best.1.max(parallelism));
        }
    }
    for fleet in fleets {
        fleet.stop();
    }
    let jobs = (streams.len() * scale.router_burst) as f64;
    let (sharded, solo) = (best[0], best[best.len() - 1]);
    let parallelism = sharded.1 / solo.1;
    let (sharded, solo) = (jobs / sharded.0, jobs / solo.0);
    eprintln!(
        "[server_bench] sharding: 1 shard {solo:.2} jobs/s, {shards} shards {sharded:.2} jobs/s, \
         shard parallelism {parallelism:.2}x"
    );
    if shards >= 2 && parallelism < 1.7 {
        CLI.fail(
            Exit::Check,
            &format!(
                "router shard parallelism {parallelism:.2}x at {shards} shards is below the \
                 required 1.7x"
            ),
        );
    }
    (solo, sharded, parallelism)
}

/// Single-worker backends behind a router.
struct Fleet {
    router: Router,
    backends: Vec<Server>,
    /// The backends' addresses, in shard order.
    addrs: Vec<String>,
    /// The router's address.
    addr: String,
}

impl Fleet {
    fn start(shards: usize, queue_depth: usize) -> Fleet {
        // Every job must actually simulate on its shard.
        let (backends, addrs): (Vec<Server>, Vec<String>) =
            (0..shards).map(|_| start_server(queue_depth, 1, Some(1))).unzip();
        let router = Router::start(RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: addrs.clone(),
            ..RouterConfig::default()
        })
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("cannot start router: {e}")));
        let addr = router.local_addr().to_string();
        Fleet { router, backends, addrs, addr }
    }

    /// Submits one burst per stream at once, one client per stream; job
    /// `n` of `trial` warms up `trial * router_burst + n` records.
    /// Returns the seconds until the last document is fetched, and the
    /// mean jobs running at once until the first stream's last job
    /// ended.
    fn burst(&self, scale: &Scale, streams: &[usize], trial: usize) -> (f64, f64) {
        let start = Instant::now();
        // Each stream's jobs as (start, end) seconds since `start`.
        let runs: Vec<Vec<(f64, f64)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = streams
                .iter()
                .map(|&seed| {
                    scope.spawn(move || {
                        let mut conn = connect(&self.addr);
                        let jobs: Vec<(f64, String)> = (1..=scale.router_burst)
                            .map(|n| {
                                let n = trial * scale.router_burst + n;
                                let body = warmed_body(seed, scale.router_length, "All_imps", n);
                                (start.elapsed().as_secs_f64(), submit(&mut conn, &body, "burst"))
                            })
                            .collect();
                        jobs.iter()
                            .map(|(submitted, id)| {
                                wait_and_fetch(&mut conn, id, "burst");
                                let (queue_ms, run_ms) = job_times(&mut conn, id);
                                let started = submitted + queue_ms / 1e3;
                                (started, started + run_ms / 1e3)
                            })
                            .collect()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client threads do not panic")).collect()
        });
        let makespan = start.elapsed().as_secs_f64();
        let window = runs
            .iter()
            .map(|jobs| jobs.iter().map(|&(_, end)| end).fold(0.0, f64::max))
            .fold(f64::INFINITY, f64::min);
        let busy: f64 = runs.iter().flatten().map(|&(s, e)| (e.min(window) - s).max(0.0)).sum();
        (makespan, busy / window)
    }

    fn stop(self) {
        self.router.join();
        for backend in self.backends {
            backend.begin_shutdown(false);
            join_uncached(backend, "sharding");
        }
    }
}

/// A finished job's `queue_ms` and `run_ms`, from its status.
fn job_times(conn: &mut Connection, id: &str) -> (f64, f64) {
    let response = conn
        .send("GET", &format!("/jobs/{id}"), "")
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("burst status: {e}")));
    let status = Value::parse(&response.text())
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("burst status document: {e}")));
    let ms = |key| {
        status.get(key).and_then(Value::as_f64).unwrap_or_else(|| {
            CLI.fail(Exit::Io, &format!("job {id} status has no {key}: {}", response.text()))
        })
    };
    (ms("queue_ms"), ms("run_ms"))
}

/// One workload seed per shard whose source the router's ring homes on
/// that shard.
fn home_streams(addrs: &[String], scale: &Scale) -> Vec<usize> {
    let ring = HashRing::new(addrs, DEFAULT_VNODES);
    let mut seeds: Vec<Option<usize>> = vec![None; addrs.len()];
    for seed in 3000.. {
        let spec = JobSpec::parse(&warmed_body(seed, scale.router_length, "All_imps", 0))
            .expect("bench bodies are valid job specs");
        let home = ring.route(&spec.source_key()).expect("a ring with backends routes every key");
        seeds[home].get_or_insert(seed);
        if seeds.iter().all(Option::is_some) {
            break;
        }
    }
    seeds.into_iter().map(Option::unwrap).collect()
}

fn write_trace(path: &Path, length: usize) -> Result<(), StoreError> {
    let spec = TraceSpec::new("bench-fanout", WorkloadKind::Crypto, 0x77).with_length(length);
    let records: Vec<ChampsimRecord> =
        Converter::new(ImprovementSet::all()).convert_all(spec.generate().iter());
    let mut writer = ChampsimzWriter::with_block_records(BufWriter::new(File::create(path)?), 256)?;
    for rec in &records {
        writer.write(rec)?;
    }
    let (mut inner, _stats) = writer.finish()?;
    Ok(inner.flush()?)
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn document(scale: &Scale, r: &Results) -> String {
    json::object(|o| {
        o.str("scale", scale.name)
            .u64("workload_length", scale.length)
            .u64("clients", scale.clients as u64)
            .u64("jobs", r.total_jobs as u64)
            .f64("jobs_per_sec", r.jobs_per_sec)
            .f64("p50_ms", r.p50)
            .f64("p99_ms", r.p99)
            .u64("overload_submitted", scale.overload_jobs as u64)
            .u64("overload_rejected", r.rejected as u64)
            .f64("rejection_rate", r.rejection_rate)
            .f64("drain_ms", r.drain_ms)
            .u64("fanout_configs", scale.fanout_configs as u64)
            .f64("fanout_sequential_jobs_per_sec", r.fanout_sequential_jobs_per_sec)
            .f64("fanout_jobs_per_sec", r.fanout_jobs_per_sec)
            .f64("fanout_speedup", r.fanout_speedup)
            .u64("fanout_stream_passes", r.fanout_stream_passes)
            .u64("dup_jobs", scale.dup_jobs as u64)
            .f64("dup_jobs_per_sec", r.dup_jobs_per_sec)
            .u64("dup_coalesced", r.dup_coalesced)
            .u64("dup_cache_hits", r.dup_cache_hits)
            .u64("router_shards", r.router_shards as u64)
            .f64("router_solo_jobs_per_sec", r.router_solo_jobs_per_sec)
            .f64("router_jobs_per_sec", r.router_jobs_per_sec)
            .f64("router_parallelism", r.router_parallelism);
    })
}

fn metrics_text(conn: &mut Connection) -> String {
    let response = conn
        .send("GET", "/metrics", "")
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("GET /metrics: {e}")));
    response.text()
}

/// Reads a counter value out of a `/metrics` registry document.
fn metric_count(doc: &str, name: &str) -> u64 {
    let doc = Value::parse(doc)
        .unwrap_or_else(|e| CLI.fail(Exit::Io, &format!("/metrics document: {e}")));
    let value = doc
        .metric(name)
        .unwrap_or_else(|| CLI.fail(Exit::Io, &format!("/metrics document has no {name}")));
    value
        .as_u64()
        .unwrap_or_else(|| CLI.fail(Exit::Io, &format!("/metrics entry for {name} is not a count")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numbers read back from the committed smoke baseline write a
    /// document equal to it: same field names, order and values.
    #[test]
    fn document_reproduces_the_committed_baseline() {
        let committed = Value::parse(include_str!("../../../../BENCH_server.json")).unwrap();
        let number = |key: &str| committed.get(key).and_then(Value::as_f64).unwrap();
        let results = Results {
            total_jobs: number("jobs") as usize,
            jobs_per_sec: number("jobs_per_sec"),
            p50: number("p50_ms"),
            p99: number("p99_ms"),
            rejected: number("overload_rejected") as usize,
            rejection_rate: number("rejection_rate"),
            drain_ms: number("drain_ms"),
            fanout_sequential_jobs_per_sec: number("fanout_sequential_jobs_per_sec"),
            fanout_jobs_per_sec: number("fanout_jobs_per_sec"),
            fanout_speedup: number("fanout_speedup"),
            fanout_stream_passes: number("fanout_stream_passes") as u64,
            dup_jobs_per_sec: number("dup_jobs_per_sec"),
            dup_coalesced: number("dup_coalesced") as u64,
            dup_cache_hits: number("dup_cache_hits") as u64,
            router_shards: number("router_shards") as usize,
            router_solo_jobs_per_sec: number("router_solo_jobs_per_sec"),
            router_jobs_per_sec: number("router_jobs_per_sec"),
            router_parallelism: number("router_parallelism"),
        };
        let smoke = &SCALES[0];
        assert_eq!(committed.get("scale").and_then(Value::as_str), Some(smoke.name));
        assert_eq!(Value::parse(&document(smoke, &results)).unwrap(), committed);
    }

    #[test]
    fn request_bodies_parse_as_the_specs_they_name() {
        let spec = JobSpec::parse(&workload_body(7, 2_000, "No_imp")).unwrap();
        assert_eq!(spec.improvements, ImprovementSet::none());
        assert!(matches!(spec.source, sim_server::JobSource::Workload(_)));
        // A scratch path may hold any character JSON must escape.
        let path = r#"C:\tmp\"fan out".champsimz"#;
        let spec = JobSpec::parse(&fanout_body(path, Some("djolt"))).unwrap();
        assert!(matches!(&spec.source, sim_server::JobSource::File(p, _) if p == path));
        assert_eq!((spec.warmup, spec.prefetcher.as_deref()), (200, Some("djolt")));
    }
}
