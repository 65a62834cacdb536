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
//! workload jobs over a per-client spec (the artifact cache makes this
//! a pure simulate-throughput measurement after the warm-up; the
//! result cache is disabled so every job actually simulates). Reports
//! jobs/s and p50/p99 end-to-end latency.
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
//! Phase 5 (sharding, `--shards N`, default 2): spawns N in-process
//! `sim_server` backends behind a `sim_router` and drives one
//! closed-loop client per shard, each pinned (by consistent-hash ring
//! prediction) to a distinct shard's record stream. Job runtime is
//! sized well under the client's poll quantum, so per-client cycle
//! time is poll-latency-bound and fleet throughput scales with shard
//! count — *weak scaling*, measurable even on a single-core host where
//! a CPU-saturated strong-scaling run could never separate the
//! configurations. Hard-fails below 1.7x at 2 shards.
//!
//! Results land in `BENCH_server.json` (`--out` to redirect).
//! `--check <baseline>` gates the run against a committed
//! `BENCH_server.json` with [`experiments::bench::gate`] — the CI
//! perf-smoke gate. `jobs_per_sec`, `fanout_jobs_per_sec` and
//! `router_jobs_per_sec` must reach the baseline value less
//! `--tolerance` percent (default 30); a regression, or a gated field
//! the baseline lacks, fails the run (exit 1) and names the field.
//! Latency tails are reported but not gated; they are too
//! host-sensitive for CI.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use experiments::bench::check_baseline;
use sim_server::json::Value;
use sim_server::ring::DEFAULT_VNODES;
use sim_server::{Connection, HashRing, JobSpec, Router, RouterConfig, Server, ServerConfig};
use trace_store::ChampsimzWriter;
use workloads::{TraceSpec, WorkloadKind};

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
    /// Workload length per job in the sharding phase — deliberately
    /// short so job runtime stays well under the client poll quantum
    /// and the phase measures weak scaling, not CPU saturation.
    router_length: u64,
    /// Jobs per closed-loop client in the sharding phase.
    router_jobs_per_client: usize,
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
        router_length: 8_000,
        router_jobs_per_client: 25,
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
        router_length: 12_000,
        router_jobs_per_client: 30,
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
        router_length: 16_000,
        router_jobs_per_client: 40,
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
    router_speedup: f64,
}

fn main() {
    let mut scale = &SCALES[2];
    let mut out_path = "BENCH_server.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 30.0f64;
    let mut shards = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let name = args.next().unwrap_or_else(|| fail("--scale needs a value"));
                scale = SCALES.iter().find(|s| s.name == name).unwrap_or_else(|| {
                    fail(&format!("--scale must be smoke|test|paper, got {name:?}"))
                });
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n: &usize| (1..=16).contains(n))
                    .unwrap_or_else(|| fail("--shards needs a count in 1..=16"));
            }
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out needs a path")),
            "--check" => {
                baseline_path = Some(args.next().unwrap_or_else(|| fail("--check needs a path")));
            }
            "--tolerance" => {
                tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| *t > 0.0 && *t < 100.0)
                    .unwrap_or_else(|| fail("--tolerance needs a percentage in (0, 100)"));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let (total_jobs, jobs_per_sec, p50, p99) = throughput_phase(scale);
    let (rejected, rejection_rate, drain_ms) = overload_phase(scale);
    let (fanout_sequential_jobs_per_sec, fanout_jobs_per_sec, fanout_stream_passes) =
        fanout_phase(scale);
    let fanout_speedup = fanout_jobs_per_sec / fanout_sequential_jobs_per_sec;
    if fanout_speedup < 2.0 {
        fail(&format!(
            "fan-out batching speedup {fanout_speedup:.2}x is below the required 2x \
             ({fanout_jobs_per_sec:.2} vs {fanout_sequential_jobs_per_sec:.2} jobs/s)"
        ));
    }
    let (dup_jobs_per_sec, dup_coalesced, dup_cache_hits) = duplicate_phase(scale);
    let (router_solo_jobs_per_sec, router_jobs_per_sec, router_speedup) =
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
        fanout_speedup,
        fanout_stream_passes,
        dup_jobs_per_sec,
        dup_coalesced,
        dup_cache_hits,
        router_shards: shards,
        router_solo_jobs_per_sec,
        router_jobs_per_sec,
        router_speedup,
    };
    let json = to_json(scale, &results);
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("[server_bench] wrote {out_path}"),
        Err(e) => fail(&format!("could not write {out_path}: {e}")),
    }

    if let Some(path) = &baseline_path {
        let fields = ["jobs_per_sec", "fanout_jobs_per_sec", "router_jobs_per_sec"];
        check_baseline("server_bench", path, &json, &fields, tolerance_pct);
    }
}

/// Per-client workload body; distinct seeds keep the closed loops from
/// coalescing onto each other's executions.
fn client_body(scale: &Scale, client: usize) -> String {
    format!(
        "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {}, \"length\": {}}}, \
         \"improvements\": \"All_imps\"}}",
        100 + client,
        scale.length
    )
}

// ---- Phase 1: closed-loop throughput and latency ----
fn throughput_phase(scale: &Scale) -> (usize, f64, f64, f64) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: scale.clients * 2,
        workers: scale.workers,
        job_timeout: Duration::from_secs(120),
        // Each job must actually simulate — memoized or fused runs
        // would measure the caches, not the service.
        max_batch: 1,
        result_cache_entries: 0,
    })
    .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
    let addr = server.local_addr().to_string();

    // Warm the artifact cache so the measurement is job-service
    // overhead + simulation, not one-time generation/conversion.
    for client in 0..scale.clients {
        run_one(&addr, &client_body(scale, client));
    }

    let wall = Instant::now();
    let handles: Vec<_> = (0..scale.clients)
        .map(|client| {
            let addr = addr.clone();
            let body = client_body(scale, client);
            let jobs = scale.jobs_per_client;
            std::thread::spawn(move || {
                let mut conn =
                    Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
                let mut latencies_ms = Vec::with_capacity(jobs);
                for _ in 0..jobs {
                    let start = Instant::now();
                    conn.run(&body, Duration::from_secs(120))
                        .unwrap_or_else(|e| fail(&format!("job failed: {e}")));
                    latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    for handle in handles {
        latencies_ms.extend(handle.join().unwrap_or_else(|_| fail("client thread panicked")));
    }
    let elapsed = wall.elapsed().as_secs_f64();
    server.join();

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
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: 1,
        workers: 1,
        job_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start overload server: {e}")));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let mut rejected = 0usize;
    for i in 0..scale.overload_jobs {
        // Distinct seeds: identical bodies would coalesce onto the
        // running job instead of exercising the bounded queue.
        let body = format!(
            "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {}, \"length\": {}}}, \
             \"improvements\": \"All_imps\"}}",
            200 + i,
            scale.length
        );
        let response = conn
            .send("POST", "/jobs", &body)
            .unwrap_or_else(|e| fail(&format!("overload submit: {e}")));
        match response.status {
            202 => {}
            429 => {
                if response.header("retry-after").is_none() {
                    fail("429 without Retry-After header");
                }
                rejected += 1;
            }
            other => fail(&format!("overload submit: unexpected HTTP {other}")),
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
        fail("overload produced no 429s — the queue is not applying backpressure");
    }
    (rejected, rejection_rate, drain_ms)
}

// ---- Phase 3: fused fan-out over one trace ----
fn fanout_phase(scale: &Scale) -> (f64, f64, u64) {
    let dir = std::env::temp_dir().join(format!("server-bench-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("scratch dir: {e}")));
    let trace = dir.join("fanout.champsimz");
    write_trace(&trace, scale.length as usize);
    let trace_text = trace.to_str().unwrap_or_else(|| fail("scratch path is not UTF-8"));

    // Config 0 runs the baseline front-end; the rest attach contest
    // prefetchers — the same sweep shape as the paper's Table 3.
    let mut prefetchers: Vec<Option<&str>> = vec![None];
    prefetchers
        .extend(iprefetch::CONTEST_NAMES.iter().copied().map(Some).take(scale.fanout_configs - 1));
    let bodies: Vec<String> = prefetchers
        .iter()
        .map(|prefetcher| {
            let mut body = format!("{{\"trace\": \"{trace_text}\", \"warmup\": 200");
            if let Some(name) = prefetcher {
                body.push_str(&format!(", \"prefetcher\": \"{name}\""));
            }
            body.push('}');
            body
        })
        .collect();

    let start_server = |max_batch: usize| {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_depth: bodies.len() + 1,
            workers: 1,
            job_timeout: Duration::from_secs(120),
            max_batch,
            result_cache_entries: 0,
        })
        .unwrap_or_else(|e| fail(&format!("cannot start fan-out server: {e}")))
    };

    // Unbatched: one config at a time, each its own streaming pass.
    let server = start_server(1);
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let wall = Instant::now();
    let sequential_docs: Vec<String> = bodies
        .iter()
        .map(|body| {
            conn.run(body, Duration::from_secs(120))
                .unwrap_or_else(|e| fail(&format!("sequential fan-out job: {e}")))
        })
        .collect();
    let sequential_elapsed = wall.elapsed().as_secs_f64();
    server.join();

    // Batched: a decoy job occupies the single worker while every
    // config queues up, so the planner claims them in one fused pass.
    let server = start_server(bodies.len());
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let decoy = format!(
        "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": 777, \"length\": {}}}}}",
        scale.length
    );
    conn.submit(&decoy).unwrap_or_else(|e| fail(&format!("decoy submit: {e}")));
    let wall = Instant::now();
    let ids: Vec<String> = bodies
        .iter()
        .map(|body| conn.submit(body).unwrap_or_else(|e| fail(&format!("fan-out submit: {e}"))))
        .collect();
    let batched_docs: Vec<String> = ids
        .iter()
        .map(|id| {
            let status = conn
                .wait(id, Duration::from_secs(120))
                .unwrap_or_else(|e| fail(&format!("fan-out wait: {e}")));
            if status != "done" {
                fail(&format!("fan-out job {id} finished {status}"));
            }
            conn.fetch(id).unwrap_or_else(|e| fail(&format!("fan-out fetch: {e}")))
        })
        .collect();
    let batched_elapsed = wall.elapsed().as_secs_f64();
    let metrics =
        conn.send("GET", "/metrics", "").unwrap_or_else(|e| fail(&format!("metrics: {e}"))).text();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    for (i, (sequential, batched)) in sequential_docs.iter().zip(&batched_docs).enumerate() {
        if sequential != batched {
            fail(&format!("fan-out config {i}: batched document differs from sequential run"));
        }
    }
    // Total passes minus the decoy's own pass.
    let stream_passes = metric_count(&metrics, "server.batch.passes").saturating_sub(1);
    let sequential_jps = sequential_docs.len() as f64 / sequential_elapsed;
    let batched_jps = batched_docs.len() as f64 / batched_elapsed;
    eprintln!(
        "[server_bench] fan-out: {} configs, sequential {sequential_jps:.2} jobs/s, \
         batched {batched_jps:.2} jobs/s ({:.2}x, {stream_passes} stream passes)",
        bodies.len(),
        batched_jps / sequential_jps
    );
    (sequential_jps, batched_jps, stream_passes)
}

// ---- Phase 4: duplicate coalescing and the result cache ----
fn duplicate_phase(scale: &Scale) -> (f64, u64, u64) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: 4,
        workers: 1,
        job_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start duplicate-storm server: {e}")));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    // Long enough that the first execution is still running while the
    // duplicates arrive and attach to it.
    let body = format!(
        "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": 900, \"length\": {}}}, \
         \"improvements\": \"All_imps\"}}",
        scale.length * 25
    );

    let wall = Instant::now();
    let ids: Vec<String> = (0..scale.dup_jobs)
        .map(|_| conn.submit(&body).unwrap_or_else(|e| fail(&format!("duplicate submit: {e}"))))
        .collect();
    let mut docs = Vec::with_capacity(ids.len() + 1);
    for id in &ids {
        let status = conn
            .wait(id, Duration::from_secs(120))
            .unwrap_or_else(|e| fail(&format!("duplicate wait: {e}")));
        if status != "done" {
            fail(&format!("duplicate job {id} finished {status}"));
        }
        docs.push(conn.fetch(id).unwrap_or_else(|e| fail(&format!("duplicate fetch: {e}"))));
    }
    // Resubmission after completion: answered from the result cache.
    docs.push(
        conn.run(&body, Duration::from_secs(120))
            .unwrap_or_else(|e| fail(&format!("cached rerun: {e}"))),
    );
    let elapsed = wall.elapsed().as_secs_f64();
    if docs.windows(2).any(|pair| pair[0] != pair[1]) {
        fail("coalesced/cached documents differ from the primary execution");
    }
    let metrics =
        conn.send("GET", "/metrics", "").unwrap_or_else(|e| fail(&format!("metrics: {e}"))).text();
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
        fail("no submission coalesced onto the in-flight execution");
    }
    if cache_hits == 0 {
        fail("the resubmission was not answered from the result cache");
    }
    (jobs_per_sec, coalesced, cache_hits)
}

// ---- Phase 5: sharding behind the router (weak scaling) ----
//
// One closed-loop client per shard, each driving a record stream the
// consistent-hash ring homes on a *distinct* shard, with job runtime
// well under the client's 20 ms poll quantum. Per-client cycle time is
// then poll-latency-bound — the same on one shard or many — so fleet
// throughput grows with shard count as long as the fleet keeps jobs
// off each other's queues. That is exactly the router's job, and it
// holds on a single-core host too (N concurrent short jobs still
// finish inside one poll quantum), where a CPU-saturated comparison
// could never show scaling.
fn router_phase(scale: &Scale, shards: usize) -> (f64, f64, f64) {
    let solo = router_run(scale, 1);
    let sharded = if shards == 1 { solo } else { router_run(scale, shards) };
    let speedup = sharded / solo;
    eprintln!(
        "[server_bench] sharding: 1 shard {solo:.2} jobs/s, {shards} shards {sharded:.2} jobs/s \
         ({speedup:.2}x)"
    );
    if shards >= 2 && speedup < 1.7 {
        fail(&format!(
            "router sharding speedup {speedup:.2}x at {shards} shards is below the required 1.7x \
             ({sharded:.2} vs {solo:.2} jobs/s)"
        ));
    }
    (solo, sharded, speedup)
}

/// Starts `shards` backends behind a router and runs one closed-loop
/// client per shard; returns fleet jobs/s.
fn router_run(scale: &Scale, shards: usize) -> f64 {
    let backends: Vec<Server> = (0..shards)
        .map(|_| {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                queue_depth: 8,
                workers: 1,
                job_timeout: Duration::from_secs(120),
                // Every job must actually simulate on its shard.
                max_batch: 1,
                result_cache_entries: 0,
            })
            .unwrap_or_else(|e| fail(&format!("cannot start shard backend: {e}")))
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: addrs.clone(),
        ..RouterConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start router: {e}")));
    let router_addr = router.local_addr().to_string();

    // Pin one record stream to each shard by predicting the router's
    // ring: scan seeds until every shard owns exactly one body.
    let ring = HashRing::new(&addrs, DEFAULT_VNODES);
    let mut bodies: Vec<Option<String>> = vec![None; shards];
    let mut missing = shards;
    for seed in 3000.. {
        let body = format!(
            "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {seed}, \"length\": {}}}, \
             \"improvements\": \"All_imps\"}}",
            scale.router_length
        );
        let spec =
            JobSpec::parse(&body).unwrap_or_else(|e| fail(&format!("sharding phase spec: {e}")));
        let home =
            ring.route(&spec.source_key()).unwrap_or_else(|| fail("ring routed a spec nowhere"));
        if bodies[home].is_none() {
            bodies[home] = Some(body);
            missing -= 1;
            if missing == 0 {
                break;
            }
        }
    }
    let bodies: Vec<String> = bodies.into_iter().map(Option::unwrap).collect();

    // Warm each shard's artifact cache through the router so the
    // measured loop is submit/poll/fetch + a short simulation.
    for body in &bodies {
        run_one(&router_addr, body);
    }

    let wall = Instant::now();
    let handles: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            let addr = router_addr.clone();
            let jobs = scale.router_jobs_per_client;
            std::thread::spawn(move || {
                let mut conn =
                    Connection::connect(&addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
                for _ in 0..jobs {
                    conn.run(&body, Duration::from_secs(120))
                        .unwrap_or_else(|e| fail(&format!("sharded job failed: {e}")));
                }
                jobs
            })
        })
        .collect();
    let mut total = 0usize;
    for handle in handles {
        total += handle.join().unwrap_or_else(|_| fail("shard client thread panicked"));
    }
    let elapsed = wall.elapsed().as_secs_f64();

    router.join();
    for backend in backends {
        backend.begin_shutdown(false);
        backend.join();
    }
    total as f64 / elapsed
}

fn write_trace(path: &Path, length: usize) {
    let spec = TraceSpec::new("bench-fanout", WorkloadKind::Crypto, 0x77).with_length(length);
    let records: Vec<ChampsimRecord> =
        Converter::new(ImprovementSet::all()).convert_all(spec.generate().iter());
    let mut writer =
        ChampsimzWriter::with_block_records(BufWriter::new(File::create(path).unwrap()), 256)
            .unwrap_or_else(|e| fail(&format!("trace writer: {e:?}")));
    for rec in &records {
        writer.write(rec).unwrap_or_else(|e| fail(&format!("trace write: {e:?}")));
    }
    let (mut inner, _stats) =
        writer.finish().unwrap_or_else(|e| fail(&format!("trace finish: {e:?}")));
    inner.flush().unwrap_or_else(|e| fail(&format!("trace flush: {e}")));
}

fn run_one(addr: &str, body: &str) {
    let mut conn = Connection::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    conn.run(body, Duration::from_secs(120))
        .unwrap_or_else(|e| fail(&format!("warm-up job failed: {e}")));
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn to_json(scale: &Scale, r: &Results) -> String {
    format!(
        "{{\"scale\":\"{}\",\"workload_length\":{},\"clients\":{},\"jobs\":{},\
         \"jobs_per_sec\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\
         \"overload_submitted\":{},\"overload_rejected\":{},\"rejection_rate\":{:.3},\
         \"drain_ms\":{:.3},\
         \"fanout_configs\":{},\"fanout_sequential_jobs_per_sec\":{:.3},\
         \"fanout_jobs_per_sec\":{:.3},\"fanout_speedup\":{:.3},\"fanout_stream_passes\":{},\
         \"dup_jobs\":{},\"dup_jobs_per_sec\":{:.3},\"dup_coalesced\":{},\"dup_cache_hits\":{},\
         \"router_shards\":{},\"router_solo_jobs_per_sec\":{:.3},\
         \"router_jobs_per_sec\":{:.3},\"router_speedup\":{:.3}}}\n",
        scale.name,
        scale.length,
        scale.clients,
        r.total_jobs,
        r.jobs_per_sec,
        r.p50,
        r.p99,
        scale.overload_jobs,
        r.rejected,
        r.rejection_rate,
        r.drain_ms,
        scale.fanout_configs,
        r.fanout_sequential_jobs_per_sec,
        r.fanout_jobs_per_sec,
        r.fanout_speedup,
        r.fanout_stream_passes,
        scale.dup_jobs,
        r.dup_jobs_per_sec,
        r.dup_coalesced,
        r.dup_cache_hits,
        r.router_shards,
        r.router_solo_jobs_per_sec,
        r.router_jobs_per_sec,
        r.router_speedup
    )
}

/// Reads a counter value out of a `/metrics` registry document.
fn metric_count(doc: &str, name: &str) -> u64 {
    let doc = Value::parse(doc).unwrap_or_else(|e| fail(&format!("/metrics document: {e}")));
    let value =
        doc.metric(name).unwrap_or_else(|| fail(&format!("/metrics document has no {name}")));
    value.as_u64().unwrap_or_else(|| fail(&format!("/metrics entry for {name} is not a count")))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
