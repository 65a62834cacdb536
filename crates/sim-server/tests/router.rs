//! End-to-end tests against a live in-process router fleet: routed
//! round trips with shard-qualified ids, byte-identity through the
//! extra hop, backend-down failure paths, fleet-wide backpressure,
//! consistent-hash stability, the pooled backend connections, and a
//! prompt join without traffic.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sim_server::http::{read_request, Response};
use sim_server::json::Value;
use sim_server::ring::DEFAULT_VNODES;
use sim_server::router::BACKEND_POOL_CAP;
use sim_server::{Connection, HashRing, JobSpec, Router, RouterConfig, Server, ServerConfig};

fn start_backend(queue_depth: usize, workers: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth,
        workers,
        job_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .unwrap()
}

fn start_router(backends: Vec<String>) -> Router {
    Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends,
        // Fast probes so eject/re-admit transitions land within test
        // timescales.
        health_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .unwrap()
}

fn body_for_seed(seed: u64, length: u64) -> String {
    format!(
        "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {seed}, \"length\": {length}}}, \
         \"improvements\": \"All_imps\"}}"
    )
}

/// Scans seeds until one's source key routes to `shard` on `ring`.
fn body_homed_on(ring: &HashRing, shard: usize, length: u64) -> String {
    for seed in 0..10_000 {
        let body = body_for_seed(seed, length);
        let spec = JobSpec::parse(&body).unwrap();
        if ring.route(&spec.source_key()) == Some(shard) {
            return body;
        }
    }
    panic!("no seed in 0..10000 routes to shard {shard}");
}

/// An address nothing listens on: bind an ephemeral port, then drop
/// the listener.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// Routed jobs round-trip with shard-qualified ids, and the routed
/// result document is byte-identical to the same spec served by a
/// standalone backend — the extra hop never rewrites results.
#[test]
fn routed_jobs_round_trip_and_results_stay_byte_identical() {
    let backends = [start_backend(8, 1), start_backend(8, 1)];
    let addrs: Vec<String> = backends.iter().map(|b| b.local_addr().to_string()).collect();
    let router = start_router(addrs.clone());
    let mut via_router = Connection::connect(&router.local_addr().to_string()).unwrap();

    let ring = HashRing::new(&addrs, DEFAULT_VNODES);
    for shard in 0..backends.len() {
        let body = body_homed_on(&ring, shard, 3_000);
        let id = via_router.submit(&body).unwrap();
        assert!(
            id.starts_with(&format!("s{shard}-")),
            "id {id:?} is not qualified for home shard {shard}"
        );
        assert_eq!(via_router.wait(&id, Duration::from_secs(60)).unwrap(), "done");
        let routed_doc = via_router.fetch(&id).unwrap();

        // The same spec on a fresh standalone backend: deterministic
        // pipeline, so the documents must match byte-for-byte.
        let solo = start_backend(4, 1);
        let mut direct = Connection::connect(&solo.local_addr().to_string()).unwrap();
        let direct_doc = direct.run(&body, Duration::from_secs(60)).unwrap();
        solo.join();
        assert_eq!(routed_doc, direct_doc, "routed result differs for shard {shard}");
    }

    router.join();
    for backend in backends {
        backend.begin_shutdown(false);
        backend.join();
    }
}

/// A client that pauses mid-request for longer than the connection's
/// shutdown poll still gets its answer from both the server and the
/// router: the partial request is kept, not reparsed as a new one.
#[test]
fn slow_clients_keep_their_partial_request() {
    let backend = start_backend(4, 1);
    let router = start_router(vec![backend.local_addr().to_string()]);
    for addr in [backend.local_addr(), router.local_addr()] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for chunk in
            ["GET /healthz HTTP/1.1\r\n", "Ho", "st: slow\r\n", "Connection: close\r\n\r\n"]
        {
            stream.write_all(chunk.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(250));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{addr}: {response}");
    }
    router.join();
    backend.begin_shutdown(false);
    backend.join();
}

/// Both front doors diagnose protocol errors alike — a malformed body
/// is `400` with the byte offset, an unknown path `404`, a wrong method
/// `405`, a malformed job id `404` — and `POST /shutdown` starts the
/// drain, after which submissions get `503`.
#[test]
fn api_error_paths_match_on_both_front_doors() {
    let backend = start_backend(4, 1);
    let router = start_router(vec![backend.local_addr().to_string()]);
    let doors = [
        ("server", backend.local_addr(), backend.shutdown_handle()),
        ("router", router.local_addr(), router.shutdown_handle()),
    ];
    for (name, addr, handle) in &doors {
        let mut conn = Connection::connect(&addr.to_string()).unwrap();
        let bad_json = conn.send("POST", "/jobs", "{not json").unwrap();
        assert_eq!(bad_json.status, 400, "{name}");
        assert!(bad_json.text().contains("at byte"), "{name}: {}", bad_json.text());
        assert_eq!(conn.send("GET", "/nope", "").unwrap().status, 404, "{name}");
        assert_eq!(conn.send("DELETE", "/jobs", "").unwrap().status, 405, "{name}");
        assert_eq!(conn.send("GET", "/jobs/bogus", "").unwrap().status, 404, "{name}");

        assert!(!handle.shutdown_requested(), "{name}");
        assert_eq!(conn.send("POST", "/shutdown", "").unwrap().status, 200, "{name}");
        assert!(handle.shutdown_requested(), "{name}");
        let refused = conn.send("POST", "/jobs", &body_for_seed(1, 3_000)).unwrap();
        assert_eq!(refused.status, 503, "{name}: {}", refused.text());
    }
    router.join();
    backend.join();
}

/// A backend that is down when the router starts begins life ejected:
/// `/healthz` reports it unhealthy, and submissions homed on it fail
/// over to the live shard instead of erroring.
#[test]
fn backend_down_at_startup_is_ejected_and_jobs_reroute() {
    let live = start_backend(8, 1);
    let live_addr = live.local_addr().to_string();
    let dead = dead_addr();
    // Dead backend first so shard 0 is the corpse.
    let addrs = vec![dead.clone(), live_addr.clone()];
    let router = start_router(addrs.clone());
    assert_eq!(router.healthy_backends(), 1, "startup probe must eject the dead backend");

    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();
    let health = conn.send("GET", "/healthz", "").unwrap().text();
    assert!(health.contains("\"healthy_backends\":1"), "{health}");
    assert!(health.contains("\"healthy\":false"), "{health}");
    assert!(health.contains("\"healthy\":true"), "{health}");

    // A spec homed on the dead shard 0 must land on the live shard 1.
    let ring = HashRing::new(&addrs, DEFAULT_VNODES);
    let body = body_homed_on(&ring, 0, 3_000);
    let id = conn.submit(&body).unwrap();
    assert!(id.starts_with("s1-"), "job {id:?} was not rerouted to the live shard");
    assert_eq!(conn.wait(&id, Duration::from_secs(60)).unwrap(), "done");

    router.join();
    live.begin_shutdown(false);
    live.join();
}

/// A backend that dies mid-job turns polls into a prompt retriable
/// `503` — never a hang — and the router's health checker ejects it.
#[test]
fn backend_death_mid_job_yields_retriable_errors_not_hangs() {
    let victim = start_backend(8, 1);
    let bystander = start_backend(8, 1);
    let addrs = vec![victim.local_addr().to_string(), bystander.local_addr().to_string()];
    let router = start_router(addrs.clone());
    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();

    // A long job homed on the victim, still running when it dies.
    let ring = HashRing::new(&addrs, DEFAULT_VNODES);
    let body = body_homed_on(&ring, 0, 400_000);
    let id = conn.submit(&body).unwrap();
    assert!(id.starts_with("s0-"), "setup: job must be on the victim shard");

    victim.begin_shutdown(true);
    victim.join();

    // Polls must come back quickly with a retriable error.
    let started = Instant::now();
    let response = loop {
        let response = conn.send("GET", &format!("/jobs/{id}"), "").unwrap();
        // The dying backend may answer a few final polls; once its
        // port closes the router must answer 503 itself.
        if response.status == 503 {
            break response;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "poll never surfaced the dead backend (last status {})",
            response.status
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "error took {:?} — that is a hang, not a failure signal",
        started.elapsed()
    );
    assert_eq!(response.header("retry-after"), Some("1"));
    assert!(response.text().contains("s0"), "diagnostic names the shard: {}", response.text());

    // The health checker notices too (50 ms probe interval).
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.healthy_backends() != 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(router.healthy_backends(), 1, "victim was never ejected");

    router.join();
    bystander.begin_shutdown(false);
    bystander.join();
}

/// When every shard answers `429`, the router propagates `429` with a
/// Retry-After hint instead of masking fleet saturation.
#[test]
fn all_shards_busy_propagates_429_with_retry_after() {
    // Depth-1 queues and one worker each: one long job runs, one
    // queues, everything else is refused.
    let backends = [start_backend(1, 1), start_backend(1, 1)];
    let addrs: Vec<String> = backends.iter().map(|b| b.local_addr().to_string()).collect();
    let router = start_router(addrs.clone());

    // Saturate each backend directly with fresh multi-second jobs
    // (distinct seeds so nothing coalesces) until it answers 429: at
    // that point the worker is busy and the depth-1 queue is full, and
    // both stay that way for the sub-millisecond window until the
    // routed submission below. A fixed two-submission script would race
    // the worker dequeue under parallel test load.
    for (i, addr) in addrs.iter().enumerate() {
        let mut direct = Connection::connect(addr).unwrap();
        let mut seed = 7_000 + (i as u64) * 100;
        loop {
            let body = body_for_seed(seed, 5_000_000);
            seed += 1;
            assert!(seed < 7_000 + (i as u64) * 100 + 50, "backend {i} never saturated");
            let response = direct.send("POST", "/jobs", &body).unwrap();
            match response.status {
                202 => std::thread::sleep(Duration::from_millis(50)),
                429 => break,
                other => panic!("saturating submit got HTTP {other}"),
            }
        }
    }

    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();
    let response = conn.send("POST", "/jobs", &body_for_seed(7_900, 3_000)).unwrap();
    assert_eq!(response.status, 429, "fleet saturation must surface as 429: {}", response.text());
    let hint: u64 = response
        .header("retry-after")
        .expect("429 without Retry-After")
        .parse()
        .expect("malformed Retry-After");
    assert!(hint >= 1);
    assert!(response.text().contains("every shard"), "{}", response.text());

    router.join();
    for backend in backends {
        backend.begin_shutdown(true);
        backend.join();
    }
}

/// Consistent-hash stability over real job specs: every spelling of a
/// spec over one record stream routes to one shard, and rebuilt rings
/// (router restarts) agree — a seeded property loop.
#[test]
fn ring_routes_specs_stably_across_restarts_and_spellings() {
    let addrs: Vec<String> = (0..4).map(|i| format!("10.1.0.{i}:4600")).collect();
    let ring = HashRing::new(&addrs, DEFAULT_VNODES);
    let rebuilt = HashRing::new(&addrs, DEFAULT_VNODES);

    let kinds = ["crypto", "streaming", "pointer-chase", "branchy-int"];
    for round in 0u64..200 {
        // Deterministic "random" seed stream (splitmix-style).
        let seed = round.wrapping_mul(0x9e3779b97f4a7c15) >> 17;
        let kind = kinds[(round % 4) as usize];
        let base = format!(
            "{{\"workload\": {{\"kind\": \"{kind}\", \"seed\": {seed}, \"length\": 4000}}}}"
        );
        let spec = JobSpec::parse(&base).unwrap();
        let home = ring.route(&spec.source_key()).unwrap();
        assert_eq!(rebuilt.route(&spec.source_key()), Some(home), "restart moved {base}");

        // Spellings that change run options but not the record stream
        // must keep the shard: that is what keeps per-stream caches hot.
        let spellings = [
            format!(
                "{{\"workload\": {{\"kind\": \"{kind}\", \"seed\": {seed}, \"length\": 4000}}, \
                 \"epochs\": 7}}"
            ),
            format!(
                "{{\"warmup\": 250, \"workload\": {{\"length\": 4000, \"seed\": {seed}, \
                 \"kind\": \"{kind}\"}}}}"
            ),
            format!(
                "{{\"workload\": {{\"kind\": \"{kind}\", \"seed\": {seed}, \"length\": 4000}}, \
                 \"prefetcher\": \"next-line\"}}"
            ),
        ];
        for spelling in &spellings {
            let respelled = JobSpec::parse(spelling).unwrap();
            assert_eq!(
                ring.route(&respelled.source_key()),
                Some(home),
                "respelling moved the stream off its shard: {spelling}"
            );
        }
    }
}

/// The exact bytes of the bodies the router builds itself: `/healthz`
/// before and after the drain, an error whose message quotes an id, and
/// the `/shutdown` answer.
#[test]
fn router_bodies_keep_their_bytes() {
    let backends = [start_backend(4, 1), start_backend(4, 1)];
    let addrs: Vec<String> = backends.iter().map(|b| b.local_addr().to_string()).collect();
    let router = start_router(addrs.clone());
    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();
    let mut body = |method: &str, path: &str| {
        let response = conn.send(method, path, "").unwrap();
        (response.status, response.text())
    };
    let healthz = |status: &str| {
        format!(
            r#"{{"status":"{status}","backends":2,"healthy_backends":2,"shards":[{{"shard":"s0","addr":"{}","healthy":true}},{{"shard":"s1","addr":"{}","healthy":true}}]}}"#,
            addrs[0], addrs[1]
        )
    };

    assert_eq!(body("GET", "/healthz"), (200, healthz("ok")));
    assert_eq!(
        body("GET", "/jobs/bogus"),
        (404, r#"{"error":"malformed job id (router job ids look like \"s0-17\")"}"#.to_owned())
    );
    assert_eq!(body("POST", "/shutdown"), (200, r#"{"status":"shutting down"}"#.to_owned()));
    assert_eq!(body("GET", "/healthz"), (200, healthz("draining")));
    router.join();
    for backend in backends {
        backend.join();
    }
}

/// A fake backend on a test listener that answers keep-alive HTTP:
/// `/healthz` is ok, `/jobs/<n>` is a done job `n`, anything else an
/// empty metrics document. With `close_each` it hangs up after every
/// response without saying `connection: close`. Returns its address
/// and the count of connections whose first request is not a health
/// probe.
fn fake_backend(close_each: bool) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let forwards = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&forwards);
    // Detached: the listener lives as long as the test process.
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let counted = Arc::clone(&counted);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut first = true;
                while let Ok(Some(request)) = read_request(&mut reader) {
                    if first && request.path != "/healthz" {
                        counted.fetch_add(1, Ordering::SeqCst);
                    }
                    first = false;
                    let body = match request.path.strip_prefix("/jobs/") {
                        _ if request.path == "/healthz" => r#"{"status":"ok"}"#.to_owned(),
                        Some(id) => format!(r#"{{"id":{id},"status":"done"}}"#),
                        None => r#"{"metrics":[]}"#.to_owned(),
                    };
                    if Response::json(200, body).write(&mut stream, false).is_err() || close_each {
                        return;
                    }
                }
            });
        }
    });
    (addr, forwards)
}

/// A counter out of a router's metrics document.
fn counter(doc: &str, name: &str) -> u64 {
    Value::parse(doc).unwrap().metric(name).and_then(Value::as_u64).unwrap()
}

/// Twenty routed status polls reach the backend over at most the pool
/// cap of connections (health probes aside), and the router's counters
/// say the same.
#[test]
fn routed_requests_reuse_pooled_backend_connections() {
    let (addr, forwards) = fake_backend(false);
    let router = start_router(vec![addr]);
    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();
    for _ in 0..20 {
        let response = conn.send("GET", "/jobs/s0-1", "").unwrap();
        assert_eq!(
            (response.status, response.text().as_str()),
            (200, r#"{"id":"s0-1","status":"done"}"#)
        );
    }
    let opened = forwards.load(Ordering::SeqCst);
    assert!((1..=BACKEND_POOL_CAP).contains(&opened), "20 forwards opened {opened} connections");
    // The scrape behind this document is one more pooled forward.
    let doc = router.metrics_json();
    assert_eq!(counter(&doc, "router.backend.connects"), opened as u64);
    assert_eq!(counter(&doc, "router.backend.reused"), 21 - opened as u64);
    router.join();
}

/// A backend that hangs up after every response, without announcing
/// it, still answers every routed request: each stale pooled connection
/// is retried once on a fresh one, which is no failover hop.
#[test]
fn backend_closing_after_each_response_still_serves_every_forward() {
    let (addr, forwards) = fake_backend(true);
    let router = start_router(vec![addr]);
    let mut conn = Connection::connect(&router.local_addr().to_string()).unwrap();
    for n in 1..=20 {
        let response = conn.send("GET", &format!("/jobs/s0-{n}"), "").unwrap();
        assert_eq!(response.status, 200, "forward {n}: {}", response.text());
        assert_eq!(response.text(), format!(r#"{{"id":"s0-{n}","status":"done"}}"#));
    }
    // Every forward, and the scrape behind this document, needed a new
    // connection.
    let doc = router.metrics_json();
    assert_eq!(forwards.load(Ordering::SeqCst), 21);
    assert_eq!(counter(&doc, "router.backend.connects"), 21);
    assert_eq!(counter(&doc, "router.backend.reused"), 0);
    assert_eq!(counter(&doc, "router.jobs.retried"), 0);
    router.join();
}

/// With no client traffic at all, both joins return promptly: the
/// blocked accept loops are woken, not left to a poll. The router
/// listens on the unspecified address, so its wake-up goes to loopback.
/// A missing wake fails under the watchdog instead of hanging the test.
#[test]
fn idle_server_and_router_join_promptly() {
    let backend = start_backend(4, 1);
    let router = Router::start(RouterConfig {
        addr: "0.0.0.0:0".to_owned(),
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let (joined, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        router.join();
        let _ = joined.send("router");
        backend.join();
        let _ = joined.send("server");
    });
    for service in ["router", "server"] {
        let joined = watchdog.recv_timeout(Duration::from_secs(5));
        assert_eq!(joined, Ok(service), "{service} join hung");
    }
}
