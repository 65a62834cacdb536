//! End-to-end tests against a live in-process server: byte-identity of
//! fetched results with the local CLI pipeline, 429 backpressure,
//! graceful and aborting shutdown, deadlines, and corrupt-store jobs.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use champsim_trace::{ChampsimRecord, ChampsimWriter};
use converter::{Converter, ImprovementSet};
use sim::{CoreConfig, RunOptions, Simulator};
use sim_server::json::Value;
use sim_server::{Connection, Server, ServerConfig};
use trace_store::{ChampsimTraceReader, ChampsimzWriter};
use workloads::{TraceSpec, WorkloadKind};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_records(length: usize) -> Vec<ChampsimRecord> {
    let spec = TraceSpec::new("server-test", WorkloadKind::Crypto, 0x5e12).with_length(length);
    Converter::new(ImprovementSet::all()).convert_all(spec.generate().iter())
}

fn write_flat(path: &Path, records: &[ChampsimRecord]) {
    let mut writer = ChampsimWriter::new(BufWriter::new(File::create(path).unwrap()));
    for rec in records {
        writer.write(rec).unwrap();
    }
    writer.flush().unwrap();
}

fn write_store(path: &Path, records: &[ChampsimRecord]) {
    let mut writer =
        ChampsimzWriter::with_block_records(BufWriter::new(File::create(path).unwrap()), 256)
            .unwrap();
    for rec in records {
        writer.write(rec).unwrap();
    }
    let (mut inner, _stats) = writer.finish().unwrap();
    inner.flush().unwrap();
}

fn start_server(queue_depth: usize, workers: usize, job_timeout: Duration) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth,
        workers,
        job_timeout,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Reads a counter value out of a `/metrics` registry document.
fn metric_count(doc: &str, name: &str) -> u64 {
    let doc = Value::parse(doc).unwrap();
    doc.metric(name).and_then(Value::as_u64).unwrap_or_else(|| panic!("no count {name}"))
}

/// Reads a job's status with one poll.
fn poll_status(conn: &mut Connection, id: &str) -> String {
    let body = conn.send("GET", &format!("/jobs/{id}"), "").unwrap().text();
    Value::parse(&body).unwrap().get("status").and_then(Value::as_str).unwrap().to_owned()
}

/// The correctness anchor: a trace job fetched over HTTP is
/// byte-identical to what `champsim-run --metrics` computes locally for
/// the same trace and options, for both flat and block-compressed
/// files.
#[test]
fn trace_job_result_matches_local_champsim_run_bytes() {
    let dir = scratch_dir("identity");
    let records = sample_records(3_000);
    let flat = dir.join("t.champsimtrace");
    let store = dir.join("t.champsimz");
    write_flat(&flat, &records);
    write_store(&store, &records);

    let server = start_server(4, 2, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    for path in [&flat, &store] {
        let path_text = path.to_str().unwrap();
        // Exactly what the champsim-run binary does with
        // `--warmup 100 --epochs 500 --metrics`.
        let local_records: Vec<ChampsimRecord> =
            ChampsimTraceReader::open(path).unwrap().collect::<Result<_, _>>().unwrap();
        let options = RunOptions::default().with_warmup(100).with_epochs(500);
        let report = Simulator::run_on(&CoreConfig::iiswc_main(), &local_records, options);
        let local_doc = cli::champsim_run_registry(&report, "iiswc", path_text).to_json();

        let body = format!("{{\"trace\": \"{path_text}\", \"warmup\": 100, \"epochs\": 500}}");
        let served_doc = conn.run(&body, Duration::from_secs(60)).unwrap();
        assert_eq!(served_doc, local_doc, "server and local documents differ for {path_text}");
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same anchor for the RISC-V frontend: an `.etrace` job fetched
/// over HTTP is byte-identical to the local champsim-run path (decode,
/// convert under the default improvement set, simulate, export).
#[test]
fn etrace_job_result_matches_local_champsim_run_bytes() {
    let dir = scratch_dir("etrace-identity");
    let path = dir.join("rv.etrace");
    let (program, items) =
        workloads::RvTraceSpec::new("rv", workloads::RvWorkloadKind::Dispatch, 0x5e13)
            .with_length(4_000)
            .generate();
    let mut writer = etrace::EtraceWriter::new(Vec::new(), &program).unwrap();
    for item in &items {
        writer.write(item).unwrap();
    }
    let (bytes, stats) = writer.finish().unwrap();
    assert!(stats.compression_ratio() > 3.0, "{:?}", stats);
    std::fs::write(&path, bytes).unwrap();
    let path_text = path.to_str().unwrap();

    // Exactly what `champsim-run <rv.etrace> --warmup 100 --metrics` does.
    let cvp: Vec<cvp_trace::CvpInstruction> =
        trace_store::CvpTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
    let local_records = Converter::new(ImprovementSet::none()).convert_all(cvp.iter());
    let options = RunOptions::default().with_warmup(100);
    let report = Simulator::run_on(&CoreConfig::iiswc_main(), &local_records, options);
    let local_doc = cli::champsim_run_registry(&report, "iiswc", path_text).to_json();

    let server = start_server(4, 2, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let body = format!("{{\"trace\": \"{path_text}\", \"warmup\": 100}}");
    let served_doc = conn.run(&body, Duration::from_secs(60)).unwrap();
    assert_eq!(served_doc, local_doc, "served .etrace document differs from local champsim-run");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full queue answers `429` with a `Retry-After` hint and the server
/// stays healthy; the queue depth reported by `/healthz` never exceeds
/// the configured capacity.
#[test]
fn overflow_gets_429_with_retry_after() {
    let server = start_server(1, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let mut accepted = 0;
    let mut rejected = 0;
    // Distinct seeds: identical specs would coalesce onto the running
    // job instead of overflowing the queue.
    for seed in 0..10 {
        let body = format!(
            "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {seed}, \"length\": 30000}}}}"
        );
        let response = conn.send("POST", "/jobs", &body).unwrap();
        match response.status {
            202 => accepted += 1,
            429 => {
                assert_eq!(response.header("retry-after"), Some("1"));
                rejected += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(accepted >= 1, "at least one job admitted");
    assert!(rejected >= 1, "a depth-1 queue under burst must reject");
    let health = conn.send("GET", "/healthz", "").unwrap().text();
    assert!(health.contains("\"queue_capacity\":1"), "{health}");
    let metrics = server.metrics_json();
    assert_eq!(metric_count(&metrics, "server.jobs.accepted"), accepted);
    assert_eq!(metric_count(&metrics, "server.jobs.rejected"), rejected);
    server.join();
}

/// Graceful shutdown: new submissions get `503`, but everything already
/// accepted drains to completion and stays pollable during the drain.
#[test]
fn graceful_shutdown_drains_accepted_jobs() {
    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let body = r#"{"workload": {"kind": "streaming", "seed": 2, "length": 8000}}"#;
    let ids: Vec<String> = (0..3).map(|_| conn.submit(body).unwrap()).collect();

    server.begin_shutdown(false);
    let refused = conn.send("POST", "/jobs", body).unwrap();
    assert_eq!(refused.status, 503, "draining server refuses new work");
    assert!(conn.send("GET", "/healthz", "").unwrap().text().contains("draining"));

    for id in &ids {
        let status = conn.wait(id, Duration::from_secs(60)).unwrap();
        assert_eq!(status, "done", "job {id} must finish during the drain");
        let doc = conn.fetch(id).unwrap();
        assert!(doc.contains("sim.ipc"), "drained job result is a metrics document");
    }
    assert_eq!(metric_count(&server.metrics_json(), "server.jobs.completed"), 3);
    server.join();
}

/// Abort shutdown: the queued backlog is cancelled without running.
#[test]
fn abort_shutdown_cancels_queued_jobs() {
    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    // One slow-ish job occupies the single worker; the rest queue up.
    let body = r#"{"workload": {"kind": "crypto", "seed": 3, "length": 60000}}"#;
    let ids: Vec<String> = (0..4).map(|_| conn.submit(body).unwrap()).collect();

    server.begin_shutdown(true);
    let mut cancelled = 0;
    for id in &ids {
        let status = conn.wait(id, Duration::from_secs(60)).unwrap();
        if status == "cancelled" {
            cancelled += 1;
            let result = conn.send("GET", &format!("/jobs/{id}/result"), "").unwrap();
            assert_eq!(result.status, 409);
            assert!(result.text().contains("cancelled"));
        }
    }
    assert!(cancelled >= 2, "abort must cancel the queued backlog, got {cancelled}");
    server.join();
}

/// A job whose deadline expires before (or while) it runs reports
/// `cancelled`, not `done`.
#[test]
fn job_deadline_cancels_overlong_jobs() {
    let server = start_server(4, 1, Duration::from_millis(1));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let id =
        conn.submit(r#"{"workload": {"kind": "crypto", "seed": 4, "length": 50000}}"#).unwrap();
    let status = conn.wait(&id, Duration::from_secs(30)).unwrap();
    assert_eq!(status, "cancelled");
    server.join();
}

/// A `.champsimz` cut mid-block fails the job with the path and block
/// in the diagnostic — the storage corruption surfaces through the
/// server instead of panicking a worker.
#[test]
fn truncated_store_job_fails_with_diagnostic() {
    let dir = scratch_dir("truncated");
    let store = dir.join("cut.champsimz");
    write_store(&store, &sample_records(2_000));
    let bytes = std::fs::read(&store).unwrap();
    // Cut inside a compressed block payload, well past the header.
    std::fs::write(&store, &bytes[..bytes.len() / 2]).unwrap();

    let server = start_server(4, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let body = format!("{{\"trace\": \"{}\"}}", store.to_str().unwrap());
    let id = conn.submit(&body).unwrap();
    assert_eq!(conn.wait(&id, Duration::from_secs(30)).unwrap(), "failed");
    let result = conn.send("GET", &format!("/jobs/{id}/result"), "").unwrap();
    assert_eq!(result.status, 409);
    let text = result.text();
    assert!(text.contains("cut.champsimz"), "diagnostic names the path: {text}");
    assert!(text.contains("block"), "diagnostic names the block: {text}");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed execution is not memoized: resubmitting the truncated-store
/// job runs it again and fails with the same diagnostic.
#[test]
fn resubmitted_failed_job_runs_again() {
    let dir = scratch_dir("truncated-again");
    let store = dir.join("cut.champsimz");
    write_store(&store, &sample_records(2_000));
    let bytes = std::fs::read(&store).unwrap();
    std::fs::write(&store, &bytes[..bytes.len() / 2]).unwrap();

    let server = start_server(4, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let body = format!("{{\"trace\": \"{}\"}}", store.to_str().unwrap());
    let diagnostics: Vec<String> = (0..2)
        .map(|_| {
            let id = conn.submit(&body).unwrap();
            assert_eq!(conn.wait(&id, Duration::from_secs(30)).unwrap(), "failed");
            let result = conn.send("GET", &format!("/jobs/{id}/result"), "").unwrap();
            assert_eq!(result.status, 409);
            let error = Value::parse(&result.text()).unwrap();
            error.get("error").and_then(Value::as_str).unwrap().to_owned()
        })
        .collect();
    assert!(diagnostics[0].contains("cut.champsimz"), "{}", diagnostics[0]);
    assert_eq!(diagnostics[0], diagnostics[1], "the rerun fails the same way");
    let metrics = conn.send("GET", "/metrics", "").unwrap().text();
    assert_eq!(metric_count(&metrics, "server.jobs.failed"), 2, "{metrics}");
    assert_eq!(metric_count(&metrics, "server.result_cache.hits"), 0, "{metrics}");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol-level error paths: malformed bodies, bad ids, unknown
/// endpoints, wrong methods.
#[test]
fn api_error_paths_are_diagnosed_not_dropped() {
    let server = start_server(4, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();

    let bad_json = conn.send("POST", "/jobs", "{not json").unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.text().contains("at byte"), "{}", bad_json.text());

    let bad_spec = conn.send("POST", "/jobs", r#"{"workload": {"kind": "quantum"}}"#).unwrap();
    assert_eq!(bad_spec.status, 400);
    assert!(bad_spec.text().contains("unknown workload kind"));

    assert_eq!(conn.send("GET", "/jobs/999", "").unwrap().status, 404);
    assert_eq!(conn.send("GET", "/jobs/bogus", "").unwrap().status, 404);
    assert_eq!(conn.send("GET", "/nope", "").unwrap().status, 404);
    assert_eq!(conn.send("DELETE", "/jobs", "").unwrap().status, 405);

    let metrics = conn.send("GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("server.jobs.accepted"));
    server.join();
}

/// A worker that finds several configs of the same trace co-queued
/// fuses them into one streaming pass — and each fused result is
/// byte-identical to a solo local `champsim-run --metrics` with the
/// same options.
#[test]
fn fused_batch_results_match_local_runs_bytewise() {
    let dir = scratch_dir("fused");
    let records = sample_records(3_000);
    let store = dir.join("fused.champsimz");
    write_store(&store, &records);
    let path_text = store.to_str().unwrap();

    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    // A decoy with a different source occupies the single worker while
    // the trace configs queue up, so the planner claims them together.
    let decoy = r#"{"workload": {"kind": "crypto", "seed": 41, "length": 60000}}"#;
    conn.submit(decoy).unwrap();

    // Heterogeneous run options over one record stream.
    let bodies = [
        format!("{{\"trace\": \"{path_text}\", \"warmup\": 100, \"epochs\": 500}}"),
        format!("{{\"trace\": \"{path_text}\", \"warmup\": 100, \"prefetcher\": \"next-line\"}}"),
        format!("{{\"trace\": \"{path_text}\"}}"),
    ];
    let ids: Vec<String> = bodies.iter().map(|body| conn.submit(body).unwrap()).collect();
    let local_records: Vec<ChampsimRecord> =
        ChampsimTraceReader::open(&store).unwrap().collect::<Result<_, _>>().unwrap();
    let local_options = [
        RunOptions::default().with_warmup(100).with_epochs(500),
        RunOptions::default()
            .with_warmup(100)
            .with_prefetcher(iprefetch::by_name("next-line").unwrap()),
        RunOptions::default(),
    ];
    for (id, options) in ids.iter().zip(local_options) {
        assert_eq!(conn.wait(id, Duration::from_secs(60)).unwrap(), "done");
        let report = Simulator::run_on(&CoreConfig::iiswc_main(), &local_records, options);
        let local_doc = cli::champsim_run_registry(&report, "iiswc", path_text).to_json();
        assert_eq!(conn.fetch(id).unwrap(), local_doc, "fused result differs for job {id}");
    }
    let metrics = conn.send("GET", "/metrics", "").unwrap().text();
    assert!(
        metric_count(&metrics, "server.batch.fused_jobs") >= bodies.len() as u64,
        "the trace configs must have run in one fused pass: {metrics}"
    );
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Identical specs submitted while the first is still in flight attach
/// to its execution: one simulation, identical documents for everyone.
#[test]
fn duplicate_submissions_coalesce_onto_one_execution() {
    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    // Long enough that the duplicates arrive mid-execution.
    let body = r#"{"workload": {"kind": "crypto", "seed": 5, "length": 60000}}"#;
    let ids: Vec<String> = (0..3).map(|_| conn.submit(body).unwrap()).collect();
    let docs: Vec<String> = ids
        .iter()
        .map(|id| {
            assert_eq!(conn.wait(id, Duration::from_secs(60)).unwrap(), "done");
            conn.fetch(id).unwrap()
        })
        .collect();
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[0], docs[2]);
    let metrics = conn.send("GET", "/metrics", "").unwrap().text();
    assert!(
        metric_count(&metrics, "server.jobs.coalesced") >= 2,
        "both duplicates must coalesce: {metrics}"
    );
    assert_eq!(metric_count(&metrics, "server.jobs.completed"), 3, "everyone still completes");
    assert_eq!(metric_count(&metrics, "server.batch.passes"), 1, "one simulation: {metrics}");
    server.join();
}

/// Resubmitting a finished spec is answered from the result cache —
/// the job is born `done` and carries the original document verbatim.
#[test]
fn resubmitted_spec_is_answered_from_the_result_cache() {
    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let body = r#"{"workload": {"kind": "streaming", "seed": 6, "length": 8000}}"#;
    let first = conn.run(body, Duration::from_secs(60)).unwrap();

    let id = conn.submit(body).unwrap();
    assert_eq!(
        conn.wait(&id, Duration::from_secs(60)).unwrap(),
        "done",
        "a cached job needs no polling round-trips"
    );
    assert_eq!(conn.fetch(&id).unwrap(), first, "cached document differs from the original");
    let metrics = conn.send("GET", "/metrics", "").unwrap().text();
    assert!(metric_count(&metrics, "server.result_cache.hits") >= 1, "{metrics}");
    server.join();
}

/// `Connection::run` rides out `429` backpressure with Retry-After /
/// exponential backoff instead of failing the round trip.
#[test]
fn client_run_backs_off_through_an_overloaded_server() {
    let server = start_server(1, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    // A slow job occupies the worker and a second fills the queue, so
    // the next submission is refused until the worker catches up. The
    // queue only frees its slot once the worker pops the first job, so
    // wait for that before filling it.
    let first =
        conn.submit(r#"{"workload": {"kind": "crypto", "seed": 7, "length": 50000}}"#).unwrap();
    let mut status = poll_status(&mut conn, &first);
    while status == "queued" {
        std::thread::sleep(Duration::from_millis(1));
        status = poll_status(&mut conn, &first);
    }
    assert_eq!(status, "running", "the worker must hold the first job");
    conn.submit(r#"{"workload": {"kind": "crypto", "seed": 8, "length": 3000}}"#).unwrap();
    let refused = conn
        .send("POST", "/jobs", r#"{"workload": {"kind": "crypto", "seed": 9, "length": 3000}}"#)
        .unwrap();
    assert_eq!(refused.status, 429, "the queue must be full before run() is exercised");

    let doc = conn
        .run(
            r#"{"workload": {"kind": "crypto", "seed": 9, "length": 3000}}"#,
            Duration::from_secs(60),
        )
        .unwrap();
    assert!(doc.contains("sim.ipc"), "retried job returns a metrics document");
    let rejected = metric_count(&server.metrics_json(), "server.jobs.rejected");
    assert!(rejected >= 1, "the server must actually have pushed back");
    server.join();
}

/// `POST /shutdown` drains like a signal would: subsequent submissions
/// are refused and `join` returns.
#[test]
fn shutdown_endpoint_triggers_drain() {
    let server = start_server(4, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let response = conn.send("POST", "/shutdown", "").unwrap();
    assert_eq!(response.status, 200);
    assert!(server.shutdown_handle().shutdown_requested());
    let refused = conn.send("POST", "/jobs", r#"{"workload": {"kind": "crypto"}}"#).unwrap();
    assert_eq!(refused.status, 503);
    server.join();
}

/// `s` as the inside of a JSON string literal (`"` and `\` escaped).
fn escaped(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Replaces the digits of `"queue_ms"` and `"run_ms"` with `#`, the
/// only host-timing values in a job body.
fn mask_timings(body: &str) -> String {
    let mut out = body.to_owned();
    for key in ["\"queue_ms\":", "\"run_ms\":"] {
        if let Some(at) = out.find(key) {
            let start = at + key.len();
            let digits = out[start..].chars().take_while(char::is_ascii_digit).count();
            out.replace_range(start..start + digits, "#");
        }
    }
    out
}

/// Sends one request and asserts its status and exact body bytes
/// (timings masked).
fn assert_body(conn: &mut Connection, method: &str, path: &str, body: &str, want: (u16, &str)) {
    let response = conn.send(method, path, body).unwrap();
    assert_eq!((response.status, mask_timings(&response.text()).as_str()), want, "{method} {path}");
}

/// The exact bytes of every response body the server builds itself:
/// `/healthz` (ok and draining), the `202` submission, an error, the
/// `/shutdown` answer, a job's status in each state and the three
/// `409` result refusals (failed, not finished, cancelled). The failed
/// job's diagnostic names a path holding `"` and `\`. A job reading a
/// FIFO holds the one worker in `running` until the test releases it.
#[cfg(unix)]
#[test]
fn response_bodies_keep_their_bytes() {
    let dir = scratch_dir("bodies");
    let server = start_server(8, 1, Duration::from_secs(60));
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();
    let healthz = |conn: &mut Connection, want: &str| {
        assert_body(conn, "GET", "/healthz", "", (200, want));
    };

    healthz(&mut conn, r#"{"status":"ok","queue_depth":0,"queue_capacity":8}"#);
    assert_body(
        &mut conn,
        "POST",
        "/jobs",
        r#"{"workload": {"kind": "quantum"}}"#,
        (400, r#"{"error":"unknown workload kind \"quantum\""}"#),
    );
    assert_body(&mut conn, "GET", "/jobs/7", "", (404, r#"{"error":"no such job"}"#));

    let missing = dir.join("no \"such\" \\ trace.cvp");
    let spec = format!(r#"{{"trace": "{}"}}"#, escaped(missing.to_str().unwrap()));
    assert_body(&mut conn, "POST", "/jobs", &spec, (202, r#"{"id":1,"status":"queued"}"#));
    assert_eq!(conn.wait("1", Duration::from_secs(30)).unwrap(), "failed");
    let refusal = conn.send("GET", "/jobs/1/result", "").unwrap().text();
    let message =
        Value::parse(&refusal).unwrap().get("error").unwrap().as_str().unwrap().to_owned();
    assert!(message.contains('"') && message.contains('\\'), "{message}");
    let error = escaped(&message);
    assert_body(
        &mut conn,
        "GET",
        "/jobs/1",
        "",
        (
            200,
            &format!(r#"{{"id":1,"status":"failed","queue_ms":#,"run_ms":#,"error":"{error}"}}"#),
        ),
    );
    assert_body(
        &mut conn,
        "GET",
        "/jobs/1/result",
        "",
        (409, &format!(r#"{{"id":1,"status":"failed","error":"{error}"}}"#)),
    );

    let fifo = dir.join("held.champsimtrace");
    let made = std::process::Command::new("mkfifo").arg(&fifo).status().unwrap();
    assert!(made.success(), "mkfifo {}", fifo.display());
    let spec = format!(r#"{{"trace": "{}"}}"#, escaped(fifo.to_str().unwrap()));
    assert_body(&mut conn, "POST", "/jobs", &spec, (202, r#"{"id":2,"status":"queued"}"#));
    loop {
        match poll_status(&mut conn, "2").as_str() {
            "running" => break,
            "queued" => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("the held job must run, not end {other}"),
        }
    }
    assert_body(
        &mut conn,
        "GET",
        "/jobs/2",
        "",
        (200, r#"{"id":2,"status":"running","queue_ms":#}"#),
    );
    assert_body(
        &mut conn,
        "GET",
        "/jobs/2/result",
        "",
        (409, r#"{"id":2,"status":"running","error":"job not finished"}"#),
    );
    let spec = r#"{"workload": {"kind": "crypto", "seed": 9, "length": 1000}}"#;
    assert_body(&mut conn, "POST", "/jobs", spec, (202, r#"{"id":3,"status":"queued"}"#));
    assert_body(&mut conn, "GET", "/jobs/3", "", (200, r#"{"id":3,"status":"queued"}"#));
    assert_body(
        &mut conn,
        "GET",
        "/jobs/3/result",
        "",
        (409, r#"{"id":3,"status":"queued","error":"job not finished"}"#),
    );
    healthz(&mut conn, r#"{"status":"ok","queue_depth":1,"queue_capacity":8}"#);

    assert_body(
        &mut conn,
        "POST",
        "/shutdown",
        r#"{"abort": true}"#,
        (200, r#"{"status":"shutting down","abort":true}"#),
    );
    assert_body(&mut conn, "GET", "/jobs/3", "", (200, r#"{"id":3,"status":"cancelled"}"#));
    assert_body(
        &mut conn,
        "GET",
        "/jobs/3/result",
        "",
        (409, r#"{"id":3,"status":"cancelled","error":"job was cancelled"}"#),
    );
    healthz(&mut conn, r#"{"status":"draining","queue_depth":0,"queue_capacity":8}"#);

    // Opening the write end lets the held worker's open return; the
    // empty stream then ends its job.
    drop(std::fs::OpenOptions::new().write(true).open(&fifo).unwrap());
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
