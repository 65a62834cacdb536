//! Command-line client for the simulation job server and router.
//!
//! ```text
//! sim_client --server HOST:PORT <command>        (--addr is an alias)
//!
//! commands:
//!   submit (--body '<json>' | --body-file <path>)   print the job id
//!   status <id>                                     print the status JSON
//!   fetch <id>                                      print the result document
//!   run (--body '<json>' | --body-file <path>)      submit, poll, print result
//!       [--timeout SECONDS] [--out <path>]
//!   health                                          print /healthz
//!   metrics                                         print /metrics
//!   shutdown [--abort]                              ask the server to stop
//! ```
//!
//! `--server` takes a bare `sim_server` backend or a `sim_router` front
//! identically — with or without an `http://` prefix. Against a router,
//! job ids come back shard-qualified (`s0-17`) and feed straight into
//! `status`/`fetch`.
//!
//! `run` is the whole round trip and is what the CI smoke test uses:
//! with `--out` the fetched document is written verbatim, byte-for-byte
//! as the server produced it.

use std::process::ExitCode;
use std::time::Duration;

use sim_server::Connection;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim_client: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: sim_client --server HOST:PORT \
    (submit|run (--body '<json>'|--body-file <path>) [--timeout SECONDS] [--out <path>]) \
    | status <id> | fetch <id> | health | metrics | shutdown [--abort]";

/// Accepts `host:port`, `http://host:port`, or `http://host:port/` —
/// routers and backends are addressed identically.
fn normalize_server(raw: &str) -> Result<String, String> {
    if raw.starts_with("https://") {
        return Err(format!(
            "https is not supported ({raw:?}); sim_server and sim_router speak plain HTTP"
        ));
    }
    let addr = raw.strip_prefix("http://").unwrap_or(raw).trim_end_matches('/');
    if addr.is_empty() {
        return Err(format!("empty server address {raw:?}"));
    }
    Ok(addr.to_owned())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr: Option<String> = None;
    let mut command: Option<String> = None;
    let mut body: Option<String> = None;
    let mut id: Option<String> = None;
    let mut timeout = Duration::from_secs(120);
    let mut out: Option<String> = None;
    let mut abort = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" | "--addr" => {
                let raw = args.next().ok_or("--server needs host:port (or an http:// URL)")?;
                addr = Some(normalize_server(&raw)?);
            }
            "--body" => body = Some(args.next().ok_or("--body needs a JSON string")?),
            "--body-file" => {
                let path = args.next().ok_or("--body-file needs a path")?;
                body = Some(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
            }
            "--timeout" => {
                timeout =
                    Duration::from_secs(cli::flag_value("--timeout", "seconds", args.next())?);
            }
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            "--abort" => abort = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_owned());
            }
            other if command.is_some() && id.is_none() && !other.starts_with('-') => {
                // Ids are opaque: numeric from a backend (`17`),
                // shard-qualified from a router (`s0-17`).
                id = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let addr = addr.ok_or("--server is required")?;
    let command = command.ok_or(USAGE)?;
    let mut conn = Connection::connect(&addr)?;

    match command.as_str() {
        "submit" => {
            let body = body.ok_or("submit needs --body or --body-file")?;
            println!("{}", conn.submit(&body)?);
        }
        "status" => {
            let id = id.ok_or("status needs a job id")?;
            let response = conn.send("GET", &format!("/jobs/{id}"), "")?;
            print_api(&response)?;
        }
        "fetch" => {
            let id = id.ok_or("fetch needs a job id")?;
            emit(&conn.fetch(&id)?, out.as_deref())?;
        }
        "run" => {
            let body = body.ok_or("run needs --body or --body-file")?;
            emit(&conn.run(&body, timeout)?, out.as_deref())?;
        }
        "health" => print_api(&conn.send("GET", "/healthz", "")?)?,
        "metrics" => print_api(&conn.send("GET", "/metrics", "")?)?,
        "shutdown" => {
            let body = if abort { "{\"abort\":true}" } else { "" };
            print_api(&conn.send("POST", "/shutdown", body)?)?;
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
    Ok(())
}

/// Writes `document` to `--out` verbatim, or prints it.
fn emit(document: &str, out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    match out {
        Some(path) => {
            std::fs::write(path, document).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{document}"),
    }
    Ok(())
}

/// Prints a response body; non-2xx statuses become errors.
fn print_api(
    response: &sim_server::http::ClientResponse,
) -> Result<(), Box<dyn std::error::Error>> {
    if response.status >= 300 {
        return Err(format!("HTTP {}: {}", response.status, response.text()).into());
    }
    println!("{}", response.text());
    Ok(())
}
