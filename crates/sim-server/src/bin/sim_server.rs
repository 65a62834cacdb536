//! The simulation job server.
//!
//! ```text
//! sim_server [--addr HOST:PORT] [--queue-depth N] [--workers N]
//!            [--job-timeout SECONDS] [--max-batch N] [--result-cache N]
//!            [--addr-file <path>] [--metrics <path>]
//! ```
//!
//! Binds the address (`127.0.0.1:0` picks an ephemeral port; the bound
//! address is printed and, with `--addr-file`, written to a file so
//! scripts can discover it), serves the job API, and runs until SIGINT,
//! SIGTERM, or `POST /shutdown`. The first signal drains gracefully —
//! submissions get `503`, queued and running jobs finish; a second
//! signal escalates to abort, cancelling the backlog and tripping every
//! in-flight job's cancel token. `--metrics` writes the final `server.*`
//! telemetry document after the drain.

use std::process::ExitCode;
use std::time::Duration;

use sim_server::{run_until_shutdown, Server, ServerConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim_server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServerConfig { addr: "127.0.0.1:4600".to_owned(), ..ServerConfig::default() };
    let mut addr_file: Option<String> = None;
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().ok_or("--addr needs host:port")?,
            "--queue-depth" => {
                config.queue_depth = args.next().ok_or("--queue-depth needs a count")?.parse()?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be positive".into());
                }
            }
            "--workers" => {
                config.workers = args.next().ok_or("--workers needs a count")?.parse()?;
                if config.workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--job-timeout" => {
                let seconds: u64 = args.next().ok_or("--job-timeout needs seconds")?.parse()?;
                if seconds == 0 {
                    return Err("--job-timeout must be positive".into());
                }
                config.job_timeout = Duration::from_secs(seconds);
            }
            "--max-batch" => {
                config.max_batch = args.next().ok_or("--max-batch needs a count")?.parse()?;
                if config.max_batch == 0 {
                    return Err("--max-batch must be positive (1 disables batching)".into());
                }
            }
            "--result-cache" => {
                config.result_cache_entries = args
                    .next()
                    .ok_or("--result-cache needs an entry count (0 disables)")?
                    .parse()?;
            }
            "--addr-file" => addr_file = Some(args.next().ok_or("--addr-file needs a path")?),
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "-h" | "--help" => {
                eprintln!(
                    "usage: sim_server [--addr HOST:PORT] [--queue-depth N] [--workers N] \
                     [--job-timeout SECONDS] [--max-batch N] [--result-cache N] \
                     [--addr-file <path>] [--metrics <path>]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let server =
        Server::start(config.clone()).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr();
    println!(
        "sim_server: listening on {addr} (queue depth {}, {} workers, max batch {}, \
         result cache {})",
        config.queue_depth,
        config.workers.max(1),
        config.max_batch,
        config.result_cache_entries
    );
    Ok(run_until_shutdown(
        "sim_server",
        addr,
        server.shutdown_handle(),
        || server.join(),
        addr_file.as_deref(),
        metrics_path.as_deref(),
    )?)
}
