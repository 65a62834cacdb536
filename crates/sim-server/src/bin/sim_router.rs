//! The sharding router binary.
//!
//! ```text
//! sim_router --backend HOST:PORT [--backend HOST:PORT …]
//!            [--addr HOST:PORT] [--vnodes N] [--health-interval MS]
//!            [--connect-timeout MS] [--addr-file <path>] [--metrics <path>]
//! ```
//!
//! Fronts the listed `sim_server` backends: routes submissions by the
//! job spec's canonical source key on a consistent-hash ring, fails
//! over refused or unreachable shards to the next ring replica, probes
//! `/healthz` to eject and re-admit backends, and aggregates fleet
//! metrics under `router.*`. SIGINT, SIGTERM, or `POST /shutdown`
//! starts a drain: new submissions get `503` while in-flight proxied
//! requests, status polls, and result fetches finish. `--metrics`
//! writes the final `router.*` telemetry document after the drain.

use std::process::ExitCode;
use std::time::Duration;

use sim_server::{run_until_shutdown, Router, RouterConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim_router: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = RouterConfig { addr: "127.0.0.1:4700".to_owned(), ..RouterConfig::default() };
    let mut addr_file: Option<String> = None;
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().ok_or("--addr needs host:port")?,
            "--backend" => {
                config.backends.push(args.next().ok_or("--backend needs host:port")?);
            }
            "--vnodes" => {
                config.vnodes = args.next().ok_or("--vnodes needs a count")?.parse()?;
                if config.vnodes == 0 {
                    return Err("--vnodes must be positive".into());
                }
            }
            "--health-interval" => {
                let ms: u64 = args.next().ok_or("--health-interval needs milliseconds")?.parse()?;
                if ms == 0 {
                    return Err("--health-interval must be positive".into());
                }
                config.health_interval = Duration::from_millis(ms);
            }
            "--connect-timeout" => {
                let ms: u64 = args.next().ok_or("--connect-timeout needs milliseconds")?.parse()?;
                if ms == 0 {
                    return Err("--connect-timeout must be positive".into());
                }
                config.connect_timeout = Duration::from_millis(ms);
            }
            "--addr-file" => addr_file = Some(args.next().ok_or("--addr-file needs a path")?),
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "-h" | "--help" => {
                eprintln!(
                    "usage: sim_router --backend HOST:PORT [--backend HOST:PORT ...] \
                     [--addr HOST:PORT] [--vnodes N] [--health-interval MS] \
                     [--connect-timeout MS] [--addr-file <path>] [--metrics <path>]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if config.backends.is_empty() {
        return Err("at least one --backend is required".into());
    }

    let backends = config.backends.clone();
    let router =
        Router::start(config.clone()).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = router.local_addr();
    println!(
        "sim_router: listening on {addr}, fronting {} shard(s): {} ({} healthy at startup)",
        backends.len(),
        backends.join(", "),
        router.healthy_backends()
    );
    Ok(run_until_shutdown(
        "sim_router",
        addr,
        router.shutdown_handle(),
        || router.join(),
        addr_file.as_deref(),
        metrics_path.as_deref(),
    )?)
}
