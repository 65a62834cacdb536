//! The repository benchmark: four workloads over the trace-rebase
//! stack, end-to-end metrics untraced, per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay|grid|serve|route> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod alloc;
mod components;
mod grid;
mod phase;
mod replay;
mod service;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use sim::SimReport;

use crate::grid::GridWorkload;
use crate::phase::{Metrics, Phase};
use crate::replay::Replay;
use crate::service::{Service, Shape};
use crate::stats::{median, samples_needed};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median, and the last
/// one's state is measured.
const SETUPS: usize = 5;
/// Seconds of each other workload's traced phase in a traced run.
const PROBE_SECONDS: f64 = 2.0;

const WORKLOADS: [&str; 4] = ["replay", "grid", "serve", "route"];

/// The per-layer metrics of a traced run, in print order.
const PER_LAYER: [&str; 46] = [
    "workloads.generate_s",
    "store.cvpz.decode_mb_per_s",
    "store.champsimz.decode_mb_per_s",
    "store.champsimz.encode_mb_per_s",
    "etrace.decode_mb_per_s",
    "replay.decode_s",
    "replay.encode_s",
    "converter.records_per_s",
    "converter.self_s",
    "sim.mips",
    "sim.cell_setup_us",
    "sim.fused_mips_per_lane",
    "bpred.tage.ns_per_branch",
    "bpred.ittage.ns_per_branch",
    "bpred.btb.ns_per_lookup",
    "bpred.ras.ns_per_op",
    "memsys.hierarchy.ns_per_access",
    "iprefetch.next-line.ns_per_fetch",
    "iprefetch.djolt.ns_per_fetch",
    "iprefetch.jip.ns_per_fetch",
    "iprefetch.mana.ns_per_fetch",
    "iprefetch.pips.ns_per_fetch",
    "iprefetch.epi.ns_per_fetch",
    "iprefetch.barca.ns_per_fetch",
    "experiments.cache.trace_hit_rate",
    "experiments.cache.convert_hit_rate",
    "experiments.phase_s.generate",
    "experiments.phase_s.convert",
    "experiments.phase_s.simulate",
    "experiments.scheduler.busy_fraction",
    "server.http_rtt_ms",
    "server.submit_ms",
    "server.queue_wait_ms",
    "server.run_ms",
    "server.execute_ms",
    "server.batch.mean_size",
    "server.result_cache.hit_ratio",
    "server.jobs.coalesced",
    "telemetry.render_ms",
    "router.hop_ms",
    "router.jobs.retried",
    "router.jobs.rejected",
    "trace.overhead_pct",
    "trace.accounted_pct",
    "trace.untraced_primary",
    "trace.traced_primary",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds wants a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64 of `seed` and `salt`: independent per-input seeds from
/// the one benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every statistic of a report, as `SimReport::export` +
/// `Registry::to_json` render it.
pub fn render(report: &SimReport) -> String {
    let mut registry = telemetry::Registry::new();
    report.export(&mut registry);
    registry.to_json()
}

/// A workload after set-up.
enum Running {
    Replay(Replay),
    Grid(GridWorkload),
    Service(Service),
}

impl Running {
    fn setup(workload: &str, seed: u64, dir: &Path) -> Result<Running, String> {
        Ok(match workload {
            "replay" => Running::Replay(Replay::setup(seed, dir)?),
            "grid" => Running::Grid(GridWorkload::setup(seed)?),
            "serve" => Running::Service(Service::setup(Shape::Serve, seed)?),
            _ => Running::Service(Service::setup(Shape::Route, seed)?),
        })
    }

    /// One measured phase of at least `seconds` and `min_ops`
    /// independent operations, and its peak live heap in MB, which
    /// excludes the output checks that follow the phase.
    fn measure(
        &mut self,
        seconds: f64,
        min_ops: usize,
        traced: bool,
    ) -> (Phase, Option<Metrics>, f64) {
        alloc::reset_peak();
        let (phase, layers) = match self {
            Running::Replay(w) => w.measure(seconds, min_ops, traced),
            Running::Grid(w) => w.measure(seconds, min_ops, traced),
            Running::Service(w) => w.measure(seconds, min_ops, traced),
        };
        let peak = phase.peak_heap_bytes.unwrap_or_else(alloc::peak_bytes);
        (phase, layers, peak as f64 / 1e6)
    }

    /// The end-to-end metric a traced run compares with its untraced
    /// phase: simulated throughput, or completed jobs for the services.
    fn primary(&self, phase: &Phase) -> f64 {
        match self {
            Running::Service(_) => phase.ops_per_s(),
            _ => phase.sim_mips(),
        }
    }

    fn shutdown(self) {
        if let Running::Service(s) = self {
            s.shutdown();
        }
    }
}

fn untraced(args: &Args, dir: &Path) -> Result<(Metrics, Phase), String> {
    let mut setups = Vec::new();
    let mut kept: Option<Running> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let running = Running::setup(args.workload, args.seed, dir)?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(running) {
            old.shutdown();
        }
    }
    let mut running = kept.expect("at least one set-up");
    let (phase, _, peak_mb) = running.measure(args.seconds, samples_needed(90), false);
    running.shutdown();
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("sim_mips", phase.sim_mips(), "MIPS");
    m.push("jobs_per_s", phase.ops_per_s(), "1/s");
    m.push("latency_p50_ms", phase.latency_ms(50)?, "ms");
    m.push("latency_p90_ms", phase.latency_ms(90)?, "ms");
    m.push("peak_heap_mb", peak_mb, "MB");
    Ok((m, phase))
}

fn traced(args: &Args, dir: &Path) -> Result<(Metrics, Phase), String> {
    let mut running = Running::setup(args.workload, args.seed, dir)?;
    let (mut total, _, _) = running.measure(args.seconds, samples_needed(90), false);
    let (phase, layers, _) = running.measure(args.seconds, samples_needed(90), true);
    let (untraced, traced) = (running.primary(&total), running.primary(&phase));
    running.shutdown();
    total.absorb_counts(&phase);
    let mut all = layers.expect("traced phases report layers");
    all.push("trace.untraced_primary", untraced, "value");
    all.push("trace.traced_primary", traced, "value");
    all.push("trace.overhead_pct", 100.0 * (1.0 - traced / untraced), "%");
    for other in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
        let mut running = Running::setup(other, args.seed, dir)?;
        let (probe, layers, _) = running.measure(PROBE_SECONDS, 0, true);
        running.shutdown();
        total.absorb_counts(&probe);
        let layers = layers.expect("traced phases report layers");
        all.0.extend(layers.0.into_iter().filter(|(name, _, _)| name != "trace.accounted_pct"));
    }
    let mut ordered = Metrics::default();
    for name in PER_LAYER {
        let (_, value, unit) = all
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| format!("traced run produced no {name}"))?;
        ordered.push(name, *value, unit);
    }
    Ok((ordered, total))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let result = if args.trace { traced(&args, &dir) } else { untraced(&args, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    let (metrics, phase) = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} seed {}: attempted {}, failed {}, refused {}, digest {:016x}",
        args.workload, args.seed, phase.attempted, phase.failed, phase.refused, phase.digest
    );
    println!("{}", metrics.result_line(phase.failed == 0, phase.attempted, phase.failed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use converter::{Converter, ImprovementSet};
    use sim::{CoreConfig, RunOptions, Simulator};
    use workloads::{TraceSpec, WorkloadKind};

    fn simulated_digest(seed: u64) -> u64 {
        let spec = TraceSpec::new("t", WorkloadKind::Server, mix(seed, 1)).with_length(4_000);
        let records = Converter::new(ImprovementSet::all()).convert_all(spec.generate().iter());
        let report = Simulator::run_on(&CoreConfig::iiswc_main(), &records, RunOptions::default());
        stats::Digest::of(render(&report).as_bytes())
    }

    #[test]
    fn report_digest_repeats_across_runs_and_follows_the_seed() {
        assert_eq!(simulated_digest(7), simulated_digest(7));
        assert_ne!(simulated_digest(7), simulated_digest(8));
    }

    #[test]
    fn mix_separates_seeds_and_salts() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_eq!(mix(3, 4), mix(3, 4));
    }
}
