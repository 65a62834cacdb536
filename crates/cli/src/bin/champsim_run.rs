//! Runs a trace through the core model and prints the report.
//!
//! ```text
//! champsim-run <trace> [--core iiswc|ipc1] [--warmup N]
//!              [--prefetcher <name>] [--max N] [--metrics <path>]
//!              [--epochs N] [--improvements <set>]
//! ```
//!
//! Accepts the five trace encodings the job server accepts, chosen by
//! extension through `cli::TraceSource`: ChampSim traces (flat
//! `.champsimtrace` record files and block-compressed `.champsimz`
//! stores) run as they are; CVP-family traces (flat `.cvp`,
//! block-compressed `.cvpz` and packetized `.etrace` RISC-V branch
//! traces) are decoded and converted on the fly under `--improvements`
//! (`No_imp` by default, matching the server), and `--max` then counts
//! converted records. Any other extension is rejected. Records stream
//! into the core model, so memory does not grow with trace length. The
//! core presets match the paper's §4 setups; `--prefetcher` plugs one
//! of the IPC-1 instruction prefetchers into the L1I. `--metrics`
//! writes the full `sim.*`/`memsys.*`/`bpred.*` telemetry document (see
//! METRICS.md), with an `improvements` label for converted inputs;
//! `--epochs N` additionally samples cycles and miss counters every N
//! instructions into the document's `epochs` section.

use std::process::ExitCode;

use cli::{TraceFormat, TraceSource};
use converter::ImprovementSet;
use sim::{CoreConfig, RunOptions, Simulator};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("champsim-run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_path: Option<String> = None;
    let mut core_name = "iiswc".to_owned();
    let mut warmup = 0u64;
    let mut prefetcher: Option<String> = None;
    let mut max_records = usize::MAX;
    let mut metrics_path: Option<String> = None;
    let mut epochs: Option<u64> = None;
    let mut improvements: Option<ImprovementSet> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--core" => match args.next() {
                Some(name) if CoreConfig::by_name(&name).is_some() => core_name = name,
                other => return Err(format!("unknown core {other:?}").into()),
            },
            "--warmup" => warmup = cli::flag_value("--warmup", "a count", args.next())?,
            "--prefetcher" => prefetcher = Some(args.next().ok_or("--prefetcher needs a name")?),
            "--max" => max_records = cli::flag_value("--max", "a count", args.next())?,
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "--epochs" => {
                epochs = Some(cli::positive_flag_value("--epochs", "a count", args.next())?)
            }
            "--improvements" => {
                improvements =
                    Some(args.next().ok_or("--improvements needs an improvement name")?.parse()?);
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: champsim-run <trace.champsimtrace|.champsimz|.cvp|.cvpz|.etrace> \
                     [--core iiswc|ipc1] [--warmup N] [--prefetcher none|next-line|djolt|jip|mana|fnl+mma|pips|epi|barca|tap] \
                     [--max N] [--metrics <path>] [--epochs N] [--improvements <set>]"
                );
                return Ok(());
            }
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let trace_path = trace_path.ok_or("missing trace path")?;
    let format = TraceFormat::of(&trace_path)?;
    if improvements.is_some() && !format.converts() {
        return Err("--improvements only applies to .cvp, .cvpz and .etrace inputs".into());
    }
    let improvements = improvements.unwrap_or_default();
    let mut source = TraceSource::open(&trace_path, format, improvements)?;

    let mut options = RunOptions::default().with_warmup(warmup);
    if let Some(n) = epochs {
        options = options.with_epochs(n);
    }
    if let Some(name) = prefetcher {
        let pf = iprefetch::by_name(&name).ok_or_else(|| format!("unknown prefetcher {name:?}"))?;
        options = options.with_prefetcher(pf);
    }
    let core = CoreConfig::by_name(&core_name).expect("--core validated the name");
    let report = Simulator::new(core).run_iter(source.by_ref().take(max_records), options);
    source.finish()?;
    println!("{report}");
    if let Some(path) = metrics_path {
        let label = format.converts().then_some(improvements);
        let registry = cli::champsim_run_registry(&report, &core_name, &trace_path, label);
        cli::write_metrics(&path, &registry)?;
    }
    Ok(())
}
