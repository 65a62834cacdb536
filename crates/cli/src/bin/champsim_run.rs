//! Runs a trace through the core model and prints the report.
//!
//! ```text
//! champsim-run <trace> [--core iiswc|ipc1] [--warmup N]
//!              [--prefetcher <name>] [--max N] [--metrics <path>]
//!              [--epochs N] [--improvements <set>]
//! ```
//!
//! Accepts ChampSim traces (flat `.champsimtrace` record files and
//! block-compressed `.champsimz` stores), which run as they are, and
//! CVP-family traces (flat `.cvp`, block-compressed `.cvpz` and
//! packetized `.etrace` RISC-V branch traces), which are decoded and
//! converted in memory under `--improvements` (`No_imp` by default,
//! matching the server) before simulation; `--max` then counts
//! converted records. The core presets
//! match the paper's §4 setups; `--prefetcher` plugs one of the IPC-1
//! instruction prefetchers into the L1I. `--metrics` writes the full
//! `sim.*`/`memsys.*`/`bpred.*` telemetry document (see METRICS.md);
//! `--epochs N` additionally samples cycles and miss counters every N
//! instructions into the document's `epochs` section.

use std::path::Path;
use std::process::ExitCode;

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use sim::{CoreConfig, RunOptions, Simulator};
use trace_store::{is_cvp_family_path, ChampsimTraceReader, CvpTraceReader};

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
            "--warmup" => warmup = args.next().ok_or("--warmup needs a count")?.parse()?,
            "--prefetcher" => prefetcher = Some(args.next().ok_or("--prefetcher needs a name")?),
            "--max" => max_records = args.next().ok_or("--max needs a count")?.parse()?,
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "--epochs" => {
                let n: u64 = args.next().ok_or("--epochs needs a count")?.parse()?;
                if n == 0 {
                    return Err("--epochs must be positive".into());
                }
                epochs = Some(n);
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
    let records: Vec<ChampsimRecord> = if is_cvp_family_path(Path::new(&trace_path)) {
        // Decode the CVP records (or the E-Trace packet stream) and
        // convert them in memory — the same path the server takes for a
        // CVP-family job, which keeps an `.etrace` job's document
        // identical to this one.
        let mut reader = CvpTraceReader::open(Path::new(&trace_path))
            .map_err(|e| format!("{trace_path}: {e}"))?;
        let mut converter = Converter::new(improvements.unwrap_or_else(ImprovementSet::none));
        let mut records = Vec::new();
        while let Some(insn) = reader.read().map_err(|e| format!("{trace_path}: {e}"))? {
            records.extend(converter.convert(&insn));
            if records.len() >= max_records {
                break;
            }
        }
        records.truncate(max_records);
        records
    } else {
        if improvements.is_some() {
            return Err("--improvements only applies to .cvp, .cvpz and .etrace inputs".into());
        }
        let reader = ChampsimTraceReader::open(Path::new(&trace_path))
            .map_err(|e| format!("{trace_path}: {e}"))?;
        let mut records = Vec::new();
        for rec in reader {
            records.push(rec.map_err(|e| format!("{trace_path}: {e}"))?);
            if records.len() >= max_records {
                break;
            }
        }
        records
    };
    if records.is_empty() {
        return Err(format!("{trace_path}: trace contains no records").into());
    }

    let mut options = RunOptions::default().with_warmup(warmup);
    if let Some(n) = epochs {
        options = options.with_epochs(n);
    }
    if let Some(name) = prefetcher {
        let pf = iprefetch_by_name(&name)?;
        options = options.with_prefetcher(pf);
    }
    let core = CoreConfig::by_name(&core_name).expect("--core validated the name");
    let report = Simulator::run_on(&core, &records, options);
    println!("{report}");
    if let Some(path) = metrics_path {
        let registry = cli::champsim_run_registry(&report, &core_name, &trace_path);
        cli::write_metrics(&path, &registry)?;
    }
    Ok(())
}

fn iprefetch_by_name(
    name: &str,
) -> Result<Box<dyn iprefetch::InstructionPrefetcher + Send>, String> {
    iprefetch::by_name(name).ok_or_else(|| format!("unknown prefetcher {name:?}"))
}
