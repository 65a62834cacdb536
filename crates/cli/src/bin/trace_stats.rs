//! Characterizes a CVP-1 trace: instruction mix plus the conversion
//! statistics of the improved converter.
//!
//! ```text
//! trace-stats <trace.cvp|trace.cvpz|trace.etrace> [-i <improvement>]
//!             [--metrics <path>]
//! ```
//!
//! Accepts flat `.cvp` traces, block-compressed `.cvpz` stores, and
//! packetized `.etrace` RISC-V branch traces (decoded to CVP records on
//! the fly). `--metrics` writes the `cvp.*` mix and `convert.*`
//! conversion telemetry as one JSON document, plus the `etrace.*`
//! decode counters for `.etrace` inputs (see METRICS.md).

use std::path::Path;
use std::process::ExitCode;

use converter::{Converter, ImprovementSet};
use cvp_trace::CvpTraceStats;
use trace_store::CvpTraceReader;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace-stats: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_path: Option<String> = None;
    let mut improvements = ImprovementSet::all();
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-i" | "--improvement" => {
                improvements = args.next().ok_or("-i needs an improvement name")?.parse()?;
            }
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "-h" | "--help" => {
                eprintln!(
                    "usage: trace-stats <trace.cvp|trace.cvpz|trace.etrace> [-i <improvement>] \
                     [--metrics <path>]"
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
    let mut reader =
        CvpTraceReader::open(Path::new(&trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
    let mut stats = CvpTraceStats::new();
    let mut converter = Converter::new(improvements);
    while let Some(insn) = reader.read().map_err(|e| format!("{trace_path}: {e}"))? {
        stats.record(&insn);
        converter.convert(&insn);
    }
    if stats.total() == 0 {
        return Err(format!("{trace_path}: trace contains no instructions").into());
    }
    println!("instruction mix:\n{stats}\n");
    println!("conversion ({}):\n{}", improvements, converter.stats());
    let etrace_stats = reader.etrace_stats();
    if let Some(es) = &etrace_stats {
        println!("\n{}", cli::etrace_summary(es));
    }
    if let Some(path) = metrics_path {
        let mut registry = telemetry::Registry::new();
        registry.label("tool", "trace-stats");
        registry.label("trace", &trace_path);
        registry.label("improvements", &improvements.to_string());
        cli::export_cvp_stats(&stats, &mut registry);
        converter.stats().export(improvements, &mut registry);
        if let Some(es) = &etrace_stats {
            cli::export_etrace_stats(es, &mut registry);
        }
        cli::write_metrics(&path, &registry)?;
    }
    Ok(())
}
