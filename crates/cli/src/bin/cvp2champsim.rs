//! The paper's converter CLI, with the artifact's interface:
//!
//! ```text
//! cvp2champsim -t <trace.cvp> [-i <improvement>] [-o <out.champsimtrace>]
//!              [--stats] [--metrics <path>]
//! ```
//!
//! Streams a CVP-1 binary trace (compressed `.cvpz`, a RISC-V `.etrace`
//! branch trace decoded to CVP records on the fly, or flat CVP-1 under
//! any other name) through `cli::TraceSource`,
//! converting it with the selected improvement set (`No_imp` by
//! default, as in the original tool), and writes ChampSim 64-byte
//! records to `-o` or standard output; an output path ending in
//! `.champsimz` writes a block-compressed store. `--stats` prints the
//! conversion statistics to standard error; `--metrics` writes the
//! `convert.*` telemetry document (plus `store.*` counters in store
//! mode; see METRICS.md).

use std::io::{self, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use champsim_trace::ChampsimWriter;
use cli::{TraceFormat, TraceSource};
use converter::ImprovementSet;
use trace_store::{ChampsimTraceWriter, StoreStats};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cvp2champsim: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut improvements = ImprovementSet::none();
    let mut show_stats = false;
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-t" | "--trace" => trace_path = Some(args.next().ok_or("-t needs a path")?),
            "-o" | "--output" => out_path = Some(args.next().ok_or("-o needs a path")?),
            "-i" | "--improvement" => {
                improvements = args.next().ok_or("-i needs an improvement name")?.parse()?;
            }
            "--stats" => show_stats = true,
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "-h" | "--help" => {
                eprintln!(
                    "usage: cvp2champsim -t <trace.cvp|trace.etrace> [-i <improvement>] \
                     [-o <out.champsimtrace>] [--stats] [--metrics <path>]\n\
                     improvements: No_imp (default), All_imps, Memory_imps, Branch_imps,\n\
                     imp_mem-regs, imp_base-update, imp_mem-footprint, imp_call-stack,\n\
                     imp_branch-regs, imp_flag-regs"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let trace_path = trace_path.ok_or("missing -t <trace.cvp>")?;
    let mut source = TraceSource::open(&trace_path, TraceFormat::Cvp, improvements)?;

    // `-o` dispatches on extension (`.champsimz` = compressed store);
    // standard output is always a flat record stream.
    enum Sink {
        File(ChampsimTraceWriter),
        Stdout(ChampsimWriter<BufWriter<io::Stdout>>),
    }
    let mut sink = match &out_path {
        Some(p) => {
            Sink::File(ChampsimTraceWriter::create(Path::new(p)).map_err(|e| format!("{p}: {e}"))?)
        }
        None => Sink::Stdout(ChampsimWriter::new(BufWriter::new(io::stdout()))),
    };
    for rec in source.by_ref() {
        match &mut sink {
            Sink::File(w) => w.write(&rec)?,
            Sink::Stdout(w) => w.write(&rec)?,
        }
    }
    let conversion = source.finish()?;
    let store_stats: Option<StoreStats> = match sink {
        Sink::File(w) => w.finish()?,
        Sink::Stdout(mut w) => {
            w.flush()?;
            None
        }
    };

    if show_stats {
        eprintln!("{conversion}");
        if let Some(stats) = &store_stats {
            eprintln!("{}", cli::store_summary(stats));
        }
    }
    if let Some(path) = metrics_path {
        let mut registry = telemetry::Registry::new();
        registry.label("tool", "cvp2champsim");
        registry.label("trace", &trace_path);
        registry.label("improvements", &improvements.to_string());
        conversion.export(improvements, &mut registry);
        if let Some(stats) = &store_stats {
            cli::export_store_stats(stats, &mut registry);
        }
        cli::write_metrics(&path, &registry)?;
    }
    Ok(())
}
