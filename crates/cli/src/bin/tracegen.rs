//! Generates synthetic CVP-1 and RISC-V E-Trace traces.
//!
//! ```text
//! tracegen --kind <kind> --seed N --length N -o <out.cvp> [--metrics <path>]
//! tracegen --kind <rv-kind> --seed N --length N -o <out.etrace>
//! tracegen --suite cvp1|ipc1|rv --name <trace> --length N -o <out>
//! tracegen --suite cvp1|ipc1|rv --list
//! ```
//!
//! ARM-flavoured CVP kinds (`pointer-chase`, `streaming`, `crypto`,
//! `branchy-int`, `server`, `fp-kernel`) write CVP-1 record streams; an
//! output path ending in `.cvpz` writes a block-compressed store
//! instead of a flat stream. RISC-V kinds (`rv-int`, `rv-stream`,
//! `rv-dispatch`) write packetized `.etrace` branch traces (program
//! image + E-Trace control/memory streams). `--metrics` writes the
//! `workloads.*` telemetry document (plus `store.*` counters in store
//! mode, `etrace.*` counters in E-Trace mode; see METRICS.md).

use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;

use etrace::EtraceWriter;
use trace_store::{is_etrace_path, CvpTraceWriter};
use workloads::{
    cvp1_public_suite, ipc1_suite, rv_suite, RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracegen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload family: ARM-flavoured CVP records or RISC-V E-Trace.
enum Kind {
    Cvp(WorkloadKind),
    Rv(RvWorkloadKind),
}

fn parse_kind(name: &str) -> Result<Kind, String> {
    name.parse()
        .map(Kind::Cvp)
        .or_else(|_| name.parse().map(Kind::Rv))
        .map_err(|_| format!("unknown kind {name:?}"))
}

/// A resolved generation job for either family.
enum Job {
    Cvp(TraceSpec),
    Rv(RvTraceSpec),
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut kind: Option<Kind> = None;
    let mut suite: Option<String> = None;
    let mut name: Option<String> = None;
    let mut seed = 1u64;
    let mut length = 100_000usize;
    let mut out: Option<String> = None;
    let mut list = false;
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--kind" => kind = Some(parse_kind(&args.next().ok_or("--kind needs a name")?)?),
            "--suite" => suite = Some(args.next().ok_or("--suite needs cvp1, ipc1 or rv")?),
            "--name" => name = Some(args.next().ok_or("--name needs a trace name")?),
            "--seed" => seed = cli::flag_value("--seed", "a value", args.next())?,
            "--length" => length = cli::positive_flag_value("--length", "a count", args.next())?,
            "-o" | "--output" => out = Some(args.next().ok_or("-o needs a path")?),
            "--list" => list = true,
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "-h" | "--help" => {
                eprintln!(
                    "usage: tracegen --kind <pointer-chase|streaming|crypto|branchy-int|server|fp-kernel> \
                     --seed N --length N -o <out.cvp> [--metrics <path>]\n\
                     \x20      tracegen --kind <rv-int|rv-stream|rv-dispatch> --seed N --length N -o <out.etrace>\n\
                     \x20      tracegen --suite cvp1|ipc1|rv --name <trace> --length N -o <out>\n\
                     \x20      tracegen --suite cvp1|ipc1|rv --list"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    let suite_specs = |s: &str| -> Result<Vec<TraceSpec>, String> {
        match s {
            "cvp1" => Ok(cvp1_public_suite()),
            "ipc1" => Ok(ipc1_suite()),
            other => Err(format!("unknown suite {other:?}")),
        }
    };

    if list {
        let suite = suite.ok_or("--list needs --suite")?;
        if suite == "rv" {
            for spec in rv_suite() {
                println!("{:<20} kind={} seed={}", spec.name(), spec.kind(), spec.seed());
            }
        } else {
            for spec in suite_specs(&suite)? {
                println!("{:<20} kind={} seed={}", spec.name(), spec.kind(), spec.seed());
            }
        }
        return Ok(());
    }

    let job = match (&suite, &name, kind) {
        (Some(s), Some(n), _) if s == "rv" => Job::Rv(
            rv_suite()
                .into_iter()
                .find(|t| t.name() == n)
                .ok_or_else(|| format!("trace {n:?} not in suite {s:?}"))?
                .with_length(length),
        ),
        (Some(s), Some(n), _) => Job::Cvp(
            suite_specs(s)?
                .into_iter()
                .find(|t| t.name() == n)
                .ok_or_else(|| format!("trace {n:?} not in suite {s:?}"))?
                .with_length(length),
        ),
        (None, None, Some(Kind::Cvp(k))) => {
            Job::Cvp(TraceSpec::new("custom", k, seed).with_length(length))
        }
        (None, None, Some(Kind::Rv(k))) => {
            Job::Rv(RvTraceSpec::new("custom", k, seed).with_length(length))
        }
        _ => return Err("give either --kind, or --suite with --name".into()),
    };

    let out = out.ok_or("missing -o <out.cvp|out.etrace>")?;
    match job {
        Job::Cvp(spec) => {
            let mut writer =
                CvpTraceWriter::create(Path::new(&out)).map_err(|e| format!("{out}: {e}"))?;
            for insn in spec.generate() {
                writer.write(&insn).map_err(|e| format!("{out}: {e}"))?;
            }
            let records = writer.records_written();
            let store_stats = writer.finish().map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {records} instructions to {out}");
            if let Some(stats) = &store_stats {
                eprintln!("{}", cli::store_summary(stats));
            }
            if let Some(path) = metrics_path {
                let mut registry = telemetry::Registry::new();
                registry.label("tool", "tracegen");
                registry.label("trace", spec.name());
                registry.label("kind", &spec.kind().to_string());
                registry.counter(&telemetry::catalog::WORKLOADS_GENERATED_INSTRUCTIONS, records);
                if let Some(stats) = &store_stats {
                    cli::export_store_stats(stats, &mut registry);
                }
                cli::write_metrics(&path, &registry)?;
            }
        }
        Job::Rv(spec) => {
            if !is_etrace_path(Path::new(&out)) {
                return Err(format!(
                    "{out}: RISC-V workloads write E-Trace packet streams; use -o <out.etrace>"
                )
                .into());
            }
            let (program, items) = spec.generate();
            let file = std::fs::File::create(&out).map_err(|e| format!("{out}: {e}"))?;
            let mut writer = EtraceWriter::new(BufWriter::new(file), &program)
                .map_err(|e| format!("{out}: {e}"))?;
            for item in &items {
                writer.write(item).map_err(|e| format!("{out}: {e}"))?;
            }
            let (mut sink, stats) = writer.finish().map_err(|e| format!("{out}: {e}"))?;
            std::io::Write::flush(&mut sink).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {} instructions to {out}", stats.items);
            eprintln!("{}", cli::etrace_summary(&stats));
            if let Some(path) = metrics_path {
                let mut registry = telemetry::Registry::new();
                registry.label("tool", "tracegen");
                registry.label("trace", spec.name());
                registry.label("kind", &spec.kind().to_string());
                registry
                    .counter(&telemetry::catalog::WORKLOADS_GENERATED_INSTRUCTIONS, stats.items);
                cli::export_etrace_stats(&stats, &mut registry);
                cli::write_metrics(&path, &registry)?;
            }
        }
    }
    Ok(())
}
