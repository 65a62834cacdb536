//! Simulator throughput benchmark: MIPS per workload family.
//!
//! ```text
//! sim_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>]
//!           [--check <baseline.json>] [--tolerance <pct>]
//! ```
//!
//! For each synthetic workload family the harness generates one trace,
//! converts it once with every improvement enabled, then repeatedly
//! simulates it on the paper's main configuration, reporting millions of
//! retired records per wall-clock second (the `sim.throughput.mips`
//! gauge). The RISC-V E-Trace families (`rv-int`, `rv-stream`,
//! `rv-dispatch`) go through their own frontend — packet-stream
//! reconstruction mapped to CVP records — and then the same convert and
//! simulate phases. Results land in `BENCH_sim.json` (`--out` to
//! redirect).
//!
//! `--check <baseline>` gates the run against a committed
//! `BENCH_sim.json` with [`experiments::bench::gate`] — the CI
//! perf-smoke gate. Each family's `mips` and the overall
//! `aggregate_mips` must reach the baseline value less `--tolerance`
//! percent (default 20); a regression, or a gated field the baseline
//! lacks, fails the run (exit 1) and names the field.
//! One-off phase timings (generate/convert/simulate CPU seconds) go to
//! the `--metrics` telemetry document as `experiments.phase_seconds.*`;
//! they are host measurements and never appear in the deterministic
//! `experiments --metrics` output.

use std::time::Instant;

use converter::{Converter, ImprovementSet};
use experiments::bench::{check_baseline, measure};
use experiments::runner::ExperimentScale;
use sim::{CoreConfig, RunOptions, Simulator};
use telemetry::catalog;
use trace_store::rv_items_to_cvp;
use workloads::{RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind};

/// The benched families: every synthetic workload kind, named as in
/// `WorkloadKind::to_string`.
const FAMILIES: [WorkloadKind; 6] = [
    WorkloadKind::PointerChase,
    WorkloadKind::Streaming,
    WorkloadKind::Crypto,
    WorkloadKind::BranchyInt,
    WorkloadKind::Server,
    WorkloadKind::FpKernel,
];

/// The benched RISC-V families, named as in `RvWorkloadKind::to_string`.
const RV_FAMILIES: [RvWorkloadKind; 3] =
    [RvWorkloadKind::IntLoop, RvWorkloadKind::StreamKernel, RvWorkloadKind::Dispatch];

struct FamilyResult {
    family: String,
    instructions: u64,
    mean_seconds: f64,
    iterations: u32,
    mips: f64,
}

struct PhaseSeconds {
    generate: f64,
    convert: f64,
    simulate: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale_name = "paper".to_string();
    let mut scale = ExperimentScale::paper();
    let mut out_path = "BENCH_sim.json".to_string();
    let mut metrics_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 20.0f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = args.next().unwrap_or_else(|| fail("--scale needs a value"));
                scale = match scale_name.as_str() {
                    "smoke" => ExperimentScale::smoke(),
                    "test" => ExperimentScale::test(),
                    "paper" => ExperimentScale::paper(),
                    other => fail(&format!("--scale must be smoke|test|paper, got {other:?}")),
                };
            }
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out needs a path")),
            "--metrics" => {
                metrics_path = Some(args.next().unwrap_or_else(|| fail("--metrics needs a path")));
            }
            "--check" => {
                baseline_path = Some(args.next().unwrap_or_else(|| fail("--check needs a path")));
            }
            "--tolerance" => {
                tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| *t > 0.0 && *t < 100.0)
                    .unwrap_or_else(|| fail("--tolerance needs a percentage in (0, 100)"));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let core = CoreConfig::iiswc_main();
    let mut results = Vec::new();
    let mut phases = PhaseSeconds { generate: 0.0, convert: 0.0, simulate: 0.0 };
    for kind in FAMILIES {
        let family = kind.to_string();
        let spec =
            TraceSpec::new(format!("bench_{family}"), kind, 0xb1a5).with_length(scale.trace_length);
        let start = Instant::now();
        let cvp = spec.generate();
        phases.generate += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let records = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
        phases.convert += start.elapsed().as_secs_f64();

        let mut simulator = Simulator::new(core.clone());
        let (mean_seconds, iterations) =
            measure(|| simulator.run_with_options(&records, RunOptions::default()));
        phases.simulate += mean_seconds * f64::from(iterations);
        let instructions = simulator.run_with_options(&records, RunOptions::default()).instructions;
        let mips = instructions as f64 / 1e6 / mean_seconds;
        eprintln!("[sim_bench] {family}: {mips:.2} MIPS ({instructions} records, {iterations} iterations)");
        results.push(FamilyResult { family, instructions, mean_seconds, iterations, mips });
    }
    for kind in RV_FAMILIES {
        let family = kind.to_string();
        let spec = RvTraceSpec::new(format!("bench_{family}"), kind, 0xb1a5)
            .with_length(scale.trace_length);
        let start = Instant::now();
        let (program, items) = spec.generate();
        let cvp = rv_items_to_cvp(&program, &items);
        phases.generate += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let records = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
        phases.convert += start.elapsed().as_secs_f64();

        let mut simulator = Simulator::new(core.clone());
        let (mean_seconds, iterations) =
            measure(|| simulator.run_with_options(&records, RunOptions::default()));
        phases.simulate += mean_seconds * f64::from(iterations);
        let instructions = simulator.run_with_options(&records, RunOptions::default()).instructions;
        let mips = instructions as f64 / 1e6 / mean_seconds;
        eprintln!("[sim_bench] {family}: {mips:.2} MIPS ({instructions} records, {iterations} iterations)");
        results.push(FamilyResult { family, instructions, mean_seconds, iterations, mips });
    }
    let aggregate = aggregate_mips(&results);
    eprintln!("[sim_bench] aggregate: {aggregate:.2} MIPS");

    let json = to_json(&scale_name, &results, aggregate);
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("[sim_bench] wrote {out_path}"),
        Err(e) => fail(&format!("could not write {out_path}: {e}")),
    }
    if let Some(path) = &metrics_path {
        let mut registry = telemetry::Registry::new();
        registry.label("scale", &scale_name);
        registry.gauge(&catalog::SIM_THROUGHPUT_MIPS, aggregate);
        for r in &results {
            registry.gauge_at(&catalog::SIM_THROUGHPUT_FAMILY_MIPS, &r.family, r.mips);
        }
        registry.gauge_at(&catalog::EXP_PHASE_SECONDS, "generate", phases.generate);
        registry.gauge_at(&catalog::EXP_PHASE_SECONDS, "convert", phases.convert);
        registry.gauge_at(&catalog::EXP_PHASE_SECONDS, "simulate", phases.simulate);
        match std::fs::write(path, registry.to_json()) {
            Ok(()) => eprintln!("[sim_bench] wrote {path}"),
            Err(e) => fail(&format!("could not write {path}: {e}")),
        }
    }
    if let Some(path) = &baseline_path {
        check_baseline("sim_bench", path, &json, &["mips", "aggregate_mips"], tolerance_pct);
    }
}

/// Record-weighted aggregate throughput: total records per total time of
/// one pass over every family.
fn aggregate_mips(results: &[FamilyResult]) -> f64 {
    let records: u64 = results.iter().map(|r| r.instructions).sum();
    let seconds: f64 = results.iter().map(|r| r.mean_seconds).sum();
    records as f64 / 1e6 / seconds
}

fn to_json(scale: &str, results: &[FamilyResult], aggregate: f64) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"scale\":\"{scale}\",\"results\":["));
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"family\":\"{}\",\"instructions\":{},\"mean_seconds\":{:.6},\
             \"iterations\":{},\"mips\":{:.3}}}",
            r.family, r.instructions, r.mean_seconds, r.iterations, r.mips
        ));
    }
    out.push_str(&format!("],\"aggregate_mips\":{aggregate:.3}}}\n"));
    out
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: sim_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>] \
         [--check <baseline.json>] [--tolerance <pct>]"
    );
    std::process::exit(2);
}
