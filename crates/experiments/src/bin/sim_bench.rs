//! Simulator throughput benchmark: MIPS per workload family.
//!
//! ```text
//! sim_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>]
//!           [--check <baseline.json>] [--tolerance <pct>]
//! ```
//!
//! For each synthetic workload family the harness generates one trace,
//! converts it once with every improvement enabled, then repeatedly
//! simulates it on the paper's main configuration. The families are
//! timed in interleaved rounds (one simulation of each per round), so a
//! slow spell of the host slows every family alike; each family reports
//! the median, min and max seconds of its simulations, and millions of
//! retired records per second of its fastest simulation (the
//! `sim.throughput.mips` gauge). The fastest is the one a busy host
//! leaves alone: on a shared 2-vCPU VM the median iteration of every
//! family slowed by about a third during busy spells lasting several
//! runs, while the fastest moved by about 5%.
//! The RISC-V E-Trace families (`rv-int`, `rv-stream`,
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
//! lacks, fails the run (exit 1) and names the field. Usage and I/O
//! errors exit 2.
//! One-off phase timings (generate/convert/simulate CPU seconds) go to
//! the `--metrics` telemetry document as `experiments.phase_seconds.*`;
//! they are host measurements and never appear in the deterministic
//! `experiments --metrics` output.

use std::time::Instant;

use converter::{Converter, ImprovementSet};
use experiments::bench::{measure_interleaved, FAMILIES, SIM_BENCH};
use sim::{CoreConfig, RunOptions, Simulator};
use telemetry::{catalog, json};

struct FamilyResult {
    family: String,
    instructions: u64,
    iterations: u32,
    median_seconds: f64,
    min_seconds: f64,
    max_seconds: f64,
    mips: f64,
}

fn main() {
    let args = SIM_BENCH.args(|_, _| Ok(false));
    let core = CoreConfig::iiswc_main();
    let mut traces = Vec::new();
    let (mut generate, mut convert) = (0.0, 0.0);
    for family in FAMILIES {
        let start = Instant::now();
        let trace = family.generate(args.scale.trace_length);
        generate += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let records = Converter::new(ImprovementSet::all()).convert_all(trace.cvp.iter());
        convert += start.elapsed().as_secs_f64();
        traces.push((trace.name, records));
    }
    let run = |i: usize| Simulator::run_on(&core, &traces[i].1, RunOptions::default());
    let samples = measure_interleaved(traces.len(), run);
    let mut results = Vec::new();
    for (i, samples) in samples.iter().enumerate() {
        let instructions = run(i).instructions;
        let mips = instructions as f64 / 1e6 / samples.min;
        let (family, iterations) = (traces[i].0.clone(), samples.iterations);
        eprintln!(
            "[sim_bench] {family}: {mips:.2} MIPS ({instructions} records, {iterations} \
             iterations, {:.3}-{:.3} ms)",
            samples.min * 1e3,
            samples.max * 1e3
        );
        results.push(FamilyResult {
            family,
            instructions,
            iterations,
            median_seconds: samples.median,
            min_seconds: samples.min,
            max_seconds: samples.max,
            mips,
        });
    }
    let simulate: f64 = samples.iter().map(|s| s.total).sum();
    let aggregate = aggregate_mips(&results);
    eprintln!("[sim_bench] aggregate: {aggregate:.2} MIPS");

    let mut registry = telemetry::Registry::new();
    registry.label("scale", &args.scale_name);
    registry.gauge(&catalog::SIM_THROUGHPUT_MIPS, aggregate);
    for r in &results {
        registry.gauge_at(&catalog::SIM_THROUGHPUT_FAMILY_MIPS, &r.family, r.mips);
    }
    for (phase, seconds) in [("generate", generate), ("convert", convert), ("simulate", simulate)] {
        registry.gauge_at(&catalog::EXP_PHASE_SECONDS, phase, seconds);
    }
    let document = document(&args.scale_name, &results, aggregate);
    SIM_BENCH.finish(&args, &document, Some(&registry));
}

/// Record-weighted aggregate throughput: total records per summed
/// fastest time of one pass over every family.
fn aggregate_mips(results: &[FamilyResult]) -> f64 {
    let records: u64 = results.iter().map(|r| r.instructions).sum();
    let seconds: f64 = results.iter().map(|r| r.min_seconds).sum();
    records as f64 / 1e6 / seconds
}

fn document(scale: &str, results: &[FamilyResult], aggregate: f64) -> String {
    json::object(|o| {
        o.str("scale", scale)
            .objects("results", results, |row, r| {
                row.str("family", &r.family)
                    .u64("instructions", r.instructions)
                    .u64("iterations", r.iterations.into())
                    .f64("median_seconds", r.median_seconds)
                    .f64("min_seconds", r.min_seconds)
                    .f64("max_seconds", r.max_seconds)
                    .f64("mips", r.mips);
            })
            .f64("aggregate_mips", aggregate);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Value;

    /// Rows read back from the committed baseline write a document
    /// equal to it: same field names, nesting, order and values.
    #[test]
    fn document_reproduces_the_committed_baseline() {
        let committed = Value::parse(include_str!("../../../../BENCH_sim.json")).unwrap();
        let Some(Value::Array(rows)) = committed.get("results") else { panic!("results") };
        let number = |row: &Value, key: &str| row.get(key).and_then(Value::as_f64).unwrap();
        let results: Vec<FamilyResult> = rows
            .iter()
            .map(|row| FamilyResult {
                family: row.get("family").and_then(Value::as_str).unwrap().to_owned(),
                instructions: number(row, "instructions") as u64,
                iterations: number(row, "iterations") as u32,
                median_seconds: number(row, "median_seconds"),
                min_seconds: number(row, "min_seconds"),
                max_seconds: number(row, "max_seconds"),
                mips: number(row, "mips"),
            })
            .collect();
        let scale = committed.get("scale").and_then(Value::as_str).unwrap();
        let aggregate = number(&committed, "aggregate_mips");
        assert_eq!(Value::parse(&document(scale, &results, aggregate)).unwrap(), committed);
    }
}
