//! Quickstart: the paper's headline experiment on one trace.
//!
//! Generates a synthetic CVP-1 server trace, converts it with the
//! original converter and with all six improvements, simulates both on
//! the paper's main core, and prints how the projected performance
//! changes — the single-trace version of Figure 1.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

fn main() {
    // A server-style workload with indirect calls through X30 — the
    // kind the original converter mangles (§3.2.1).
    let spec = TraceSpec::new("quickstart-server", WorkloadKind::Server, 7)
        .with_x30_call_fraction(0.2)
        .with_length(120_000);
    let cvp_trace = spec.generate();
    println!("generated {} CVP-1 instructions ({})", cvp_trace.len(), spec.kind());

    let core = CoreConfig::iiswc_main();
    let mut results = Vec::new();
    for improvements in [ImprovementSet::none(), ImprovementSet::all()] {
        let mut converter = Converter::new(improvements);
        let records = converter.convert_all(cvp_trace.iter());
        let report = Simulator::run_on(&core, &records, RunOptions::default());
        println!("\n=== conversion: {improvements} ===");
        println!("{} records after conversion", records.len());
        println!("{report}");
        results.push(report.ipc());
    }

    let delta = (results[1] / results[0] - 1.0) * 100.0;
    println!("\nIPC variation from the improved conversion: {delta:+.2}%");
    println!("(the paper finds per-trace variations beyond ±5% in 43 of 135 public traces)");
}
