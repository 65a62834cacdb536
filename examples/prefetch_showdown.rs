//! Prefetch showdown: a miniature Table 3.
//!
//! Runs one IPC-1-style server trace on the contest core with every
//! instruction prefetcher and ranks them by speedup over no
//! prefetching, with the contest's warm-up methodology.
//!
//! ```text
//! cargo run --release --example prefetch_showdown
//! ```

use trace_rebase::converter::{Converter, Improvement, ImprovementSet};
use trace_rebase::iprefetch;
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

fn main() {
    let spec = TraceSpec::new("showdown-server", WorkloadKind::Server, 11)
        .with_code_functions(1200)
        .with_length(150_000);
    // The paper's "fixed traces" for this study: all improvements except
    // mem-footprint (the IPC-1 ChampSim cannot execute multi-address
    // records; footnote 4).
    let mut converter = Converter::new(ImprovementSet::all().without(Improvement::MemFootprint));
    let records = converter.convert_all(spec.generate().iter());
    let warmup = 50_000;

    // One pass over the trace drives a core per prefetcher; the first
    // lane is the no-prefetch baseline.
    let core = CoreConfig::ipc1();
    let names: Vec<&str> = std::iter::once("none")
        .chain(iprefetch::CONTEST_NAMES.iter().copied())
        .chain(std::iter::once("next-line"))
        .collect();
    let lanes = names.iter().map(|name| {
        let pf = iprefetch::by_name(name).expect("known name");
        (&core, RunOptions::default().with_warmup(warmup).with_prefetcher(pf))
    });
    let reports = Simulator::run_fused(lanes, records.iter().copied());
    let baseline = reports[0].ipc();
    println!("baseline (no prefetch): IPC {baseline:.3}\n");

    let mut rows: Vec<(String, f64, f64)> = names[1..]
        .iter()
        .zip(&reports[1..])
        .map(|(name, report)| ((*name).to_owned(), report.ipc() / baseline, report.l1i_mpki()))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    println!("rank prefetcher   speedup   L1I MPKI");
    for (rank, (name, speedup, mpki)) in rows.iter().enumerate() {
        println!("{:>4} {:<12} {:>7.4}   {:>8.2}", rank + 1, name, speedup, mpki);
    }
}
