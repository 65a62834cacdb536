//! Front-end study: the §4.4 discussion, executed.
//!
//! The paper closes its IPC-1 re-evaluation by pointing at Ishii et
//! al.'s observation: with an industry-like *decoupled* front-end in the
//! baseline, dedicated instruction prefetchers gain far less, because
//! fetch-directed run-ahead already prefetches the predicted path.
//!
//! This example measures exactly that: one large-footprint server trace,
//! the same prefetcher, on a coupled versus a decoupled front-end.
//!
//! ```text
//! cargo run --release --example frontend_study
//! ```

use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::iprefetch;
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

fn speedup(core: &CoreConfig, records: &[trace_rebase::champsim::ChampsimRecord]) -> (f64, f64) {
    // One pass over the trace drives both cores: without and with D-JOLT.
    let lanes = [
        (core, RunOptions::default()),
        (
            core,
            RunOptions::default().with_prefetcher(iprefetch::by_name("djolt").expect("known name")),
        ),
    ];
    let reports = Simulator::run_fused(lanes, records.iter().copied());
    let base = reports[0].ipc();
    (base, reports[1].ipc() / base)
}

fn main() {
    let spec = TraceSpec::new("frontend-server", WorkloadKind::Server, 23)
        .with_code_functions(1500)
        .with_length(150_000);
    let mut converter = Converter::new(ImprovementSet::all());
    let records = converter.convert_all(spec.generate().iter());

    let coupled =
        CoreConfig { decoupled_frontend: false, frontend_lookahead: 0, ..CoreConfig::iiswc_main() };
    let decoupled = CoreConfig::iiswc_main();

    let (ipc_c, speedup_c) = speedup(&coupled, &records);
    let (ipc_d, speedup_d) = speedup(&decoupled, &records);

    println!("coupled front-end:   baseline IPC {ipc_c:.3}, D-JOLT speedup {speedup_c:.4}");
    println!("decoupled front-end: baseline IPC {ipc_d:.3}, D-JOLT speedup {speedup_d:.4}");
    println!(
        "\nThe decoupled baseline is already faster and leaves the dedicated\n\
         prefetcher much less to win — the reason the paper declines to rank\n\
         IPC-1 prefetchers on the modern ChampSim and calls for a new\n\
         instruction prefetching championship."
    );
}
