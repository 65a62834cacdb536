//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation runs the same short workload under two (or more)
//! variants of one design decision, reporting both the wall-clock cost
//! and — through eprintln at setup — the modeled-performance effect, so
//! regressions in either direction are visible.

use std::hint::black_box;

use converter::{Converter, Improvement, ImprovementSet, InferenceContext};
use experiments::bench::BenchGroup;
use memsys::ReplacementPolicy;
use sim::{CoreConfig, PredictorKind, RunOptions, SimReport, Simulator};
use workloads::{TraceSpec, WorkloadKind};

const N: usize = 15_000;

fn records(
    kind: WorkloadKind,
    seed: u64,
    imps: ImprovementSet,
) -> Vec<champsim_trace::ChampsimRecord> {
    let trace = TraceSpec::new("ablation", kind, seed).with_length(N).generate();
    Converter::new(imps).convert_all(trace.iter())
}

fn simulate(core: &CoreConfig, recs: &[champsim_trace::ChampsimRecord]) -> SimReport {
    Simulator::run_on(core, recs, RunOptions::default())
}

/// Addressing-mode inference: the cost of the value-tracking heuristic
/// (§3.1.2) versus a converter run that never consults it.
fn ablate_inference() {
    let trace = TraceSpec::new("ablation", WorkloadKind::PointerChase, 9).with_length(N).generate();
    let mut group = BenchGroup::new("ablation_inference");
    group.bench_function("with_inference", || {
        let mut ctx = InferenceContext::new();
        let mut updates = 0u64;
        for insn in &trace {
            if ctx.infer(insn).updates_base() {
                updates += 1;
            }
            ctx.commit(insn);
        }
        black_box(updates)
    });
    group.bench_function("commit_only", || {
        let mut ctx = InferenceContext::new();
        for insn in &trace {
            ctx.commit(insn);
        }
        black_box(ctx.registers().is_known(0))
    });
    group.finish();
}

/// Decoupled front-end: the paper's §4.4 point that a run-ahead fetcher
/// changes instruction-prefetching conclusions.
fn ablate_frontend() {
    let recs = records(WorkloadKind::Server, 10, ImprovementSet::all());
    let decoupled = CoreConfig::iiswc_main();
    let coupled =
        CoreConfig { decoupled_frontend: false, frontend_lookahead: 0, ..CoreConfig::iiswc_main() };
    let ipc_d = simulate(&decoupled, &recs).ipc();
    let ipc_c = simulate(&coupled, &recs).ipc();
    eprintln!("[ablation] decoupled IPC {ipc_d:.3} vs coupled IPC {ipc_c:.3}");
    let mut group = BenchGroup::new("ablation_frontend");
    group.bench_function("decoupled", || black_box(simulate(&decoupled, &recs)));
    group.bench_function("coupled", || black_box(simulate(&coupled, &recs)));
    group.finish();
}

/// Replacement policy across the hierarchy.
fn ablate_replacement() {
    let recs = records(WorkloadKind::Streaming, 11, ImprovementSet::all());
    let mut group = BenchGroup::new("ablation_replacement");
    for (name, policy) in [
        ("lru", ReplacementPolicy::Lru),
        ("srrip", ReplacementPolicy::Srrip),
        ("random", ReplacementPolicy::Random),
    ] {
        let core = CoreConfig {
            hierarchy: CoreConfig::iiswc_main().hierarchy.with_replacement(policy),
            ..CoreConfig::iiswc_main()
        };
        group.bench_function(name, || black_box(simulate(&core, &recs)));
    }
    group.finish();
}

/// Direction predictor tier: bimodal vs gshare vs TAGE.
fn ablate_predictor() {
    let recs = records(WorkloadKind::BranchyInt, 12, ImprovementSet::all());
    let mut group = BenchGroup::new("ablation_predictor");
    for (name, kind) in [
        ("bimodal", PredictorKind::Bimodal(16 * 1024)),
        ("gshare", PredictorKind::Gshare(64 * 1024, 14)),
        ("perceptron", PredictorKind::Perceptron),
        ("tage_small", PredictorKind::TageSmall),
        ("tage_64kb", PredictorKind::Tage64kb),
    ] {
        let core = CoreConfig { predictor: kind, ..CoreConfig::iiswc_main() };
        group.bench_function(name, || black_box(simulate(&core, &recs)));
    }
    group.finish();
}

/// The split-micro-op decision (§3.1.2): converting with and without the
/// base-update split, measuring the end-to-end pipeline cost.
fn ablate_split() {
    let mut group = BenchGroup::new("ablation_split");
    for (name, imps) in [
        ("no_split", ImprovementSet::all().without(Improvement::BaseUpdate)),
        ("split", ImprovementSet::all()),
    ] {
        group.bench_function(name, || {
            let recs = records(WorkloadKind::PointerChase, 13, imps);
            black_box(simulate(&CoreConfig::iiswc_main(), &recs))
        });
    }
    group.finish();
}

/// Address translation on/off (the TLB substrate is opt-in because the
/// paper's configuration does not discuss it).
fn ablate_translation() {
    let recs = records(WorkloadKind::PointerChase, 14, ImprovementSet::all());
    let plain = CoreConfig::iiswc_main();
    let translated = CoreConfig {
        hierarchy: CoreConfig::iiswc_main().hierarchy.with_translation(),
        ..CoreConfig::iiswc_main()
    };
    let mut group = BenchGroup::new("ablation_translation");
    group.bench_function("no_tlb", || black_box(simulate(&plain, &recs)));
    group.bench_function("icelake_tlb", || black_box(simulate(&translated, &recs)));
    group.finish();
}

/// MSHR count: memory-level parallelism ceiling.
fn ablate_mshrs() {
    let recs = records(WorkloadKind::BranchyInt, 15, ImprovementSet::all());
    let mut group = BenchGroup::new("ablation_mshrs");
    for mshrs in [4usize, 16, 32, 128] {
        let core = CoreConfig { l1d_mshrs: mshrs, ..CoreConfig::iiswc_main() };
        group.bench_function(format!("mshrs_{mshrs}"), || black_box(simulate(&core, &recs)));
    }
    group.finish();
}

fn main() {
    ablate_inference();
    ablate_frontend();
    ablate_replacement();
    ablate_predictor();
    ablate_split();
    ablate_translation();
    ablate_mshrs();
}
