//! Component costs: a workload's own branch, memory and fetch streams
//! replayed through the public predictor, cache-hierarchy and
//! prefetcher APIs.

use std::hint::black_box;
use std::time::Instant;

use bpred::{Btb, DirectionPredictor, IndirectPredictor, Ittage, ReturnAddressStack, Tage};
use champsim_trace::{BranchRules, BranchType, ChampsimRecord};
use iprefetch::FetchEvent;
use memsys::{Hierarchy, HierarchyConfig};
use sim::CoreConfig;

use crate::phase::Metrics;

/// The instruction prefetchers of the `serve` sweep.
pub const SWEEP_PREFETCHERS: [&str; 7] =
    ["next-line", "djolt", "jip", "mana", "pips", "epi", "barca"];

struct Branch {
    pc: u64,
    target: u64,
    taken: bool,
    kind: BranchType,
}

fn branches(records: &[ChampsimRecord]) -> Vec<Branch> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_branch())
        .map(|(i, r)| Branch {
            pc: r.ip(),
            target: records.get(i + 1).map_or(0, ChampsimRecord::ip),
            taken: r.branch_taken(),
            kind: BranchRules::Patched.classify(r),
        })
        .collect()
}

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// Nanoseconds per operation for TAGE, ITTAGE, BTB, RAS and the cache
/// hierarchy over `records`.
pub fn measure(core: &CoreConfig, records: &[ChampsimRecord]) -> Metrics {
    let branches = branches(records);
    let mut m = Metrics::default();

    let mut tage = Tage::default_64kb();
    let conditional: Vec<&Branch> =
        branches.iter().filter(|b| b.kind == BranchType::Conditional).collect();
    let start = Instant::now();
    for b in &conditional {
        black_box(tage.predict(b.pc));
        tage.update(b.pc, b.taken);
    }
    m.push("bpred.tage.ns_per_branch", ns_per(start, conditional.len()), "ns");

    let mut ittage = Ittage::default_64kb();
    let start = Instant::now();
    for b in &branches {
        if b.kind == BranchType::Conditional {
            ittage.push_history(b.taken);
        } else if matches!(b.kind, BranchType::Indirect | BranchType::IndirectCall) {
            black_box(ittage.predict(b.pc));
            ittage.update(b.pc, b.target);
        }
    }
    m.push("bpred.ittage.ns_per_branch", ns_per(start, branches.len()), "ns");

    let mut btb = Btb::new(core.btb_entries, core.btb_ways);
    let start = Instant::now();
    for b in &branches {
        black_box(btb.lookup(b.pc));
        if b.taken {
            btb.update(b.pc, b.target, b.kind);
        }
    }
    m.push("bpred.btb.ns_per_lookup", ns_per(start, branches.len()), "ns");

    let mut ras = ReturnAddressStack::new(core.ras_size);
    let mut ops = 0usize;
    let start = Instant::now();
    for b in &branches {
        if b.kind.is_call() {
            ras.push(b.pc + 4);
            ops += 1;
        } else if b.kind == BranchType::Return {
            black_box(ras.pop());
            ops += 1;
        }
    }
    m.push("bpred.ras.ns_per_op", ns_per(start, ops), "ns");

    let mut hierarchy = Hierarchy::new(HierarchyConfig::iiswc_main());
    let mut accesses = 0usize;
    let start = Instant::now();
    for r in records {
        black_box(hierarchy.access_instruction(r.ip()));
        for address in r.source_memory() {
            black_box(hierarchy.access_data(r.ip(), address, false));
        }
        for address in r.destination_memory() {
            black_box(hierarchy.access_data(r.ip(), address, true));
        }
        accesses += 1 + r.source_memory().count() + r.destination_memory().count();
    }
    m.push("memsys.hierarchy.ns_per_access", ns_per(start, accesses), "ns");
    m
}

/// Nanoseconds per fetch event for each prefetcher of the `serve`
/// sweep, over the fetch stream of `records`.
pub fn measure_prefetchers(records: &[ChampsimRecord]) -> Metrics {
    // The fetch stream: one event per new instruction block, with the
    // miss flag an L1I of the IPC-1 core would report.
    let mut l1i = Hierarchy::new(HierarchyConfig::ipc1());
    let mut events = Vec::new();
    let mut last_block = u64::MAX;
    for (i, r) in records.iter().enumerate() {
        let block = r.ip() / 64;
        if block != last_block {
            let miss = !l1i.instruction_line_present(r.ip());
            l1i.access_instruction(r.ip());
            events.push((FetchEvent { block, miss }, None));
            last_block = block;
        }
        if r.is_branch() {
            let target = records.get(i + 1).map_or(0, ChampsimRecord::ip);
            if let Some((_, branch)) = events.last_mut() {
                *branch = Some((r.ip(), target, r.branch_taken()));
            }
        }
    }
    let mut m = Metrics::default();
    let mut out = Vec::new();
    for name in SWEEP_PREFETCHERS {
        let mut pf = iprefetch::by_name(name).expect("sweep prefetchers are registered");
        let start = Instant::now();
        for (event, branch) in &events {
            out.clear();
            pf.on_fetch(*event, &mut out);
            black_box(&out);
            if let Some((pc, target, taken)) = branch {
                pf.on_branch(*pc, *target, *taken);
            }
        }
        m.push(format!("iprefetch.{name}.ns_per_fetch"), ns_per(start, events.len()), "ns");
    }
    m
}
