//! Differential tests: `Simulator::run_iter` (a record stream) must
//! produce bit-for-bit the same `SimReport` as `Simulator::run_on` (a
//! record slice) on every workload shape the engine's unit tests
//! exercise, plus a seeded property sweep over random record mixes. Both
//! are one-lane `Simulator::run_fused` passes, so this pins that the
//! engine loop sees the same records and lookahead from either source.
//!
//! Equality is checked on a full fingerprint of the report: the scalar
//! counters plus the exported telemetry registry (deterministic JSON —
//! the registry is BTreeMap-backed), which folds in every cache, branch,
//! pipeline and component metric the engine tracks.

use champsim_trace::pattern;
use champsim_trace::{regs, ChampsimRecord};
use sim::{CoreConfig, RunOptions, Simulator};
use telemetry::Registry;

/// Deterministic, exhaustive digest of a report.
fn fingerprint(report: &sim::SimReport) -> String {
    let mut registry = Registry::new();
    report.export(&mut registry);
    format!("i={} c={} {}", report.instructions, report.cycles, registry.to_json())
}

/// Runs `records` through both entry points and asserts identical
/// reports. `options` builds a fresh `RunOptions` per run (it is not
/// `Clone` — it may carry a boxed prefetcher).
fn assert_streaming_matches(
    records: &[ChampsimRecord],
    options: impl Fn() -> RunOptions,
    what: &str,
) {
    for config in [CoreConfig::test_small(), CoreConfig::iiswc_main()] {
        let slice_report = Simulator::run_on(&config, records, options());
        let iter_report = Simulator::new(config).run_iter(records.to_vec(), options());
        assert_eq!(
            fingerprint(&slice_report),
            fingerprint(&iter_report),
            "run_on vs run_iter diverged on {what}"
        );
    }
}

fn straight_line(n: u64) -> Vec<ChampsimRecord> {
    (0..n).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect()
}

#[test]
fn straight_line_code() {
    assert_streaming_matches(&straight_line(20_000), RunOptions::default, "straight line");
}

#[test]
fn dependent_alu_chain() {
    let mut records = Vec::new();
    for i in 0..20_000u64 {
        let mut r = ChampsimRecord::new(0x1000 + i * 4);
        r.add_source_register(regs::arch(1));
        r.add_destination_register(regs::arch(1));
        records.push(r);
    }
    assert_streaming_matches(&records, RunOptions::default, "dependent chain");
}

#[test]
fn pointer_chase_loads() {
    let mut records = Vec::new();
    for i in 0..5_000u64 {
        let mut r = ChampsimRecord::new(0x1000 + i * 4);
        r.add_source_register(regs::arch(1));
        r.add_destination_register(regs::arch(1));
        r.add_source_memory(0x10_0000 + (i.wrapping_mul(0x9e3779b97f4a7c15) % (1 << 28)));
        records.push(r);
    }
    assert_streaming_matches(&records, RunOptions::default, "pointer chase");
}

#[test]
fn loop_branches_and_stores() {
    let mut records = Vec::new();
    for i in 0..10_000u64 {
        let mut s = ChampsimRecord::new(0x1000 + (i % 8) * 4);
        s.add_source_register(regs::arch(2));
        s.add_destination_memory(0x20_0000 + (i % 512) * 8);
        records.push(s);
        if i % 8 == 7 {
            let mut b = pattern::conditional(0x1000 + 8 * 4, true);
            b.set_ip(0x1020);
            records.push(b);
        }
    }
    assert_streaming_matches(&records, RunOptions::default, "loop branches + stores");
}

#[test]
fn random_branches() {
    let mut state = 42u64;
    let mut records = Vec::new();
    for i in 0..20_000u64 {
        let ip = 0x1000 + (i % 64) * 4;
        if i % 4 == 3 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            records.push(pattern::conditional(ip, state >> 63 == 1));
        } else {
            records.push(ChampsimRecord::new(ip));
        }
    }
    assert_streaming_matches(&records, RunOptions::default, "random branches");
}

#[test]
fn calls_and_returns() {
    // Nested call/return pairs exercising the RAS and the BTB.
    let mut records = Vec::new();
    for i in 0..4_000u64 {
        records.push(pattern::direct_call(0x1000 + (i % 4) * 0x100, true));
        records.push(ChampsimRecord::new(0x9000 + (i % 4) * 0x40));
        records.push(pattern::ret(0x9004 + (i % 4) * 0x40, true));
        records.push(ChampsimRecord::new(0x1008 + (i % 4) * 0x100));
    }
    assert_streaming_matches(&records, RunOptions::default, "calls and returns");
}

#[test]
fn warmup_window() {
    assert_streaming_matches(
        &straight_line(20_000),
        || RunOptions::default().with_warmup(5_000),
        "warm-up window",
    );
}

#[test]
fn epoch_series() {
    assert_streaming_matches(
        &straight_line(12_000),
        || RunOptions::default().with_epochs(1_000),
        "epoch series",
    );
}

/// Instruction prefetching is the path the in-flight prefetch table sits
/// on; a large sparse instruction footprint keeps it busy.
#[test]
fn instruction_prefetcher_inflight_path() {
    let mut records = Vec::new();
    for i in 0..30_000u64 {
        records.push(ChampsimRecord::new(0x40_0000 + (i % 4_096) * 64));
    }
    for name in ["next-line", "djolt", "mana"] {
        let options = || {
            RunOptions::default()
                .with_prefetcher(iprefetch::by_name(name).expect("known prefetcher"))
        };
        let slice_report = Simulator::run_on(&CoreConfig::test_small(), &records, options());
        let iter_report =
            Simulator::new(CoreConfig::test_small()).run_iter(records.clone(), options());
        assert_eq!(
            fingerprint(&slice_report),
            fingerprint(&iter_report),
            "run_on vs run_iter diverged under the {name} prefetcher"
        );
    }
}

/// Seeded property sweep: random mixes of ALU ops, loads, stores, and
/// every branch flavour must stream identically.
#[test]
fn random_workload_mixes() {
    for seed in 0..8u64 {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut records = Vec::new();
        for i in 0..8_000u64 {
            let ip = 0x1000 + (rng() % 256) * 4;
            let mut r = match rng() % 10 {
                0 => pattern::conditional(ip, rng() % 2 == 0),
                1 => pattern::direct_jump(ip, true),
                2 => pattern::direct_call(ip, true),
                3 => pattern::ret(ip, true),
                4 => pattern::indirect_jump(ip, true, regs::arch((rng() % 16) as u8)),
                _ => ChampsimRecord::new(0x1000 + i * 4),
            };
            if !r.is_branch() {
                if rng() % 3 == 0 {
                    r.add_source_memory(0x10_0000 + (rng() % (1 << 20)));
                }
                if rng() % 5 == 0 {
                    r.add_destination_memory(0x80_0000 + (rng() % (1 << 16)));
                }
                r.add_source_register(regs::arch((rng() % 8) as u8));
                r.add_destination_register(regs::arch((rng() % 8) as u8));
            }
            records.push(r);
        }
        assert_streaming_matches(&records, RunOptions::default, &format!("seed {seed} mix"));
    }
}
