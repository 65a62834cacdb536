//! Golden model test: pins the numbers the converter and the simulator
//! produce, not just their agreement with each other.
//!
//! The byte-identity gates elsewhere are all relative (fused against
//! solo, served against local, stored against raw), so a rewrite inside
//! the model could shift every IPC and still pass them. This test runs
//! every bench family at 5k instructions on both presets, `No_imp` and
//! `All_imps`, with one fused pass per cell over three lanes (no
//! prefetcher and two contest prefetchers), and compares one line per
//! lane — the FNV-1a digest of the lane's `--metrics` document and its
//! IPC bits — with `tests/golden/model.txt`.
//!
//! A change that moves the model on purpose replaces the golden file
//! with the text the failure prints, and records why in CHANGES.md.

use converter::{Converter, ImprovementSet};
use experiments::bench::FAMILIES;
use sim::{CoreConfig, RunOptions, Simulator};
use telemetry::Registry;

const GOLDEN: &str = include_str!("golden/model.txt");

/// Instructions per family trace.
const LENGTH: usize = 5_000;

/// Records every lane warms up on before measuring.
const WARMUP: u64 = 1_000;

const PRESETS: [&str; 2] = ["iiswc", "ipc1"];

const LANES: [Option<&str>; 3] = [None, Some("djolt"), Some("fnl+mma")];

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The golden file's text as the model computes it now.
fn model_lines() -> String {
    let mut out = String::new();
    for family in FAMILIES {
        let trace = family.generate(LENGTH);
        for preset in PRESETS {
            let core = CoreConfig::by_name(preset).expect("known preset");
            for (label, improvements) in
                [("No_imp", ImprovementSet::none()), ("All_imps", ImprovementSet::all())]
            {
                let lanes = LANES.iter().map(|prefetcher| {
                    let mut options = RunOptions::default().with_warmup(WARMUP);
                    if let Some(name) = prefetcher {
                        options = options
                            .with_prefetcher(iprefetch::by_name(name).expect("contest prefetcher"));
                    }
                    (&core, options)
                });
                let mut converter = Converter::new(improvements);
                let reports = Simulator::run_fused(lanes, converter.stream(trace.cvp.iter()));
                for (report, prefetcher) in reports.iter().zip(LANES) {
                    let mut registry = Registry::new();
                    report.export(&mut registry);
                    let digest = fnv1a(registry.to_json().as_bytes());
                    out.push_str(&format!(
                        "{} {preset} {label} {} {digest:016x} {:016x}\n",
                        trace.name,
                        prefetcher.unwrap_or("no-prefetcher"),
                        report.ipc().to_bits(),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn model_numbers_match_the_golden_file() {
    let actual = model_lines();
    assert_eq!(actual.lines().count(), FAMILIES.len() * PRESETS.len() * 2 * LANES.len());
    if actual != GOLDEN {
        let changed: Vec<&str> =
            actual.lines().filter(|line| !GOLDEN.lines().any(|g| g == *line)).collect();
        panic!(
            "the model's numbers differ from tests/golden/model.txt in {} lines:\n{}\n\n\
             If the change is deliberate, replace the golden file with:\n{actual}",
            changed.len(),
            changed.join("\n"),
        );
    }
}
