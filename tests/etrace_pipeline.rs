//! End-to-end and property tests for the RISC-V E-Trace frontend: the
//! packet stream must round-trip every seeded synthetic workload, feed
//! the converter and simulator through the shared `.etrace` dispatch,
//! and fail loudly (one line, byte offset) on any mid-stream
//! truncation.

use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::etrace::{EtraceReader, EtraceWriter, TraceItem};
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::store::{rv_items_to_cvp, CvpTraceReader};
use trace_rebase::workloads::rng::Xoshiro256;
use trace_rebase::workloads::{rv_suite, RvTraceSpec, RvWorkloadKind};

fn encode(program: &trace_rebase::etrace::Program, items: &[TraceItem], sync: u64) -> Vec<u8> {
    let mut writer = EtraceWriter::new(Vec::new(), program).unwrap().with_sync_every(sync);
    for item in items {
        writer.write(item).unwrap();
    }
    writer.finish().unwrap().0
}

/// Every suite workload round-trips through the packet layer at several
/// sync cadences, and the writer's and reader's stats agree exactly.
#[test]
fn suite_workloads_round_trip_at_every_sync_cadence() {
    for spec in rv_suite() {
        let spec = spec.with_length(3_000);
        let (program, items) = spec.generate();
        for sync in [2, 63, 4096] {
            let mut writer = EtraceWriter::new(Vec::new(), &program).unwrap().with_sync_every(sync);
            for item in &items {
                writer.write(item).unwrap();
            }
            let (bytes, wstats) = writer.finish().unwrap();
            let mut reader = EtraceReader::new(std::io::Cursor::new(bytes)).unwrap();
            let mut back = Vec::new();
            while let Some(decoded) = reader.read().unwrap() {
                back.push(decoded.item);
            }
            assert_eq!(back, items, "{} sync_every={sync}", spec.name());
            assert_eq!(reader.stats(), wstats, "{} sync_every={sync}", spec.name());
            assert_eq!(reader.stats().sync_recoveries, 0);
        }
    }
}

/// The advertised compression floor holds for every suite workload:
/// the packet stream is at least 3x smaller than flat per-instruction
/// records of the same execution.
#[test]
fn suite_workloads_compress_past_the_floor() {
    for spec in rv_suite() {
        let (program, items) = spec.with_length(4_000).generate();
        let mut writer = EtraceWriter::new(Vec::new(), &program).unwrap();
        for item in &items {
            writer.write(item).unwrap();
        }
        let (_, stats) = writer.finish().unwrap();
        assert!(stats.compression_ratio() > 3.0, "{:?}", stats);
        assert!(stats.bytes_per_instruction() < 3.0, "{:?}", stats);
    }
}

/// Truncating an encoded stream at a seeded random byte — any byte —
/// fails at open or during decode with a one-line lowercase diagnostic
/// carrying a byte offset, and never panics or succeeds silently.
#[test]
fn random_truncations_fail_loudly_with_byte_offsets() {
    let (program, items) =
        RvTraceSpec::new("trunc", RvWorkloadKind::Dispatch, 77).with_length(2_000).generate();
    let bytes = encode(&program, &items, 512);
    let mut rng = Xoshiro256::seed_from_u64(0xe77ace);
    for _ in 0..200 {
        let cut = rng.below(bytes.len() as u64) as usize;
        let err = match EtraceReader::new(std::io::Cursor::new(bytes[..cut].to_vec())) {
            Err(e) => e,
            Ok(mut reader) => loop {
                match reader.read() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("truncation at {cut} decoded cleanly"),
                    Err(e) => break e,
                }
            },
        };
        let msg = err.to_string();
        assert_eq!(msg.lines().count(), 1, "cut={cut}: {msg}");
        assert!(msg.contains("byte") || msg.contains("magic"), "cut={cut}: {msg}");
    }
}

/// Flipping a seeded random byte anywhere in the file never panics the
/// decoder, every surfaced error is a one-line diagnostic with a byte
/// offset, and control-flow corruption is contained: a clean decode
/// with no sync recoveries keeps the pc walk intact up to the last SYNC
/// (memory-address deltas carry no redundancy, by design — like the
/// real E-Trace format, data addresses are not checksummed).
#[test]
fn random_corruption_is_contained_by_syncs() {
    let sync_every = 128usize;
    let (program, items) =
        RvTraceSpec::new("corrupt", RvWorkloadKind::IntLoop, 78).with_length(1_000).generate();
    let bytes = encode(&program, &items, sync_every as u64);
    let last_sync = (items.len() / sync_every) * sync_every;
    let mut rng = Xoshiro256::seed_from_u64(0xc0441);
    let mut detected = 0u32;
    for _ in 0..300 {
        let at = rng.below(bytes.len() as u64) as usize;
        let flip = 1 + rng.below(255) as u8;
        let mut mutated = bytes.clone();
        mutated[at] ^= flip;
        let Ok(mut reader) = EtraceReader::new(std::io::Cursor::new(mutated)) else {
            detected += 1;
            continue;
        };
        let mut decoded = Vec::new();
        let outcome = loop {
            match reader.read() {
                Ok(Some(d)) => decoded.push(d.item),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Err(e) => {
                detected += 1;
                let msg = e.to_string();
                assert_eq!(msg.lines().count(), 1, "at={at}: {msg}");
                assert!(msg.contains("byte") || msg.contains("magic"), "at={at}: {msg}");
            }
            Ok(()) if reader.stats().sync_recoveries > 0 => detected += 1,
            Ok(()) => {
                // Clean and recovery-free: every SYNC checkpoint
                // matched, so the pc walk up to the last one is the
                // original's.
                for (i, (d, orig)) in decoded.iter().zip(&items).enumerate().take(last_sync) {
                    assert_eq!(d.pc, orig.pc, "pc diverged at item {i} (flip at byte {at})");
                }
            }
        }
    }
    assert!(detected > 50, "only {detected}/300 corruptions were detected — syncs inert?");
}

/// The full pipeline speaks `.etrace` end to end: a file written by the
/// generator decodes through the shared `CvpTraceReader` dispatch,
/// matches the direct in-memory mapping record for record, and the
/// simulated reports of both paths are identical.
#[test]
fn etrace_file_feeds_the_pipeline_identically_to_memory() {
    let dir = std::env::temp_dir().join(format!("etrace-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rv.etrace");
    let (program, items) =
        RvTraceSpec::new("pipe", RvWorkloadKind::StreamKernel, 5).with_length(5_000).generate();
    std::fs::write(&path, encode(&program, &items, 4096)).unwrap();

    let direct = rv_items_to_cvp(&program, &items);
    let via_file: Vec<_> = CvpTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(via_file, direct);

    let mut converter = Converter::new(ImprovementSet::all());
    let records = converter.convert_all(via_file.iter());
    let report_file = Simulator::run_on(&CoreConfig::iiswc_main(), &records, RunOptions::default());
    let report_mem = Simulator::run_on(
        &CoreConfig::iiswc_main(),
        &Converter::new(ImprovementSet::all()).convert_all(direct.iter()),
        RunOptions::default(),
    );
    assert_eq!(format!("{report_file}"), format!("{report_mem}"));
    assert!(report_file.instructions > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
