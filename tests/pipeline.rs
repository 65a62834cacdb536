//! Cross-crate integration tests: generate → write → read → convert →
//! simulate, through files and in memory.

use trace_rebase::champsim::{ChampsimReader, ChampsimWriter};
use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::cvp::{CvpReader, CvpWriter};
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

/// A scratch file path in the system temp directory, removed on drop.
struct ScratchFile(std::path::PathBuf);

impl ScratchFile {
    fn new(name: &str) -> ScratchFile {
        let mut p = std::env::temp_dir();
        p.push(format!("trace-rebase-test-{}-{name}", std::process::id()));
        ScratchFile(p)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn cvp_trace_round_trips_through_a_file() {
    let spec = TraceSpec::new("file-roundtrip", WorkloadKind::Server, 5).with_length(5_000);
    let trace = spec.generate();

    let file = ScratchFile::new("roundtrip.cvp");
    let mut writer =
        CvpWriter::new(std::io::BufWriter::new(std::fs::File::create(&file.0).unwrap()));
    for insn in &trace {
        writer.write(insn).unwrap();
    }
    writer.flush().unwrap();

    let reader = CvpReader::new(std::io::BufReader::new(std::fs::File::open(&file.0).unwrap()));
    let back: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
    assert_eq!(back, trace);
}

#[test]
fn champsim_trace_round_trips_through_a_file() {
    let spec = TraceSpec::new("champsim-roundtrip", WorkloadKind::Streaming, 6).with_length(4_000);
    let mut converter = Converter::new(ImprovementSet::all());
    let records = converter.convert_all(spec.generate().iter());

    let file = ScratchFile::new("roundtrip.champsimtrace");
    let mut writer =
        ChampsimWriter::new(std::io::BufWriter::new(std::fs::File::create(&file.0).unwrap()));
    for rec in &records {
        writer.write(rec).unwrap();
    }
    writer.flush().unwrap();

    let reader =
        ChampsimReader::new(std::io::BufReader::new(std::fs::File::open(&file.0).unwrap()));
    let back: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
    assert_eq!(back, records);
}

#[test]
fn file_and_memory_paths_simulate_identically() {
    let spec = TraceSpec::new("identical", WorkloadKind::BranchyInt, 8).with_length(8_000);
    let trace = spec.generate();

    // In-memory path.
    let mut converter = Converter::new(ImprovementSet::memory());
    let records_mem = converter.convert_all(trace.iter());

    // File path.
    let file = ScratchFile::new("identical.cvp");
    let mut writer =
        CvpWriter::new(std::io::BufWriter::new(std::fs::File::create(&file.0).unwrap()));
    for insn in &trace {
        writer.write(insn).unwrap();
    }
    writer.flush().unwrap();
    let mut reader = CvpReader::new(std::io::BufReader::new(std::fs::File::open(&file.0).unwrap()));
    let mut converter2 = Converter::new(ImprovementSet::memory());
    let mut records_file = Vec::new();
    while let Some(insn) = reader.read().unwrap() {
        records_file.extend(converter2.convert(&insn));
    }
    assert_eq!(records_mem, records_file);

    let a = Simulator::run_on(&CoreConfig::test_small(), &records_mem, RunOptions::default());
    let b = Simulator::run_on(&CoreConfig::test_small(), &records_file, RunOptions::default());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn every_workload_kind_survives_the_full_pipeline() {
    for (i, kind) in [
        WorkloadKind::PointerChase,
        WorkloadKind::Streaming,
        WorkloadKind::Crypto,
        WorkloadKind::BranchyInt,
        WorkloadKind::Server,
        WorkloadKind::FpKernel,
    ]
    .into_iter()
    .enumerate()
    {
        let spec = TraceSpec::new(format!("kind-{kind}"), kind, 100 + i as u64).with_length(6_000);
        for imps in [
            ImprovementSet::none(),
            ImprovementSet::memory(),
            ImprovementSet::branch(),
            ImprovementSet::all(),
        ] {
            let mut converter = Converter::new(imps);
            let records = converter.convert_all(spec.generate().iter());
            assert!(records.len() >= 6_000, "{kind}/{imps}: record count");
            let report =
                Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
            assert!(report.ipc() > 0.0, "{kind}/{imps}: IPC must be positive");
            assert!(report.ipc() < 6.0, "{kind}/{imps}: IPC cannot exceed core width");
        }
    }
}

#[test]
fn split_records_keep_pc_pairing() {
    // base-update splits must emit PC and PC+2 adjacent to each other.
    let spec = TraceSpec::new("split", WorkloadKind::PointerChase, 9)
        .with_base_update_fraction(0.9)
        .with_length(5_000);
    let mut converter = Converter::new(ImprovementSet::all());
    let records = converter.convert_all(spec.generate().iter());
    let mut splits = 0;
    for w in records.windows(2) {
        if w[1].ip() == w[0].ip() + 2 {
            splits += 1;
            let pair_is_mem_alu =
                (w[0].is_load() || w[0].is_store()) != (w[1].is_load() || w[1].is_store());
            assert!(pair_is_mem_alu, "split pair must be one ALU + one memory record");
        }
    }
    assert!(splits > 200, "expected many split pairs, got {splits}");
}

#[test]
fn both_cores_run_both_conversions() {
    let spec = TraceSpec::new("cores", WorkloadKind::Server, 10).with_length(10_000);
    let trace = spec.generate();
    for core in [CoreConfig::iiswc_main(), CoreConfig::ipc1()] {
        for imps in [ImprovementSet::none(), ImprovementSet::all()] {
            let mut converter = Converter::new(imps);
            let records = converter.convert_all(trace.iter());
            let report = Simulator::run_on(&core, &records, RunOptions::default());
            assert!(report.cycles > 0);
            assert_eq!(report.instructions, records.len() as u64);
        }
    }
}
