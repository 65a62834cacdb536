//! End-to-end guarantees of the block-compressed trace store: decoding
//! an encoded stream reproduces it exactly (byte identity), in memory
//! and through real files, for every synthetic workload family — and
//! simulating from a store yields the same report as from a flat file.

use std::io::Cursor;
use std::path::Path;

use trace_rebase::champsim::ChampsimRecord;
use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::cvp::{encode_record, CvpInstruction};
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::store::{
    ChampsimTraceReader, ChampsimTraceWriter, ChampsimzReader, ChampsimzWriter, CvpTraceReader,
    CvpTraceWriter, CvpzReader, CvpzWriter,
};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

const FAMILIES: [WorkloadKind; 6] = [
    WorkloadKind::PointerChase,
    WorkloadKind::Streaming,
    WorkloadKind::Crypto,
    WorkloadKind::BranchyInt,
    WorkloadKind::Server,
    WorkloadKind::FpKernel,
];

fn family_trace(kind: WorkloadKind, length: usize) -> Vec<CvpInstruction> {
    TraceSpec::new(format!("rt_{kind}"), kind, 0xf00d).with_length(length).generate()
}

/// Flat CVP encoding of a trace — the byte-identity reference.
fn flat_cvp_bytes(insns: &[CvpInstruction]) -> Vec<u8> {
    let mut out = Vec::new();
    for insn in insns {
        encode_record(insn, &mut out);
    }
    out
}

#[test]
fn cvpz_decode_of_encode_is_byte_identical_across_families() {
    for kind in FAMILIES {
        let insns = family_trace(kind, 30_000);
        let mut w = CvpzWriter::new(Vec::new()).unwrap();
        for insn in &insns {
            w.write(insn).unwrap();
        }
        let (encoded, stats) = w.finish().unwrap();
        assert_eq!(stats.bytes_raw, flat_cvp_bytes(&insns).len() as u64, "{kind}");

        let decoded: Vec<CvpInstruction> =
            CvpzReader::new(Cursor::new(&encoded)).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(
            flat_cvp_bytes(&decoded),
            flat_cvp_bytes(&insns),
            "{kind}: decode(encode(trace)) must be byte-identical"
        );
    }
}

#[test]
fn champsimz_decode_of_encode_is_byte_identical_across_families() {
    for kind in FAMILIES {
        let insns = family_trace(kind, 30_000);
        let records = Converter::new(ImprovementSet::all()).convert_all(insns.iter());
        let mut w = ChampsimzWriter::new(Vec::new()).unwrap();
        for rec in &records {
            w.write(rec).unwrap();
        }
        let (encoded, _) = w.finish().unwrap();
        let decoded: Vec<ChampsimRecord> =
            ChampsimzReader::new(Cursor::new(&encoded)).unwrap().collect::<Result<_, _>>().unwrap();
        let flat = |recs: &[ChampsimRecord]| -> Vec<u8> {
            recs.iter().flat_map(|r| r.to_bytes()).collect()
        };
        assert_eq!(flat(&decoded), flat(&records), "{kind}");
    }
}

#[test]
fn simulating_from_a_store_matches_the_flat_file_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("store-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let insns = family_trace(WorkloadKind::Server, 20_000);
    let records = Converter::new(ImprovementSet::all()).convert_all(insns.iter());

    let mut reports = Vec::new();
    for name in ["t.champsimtrace", "t.champsimz"] {
        let path = dir.join(name);
        let mut w = ChampsimTraceWriter::create(&path).unwrap();
        for rec in &records {
            w.write(rec).unwrap();
        }
        w.finish().unwrap();
        let from_disk: Vec<ChampsimRecord> =
            ChampsimTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
        reports.push(Simulator::run_on(
            &CoreConfig::iiswc_main(),
            &from_disk,
            RunOptions::default(),
        ));
    }
    assert_eq!(
        reports[0].ipc().to_bits(),
        reports[1].ipc().to_bits(),
        "store and flat inputs must produce bit-identical IPC"
    );
    assert_eq!(reports[0].instructions, reports[1].instructions);
    assert_eq!(reports[0].cycles, reports[1].cycles);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cvp_store_file_round_trips_and_compresses() {
    let dir = std::env::temp_dir().join(format!("store-rtc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let insns = family_trace(WorkloadKind::PointerChase, 80_000);

    let path = dir.join("t.cvpz");
    let mut w = CvpTraceWriter::create(&path).unwrap();
    for insn in &insns {
        w.write(insn).unwrap();
    }
    let stats = w.finish().unwrap().expect("store mode reports stats");
    assert!(
        stats.compression_ratio() >= 3.0,
        "pointer-chase CVP must compress >=3x, got {:.2}x",
        stats.compression_ratio()
    );
    let on_disk = std::fs::metadata(&path).unwrap().len();
    assert!(on_disk < stats.bytes_raw, "store file smaller than raw stream");

    let back: Vec<CvpInstruction> =
        CvpTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(flat_cvp_bytes(&back), flat_cvp_bytes(&insns));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_extension_dispatch_is_the_only_behavior_switch() {
    // A `.cvp` path must NOT produce a store, even for identical data.
    let dir = std::env::temp_dir().join(format!("store-rtd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let insns = family_trace(WorkloadKind::Crypto, 1_000);

    let plain = dir.join("t.cvp");
    let mut w = CvpTraceWriter::create(&plain).unwrap();
    for insn in &insns {
        w.write(insn).unwrap();
    }
    assert!(w.finish().unwrap().is_none(), "plain path reports no store stats");
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        flat_cvp_bytes(&insns),
        "plain output is the raw CVP byte stream"
    );
    assert!(!trace_rebase::store::is_store_path(Path::new("t.cvp")));
    std::fs::remove_dir_all(&dir).unwrap();
}
