//! Boundary and failure-injection tests across the stack.

use trace_rebase::champsim::{pattern, ChampsimReader, ChampsimRecord, RECORD_BYTES};
use trace_rebase::converter::{Converter, ImprovementSet};
use trace_rebase::cvp::{CvpInstruction, CvpReader, TraceError};
use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
use trace_rebase::workloads::{TraceSpec, WorkloadKind};

// ------------------------------------------------------------- sim -----

#[test]
fn empty_trace_simulates_to_zero_instructions() {
    let report = Simulator::run_on(&CoreConfig::test_small(), &[], RunOptions::default());
    assert_eq!(report.instructions, 0);
    assert_eq!(report.ipc(), 0.0);
}

#[test]
fn single_record_trace() {
    let report = Simulator::run_on(
        &CoreConfig::test_small(),
        &[ChampsimRecord::new(0x40)],
        RunOptions::default(),
    );
    assert_eq!(report.instructions, 1);
    assert!(report.cycles >= 1);
}

#[test]
fn warmup_equal_to_trace_length_measures_nothing() {
    let records: Vec<ChampsimRecord> =
        (0..100).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect();
    let report = Simulator::run_on(
        &CoreConfig::test_small(),
        &records,
        RunOptions::default().with_warmup(100),
    );
    assert_eq!(report.instructions, 0);
}

#[test]
fn warmup_beyond_trace_length_is_tolerated() {
    let records: Vec<ChampsimRecord> =
        (0..50).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect();
    let report = Simulator::run_on(
        &CoreConfig::test_small(),
        &records,
        RunOptions::default().with_warmup(10_000),
    );
    // No warm-up boundary was crossed; everything is measured.
    assert_eq!(report.instructions, 50);
}

#[test]
fn trace_ending_on_a_taken_branch_uses_fallthrough_target() {
    // The last record has no successor; the engine must not panic and
    // must still classify the branch.
    let mut records: Vec<ChampsimRecord> =
        (0..10).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect();
    records.push(pattern::conditional(0x1028, true));
    let report = Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
    assert_eq!(report.instructions, 11);
    assert_eq!(report.branches.total(), 1);
}

#[test]
fn all_branch_types_flow_through_the_engine() {
    use trace_rebase::champsim::regs;
    let mut records = Vec::new();
    for i in 0..200u64 {
        let pc = 0x1000 + i * 24;
        records.push(pattern::direct_jump(pc, true));
        records.push(pattern::conditional(pc + 4, i % 2 == 0));
        records.push(pattern::indirect_jump(pc + 8, true, regs::arch(9)));
        records.push(pattern::direct_call(pc + 12, true));
        records.push(pattern::ret(pc + 16, true));
        records.push(ChampsimRecord::new(pc + 20));
    }
    let report = Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
    assert_eq!(report.branches.total(), 1000);
}

// ------------------------------------------------------- converter -----

#[test]
fn converter_handles_degenerate_instructions() {
    let mut conv = Converter::new(ImprovementSet::all());
    // Instruction with no registers at all.
    let bare = CvpInstruction::alu(0);
    assert_eq!(conv.convert(&bare).records().len(), 1);
    // Zero-PC branch.
    let b = CvpInstruction::cond_branch(0, true, 0);
    assert_eq!(conv.convert(&b).records().len(), 1);
    // Load at the top of the address space.
    let high = CvpInstruction::load(u64::MAX - 3, u64::MAX - 63, 8).with_destination(1, 0u64);
    let out = conv.convert(&high);
    assert!(out.records()[0].is_load());
}

#[test]
fn converter_base_update_at_pc_wraparound() {
    let mut conv = Converter::new(ImprovementSet::all());
    conv.convert(&CvpInstruction::alu(0).with_destination(0, 0x1000u64));
    // Pre-index split at u64::MAX - 1 wraps the second micro-op's PC.
    let ld = CvpInstruction::load(u64::MAX - 1, 0x1008, 8)
        .with_sources(&[0])
        .with_destination(1, 7u64)
        .with_destination(0, 0x1008u64);
    let out = conv.convert(&ld);
    assert_eq!(out.records().len(), 2);
    assert_eq!(out.records()[1].ip(), 0); // wrapping_add(2)
}

// ----------------------------------------------------------- codecs ----

#[test]
fn corrupted_cvp_stream_reports_error_not_garbage() {
    let spec = TraceSpec::new("corrupt", WorkloadKind::Crypto, 1).with_length(100);
    let mut buf = Vec::new();
    let mut w = trace_rebase::cvp::CvpWriter::new(&mut buf);
    for insn in spec.generate() {
        w.write(&insn).unwrap();
    }
    // Flip the class byte of the first record to an invalid value.
    buf[8] = 0xEE;
    let mut reader = CvpReader::new(buf.as_slice());
    match reader.read() {
        Err(TraceError::InvalidClass { value: 0xEE, .. }) => {}
        other => panic!("expected invalid class, got {other:?}"),
    }
}

#[test]
fn champsim_reader_tolerates_all_byte_patterns() {
    // Any properly-sized stream decodes: the format has no invalid
    // encodings at the record level.
    let noise: Vec<u8> = (0..RECORD_BYTES * 5).map(|i| (i * 37 + 11) as u8).collect();
    let records: Vec<ChampsimRecord> =
        ChampsimReader::new(noise.as_slice()).collect::<Result<_, _>>().unwrap();
    assert_eq!(records.len(), 5);
    // And whatever decoded must simulate without panicking.
    let report = Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
    assert_eq!(report.instructions, 5);
}

// -------------------------------------------------------- workloads ----

#[test]
fn extreme_knob_values_generate_valid_traces() {
    let extremes = [
        TraceSpec::new("a", WorkloadKind::PointerChase, 1)
            .with_base_update_fraction(1.0)
            .with_serial_chase_fraction(1.0),
        TraceSpec::new("b", WorkloadKind::Server, 2)
            .with_x30_call_fraction(1.0)
            .with_code_functions(1),
        TraceSpec::new("c", WorkloadKind::BranchyInt, 3)
            .with_hard_branch_fraction(1.0)
            .with_data_footprint_log2(10),
        TraceSpec::new("d", WorkloadKind::Streaming, 4).with_data_footprint_log2(34),
    ];
    for spec in extremes {
        let trace = spec.clone().with_length(3_000).generate();
        assert_eq!(trace.len(), 3_000, "{}", spec.name());
        // Control flow must stay coherent even at the extremes.
        for w in trace.windows(2) {
            if w[0].is_branch() && w[0].taken {
                assert_eq!(w[1].pc, w[0].target);
            } else {
                assert_eq!(w[1].pc, w[0].pc + 4);
            }
        }
        // And the full pipeline must digest it.
        let mut conv = Converter::new(ImprovementSet::all());
        let records = conv.convert_all(trace.iter());
        let report = Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
        assert!(report.ipc() > 0.0);
    }
}

#[test]
fn tiny_traces_work_everywhere() {
    for n in [1usize, 2, 3] {
        let trace = TraceSpec::new("tiny", WorkloadKind::Crypto, 5).with_length(n).generate();
        let mut conv = Converter::new(ImprovementSet::all());
        let records = conv.convert_all(trace.iter());
        let report = Simulator::run_on(&CoreConfig::test_small(), &records, RunOptions::default());
        assert_eq!(report.instructions, records.len() as u64);
    }
}
