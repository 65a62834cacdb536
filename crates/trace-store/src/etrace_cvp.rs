//! `.etrace` ingestion: reconstructs an E-Trace branch trace and maps
//! each instruction to a [`CvpInstruction`], so everything downstream
//! of [`CvpTraceReader`](crate::CvpTraceReader) — the converter, the
//! simulator, the servers — consumes RISC-V traces unchanged.
//!
//! The mapping is deterministic: register numbers translate through a
//! fixed permutation and synthetic result values come from a
//! splitmix-style hash of the instruction's pc and address, so decoding
//! the same `.etrace` file anywhere yields byte-identical CVP records.

use std::io::Read;

use cvp_trace::{CvpInstruction, Reg, TraceError, LINK_REG};
use etrace::{
    Decoded, EtraceError, EtraceReader, EtraceStats, MetaInstr, MetaOp, Program, TraceItem,
    RV_REG_NONE,
};

/// Maps a RISC-V integer register to the CVP namespace.
///
/// CVP-1's link register is 30 while RISC-V's return-address register
/// is x1, so the two swap; everything else maps through unchanged
/// (x0 included — its special zero semantics are handled at the call
/// sites that care).
fn map_reg(r: u8) -> Reg {
    match r {
        1 => LINK_REG,
        30 => 1,
        r => r,
    }
}

/// Deterministic synthetic value for a destination register write.
fn synth_value(pc: u64, salt: u64) -> u64 {
    let mut z = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps one reconstructed E-Trace instruction to a CVP record.
pub fn decoded_to_cvp(decoded: &Decoded) -> CvpInstruction {
    let Decoded { item, meta } = decoded;
    let pc = item.pc;
    let sources = |regs: &[u8]| -> Vec<Reg> {
        regs.iter().filter(|&&r| r != RV_REG_NONE).map(|&r| map_reg(r)).collect()
    };
    match meta.op {
        MetaOp::Int => alu_like(CvpInstruction::alu(pc), meta),
        MetaOp::Mul => alu_like(CvpInstruction::slow_alu(pc), meta),
        MetaOp::Fp => alu_like(CvpInstruction::fp(pc), meta),
        MetaOp::Load { size } => {
            let mut insn =
                CvpInstruction::load(pc, item.mem_addr, size).with_sources(&sources(&[meta.rs1]));
            // A load to x0 discards its result: a prefetch-shaped
            // record with no destination, like CVP's prefetch loads.
            if meta.rd != 0 && meta.rd != RV_REG_NONE {
                insn = insn.with_destination(map_reg(meta.rd), synth_value(pc, item.mem_addr));
            }
            insn
        }
        MetaOp::Store { size } => CvpInstruction::store(pc, item.mem_addr, size)
            .with_sources(&sources(&[meta.rs1, meta.rs2])),
        MetaOp::CondBranch { .. } => CvpInstruction::cond_branch(pc, item.taken, item.target)
            .with_sources(&sources(&[meta.rs1, meta.rs2])),
        MetaOp::Jump { target } => CvpInstruction::direct_branch(pc, target),
        MetaOp::Call { target } => {
            CvpInstruction::direct_branch(pc, target).with_destination(LINK_REG, meta.fallthrough())
        }
        MetaOp::IndJump => {
            CvpInstruction::indirect_branch(pc, item.target).with_sources(&sources(&[meta.rs1]))
        }
        MetaOp::IndCall => CvpInstruction::indirect_branch(pc, item.target)
            .with_sources(&sources(&[meta.rs1]))
            .with_destination(LINK_REG, meta.fallthrough()),
        MetaOp::Ret => {
            CvpInstruction::indirect_branch(pc, item.target).with_sources(&sources(&[meta.rs1]))
        }
    }
}

/// Finishes an ALU-class record: mapped sources, hashed destination.
fn alu_like(insn: CvpInstruction, meta: &MetaInstr) -> CvpInstruction {
    let srcs: Vec<Reg> =
        [meta.rs1, meta.rs2].iter().filter(|&&r| r != RV_REG_NONE).map(|&r| map_reg(r)).collect();
    let mut insn = insn.with_sources(&srcs);
    if meta.rd != 0 && meta.rd != RV_REG_NONE {
        insn = insn.with_destination(map_reg(meta.rd), synth_value(meta.pc, u64::from(meta.rd)));
    }
    insn
}

/// Maps a generated `(program, items)` pair straight to CVP records,
/// bypassing the packet stream — the reference the `.etrace` decode
/// path is tested against, and the generator used by the benches.
///
/// # Panics
///
/// Panics if an item's pc is not in `program` (generated pairs always
/// resolve).
pub fn rv_items_to_cvp(program: &Program, items: &[TraceItem]) -> Vec<CvpInstruction> {
    let mut hint = 0;
    items
        .iter()
        .map(|item| {
            let meta = program
                .lookup_cached(&mut hint, item.pc)
                .expect("generated walks stay inside their program image");
            decoded_to_cvp(&Decoded { item: *item, meta: *meta })
        })
        .collect()
}

/// Lifts an [`EtraceError`] into the [`TraceError`] channel the shared
/// reader dispatch speaks: framing errors become
/// [`TraceError::Container`] with their one-line message.
fn map_etrace(e: EtraceError) -> TraceError {
    match e {
        EtraceError::Io(io) => TraceError::Io(io),
        other => TraceError::Container(other.to_string()),
    }
}

/// An `.etrace` file decoding to [`CvpInstruction`]s on the fly.
#[derive(Debug)]
pub struct EtraceCvpReader {
    inner: EtraceReader,
}

impl EtraceCvpReader {
    /// Opens and frames an `.etrace` stream.
    ///
    /// # Errors
    ///
    /// Any framing [`EtraceError`], lifted into [`TraceError::Container`].
    pub fn new<R: Read>(inner: R) -> Result<EtraceCvpReader, TraceError> {
        Ok(EtraceCvpReader { inner: EtraceReader::new(inner).map_err(map_etrace)? })
    }

    /// Decodes and maps the next instruction, or `Ok(None)` at a clean
    /// end of stream.
    ///
    /// # Errors
    ///
    /// Decode errors, lifted into [`TraceError::Container`].
    pub fn read(&mut self) -> Result<Option<CvpInstruction>, TraceError> {
        match self.inner.read().map_err(map_etrace)? {
            Some(decoded) => Ok(Some(decoded_to_cvp(&decoded))),
            None => Ok(None),
        }
    }

    /// The decoder's packet and volume counters.
    pub fn stats(&self) -> EtraceStats {
        self.inner.stats()
    }

    /// The embedded program image.
    pub fn program(&self) -> &Program {
        self.inner.program()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrace::EtraceWriter;

    fn tiny_pair() -> (Program, Vec<TraceItem>) {
        let program = Program::new(vec![
            MetaInstr {
                pc: 0x1000,
                size: 4,
                op: MetaOp::Load { size: 8 },
                rd: 7,
                rs1: 2,
                rs2: RV_REG_NONE,
            },
            MetaInstr { pc: 0x1004, size: 4, op: MetaOp::Int, rd: 8, rs1: 7, rs2: 9 },
            MetaInstr {
                pc: 0x1008,
                size: 4,
                op: MetaOp::Call { target: 0x2000 },
                rd: 1,
                rs1: RV_REG_NONE,
                rs2: RV_REG_NONE,
            },
            MetaInstr { pc: 0x100c, size: 4, op: MetaOp::Int, rd: 5, rs1: 5, rs2: 6 },
            MetaInstr {
                pc: 0x2000,
                size: 4,
                op: MetaOp::Store { size: 8 },
                rd: RV_REG_NONE,
                rs1: 2,
                rs2: 7,
            },
            MetaInstr {
                pc: 0x2004,
                size: 4,
                op: MetaOp::Ret,
                rd: RV_REG_NONE,
                rs1: 1,
                rs2: RV_REG_NONE,
            },
        ])
        .unwrap();
        let items = vec![
            TraceItem { pc: 0x1000, taken: false, target: 0x1004, mem_addr: 0x5000 },
            TraceItem { pc: 0x1004, taken: false, target: 0x1008, mem_addr: 0 },
            TraceItem { pc: 0x1008, taken: false, target: 0x2000, mem_addr: 0 },
            TraceItem { pc: 0x2000, taken: false, target: 0x2004, mem_addr: 0x5008 },
            TraceItem { pc: 0x2004, taken: false, target: 0x100c, mem_addr: 0 },
            TraceItem { pc: 0x100c, taken: false, target: 0x1010, mem_addr: 0 },
        ];
        (program, items)
    }

    #[test]
    fn register_mapping_swaps_the_link_register() {
        assert_eq!(map_reg(1), LINK_REG);
        assert_eq!(map_reg(30), 1);
        assert_eq!(map_reg(0), 0);
        assert_eq!(map_reg(17), 17);
    }

    #[test]
    fn calls_and_returns_speak_cvp_link_conventions() {
        let (program, items) = tiny_pair();
        let cvp = rv_items_to_cvp(&program, &items);
        let call = &cvp[2];
        assert!(call.is_branch());
        assert!(call.writes(LINK_REG));
        assert_eq!(call.value_of(LINK_REG).unwrap().lo, 0x100c);
        let ret = &cvp[4];
        assert!(ret.reads(LINK_REG));
        assert_eq!(ret.target, 0x100c);
    }

    #[test]
    fn loads_and_stores_carry_addresses_and_mapped_registers() {
        let (program, items) = tiny_pair();
        let cvp = rv_items_to_cvp(&program, &items);
        assert_eq!(cvp[0].mem_address, 0x5000);
        assert_eq!(cvp[0].destinations(), &[7]);
        assert_eq!(cvp[3].mem_address, 0x5008);
        assert!(cvp[3].destinations().is_empty());
        assert_eq!(cvp[3].sources(), &[2, 7]);
    }

    #[test]
    fn decode_path_matches_the_direct_mapping() {
        let (program, items) = tiny_pair();
        let direct = rv_items_to_cvp(&program, &items);
        let mut writer = EtraceWriter::new(Vec::new(), &program).unwrap();
        for item in &items {
            writer.write(item).unwrap();
        }
        let (bytes, _) = writer.finish().unwrap();
        let mut reader = EtraceCvpReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut via_packets = Vec::new();
        while let Some(insn) = reader.read().unwrap() {
            via_packets.push(insn);
        }
        assert_eq!(via_packets, direct);
    }

    #[test]
    fn etrace_errors_surface_as_one_line_trace_errors() {
        let err = EtraceCvpReader::new(std::io::Cursor::new(b"nope".to_vec())).unwrap_err();
        let msg = err.to_string();
        assert_eq!(msg.lines().count(), 1);
        assert!(msg.contains("byte"), "{msg}");
    }
}
