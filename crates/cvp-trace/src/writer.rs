use std::io::Write;

use crate::error::TraceError;
use crate::insn::{CvpInstruction, NUM_INT_REGS, VEC_REG_BASE};

/// Appends the binary encoding of one record to `out`.
///
/// This is the encoding primitive behind [`CvpWriter`]; block-store
/// writers use it directly to fill record-aligned buffers without going
/// through an I/O sink. The byte layout is the exact inverse of
/// [`decode_record`](crate::decode_record); see [`format`](crate::format).
pub fn encode_record(insn: &CvpInstruction, out: &mut Vec<u8>) {
    out.extend_from_slice(&insn.pc.to_le_bytes());
    out.push(insn.class as u8);
    if insn.is_memory() {
        out.extend_from_slice(&insn.mem_address.to_le_bytes());
        out.push(insn.mem_size);
    }
    if insn.is_branch() {
        out.push(insn.taken as u8);
        if insn.taken {
            out.extend_from_slice(&insn.target.to_le_bytes());
        }
    }
    let srcs = insn.sources();
    out.push(srcs.len() as u8);
    out.extend_from_slice(srcs);
    let dsts = insn.destinations();
    out.push(dsts.len() as u8);
    out.extend_from_slice(dsts);
    for (&reg, value) in dsts.iter().zip(insn.output_values()) {
        out.extend_from_slice(&value.lo.to_le_bytes());
        if (VEC_REG_BASE..VEC_REG_BASE + NUM_INT_REGS).contains(&reg) {
            out.extend_from_slice(&value.hi.to_le_bytes());
        }
    }
}

/// Streaming encoder for CVP-1 trace records.
///
/// Writes records to any [`Write`] sink (a `&mut W` also works),
/// issuing exactly **one** `write` call per record: each record is
/// encoded into a small reused scratch buffer first, so even an
/// unbuffered sink never sees the per-field byte shuffling (the write
///-side mirror of [`CvpReader`](crate::CvpReader)'s internal
/// buffering). Nothing beyond the current record is ever buffered, so
/// no final flush is required for the bytes to reach the sink.
///
/// # Example
///
/// ```
/// use cvp_trace::{CvpInstruction, CvpWriter};
///
/// # fn main() -> Result<(), cvp_trace::TraceError> {
/// let mut buf = Vec::new();
/// let mut writer = CvpWriter::new(&mut buf);
/// writer.write(&CvpInstruction::alu(0x40_0000))?;
/// assert!(!buf.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CvpWriter<W> {
    inner: W,
    scratch: Vec<u8>,
    records: u64,
}

/// Upper bound on one record's encoding: pc + class + memory fields +
/// taken + target + source and destination lists + four 128-bit values.
const MAX_RECORD_BYTES: usize = 8 + 1 + 9 + 9 + (1 + 8) + (1 + 4) + 4 * 16;

impl<W: Write> CvpWriter<W> {
    /// Creates a writer over `inner`.
    pub fn new(inner: W) -> CvpWriter<W> {
        CvpWriter { inner, scratch: Vec::with_capacity(MAX_RECORD_BYTES), records: 0 }
    }

    /// Consumes the writer, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Encodes one record and writes it to the sink in a single call.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write(&mut self, insn: &CvpInstruction) -> Result<(), TraceError> {
        self.scratch.clear();
        encode_record(insn, &mut self.scratch);
        self.inner.write_all(&self.scratch)?;
        self.records += 1;
        Ok(())
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn flush(&mut self) -> Result<(), TraceError> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CvpReader;

    #[test]
    fn record_count_tracks_writes() {
        let mut buf = Vec::new();
        let mut w = CvpWriter::new(&mut buf);
        assert_eq!(w.records_written(), 0);
        w.write(&CvpInstruction::alu(0)).unwrap();
        w.write(&CvpInstruction::alu(4)).unwrap();
        assert_eq!(w.records_written(), 2);
    }

    #[test]
    fn not_taken_branch_omits_target_bytes() {
        let mut taken = Vec::new();
        let mut not_taken = Vec::new();
        CvpWriter::new(&mut taken).write(&CvpInstruction::cond_branch(0, true, 8)).unwrap();
        CvpWriter::new(&mut not_taken).write(&CvpInstruction::cond_branch(0, false, 0)).unwrap();
        assert_eq!(taken.len(), not_taken.len() + 8);
    }

    #[test]
    fn into_inner_returns_sink() {
        let mut w = CvpWriter::new(Vec::new());
        w.write(&CvpInstruction::alu(0)).unwrap();
        w.flush().unwrap();
        let buf = w.into_inner();
        let mut r = CvpReader::new(buf.as_slice());
        assert!(r.read().unwrap().is_some());
        assert!(r.read().unwrap().is_none());
    }
}
