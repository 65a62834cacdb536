use std::io::{self, Read};

use crate::error::{RegKind, TraceError};
use crate::format::MAX_RECORD_BYTES;
use crate::insn::{
    CvpClass, CvpInstruction, OutputValue, MAX_DSTS, MAX_SRCS, NUM_INT_REGS, NUM_REGS, VEC_REG_BASE,
};

/// Internal buffer size: large enough that even value-heavy records
/// need one `read` syscall per ~1–2 thousand records.
const BUF_CAPACITY: usize = 64 * 1024;

/// Decodes the CVP-1 record at the front of `bytes`, returning it with
/// its encoded length.
///
/// This is the one CVP-1 record parser, the inverse of
/// [`encode_record`](crate::encode_record): [`CvpReader`] runs it on
/// its read buffer and block-store readers run it on a decoded block.
/// It looks at no more than [`MAX_RECORD_BYTES`] bytes, so a slice that
/// long always holds a whole record or a malformed one. `offset` is the
/// record's position in its stream; every error names it.
///
/// # Errors
///
/// [`TraceError::TruncatedRecord`] if `bytes` ends inside the record,
/// and the other [`TraceError`] variants for malformed fields.
pub fn decode_record(bytes: &[u8], offset: u64) -> Result<(CvpInstruction, usize), TraceError> {
    let mut f = Fields { bytes: &bytes[..bytes.len().min(MAX_RECORD_BYTES)], pos: 0, offset };
    let pc = f.u64()?;
    let class_byte = f.u8()?;
    let class = CvpClass::from_u8(class_byte)
        .ok_or(TraceError::InvalidClass { value: class_byte, offset })?;

    let mut insn = match class {
        CvpClass::Load | CvpClass::Store => {
            let address = f.u64()?;
            let size = f.u8()?;
            if !size.is_power_of_two() || size > 64 {
                return Err(TraceError::InvalidAccessSize { size, offset });
            }
            if class == CvpClass::Load {
                CvpInstruction::load(pc, address, size)
            } else {
                CvpInstruction::store(pc, address, size)
            }
        }
        CvpClass::CondBranch | CvpClass::UncondDirectBranch | CvpClass::UncondIndirectBranch => {
            let taken = match f.u8()? {
                0 => false,
                1 => true,
                value => return Err(TraceError::InvalidTakenFlag { value, offset }),
            };
            let target = if taken { f.u64()? } else { 0 };
            match class {
                CvpClass::CondBranch => CvpInstruction::cond_branch(pc, taken, target),
                CvpClass::UncondDirectBranch => CvpInstruction::direct_branch(pc, target),
                _ => CvpInstruction::indirect_branch(pc, target),
            }
        }
        CvpClass::Alu => CvpInstruction::alu(pc),
        CvpClass::SlowAlu => CvpInstruction::slow_alu(pc),
        CvpClass::Fp => CvpInstruction::fp(pc),
        CvpClass::Undef => CvpInstruction::undef(pc),
    };

    let num_srcs = f.u8()?;
    if num_srcs as usize > MAX_SRCS {
        return Err(TraceError::TooManyRegisters {
            kind: RegKind::Source,
            count: num_srcs,
            offset,
        });
    }
    for _ in 0..num_srcs {
        insn.push_source(f.reg()?);
    }

    let num_dsts = f.u8()?;
    if num_dsts as usize > MAX_DSTS {
        return Err(TraceError::TooManyRegisters {
            kind: RegKind::Destination,
            count: num_dsts,
            offset,
        });
    }
    let mut dsts = [0u8; MAX_DSTS];
    for slot in dsts.iter_mut().take(num_dsts as usize) {
        *slot = f.reg()?;
    }
    for &reg in dsts.iter().take(num_dsts as usize) {
        let lo = f.u64()?;
        let hi =
            if (VEC_REG_BASE..VEC_REG_BASE + NUM_INT_REGS).contains(&reg) { f.u64()? } else { 0 };
        insn.push_destination(reg, OutputValue { lo, hi });
    }

    Ok((insn, f.pos))
}

/// A cursor over one record's bytes; running out of them is a
/// truncated record.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl Fields<'_> {
    fn truncated(&self) -> TraceError {
        TraceError::TruncatedRecord { offset: self.offset }
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        let b = self.bytes.get(self.pos..self.pos + 8).ok_or_else(|| self.truncated())?;
        self.pos += 8;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn reg(&mut self) -> Result<u8, TraceError> {
        let reg = self.u8()?;
        if reg >= NUM_REGS {
            return Err(TraceError::InvalidRegister { reg, offset: self.offset });
        }
        Ok(reg)
    }
}

/// Streaming decoder for CVP-1 trace records.
///
/// Reads records one at a time from any [`Read`] source (a `&mut R` also
/// works, since `Read` is implemented for mutable references). The reader
/// is also an [`Iterator`] over `Result<CvpInstruction, TraceError>`.
///
/// The reader buffers internally in a fixed 64 KiB buffer (its size is
/// not settable) and decodes each record from it with
/// [`decode_record`], refilling only when the buffer ends inside a
/// record, so it never issues tiny reads against an unbuffered source —
/// do not wrap the source in another `BufReader`.
///
/// # Example
///
/// ```
/// use cvp_trace::{CvpInstruction, CvpReader, CvpWriter};
///
/// # fn main() -> Result<(), cvp_trace::TraceError> {
/// let mut buf = Vec::new();
/// let mut w = CvpWriter::new(&mut buf);
/// w.write(&CvpInstruction::alu(0x10))?;
/// w.write(&CvpInstruction::alu(0x14))?;
///
/// let pcs: Vec<u64> = CvpReader::new(buf.as_slice())
///     .map(|r| r.map(|i| i.pc))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(pcs, [0x10, 0x14]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CvpReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// Next unconsumed byte in `buf`.
    pos: usize,
    /// One past the last valid byte in `buf`.
    end: usize,
    /// Stream offset of `buf[pos]`, the next record's start.
    offset: u64,
}

impl<R: Read> CvpReader<R> {
    /// Creates a reader over `inner`.
    pub fn new(inner: R) -> CvpReader<R> {
        CvpReader {
            inner,
            buf: vec![0; BUF_CAPACITY].into_boxed_slice(),
            pos: 0,
            end: 0,
            offset: 0,
        }
    }

    /// Consumes the reader, returning the underlying source. Bytes
    /// already pulled into the internal buffer but not yet decoded are
    /// discarded.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Bytes decoded so far (not bytes pulled from the source, which may
    /// run ahead by up to one buffer).
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::TruncatedRecord`] if the stream ends inside a
    /// record, and the other [`TraceError`] variants for malformed fields.
    pub fn read(&mut self) -> Result<Option<CvpInstruction>, TraceError> {
        loop {
            match decode_record(&self.buf[self.pos..self.end], self.offset) {
                Ok((insn, len)) => {
                    self.pos += len;
                    self.offset += len as u64;
                    return Ok(Some(insn));
                }
                // The buffer ends inside the record: read more, and
                // stop cleanly only if the source ended on a boundary.
                Err(TraceError::TruncatedRecord { .. }) if self.fill()? => {}
                Err(TraceError::TruncatedRecord { .. }) if self.pos == self.end => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves the unread bytes to the front of the buffer and reads more
    /// after them. Returns `false` at source EOF. The buffer is far
    /// larger than [`MAX_RECORD_BYTES`], so there is always room.
    fn fill(&mut self) -> Result<bool, TraceError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n > 0);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl<R: Read> Iterator for CvpReader<R> {
    type Item = Result<CvpInstruction, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CvpWriter;

    fn round_trip(insns: &[CvpInstruction]) -> Vec<CvpInstruction> {
        let mut buf = Vec::new();
        let mut w = CvpWriter::new(&mut buf);
        for i in insns {
            w.write(i).unwrap();
        }
        CvpReader::new(buf.as_slice()).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn round_trips_every_class_shape() {
        let insns = vec![
            CvpInstruction::alu(0x1000).with_sources(&[1, 2]).with_destination(3, 9u64),
            CvpInstruction::slow_alu(0x1004).with_destination(4, 81u64),
            CvpInstruction::fp(0x1008)
                .with_sources(&[33, 34])
                .with_destination(35, OutputValue::vector(1, 2)),
            CvpInstruction::load(0x100c, 0xffff_0000, 8)
                .with_sources(&[0])
                .with_destination(1, 5u64)
                .with_destination(0, 0xffff_0008u64),
            CvpInstruction::store(0x1010, 0x8, 4).with_sources(&[1, 2]),
            CvpInstruction::cond_branch(0x1014, true, 0x2000).with_sources(&[5]),
            CvpInstruction::cond_branch(0x1018, false, 0),
            CvpInstruction::direct_branch(0x101c, 0x3000),
            CvpInstruction::indirect_branch(0x1020, 0x4000).with_sources(&[30]),
            CvpInstruction::undef(0x1024),
        ];
        assert_eq!(round_trip(&insns), insns);
    }

    #[test]
    fn empty_stream_yields_none() {
        let mut r = CvpReader::new(&[][..]);
        assert!(r.read().unwrap().is_none());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        CvpWriter::new(&mut buf).write(&CvpInstruction::alu(0x1234)).unwrap();
        for cut in 1..buf.len() {
            let mut r = CvpReader::new(&buf[..cut]);
            match r.read() {
                Err(TraceError::TruncatedRecord { offset: 0 }) => {}
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_class_is_an_error() {
        let mut buf = vec![0u8; 8];
        buf.push(42); // bogus class
        match CvpReader::new(buf.as_slice()).read() {
            Err(TraceError::InvalidClass { value: 42, .. }) => {}
            other => panic!("expected invalid class, got {other:?}"),
        }
    }

    #[test]
    fn invalid_access_size_is_an_error() {
        let mut buf = vec![0u8; 8];
        buf.push(CvpClass::Load as u8);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(3); // not a power of two
        match CvpReader::new(buf.as_slice()).read() {
            Err(TraceError::InvalidAccessSize { size: 3, .. }) => {}
            other => panic!("expected invalid size, got {other:?}"),
        }
    }

    #[test]
    fn invalid_taken_flag_is_an_error() {
        let mut buf = vec![0u8; 8];
        buf.push(CvpClass::CondBranch as u8);
        buf.push(9);
        match CvpReader::new(buf.as_slice()).read() {
            Err(TraceError::InvalidTakenFlag { value: 9, .. }) => {}
            other => panic!("expected invalid taken flag, got {other:?}"),
        }
    }

    #[test]
    fn invalid_register_is_an_error() {
        let mut buf = vec![0u8; 8];
        buf.push(CvpClass::Alu as u8);
        buf.push(1); // one source
        buf.push(NUM_REGS); // out of range
        match CvpReader::new(buf.as_slice()).read() {
            Err(TraceError::InvalidRegister { reg, .. }) if reg == NUM_REGS => {}
            other => panic!("expected invalid register, got {other:?}"),
        }
    }

    #[test]
    fn offsets_advance_per_record() {
        let mut buf = Vec::new();
        let mut w = CvpWriter::new(&mut buf);
        w.write(&CvpInstruction::alu(1)).unwrap();
        w.write(&CvpInstruction::alu(2)).unwrap();
        let mut r = CvpReader::new(buf.as_slice());
        r.read().unwrap();
        let after_first = r.bytes_read();
        assert!(after_first > 0);
        r.read().unwrap();
        assert_eq!(r.bytes_read(), buf.len() as u64);
    }

    /// A source that counts how many `read` calls it serves and caps
    /// each at `chunk` bytes.
    struct CountingSource<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        calls: usize,
    }

    impl Read for CountingSource<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = out.len().min(self.chunk).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn encoded(insns: &[CvpInstruction]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = CvpWriter::new(&mut buf);
        for i in insns {
            w.write(i).unwrap();
        }
        buf
    }

    #[test]
    fn buffering_batches_source_reads() {
        let insns: Vec<CvpInstruction> = (0..500)
            .map(|i| CvpInstruction::alu(i).with_sources(&[1, 2]).with_destination(3, i))
            .collect();
        let buf = encoded(&insns);
        let mut source = CountingSource { data: &buf, pos: 0, chunk: usize::MAX, calls: 0 };
        let back: Vec<CvpInstruction> =
            CvpReader::new(&mut source).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, insns);
        // Unbuffered decoding would issue several reads *per record*;
        // buffered, the whole stream fits in one fill plus the EOF probe.
        assert!(source.calls <= 2, "{} reads for {} bytes", source.calls, buf.len());
    }

    /// Records whose fields straddle every refill point a source
    /// serving 1 to 7 bytes per `read` can make.
    fn straddling_records() -> Vec<CvpInstruction> {
        vec![
            CvpInstruction::load(0x10, 0xbeef, 8).with_sources(&[4]).with_destination(5, 1u64),
            CvpInstruction::cond_branch(0x14, true, 0x40),
            CvpInstruction::alu(0x18).with_destination(2, 3u64),
            CvpInstruction::fp(0x1c).with_destination(40, OutputValue::vector(7, 9)),
        ]
    }

    /// Sources that serve 1 to 7 bytes per `read` put a refill point
    /// inside every field of these records: each stream still decodes
    /// whole.
    #[test]
    fn tiny_buffer_capacities_still_decode_correctly() {
        let insns = straddling_records();
        let buf = encoded(&insns);
        for chunk in 1..=7 {
            let source = CountingSource { data: &buf, pos: 0, chunk, calls: 0 };
            let back: Vec<CvpInstruction> =
                CvpReader::new(source).collect::<Result<_, _>>().unwrap();
            assert_eq!(back, insns, "read size {chunk}");
        }
    }

    /// Every cut, at every read size from 1 to 7 bytes, ends cleanly on
    /// a record boundary or names the start of the record it falls in,
    /// in decoded-stream coordinates rather than how far the buffer
    /// read ahead.
    #[test]
    fn truncation_offsets_name_the_record_start_at_any_capacity() {
        let insns = straddling_records();
        let ends: Vec<usize> = (1..=insns.len()).map(|n| encoded(&insns[..n]).len()).collect();
        let buf = encoded(&insns);
        for chunk in 1..=7 {
            for cut in 1..buf.len() {
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let source = CountingSource { data: &buf[..cut], pos: 0, chunk, calls: 0 };
                let mut r = CvpReader::new(source);
                for _ in 0..whole {
                    assert!(r.read().unwrap().is_some(), "read size {chunk}, cut {cut}");
                }
                let start = if whole == 0 { 0 } else { ends[whole - 1] };
                match r.read() {
                    Ok(None) if start == cut => {}
                    Err(TraceError::TruncatedRecord { offset }) if offset == start as u64 => {}
                    other => panic!("read size {chunk}, cut {cut}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bytes_read_tracks_decoding_not_readahead() {
        let insns = vec![CvpInstruction::alu(1), CvpInstruction::alu(2)];
        let buf = encoded(&insns);
        let mut r = CvpReader::new(buf.as_slice());
        r.read().unwrap();
        // The 64k buffer swallowed the whole stream, but only one
        // record's bytes are decoded.
        assert!(r.bytes_read() < buf.len() as u64);
        r.read().unwrap();
        assert_eq!(r.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn vector_register_values_keep_high_half() {
        let i = CvpInstruction::fp(0)
            .with_destination(40, OutputValue::vector(0x1111, 0x2222))
            .with_destination(2, 0x3333u64);
        let back = round_trip(std::slice::from_ref(&i));
        assert_eq!(back[0].value_of(40), Some(OutputValue::vector(0x1111, 0x2222)));
        assert_eq!(back[0].value_of(2), Some(OutputValue::scalar(0x3333)));
    }
}
