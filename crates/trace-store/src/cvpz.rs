//! `.cvpz` — block-compressed CVP-1 record streams.
//!
//! [`CvpzWriter`] / [`CvpzReader`] mirror the plain
//! [`CvpWriter`](cvp_trace::CvpWriter) / [`CvpReader`] API over the
//! block container: same records, same order, several times smaller on
//! disk. The reader runs [`decode_record`], the one CVP-1 record
//! parser, straight on each checked block from [`BlockReader`].

use std::io::{Read, Seek, Write};

use cvp_trace::{decode_record, encode_record, CvpInstruction, TraceError};

use crate::block::{BlockReader, BlockWriter, StoreIndex, StoreStats, STREAM_CVP};
use crate::error::StoreError;
use crate::filter::Filter;

/// Writes CVP-1 records into a block-compressed store.
#[derive(Debug)]
pub struct CvpzWriter<W: Write> {
    inner: BlockWriter<W>,
    scratch: Vec<u8>,
}

impl<W: Write> CvpzWriter<W> {
    /// Creates a writer over `inner` and emits the store header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(inner: W) -> Result<CvpzWriter<W>, StoreError> {
        let inner = BlockWriter::new(inner, STREAM_CVP, Filter::Cvp)?;
        Ok(CvpzWriter { inner, scratch: Vec::new() })
    }

    /// Like [`new`](Self::new) with an explicit records-per-block limit
    /// (tests use small blocks to exercise boundary handling).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn with_block_records(inner: W, block_records: u32) -> Result<CvpzWriter<W>, StoreError> {
        let inner = BlockWriter::with_block_records(inner, STREAM_CVP, Filter::Cvp, block_records)?;
        Ok(CvpzWriter { inner, scratch: Vec::new() })
    }

    /// Encodes one record into the current block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink when a full block is flushed.
    pub fn write(&mut self, insn: &CvpInstruction) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_record(insn, &mut self.scratch);
        self.inner.push_record(&self.scratch)
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.inner.records_written()
    }

    /// Flushes the final block, writes the footer, and returns the sink
    /// with the store's volume counters.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(self) -> Result<(W, StoreStats), StoreError> {
        self.inner.finish()
    }
}

/// Reads CVP-1 records back out of a block-compressed store.
///
/// Also an [`Iterator`] over `Result<CvpInstruction, TraceError>`, like
/// the plain reader. Store-level corruption, including a block whose
/// records do not match its header's count, surfaces as
/// [`TraceError::CorruptedBlock`].
#[derive(Debug)]
pub struct CvpzReader<R> {
    blocks: BlockReader<R>,
}

impl<R: Read> CvpzReader<R> {
    /// Opens a store, validating its header.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::WrongStreamKind`] /
    /// [`StoreError::UnsupportedVersion`] / [`StoreError::UnknownFilter`]
    /// on a foreign file; I/O errors from the source.
    pub fn new(inner: R) -> Result<CvpzReader<R>, StoreError> {
        Ok(CvpzReader { blocks: BlockReader::new(inner, STREAM_CVP)? })
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::CorruptedBlock`] for store-level corruption; plain
    /// I/O errors otherwise.
    pub fn read(&mut self) -> Result<Option<CvpInstruction>, TraceError> {
        let Some(bytes) = self.blocks.records()? else { return Ok(None) };
        let Ok((insn, len)) = decode_record(bytes, 0) else {
            return Err(self.blocks.corrupt().into());
        };
        self.blocks.took(len)?;
        Ok(Some(insn))
    }
}

impl<R: Read + Seek> CvpzReader<R> {
    /// Reads the footer index (block boundaries and record counts)
    /// without disturbing the current read position.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if the footer is missing or
    /// inconsistent.
    pub fn read_index(&mut self) -> Result<StoreIndex, StoreError> {
        self.blocks.read_index()
    }

    /// Repositions at the start of block `block` in O(1). The rest of
    /// the current block is discarded; the next [`read`](Self::read)
    /// returns the block's first record.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if `block` is out of range.
    pub fn seek_to_block(&mut self, index: &StoreIndex, block: usize) -> Result<(), StoreError> {
        self.blocks.seek_to_block(index, block)
    }
}

impl<R: Read> Iterator for CvpzReader<R> {
    type Item = Result<CvpInstruction, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn workload(n: usize) -> Vec<CvpInstruction> {
        (0..n as u64)
            .map(|i| match i % 5 {
                0 => CvpInstruction::alu(0x1000 + 4 * i).with_destination(1, i),
                1 => CvpInstruction::load(0x1000 + 4 * i, 0x8000 + 8 * i, 8)
                    .with_sources(&[1])
                    .with_destination(2, i * 3),
                2 => CvpInstruction::store(0x1000 + 4 * i, 0x9000 + 8 * i, 8).with_sources(&[2]),
                3 => CvpInstruction::cond_branch(0x1000 + 4 * i, i % 2 == 0, 0x1000),
                _ => CvpInstruction::fp(0x1000 + 4 * i)
                    .with_destination(40, cvp_trace::OutputValue::vector(i, !i)),
            })
            .collect()
    }

    fn store_of(insns: &[CvpInstruction], per_block: u32) -> Vec<u8> {
        let mut w = CvpzWriter::with_block_records(Vec::new(), per_block).unwrap();
        for i in insns {
            w.write(i).unwrap();
        }
        w.finish().unwrap().0
    }

    #[test]
    fn round_trips_all_record_shapes() {
        let insns = workload(1000);
        let store = store_of(&insns, 64);
        let back: Vec<CvpInstruction> =
            CvpzReader::new(store.as_slice()).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(back, insns);
    }

    #[test]
    fn empty_store_is_clean_eof() {
        let store = store_of(&[], 64);
        let mut r = CvpzReader::new(store.as_slice()).unwrap();
        assert!(r.read().unwrap().is_none());
    }

    #[test]
    fn seek_skips_whole_blocks() {
        let insns = workload(300);
        let store = store_of(&insns, 50);
        let mut r = CvpzReader::new(Cursor::new(&store)).unwrap();
        let index = r.read_index().unwrap();
        assert_eq!(index.total_records, 300);
        r.seek_to_block(&index, 4).unwrap();
        let back: Vec<CvpInstruction> = r.collect::<Result<_, _>>().unwrap();
        assert_eq!(back, insns[200..]);
    }

    #[test]
    fn read_index_does_not_disturb_sequential_reads() {
        let insns = workload(120);
        let store = store_of(&insns, 32);
        let mut r = CvpzReader::new(Cursor::new(&store)).unwrap();
        let first = r.read().unwrap().unwrap();
        assert_eq!(first, insns[0]);
        let _ = r.read_index().unwrap();
        let second = r.read().unwrap().unwrap();
        assert_eq!(second, insns[1]);
    }

    #[test]
    fn corruption_surfaces_as_corrupted_block() {
        let insns = workload(200);
        let mut store = store_of(&insns, 64);
        // Damage a byte inside the second block's payload (located via
        // the footer index; 22 bytes skip the block header).
        let mut pristine = CvpzReader::new(Cursor::new(&store)).unwrap();
        let target = pristine.read_index().unwrap().entries[1].offset as usize + 22;
        store[target] ^= 0x5A;
        let result: Result<Vec<CvpInstruction>, TraceError> =
            CvpzReader::new(store.as_slice()).unwrap().collect();
        match result {
            Err(TraceError::CorruptedBlock { .. }) => {}
            other => panic!("expected CorruptedBlock, got {other:?}"),
        }
    }
}
