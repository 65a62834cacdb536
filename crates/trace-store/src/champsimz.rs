//! `.champsimz` — block-compressed ChampSim 64-byte record streams.
//!
//! Mirrors the plain [`ChampsimReader`](champsim_trace::ChampsimReader)
//! / [`ChampsimWriter`](champsim_trace::ChampsimWriter) API over the
//! block container. Because every record is exactly
//! [`RECORD_BYTES`] long, the reader takes each record straight from
//! the checked block [`BlockReader`] holds, with no second framing
//! layer.

use std::io::{Read, Seek, Write};

use champsim_trace::{ChampsimRecord, ChampsimTraceError, RECORD_BYTES};

use crate::block::{BlockReader, BlockWriter, StoreIndex, StoreStats, STREAM_CHAMPSIM};
use crate::error::StoreError;
use crate::filter::Filter;

/// Writes ChampSim records into a block-compressed store.
#[derive(Debug)]
pub struct ChampsimzWriter<W: Write> {
    inner: BlockWriter<W>,
}

impl<W: Write> ChampsimzWriter<W> {
    /// Creates a writer over `inner` and emits the store header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(inner: W) -> Result<ChampsimzWriter<W>, StoreError> {
        let inner = BlockWriter::new(inner, STREAM_CHAMPSIM, Filter::Champsim)?;
        Ok(ChampsimzWriter { inner })
    }

    /// Like [`new`](Self::new) with an explicit records-per-block limit.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn with_block_records(
        inner: W,
        block_records: u32,
    ) -> Result<ChampsimzWriter<W>, StoreError> {
        let inner = BlockWriter::with_block_records(
            inner,
            STREAM_CHAMPSIM,
            Filter::Champsim,
            block_records,
        )?;
        Ok(ChampsimzWriter { inner })
    }

    /// Encodes one record into the current block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink when a full block is flushed.
    pub fn write(&mut self, rec: &ChampsimRecord) -> Result<(), StoreError> {
        self.inner.push_record(&rec.to_bytes())
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

/// Reads ChampSim records back out of a block-compressed store.
///
/// Also an [`Iterator`] over `Result<ChampsimRecord,
/// ChampsimTraceError>`. Store-level corruption, including a block whose
/// length is not its header's record count times [`RECORD_BYTES`],
/// surfaces as [`ChampsimTraceError::CorruptedBlock`].
#[derive(Debug)]
pub struct ChampsimzReader<R> {
    blocks: BlockReader<R>,
}

impl<R: Read> ChampsimzReader<R> {
    /// Opens a store, validating its header.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::WrongStreamKind`] /
    /// [`StoreError::UnsupportedVersion`] / [`StoreError::UnknownFilter`]
    /// on a foreign file; I/O errors from the source.
    pub fn new(inner: R) -> Result<ChampsimzReader<R>, StoreError> {
        Ok(ChampsimzReader { blocks: BlockReader::new(inner, STREAM_CHAMPSIM)? })
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`ChampsimTraceError::CorruptedBlock`] for store-level
    /// corruption; plain I/O errors otherwise.
    pub fn read(&mut self) -> Result<Option<ChampsimRecord>, ChampsimTraceError> {
        let Some(bytes) = self.blocks.records()? else { return Ok(None) };
        let Some(&record) = bytes.first_chunk::<RECORD_BYTES>() else {
            return Err(self.blocks.corrupt().into());
        };
        self.blocks.took(RECORD_BYTES)?;
        Ok(Some(ChampsimRecord::from_bytes(&record)))
    }
}

impl<R: Read + Seek> ChampsimzReader<R> {
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

    /// Repositions at the start of block `block` in O(1).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if `block` is out of range.
    pub fn seek_to_block(&mut self, index: &StoreIndex, block: usize) -> Result<(), StoreError> {
        self.blocks.seek_to_block(index, block)
    }
}

impl<R: Read> Iterator for ChampsimzReader<R> {
    type Item = Result<ChampsimRecord, ChampsimTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use champsim_trace::regs;
    use std::io::Cursor;

    fn workload(n: usize) -> Vec<ChampsimRecord> {
        (0..n as u64)
            .map(|i| {
                let mut r = ChampsimRecord::new(0x40_0000 + 4 * i);
                if i % 7 == 0 {
                    r.set_branch(true);
                    r.set_branch_taken(i % 2 == 0);
                    r.add_source_register(regs::INSTRUCTION_POINTER);
                }
                if i % 3 == 1 {
                    r.add_source_memory(0x1_0000 + 64 * i);
                }
                r
            })
            .collect()
    }

    fn store_of(recs: &[ChampsimRecord], per_block: u32) -> Vec<u8> {
        let mut w = ChampsimzWriter::with_block_records(Vec::new(), per_block).unwrap();
        for r in recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap().0
    }

    #[test]
    fn round_trips_records() {
        let recs = workload(500);
        let store = store_of(&recs, 128);
        let back: Vec<ChampsimRecord> =
            ChampsimzReader::new(store.as_slice()).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_store_is_clean_eof() {
        let store = store_of(&[], 128);
        assert!(ChampsimzReader::new(store.as_slice()).unwrap().read().unwrap().is_none());
    }

    #[test]
    fn compresses_sequential_code() {
        let recs = workload(4096);
        let raw_len = recs.len() * RECORD_BYTES;
        let store = store_of(&recs, 1024);
        assert!(
            store.len() * 3 < raw_len,
            "expected ≥3× compression: {} vs {raw_len}",
            store.len()
        );
    }

    #[test]
    fn seek_lands_on_block_boundaries() {
        let recs = workload(300);
        let store = store_of(&recs, 64);
        let mut r = ChampsimzReader::new(Cursor::new(&store)).unwrap();
        let index = r.read_index().unwrap();
        assert_eq!(index.total_records, 300);
        r.seek_to_block(&index, 2).unwrap();
        let back: Vec<ChampsimRecord> = r.collect::<Result<_, _>>().unwrap();
        assert_eq!(back, recs[128..]);
    }

    #[test]
    fn corruption_surfaces_as_corrupted_block() {
        let recs = workload(256);
        let mut store = store_of(&recs, 64);
        let mut pristine = ChampsimzReader::new(Cursor::new(&store)).unwrap();
        let target = pristine.read_index().unwrap().entries[2].offset as usize + 22;
        store[target] ^= 0xA5;
        let result: Result<Vec<ChampsimRecord>, ChampsimTraceError> =
            ChampsimzReader::new(store.as_slice()).unwrap().collect();
        match result {
            Err(ChampsimTraceError::CorruptedBlock { block: 2 }) => {}
            other => panic!("expected CorruptedBlock, got {other:?}"),
        }
    }
}
