//! Block container: framing, checksums, and the seekable footer index.
//!
//! A store file is a small header, a sequence of independently
//! decodable blocks, and a footer index:
//!
//! ```text
//! header : "TRZB" version stream_kind filter reserved          (8 bytes)
//! block  : 0x01 flags records_u32 raw_u32 comp_u32 fnv64      (22 bytes)
//!          payload[comp]
//! end    : 0x00
//! index  : { offset_u64 records_u32 raw_u32 } * block_count
//! tail   : index_offset_u64 block_count_u64 total_records_u64 "TRZX"
//! ```
//!
//! All integers are little-endian. `flags` bit 0 says whether the
//! payload is LZ-compressed (1) or stored raw (0; chosen when the codec
//! fails to shrink the block). The checksum is FNV-1a 64 over the
//! **original, unfiltered** block bytes, so it also catches bugs in the
//! delta filters, not just storage corruption. Sequential readers never
//! touch the index; seekable readers reach any block in O(1) through
//! the tail.

use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::error::StoreError;
use crate::filter::Filter;
use crate::lz;

/// File magic for the store header.
pub const MAGIC: [u8; 4] = *b"TRZB";
/// Magic terminating the footer tail.
pub(crate) const TAIL_MAGIC: [u8; 4] = *b"TRZX";
/// Container format version this crate reads and writes.
pub const VERSION: u8 = 1;
/// Stream-kind byte for CVP-1 record streams.
pub const STREAM_CVP: u8 = 1;
/// Stream-kind byte for ChampSim 64-byte record streams.
pub const STREAM_CHAMPSIM: u8 = 2;

/// Records per block before the writer cuts a new one.
pub const DEFAULT_BLOCK_RECORDS: u32 = 65_536;
/// Byte-size cap that also cuts a block (bounds writer/reader memory
/// even for pathological record mixes). Record-stream readers size
/// their decode buffers just above this so whole blocks always take the
/// zero-copy path.
pub(crate) const BLOCK_BYTES_CAP: usize = 8 << 20;
/// Largest raw block a reader will allocate for; anything bigger in a
/// header is treated as corruption rather than an allocation request.
const MAX_RAW_BLOCK: u32 = 64 << 20;

const BLOCK_MARKER: u8 = 0x01;
const END_MARKER: u8 = 0x00;
const FLAG_LZ: u8 = 0x01;
const TAIL_BYTES: usize = 8 + 8 + 8 + 4;
const INDEX_ENTRY_BYTES: usize = 8 + 4 + 4;

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Volume counters accumulated by a [`BlockWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blocks emitted (including the final partial block).
    pub blocks_written: u64,
    /// Total raw (uncompressed) payload bytes across all blocks.
    pub bytes_raw: u64,
    /// Total payload bytes as stored on disk.
    pub bytes_compressed: u64,
}

impl StoreStats {
    /// Raw-to-stored size ratio; `0.0` before any payload is written.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_compressed == 0 {
            0.0
        } else {
            self.bytes_raw as f64 / self.bytes_compressed as f64
        }
    }
}

/// One footer-index entry: where a block starts and what it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// File offset of the block's marker byte.
    pub offset: u64,
    /// Records stored in the block.
    pub records: u32,
    /// Raw (decoded) payload size in bytes.
    pub raw_len: u32,
}

/// Parsed footer index: per-block entries plus the record total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreIndex {
    /// One entry per block, in file order.
    pub entries: Vec<BlockEntry>,
    /// Total records across all blocks.
    pub total_records: u64,
}

/// Writes a block store to any [`Write`] sink.
///
/// Records are appended with [`push_record`](Self::push_record); the
/// writer cuts a block every [`DEFAULT_BLOCK_RECORDS`] records (or at a
/// byte cap), delta-filters it, compresses it, and emits it. Call
/// [`finish`](Self::finish) to write the footer — a store without a
/// footer reads back as truncated.
#[derive(Debug)]
pub struct BlockWriter<W> {
    inner: W,
    filter: Filter,
    block_records: u32,
    buf: Vec<u8>,
    comp: Vec<u8>,
    records: u32,
    index: Vec<BlockEntry>,
    offset: u64,
    stats: StoreStats,
    total_records: u64,
}

impl<W: Write> BlockWriter<W> {
    /// Creates a writer and emits the store header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(inner: W, stream_kind: u8, filter: Filter) -> Result<BlockWriter<W>, StoreError> {
        BlockWriter::with_block_records(inner, stream_kind, filter, DEFAULT_BLOCK_RECORDS)
    }

    /// Like [`new`](Self::new) with an explicit records-per-block limit
    /// (must be nonzero; tests use small blocks to exercise boundaries).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn with_block_records(
        mut inner: W,
        stream_kind: u8,
        filter: Filter,
        block_records: u32,
    ) -> Result<BlockWriter<W>, StoreError> {
        assert!(block_records > 0, "block_records must be nonzero");
        inner.write_all(&[
            MAGIC[0],
            MAGIC[1],
            MAGIC[2],
            MAGIC[3],
            VERSION,
            stream_kind,
            filter as u8,
            0,
        ])?;
        Ok(BlockWriter {
            inner,
            filter,
            block_records,
            buf: Vec::new(),
            comp: Vec::new(),
            records: 0,
            index: Vec::new(),
            offset: 8,
            stats: StoreStats::default(),
            total_records: 0,
        })
    }

    /// Appends one already-encoded record to the current block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink when a full block is flushed.
    pub fn push_record(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.buf.extend_from_slice(record);
        self.records += 1;
        self.total_records += 1;
        if self.records >= self.block_records || self.buf.len() >= BLOCK_BYTES_CAP {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Volume counters so far (the final block is only counted after
    /// [`finish`](Self::finish)).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.total_records
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        if self.records == 0 {
            return Ok(());
        }
        let block = self.index.len() as u64;
        let checksum = fnv1a(&self.buf);
        self.filter.apply(&mut self.buf).map_err(|_| StoreError::CorruptBlock { block })?;
        self.comp.clear();
        lz::compress(&self.buf, &mut self.comp);
        let (flags, payload) = if self.comp.len() < self.buf.len() {
            (FLAG_LZ, self.comp.as_slice())
        } else {
            (0, self.buf.as_slice())
        };
        let raw_len = self.buf.len() as u32;
        let comp_len = payload.len() as u32;
        let mut header = [0u8; 22];
        header[0] = BLOCK_MARKER;
        header[1] = flags;
        header[2..6].copy_from_slice(&self.records.to_le_bytes());
        header[6..10].copy_from_slice(&raw_len.to_le_bytes());
        header[10..14].copy_from_slice(&comp_len.to_le_bytes());
        header[14..22].copy_from_slice(&checksum.to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(payload)?;
        self.index.push(BlockEntry { offset: self.offset, records: self.records, raw_len });
        self.offset += (header.len() + payload.len()) as u64;
        self.stats.blocks_written += 1;
        self.stats.bytes_raw += u64::from(raw_len);
        self.stats.bytes_compressed += u64::from(comp_len);
        self.records = 0;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the final block, writes the footer index and tail, and
    /// returns the sink along with the final volume counters.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> Result<(W, StoreStats), StoreError> {
        self.flush_block()?;
        self.inner.write_all(&[END_MARKER])?;
        let index_offset = self.offset + 1;
        for e in &self.index {
            self.inner.write_all(&e.offset.to_le_bytes())?;
            self.inner.write_all(&e.records.to_le_bytes())?;
            self.inner.write_all(&e.raw_len.to_le_bytes())?;
        }
        self.inner.write_all(&index_offset.to_le_bytes())?;
        self.inner.write_all(&(self.index.len() as u64).to_le_bytes())?;
        self.inner.write_all(&self.total_records.to_le_bytes())?;
        self.inner.write_all(&TAIL_MAGIC)?;
        self.inner.flush()?;
        Ok((self.inner, self.stats))
    }
}

/// Reads a block store sequentially from any [`Read`] source.
///
/// Implements [`Read`] over the *decoded* record stream, so the
/// existing record readers layer on top unchanged. When the caller's
/// buffer can hold a whole block, the block is decoded straight into it
/// — no copy through an internal buffer (the record readers size their
/// buffers to make this the common path). Typed [`StoreError`]s are
/// funneled through [`io::Error`] and recovered with
/// `StoreError::from`.
#[derive(Debug)]
pub struct BlockReader<R> {
    inner: R,
    filter: Filter,
    block: Vec<u8>,
    pos: usize,
    comp: Vec<u8>,
    block_idx: u64,
    done: bool,
}

/// Decoded per-block header fields.
struct BlockHeader {
    flags: u8,
    records: u32,
    raw_len: u32,
    comp_len: u32,
    checksum: u64,
}

impl<R: Read> BlockReader<R> {
    /// Opens a store, validating the header against `expected_kind`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`], or
    /// [`StoreError::WrongStreamKind`] on a bad header; I/O errors from
    /// the source.
    pub fn new(mut inner: R, expected_kind: u8) -> Result<BlockReader<R>, StoreError> {
        let mut header = [0u8; 8];
        inner.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::BadMagic
            } else {
                StoreError::from(e)
            }
        })?;
        if header[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if header[4] != VERSION {
            return Err(StoreError::UnsupportedVersion { version: header[4] });
        }
        if header[5] != expected_kind {
            return Err(StoreError::WrongStreamKind { found: header[5], expected: expected_kind });
        }
        // An unknown filter ID means the store was written by a newer
        // format revision than this reader understands.
        let filter = Filter::from_u8(header[6])
            .ok_or(StoreError::UnsupportedVersion { version: header[6] })?;
        Ok(BlockReader {
            inner,
            filter,
            block: Vec::new(),
            pos: 0,
            comp: Vec::new(),
            block_idx: 0,
            done: false,
        })
    }

    /// Zero-based index of the next block to be decoded.
    pub fn next_block_index(&self) -> u64 {
        self.block_idx
    }

    fn read_block_header(&mut self) -> Result<Option<BlockHeader>, StoreError> {
        let block = self.block_idx;
        let mut marker = [0u8; 1];
        self.inner.read_exact(&mut marker).map_err(|e| truncated(e, block))?;
        if marker[0] == END_MARKER {
            self.done = true;
            return Ok(None);
        }
        if marker[0] != BLOCK_MARKER {
            return Err(StoreError::CorruptBlock { block });
        }
        let mut h = [0u8; 21];
        self.inner.read_exact(&mut h).map_err(|e| truncated(e, block))?;
        let header = BlockHeader {
            flags: h[0],
            records: u32::from_le_bytes(h[1..5].try_into().expect("4 bytes")),
            raw_len: u32::from_le_bytes(h[5..9].try_into().expect("4 bytes")),
            comp_len: u32::from_le_bytes(h[9..13].try_into().expect("4 bytes")),
            checksum: u64::from_le_bytes(h[13..21].try_into().expect("8 bytes")),
        };
        if header.records == 0
            || header.raw_len == 0
            || header.raw_len > MAX_RAW_BLOCK
            || header.comp_len > MAX_RAW_BLOCK
            || (header.flags & FLAG_LZ == 0 && header.comp_len != header.raw_len)
        {
            return Err(StoreError::CorruptBlock { block });
        }
        Ok(Some(header))
    }

    /// Decodes the payload described by `header` into `dst`, which must
    /// be exactly `header.raw_len` bytes.
    fn decode_payload(&mut self, header: &BlockHeader, dst: &mut [u8]) -> Result<(), StoreError> {
        let block = self.block_idx;
        if header.flags & FLAG_LZ != 0 {
            self.comp.resize(header.comp_len as usize, 0);
            self.inner.read_exact(&mut self.comp).map_err(|e| truncated(e, block))?;
            lz::decompress(&self.comp, dst).map_err(|_| StoreError::CorruptBlock { block })?;
        } else {
            self.inner.read_exact(dst).map_err(|e| truncated(e, block))?;
        }
        self.filter.invert(dst).map_err(|_| StoreError::CorruptBlock { block })?;
        if fnv1a(dst) != header.checksum {
            return Err(StoreError::ChecksumMismatch { block });
        }
        self.block_idx += 1;
        Ok(())
    }
}

fn truncated(e: io::Error, block: u64) -> StoreError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        StoreError::TruncatedBlock { block }
    } else {
        StoreError::from(e)
    }
}

impl<R: Read> Read for BlockReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.block.len() {
            if self.done {
                return Ok(0);
            }
            // Zero-copy fast path: decode the whole next block directly
            // into the caller's buffer when it fits.
            let header = match self.read_block_header()? {
                None => return Ok(0),
                Some(h) => h,
            };
            let raw = header.raw_len as usize;
            if buf.len() >= raw {
                self.decode_payload(&header, &mut buf[..raw])?;
                return Ok(raw);
            }
            self.block.resize(raw, 0);
            let mut block = std::mem::take(&mut self.block);
            let res = self.decode_payload(&header, &mut block);
            self.block = block;
            self.pos = 0;
            res?;
        }
        let n = buf.len().min(self.block.len() - self.pos);
        buf[..n].copy_from_slice(&self.block[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl<R: Read + Seek> BlockReader<R> {
    /// Reads the footer index without disturbing the current position.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if the tail or index is missing or
    /// self-inconsistent; I/O errors from the source.
    pub fn read_index(&mut self) -> Result<StoreIndex, StoreError> {
        let saved = self.inner.stream_position()?;
        let result = read_index_at_end(&mut self.inner);
        self.inner.seek(SeekFrom::Start(saved))?;
        result
    }

    /// Positions the reader at the start of block `block` (O(1) via the
    /// footer index). Any partially consumed block is discarded.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if `block` is out of range; I/O errors
    /// from the source.
    pub fn seek_to_block(&mut self, index: &StoreIndex, block: usize) -> Result<(), StoreError> {
        let entry = index.entries.get(block).ok_or(StoreError::BadIndex)?;
        self.inner.seek(SeekFrom::Start(entry.offset))?;
        self.block.clear();
        self.pos = 0;
        self.block_idx = block as u64;
        self.done = false;
        Ok(())
    }
}

/// Reads the footer tail and index from the end of a seekable source.
fn read_index_at_end<R: Read + Seek>(r: &mut R) -> Result<StoreIndex, StoreError> {
    let len = r.seek(SeekFrom::End(0))?;
    if len < TAIL_BYTES as u64 {
        return Err(StoreError::BadIndex);
    }
    r.seek(SeekFrom::End(-(TAIL_BYTES as i64)))?;
    let mut tail = [0u8; TAIL_BYTES];
    r.read_exact(&mut tail)?;
    if tail[24..28] != TAIL_MAGIC {
        return Err(StoreError::BadIndex);
    }
    let index_offset = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
    let block_count = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
    let total_records = u64::from_le_bytes(tail[16..24].try_into().expect("8 bytes"));
    let index_bytes =
        block_count.checked_mul(INDEX_ENTRY_BYTES as u64).ok_or(StoreError::BadIndex)?;
    if index_offset.checked_add(index_bytes).ok_or(StoreError::BadIndex)? != len - TAIL_BYTES as u64
    {
        return Err(StoreError::BadIndex);
    }
    r.seek(SeekFrom::Start(index_offset))?;
    let mut entries = Vec::with_capacity(block_count.min(1 << 20) as usize);
    let mut buf = [0u8; INDEX_ENTRY_BYTES];
    for _ in 0..block_count {
        r.read_exact(&mut buf)?;
        entries.push(BlockEntry {
            offset: u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")),
            records: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
            raw_len: u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")),
        });
    }
    Ok(StoreIndex { entries, total_records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn build_store(records: &[Vec<u8>], per_block: u32) -> Vec<u8> {
        let mut w =
            BlockWriter::with_block_records(Vec::new(), STREAM_CVP, Filter::None, per_block)
                .unwrap();
        for r in records {
            w.push_record(r).unwrap();
        }
        let (buf, _) = w.finish().unwrap();
        buf
    }

    fn read_all(store: &[u8]) -> Vec<u8> {
        let mut r = BlockReader::new(store, STREAM_CVP).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        out
    }

    fn sample_records(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 3 + i % 17]).collect()
    }

    #[test]
    fn empty_store_round_trips() {
        let store = build_store(&[], 4);
        assert!(read_all(&store).is_empty());
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        assert!(index.entries.is_empty());
        assert_eq!(index.total_records, 0);
    }

    #[test]
    fn single_partial_block_round_trips() {
        let records = sample_records(3);
        let store = build_store(&records, 64);
        assert_eq!(read_all(&store), records.concat());
    }

    #[test]
    fn exactly_one_full_block_round_trips() {
        let records = sample_records(8);
        let store = build_store(&records, 8);
        assert_eq!(read_all(&store), records.concat());
    }

    #[test]
    fn multi_block_store_round_trips_with_correct_index() {
        let records = sample_records(37);
        let store = build_store(&records, 5);
        assert_eq!(read_all(&store), records.concat());
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        assert_eq!(index.entries.len(), 8); // 7 full + 1 partial
        assert_eq!(index.total_records, 37);
        assert_eq!(index.entries.iter().map(|e| u64::from(e.records)).sum::<u64>(), 37);
    }

    #[test]
    fn seek_to_block_resumes_mid_stream() {
        let records = sample_records(20);
        let store = build_store(&records, 4);
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        r.seek_to_block(&index, 3).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, records[12..].concat());
        // Seeking backwards works too.
        r.seek_to_block(&index, 0).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, records.concat());
    }

    #[test]
    fn corrupted_payload_byte_is_a_checksum_mismatch() {
        let records = sample_records(12);
        let mut store = build_store(&records, 4);
        // Flip a byte inside the second block's payload. Block starts:
        // find via the index of the pristine store.
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        let target = index.entries[1].offset as usize + 22; // skip header
        store[target] ^= 0xFF;
        let mut r = BlockReader::new(store.as_slice(), STREAM_CVP).unwrap();
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        match StoreError::from(err) {
            StoreError::ChecksumMismatch { block: 1 } | StoreError::CorruptBlock { block: 1 } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn truncated_store_reports_the_block() {
        let records = sample_records(12);
        let store = build_store(&records, 4);
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        // Cut inside the third block.
        let cut = index.entries[2].offset as usize + 10;
        let mut r = BlockReader::new(&store[..cut], STREAM_CVP).unwrap();
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        match StoreError::from(err) {
            StoreError::TruncatedBlock { block: 2 } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn header_validation_catches_mismatches() {
        let store = build_store(&sample_records(2), 4);
        match BlockReader::new(b"NOPE".as_slice(), STREAM_CVP) {
            Err(StoreError::BadMagic) => {}
            other => panic!("unexpected: {other:?}"),
        }
        match BlockReader::new(store.as_slice(), STREAM_CHAMPSIM) {
            Err(StoreError::WrongStreamKind { found: STREAM_CVP, expected: STREAM_CHAMPSIM }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let mut versioned = store.clone();
        versioned[4] = 99;
        match BlockReader::new(versioned.as_slice(), STREAM_CVP) {
            Err(StoreError::UnsupportedVersion { version: 99 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_footer_is_a_bad_index() {
        let records = sample_records(6);
        let store = build_store(&records, 4);
        // Chop the tail off: sequential reads still work up to the cut,
        // but the index is gone.
        let cut = store.len() - TAIL_BYTES;
        let mut r = BlockReader::new(Cursor::new(&store[..cut]), STREAM_CVP).unwrap();
        match r.read_index() {
            Err(StoreError::BadIndex) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn incompressible_block_is_stored_raw() {
        // Pseudo-random bytes: the codec cannot shrink them, so the
        // writer stores the block raw and the ratio stays ~1.
        let mut state = 0x1234_5678_9abc_def0u64;
        let records: Vec<Vec<u8>> = (0..64)
            .map(|_| {
                (0..32)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state & 0xFF) as u8
                    })
                    .collect()
            })
            .collect();
        let mut w =
            BlockWriter::with_block_records(Vec::new(), STREAM_CVP, Filter::None, 64).unwrap();
        for r in &records {
            w.push_record(r).unwrap();
        }
        let (buf, stats) = w.finish().unwrap();
        assert_eq!(stats.bytes_compressed, stats.bytes_raw);
        assert_eq!(read_all(&buf), records.concat());
    }

    #[test]
    fn repetitive_blocks_compress_well() {
        let records: Vec<Vec<u8>> = (0..1024).map(|_| vec![0xAB; 64]).collect();
        let mut w = BlockWriter::new(Vec::new(), STREAM_CVP, Filter::None).unwrap();
        for r in &records {
            w.push_record(r).unwrap();
        }
        let (buf, stats) = w.finish().unwrap();
        assert!(stats.compression_ratio() > 10.0, "ratio {}", stats.compression_ratio());
        assert_eq!(read_all(&buf), records.concat());
    }

    #[test]
    fn zero_copy_path_matches_buffered_path() {
        let records = sample_records(40);
        let store = build_store(&records, 8);
        let expect = records.concat();
        // Big destination: every block lands via the fast path.
        let mut r = BlockReader::new(store.as_slice(), STREAM_CVP).unwrap();
        let mut big = vec![0u8; expect.len() + 64];
        let mut got = Vec::new();
        loop {
            let n = r.read(&mut big).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&big[..n]);
        }
        assert_eq!(got, expect);
        // Tiny destination: every block goes through the internal buffer.
        let mut r = BlockReader::new(store.as_slice(), STREAM_CVP).unwrap();
        let mut tiny = [0u8; 3];
        let mut got = Vec::new();
        loop {
            let n = r.read(&mut tiny).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&tiny[..n]);
        }
        assert_eq!(got, expect);
    }
}
