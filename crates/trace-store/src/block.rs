//! Block container: framing, checksums, and the seekable footer index.
//!
//! A store file is a small header, a sequence of independently
//! decodable blocks, and a footer index:
//!
//! ```text
//! header : "TRZB" version stream_kind filter reserved          (8 bytes)
//! block  : 0x01 flags records_u32 raw_u32 comp_u32 sum64      (22 bytes)
//!          payload[comp]
//! end    : 0x00
//! index  : { offset_u64 records_u32 raw_u32 } * block_count
//! tail   : index_offset_u64 block_count_u64 total_records_u64 "TRZX"
//! ```
//!
//! All integers are little-endian; `version` is [`VERSION`] (2), and a
//! reader refuses any other. `flags` bit 0 says whether the payload is
//! LZ-compressed (1) or stored raw (0; chosen when the codec fails to
//! shrink the block). `sum64` is the 4-lane word checksum
//! (`checksum`) over the **original, unfiltered** block bytes, so it
//! also catches bugs in the delta filters, not just storage corruption;
//! it changes whenever any one byte of a block does. Version 1 differed
//! only in its checksum (byte-serial FNV-1a 64). Sequential readers
//! never touch the index; seekable readers reach any block in O(1)
//! through the tail.
//!
//! [`BlockReader`] hands out one whole checked block at a time, and the
//! record readers decode straight from it. The header's `records` field
//! is not covered by the checksum, so they hold every block to it: a
//! record that does not parse, a different count, or bytes left over
//! are all a corrupt block.

use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::error::StoreError;
use crate::filter::Filter;
use crate::lz;

/// File magic for the store header.
pub const MAGIC: [u8; 4] = *b"TRZB";
/// Magic terminating the footer tail.
pub(crate) const TAIL_MAGIC: [u8; 4] = *b"TRZX";
/// Container format version this crate reads and writes.
pub const VERSION: u8 = 2;
/// Stream-kind byte for CVP-1 record streams.
pub const STREAM_CVP: u8 = 1;
/// Stream-kind byte for ChampSim 64-byte record streams.
pub const STREAM_CHAMPSIM: u8 = 2;

/// Records per block before the writer cuts a new one.
pub const DEFAULT_BLOCK_RECORDS: u32 = 65_536;
/// Byte-size cap that also cuts a block (bounds writer/reader memory
/// even for pathological record mixes).
const BLOCK_BYTES_CAP: usize = 8 << 20;
/// Largest raw block a reader will allocate for; anything bigger in a
/// header is treated as corruption rather than an allocation request.
const MAX_RAW_BLOCK: u32 = 64 << 20;

const BLOCK_MARKER: u8 = 0x01;
const END_MARKER: u8 = 0x00;
const FLAG_LZ: u8 = 0x01;
const TAIL_BYTES: usize = 8 + 8 + 8 + 4;
const INDEX_ENTRY_BYTES: usize = 8 + 4 + 4;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One xxHash64 round: a bijection in `word` for a fixed `acc`, and in
/// `acc` for a fixed `word`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Folds `word` into `h`; a bijection in each argument for a fixed
/// other.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4)
}

/// The block checksum: xxHash64-style rounds over little-endian `u64`
/// words in 4 independent lanes, one 32-byte stripe at a time.
///
/// The lanes are folded one after another into a state that starts at
/// the length; the tail (whole words, then the last 1–7 bytes as one
/// zero-padded word) is folded in after them, and a final avalanche
/// mixes the bits. Every
/// step is a bijection in the word it takes and in the state it
/// carries, so for a fixed length any change confined to one word
/// (every single-byte change) always changes the checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for stripe in stripes {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = round(*lane, lz::load_u64(stripe, 8 * k));
        }
    }
    let mut h = P5.wrapping_add(bytes.len() as u64);
    for lane in lanes {
        h = fold(h, lane);
    }
    while tail.len() >= 8 {
        h = fold(h, lz::load_u64(tail, 0));
        tail = &tail[8..];
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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
        let checksum = checksum(&self.buf);
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

/// Reads a block store sequentially from any [`Read`] source, one
/// checked block at a time.
///
/// [`next_block`](Self::next_block) reads, decompresses, un-filters and
/// checksums the next block into the reader's own buffer; the record
/// readers decode their records straight from that buffer and hold
/// each block to its header's record count.
#[derive(Debug)]
pub struct BlockReader<R> {
    inner: R,
    filter: Filter,
    /// The last block read, decoded and checked.
    block: Vec<u8>,
    comp: Vec<u8>,
    /// Zero-based index of the next block to read.
    next: u64,
    /// Bytes of `block` the record readers consumed, and the records
    /// its header says are still to come.
    pos: usize,
    left: u32,
    done: bool,
}

impl<R: Read> BlockReader<R> {
    /// Opens a store, validating the header against `expected_kind`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::WrongStreamKind`] or [`StoreError::UnknownFilter`]
    /// on a bad header; I/O errors from the source.
    pub fn new(mut inner: R, expected_kind: u8) -> Result<BlockReader<R>, StoreError> {
        let mut header = [0u8; 8];
        inner.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::BadMagic
            } else {
                StoreError::Io(e)
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
        let filter =
            Filter::from_u8(header[6]).ok_or(StoreError::UnknownFilter { filter: header[6] })?;
        Ok(BlockReader {
            inner,
            filter,
            block: Vec::new(),
            comp: Vec::new(),
            next: 0,
            pos: 0,
            left: 0,
            done: false,
        })
    }

    /// Reads, decompresses, un-filters and checksums the next block,
    /// returning its header's record count and its original bytes, or
    /// `None` at the end of the stream.
    ///
    /// # Errors
    ///
    /// [`StoreError::TruncatedBlock`], [`StoreError::CorruptBlock`] or
    /// [`StoreError::ChecksumMismatch`] naming the block; I/O errors
    /// from the source.
    pub fn next_block(&mut self) -> Result<Option<(u32, &[u8])>, StoreError> {
        if self.done {
            return Ok(None);
        }
        // Until this block checks out, no record of it may be read.
        self.left = 0;
        let block = self.next;
        let truncated = |e: io::Error| match e.kind() {
            io::ErrorKind::UnexpectedEof => StoreError::TruncatedBlock { block },
            _ => StoreError::Io(e),
        };
        let mut h = [0u8; 22];
        self.inner.read_exact(&mut h[..1]).map_err(truncated)?;
        if h[0] == END_MARKER {
            self.done = true;
            return Ok(None);
        }
        if h[0] != BLOCK_MARKER {
            return Err(StoreError::CorruptBlock { block });
        }
        self.inner.read_exact(&mut h[1..]).map_err(truncated)?;
        let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4 bytes"));
        let (flags, records, raw_len, comp_len) = (h[1], word(2), word(6), word(10));
        if records == 0
            || raw_len == 0
            || raw_len > MAX_RAW_BLOCK
            || comp_len > MAX_RAW_BLOCK
            || (flags & FLAG_LZ == 0 && comp_len != raw_len)
        {
            return Err(StoreError::CorruptBlock { block });
        }
        self.block.resize(raw_len as usize, 0);
        if flags & FLAG_LZ != 0 {
            self.comp.resize(comp_len as usize, 0);
            self.inner.read_exact(&mut self.comp).map_err(truncated)?;
            lz::decompress(&self.comp, &mut self.block)
                .map_err(|_| StoreError::CorruptBlock { block })?;
        } else {
            self.inner.read_exact(&mut self.block).map_err(truncated)?;
        }
        self.filter.invert(&mut self.block).map_err(|_| StoreError::CorruptBlock { block })?;
        if checksum(&self.block) != u64::from_le_bytes(h[14..22].try_into().expect("8 bytes")) {
            return Err(StoreError::ChecksumMismatch { block });
        }
        self.next += 1;
        self.pos = 0;
        self.left = records;
        Ok(Some((records, &self.block)))
    }

    /// The unread bytes of the current block, reading the next block
    /// first once the current one has given all the records its header
    /// counts; `None` at the end of the stream. A record reader parses
    /// one record from the front, then reports it with
    /// [`took`](Self::took) or fails the block with
    /// [`corrupt`](Self::corrupt). Readers build the record in their
    /// return expression: passing it back through an `Option` first
    /// measured as costly as parsing it.
    #[inline]
    pub(crate) fn records(&mut self) -> Result<Option<&[u8]>, StoreError> {
        if self.left == 0 && self.next_block()?.is_none() {
            return Ok(None);
        }
        Ok(Some(&self.block[self.pos..]))
    }

    /// Consumes one `len`-byte record of the current block. The block's
    /// checksum does not cover its header's record count, so bytes left
    /// after its last record fail it like a record that does not parse.
    #[inline]
    pub(crate) fn took(&mut self, len: usize) -> Result<(), StoreError> {
        self.pos += len;
        self.left -= 1;
        if self.left == 0 && self.pos != self.block.len() {
            return Err(self.corrupt());
        }
        Ok(())
    }

    /// The error for a current block whose bytes do not parse to the
    /// records its header counts.
    pub(crate) fn corrupt(&self) -> StoreError {
        StoreError::CorruptBlock { block: self.next - 1 }
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
    /// footer index). The rest of the current block is discarded.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadIndex`] if `block` is out of range; I/O errors
    /// from the source.
    pub fn seek_to_block(&mut self, index: &StoreIndex, block: usize) -> Result<(), StoreError> {
        let entry = index.entries.get(block).ok_or(StoreError::BadIndex)?;
        self.inner.seek(SeekFrom::Start(entry.offset))?;
        self.next = block as u64;
        self.left = 0;
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
    use workloads::rng::Xoshiro256;

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

    /// Concatenates the blocks from the reader's position to the end.
    fn read_blocks<R: Read>(r: &mut BlockReader<R>) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        while let Some((_, bytes)) = r.next_block()? {
            out.extend_from_slice(bytes);
        }
        Ok(out)
    }

    fn read_all(store: &[u8]) -> Vec<u8> {
        read_blocks(&mut BlockReader::new(store, STREAM_CVP).unwrap()).unwrap()
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
        let mut counts = Vec::new();
        while let Some((records, _)) = r.next_block().unwrap() {
            counts.push(records);
        }
        assert_eq!(counts, index.entries.iter().map(|e| e.records).collect::<Vec<_>>());
    }

    #[test]
    fn seek_to_block_resumes_mid_stream() {
        let records = sample_records(20);
        let store = build_store(&records, 4);
        let mut r = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = r.read_index().unwrap();
        r.seek_to_block(&index, 3).unwrap();
        assert_eq!(read_blocks(&mut r).unwrap(), records[12..].concat());
        // Seeking backwards works too.
        r.seek_to_block(&index, 0).unwrap();
        assert_eq!(read_blocks(&mut r).unwrap(), records.concat());
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
        match read_blocks(&mut r).unwrap_err() {
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
        match read_blocks(&mut r).unwrap_err() {
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
    fn version_1_store_is_refused_with_a_regenerate_hint() {
        let mut store = build_store(&sample_records(2), 4);
        assert_eq!(store[4], VERSION);
        store[4] = 1;
        match BlockReader::new(store.as_slice(), STREAM_CVP) {
            Err(e @ StoreError::UnsupportedVersion { version: 1 }) => {
                let msg = e.to_string();
                assert!(msg.contains("reads version 2") && msg.contains("regenerate"), "{msg}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unknown_filter_is_not_reported_as_a_version() {
        let mut store = build_store(&sample_records(2), 4);
        store[6] = 0xEE;
        match BlockReader::new(store.as_slice(), STREAM_CVP) {
            Err(StoreError::UnknownFilter { filter: 0xEE }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn checksum_is_pinned() {
        // 255 bytes: 7 stripes, then 3 tail words and a 7-byte padded
        // word, so every path is pinned. A changed value is a format
        // revision.
        let input: Vec<u8> = (0..255u8).collect();
        assert_eq!(checksum(&input), 0xa031_137a_9d04_4137);
        assert_eq!(checksum(&[]), 0xf0cb_5810_7a70_55ca);
    }

    #[test]
    fn checksum_changes_with_every_single_byte_change() {
        let mut rng = Xoshiro256::seed_from_u64(0xc0ffee);
        for len in 1..=80usize {
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let sum = checksum(&bytes);
            for pos in 0..len {
                let mask = (rng.below(255) + 1) as u8;
                bytes[pos] ^= mask;
                assert_ne!(checksum(&bytes), sum, "len {len} pos {pos} mask {mask:#x}");
                bytes[pos] ^= mask;
            }
        }
    }

    /// Small multi-block `.cvpz` and `.champsimz` stores of seeded CVP-1
    /// workloads and their ChampSim conversions.
    fn seeded_corpus() -> Vec<(u8, Vec<u8>)> {
        use converter::{Converter, ImprovementSet};
        use workloads::{TraceSpec, WorkloadKind};
        let mut rng = Xoshiro256::seed_from_u64(0x5eed);
        let mut corpus = Vec::new();
        for kind in [WorkloadKind::Server, WorkloadKind::PointerChase, WorkloadKind::FpKernel] {
            let insns = TraceSpec::new("flip", kind, rng.next_u64()).with_length(240).generate();
            let mut cvpz = crate::CvpzWriter::with_block_records(Vec::new(), 80).unwrap();
            for insn in &insns {
                cvpz.write(insn).unwrap();
            }
            corpus.push((STREAM_CVP, cvpz.finish().unwrap().0));
            let mut champsimz = crate::ChampsimzWriter::with_block_records(Vec::new(), 80).unwrap();
            for rec in Converter::new(ImprovementSet::all()).convert_all(insns.iter()) {
                champsimz.write(&rec).unwrap();
            }
            corpus.push((STREAM_CHAMPSIM, champsimz.finish().unwrap().0));
        }
        corpus
    }

    /// Reads every record from block `b` to the end through the store's
    /// record reader: the record count, or the block a decode failed in
    /// (`None` for any other error).
    fn records_from(
        kind: u8,
        bytes: &[u8],
        index: &StoreIndex,
        b: usize,
    ) -> Result<usize, Option<u64>> {
        use champsim_trace::ChampsimTraceError;
        use cvp_trace::TraceError;
        if kind == STREAM_CVP {
            let mut r = crate::CvpzReader::new(Cursor::new(bytes)).unwrap();
            r.seek_to_block(index, b).unwrap();
            r.collect::<Result<Vec<_>, _>>().map(|v| v.len()).map_err(|e| match e {
                TraceError::CorruptedBlock { block } => Some(block),
                _ => None,
            })
        } else {
            let mut r = crate::ChampsimzReader::new(Cursor::new(bytes)).unwrap();
            r.seek_to_block(index, b).unwrap();
            r.collect::<Result<Vec<_>, _>>().map(|v| v.len()).map_err(|e| match e {
                ChampsimTraceError::CorruptedBlock { block } => Some(block),
                _ => None,
            })
        }
    }

    /// Flips every checksum and payload byte of every block, one at a
    /// time. Each flip must fail its own block or, where the LZ stream
    /// absorbs it (an offset moved to an identical earlier run), decode
    /// to the original bytes: never a panic, never a wrong clean decode.
    /// Then flips every byte of each block's `records` header field,
    /// which the checksum does not cover: read through `CvpzReader` and
    /// `ChampsimzReader`, each must fail that block.
    #[test]
    fn every_flipped_payload_or_checksum_byte_fails_its_block() {
        let mut rng = Xoshiro256::seed_from_u64(0xf11b);
        let (mut failed, mut absorbed) = (0usize, 0usize);
        for (kind, store) in seeded_corpus() {
            let index = BlockReader::new(Cursor::new(&store), kind).unwrap().read_index().unwrap();
            assert!(index.entries.len() >= 3, "want a multi-block store");
            let decode_block = |bytes: &[u8], b: usize| {
                let mut r = BlockReader::new(Cursor::new(bytes), kind).unwrap();
                r.seek_to_block(&index, b).unwrap();
                r.next_block().map(|block| block.expect("a block").1.to_vec())
            };
            for (b, entry) in index.entries.iter().enumerate() {
                let want = decode_block(&store, b).unwrap();
                let at = entry.offset as usize;
                let comp_len = u32::from_le_bytes(store[at + 10..at + 14].try_into().unwrap());
                // The checksum field (header bytes 14..22), then the payload.
                for pos in at + 14..at + 22 + comp_len as usize {
                    let mut bad = store.clone();
                    bad[pos] ^= (rng.below(255) + 1) as u8;
                    match decode_block(&bad, b) {
                        Err(StoreError::ChecksumMismatch { block })
                        | Err(StoreError::CorruptBlock { block })
                            if block == b as u64 =>
                        {
                            failed += 1
                        }
                        Ok(got) if got == want => absorbed += 1,
                        Ok(_) => panic!("block {b} byte {pos}: wrong bytes decoded cleanly"),
                        Err(other) => panic!("block {b} byte {pos}: unexpected {other:?}"),
                    }
                }
                let remaining = index.entries[b..].iter().map(|e| e.records as usize).sum();
                assert_eq!(records_from(kind, &store, &index, b), Ok(remaining));
                for pos in at + 2..at + 6 {
                    let mut bad = store.clone();
                    bad[pos] ^= (rng.below(255) + 1) as u8;
                    let got = records_from(kind, &bad, &index, b);
                    assert_eq!(got, Err(Some(b as u64)), "block {b} count byte {pos}");
                }
            }
        }
        assert!(failed > 1000, "corpus too small: {failed} failing flips");
        assert!(absorbed * 10 < failed, "{absorbed} absorbed of {failed} failed");
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
}
