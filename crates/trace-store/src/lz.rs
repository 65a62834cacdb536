//! In-tree LZ codec: greedy LZ77 over a 64 KiB match window.
//!
//! Same no-external-deps policy as the workspace's xoshiro PRNG — the
//! format is a small LZ4-style token stream, tuned for trace payloads
//! (long runs of near-identical records after delta filtering):
//!
//! ```text
//! sequence := token  [lit-ext*]  literal*  offset_u16le  [match-ext*]
//! token    := (lit_len_nibble << 4) | match_len_nibble
//! ```
//!
//! A nibble of 15 is followed by extension bytes (each adding 255, the
//! first non-255 byte terminating — a base-255 varint). Match lengths
//! are stored minus `MIN_MATCH` (4). The final sequence of a stream
//! carries only literals: the decoder stops when the source is
//! exhausted after a literal copy. Back-references never cross a block
//! boundary, so every block decompresses independently (the seekable
//! store depends on this).

/// Shortest match worth encoding (token + offset cost 3 bytes).
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (`u16` offset field).
const MAX_OFFSET: usize = 65_535;
/// Number of hash-table slots in the match finder.
const HASH_SLOTS: usize = 1 << 16;

/// Malformed compressed stream (the only decompression failure mode;
/// the block layer maps it to a typed per-block error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzCorrupt;

fn load_u32(src: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(src[at..at + 4].try_into().expect("4 bytes"))
}

pub(crate) fn load_u64(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes"))
}

fn hash4(v: u32) -> usize {
    // Fibonacci hashing spreads the low-entropy record bytes well.
    (v.wrapping_mul(0x9E37_79B1) >> 16) as usize & (HASH_SLOTS - 1)
}

/// Length of the match between `src[c..]` and `src[i..]` (`c < i`),
/// whose first `MIN_MATCH` bytes are already known equal. Compares a
/// `u64` at a time while one fits before the end of `src` (the lowest
/// set bit of the XOR is the first differing byte, little-endian), then
/// byte by byte, so it returns exactly the byte-serial length.
fn match_len(src: &[u8], c: usize, i: usize) -> usize {
    let mut len = MIN_MATCH;
    while i + len + 8 <= src.len() {
        let diff = load_u64(src, c + len) ^ load_u64(src, i + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while i + len < src.len() && src[c + len] == src[i + len] {
        len += 1;
    }
    len
}

fn push_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Writes one sequence's token and literals. The offset and any
/// match-length extension follow the literals, appended by the caller
/// (the final literal-only sequence has neither).
fn emit(out: &mut Vec<u8>, literals: &[u8], match_len: usize) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = match_len.saturating_sub(MIN_MATCH).min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        push_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Compresses `src`, appending the encoded stream to `out`.
///
/// Returns the number of bytes appended. The output is self-terminating
/// given the original length (the decoder stops once it has produced
/// `src.len()` bytes).
pub fn compress(src: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut table = vec![0u32; HASH_SLOTS]; // position + 1; 0 = empty
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;
    // Positions beyond this cannot start a match (hash needs 4 bytes).
    let hash_end = src.len().saturating_sub(MIN_MATCH);
    while i < hash_end {
        let v = load_u32(src, i);
        let h = hash4(v);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        let found = candidate > 0 && {
            let c = candidate - 1;
            i - c <= MAX_OFFSET && load_u32(src, c) == v
        };
        if !found {
            i += 1;
            continue;
        }
        let c = candidate - 1;
        let len = match_len(src, c, i);
        emit(out, &src[anchor..i], len);
        out.extend_from_slice(&((i - c) as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_len(out, len - MIN_MATCH - 15);
        }
        // Seed the table inside the match so adjacent records still find
        // each other (every other position keeps the encoder fast).
        let match_end = (i + len).min(hash_end);
        let mut p = i + 1;
        while p < match_end {
            table[hash4(load_u32(src, p))] = (p + 1) as u32;
            p += 2;
        }
        i += len;
        anchor = i;
    }
    // Final literal-only sequence.
    emit(out, &src[anchor..], 0);
    out.len() - start
}

/// Decompresses `src` into `out`, which must be exactly the original
/// length.
///
/// # Errors
///
/// Returns [`LzCorrupt`] if the stream is malformed or does not produce
/// exactly `out.len()` bytes.
pub fn decompress(src: &[u8], out: &mut [u8]) -> Result<(), LzCorrupt> {
    let mut s = 0usize; // src cursor
    let mut d = 0usize; // out cursor
    loop {
        let token = *src.get(s).ok_or(LzCorrupt)?;
        s += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len(src, &mut s)?;
        }
        let lit_end = s.checked_add(lit_len).ok_or(LzCorrupt)?;
        if lit_end > src.len() || d + lit_len > out.len() {
            return Err(LzCorrupt);
        }
        out[d..d + lit_len].copy_from_slice(&src[s..lit_end]);
        s = lit_end;
        d += lit_len;
        if s == src.len() {
            // Literal-only tail: the stream is complete.
            return if d == out.len() { Ok(()) } else { Err(LzCorrupt) };
        }
        if s + 2 > src.len() {
            return Err(LzCorrupt);
        }
        let offset = u16::from_le_bytes([src[s], src[s + 1]]) as usize;
        s += 2;
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_len(src, &mut s)?;
        }
        match_len += MIN_MATCH;
        if offset == 0 || offset > d || d + match_len > out.len() {
            return Err(LzCorrupt);
        }
        // Overlapping copies (offset < match_len) replicate runs, so the
        // copy must walk forward byte by byte.
        let from = d - offset;
        for k in 0..match_len {
            out[d + k] = out[from + k];
        }
        d += match_len;
    }
}

fn read_len(src: &[u8], s: &mut usize) -> Result<usize, LzCorrupt> {
    let mut extra = 0usize;
    loop {
        let b = *src.get(*s).ok_or(LzCorrupt)?;
        *s += 1;
        extra += b as usize;
        if b != 255 {
            return Ok(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use workloads::rng::Xoshiro256;
    use workloads::{TraceSpec, WorkloadKind};

    /// The byte-serial encoder: `compress` with matches extended one
    /// byte at a time. The real encoder must emit exactly its bytes.
    fn oracle_compress(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut table = vec![0u32; HASH_SLOTS];
        let mut anchor = 0usize;
        let mut i = 0usize;
        let hash_end = src.len().saturating_sub(MIN_MATCH);
        while i < hash_end {
            let h = hash4(load_u32(src, i));
            let candidate = table[h] as usize;
            table[h] = (i + 1) as u32;
            let found = candidate > 0 && {
                let c = candidate - 1;
                i - c <= MAX_OFFSET && src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH]
            };
            if !found {
                i += 1;
                continue;
            }
            let c = candidate - 1;
            let mut len = MIN_MATCH;
            while i + len < src.len() && src[c + len] == src[i + len] {
                len += 1;
            }
            emit(&mut out, &src[anchor..i], len);
            out.extend_from_slice(&((i - c) as u16).to_le_bytes());
            if len - MIN_MATCH >= 15 {
                push_len(&mut out, len - MIN_MATCH - 15);
            }
            let match_end = (i + len).min(hash_end);
            let mut p = i + 1;
            while p < match_end {
                table[hash4(load_u32(src, p))] = (p + 1) as u32;
                p += 2;
            }
            i += len;
            anchor = i;
        }
        emit(&mut out, &src[anchor..], 0);
        out
    }

    fn random_bytes(rng: &mut Xoshiro256, n: usize, alphabet: u64) -> Vec<u8> {
        (0..n).map(|_| rng.below(alphabet) as u8).collect()
    }

    /// Checks `compress(data)` against the oracle and the round trip.
    fn assert_matches_oracle(data: &[u8], what: &str) {
        let want = oracle_compress(data);
        let mut got = Vec::new();
        assert_eq!(compress(data, &mut got), got.len());
        assert!(got == want, "{what}: differs from the oracle");
        let mut back = vec![0u8; data.len()];
        decompress(&got, &mut back).expect("valid stream");
        assert!(back == data, "{what}: round trip");
    }

    #[test]
    fn word_match_extension_emits_the_oracle_bytes() {
        let mut rng = Xoshiro256::seed_from_u64(0x12_0a1e);
        // One copied run of every length 4..=100 (every end offset mod
        // 8), ended by a differing byte or by the end of `src`.
        for len in MIN_MATCH..=100 {
            for at_end in [false, true] {
                let copied = random_bytes(&mut rng, len, 256);
                let mut data = random_bytes(&mut rng, 13 + len % 11, 256);
                data.extend_from_slice(&copied);
                data.extend_from_slice(&copied);
                if !at_end {
                    data.push(copied[0] ^ 0x5A);
                    data.extend(random_bytes(&mut rng, 7, 256));
                }
                assert_matches_oracle(&data, &format!("run {len} at_end {at_end}"));
            }
        }
        // Low-entropy inputs: many short and long matches, some running
        // to the end; lengths across and beyond the 64 KiB window.
        for (n, alphabet) in [(0, 2), (3, 2), (9, 2), (100, 2), (1000, 3), (4096, 4), (70_000, 3)] {
            let data = random_bytes(&mut rng, n, alphabet);
            assert_matches_oracle(&data, &format!("{n} bytes of {alphabet}"));
        }
        let runs: Vec<u8> = (0..20_000).map(|i| ((i / 37) % 5) as u8).collect();
        assert_matches_oracle(&runs, "runs");
        // CVP-1 trace blocks, raw and delta-filtered.
        for (seed, kind) in [(3, WorkloadKind::Server), (4, WorkloadKind::Streaming)] {
            let mut block = Vec::new();
            for insn in TraceSpec::new("lz", kind, seed).with_length(3000).generate() {
                cvp_trace::encode_record(&insn, &mut block);
            }
            assert_matches_oracle(&block, &format!("{kind} raw"));
            Filter::Cvp.apply(&mut block).unwrap();
            assert_matches_oracle(&block, &format!("{kind} filtered"));
        }
    }

    /// A multi-block store: each payload is exactly its filtered block
    /// compressed alone, so no encoder state carries across blocks.
    #[test]
    fn block_writer_blocks_encode_independently() {
        use crate::{BlockReader, BlockWriter, STREAM_CVP};
        use std::io::Cursor;
        let records: Vec<Vec<u8>> = TraceSpec::new("lz", WorkloadKind::Server, 9)
            .with_length(2000)
            .generate()
            .iter()
            .map(|insn| {
                let mut rec = Vec::new();
                cvp_trace::encode_record(insn, &mut rec);
                rec
            })
            .collect();
        let per_block = 300;
        let mut w =
            BlockWriter::with_block_records(Vec::new(), STREAM_CVP, Filter::Cvp, per_block as u32)
                .unwrap();
        for rec in &records {
            w.push_record(rec).unwrap();
        }
        let (store, _) = w.finish().unwrap();
        let mut reader = BlockReader::new(Cursor::new(&store), STREAM_CVP).unwrap();
        let index = reader.read_index().unwrap();
        let blocks: Vec<Vec<u8>> = records.chunks(per_block).map(|c| c.concat()).collect();
        assert_eq!(index.entries.len(), blocks.len());
        for (entry, raw) in index.entries.iter().zip(&blocks) {
            let at = entry.offset as usize;
            assert_eq!(store[at + 1] & 1, 1, "block is LZ-compressed");
            let comp_len = u32::from_le_bytes(store[at + 10..at + 14].try_into().unwrap());
            let payload = &store[at + 22..at + 22 + comp_len as usize];
            let mut filtered = raw.clone();
            Filter::Cvp.apply(&mut filtered).unwrap();
            let mut alone = Vec::new();
            compress(&filtered, &mut alone);
            assert!(payload == alone.as_slice(), "block at {at} differs from compressing it alone");
        }
        // Every block decodes on its own, in any order.
        for b in (0..blocks.len()).rev() {
            reader.seek_to_block(&index, b).unwrap();
            let (count, got) = reader.next_block().unwrap().expect("a block");
            assert!(got == blocks[b], "block {b}");
            assert_eq!(count, index.entries[b].records, "block {b}");
        }
    }

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        compress(data, &mut packed);
        let mut back = vec![0u8; data.len()];
        decompress(&packed, &mut back).expect("valid stream");
        back
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn short_literal_only_input_round_trips() {
        for n in 1..20 {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(round_trip(&data), data, "length {n}");
        }
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(10_000).collect();
        let mut packed = Vec::new();
        let n = compress(&data, &mut packed);
        assert_eq!(n, packed.len());
        assert!(packed.len() * 10 < data.len(), "{} vs {}", packed.len(), data.len());
        let mut back = vec![0u8; data.len()];
        decompress(&packed, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn overlapping_match_replicates_runs() {
        let data = vec![7u8; 4096];
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // >15 literals followed by a >15+MIN_MATCH match.
        let mut data: Vec<u8> = (0..800u32).flat_map(|i| i.to_le_bytes()).collect();
        let tail: Vec<u8> = data[..600].to_vec();
        data.extend_from_slice(&tail);
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn pseudo_random_inputs_round_trip() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1, 7, 64, 1000, 65_537] {
            let data: Vec<u8> = (0..len).map(|_| (step() & 0xFF) as u8).collect();
            assert_eq!(round_trip(&data), data, "length {len}");
        }
    }

    #[test]
    fn truncated_stream_is_corrupt_not_panic() {
        let data: Vec<u8> = b"the quick brown fox the quick brown fox".repeat(40);
        let mut packed = Vec::new();
        compress(&data, &mut packed);
        let mut out = vec![0u8; data.len()];
        for cut in 0..packed.len() {
            assert_eq!(decompress(&packed[..cut], &mut out), Err(LzCorrupt), "cut {cut}");
        }
    }

    #[test]
    fn wrong_output_length_is_corrupt() {
        let data = b"hello world hello world hello world".to_vec();
        let mut packed = Vec::new();
        compress(&data, &mut packed);
        let mut short = vec![0u8; data.len() - 1];
        assert_eq!(decompress(&packed, &mut short), Err(LzCorrupt));
        let mut long = vec![0u8; data.len() + 1];
        assert_eq!(decompress(&packed, &mut long), Err(LzCorrupt));
    }

    #[test]
    fn bogus_offset_is_corrupt() {
        // token: 0 literals, match nibble 0 (match_len 4), offset 9 with
        // no prior output.
        let packed = [0x00u8, 9, 0, 0];
        let mut out = vec![0u8; 4];
        assert_eq!(decompress(&packed, &mut out), Err(LzCorrupt));
    }
}
