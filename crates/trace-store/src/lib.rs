//! Block-compressed on-disk store for trace record streams.
//!
//! Industry trace suites are hundreds of gigabytes; the paper's
//! workflow reads each trace many times (characterize, convert,
//! simulate). This crate packs CVP-1 and ChampSim record streams into a
//! seekable container that is several times smaller on disk and decodes
//! at memory-copy speeds, with **no external dependencies** (the codec
//! is in-tree, like the workspace's PRNG):
//!
//! * records are grouped into fixed-count blocks (64 Ki records by
//!   default), so decoders stream one block at a time;
//! * each block is delta-filtered ([`mod@filter`]: PC, effective
//!   address, and branch target become small strides) and then
//!   LZ-compressed ([`mod@lz`]); incompressible blocks are stored raw;
//! * each block carries a 64-bit checksum of its **original** bytes
//!   (xxHash64-style rounds over `u64` words in 4 lanes, format
//!   version 2), so corruption anywhere in the decode pipeline is caught
//!   and reported with the block index;
//! * a footer index maps block → file offset, giving O(1)
//!   seek-to-block on seekable sources without scanning.
//!
//! # Layers
//!
//! ```text
//! CvpzWriter / ChampsimzWriter          CvpzReader / ChampsimzReader
//!        │  records                              ▲  records, parsed from
//!        ▼                                       │  the block's bytes
//!   BlockWriter ──filter──lz──► [file] ──lz──filter──► BlockReader
//!                                            (one checked block at a time)
//! ```
//!
//! The readers take no byte-stream detour: [`BlockReader::next_block`]
//! decodes and checks a whole block into its own buffer, and
//! `CvpzReader` (with [`cvp_trace::decode_record`]) and
//! `ChampsimzReader` parse records straight from it, holding each block
//! to its header's record count.
//!
//! [`CvpTraceReader`] / [`ChampsimTraceReader`] (and the writer twins)
//! dispatch between flat files and stores through one extension table
//! (read by [`Encoding::of`]), which is how the command-line tools
//! accept `.cvpz` / `.champsimz` anywhere a trace path is expected.
//!
//! # Example
//!
//! ```
//! use cvp_trace::CvpInstruction;
//! use trace_store::{CvpzReader, CvpzWriter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut w = CvpzWriter::new(Vec::new())?;
//! for i in 0..1000u64 {
//!     w.write(&CvpInstruction::alu(0x1000 + 4 * i))?;
//! }
//! let (store, stats) = w.finish()?;
//! assert!(stats.compression_ratio() > 3.0);
//!
//! let n = CvpzReader::new(store.as_slice())?.count();
//! assert_eq!(n, 1000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod filter;
pub mod lz;

mod block;
mod champsimz;
mod cvpz;
mod error;
mod etrace_cvp;
mod open;

pub use block::{
    BlockEntry, BlockReader, BlockWriter, StoreIndex, StoreStats, DEFAULT_BLOCK_RECORDS, MAGIC,
    STREAM_CHAMPSIM, STREAM_CVP, VERSION,
};
pub use champsimz::{ChampsimzReader, ChampsimzWriter};
pub use cvpz::{CvpzReader, CvpzWriter};
pub use error::StoreError;
pub use etrace_cvp::{decoded_to_cvp, rv_items_to_cvp, EtraceCvpReader};
pub use open::{
    ChampsimTraceReader, ChampsimTraceWriter, CvpTraceReader, CvpTraceWriter, Encoding,
};
