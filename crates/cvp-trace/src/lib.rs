//! CVP-1 (first Championship Value Prediction) trace format.
//!
//! The CVP-1 championship released hundreds of Aarch64 traces captured at
//! Qualcomm. Each trace is a flat stream of per-instruction records carrying
//! the program counter, a coarse instruction class, memory effective address
//! and access size for loads/stores, branch outcome and target for branches,
//! the architectural source/destination registers, and the **values written
//! to the destination registers** — the feature that makes value-tracking
//! heuristics (such as addressing-mode inference) possible.
//!
//! This crate provides:
//!
//! * [`CvpInstruction`] / [`CvpClass`] — the in-memory instruction model,
//! * [`CvpReader`] / [`CvpWriter`] — streaming binary codecs for the on-disk
//!   record layout (see [`mod@format`] for the byte-level specification),
//!   built on [`decode_record`] / [`encode_record`], the one record parser
//!   and encoder, which block-compressed stores call on their blocks,
//! * [`RegisterFile`] — the architectural register value tracker used by
//!   trace consumers that need to reconstruct input values,
//! * [`CvpTraceStats`] — one-pass workload characterization.
//!
//! # Data flow
//!
//! ```text
//!   trace.cvp ──► CvpReader ──► CvpInstruction ──► converter / stats
//!                                    ▲
//!   workloads (synthetic) ──► CvpWriter ──► trace.cvp
//! ```
//!
//! # Example
//!
//! ```
//! use cvp_trace::{CvpInstruction, CvpClass, CvpReader, CvpWriter};
//!
//! # fn main() -> Result<(), cvp_trace::TraceError> {
//! let mut buf = Vec::new();
//! let mut writer = CvpWriter::new(&mut buf);
//! let insn = CvpInstruction::alu(0x1000)
//!     .with_sources(&[1, 2])
//!     .with_destination(3, 42);
//! writer.write(&insn)?;
//!
//! let mut reader = CvpReader::new(buf.as_slice());
//! let back = reader.read()?.expect("one record");
//! assert_eq!(back, insn);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod format;

mod error;
mod insn;
mod reader;
mod regfile;
mod stats;
mod writer;

pub use error::TraceError;
pub use insn::{
    CvpClass, CvpInstruction, OutputValue, Reg, FLAGS_REG, LINK_REG, MAX_DSTS, MAX_SRCS,
    NUM_INT_REGS, NUM_REGS, STACK_REG, VEC_REG_BASE,
};
pub use reader::{decode_record, CvpReader};
pub use regfile::RegisterFile;
pub use stats::CvpTraceStats;
pub use writer::{encode_record, CvpWriter};
