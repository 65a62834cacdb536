//! The packetizer: turns an execution stream into a `.etrace` file.

use std::io::Write;

use crate::program::Program;
use crate::varint::{put_sleb, put_uleb};
use crate::{flat_record_bytes, EtraceError, EtraceStats, TraceItem, MAGIC, VERSION};

/// Packet type bytes shared by the writer and reader.
pub(crate) mod packet {
    /// Synchronization point: item index, absolute pc, context.
    pub const SYNC: u8 = 0x01;
    /// Branch map: count byte plus LSB-first outcome bitmap.
    pub const BRANCH: u8 = 0x02;
    /// Indirect-branch target as a signed delta to the address base.
    pub const ADDR: u8 = 0x03;
    /// Context change: item index, new context.
    pub const CTX: u8 = 0x05;
}

/// Default instructions between SYNC packets.
const DEFAULT_SYNC_EVERY: u64 = 4096;

/// Encodes [`TraceItem`]s against a [`Program`] into the `.etrace`
/// packet format, buffering the streams and writing the file on
/// [`finish`](EtraceWriter::finish).
///
/// The writer runs the same differential state machine the reader
/// does — branch outcomes accumulate into branch-map bitmaps that are
/// flushed before any packet that must stay in consumption order,
/// indirect targets and data addresses are deltas against their
/// channel's previous value, and every SYNC rebases the address base.
#[derive(Debug)]
pub struct EtraceWriter<W: Write> {
    inner: W,
    program: Program,
    header: Vec<u8>,
    ctrl: Vec<u8>,
    mem: Vec<u8>,
    hint: usize,
    pending_bits: u64,
    pending_count: u8,
    addr_base: u64,
    mem_base: u64,
    ctx: u64,
    sync_every: u64,
    stats: EtraceStats,
}

impl<W: Write> EtraceWriter<W> {
    /// Starts a trace of `program` into `inner`. The program table is
    /// embedded in the file, so readers need nothing else.
    ///
    /// # Errors
    ///
    /// None today; the signature reserves the right to validate.
    pub fn new(inner: W, program: &Program) -> Result<EtraceWriter<W>, EtraceError> {
        let mut header = Vec::with_capacity(64 + program.len() * 8);
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        program.encode(&mut header);
        Ok(EtraceWriter {
            inner,
            program: program.clone(),
            header,
            ctrl: Vec::new(),
            mem: Vec::new(),
            hint: 0,
            pending_bits: 0,
            pending_count: 0,
            addr_base: 0,
            mem_base: 0,
            ctx: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            stats: EtraceStats::default(),
        })
    }

    /// Sets the SYNC packet period in instructions (minimum 1).
    #[must_use]
    pub fn with_sync_every(mut self, every: u64) -> EtraceWriter<W> {
        self.sync_every = every.max(1);
        self
    }

    /// Switches the context id; emits a CTX packet at the next item
    /// boundary position if it changed.
    pub fn set_context(&mut self, ctx: u64) {
        if ctx == self.ctx {
            return;
        }
        self.flush_bits();
        self.ctx = ctx;
        self.ctrl.push(packet::CTX);
        put_uleb(&mut self.ctrl, self.stats.items);
        put_uleb(&mut self.ctrl, ctx);
        self.stats.packets += 1;
        self.stats.ctx_packets += 1;
    }

    /// Encodes one retired instruction.
    ///
    /// # Errors
    ///
    /// [`EtraceError::UnknownPc`] if `item.pc` is not in the program
    /// table.
    pub fn write(&mut self, item: &TraceItem) -> Result<(), EtraceError> {
        let Some(meta) = self.program.lookup_cached(&mut self.hint, item.pc) else {
            let offset = (self.header.len() + self.ctrl.len()) as u64;
            return Err(EtraceError::UnknownPc { pc: item.pc, offset });
        };
        let op = meta.op;
        if self.stats.items.is_multiple_of(self.sync_every) {
            self.flush_bits();
            self.ctrl.push(packet::SYNC);
            put_uleb(&mut self.ctrl, self.stats.items);
            put_uleb(&mut self.ctrl, item.pc);
            put_uleb(&mut self.ctrl, self.ctx);
            self.addr_base = item.pc;
            self.stats.packets += 1;
            self.stats.sync_packets += 1;
        }
        if matches!(op, crate::MetaOp::CondBranch { .. }) {
            if item.taken {
                self.pending_bits |= 1 << self.pending_count;
            }
            self.pending_count += 1;
            if self.pending_count == 64 {
                self.flush_bits();
            }
        } else if op.is_indirect() {
            self.flush_bits();
            self.ctrl.push(packet::ADDR);
            put_sleb(&mut self.ctrl, item.target.wrapping_sub(self.addr_base) as i64);
            self.addr_base = item.target;
            self.stats.packets += 1;
            self.stats.addr_packets += 1;
        }
        if op.is_memory() {
            put_sleb(&mut self.mem, item.mem_addr.wrapping_sub(self.mem_base) as i64);
            self.mem_base = item.mem_addr;
            self.stats.mem_addresses += 1;
        }
        self.stats.flat_bytes += flat_record_bytes(op);
        self.stats.items += 1;
        Ok(())
    }

    /// Flushes accumulated branch outcomes as one BRANCH-MAP packet.
    fn flush_bits(&mut self) {
        if self.pending_count == 0 {
            return;
        }
        self.ctrl.push(packet::BRANCH);
        self.ctrl.push(self.pending_count);
        for byte in 0..self.pending_count.div_ceil(8) {
            self.ctrl.push((self.pending_bits >> (8 * byte)) as u8);
        }
        self.pending_bits = 0;
        self.pending_count = 0;
        self.stats.packets += 1;
        self.stats.branch_packets += 1;
    }

    /// Flushes pending outcomes, assembles the file, and writes it.
    /// Returns the inner writer and the final counters.
    ///
    /// # Errors
    ///
    /// I/O errors from the inner writer.
    pub fn finish(mut self) -> Result<(W, EtraceStats), EtraceError> {
        self.flush_bits();
        let mut framing = Vec::with_capacity(24);
        put_uleb(&mut framing, self.ctrl.len() as u64);
        let mut mem_framing = Vec::with_capacity(12);
        put_uleb(&mut mem_framing, self.mem.len() as u64);
        let mut tail = Vec::with_capacity(12);
        put_uleb(&mut tail, self.stats.items);

        self.inner.write_all(&self.header)?;
        self.inner.write_all(&framing)?;
        self.inner.write_all(&self.ctrl)?;
        self.inner.write_all(&mem_framing)?;
        self.inner.write_all(&self.mem)?;
        self.inner.write_all(&tail)?;
        self.inner.flush()?;

        self.stats.stream_bytes = (self.ctrl.len() + self.mem.len()) as u64;
        self.stats.file_bytes = (self.header.len()
            + framing.len()
            + self.ctrl.len()
            + mem_framing.len()
            + self.mem.len()
            + tail.len()) as u64;
        Ok((self.inner, self.stats))
    }
}
