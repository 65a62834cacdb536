use std::collections::VecDeque;

use bpred::{
    Bimodal, Btb, DirectionPredictor, Gshare, HashedPerceptron, IndirectPredictor, Ittage,
    ReturnAddressStack, Tage, TageConfig,
};
use champsim_trace::{BranchType, ChampsimRecord};
use iprefetch::{FetchEvent, InstructionPrefetcher};
use memsys::{Hierarchy, CACHELINE_BYTES};

use crate::cancel::CancelToken;
use crate::config::{CoreConfig, IndirectKind, PredictorKind};
use crate::inflight::InflightTable;
use crate::pipeline::{Scheduler, WidthLimiter};
use crate::stats::{BranchStats, PipelineStats, SimReport};

/// The run's direction predictor, dispatched statically.
///
/// The predictor kind is fixed for the whole run, so resolving it once
/// at engine construction lets `predict`/`update` inline instead of
/// going through a `Box<dyn DirectionPredictor>` virtual call per
/// conditional branch.
//
// One Direction exists per simulated core, so the size skew between
// variants costs a few hundred bytes total; boxing the TAGE variant
// would reintroduce the pointer chase this enum exists to remove.
#[allow(clippy::large_enum_variant)]
enum Direction {
    Bimodal(Bimodal),
    Gshare(Gshare),
    Tage(Tage),
    Perceptron(HashedPerceptron),
}

impl Direction {
    fn for_kind(kind: PredictorKind) -> Direction {
        match kind {
            PredictorKind::Bimodal(entries) => Direction::Bimodal(Bimodal::new(entries)),
            PredictorKind::Gshare(entries, hist) => Direction::Gshare(Gshare::new(entries, hist)),
            PredictorKind::Tage64kb => Direction::Tage(Tage::default_64kb()),
            PredictorKind::TageSmall => Direction::Tage(Tage::new(TageConfig::storage_small())),
            PredictorKind::Perceptron => Direction::Perceptron(HashedPerceptron::default_config()),
        }
    }

    #[inline]
    fn predict(&mut self, pc: u64) -> bool {
        match self {
            Direction::Bimodal(p) => p.predict(pc),
            Direction::Gshare(p) => p.predict(pc),
            Direction::Tage(p) => p.predict(pc),
            Direction::Perceptron(p) => p.predict(pc),
        }
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        match self {
            Direction::Bimodal(p) => p.update(pc, taken),
            Direction::Gshare(p) => p.update(pc, taken),
            Direction::Tage(p) => p.update(pc, taken),
            Direction::Perceptron(p) => p.update(pc, taken),
        }
    }

    fn export_telemetry(&self, registry: &mut telemetry::Registry) {
        match self {
            Direction::Bimodal(p) => p.export_telemetry(registry),
            Direction::Gshare(p) => p.export_telemetry(registry),
            Direction::Tage(p) => p.export_telemetry(registry),
            Direction::Perceptron(p) => p.export_telemetry(registry),
        }
    }
}

/// Options for one simulation run, set through the `with_*` builders.
#[derive(Default)]
pub struct RunOptions {
    warmup_instructions: u64,
    prefetcher: Option<Box<dyn InstructionPrefetcher + Send>>,
    epoch_instructions: Option<u64>,
    cancel: Option<CancelToken>,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("warmup_instructions", &self.warmup_instructions)
            .field("prefetcher", &self.prefetcher.as_ref().map(|p| p.name()))
            .field("epoch_instructions", &self.epoch_instructions)
            .field("cancel", &self.cancel)
            .finish()
    }
}

impl RunOptions {
    /// Warm up for `n` records before measuring (the IPC-1 methodology
    /// warms up for 50M instructions; tests use much less).
    #[must_use]
    pub fn with_warmup(mut self, n: u64) -> RunOptions {
        self.warmup_instructions = n;
        self
    }

    /// Attach an L1I instruction prefetcher (the Table 3 plug-in point).
    #[must_use]
    pub fn with_prefetcher(mut self, pf: Box<dyn InstructionPrefetcher + Send>) -> RunOptions {
        self.prefetcher = Some(pf);
        self
    }

    /// Record per-interval counter snapshots every `n` retired records
    /// into the report's epoch series (see
    /// [`SimReport::components`](crate::SimReport)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_epochs(mut self, n: u64) -> RunOptions {
        assert!(n > 0, "epoch length must be positive");
        self.epoch_instructions = Some(n);
        self
    }

    /// Poll `token` during the run and stop early once it cancels.
    ///
    /// The token is polled at epoch boundaries (every
    /// [`with_epochs`](RunOptions::with_epochs) records, or every 8192
    /// records otherwise). The returned report then covers only the
    /// records consumed so far; callers must check
    /// [`CancelToken::is_cancelled`] and discard the partial statistics.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> RunOptions {
        self.cancel = Some(token);
        self
    }
}

/// Trace-driven out-of-order core simulator.
///
/// Every run starts from cold predictors and caches. All simulation goes
/// through [`run_fused`](Simulator::run_fused); [`run_on`](Simulator::run_on)
/// and [`run_iter`](Simulator::run_iter) are its single-lane forms.
#[derive(Debug)]
pub struct Simulator {
    config: CoreConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    pub fn new(config: CoreConfig) -> Simulator {
        Simulator { config }
    }

    /// Simulates a record stream on this simulator's configuration: a
    /// one-lane [`run_fused`](Simulator::run_fused). Kept as a named
    /// entry point because the `perfbench` benchmark calls it.
    pub fn run_iter<I>(&mut self, records: I, options: RunOptions) -> SimReport
    where
        I: IntoIterator<Item = ChampsimRecord>,
    {
        Simulator::run_fused([(&self.config, options)], records).remove(0)
    }

    /// Simulates a record slice on a borrowed configuration: a one-lane
    /// [`run_fused`](Simulator::run_fused). Kept as a named entry point
    /// because the `perfbench` benchmark calls it.
    pub fn run_on(
        config: &CoreConfig,
        records: &[ChampsimRecord],
        options: RunOptions,
    ) -> SimReport {
        Simulator::run_fused([(config, options)], records.iter().copied()).remove(0)
    }

    /// Simulates one record stream through many independent cores in
    /// lockstep: the stream is decoded once and every record is pushed
    /// into each lane's cold core, so N configurations share a single
    /// streaming pass instead of N decodes. This is the one place engines
    /// are built and driven.
    ///
    /// Each lane's report depends only on its own configuration, options
    /// and the record sequence — never on its neighbours. Lanes advance
    /// record by record, including warm-up resets, epoch snapshots and
    /// per-lane cancellation: a cancelled lane stops consuming, the pass
    /// keeps feeding the lanes still live, and it stops pulling records
    /// once every lane has stopped. The stream is read one record ahead,
    /// since a taken branch's target is the next record's IP.
    pub fn run_fused<'c, L, I>(lanes: L, records: I) -> Vec<SimReport>
    where
        L: IntoIterator<Item = (&'c CoreConfig, RunOptions)>,
        I: IntoIterator<Item = ChampsimRecord>,
    {
        let mut sinks: Vec<SimSink<'c>> =
            lanes.into_iter().map(|(config, options)| SimSink::new(config, options)).collect();
        let mut active = sinks.len();
        let mut records = records.into_iter();
        let mut pending = records.next();
        while let Some(rec) = pending {
            if active == 0 {
                break;
            }
            let next = records.next();
            let next_ip = next.as_ref().map(|r| r.ip());
            for sink in &mut sinks {
                if !sink.is_stopped() && !sink.push(&rec, next_ip) {
                    active -= 1;
                }
            }
            pending = next;
        }
        sinks.into_iter().map(SimSink::finish).collect()
    }
}

/// Per-run machine state.
struct Engine<'c> {
    cfg: &'c CoreConfig,
    memory: Hierarchy,
    direction: Direction,
    indirect: Option<Ittage>,
    btb: Btb,
    ras: ReturnAddressStack,
    prefetcher: Option<iprefetch::Instrumented>,
    warmup: u64,
    epoch_instructions: Option<u64>,
    cancel: Option<CancelToken>,

    reg_ready: [u64; 256],
    rob: VecDeque<u64>,
    load_queue: VecDeque<u64>,
    /// Completion times of outstanding L1D misses (MSHR occupancy).
    mshrs: VecDeque<u64>,
    fetch_slots: WidthLimiter,
    dispatch_slots: WidthLimiter,
    issue_slots: Scheduler,
    retire_slots: WidthLimiter,
    /// Earliest cycle the front-end may fetch (raised by redirects).
    fetch_barrier: u64,
    /// Set after a redirect: the next block fetch has no run-ahead cover.
    refilling: bool,
    current_block: u64,
    /// Cycle at which the current block's fetch completes.
    block_ready: u64,
    last_retire: u64,

    branches: BranchStats,
    pipeline: PipelineStats,
    instruction_prefetches: u64,
    /// In-flight instruction prefetches: block → cycle when usable.
    /// Fetching a block before its prefetch completes stalls for the
    /// remainder (a late prefetch).
    prefetch_ready: InflightTable,
    /// Reused buffer for instruction-prefetcher proposals.
    pf_buf: Vec<u64>,
}

impl<'c> Engine<'c> {
    fn new(cfg: &'c CoreConfig, options: RunOptions) -> Engine<'c> {
        let direction = Direction::for_kind(cfg.predictor);
        let indirect = match cfg.indirect {
            IndirectKind::Ittage => Some(Ittage::default_64kb()),
            IndirectKind::LastTarget => None,
        };
        Engine {
            cfg,
            memory: Hierarchy::new(cfg.hierarchy),
            direction,
            indirect,
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: ReturnAddressStack::new(cfg.ras_size),
            prefetcher: options.prefetcher.map(iprefetch::Instrumented::new),
            warmup: options.warmup_instructions,
            epoch_instructions: options.epoch_instructions,
            cancel: options.cancel,
            reg_ready: [0; 256],
            rob: VecDeque::with_capacity(cfg.rob_size),
            load_queue: VecDeque::with_capacity(cfg.load_queue_size),
            mshrs: VecDeque::with_capacity(cfg.l1d_mshrs),
            fetch_slots: WidthLimiter::new(cfg.fetch_width),
            dispatch_slots: WidthLimiter::new(cfg.dispatch_width),
            issue_slots: Scheduler::new(cfg.issue_width),
            retire_slots: WidthLimiter::new(cfg.retire_width),
            fetch_barrier: 0,
            refilling: true,
            current_block: u64::MAX,
            block_ready: 0,
            last_retire: 0,
            branches: BranchStats::default(),
            pipeline: PipelineStats::default(),
            instruction_prefetches: 0,
            prefetch_ready: InflightTable::new(),
            pf_buf: Vec::new(),
        }
    }

    /// The running totals the epoch series snapshots.
    fn epoch_cursor(&self) -> EpochCursor {
        EpochCursor {
            cycles: self.last_retire,
            branch_mispredicts: self.branches.total_mispredicts(),
            l1i_demand_misses: self.memory.l1i().stats().demand_misses,
            l1d_demand_misses: self.memory.l1d().stats().demand_misses,
            llc_demand_misses: self.memory.llc().stats().demand_misses,
        }
    }

    /// Advances the model by one trace record.
    fn step(&mut self, rec: &ChampsimRecord, next_ip: Option<u64>) {
        // ------------------------------------------------- fetch -------
        let block = rec.ip() / CACHELINE_BYTES;
        if block != self.current_block {
            let latency = self.memory.access_instruction(rec.ip());
            let mut miss_penalty = latency.saturating_sub(1); // hit latency folded into fetch
            let start = self.fetch_barrier.max(self.block_ready);
            // A hit on a still-in-flight prefetched line stalls for the
            // remainder of the fill (late prefetch).
            if let Some(ready) = self.prefetch_ready.take(block) {
                if miss_penalty == 0 {
                    miss_penalty = ready.saturating_sub(start);
                }
            }
            let hidden = if self.cfg.decoupled_frontend && !self.refilling {
                self.cfg.frontend_lookahead
            } else {
                0
            };
            self.block_ready = start + miss_penalty.saturating_sub(hidden);
            // Whatever the lookahead could not hide starves the fetch
            // stage for that many cycles.
            self.pipeline.fetch_starve_cycles += self.block_ready - start;
            self.current_block = block;
            self.refilling = false;

            if let Some(pf) = self.prefetcher.as_mut() {
                let mut out = std::mem::take(&mut self.pf_buf);
                out.clear();
                pf.on_fetch(FetchEvent { block, miss: miss_penalty > 0 }, &mut out);
                for &b in &out {
                    self.instruction_prefetches += 1;
                    let fill = self.memory.prefetch_instruction(b * CACHELINE_BYTES);
                    if fill > 0 {
                        // Fills completed by `start` can no longer stall
                        // anything; the table reclaims their slots.
                        self.prefetch_ready.insert(b, start + fill, start);
                    }
                }
                self.pf_buf = out;
            }
        }
        let fetch_cycle = self.fetch_slots.allocate(self.fetch_barrier.max(self.block_ready));

        // ---------------------------------------------- dispatch -------
        let mut dispatch = fetch_cycle + self.cfg.decode_latency;
        self.pipeline.rob_occupancy.record(self.rob.len() as u64);
        if self.rob.len() >= self.cfg.rob_size {
            let head_retire = self.rob.pop_front().expect("ROB is full, so non-empty");
            if head_retire > dispatch {
                self.pipeline.rob_stalls += 1;
                self.pipeline.rob_stall_cycles += head_retire - dispatch;
            }
            dispatch = dispatch.max(head_retire);
        }
        let dispatch = self.dispatch_slots.allocate(dispatch);

        // ----------------------------------------------- execute -------
        let mut operands_ready = dispatch;
        for src in rec.source_registers() {
            operands_ready = operands_ready.max(self.reg_ready[src as usize]);
        }
        let mut start = operands_ready;
        if rec.is_load() && self.load_queue.len() >= self.cfg.load_queue_size {
            let slot_free = self.load_queue.pop_front().expect("load queue full");
            if slot_free > start {
                self.pipeline.lsq_stalls += 1;
            }
            start = start.max(slot_free);
        }
        let start = self.issue_slots.allocate(start);

        let completion = if rec.is_load() {
            let mut latency = 0;
            for addr in rec.source_memory() {
                latency = latency.max(self.memory.access_data(rec.ip(), addr, false));
            }
            // An L1D miss needs an MSHR; with all of them busy, the miss
            // waits for the oldest outstanding one to complete.
            let mut start = start;
            if latency > self.cfg.hierarchy.l1d.latency {
                while let Some(&done) = self.mshrs.front() {
                    if done <= start {
                        self.mshrs.pop_front();
                    } else {
                        break;
                    }
                }
                if self.mshrs.len() >= self.cfg.l1d_mshrs {
                    let oldest = self.mshrs.pop_front().expect("MSHRs are full, so non-empty");
                    if oldest > start {
                        self.pipeline.mshr_stalls += 1;
                    }
                    start = start.max(oldest);
                }
                self.mshrs.push_back(start + latency);
            }
            let done = start + latency;
            self.load_queue.push_back(done);
            done
        } else if rec.is_store() {
            // The write retires through the store buffer; charge the
            // hierarchy for statistics but make results (base updates,
            // store-exclusive status) available at ALU latency.
            for addr in rec.destination_memory() {
                self.memory.access_data(rec.ip(), addr, true);
            }
            start + 1
        } else {
            start + 1
        };

        for dst in rec.destination_registers() {
            self.reg_ready[dst as usize] = completion;
        }

        // ------------------------------------------------ branch -------
        if rec.is_branch() {
            self.resolve_branch(rec, next_ip, dispatch, completion);
        }

        // ------------------------------------------------ retire -------
        let retire = self.retire_slots.allocate(completion.max(self.last_retire));
        self.last_retire = self.last_retire.max(retire);
        if self.rob.len() < self.cfg.rob_size {
            self.rob.push_back(retire);
        }
    }

    fn resolve_branch(
        &mut self,
        rec: &ChampsimRecord,
        next_ip: Option<u64>,
        dispatch: u64,
        resolve: u64,
    ) {
        let branch_type = self.cfg.branch_rules.classify(rec);
        let taken = rec.branch_taken();
        // ChampSim derives targets from the trace stream: a taken
        // branch's target is the next record's IP.
        let target = if taken { next_ip.unwrap_or(rec.ip() + 4) } else { 0 };

        // --- direction prediction -----------------------------------
        let predicted_taken = if branch_type == BranchType::Conditional {
            self.direction.predict(rec.ip())
        } else {
            true
        };
        let direction_wrong = predicted_taken != taken;
        if branch_type == BranchType::Conditional {
            if direction_wrong {
                self.branches.direction_mispredicts += 1;
            }
            self.direction.update(rec.ip(), taken);
        }

        // --- target prediction ---------------------------------------
        let btb_entry = self.btb.lookup(rec.ip());
        let predicted_target = if self.cfg.ideal_targets {
            target
        } else {
            match branch_type {
                BranchType::Return => self.ras.pop().unwrap_or(0),
                BranchType::Indirect | BranchType::IndirectCall => match &mut self.indirect {
                    Some(ittage) => {
                        ittage.predict(rec.ip()).or(btb_entry.map(|e| e.target)).unwrap_or(0)
                    }
                    None => btb_entry.map(|e| e.target).unwrap_or(0),
                },
                _ => btb_entry.map(|e| e.target).unwrap_or(0),
            }
        };
        let target_wrong = taken && predicted_taken && predicted_target != target;
        if target_wrong {
            self.branches.target_mispredicts += 1;
        }
        // A misclassified-as-return call still *pops* the RAS above even
        // in ideal-target mode? No: ideal mode skips RAS entirely, which
        // is exactly why the paper's call-stack fix does not move the
        // IPC-1 ranking (§4.4).
        if !self.cfg.ideal_targets && branch_type.is_call() {
            self.ras.push(rec.ip() + 4);
        }

        // --- trainers -------------------------------------------------
        if taken {
            self.btb.update(rec.ip(), target, branch_type);
        }
        if let Some(ittage) = &mut self.indirect {
            if matches!(branch_type, BranchType::Indirect | BranchType::IndirectCall) {
                ittage.update(rec.ip(), target);
            }
            ittage.push_history(taken);
        }
        if let Some(pf) = self.prefetcher.as_mut() {
            pf.on_branch(rec.ip(), target, taken);
        }

        // --- redirect -------------------------------------------------
        let mispredicted = direction_wrong || target_wrong;
        self.branches.record(branch_type, mispredicted);
        if mispredicted {
            self.branches.mispredict_resolve_cycles += resolve.saturating_sub(dispatch);
            // The front-end restarts after resolution.
            self.fetch_barrier = self.fetch_barrier.max(resolve + 1);
            self.refilling = true;
            self.current_block = u64::MAX;
        } else if taken && !self.cfg.decoupled_frontend {
            // Coupled front-ends take a one-cycle taken-branch bubble.
            self.fetch_barrier = self.fetch_barrier.max(self.block_ready + 1);
            self.current_block = u64::MAX;
        }
    }
}

/// A push-based single-core simulation: one lane of
/// [`Simulator::run_fused`].
///
/// Each [`push`](SimSink::push) advances the core by exactly one record;
/// [`finish`](SimSink::finish) builds the report. The caller supplies the
/// one-record lookahead (`next_ip`), the taken-branch target source.
struct SimSink<'c> {
    engine: Engine<'c>,
    warm_cycles: u64,
    warm_branches: BranchStats,
    warm_prefetches: u64,
    measured_start_index: usize,
    epochs: Option<telemetry::EpochSeries>,
    epoch_prev: EpochCursor,
    /// Cancellation is polled at the same granularity as epoch
    /// snapshots when epoch sampling is on, so "cancel at an epoch
    /// boundary" holds literally; otherwise a fixed stride keeps the
    /// atomic load off the per-record path.
    cancel_interval: u64,
    /// Records consumed so far.
    consumed: usize,
    stopped: bool,
}

impl<'c> SimSink<'c> {
    /// A cold core ready to consume records under `options`.
    fn new(config: &'c CoreConfig, options: RunOptions) -> SimSink<'c> {
        let engine = Engine::new(config, options);
        let epochs = engine.epoch_instructions.map(|n| {
            telemetry::EpochSeries::new(
                n,
                &[
                    "cycles",
                    "branch_mispredicts",
                    "l1i_demand_misses",
                    "l1d_demand_misses",
                    "llc_demand_misses",
                ],
            )
        });
        let cancel_interval = engine.epoch_instructions.unwrap_or(crate::cancel::CHECK_INTERVAL);
        SimSink {
            engine,
            warm_cycles: 0,
            warm_branches: BranchStats::default(),
            warm_prefetches: 0,
            measured_start_index: 0,
            epochs,
            epoch_prev: EpochCursor::default(),
            cancel_interval,
            consumed: 0,
            stopped: false,
        }
    }

    /// Consumes one record; `next_ip` is the following record's IP (the
    /// taken-branch target source), `None` at end of stream.
    ///
    /// Returns `false` once the sink has stopped — its cancel token
    /// tripped at a poll boundary — after which further pushes are
    /// ignored. The partial statistics must then be discarded (see
    /// [`RunOptions::with_cancel`]).
    fn push(&mut self, rec: &ChampsimRecord, next_ip: Option<u64>) -> bool {
        if self.stopped {
            return false;
        }
        self.engine.step(rec, next_ip);
        let i = self.consumed;

        if let (Some(series), Some(n)) = (self.epochs.as_mut(), self.engine.epoch_instructions) {
            if (i as u64 + 1).is_multiple_of(n) {
                let now = self.engine.epoch_cursor();
                series.push_row(&now.delta_from(&self.epoch_prev));
                self.epoch_prev = now;
            }
        }

        if let Some(token) = &self.engine.cancel {
            if (i as u64 + 1).is_multiple_of(self.cancel_interval) && token.is_cancelled() {
                self.consumed = i + 1;
                self.stopped = true;
                return false;
            }
        }

        if (i as u64 + 1) == self.engine.warmup {
            self.warm_cycles = self.engine.last_retire;
            self.warm_branches = self.engine.branches;
            self.warm_prefetches = self.engine.instruction_prefetches;
            self.measured_start_index = i + 1;
            self.engine.memory.reset_stats();
            self.engine.pipeline = PipelineStats::default();
            // Cache counters restart at zero; keep epoch deltas
            // consistent across the reset.
            self.epoch_prev.zero_caches();
        }

        self.consumed = i + 1;
        true
    }

    /// `true` once cancellation stopped the sink; further pushes are
    /// no-ops.
    fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Closes the run and builds the report over the records consumed
    /// so far.
    fn finish(self) -> SimReport {
        let engine = self.engine;
        let mut components = telemetry::Registry::new();
        engine.direction.export_telemetry(&mut components);
        if let Some(ittage) = &engine.indirect {
            ittage.export_telemetry(&mut components);
        }
        engine.btb.export_telemetry(&mut components);
        engine.ras.export_telemetry(&mut components);
        if let Some(pf) = &engine.prefetcher {
            pf.export_telemetry(&mut components);
        }
        if let Some(series) = self.epochs {
            components.set_epochs(series);
        }

        let measured = (self.consumed - self.measured_start_index) as u64;
        SimReport {
            instructions: measured,
            cycles: engine.last_retire.saturating_sub(self.warm_cycles).max(1),
            branches: engine.branches.delta_from(&self.warm_branches),
            l1i: *engine.memory.l1i().stats(),
            l1d: *engine.memory.l1d().stats(),
            l2: *engine.memory.l2().stats(),
            llc: *engine.memory.llc().stats(),
            instruction_prefetches: engine.instruction_prefetches - self.warm_prefetches,
            pipeline: engine.pipeline,
            components,
        }
    }
}

/// Snapshot of the counters sampled at epoch boundaries. Column order
/// matches the series header built in [`SimSink::new`].
#[derive(Debug, Clone, Copy, Default)]
struct EpochCursor {
    cycles: u64,
    branch_mispredicts: u64,
    l1i_demand_misses: u64,
    l1d_demand_misses: u64,
    llc_demand_misses: u64,
}

impl EpochCursor {
    fn delta_from(&self, prev: &EpochCursor) -> [u64; 5] {
        [
            self.cycles.saturating_sub(prev.cycles),
            self.branch_mispredicts.saturating_sub(prev.branch_mispredicts),
            self.l1i_demand_misses.saturating_sub(prev.l1i_demand_misses),
            self.l1d_demand_misses.saturating_sub(prev.l1d_demand_misses),
            self.llc_demand_misses.saturating_sub(prev.llc_demand_misses),
        ]
    }

    fn zero_caches(&mut self) {
        self.l1i_demand_misses = 0;
        self.l1d_demand_misses = 0;
        self.llc_demand_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use champsim_trace::{pattern, regs};

    fn straight_line(n: u64) -> Vec<ChampsimRecord> {
        (0..n).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect()
    }

    /// Simulates `records` on the small test core with default options.
    fn run_small(records: &[ChampsimRecord]) -> SimReport {
        Simulator::run_on(&CoreConfig::test_small(), records, RunOptions::default())
    }

    #[test]
    fn straight_line_code_reaches_high_ipc() {
        let report = run_small(&straight_line(20_000));
        assert!(report.ipc() > 3.0, "independent ALU ops should flow wide: {}", report.ipc());
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // Every instruction reads the register written by its predecessor.
        let mut records = Vec::new();
        for i in 0..20_000u64 {
            let mut r = ChampsimRecord::new(0x1000 + i * 4);
            r.add_source_register(regs::arch(1));
            r.add_destination_register(regs::arch(1));
            records.push(r);
        }
        let report = run_small(&records);
        assert!(report.ipc() < 1.05, "serial chain cannot exceed 1 IPC: {}", report.ipc());
    }

    #[test]
    fn load_latency_slows_dependent_chain() {
        // Pointer-chase: each load's address depends on the previous
        // load's result, and addresses spread beyond every cache level.
        let mut chase = Vec::new();
        for i in 0..5_000u64 {
            let mut r = ChampsimRecord::new(0x1000 + i * 4);
            r.add_source_register(regs::arch(1));
            r.add_destination_register(regs::arch(1));
            r.add_source_memory(0x10_0000 + (i.wrapping_mul(0x9e3779b97f4a7c15) % (1 << 28)));
            chase.push(r);
        }
        let chase_report = run_small(&chase);
        let alu_report = run_small(&straight_line(5_000));
        assert!(
            chase_report.ipc() * 10.0 < alu_report.ipc(),
            "memory chain must be far slower: {} vs {}",
            chase_report.ipc(),
            alu_report.ipc()
        );
        assert!(chase_report.l1d_mpki() > 100.0);
    }

    #[test]
    fn predictable_branches_cost_little() {
        // Always-taken loop branch: after warm-up, near-zero mispredicts.
        let mut records = Vec::new();
        for i in 0..10_000u64 {
            records.push(ChampsimRecord::new(0x1000 + (i % 8) * 4));
            if i % 8 == 7 {
                let mut b = pattern::conditional(0x1000 + 8 * 4, true);
                b.set_ip(0x1020);
                records.push(b);
            }
        }
        let report = run_small(&records);
        assert!(report.direction_mpki() < 5.0, "{}", report.direction_mpki());
    }

    #[test]
    fn random_branches_expose_misprediction_penalty() {
        let mut state = 42u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 63 == 1
        };
        let mut predictable = Vec::new();
        let mut random = Vec::new();
        for i in 0..20_000u64 {
            let ip = 0x1000 + (i % 64) * 4;
            if i % 4 == 3 {
                predictable.push(pattern::conditional(ip, true));
                random.push(pattern::conditional(ip, rand_bit()));
            } else {
                predictable.push(ChampsimRecord::new(ip));
                random.push(ChampsimRecord::new(ip));
            }
        }
        let fast = run_small(&predictable);
        let slow = run_small(&random);
        assert!(
            slow.ipc() < fast.ipc() * 0.7,
            "random branches must hurt: {} vs {}",
            slow.ipc(),
            fast.ipc()
        );
        assert!(slow.direction_mpki() > 20.0);
    }

    /// The central mechanism behind the paper's `flag-reg`/`branch-regs`
    /// slowdowns: a mispredicted branch that depends on a long-latency
    /// load resolves late, exposing the full penalty.
    #[test]
    fn branch_depending_on_load_amplifies_penalty() {
        let mut state = 7u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 63 == 1
        };
        let build = |depend: bool, rand: &mut dyn FnMut() -> bool| {
            let mut records = Vec::new();
            for i in 0..20_000u64 {
                let ip = 0x1000 + (i % 16) * 4;
                match i % 4 {
                    0 => {
                        // A cache-hostile load into arch reg 2.
                        let mut l = ChampsimRecord::new(ip);
                        l.add_source_memory(
                            0x20_0000 + (i.wrapping_mul(0x9e3779b97f4a7c15) % (1 << 28)),
                        );
                        l.add_destination_register(regs::arch(2));
                        records.push(l);
                    }
                    3 => {
                        let mut b = pattern::conditional(ip, rand());
                        if depend {
                            // cbz-style: reads the loaded register.
                            b.remove_source_register(regs::FLAGS);
                            b.add_source_register(regs::arch(2));
                        }
                        records.push(b);
                    }
                    _ => records.push(ChampsimRecord::new(ip)),
                }
            }
            records
        };
        let independent = run_small(&build(false, &mut rand_bit));
        let dependent = run_small(&build(true, &mut rand_bit));
        assert!(
            dependent.ipc() < independent.ipc() * 0.9,
            "load-fed branches must be slower: {} vs {}",
            dependent.ipc(),
            independent.ipc()
        );
    }

    /// The `call-stack` mechanism: calls misconverted as returns wreck
    /// the RAS and the return MPKI explodes.
    #[test]
    fn misclassified_calls_inflate_return_mpki() {
        // A call/return pair where the "call" is encoded as a return
        // (the original converter's bug for `blr x30`).
        let build = |call_is_return: bool| {
            let mut records = Vec::new();
            for i in 0..4_000u64 {
                let base = 0x1000 + (i % 4) * 0x100;
                // caller body
                records.push(ChampsimRecord::new(base));
                // call to function at 0x9000
                let call_ip = base + 4;
                if call_is_return {
                    records.push(pattern::ret(call_ip, true));
                } else {
                    records.push(pattern::indirect_call(call_ip, true, regs::arch(30)));
                }
                // function body + genuine return to call_ip + 4
                records.push(ChampsimRecord::new(0x9000));
                records.push(pattern::ret(0x9004, true));
                records.push(ChampsimRecord::new(call_ip + 4));
            }
            records
        };
        let good = run_small(&build(false));
        let bad = run_small(&build(true));
        assert!(
            bad.return_mpki() > good.return_mpki() * 5.0,
            "RAS desync must inflate return MPKI: {} vs {}",
            bad.return_mpki(),
            good.return_mpki()
        );
        assert!(bad.ipc() < good.ipc());
    }

    #[test]
    fn ideal_targets_ignore_ras_damage() {
        // Same bad encoding as above, but the IPC-1 config models ideal
        // target prediction, so return MPKI stays zero (§4.4).
        let mut records = Vec::new();
        for i in 0..2_000u64 {
            let base = 0x1000 + (i % 4) * 0x100;
            records.push(pattern::ret(base + 4, true));
            records.push(ChampsimRecord::new(0x9000));
            records.push(pattern::ret(0x9004, true));
            records.push(ChampsimRecord::new(base + 8));
        }
        let report = Simulator::run_on(&CoreConfig::ipc1(), &records, RunOptions::default());
        assert_eq!(report.branches.target_mispredicts, 0);
    }

    #[test]
    fn warmup_excludes_cold_effects() {
        let records = straight_line(10_000);
        let cold = run_small(&records);
        let warm = Simulator::run_on(
            &CoreConfig::test_small(),
            &records,
            RunOptions::default().with_warmup(5_000),
        );
        assert_eq!(warm.instructions, 5_000);
        assert!(warm.ipc() >= cold.ipc() * 0.95);
    }

    #[test]
    fn instruction_prefetcher_helps_large_footprint_code() {
        // Code footprint far beyond the 32KB L1I, looped.
        let mut records = Vec::new();
        for _rep in 0..6 {
            for i in 0..40_000u64 {
                records.push(ChampsimRecord::new(0x10_0000 + i * 4));
            }
        }
        let ipc1 = CoreConfig::ipc1();
        let base = Simulator::run_on(&ipc1, &records, RunOptions::default());
        let with_pf = Simulator::run_on(
            &ipc1,
            &records,
            RunOptions::default()
                .with_prefetcher(iprefetch::by_name("next-line").expect("known name")),
        );
        assert!(
            with_pf.ipc() > base.ipc() * 1.05,
            "prefetching sequential code must help: {} vs {}",
            with_pf.ipc(),
            base.ipc()
        );
        assert!(with_pf.l1i_mpki() < base.l1i_mpki());
        assert!(with_pf.instruction_prefetches > 0);
    }

    #[test]
    fn decoupled_frontend_hides_instruction_misses() {
        let mut records = Vec::new();
        for _rep in 0..6 {
            for i in 0..40_000u64 {
                records.push(ChampsimRecord::new(0x10_0000 + i * 4));
            }
        }
        let coupled = Simulator::run_on(
            &CoreConfig {
                decoupled_frontend: false,
                frontend_lookahead: 0,
                ..CoreConfig::test_small()
            },
            &records,
            RunOptions::default(),
        );
        let decoupled = run_small(&records);
        assert!(
            decoupled.ipc() > coupled.ipc(),
            "run-ahead fetch must help: {} vs {}",
            decoupled.ipc(),
            coupled.ipc()
        );
    }

    /// MSHR scarcity must throttle memory-level parallelism: a parallel
    /// miss stream runs slower with one MSHR than with many.
    #[test]
    fn mshr_limit_throttles_parallel_misses() {
        let mut records = Vec::new();
        for i in 0..10_000u64 {
            let mut r = ChampsimRecord::new(0x1000 + (i % 32) * 4);
            r.add_source_memory(0x30_0000 + (i.wrapping_mul(0x9e3779b97f4a7c15) % (1 << 28)));
            r.add_destination_register(regs::arch(((i % 8) + 2) as u8));
            records.push(r);
        }
        let mshrs = |n| {
            let config = CoreConfig { l1d_mshrs: n, ..CoreConfig::test_small() };
            Simulator::run_on(&config, &records, RunOptions::default())
        };
        let wide = mshrs(64);
        let narrow = mshrs(1);
        assert!(
            narrow.ipc() < wide.ipc() * 0.5,
            "one MSHR must serialize the misses: {} vs {}",
            narrow.ipc(),
            wide.ipc()
        );
    }

    /// Enabling address translation slows page-hostile access patterns
    /// and leaves page-local ones nearly untouched.
    #[test]
    fn translation_penalizes_page_hostile_access() {
        let build = |stride: u64| -> Vec<ChampsimRecord> {
            (0..10_000u64)
                .map(|i| {
                    let mut r = ChampsimRecord::new(0x1000 + (i % 16) * 4);
                    r.add_source_memory(0x40_0000 + (i * stride) % (1 << 26));
                    r.add_destination_register(regs::arch(((i % 8) + 2) as u8));
                    r
                })
                .collect()
        };
        let with_tlb = CoreConfig {
            hierarchy: CoreConfig::test_small().hierarchy.with_translation(),
            ..CoreConfig::test_small()
        };
        // Page-hostile: a new 4KB page every access.
        let hostile = build(4096 + 64);
        let base = run_small(&hostile);
        let translated = Simulator::run_on(&with_tlb, &hostile, RunOptions::default());
        assert!(
            translated.ipc() < base.ipc() * 0.95,
            "page walks must cost something: {} vs {}",
            translated.ipc(),
            base.ipc()
        );
        // Page-local: everything within a handful of pages. The relative
        // translation cost must be far below the page-hostile pattern's.
        let local = build(8);
        let base_local = run_small(&local);
        let translated_local = Simulator::run_on(&with_tlb, &local, RunOptions::default());
        let hostile_cost = base.ipc() / translated.ipc();
        let local_cost = base_local.ipc() / translated_local.ipc();
        assert!(
            local_cost < 1.0 + (hostile_cost - 1.0) / 2.0,
            "page-local translation cost must be far smaller: {local_cost} vs {hostile_cost}"
        );
    }

    #[test]
    fn report_counts_match_input() {
        let records = straight_line(1234);
        let report = run_small(&records);
        assert_eq!(report.instructions, 1234);
        assert!(report.cycles > 0);
    }

    #[test]
    fn epoch_series_covers_the_run() {
        let records = straight_line(10_000);
        let report = Simulator::run_on(
            &CoreConfig::test_small(),
            &records,
            RunOptions::default().with_epochs(1_000),
        );
        let epochs = report.components.epochs().expect("epochs requested");
        assert_eq!(epochs.rows(), 10);
        let cycles = epochs.series("cycles").expect("cycles column");
        assert_eq!(cycles.iter().sum::<u64>(), report.cycles);
    }

    #[test]
    fn pipeline_stats_see_rob_pressure() {
        // A long dependency chain keeps the ROB full: every instruction
        // waits on its predecessor while fetch keeps delivering.
        let mut records = Vec::new();
        for i in 0..20_000u64 {
            let mut r = ChampsimRecord::new(0x1000 + i * 4);
            r.add_source_memory(0x10_0000 + (i.wrapping_mul(0x9e3779b97f4a7c15) % (1 << 28)));
            r.add_source_register(regs::arch(1));
            r.add_destination_register(regs::arch(1));
            records.push(r);
        }
        let report = run_small(&records);
        assert!(report.pipeline.rob_stalls > 0, "serial chain must back up the ROB");
        assert!(report.pipeline.rob_stall_cycles >= report.pipeline.rob_stalls);
        assert_eq!(report.pipeline.rob_occupancy.count(), 20_000);
    }

    #[test]
    fn pipeline_stats_reset_at_warmup() {
        let records = straight_line(10_000);
        let warm = Simulator::run_on(
            &CoreConfig::test_small(),
            &records,
            RunOptions::default().with_warmup(5_000),
        );
        assert_eq!(warm.pipeline.rob_occupancy.count(), 5_000);
    }

    /// Renders a report to its exported metrics document — the byte
    /// representation the fused-pass identity tests compare.
    fn doc(report: &SimReport) -> String {
        let mut registry = telemetry::Registry::new();
        report.export(&mut registry);
        registry.to_json()
    }

    /// A deterministic record soup mixing loads, stores, dependent
    /// chains and data-dependent branches — every mechanism the engine
    /// models, so a divergence between lanes anywhere shows up.
    fn mixed_records(seed: u64, n: u64) -> Vec<ChampsimRecord> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut records = Vec::with_capacity(n as usize);
        for i in 0..n {
            let ip = 0x1000 + (i % 512) * 4;
            match next() % 5 {
                0 => {
                    let mut r = ChampsimRecord::new(ip);
                    r.add_source_memory(0x20_0000 + next() % (1 << 24));
                    r.add_destination_register(regs::arch((next() % 8 + 1) as u8));
                    records.push(r);
                }
                1 => {
                    let mut r = ChampsimRecord::new(ip);
                    r.add_destination_memory(0x30_0000 + next() % (1 << 22));
                    records.push(r);
                }
                2 => records.push(pattern::conditional(ip, next() % 2 == 0)),
                _ => {
                    let mut r = ChampsimRecord::new(ip);
                    r.add_source_register(regs::arch((next() % 8 + 1) as u8));
                    r.add_destination_register(regs::arch((next() % 8 + 1) as u8));
                    records.push(r);
                }
            }
        }
        records
    }

    /// Lane isolation: N heterogeneous lanes over one stream produce
    /// reports byte-identical to N one-lane passes.
    #[test]
    fn fused_lanes_match_independent_runs() {
        let records = mixed_records(1, 20_000);
        let small = CoreConfig::test_small();
        let ipc1 = CoreConfig::ipc1();
        let lane_options = || -> Vec<(&CoreConfig, RunOptions)> {
            vec![
                (&small, RunOptions::default()),
                (&small, RunOptions::default().with_warmup(5_000)),
                (&small, RunOptions::default().with_epochs(1_000)),
                (&ipc1, RunOptions::default()),
                (
                    &ipc1,
                    RunOptions::default()
                        .with_warmup(2_000)
                        .with_prefetcher(iprefetch::by_name("next-line").expect("known name")),
                ),
            ]
        };
        let fused = Simulator::run_fused(lane_options(), records.iter().copied());
        for (i, (config, options)) in lane_options().into_iter().enumerate() {
            let solo = Simulator::run_on(config, &records, options);
            assert_eq!(doc(&fused[i]), doc(&solo), "lane {i} diverged from its solo run");
        }
    }

    /// Seeded property loop over random record soups and lane counts.
    #[test]
    fn fused_identity_holds_across_seeds() {
        let small = CoreConfig::test_small();
        for seed in 2..8u64 {
            let records = mixed_records(seed, 6_000);
            let nlanes = (seed % 3 + 2) as usize;
            let lanes =
                (0..nlanes).map(|l| (&small, RunOptions::default().with_warmup(l as u64 * 500)));
            let fused = Simulator::run_fused(lanes, records.iter().copied());
            for (l, report) in fused.iter().enumerate() {
                let solo = Simulator::run_on(
                    &small,
                    &records,
                    RunOptions::default().with_warmup(l as u64 * 500),
                );
                assert_eq!(doc(report), doc(&solo), "seed {seed} lane {l}");
            }
        }
    }

    /// A lane whose token is already cancelled stops at its first poll
    /// boundary without stalling the other lanes.
    #[test]
    fn fused_pass_survives_per_lane_cancellation() {
        let records = mixed_records(9, 12_000);
        let small = CoreConfig::test_small();
        let token = CancelToken::new();
        token.cancel();
        let lanes = vec![
            (&small, RunOptions::default().with_epochs(1_000).with_cancel(token.clone())),
            (&small, RunOptions::default()),
        ];
        let fused = Simulator::run_fused(lanes, records.iter().copied());
        // The cancelled lane consumed only up to its first poll.
        assert_eq!(fused[0].instructions, 1_000);
        // The live lane is untouched by its neighbour's cancellation.
        let solo = Simulator::run_on(&small, &records, RunOptions::default());
        assert_eq!(doc(&fused[1]), doc(&solo));
    }

    /// When every lane cancels, the pass stops consuming the stream. A
    /// many-lane pass and `run_iter` pull exactly the same records: the
    /// ones simulated plus the one-record lookahead.
    #[test]
    fn fused_pass_ends_early_once_all_lanes_stop() {
        let small = CoreConfig::test_small();
        let token = CancelToken::new();
        token.cancel();
        let options = || RunOptions::default().with_epochs(500).with_cancel(token.clone());
        let pulled = &std::cell::Cell::new(0u64);
        let records = || {
            (0..100_000u64).map(move |i| {
                pulled.set(i + 1);
                ChampsimRecord::new(0x1000 + (i % 64) * 4)
            })
        };
        let fused = Simulator::run_fused(vec![(&small, options()), (&small, options())], records());
        assert!(fused.iter().all(|report| report.instructions == 500));
        assert_eq!(pulled.replace(0), 501, "fused pass pulled past the last lane's stop");
        let solo = Simulator::new(small.clone()).run_iter(records(), options());
        assert_eq!(solo.instructions, 500);
        assert_eq!(pulled.get(), 501, "run_iter pulled past its stop");
    }

    #[test]
    fn component_registry_carries_predictor_counters() {
        let mut records = Vec::new();
        for i in 0..2_000u64 {
            records.push(ChampsimRecord::new(0x1000 + (i % 8) * 4));
            if i % 8 == 7 {
                let mut b = pattern::conditional(0x1000 + 8 * 4, true);
                b.set_ip(0x1020);
                records.push(b);
            }
        }
        let report = run_small(&records);
        let preds = report.components.counter_value("bpred.direction.predictions");
        assert!(preds > 0, "conditional branches must hit the direction predictor");
        let mut registry = telemetry::Registry::new();
        report.export(&mut registry);
        assert_eq!(registry.counter_value("bpred.direction.predictions"), preds);
    }
}
