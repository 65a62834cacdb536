//! Synthetic RISC-V workloads for the E-Trace frontend.
//!
//! Unlike the CVP-1 generators in [`crate::TraceSpec`], which emit flat
//! per-instruction records, an E-Trace workload is a **static program
//! image** plus an **execution walk** over it — the split the E-Trace
//! encoder exploits. [`RvTraceSpec::generate`] returns both halves:
//! an [`etrace::Program`] laid out as a DAG of small functions on a
//! fixed address grid, and the retired-instruction stream a run of that
//! program produces. `EtraceWriter` packetizes the pair into a
//! `.etrace` file; the decoder reconstructs the walk bit-for-bit.
//!
//! The three archetypes stress the three packet channels:
//!
//! * [`RvWorkloadKind::IntLoop`] — branch-map pressure: tight integer
//!   loops with forward skip branches and a hot backward branch.
//! * [`RvWorkloadKind::StreamKernel`] — memory-stream pressure: strided
//!   loads and stores whose deltas compress to a byte or two.
//! * [`RvWorkloadKind::Dispatch`] — ADDR-packet pressure: indirect
//!   calls fanning out across the function DAG, returns popping back.
//!
//! Calls only target higher-numbered functions, so the dynamic call
//! depth is bounded by the function count and every return has a
//! matching call — the shadow-stack walk can never underflow.

use std::collections::HashMap;
use std::fmt;

use etrace::{MetaInstr, MetaOp, Program, TraceItem, RV_REG_NONE};

use crate::rng::Xoshiro256;

/// Function entry grid: function `f` starts at `CODE_BASE + f * FN_PITCH`.
const CODE_BASE: u64 = 0x0001_0000;
/// Address pitch between function entries (far larger than any body).
const FN_PITCH: u64 = 0x4000;
/// Heap base for generated data addresses.
const HEAP_BASE: u64 = 0x4000_0000;

/// RISC-V workload archetype, each stressing one packet channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RvWorkloadKind {
    /// Tight integer loops: conditional-branch (branch-map) pressure.
    IntLoop,
    /// Strided streaming kernel: memory-stream pressure.
    StreamKernel,
    /// Indirect-call dispatcher: ADDR-packet pressure.
    Dispatch,
}

impl fmt::Display for RvWorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RvWorkloadKind::IntLoop => "rv-int",
            RvWorkloadKind::StreamKernel => "rv-stream",
            RvWorkloadKind::Dispatch => "rv-dispatch",
        };
        f.write_str(s)
    }
}

/// A fully parameterized synthetic RISC-V workload.
///
/// Deterministic in the spec, and `Eq + Hash` (the `f64` knobs compare
/// by bit pattern) so it can key artifact caches exactly like
/// [`crate::TraceSpec`].
#[derive(Debug, Clone)]
pub struct RvTraceSpec {
    name: String,
    kind: RvWorkloadKind,
    seed: u64,
    length: usize,
    /// Number of functions in the program DAG.
    pub functions: usize,
    /// log2 of the data working set in bytes.
    pub data_footprint_log2: u8,
    /// Fraction of conditional branches that flip a fair coin instead
    /// of following their loop/skip bias.
    pub hard_branch_fraction: f64,
    /// Fraction of simple ALU instructions encoded as 2-byte RVC forms.
    pub compressed_fraction: f64,
}

impl RvTraceSpec {
    /// A spec with archetype defaults for `kind`.
    pub fn new(name: impl Into<String>, kind: RvWorkloadKind, seed: u64) -> RvTraceSpec {
        let mut spec = RvTraceSpec {
            name: name.into(),
            kind,
            seed,
            length: 100_000,
            functions: 8,
            data_footprint_log2: 18,
            hard_branch_fraction: 0.02,
            compressed_fraction: 0.3,
        };
        match kind {
            RvWorkloadKind::IntLoop => {
                spec.functions = 4;
                spec.hard_branch_fraction = 0.08;
            }
            RvWorkloadKind::StreamKernel => {
                spec.functions = 3;
                spec.data_footprint_log2 = 24;
                spec.hard_branch_fraction = 0.01;
            }
            RvWorkloadKind::Dispatch => {
                spec.functions = 24;
                spec.data_footprint_log2 = 20;
            }
        }
        spec
    }

    /// The workload's name (used in file names and experiment rows).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The archetype.
    pub fn kind(&self) -> RvWorkloadKind {
        self.kind
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of retired instructions generated.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Sets the retired-instruction count.
    #[must_use]
    pub fn with_length(mut self, length: usize) -> RvTraceSpec {
        self.length = length;
        self
    }

    /// Sets the data working-set size as a power of two.
    #[must_use]
    pub fn with_data_footprint_log2(mut self, l: u8) -> RvTraceSpec {
        self.data_footprint_log2 = l.clamp(10, 34);
        self
    }

    /// Sets the hard (coin-flip) branch fraction (clamped to `0..=1`).
    #[must_use]
    pub fn with_hard_branch_fraction(mut self, f: f64) -> RvTraceSpec {
        self.hard_branch_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Builds the static program image and runs it for
    /// [`length`](RvTraceSpec::length) retired instructions.
    pub fn generate(&self) -> (Program, Vec<TraceItem>) {
        let build = ProgramBuild::new(self);
        let items = build.run(self);
        (build.program, items)
    }

    /// Total identity key: every field that influences generation.
    fn key(&self) -> (&str, RvWorkloadKind, u64, usize, usize, u8, [u64; 2]) {
        (
            &self.name,
            self.kind,
            self.seed,
            self.length,
            self.functions,
            self.data_footprint_log2,
            [self.hard_branch_fraction.to_bits(), self.compressed_fraction.to_bits()],
        )
    }
}

impl PartialEq for RvTraceSpec {
    fn eq(&self, other: &RvTraceSpec) -> bool {
        self.key() == other.key()
    }
}

impl Eq for RvTraceSpec {}

impl std::hash::Hash for RvTraceSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// How the walk decides a conditional branch, fixed at build time.
#[derive(Debug, Clone, Copy)]
enum BranchBias {
    /// Taken with the given probability.
    Biased(f64),
    /// Fair coin flip (a "hard" branch).
    Hard,
}

/// The built image plus the side tables the walk needs.
struct ProgramBuild {
    program: Program,
    /// Per-branch-pc decision rule.
    branch_bias: HashMap<u64, BranchBias>,
    /// Per-indirect-call-site candidate callee entries.
    dispatch_targets: HashMap<u64, Vec<u64>>,
}

/// One planned instruction before addresses are assigned.
enum Slot {
    Plain { op: MetaOp, rd: u8, rs1: u8, rs2: u8 },
    Skip { ahead: usize, bias: BranchBias },
    LoopBack { bias: BranchBias },
    Call { callee: usize },
    IndCall { callees: Vec<usize> },
    JumpEntry,
    Ret,
}

impl ProgramBuild {
    fn new(spec: &RvTraceSpec) -> ProgramBuild {
        let functions = spec.functions.max(2);
        let mut rng = Xoshiro256::seed_from_u64(spec.seed ^ 0x5256_4554_5241_4345); // "RVETRACE"
        let mut instrs = Vec::new();
        let mut branch_bias = HashMap::new();
        let mut dispatch_targets = HashMap::new();

        for f in 0..functions {
            let entry = CODE_BASE + f as u64 * FN_PITCH;
            let slots = Self::plan_function(spec, f, functions, &mut rng);

            // Lay out sizes first so forward skips know their target pc.
            let sizes: Vec<u8> = slots
                .iter()
                .map(|slot| match slot {
                    Slot::Plain { op: MetaOp::Int, .. } if rng.chance(spec.compressed_fraction) => {
                        2
                    }
                    _ => 4,
                })
                .collect();
            let mut pcs = Vec::with_capacity(slots.len());
            let mut pc = entry;
            for &size in &sizes {
                pcs.push(pc);
                pc += u64::from(size);
            }

            for (i, slot) in slots.into_iter().enumerate() {
                let (pc, size) = (pcs[i], sizes[i]);
                let reg = |rng: &mut Xoshiro256| 2 + rng.below(28) as u8;
                let instr = match slot {
                    Slot::Plain { op, rd, rs1, rs2 } => MetaInstr { pc, size, op, rd, rs1, rs2 },
                    Slot::Skip { ahead, bias } => {
                        let target = pcs[(i + ahead).min(pcs.len() - 1)];
                        branch_bias.insert(pc, bias);
                        MetaInstr {
                            pc,
                            size,
                            op: MetaOp::CondBranch { target },
                            rd: RV_REG_NONE,
                            rs1: reg(&mut rng),
                            rs2: reg(&mut rng),
                        }
                    }
                    Slot::LoopBack { bias } => {
                        branch_bias.insert(pc, bias);
                        MetaInstr {
                            pc,
                            size,
                            op: MetaOp::CondBranch { target: entry },
                            rd: RV_REG_NONE,
                            rs1: reg(&mut rng),
                            rs2: reg(&mut rng),
                        }
                    }
                    Slot::Call { callee } => MetaInstr {
                        pc,
                        size,
                        op: MetaOp::Call { target: CODE_BASE + callee as u64 * FN_PITCH },
                        rd: 1,
                        rs1: RV_REG_NONE,
                        rs2: RV_REG_NONE,
                    },
                    Slot::IndCall { callees } => {
                        let entries =
                            callees.iter().map(|&g| CODE_BASE + g as u64 * FN_PITCH).collect();
                        dispatch_targets.insert(pc, entries);
                        MetaInstr {
                            pc,
                            size,
                            op: MetaOp::IndCall,
                            rd: 1,
                            rs1: reg(&mut rng),
                            rs2: RV_REG_NONE,
                        }
                    }
                    Slot::JumpEntry => MetaInstr {
                        pc,
                        size,
                        op: MetaOp::Jump { target: entry },
                        rd: RV_REG_NONE,
                        rs1: RV_REG_NONE,
                        rs2: RV_REG_NONE,
                    },
                    Slot::Ret => MetaInstr {
                        pc,
                        size,
                        op: MetaOp::Ret,
                        rd: RV_REG_NONE,
                        rs1: 1,
                        rs2: RV_REG_NONE,
                    },
                };
                instrs.push(instr);
            }
        }

        let program = Program::new(instrs).expect("generated image is valid by construction");
        ProgramBuild { program, branch_bias, dispatch_targets }
    }

    /// Plans one function body as slots; addresses come later.
    fn plan_function(
        spec: &RvTraceSpec,
        f: usize,
        functions: usize,
        rng: &mut Xoshiro256,
    ) -> Vec<Slot> {
        // Dispatch handlers stay short so the walk's time is split
        // between the dispatcher and its targets instead of pooling in
        // deep leaves.
        let body_len = if spec.kind == RvWorkloadKind::Dispatch && f > 0 {
            8 + rng.below(9) as usize
        } else {
            16 + rng.below(25) as usize
        };
        let callees: Vec<usize> = (f + 1..functions).collect();
        let mut slots = Vec::with_capacity(body_len + 2);
        let bias = |rng: &mut Xoshiro256, p: f64| {
            if rng.chance(spec.hard_branch_fraction) {
                BranchBias::Hard
            } else {
                BranchBias::Biased(p)
            }
        };
        for i in 0..body_len {
            // Keep the last two body slots plain so skips land inside
            // the body and every call has a successor instruction.
            let structural_ok = i + 2 < body_len;
            let roll = rng.next_f64();
            let slot = match spec.kind {
                RvWorkloadKind::IntLoop => match roll {
                    r if r < 0.16 => Self::load_slot(rng),
                    r if r < 0.24 => Self::store_slot(rng),
                    r if r < 0.32 => Self::plain(MetaOp::Mul, rng),
                    r if r < 0.40 && structural_ok => {
                        Slot::Skip { ahead: 2 + rng.below(2) as usize, bias: bias(rng, 0.3) }
                    }
                    r if r < 0.43 && structural_ok && !callees.is_empty() => {
                        Slot::Call { callee: callees[rng.below(callees.len() as u64) as usize] }
                    }
                    _ => Self::plain(MetaOp::Int, rng),
                },
                RvWorkloadKind::StreamKernel => match roll {
                    r if r < 0.30 => Self::load_slot(rng),
                    r if r < 0.45 => Self::store_slot(rng),
                    r if r < 0.65 => Self::plain(MetaOp::Fp, rng),
                    r if r < 0.70 && structural_ok => {
                        Slot::Skip { ahead: 2 + rng.below(2) as usize, bias: bias(rng, 0.2) }
                    }
                    _ => Self::plain(MetaOp::Int, rng),
                },
                // The dispatcher (f == 0) is dense with indirect call
                // sites; handlers do plain work and return.
                RvWorkloadKind::Dispatch if f == 0 => match roll {
                    r if r < 0.10 => Self::load_slot(rng),
                    r if r < 0.15 => Self::store_slot(rng),
                    r if r < 0.33 && structural_ok && callees.len() >= 2 => {
                        Slot::IndCall { callees: callees.clone() }
                    }
                    r if r < 0.36 && structural_ok && !callees.is_empty() => {
                        Slot::Call { callee: callees[rng.below(callees.len() as u64) as usize] }
                    }
                    r if r < 0.44 && structural_ok => {
                        Slot::Skip { ahead: 2 + rng.below(2) as usize, bias: bias(rng, 0.3) }
                    }
                    _ => Self::plain(MetaOp::Int, rng),
                },
                RvWorkloadKind::Dispatch => match roll {
                    r if r < 0.15 => Self::load_slot(rng),
                    r if r < 0.22 => Self::store_slot(rng),
                    r if r < 0.30 && structural_ok => {
                        Slot::Skip { ahead: 2 + rng.below(2) as usize, bias: bias(rng, 0.3) }
                    }
                    _ => Self::plain(MetaOp::Int, rng),
                },
            };
            slots.push(slot);
        }
        if f == 0 {
            // The main loop never returns: a hot backward branch, then
            // an unconditional restart for the fall-through case.
            slots.push(Slot::LoopBack { bias: bias(rng, 0.85) });
            slots.push(Slot::JumpEntry);
        } else {
            // Callees iterate a little, then return.
            slots.push(Slot::LoopBack { bias: bias(rng, 0.35) });
            slots.push(Slot::Ret);
        }
        slots
    }

    fn plain(op: MetaOp, rng: &mut Xoshiro256) -> Slot {
        let reg = |rng: &mut Xoshiro256| 2 + rng.below(28) as u8;
        Slot::Plain { op, rd: reg(rng), rs1: reg(rng), rs2: reg(rng) }
    }

    fn load_slot(rng: &mut Xoshiro256) -> Slot {
        // A few loads are destination-less prefetch-style (rd = x0).
        let rd = if rng.chance(0.03) { 0 } else { 2 + rng.below(28) as u8 };
        Slot::Plain {
            op: MetaOp::Load { size: 8 },
            rd,
            rs1: 2 + rng.below(28) as u8,
            rs2: RV_REG_NONE,
        }
    }

    fn store_slot(rng: &mut Xoshiro256) -> Slot {
        Slot::Plain {
            op: MetaOp::Store { size: 8 },
            rd: RV_REG_NONE,
            rs1: 2 + rng.below(28) as u8,
            rs2: 2 + rng.below(28) as u8,
        }
    }

    /// Walks the image for `spec.length()` retired instructions.
    fn run(&self, spec: &RvTraceSpec) -> Vec<TraceItem> {
        let mut rng = Xoshiro256::seed_from_u64(spec.seed ^ 0x5256_5741_4c4b_0001); // "RVWALK"
        let mask = (1u64 << spec.data_footprint_log2) - 1;
        let mut items = Vec::with_capacity(spec.length);
        let mut pc = CODE_BASE;
        let mut call_stack: Vec<u64> = Vec::new();
        let mut stream_cursor = 0u64;
        let mut hint = 0usize;
        while items.len() < spec.length {
            let meta =
                self.program.lookup_cached(&mut hint, pc).expect("walk stays inside the image");
            let mut item = TraceItem { pc, taken: false, target: meta.fallthrough(), mem_addr: 0 };
            match meta.op {
                MetaOp::CondBranch { target } => {
                    let taken = match self.branch_bias[&pc] {
                        BranchBias::Biased(p) => rng.chance(p),
                        BranchBias::Hard => rng.chance(0.5),
                    };
                    item.taken = taken;
                    if taken {
                        item.target = target;
                    }
                }
                MetaOp::Jump { target } => item.target = target,
                MetaOp::Call { target } => {
                    call_stack.push(meta.fallthrough());
                    item.target = target;
                }
                MetaOp::IndCall => {
                    let callees = &self.dispatch_targets[&pc];
                    call_stack.push(meta.fallthrough());
                    item.target = callees[rng.below(callees.len() as u64) as usize];
                }
                MetaOp::Ret => {
                    item.target = call_stack.pop().expect("DAG calls balance returns");
                }
                MetaOp::IndJump => unreachable!("generator never emits bare indirect jumps"),
                MetaOp::Load { .. } | MetaOp::Store { .. } => {
                    item.mem_addr = match spec.kind {
                        RvWorkloadKind::StreamKernel => {
                            stream_cursor = stream_cursor.wrapping_add(8);
                            HEAP_BASE + (stream_cursor & mask)
                        }
                        _ => HEAP_BASE + (rng.below(mask / 8 + 1) * 8),
                    };
                }
                MetaOp::Int | MetaOp::Mul | MetaOp::Fp => {}
            }
            pc = item.target;
            items.push(item);
        }
        items
    }
}

/// The standard RISC-V workload suite: two seeds of each archetype.
///
/// Used by `tracegen --list`, the `riscv` experiment family, and the
/// I/O benchmark's `etrace` streams.
pub fn rv_suite() -> Vec<RvTraceSpec> {
    let mut specs = Vec::with_capacity(6);
    for (kind, base_seed) in [
        (RvWorkloadKind::IntLoop, 0xe100u64),
        (RvWorkloadKind::StreamKernel, 0xe200),
        (RvWorkloadKind::Dispatch, 0xe300),
    ] {
        for i in 0..2u64 {
            let name = format!("{kind}-{i}").replace('-', "_");
            specs.push(RvTraceSpec::new(name, kind, base_seed + i));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = RvTraceSpec::new("t", RvWorkloadKind::Dispatch, 9).with_length(3_000);
        let (pa, ia) = spec.generate();
        let (pb, ib) = spec.generate();
        assert_eq!(pa, pb);
        assert_eq!(ia, ib);
    }

    #[test]
    fn walks_are_coherent_control_flow() {
        for spec in rv_suite() {
            let (program, items) = spec.clone().with_length(2_000).generate();
            assert_eq!(items.len(), 2_000, "{}", spec.name());
            for w in items.windows(2) {
                assert_eq!(w[1].pc, w[0].target, "{}: walk must be contiguous", spec.name());
            }
            for item in &items {
                let meta = program.lookup(item.pc).expect("every pc resolves");
                if !item.taken
                    && !matches!(meta.op, MetaOp::Jump { .. } | MetaOp::Call { .. })
                    && !meta.op.is_indirect()
                {
                    assert_eq!(item.target, meta.fallthrough(), "{}", spec.name());
                }
            }
        }
    }

    #[test]
    fn archetypes_stress_their_channel() {
        let count = |kind, pred: fn(&MetaOp) -> bool| {
            let spec = RvTraceSpec::new("probe", kind, 5).with_length(5_000);
            let (program, items) = spec.generate();
            items.iter().filter(|i| pred(&program.lookup(i.pc).unwrap().op)).count()
        };
        let branches = count(RvWorkloadKind::IntLoop, |op| matches!(op, MetaOp::CondBranch { .. }));
        assert!(branches > 500, "IntLoop is branchy: {branches}");
        let mems = count(RvWorkloadKind::StreamKernel, |op| op.is_memory());
        assert!(mems > 1_500, "StreamKernel is memory-heavy: {mems}");
        let indirects = count(RvWorkloadKind::Dispatch, |op| matches!(op, MetaOp::IndCall));
        assert!(indirects > 100, "Dispatch has indirect calls: {indirects}");
    }

    #[test]
    fn suite_names_are_unique_and_stable() {
        let suite = rv_suite();
        assert_eq!(suite.len(), 6);
        let mut names: Vec<&str> = suite.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert!(suite.iter().any(|s| s.name() == "rv_int_0"));
        assert_eq!(rv_suite(), rv_suite());
    }

    #[test]
    fn specs_hash_by_full_identity() {
        use std::collections::HashSet;
        let a = RvTraceSpec::new("x", RvWorkloadKind::IntLoop, 1).with_length(10);
        let b = a.clone();
        let c = a.clone().with_hard_branch_fraction(0.5);
        let d = a.clone().with_length(20);
        let set: HashSet<RvTraceSpec> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn round_trips_through_the_packet_stream() {
        for spec in rv_suite() {
            let (program, items) = spec.clone().with_length(4_000).generate();
            let mut writer = etrace::EtraceWriter::new(Vec::new(), &program).unwrap();
            for item in &items {
                writer.write(item).unwrap();
            }
            let (bytes, stats) = writer.finish().unwrap();
            assert!(
                stats.compression_ratio() > 3.0,
                "{}: ratio {:.2}",
                spec.name(),
                stats.compression_ratio()
            );
            let mut reader = etrace::EtraceReader::new(std::io::Cursor::new(bytes)).unwrap();
            let mut back = Vec::new();
            while let Some(d) = reader.read().unwrap() {
                back.push(d.item);
            }
            assert_eq!(back, items, "{}", spec.name());
        }
    }
}
