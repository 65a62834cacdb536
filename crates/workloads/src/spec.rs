use std::fmt;
use std::str::FromStr;

use cvp_trace::CvpInstruction;

use crate::gen::Generator;

/// Workload archetype, mirroring the CVP-1 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Pointer-heavy integer code with post/pre-indexing walks: the
    /// `base-update` stress case.
    PointerChase,
    /// Sequential array kernels: load pairs, cacheline crossers, `DC
    /// ZVA` stores.
    Streaming,
    /// ALU-dense rounds with flag-setting compares and few branches.
    Crypto,
    /// Integer code with data-dependent, hard-to-predict branches fed by
    /// loads: the `flag-reg`/`branch-regs` stress case.
    BranchyInt,
    /// Call/return-heavy code with a large instruction footprint and
    /// optional X30 indirect calls: the `call-stack` stress case and the
    /// IPC-1 server profile.
    Server,
    /// Floating-point kernels with vector loads.
    FpKernel,
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadKind::PointerChase => "pointer-chase",
            WorkloadKind::Streaming => "streaming",
            WorkloadKind::Crypto => "crypto",
            WorkloadKind::BranchyInt => "branchy-int",
            WorkloadKind::Server => "server",
            WorkloadKind::FpKernel => "fp-kernel",
        };
        f.write_str(s)
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    /// Parses the name [`Display`](fmt::Display) writes.
    fn from_str(name: &str) -> Result<WorkloadKind, String> {
        Ok(match name {
            "pointer-chase" => WorkloadKind::PointerChase,
            "streaming" => WorkloadKind::Streaming,
            "crypto" => WorkloadKind::Crypto,
            "branchy-int" => WorkloadKind::BranchyInt,
            "server" => WorkloadKind::Server,
            "fp-kernel" => WorkloadKind::FpKernel,
            other => return Err(format!("unknown workload kind {other:?}")),
        })
    }
}

/// A fully parameterized synthetic trace.
///
/// Construct with [`TraceSpec::new`] (kind-appropriate defaults) and
/// refine with the builder methods. [`TraceSpec::generate`] is
/// deterministic in the spec, and the spec implements `Eq + Hash`
/// (`f64` knobs compare by bit pattern) so it can key artifact caches.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    name: String,
    kind: WorkloadKind,
    seed: u64,
    length: usize,
    /// Fraction of loads emitted with pre/post-indexing base updates.
    pub base_update_fraction: f64,
    /// Fraction of calls emitted as `blr x30` (read+write X30).
    pub x30_call_fraction: f64,
    /// Fraction of conditional branches whose outcome is data-dependent
    /// (effectively random), the rest being loop-shaped.
    pub hard_branch_fraction: f64,
    /// Fraction of conditional branches encoded `cbz`-style (with a
    /// source register) rather than flag-reading.
    pub register_branch_fraction: f64,
    /// log2 of the data working set in bytes.
    pub data_footprint_log2: u8,
    /// Number of distinct functions (drives instruction footprint).
    pub code_functions: usize,
    /// Fraction of loads that are load pairs (two destinations).
    pub load_pair_fraction: f64,
    /// Fraction of memory accesses placed to cross a cacheline.
    pub crossing_fraction: f64,
    /// Fraction of loads emitted as destination-less prefetch loads.
    pub prefetch_load_fraction: f64,
    /// Fraction of pointer-chase steps that are truly serial (the next
    /// pointer comes from the missing load itself, `node = node->next`).
    pub serial_chase_fraction: f64,
}

impl TraceSpec {
    /// A spec with archetype defaults for `kind`.
    pub fn new(name: impl Into<String>, kind: WorkloadKind, seed: u64) -> TraceSpec {
        let mut spec = TraceSpec {
            name: name.into(),
            kind,
            seed,
            length: 100_000,
            base_update_fraction: 0.1,
            x30_call_fraction: 0.0,
            hard_branch_fraction: 0.02,
            register_branch_fraction: 0.5,
            data_footprint_log2: 18,
            code_functions: 8,
            load_pair_fraction: 0.1,
            crossing_fraction: 0.005,
            prefetch_load_fraction: 0.02,
            serial_chase_fraction: 0.0,
        };
        match kind {
            WorkloadKind::PointerChase => {
                spec.base_update_fraction = 0.45;
                spec.data_footprint_log2 = 26;
                spec.hard_branch_fraction = 0.04;
                spec.prefetch_load_fraction = 0.05;
                spec.serial_chase_fraction = 0.25;
            }
            WorkloadKind::Streaming => {
                spec.load_pair_fraction = 0.3;
                spec.crossing_fraction = 0.02;
                spec.data_footprint_log2 = 25;
                spec.hard_branch_fraction = 0.01;
            }
            WorkloadKind::Crypto => {
                spec.data_footprint_log2 = 14;
                spec.hard_branch_fraction = 0.005;
                spec.base_update_fraction = 0.2;
            }
            WorkloadKind::BranchyInt => {
                spec.hard_branch_fraction = 0.12;
                spec.data_footprint_log2 = 18;
            }
            WorkloadKind::Server => {
                spec.code_functions = 512;
                spec.data_footprint_log2 = 23;
                spec.hard_branch_fraction = 0.03;
            }
            WorkloadKind::FpKernel => {
                spec.data_footprint_log2 = 20;
                spec.hard_branch_fraction = 0.01;
                spec.load_pair_fraction = 0.2;
            }
        }
        spec
    }

    /// The trace's name (used in experiment output rows).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The archetype.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of instructions generated.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Sets the instruction count.
    #[must_use]
    pub fn with_length(mut self, length: usize) -> TraceSpec {
        self.length = length;
        self
    }

    /// Sets the base-update load fraction (clamped to `0..=1`).
    #[must_use]
    pub fn with_base_update_fraction(mut self, f: f64) -> TraceSpec {
        self.base_update_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the `blr x30` call fraction (clamped to `0..=1`).
    #[must_use]
    pub fn with_x30_call_fraction(mut self, f: f64) -> TraceSpec {
        self.x30_call_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the hard (data-dependent) branch fraction (clamped).
    #[must_use]
    pub fn with_hard_branch_fraction(mut self, f: f64) -> TraceSpec {
        self.hard_branch_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the number of distinct functions (instruction footprint).
    #[must_use]
    pub fn with_code_functions(mut self, n: usize) -> TraceSpec {
        self.code_functions = n.max(1);
        self
    }

    /// Sets the data working-set size as a power of two.
    #[must_use]
    pub fn with_data_footprint_log2(mut self, l: u8) -> TraceSpec {
        self.data_footprint_log2 = l.clamp(10, 34);
        self
    }

    /// Sets the serial pointer-chase fraction (clamped to `0..=1`).
    #[must_use]
    pub fn with_serial_chase_fraction(mut self, f: f64) -> TraceSpec {
        self.serial_chase_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Generates the trace.
    pub fn generate(&self) -> Vec<CvpInstruction> {
        Generator::new(self).generate()
    }

    /// Total identity key: every field that influences generation, with
    /// the `f64` knobs as bit patterns so equality and hashing agree.
    fn key(&self) -> (&str, WorkloadKind, u64, usize, [u64; 8], u8, usize) {
        (
            &self.name,
            self.kind,
            self.seed,
            self.length,
            [
                self.base_update_fraction.to_bits(),
                self.x30_call_fraction.to_bits(),
                self.hard_branch_fraction.to_bits(),
                self.register_branch_fraction.to_bits(),
                self.load_pair_fraction.to_bits(),
                self.crossing_fraction.to_bits(),
                self.prefetch_load_fraction.to_bits(),
                self.serial_chase_fraction.to_bits(),
            ],
            self.data_footprint_log2,
            self.code_functions,
        )
    }
}

impl PartialEq for TraceSpec {
    fn eq(&self, other: &TraceSpec) -> bool {
        self.key() == other.key()
    }
}

impl Eq for TraceSpec {}

impl std::hash::Hash for TraceSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_kind() {
        let chase = TraceSpec::new("a", WorkloadKind::PointerChase, 1);
        assert!(chase.base_update_fraction > 0.3);
        let server = TraceSpec::new("b", WorkloadKind::Server, 1);
        assert!(server.code_functions > 100);
        let branchy = TraceSpec::new("c", WorkloadKind::BranchyInt, 1);
        assert!(branchy.hard_branch_fraction > 0.1);
    }

    #[test]
    fn builders_clamp() {
        let s = TraceSpec::new("a", WorkloadKind::Crypto, 1)
            .with_base_update_fraction(7.0)
            .with_x30_call_fraction(-1.0)
            .with_code_functions(0);
        assert_eq!(s.base_update_fraction, 1.0);
        assert_eq!(s.x30_call_fraction, 0.0);
        assert_eq!(s.code_functions, 1);
    }

    #[test]
    fn specs_hash_and_compare_by_full_identity() {
        use std::collections::HashSet;
        let a = TraceSpec::new("t", WorkloadKind::Crypto, 1).with_length(100);
        let b = TraceSpec::new("t", WorkloadKind::Crypto, 1).with_length(100);
        assert_eq!(a, b);
        let c = b.clone().with_base_update_fraction(0.9);
        assert_ne!(a, c);
        let d = a.clone().with_length(200);
        assert_ne!(a, d);
        let set: HashSet<TraceSpec> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 3, "duplicate spec collapses in a hash set");
    }

    #[test]
    fn accessors_report_identity() {
        let s = TraceSpec::new("trace_9", WorkloadKind::FpKernel, 42).with_length(5);
        assert_eq!(s.name(), "trace_9");
        assert_eq!(s.kind(), WorkloadKind::FpKernel);
        assert_eq!(s.seed(), 42);
        assert_eq!(s.length(), 5);
        assert_eq!(format!("{}", s.kind()), "fp-kernel");
    }
}
