use std::fmt;

use crate::improvements::{Improvement, ImprovementSet};

/// Counters accumulated while converting one trace.
///
/// These back the paper's §4.2 discussion (how many instructions each
/// improvement touches) and the x-axes of Figures 3–5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// CVP-1 instructions consumed.
    pub input_instructions: u64,
    /// ChampSim records emitted (larger than the input when `base-update`
    /// splits instructions).
    pub output_records: u64,
    /// Memory instructions with no destination register in the CVP-1
    /// trace (prefetch loads, plain stores) — where the original converter
    /// invents an `X0` destination.
    pub memory_no_destination: u64,
    /// Loads with more than one destination register in the CVP-1 trace —
    /// where the original converter drops all but the first.
    pub loads_multiple_destinations: u64,
    /// Loads inferred to perform a base-register update.
    pub base_update_loads: u64,
    /// Stores inferred to perform a base-register update.
    pub base_update_stores: u64,
    /// Of the base updates, how many were pre-indexing.
    pub pre_index: u64,
    /// Of the base updates, how many were post-indexing.
    pub post_index: u64,
    /// Memory accesses whose footprint spans two cachelines.
    pub two_cacheline_accesses: u64,
    /// 64-byte stores treated as `DC ZVA` (cacheline-aligned zeroing).
    pub dc_zva_stores: u64,
    /// Unconditional branches that read **and** write X30 — misclassified
    /// as returns by the original converter, fixed by `call-stack`.
    pub x30_read_write_branches: u64,
    /// Branches emitted as returns.
    pub returns_emitted: u64,
    /// Branches emitted as calls (direct or indirect).
    pub calls_emitted: u64,
    /// Conditional branches that carried a real source register (the ones
    /// `branch-regs` rewires away from the flags register).
    pub conditional_with_sources: u64,
    /// ALU/FP instructions that received the flags register as destination
    /// under `flag-reg`.
    pub flag_destinations_added: u64,
    /// Calls whose X30 destination could not be conveyed (ChampSim's
    /// two-destination limit; §3.2.2's known limitation).
    pub x30_destinations_dropped: u64,
    /// Source registers dropped because a record ran out of slots.
    pub source_registers_dropped: u64,
}

impl ConversionStats {
    /// Creates zeroed statistics.
    pub fn new() -> ConversionStats {
        ConversionStats::default()
    }

    /// All loads and stores inferred to update their base register.
    pub fn base_update_total(&self) -> u64 {
        self.base_update_loads + self.base_update_stores
    }

    /// Fraction of input instructions that are base-updating loads — the
    /// x-axis of the paper's Figure 4.
    pub fn base_update_load_fraction(&self) -> f64 {
        fraction(self.base_update_loads, self.input_instructions)
    }

    /// Fraction of input instructions that access two cachelines (the
    /// paper reports 0.3% on the public suite).
    pub fn two_cacheline_fraction(&self) -> f64 {
        fraction(self.two_cacheline_accesses, self.input_instructions)
    }

    /// Fraction of input instructions that are memory operations without
    /// a destination (the paper reports 9.4%).
    pub fn memory_no_destination_fraction(&self) -> f64 {
        fraction(self.memory_no_destination, self.input_instructions)
    }

    /// Fraction of input instructions that are multi-destination loads
    /// (the paper reports 5.2%).
    pub fn loads_multiple_destinations_fraction(&self) -> f64 {
        fraction(self.loads_multiple_destinations, self.input_instructions)
    }

    /// How many input instructions `improvement` rewrites, derived from
    /// the per-phenomenon counters (the paper's §4.2 "how much each
    /// improvement touches" question).
    pub fn rewrites(&self, improvement: Improvement) -> u64 {
        match improvement {
            Improvement::MemRegs => self.memory_no_destination + self.loads_multiple_destinations,
            Improvement::BaseUpdate => self.base_update_total(),
            Improvement::MemFootprint => self.two_cacheline_accesses + self.dc_zva_stores,
            Improvement::CallStack => self.x30_read_write_branches,
            Improvement::BranchRegs => self.conditional_with_sources,
            Improvement::FlagReg => self.flag_destinations_added,
        }
    }

    /// Registers every counter under `converter.*`, plus one
    /// `converter.improvement.{name}.rewrites` instance per improvement
    /// in `enabled`.
    pub fn export(&self, enabled: ImprovementSet, registry: &mut telemetry::Registry) {
        use telemetry::catalog;
        registry.counter(&catalog::CONVERTER_INPUT_INSTRUCTIONS, self.input_instructions);
        registry.counter(&catalog::CONVERTER_OUTPUT_RECORDS, self.output_records);
        let expansion = if self.input_instructions == 0 {
            0.0
        } else {
            self.output_records as f64 / self.input_instructions as f64
        };
        registry.gauge(&catalog::CONVERTER_EXPANSION_RATIO, expansion);
        registry.counter(&catalog::CONVERTER_MEMORY_NO_DESTINATION, self.memory_no_destination);
        registry.counter(&catalog::CONVERTER_LOADS_MULTI_DEST, self.loads_multiple_destinations);
        registry.counter(&catalog::CONVERTER_BASE_UPDATE_LOADS, self.base_update_loads);
        registry.counter(&catalog::CONVERTER_BASE_UPDATE_STORES, self.base_update_stores);
        registry.counter(&catalog::CONVERTER_PRE_INDEX, self.pre_index);
        registry.counter(&catalog::CONVERTER_POST_INDEX, self.post_index);
        registry.counter(&catalog::CONVERTER_TWO_CACHELINE, self.two_cacheline_accesses);
        registry.counter(&catalog::CONVERTER_DC_ZVA_STORES, self.dc_zva_stores);
        registry.counter(&catalog::CONVERTER_X30_READ_WRITE, self.x30_read_write_branches);
        registry.counter(&catalog::CONVERTER_RETURNS_EMITTED, self.returns_emitted);
        registry.counter(&catalog::CONVERTER_CALLS_EMITTED, self.calls_emitted);
        registry.counter(&catalog::CONVERTER_COND_WITH_SOURCES, self.conditional_with_sources);
        registry.counter(&catalog::CONVERTER_FLAG_DESTS_ADDED, self.flag_destinations_added);
        registry.counter(&catalog::CONVERTER_X30_DESTS_DROPPED, self.x30_destinations_dropped);
        registry.counter(&catalog::CONVERTER_SRC_REGS_DROPPED, self.source_registers_dropped);
        for improvement in enabled.iter() {
            registry.counter_at(
                &catalog::CONVERTER_IMPROVEMENT_REWRITES,
                improvement.name(),
                self.rewrites(improvement),
            );
        }
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &ConversionStats) {
        self.input_instructions += other.input_instructions;
        self.output_records += other.output_records;
        self.memory_no_destination += other.memory_no_destination;
        self.loads_multiple_destinations += other.loads_multiple_destinations;
        self.base_update_loads += other.base_update_loads;
        self.base_update_stores += other.base_update_stores;
        self.pre_index += other.pre_index;
        self.post_index += other.post_index;
        self.two_cacheline_accesses += other.two_cacheline_accesses;
        self.dc_zva_stores += other.dc_zva_stores;
        self.x30_read_write_branches += other.x30_read_write_branches;
        self.returns_emitted += other.returns_emitted;
        self.calls_emitted += other.calls_emitted;
        self.conditional_with_sources += other.conditional_with_sources;
        self.flag_destinations_added += other.flag_destinations_added;
        self.x30_destinations_dropped += other.x30_destinations_dropped;
        self.source_registers_dropped += other.source_registers_dropped;
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ConversionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input instructions        {:>12}", self.input_instructions)?;
        writeln!(f, "output records            {:>12}", self.output_records)?;
        writeln!(
            f,
            "memory w/o destination    {:>12} ({})",
            self.memory_no_destination,
            telemetry::format::percent(self.memory_no_destination_fraction())
        )?;
        writeln!(
            f,
            "multi-destination loads   {:>12} ({})",
            self.loads_multiple_destinations,
            telemetry::format::percent(self.loads_multiple_destinations_fraction())
        )?;
        writeln!(
            f,
            "base-update loads/stores  {:>12}/{} (pre {}, post {})",
            self.base_update_loads, self.base_update_stores, self.pre_index, self.post_index
        )?;
        writeln!(
            f,
            "two-cacheline accesses    {:>12} ({})",
            self.two_cacheline_accesses,
            telemetry::format::percent(self.two_cacheline_fraction())
        )?;
        writeln!(f, "dc-zva stores             {:>12}", self.dc_zva_stores)?;
        writeln!(f, "x30 read+write branches   {:>12}", self.x30_read_write_branches)?;
        writeln!(
            f,
            "calls/returns emitted     {:>12}/{}",
            self.calls_emitted, self.returns_emitted
        )?;
        writeln!(f, "cond branches w/ sources  {:>12}", self.conditional_with_sources)?;
        writeln!(f, "flag destinations added   {:>12}", self.flag_destinations_added)?;
        write!(f, "x30 call dests dropped    {:>12}", self.x30_destinations_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_zero_denominator() {
        let s = ConversionStats::new();
        assert_eq!(s.base_update_load_fraction(), 0.0);
        assert_eq!(s.two_cacheline_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a =
            ConversionStats { input_instructions: 10, base_update_loads: 2, ..Default::default() };
        let b =
            ConversionStats { input_instructions: 30, base_update_loads: 6, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.input_instructions, 40);
        assert_eq!(a.base_update_loads, 8);
        assert!((a.base_update_load_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(ConversionStats::new().to_string().contains("input instructions"));
    }

    #[test]
    fn export_registers_rewrites_per_enabled_improvement() {
        let stats = ConversionStats {
            input_instructions: 100,
            output_records: 110,
            base_update_loads: 7,
            base_update_stores: 3,
            flag_destinations_added: 5,
            ..Default::default()
        };
        let enabled = ImprovementSet::only(Improvement::BaseUpdate).with(Improvement::FlagReg);
        let mut registry = telemetry::Registry::new();
        stats.export(enabled, &mut registry);
        assert_eq!(registry.counter_value("converter.improvement.base-update.rewrites"), 10);
        assert_eq!(registry.counter_value("converter.improvement.flag-reg.rewrites"), 5);
        assert!(registry.get("converter.improvement.mem-regs.rewrites").is_none());
        assert_eq!(registry.counter_value("converter.input_instructions"), 100);
    }
}
