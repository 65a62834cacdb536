use champsim_trace::BranchRules;
use memsys::HierarchyConfig;

/// Which conditional direction predictor the core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Bimodal table with the given entry count.
    Bimodal(usize),
    /// Gshare with the given entries and history bits.
    Gshare(usize, usize),
    /// TAGE-SC-L at a ~64KB budget (the paper's §4 front-end).
    Tage64kb,
    /// A small TAGE for fast tests and ablations.
    TageSmall,
    /// Hashed perceptron (ablation point between gshare and TAGE).
    Perceptron,
}

/// Which indirect-branch target predictor the core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndirectKind {
    /// ITTAGE at a ~64KB budget (the paper's §4 front-end).
    Ittage,
    /// The BTB's last-seen target only.
    LastTarget,
}

/// Core configuration.
///
/// The two presets reproduce the paper's setups; every knob is public so
/// ablation benches can vary them individually.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to execution per cycle.
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Front-end pipeline depth in cycles (fetch → dispatch); sets the
    /// base misprediction penalty.
    pub decode_latency: u64,
    /// Reorder buffer capacity.
    pub rob_size: usize,
    /// Maximum loads in flight.
    pub load_queue_size: usize,
    /// Maximum outstanding L1D *misses* (MSHRs): bounds memory-level
    /// parallelism independently of the load queue.
    pub l1d_mshrs: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return address stack depth.
    pub ras_size: usize,
    /// Conditional direction predictor.
    pub predictor: PredictorKind,
    /// Indirect target predictor.
    pub indirect: IndirectKind,
    /// Branch-type deduction rules (the paper patches ChampSim; §3.2.2).
    pub branch_rules: BranchRules,
    /// Decoupled front-end: run-ahead fetch hides predicted-path L1I
    /// misses up to `frontend_lookahead` cycles.
    pub decoupled_frontend: bool,
    /// Cycles of L1I miss latency the decoupled front-end can hide.
    pub frontend_lookahead: u64,
    /// Ideal branch-target prediction (the IPC-1 contest simulator):
    /// only conditional *direction* mispredictions cost anything.
    pub ideal_targets: bool,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
}

impl CoreConfig {
    /// The paper's main evaluation core (§4): decoupled front-end,
    /// 16K-entry BTB, 64KB TAGE-SC-L and ITTAGE, patched branch rules,
    /// ip-stride L1D + next-line L2 prefetching.
    pub fn iiswc_main() -> CoreConfig {
        CoreConfig {
            fetch_width: 6,
            dispatch_width: 6,
            issue_width: 6,
            retire_width: 6,
            decode_latency: 8,
            rob_size: 352,
            load_queue_size: 128,
            l1d_mshrs: 32,
            btb_entries: 16 * 1024,
            btb_ways: 8,
            ras_size: 64,
            predictor: PredictorKind::Tage64kb,
            indirect: IndirectKind::Ittage,
            branch_rules: BranchRules::Patched,
            decoupled_frontend: true,
            frontend_lookahead: 24,
            ideal_targets: false,
            hierarchy: HierarchyConfig::iiswc_main(),
        }
    }

    /// The IPC-1 contest core (§4.4): coupled front-end, ideal target
    /// prediction, no data prefetchers, instruction prefetcher plug-in.
    ///
    /// The paper runs its Table 3 study on this configuration **with**
    /// the §3.2.2 branch-identification patch applied, so the patched
    /// rules are used here too.
    pub fn ipc1() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            retire_width: 4,
            decode_latency: 6,
            rob_size: 256,
            load_queue_size: 72,
            l1d_mshrs: 16,
            btb_entries: 8 * 1024,
            btb_ways: 8,
            ras_size: 64,
            predictor: PredictorKind::Gshare(64 * 1024, 14),
            indirect: IndirectKind::LastTarget,
            branch_rules: BranchRules::Patched,
            decoupled_frontend: false,
            frontend_lookahead: 0,
            ideal_targets: true,
            hierarchy: HierarchyConfig::ipc1(),
        }
    }

    /// The named preset: `iiswc` ([`CoreConfig::iiswc_main`]) or
    /// `ipc1` ([`CoreConfig::ipc1`]); `None` for any other name.
    pub fn by_name(name: &str) -> Option<CoreConfig> {
        match name {
            "iiswc" => Some(CoreConfig::iiswc_main()),
            "ipc1" => Some(CoreConfig::ipc1()),
            _ => None,
        }
    }

    /// A scaled-down configuration for fast unit tests.
    pub fn test_small() -> CoreConfig {
        CoreConfig {
            predictor: PredictorKind::TageSmall,
            btb_entries: 512,
            btb_ways: 4,
            ..CoreConfig::iiswc_main()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says() {
        let main = CoreConfig::iiswc_main();
        let ipc1 = CoreConfig::ipc1();
        assert!(main.decoupled_frontend && !ipc1.decoupled_frontend);
        assert!(!main.ideal_targets && ipc1.ideal_targets);
        assert_eq!(main.branch_rules, BranchRules::Patched);
        assert!(main.hierarchy.l1d_ip_stride && !ipc1.hierarchy.l1d_ip_stride);
        assert_eq!(main.btb_entries, 16 * 1024);
    }

    #[test]
    fn presets_resolve_by_name() {
        let debug = |config: Option<CoreConfig>| format!("{config:?}");
        assert_eq!(debug(CoreConfig::by_name("iiswc")), debug(Some(CoreConfig::iiswc_main())));
        assert_eq!(debug(CoreConfig::by_name("ipc1")), debug(Some(CoreConfig::ipc1())));
        assert!(CoreConfig::by_name("zen5").is_none());
    }
}
