//! Metrics export for the experiment harness (`experiments --metrics`).
//!
//! Turns the computed [`Grid`] and [`Table3`] results into one
//! deterministic [`telemetry::Registry`] document: per-configuration
//! suite aggregates under `experiments.grid.{config}.*`, prefetcher
//! speedups under `experiments.table3.{prefetcher}.*` /
//! `experiments.table4.{prefetcher}.*`, and a per-improvement IPC-delta
//! **attribution table** — which counters moved when each improvement
//! toggled — appended as an `"attribution"` section.
//!
//! Everything here is a pure fold over outcome vectors in fixed index
//! order, so the emitted JSON is byte-identical across worker-thread
//! counts (the `--threads 1` vs `--threads 8` determinism guarantee).

use telemetry::{catalog, Registry};

use crate::figures::Grid;
use crate::runner::{geomean, TraceOutcome};
use crate::tables::Table3;

/// Per-configuration counter sums used by both the registry export and
/// the attribution table.
#[derive(Debug, Clone, Copy, Default)]
struct ConfigSums {
    instructions: u64,
    cycles: u64,
    branch_mispredicts: u64,
    direction_mispredicts: u64,
    target_mispredicts: u64,
    mispredict_resolve_cycles: u64,
    l1i_misses: u64,
    l1d_misses: u64,
    l2_misses: u64,
    llc_misses: u64,
    split_records: u64,
}

fn sums(outcomes: &[TraceOutcome]) -> ConfigSums {
    let mut s = ConfigSums::default();
    for o in outcomes {
        s.instructions += o.report.instructions;
        s.cycles += o.report.cycles;
        s.branch_mispredicts += o.report.branches.total_mispredicts();
        s.direction_mispredicts += o.report.branches.direction_mispredicts;
        s.target_mispredicts += o.report.branches.target_mispredicts;
        s.mispredict_resolve_cycles += o.report.branches.mispredict_resolve_cycles;
        s.l1i_misses += o.report.l1i.demand_misses;
        s.l1d_misses += o.report.l1d.demand_misses;
        s.l2_misses += o.report.l2.demand_misses;
        s.llc_misses += o.report.llc.demand_misses;
        s.split_records +=
            o.conversion.output_records.saturating_sub(o.conversion.input_instructions);
    }
    s
}

fn geomean_ipc(outcomes: &[TraceOutcome]) -> f64 {
    geomean(&outcomes.iter().map(|o| o.report.ipc()).collect::<Vec<_>>())
}

/// Registers the grid's per-configuration aggregates under
/// `experiments.grid.*` (the `No_imp` baseline plus every improvement
/// configuration, in grid order).
pub fn export_grid(grid: &Grid, registry: &mut Registry) {
    registry.counter(&catalog::EXP_GRID_TRACES, grid.baseline.len() as u64);
    registry.counter(&catalog::EXP_GRID_CONFIGS, grid.runs.len() as u64 + 1);
    let base_geo = geomean_ipc(&grid.baseline);
    let mut export_config = |label: &str, outcomes: &[TraceOutcome]| {
        let geo = geomean_ipc(outcomes);
        let s = sums(outcomes);
        registry.gauge_at(&catalog::EXP_GRID_GEOMEAN_IPC, label, geo);
        registry.gauge_at(&catalog::EXP_GRID_IPC_DELTA, label, (geo / base_geo - 1.0) * 100.0);
        registry.counter_at(&catalog::EXP_GRID_INSTRUCTIONS, label, s.instructions);
        registry.counter_at(&catalog::EXP_GRID_CYCLES, label, s.cycles);
        registry.counter_at(&catalog::EXP_GRID_BRANCH_MISPREDICTS, label, s.branch_mispredicts);
        registry.counter_at(
            &catalog::EXP_GRID_DIRECTION_MISPREDICTS,
            label,
            s.direction_mispredicts,
        );
        registry.counter_at(&catalog::EXP_GRID_TARGET_MISPREDICTS, label, s.target_mispredicts);
        registry.counter_at(
            &catalog::EXP_GRID_MISPREDICT_RESOLVE_CYCLES,
            label,
            s.mispredict_resolve_cycles,
        );
        registry.counter_at(&catalog::EXP_GRID_L1I_MISSES, label, s.l1i_misses);
        registry.counter_at(&catalog::EXP_GRID_L1D_MISSES, label, s.l1d_misses);
        registry.counter_at(&catalog::EXP_GRID_L2_MISSES, label, s.l2_misses);
        registry.counter_at(&catalog::EXP_GRID_LLC_MISSES, label, s.llc_misses);
        registry.counter_at(&catalog::EXP_GRID_SPLIT_RECORDS, label, s.split_records);
    };
    export_config("No_imp", &grid.baseline);
    for (label, _, outcomes) in &grid.runs {
        export_config(label, outcomes);
    }
}

/// Registers one ranking's geomean speedups per prefetcher. `table` is
/// 3 for the IPC-1 core study, 4 for the decoupled-front-end extension.
///
/// # Panics
///
/// Panics if `table` is neither 3 nor 4.
pub fn export_table3(t: &Table3, table: u8, registry: &mut Registry) {
    let (competition, fixed) = match table {
        3 => (&catalog::EXP_TABLE3_SPEEDUP_COMPETITION, &catalog::EXP_TABLE3_SPEEDUP_FIXED),
        4 => (&catalog::EXP_TABLE4_SPEEDUP_COMPETITION, &catalog::EXP_TABLE4_SPEEDUP_FIXED),
        other => panic!("no table {other} in the catalog"),
    };
    for e in &t.competition {
        registry.gauge_at(competition, &e.prefetcher, e.speedup);
    }
    for e in &t.fixed {
        registry.gauge_at(fixed, &e.prefetcher, e.speedup);
    }
}

/// One row of the per-improvement IPC-delta attribution table: the
/// geomean-IPC effect of one configuration, alongside the counters that
/// moved versus the `No_imp` baseline.
///
/// The paper's Figure 1 story reads straight off these columns: the
/// memory improvements move cache/record counters, while `flag-reg` and
/// `branch-regs` leave miss counts untouched and instead inflate
/// [`mispredict_resolve_cycle_delta`](Self::mispredict_resolve_cycle_delta)
/// — mispredicted branches resolving later.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Configuration label (grid order).
    pub config: String,
    /// Geomean-IPC variation versus `No_imp`, percent.
    pub ipc_delta_pct: f64,
    /// Input instructions the configuration's improvements rewrote,
    /// summed across the suite.
    pub rewrites: u64,
    /// Core-cycle delta versus baseline (suite sum).
    pub cycle_delta: i64,
    /// Branch-misprediction-count delta (direction or target).
    pub branch_mispredict_delta: i64,
    /// Direction-only misprediction delta.
    pub direction_mispredict_delta: i64,
    /// Target-only misprediction delta.
    pub target_mispredict_delta: i64,
    /// Delta of dispatch-to-resolve cycles of mispredicted branches —
    /// the exposed misprediction penalty.
    pub mispredict_resolve_cycle_delta: i64,
    /// L1I demand-miss delta.
    pub l1i_miss_delta: i64,
    /// L1D demand-miss delta.
    pub l1d_miss_delta: i64,
    /// LLC demand-miss delta.
    pub llc_miss_delta: i64,
    /// Delta of records emitted beyond the input instruction count
    /// (base-update splitting).
    pub split_record_delta: i64,
}

fn delta(a: u64, b: u64) -> i64 {
    a as i64 - b as i64
}

/// Computes the attribution table: one row per grid configuration, each
/// comparing that configuration's suite-summed counters to `No_imp`.
pub fn attribution(grid: &Grid) -> Vec<AttributionRow> {
    let base_geo = geomean_ipc(&grid.baseline);
    let base = sums(&grid.baseline);
    grid.runs
        .iter()
        .map(|(label, imps, outcomes)| {
            let s = sums(outcomes);
            let rewrites = outcomes
                .iter()
                .map(|o| imps.iter().map(|i| o.conversion.rewrites(i)).sum::<u64>())
                .sum();
            AttributionRow {
                config: label.clone(),
                ipc_delta_pct: (geomean_ipc(outcomes) / base_geo - 1.0) * 100.0,
                rewrites,
                cycle_delta: delta(s.cycles, base.cycles),
                branch_mispredict_delta: delta(s.branch_mispredicts, base.branch_mispredicts),
                direction_mispredict_delta: delta(
                    s.direction_mispredicts,
                    base.direction_mispredicts,
                ),
                target_mispredict_delta: delta(s.target_mispredicts, base.target_mispredicts),
                mispredict_resolve_cycle_delta: delta(
                    s.mispredict_resolve_cycles,
                    base.mispredict_resolve_cycles,
                ),
                l1i_miss_delta: delta(s.l1i_misses, base.l1i_misses),
                l1d_miss_delta: delta(s.l1d_misses, base.l1d_misses),
                llc_miss_delta: delta(s.llc_misses, base.llc_misses),
                split_record_delta: delta(s.split_records, base.split_records),
            }
        })
        .collect()
}

/// Renders the attribution table as text (printed with `--stats` when
/// the grid was computed).
pub fn render_attribution(rows: &[AttributionRow]) -> String {
    let mut out =
        String::from("Attribution: which counters moved per improvement configuration vs No_imp\n");
    out.push_str(
        "  config             IPC%   rewrites  mpred-penalty-cyc      mispred   l1i-miss \
         \x20 l1d-miss    splits\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<14} {:+7.2}% {:>10} {:>18} {:>12} {:>10} {:>10} {:>9}\n",
            r.config,
            r.ipc_delta_pct,
            r.rewrites,
            r.mispredict_resolve_cycle_delta,
            r.branch_mispredict_delta,
            r.l1i_miss_delta,
            r.l1d_miss_delta,
            r.split_record_delta,
        ));
    }
    out
}

/// The `--metrics` document: the registry export plus, when the grid
/// was computed, its attribution table as an `"attribution"` section,
/// one object per row with keys in a fixed order.
pub fn document(registry: &Registry, attribution: Option<&[AttributionRow]>) -> String {
    registry.to_json_with(|doc| {
        let Some(rows) = attribution else { return };
        doc.objects("attribution", rows, |row, r| {
            row.str("config", &r.config)
                .f64("ipc_delta_pct", r.ipc_delta_pct)
                .u64("rewrites", r.rewrites)
                .i64("cycle_delta", r.cycle_delta)
                .i64("branch_mispredict_delta", r.branch_mispredict_delta)
                .i64("direction_mispredict_delta", r.direction_mispredict_delta)
                .i64("target_mispredict_delta", r.target_mispredict_delta)
                .i64("mispredict_resolve_cycle_delta", r.mispredict_resolve_cycle_delta)
                .i64("l1i_miss_delta", r.l1i_miss_delta)
                .i64("l1d_miss_delta", r.l1d_miss_delta)
                .i64("llc_miss_delta", r.llc_miss_delta)
                .i64("split_record_delta", r.split_record_delta);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Grid;
    use crate::runner::{set_threads, ExperimentScale, OVERRIDE_LOCK};
    use sim::CoreConfig;
    use std::sync::PoisonError;
    use workloads::cvp1_public_suite;

    fn small_grid(threads: usize) -> Grid {
        let specs = &cvp1_public_suite()[..4];
        set_threads(threads);
        let (grid, _) =
            Grid::compute_on_specs(specs, &CoreConfig::test_small(), ExperimentScale::smoke());
        set_threads(0);
        grid
    }

    #[test]
    fn metrics_json_is_byte_identical_across_thread_counts() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let metrics_of = |grid: Grid| {
            let mut registry = Registry::new();
            export_grid(&grid, &mut registry);
            document(&registry, Some(&attribution(&grid)))
        };
        let serial = metrics_of(small_grid(1));
        let parallel = metrics_of(small_grid(8));
        assert_eq!(serial, parallel, "metrics must not depend on the schedule");
        assert!(serial.starts_with("{\"schema\":\"trace-rebase-metrics/v1\""));
        assert!(serial.contains("\"experiments.grid.No_imp.geomean_ipc\""), "{serial}");
        assert!(serial.contains(",\"attribution\":[{"), "{serial}");
    }

    #[test]
    fn flag_reg_attribution_moves_branch_penalty_not_caches() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let grid = small_grid(0);
        let rows = attribution(&grid);
        let flag = rows.iter().find(|r| r.config == "flag-reg").expect("flag-reg row");
        assert!(flag.rewrites > 0, "flag-reg must rewrite ALU destinations");
        assert!(
            flag.mispredict_resolve_cycle_delta > 0,
            "flag dependencies must delay mispredicted-branch resolution: {flag:?}"
        );
        assert_eq!(flag.l1i_miss_delta, 0, "flag-reg does not touch the caches: {flag:?}");
        assert_eq!(flag.l1d_miss_delta, 0, "flag-reg does not touch the caches: {flag:?}");
        assert_eq!(flag.llc_miss_delta, 0, "flag-reg does not touch the caches: {flag:?}");
        assert_eq!(flag.split_record_delta, 0, "flag-reg does not split records: {flag:?}");

        let base_update = rows.iter().find(|r| r.config == "base-update").expect("row");
        assert!(base_update.split_record_delta > 0, "base-update splits records");
    }

    #[test]
    fn grid_export_registers_every_configuration() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let grid = small_grid(0);
        let mut registry = Registry::new();
        export_grid(&grid, &mut registry);
        assert_eq!(registry.counter_value("experiments.grid.traces"), 4);
        assert_eq!(registry.counter_value("experiments.grid.configs"), 10);
        for config in ["No_imp", "flag-reg", "All_imps"] {
            assert!(
                registry.get(&format!("experiments.grid.{config}.geomean_ipc")).is_some(),
                "missing {config}"
            );
        }
        let text = render_attribution(&attribution(&grid));
        assert!(text.contains("flag-reg"), "{text}");
    }
}
