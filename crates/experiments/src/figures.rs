//! Figures 1–5: the CVP-1 public-suite improvement study.
//!
//! All five figures derive from one [`Grid`]: every public trace
//! converted under every improvement configuration and simulated on the
//! paper's main core. Compute the grid once and feed it to each
//! `figure*` function.

use std::time::Instant;

use converter::{Improvement, ImprovementSet};
use sim::CoreConfig;
use workloads::{cvp1_public_suite, TraceSpec};

use crate::cache::ArtifactCache;
use crate::runner::{
    geomean, parallel_cells, thread_count, ExperimentScale, SchedulerReport, SharedRunner,
    TraceOutcome,
};

/// The improvement configurations of Figures 1 and 2, in the paper's
/// plotting order.
pub fn figure_configurations() -> Vec<(String, ImprovementSet)> {
    vec![
        ("base-update".into(), ImprovementSet::only(Improvement::BaseUpdate)),
        ("mem-footprint".into(), ImprovementSet::only(Improvement::MemFootprint)),
        ("mem-regs".into(), ImprovementSet::only(Improvement::MemRegs)),
        ("Memory_imps".into(), ImprovementSet::memory()),
        ("call-stack".into(), ImprovementSet::only(Improvement::CallStack)),
        ("branch-regs".into(), ImprovementSet::only(Improvement::BranchRegs)),
        ("flag-reg".into(), ImprovementSet::only(Improvement::FlagReg)),
        ("Branch_imps".into(), ImprovementSet::branch()),
        ("All_imps".into(), ImprovementSet::all()),
    ]
}

/// Every public trace converted and simulated under every configuration.
#[derive(Debug)]
pub struct Grid {
    /// Baseline (`No_imp`) outcome per trace.
    pub baseline: Vec<TraceOutcome>,
    /// One entry per configuration: label, set, per-trace outcomes
    /// (ordered as `baseline`).
    pub runs: Vec<(String, ImprovementSet, Vec<TraceOutcome>)>,
}

impl Grid {
    /// Runs the whole study at `scale` on the paper's main core.
    pub fn compute(scale: ExperimentScale) -> Grid {
        Grid::compute_on(scale, &CoreConfig::iiswc_main())
    }

    /// Runs the whole study on an explicit core configuration (used by
    /// the ablation benches).
    pub fn compute_on(scale: ExperimentScale, core: &CoreConfig) -> Grid {
        Grid::compute_with_report(scale, core).0
    }

    /// Runs the whole study, also returning the scheduler's timing and
    /// cache report (`experiments --stats` / `BENCH_experiments.json`).
    pub fn compute_with_report(
        scale: ExperimentScale,
        core: &CoreConfig,
    ) -> (Grid, SchedulerReport) {
        Grid::compute_on_specs(&cvp1_public_suite(), core, scale)
    }

    /// The scheduled grid over an explicit trace list.
    ///
    /// All `specs.len() × 10` (trace × config) cells go into one
    /// flattened work-stealing queue — no per-config barrier — ordered
    /// trace-major so each trace generates once, is shared by the 10
    /// configs converting and simulating it, and is evicted once later
    /// traces fill the cache's budget.
    pub fn compute_on_specs(
        specs: &[TraceSpec],
        core: &CoreConfig,
        scale: ExperimentScale,
    ) -> (Grid, SchedulerReport) {
        let mut configs = vec![("No_imp".to_string(), ImprovementSet::none())];
        configs.extend(figure_configurations());
        let nconf = configs.len();
        let jobs = specs.len() * nconf;
        let cache = ArtifactCache::new();
        let runner = SharedRunner { cache: &cache, core, scale };

        let start = Instant::now();
        let outcomes = parallel_cells(jobs, |i| {
            let spec = &specs[i / nconf];
            let (_, imps) = &configs[i % nconf];
            runner.simulate(spec, *imps, 0, &[None]).remove(0)
        });
        let wall = start.elapsed();

        let mut baseline = Vec::with_capacity(specs.len());
        let mut runs: Vec<(String, ImprovementSet, Vec<TraceOutcome>)> = configs[1..]
            .iter()
            .map(|(label, imps)| (label.clone(), *imps, Vec::with_capacity(specs.len())))
            .collect();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match i % nconf {
                0 => baseline.push(outcome),
                c => runs[c - 1].2.push(outcome),
            }
        }
        let report = SchedulerReport {
            label: "grid".into(),
            threads: thread_count().min(jobs.max(1)),
            jobs,
            wall,
            counters: cache.counters(),
        };
        (Grid { baseline, runs }, report)
    }

    /// Per-trace IPC ratios (config / baseline) for configuration
    /// `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label` names no configuration in the grid.
    pub fn ipc_ratios(&self, label: &str) -> Vec<f64> {
        let (_, _, outcomes) = self
            .runs
            .iter()
            .find(|(l, _, _)| l == label)
            .unwrap_or_else(|| panic!("unknown configuration {label:?}"));
        outcomes.iter().zip(&self.baseline).map(|(a, b)| a.report.ipc() / b.report.ipc()).collect()
    }
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// One bar of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Configuration label.
    pub label: String,
    /// IPC variation of the geometric-mean IPC versus `No_imp`, percent.
    pub geomean_ipc_variation_pct: f64,
}

/// Figure 1: IPC variation of the geometric mean IPC across the public
/// traces for each improvement configuration.
pub fn figure1(grid: &Grid) -> Vec<Fig1Row> {
    let base: Vec<f64> = grid.baseline.iter().map(|o| o.report.ipc()).collect();
    let g0 = geomean(&base);
    grid.runs
        .iter()
        .map(|(label, _, outcomes)| {
            let ipcs: Vec<f64> = outcomes.iter().map(|o| o.report.ipc()).collect();
            Fig1Row {
                label: label.clone(),
                geomean_ipc_variation_pct: (geomean(&ipcs) / g0 - 1.0) * 100.0,
            }
        })
        .collect()
}

/// Renders Figure 1 as the text the artifact's `results_fig1.sh` prints.
pub fn render_figure1(rows: &[Fig1Row]) -> String {
    let mut out = String::from("Figure 1: IPC variation of geomean IPC vs No_imp (CVP-1 public)\n");
    for r in rows {
        out.push_str(&format!("  {:<14} {:+7.2}%\n", r.label, r.geomean_ipc_variation_pct));
    }
    out
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// One curve of Figure 2: per-trace IPC variation, sorted from highest
/// increase to highest decrease (the paper's presentation).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Series {
    /// Configuration label.
    pub label: String,
    /// Sorted IPC variations, percent.
    pub sorted_variations_pct: Vec<f64>,
    /// How many traces changed by more than 5% in either direction.
    pub traces_beyond_5pct: usize,
}

/// Figure 2: per-trace IPC variation for each configuration.
pub fn figure2(grid: &Grid) -> Vec<Fig2Series> {
    grid.runs
        .iter()
        .map(|(label, _, _)| {
            let mut v: Vec<f64> =
                grid.ipc_ratios(label).iter().map(|r| (r - 1.0) * 100.0).collect();
            v.sort_by(|a, b| b.partial_cmp(a).expect("IPC ratios are finite"));
            let beyond = v.iter().filter(|x| x.abs() > 5.0).count();
            Fig2Series {
                label: label.clone(),
                sorted_variations_pct: v,
                traces_beyond_5pct: beyond,
            }
        })
        .collect()
}

/// Renders Figure 2 as quantile summaries per configuration.
pub fn render_figure2(series: &[Fig2Series]) -> String {
    let mut out =
        String::from("Figure 2: per-trace IPC variation vs No_imp, sorted (quantile summary)\n");
    out.push_str("  config            best      p25   median      p75    worst  |>5%|\n");
    for s in series {
        let v = &s.sorted_variations_pct;
        let q = |f: f64| v[((v.len() - 1) as f64 * f) as usize];
        out.push_str(&format!(
            "  {:<14} {:+7.2}% {:+7.2}% {:+7.2}% {:+7.2}% {:+7.2}%  {:>4}\n",
            s.label,
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            s.traces_beyond_5pct
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// One trace of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Trace name.
    pub trace: String,
    /// Baseline direction-misprediction MPKI (the sort key and right
    /// axis). The paper plots overall branch MPKI; we use the direction
    /// component because the synthetic servers' cold-BTB *target* misses
    /// inflate overall MPKI without creating the late-resolving branches
    /// the figure is about (see EXPERIMENTS.md).
    pub branch_mpki: f64,
    /// Slowdown (positive = slower) from `branch-regs`, percent.
    pub slowdown_branch_regs_pct: f64,
    /// Slowdown from `flag-reg`, percent.
    pub slowdown_flag_reg_pct: f64,
}

/// Figure 3: slowdown of `branch-regs` and `flag-reg` versus baseline
/// branch MPKI, sorted by increasing MPKI.
pub fn figure3(grid: &Grid) -> Vec<Fig3Row> {
    let br = grid.ipc_ratios("branch-regs");
    let fr = grid.ipc_ratios("flag-reg");
    let mut rows: Vec<Fig3Row> = grid
        .baseline
        .iter()
        .zip(br.iter().zip(&fr))
        .map(|(b, (r_br, r_fr))| Fig3Row {
            trace: b.trace.clone(),
            branch_mpki: b.report.direction_mpki(),
            slowdown_branch_regs_pct: (1.0 - r_br) * 100.0,
            slowdown_flag_reg_pct: (1.0 - r_fr) * 100.0,
        })
        .collect();
    rows.sort_by(|a, b| a.branch_mpki.partial_cmp(&b.branch_mpki).expect("MPKI is finite"));
    rows
}

/// Renders Figure 3 rows.
pub fn render_figure3(rows: &[Fig3Row]) -> String {
    let mut out = String::from(
        "Figure 3: slowdown of branch-regs / flag-reg, traces sorted by direction MPKI\n",
    );
    out.push_str("  trace            dirMPKI   branch-regs   flag-reg\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<17} {:>6.2}      {:+7.2}%   {:+7.2}%\n",
            r.trace, r.branch_mpki, r.slowdown_branch_regs_pct, r.slowdown_flag_reg_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// One trace of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Trace name.
    pub trace: String,
    /// Percentage of instructions that are base-updating loads (the
    /// sort key and right axis).
    pub base_update_load_pct: f64,
    /// Speedup (positive = faster) from `base-update`, percent.
    pub speedup_pct: f64,
}

/// Figure 4: speedup of `base-update` versus the fraction of loads
/// performing base updates, sorted by increasing fraction.
pub fn figure4(grid: &Grid) -> Vec<Fig4Row> {
    let ratios = grid.ipc_ratios("base-update");
    let mut rows: Vec<Fig4Row> = grid
        .baseline
        .iter()
        .zip(&ratios)
        .map(|(b, r)| Fig4Row {
            trace: b.trace.clone(),
            base_update_load_pct: 100.0 * b.conversion.base_update_load_fraction(),
            speedup_pct: (r - 1.0) * 100.0,
        })
        .collect();
    rows.sort_by(|a, b| {
        a.base_update_load_pct.partial_cmp(&b.base_update_load_pct).expect("finite")
    });
    rows
}

/// Renders Figure 4 rows.
pub fn render_figure4(rows: &[Fig4Row]) -> String {
    let mut out =
        String::from("Figure 4: base-update speedup, traces sorted by % base-updating loads\n");
    out.push_str("  trace             bu-loads%   speedup\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<17} {:>8.2}   {:+7.2}%\n",
            r.trace, r.base_update_load_pct, r.speedup_pct
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One trace of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Trace name.
    pub trace: String,
    /// Return (RAS) MPKI with the original converter.
    pub ras_mpki_original: f64,
    /// Return MPKI with `call-stack` applied.
    pub ras_mpki_improved: f64,
    /// Speedup from `call-stack`, percent.
    pub speedup_pct: f64,
}

/// Figure 5: the `call-stack` fix — return MPKI before/after and the
/// resulting speedup, for the traces with the highest original return
/// MPKI (sorted descending, top 20 as in the paper's subset).
pub fn figure5(grid: &Grid) -> Vec<Fig5Row> {
    let ratios = grid.ipc_ratios("call-stack");
    let (_, _, improved) = grid
        .runs
        .iter()
        .find(|(l, _, _)| l == "call-stack")
        .expect("call-stack configuration exists");
    let mut rows: Vec<Fig5Row> = grid
        .baseline
        .iter()
        .zip(improved)
        .zip(&ratios)
        .map(|((b, i), r)| Fig5Row {
            trace: b.trace.clone(),
            ras_mpki_original: b.report.return_mpki(),
            ras_mpki_improved: i.report.return_mpki(),
            speedup_pct: (r - 1.0) * 100.0,
        })
        .collect();
    rows.sort_by(|a, b| b.ras_mpki_original.partial_cmp(&a.ras_mpki_original).expect("finite"));
    rows.truncate(20);
    rows
}

/// Renders Figure 5 rows.
pub fn render_figure5(rows: &[Fig5Row]) -> String {
    let mut out =
        String::from("Figure 5: call-stack fix — return MPKI original/improved and speedup\n");
    out.push_str("  trace             RAS MPKI orig   RAS MPKI fixed   speedup\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<17} {:>12.3}   {:>13.3}   {:+7.2}%\n",
            r.trace, r.ras_mpki_original, r.ras_mpki_improved, r.speedup_pct
        ));
    }
    out
}
