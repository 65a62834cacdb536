//! Regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--fig 1|2|3|4|5] [--table 1|2|3|4] [--stats] [--all]
//!             [--scale smoke|test|paper] [--csv <dir>] [--threads <n>]
//!             [--metrics <path>]
//! ```
//!
//! With no selection flags, everything is regenerated (`--all`). The
//! `paper` scale (default) runs each synthetic trace at 120k
//! instructions; `test` runs a quick sanity pass and `smoke` an even
//! smaller CI pass. Worker threads default to the machine's parallelism
//! (`--threads` / `EXPERIMENTS_THREADS` override). Scheduled runs write
//! their timing + cache reports to `BENCH_experiments.json`, replacing
//! the file; `--stats` also prints the reports plus the
//! per-improvement attribution table.
//! `--metrics <path>` writes the telemetry document (see METRICS.md):
//! per-configuration grid aggregates, table 3/4 speedups, and the
//! attribution table, byte-identical across `--threads` values.
//!
//! Usage errors exit 2 with the usage line; so does a `--metrics`,
//! `BENCH_experiments.json` or directory path that cannot be written,
//! with one line naming the path.

use std::path::PathBuf;

use experiments::bench::{Cli, Exit};
use experiments::figures::{
    figure1, figure2, figure3, figure4, figure5, render_figure1, render_figure2, render_figure3,
    render_figure4, render_figure5, Grid,
};
use experiments::runner::{reports_to_json, ExperimentScale, SchedulerReport};
use experiments::tables::{
    render_section42, render_table1, render_table2, render_table3, render_table4, section42,
    table1, table2, table3_with_report, table4_decoupled_with_report,
};

const CLI: Cli = Cli {
    name: "experiments",
    usage: "experiments [--fig 1|2|3|4|5] [--table 1|2|3|4] [--stats] [--all] \
            [--scale smoke|test|paper] [--csv <dir>] [--threads <n>] [--metrics <path>]",
};

/// What the command line asks for.
#[derive(Default)]
struct Selection {
    figs: Vec<u8>,
    tables: Vec<u8>,
    stats: bool,
    scale: Option<ExperimentScale>,
    threads: Option<usize>,
    csv_dir: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
}

/// Parses the arguments after the program name. No selection flag, or
/// `--all`, selects everything; every error names its flag.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Selection, String> {
    let mut s = Selection::default();
    let mut all = false;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--fig" => select(&mut s.figs, "--fig", value("a number")?, 5)?,
            "--table" => select(&mut s.tables, "--table", value("a number")?, 4)?,
            "--stats" => s.stats = true,
            "--all" => all = true,
            "--csv" => s.csv_dir = Some(value("a directory")?.into()),
            "--scale" => {
                let name = value("a value")?;
                let scale = ExperimentScale::from_name(&name).ok_or_else(|| {
                    format!("--scale must be `smoke`, `test` or `paper`, got {name:?}")
                })?;
                s.scale = Some(scale);
            }
            "--metrics" => s.metrics_path = Some(value("a path")?.into()),
            "--threads" => {
                let n = value("a positive number")?.parse().ok().filter(|n: &usize| *n > 0);
                s.threads = Some(n.ok_or("--threads needs a positive number")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if all || (s.figs.is_empty() && s.tables.is_empty() && !s.stats) {
        s.figs = vec![1, 2, 3, 4, 5];
        s.tables = vec![1, 2, 3, 4];
        s.stats = true;
    }
    Ok(s)
}

/// Parses and validates one `--fig`/`--table` operand: numeric, in
/// range, and not already selected.
fn select(seen: &mut Vec<u8>, flag: &str, raw: String, max: u8) -> Result<(), String> {
    let n: u8 = raw
        .parse()
        .ok()
        .filter(|n| (1..=max).contains(n))
        .ok_or_else(|| format!("{flag} {raw:?} is not in 1..={max}"))?;
    if seen.contains(&n) {
        return Err(format!("{flag} {n} given twice"));
    }
    seen.push(n);
    Ok(())
}

fn main() {
    let selection =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| CLI.fail(Exit::Usage, &e));
    let scale = selection.scale.unwrap_or_else(ExperimentScale::paper);
    if let Some(threads) = selection.threads {
        experiments::runner::set_threads(threads);
    }
    if let Some(dir) = &selection.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            CLI.fail(Exit::Io, &format!("cannot create directory {}: {e}", dir.display()));
        }
    }
    let mut reports: Vec<SchedulerReport> = Vec::new();
    let mut metrics = telemetry::Registry::new();
    let mut attribution_rows: Option<Vec<experiments::metrics::AttributionRow>> = None;

    // Figures 1–5 share one grid; compute it once if any are selected.
    let grid: Option<Grid> = if selection.figs.is_empty() {
        None
    } else {
        eprintln!("[experiments] computing the improvement grid (135 traces x 10 configs)...");
        let (grid, report) = Grid::compute_on_specs(
            &workloads::cvp1_public_suite(),
            &sim::CoreConfig::iiswc_main(),
            scale,
        );
        reports.push(report);
        experiments::metrics::export_grid(&grid, &mut metrics);
        attribution_rows = Some(experiments::metrics::attribution(&grid));
        Some(grid)
    };

    let csv = selection.csv_dir.as_deref();
    let csv_write = |result: std::io::Result<()>| {
        if let Err(e) = result {
            eprintln!("[experiments] csv write failed: {e}");
        }
    };
    for f in &selection.figs {
        let g = grid.as_ref().expect("grid computed when figures selected");
        let text = match f {
            1 => {
                let rows = figure1(g);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::figure1(dir, &rows));
                }
                render_figure1(&rows)
            }
            2 => {
                let series = figure2(g);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::figure2(dir, &series));
                }
                render_figure2(&series)
            }
            3 => {
                let rows = figure3(g);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::figure3(dir, &rows));
                }
                render_figure3(&rows)
            }
            4 => {
                let rows = figure4(g);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::figure4(dir, &rows));
                }
                render_figure4(&rows)
            }
            5 => {
                let rows = figure5(g);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::figure5(dir, &rows));
                }
                render_figure5(&rows)
            }
            _ => unreachable!("validated at parse time"),
        };
        println!("{text}");
    }
    for t in &selection.tables {
        let text = match t {
            1 => render_table1(&table1(scale)),
            2 => {
                let rows = table2(scale);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::table2(dir, &rows));
                }
                render_table2(&rows)
            }
            3 => {
                eprintln!("[experiments] running the IPC-1 prefetcher study (2 x 10 x 50 runs)...");
                let (t3, report) = table3_with_report(scale, &sim::CoreConfig::ipc1());
                reports.push(report);
                experiments::metrics::export_table3(&t3, 3, &mut metrics);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::table3(dir, &t3, "tab3.csv"));
                }
                render_table3(&t3)
            }
            4 => {
                eprintln!("[experiments] extension: re-ranking on the decoupled front-end...");
                let (t4, report) = table4_decoupled_with_report(scale);
                reports.push(report);
                experiments::metrics::export_table3(&t4, 4, &mut metrics);
                if let Some(dir) = csv {
                    csv_write(experiments::csv::table3(dir, &t4, "tab4.csv"));
                }
                render_table4(&t4)
            }
            _ => unreachable!("validated at parse time"),
        };
        println!("{text}");
    }
    if selection.stats {
        for report in &reports {
            println!("{}", report.render());
        }
        if let Some(rows) = &attribution_rows {
            println!("{}", experiments::metrics::render_attribution(rows));
        }
        println!("{}", render_section42(&section42(scale)));
    }
    if let Some(path) = &selection.metrics_path {
        CLI.write(path, &experiments::metrics::document(&metrics, attribution_rows.as_deref()));
    }
    if !reports.is_empty() {
        CLI.write("BENCH_experiments.json", &reports_to_json(&reports));
    }
}
