//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment follows the paper's §4 methodology on the synthetic
//! suites:
//!
//! * **Figures 1–5** run the 135-trace CVP-1 public suite through the
//!   converter at each improvement setting and simulate with the
//!   [`sim::CoreConfig::iiswc_main`] core, no warm-up, run to the end.
//! * **Table 2** characterizes the 50 IPC-1 traces with all fixes.
//! * **Table 3** re-ranks the eight IPC-1 instruction prefetchers on the
//!   competition-style traces (`No_imp`) versus the fixed traces (all
//!   improvements except `mem-footprint`, per the paper's footnote 4) on
//!   the [`sim::CoreConfig::ipc1`] core with warm-up.
//!
//! The [`runner`] module holds the shared conversion+simulation
//! plumbing (parallelized across traces with scoped threads); the
//! figure/table modules expose functions returning plain-data rows (the
//! figures read one [`figures::Grid`], built by
//! [`figures::Grid::compute_on_specs`]) plus `render` helpers producing
//! the textual output the artifact scripts would print.
//!
//! # Data flow
//!
//! ```text
//!   workloads suite ──► runner (convert + simulate, work-stealing)
//!                          │
//!            TraceOutcome grid (index-ordered, schedule-independent)
//!                │                │                   │
//!                ▼                ▼                   ▼
//!          figures/tables   metrics::export_*   metrics::attribution
//!            (text, csv)         │                   │
//!                                ▼                   ▼
//!                     one telemetry JSON document (--metrics)
//! ```

pub mod bench;
pub mod cache;
pub mod csv;
pub mod figures;
pub mod metrics;
pub mod runner;
pub mod tables;

pub use cache::{ArtifactCache, CacheCounters, ConvertedTrace};
pub use runner::{simulate_conversion, ExperimentScale, TraceOutcome};

#[cfg(test)]
mod shape_tests;
