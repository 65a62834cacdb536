//! Unified telemetry layer for the trace-rebase stack.
//!
//! The paper's whole argument rests on *explaining* IPC deltas through
//! secondary metrics — branch MPKI, cache misses per level, split
//! micro-ops, flag-induced mispredicts. This crate gives every component
//! of the stack one common way to expose those counters, and every
//! binary one common way to export them: a self-describing,
//! schema-versioned JSON document with deterministic ordering, so two
//! runs of the same experiment produce byte-identical metric files
//! regardless of thread count. The same [`json`] module parses those
//! documents back, along with job specs and bench baselines.
//!
//! # Data flow
//!
//! ```text
//!   cvp-trace   converter    sim / memsys / bpred / iprefetch
//!      |            |                      |
//!      |  CvpTraceStats  ConversionStats   |  SimReport + pipeline,
//!      |            |                      |  cache, predictor counters
//!      v            v                      v
//!   +-----------------------------------------------------+
//!   |  telemetry::Registry                                 |
//!   |    counters / gauges / log2 histograms / epochs      |
//!   |    every metric named by a catalog Desc              |
//!   +-----------------------------------------------------+
//!             |                         |
//!             | to_json                 v
//!             v                    METRICS.md (metrics_ref)
//!   +-----------------------------------------------------+
//!   |  telemetry::json                                     |
//!   |    write: object (one Object writer)                 |
//!   |    read:  Value::parse, Value::metric                |
//!   +-----------------------------------------------------+
//!             |                         ^
//!             v                         |
//!      metrics JSON              job specs, a backend's
//!      (--metrics, /metrics)     /metrics, BENCH_*.json baselines
//! ```
//!
//! # Design rules
//!
//! * **Catalog-first.** A metric can only be registered through a
//!   [`Desc`] from [`catalog`], so the generated `METRICS.md` reference
//!   is complete by construction. Per-instance metrics (cache levels,
//!   branch types, experiment configurations) use one `{placeholder}`
//!   in the descriptor name.
//! * **Deterministic.** The registry stores metrics in name order and
//!   the JSON writer has no map iteration, no wall-clock values and no
//!   float formatting that depends on locale — identical inputs yield
//!   identical bytes.
//! * **One JSON module.** [`json`] holds the workspace's only JSON
//!   code: the one writer ([`json::object`]) that builds every metrics
//!   document, bench baseline and server or router response body, and
//!   the strict parser that reads job specs, served registry documents
//!   and bench baselines back. Nothing else in the workspace frames or
//!   scrapes JSON text.
//! * **Zero dependencies.** Like the rest of the workspace, everything
//!   (including the JSON writer and parser) is in-tree.
//!
//! # Example
//!
//! ```
//! use telemetry::{catalog, Registry};
//!
//! let mut reg = Registry::new();
//! reg.counter(&catalog::SIM_INSTRUCTIONS, 1_000);
//! reg.counter(&catalog::SIM_CYCLES, 500);
//! reg.gauge(&catalog::SIM_IPC, 2.0);
//! let json = reg.to_json();
//! assert!(json.contains("\"sim.instructions\""));
//! assert!(json.starts_with("{\"schema\":\"trace-rebase-metrics/v1\""));
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod format;
pub mod json;

mod epoch;
mod histogram;
mod metric;
mod registry;

pub use epoch::EpochSeries;
pub use histogram::Log2Histogram;
pub use metric::{Desc, Kind, Metric, MetricValue, Unit};
pub use registry::Registry;

/// Version tag embedded in every exported document as `"schema"`.
///
/// Bump the trailing number whenever the document layout (not the set
/// of metrics) changes incompatibly.
pub const SCHEMA_VERSION: &str = "trace-rebase-metrics/v1";
