//! ChampSim-class trace-driven out-of-order core model.
//!
//! This crate consumes ChampSim trace records (from the `champsim-trace`
//! crate, typically produced by the `converter`) and models a modern
//! out-of-order core at the same first-order fidelity ChampSim offers:
//!
//! * a front-end with a BTB, conditional direction predictor (TAGE-SC-L
//!   by default), ITTAGE indirect predictor and return address stack,
//!   optionally **decoupled** so predicted-path instruction misses are
//!   hidden by run-ahead fetch,
//! * register dependency timing through per-register ready cycles — the
//!   mechanism every one of the paper's converter improvements acts
//!   through,
//! * a ROB, pipeline widths, a load queue, and in-order retirement,
//! * the full `memsys` hierarchy with the paper's data prefetchers, and
//! * a plug-in point for the IPC-1 instruction prefetchers.
//!
//! Two presets reproduce the paper's §4 setups: [`CoreConfig::iiswc_main`]
//! (the modern ChampSim with the paper's ChampSim patch) and
//! [`CoreConfig::ipc1`] (the IPC-1 contest configuration with ideal
//! branch-target prediction).
//!
//! # Data flow
//!
//! ```text
//!   ChampsimRecord stream ──► Simulator::run_fused ──► fetch (bpred, iprefetch)
//!        (one pass, N lanes)                             │
//!                                        dispatch ◄──────┘
//!                                  (ROB, load queue, register ready cycles,
//!                                   memsys latencies)
//!                                                        │
//!                                                        ▼
//!                 one SimReport per lane (+ PipelineStats, component Registry)
//!                                                        │
//!                                                        ▼
//!                                              telemetry (sim.* metrics)
//! ```
//!
//! # Example
//!
//! ```
//! use champsim_trace::ChampsimRecord;
//! use sim::{CoreConfig, RunOptions, Simulator};
//!
//! // A straight-line program, long enough to amortize cold misses.
//! let records: Vec<ChampsimRecord> =
//!     (0..20_000).map(|i| ChampsimRecord::new(0x1000 + i * 4)).collect();
//! let report = Simulator::run_on(&CoreConfig::iiswc_main(), &records, RunOptions::default());
//! assert!(report.ipc() > 1.0);
//! ```

mod cancel;
mod config;
mod engine;
mod inflight;
mod pipeline;
mod stats;

pub use cancel::CancelToken;
pub use config::{CoreConfig, IndirectKind, PredictorKind};
pub use engine::{RunOptions, Simulator};
pub use stats::{BranchStats, SimReport};
