//! # trace-rebase
//!
//! Facade crate for the reproduction of *Rebasing Microarchitectural
//! Research with Industry Traces* (IISWC 2023). It re-exports every
//! workspace crate under one roof so examples and downstream users can
//! depend on a single package:
//!
//! * [`cvp`] — the CVP-1 trace format (reader/writer/value tracking),
//! * [`etrace`] — the RISC-V E-Trace branch-trace frontend: packetized
//!   `.etrace` files (program image + compressed control/memory
//!   streams) that reconstruct to full instruction streams,
//! * [`champsim`] — the ChampSim 64-byte trace format and branch-type
//!   deduction (original and patched, paper §3.2.2),
//! * [`converter`] — the improved `cvp2champsim` converter (the paper's
//!   contribution; Table 1 improvements),
//! * [`bpred`] — TAGE-SC-L, ITTAGE, BTB, RAS branch-prediction substrate,
//! * [`memsys`] — cache hierarchy and data prefetchers,
//! * [`iprefetch`] — the eight IPC-1 instruction prefetchers,
//! * [`sim`] — the ChampSim-class out-of-order core model,
//! * [`workloads`] — synthetic CVP-1 trace suites,
//! * [`experiments`] — the harness regenerating every figure and table,
//! * [`telemetry`] — the unified metrics registry behind `--metrics`
//!   (see `METRICS.md` for the full metric reference),
//! * [`store`] — the block-compressed on-disk trace store behind
//!   `.cvpz`/`.champsimz` files,
//! * [`server`] — the zero-dependency HTTP job service (`sim_server` /
//!   `sim_client` / `server_bench`) that runs the whole pipeline behind
//!   a bounded queue with backpressure and graceful shutdown.
//!
//! # Data flow
//!
//! ```text
//!   workloads ──► cvp ──► converter ──► champsim ──► sim
//!       │          ▲
//!       └► etrace ─┘ (.etrace packets decode to cvp records)
//!                                                    │ (bpred, memsys,
//!                                                    │  iprefetch)
//!                                                    ▼
//!   experiments (figures/tables) ◄───────────── SimReport
//!            │                                       │
//!            ▼                                       ▼
//!   telemetry registry ──► metrics JSON + METRICS.md │
//!            ▲                                       │
//!            └── server (HTTP job service) ◄─────────┘
//!                POST /jobs ► bounded queue ► workers ► /jobs/<id>/result
//! ```
//!
//! # Quickstart
//!
//! Generate a synthetic CVP-1 trace, convert it with all improvements,
//! and simulate it:
//!
//! ```
//! use trace_rebase::converter::{Converter, ImprovementSet};
//! use trace_rebase::sim::{CoreConfig, RunOptions, Simulator};
//! use trace_rebase::workloads::{TraceSpec, WorkloadKind};
//!
//! let spec = TraceSpec::new("demo", WorkloadKind::PointerChase, 42).with_length(20_000);
//! let cvp_instructions = spec.generate();
//!
//! let mut converter = Converter::new(ImprovementSet::all());
//! let champsim_trace = converter.convert_all(cvp_instructions.iter());
//!
//! let core = CoreConfig::iiswc_main();
//! let report = Simulator::run_on(&core, &champsim_trace, RunOptions::default());
//! assert!(report.ipc() > 0.0);
//! ```

pub use bpred;
pub use champsim_trace as champsim;
pub use converter;
pub use cvp_trace as cvp;
pub use etrace;
pub use experiments;
pub use iprefetch;
pub use memsys;
pub use sim;
pub use sim_server as server;
pub use telemetry;
pub use trace_store as store;
pub use workloads;
