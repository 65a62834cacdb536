//! sim-server: a zero-dependency simulation job service.
//!
//! Turns the library pipeline (trace → convert → simulate → metrics)
//! into a network service without adding a single external crate:
//! hand-rolled HTTP/1.1 framing, JSON read and written through
//! [`telemetry::json`] (re-exported here as [`json`]), a bounded queue
//! with `429` backpressure, a fixed worker pool over the shared
//! artifact cache, cooperative per-job deadlines, and two-grade
//! shutdown (drain vs abort).
//!
//! ```text
//!   sim_client / server_bench / curl
//!         │  POST /jobs {"workload": …} | {"trace": "x.cvpz"}
//!         ▼
//!   ┌────────────────────────── sim_server ──────────────────────────┐
//!   │ front door ─▶ conn threads ─▶ execution table ──▶ BoundedQueue │
//!   │  (http.rs)      │ POST /jobs   (canonical key)     (depth N)   │
//!   │                 │              done: born Done     │ full: 429 │
//!   │  GET /jobs/<id>, /result,      (LRU-bounded)       │ + Retry-  │
//!   │  /healthz, /metrics            queued/running:     ▼ After     │
//!   │                 │              attach          worker ×M       │
//!   │                 ▼                              batch planner:  │
//!   │  job table: id → execution +                   drain same      │
//!   │  own submission and deadline                   source key      │
//!   │                                                    │           │
//!   │                                         JobSpec::execute_batch │
//!   │                                        (one fused pass ×N cfg) │
//!   │                                         ArtifactCache          │
//!   │                                         CancelToken ◀──────────┼─ --job-timeout
//!   └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The correctness anchor: a ChampSim-trace job's result document is
//! produced by [`cli::champsim_run_registry`] — the exact exporter the
//! `champsim-run` binary uses — so fetching `/jobs/<id>/result` yields
//! bytes identical to a local `champsim-run --metrics` of the same
//! trace and configuration. Batching preserves this: a batch and a
//! solo run both go through the one engine loop
//! ([`sim::Simulator::run_fused`]), and the execution table keeps each
//! finished document verbatim, once, for every job of that spec, so
//! batched, coalesced and cached results are byte-identical to
//! unbatched ones.
//!
//! Scale-out lives in [`router`]: the `sim_router` binary fronts N of
//! these servers, sharding submissions by canonical source key on a
//! consistent-hash [`ring`] so each shard's caches stay hot for "its"
//! record streams; [`router`]'s module docs carry the fleet diagram.
//!
//! Both services stand behind one front door in [`http`]: one accept
//! loop, one keep-alive connection loop, one endpoint table with the
//! shared `404`/`405` answers, one drain rule, and one signal-and-drain
//! tail ([`run_until_shutdown`]) for the two binaries. Each service
//! keeps only its own routing.

pub mod client;
pub mod http;
pub mod jobspec;
pub mod metrics;
pub mod queue;
pub mod ring;
pub mod router;
pub mod server;

pub use client::Connection;
pub use http::{run_until_shutdown, ShutdownHandle};
pub use jobspec::{JobError, JobSource, JobSpec};
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use server::{JobStatus, Server, ServerConfig};
pub use telemetry::json;
