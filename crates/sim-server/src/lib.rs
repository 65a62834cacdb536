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
//!   │ accept loop ─▶ conn threads ──▶ BoundedQueue(depth N) ──▶      │
//!   │     GET /jobs/<id>, /result,   │     │ full: 429 +        │    │
//!   │     /healthz, /metrics         │     ▼ Retry-After        ▼    │
//!   │                                │  job table          worker ×M │
//!   │   ResultCache ◀── canonical ───┤ (status/result)  batch planner:
//!   │   hit: born Done  key          │                  drain same   │
//!   │   in-flight map ◀── duplicate ─┘                  source key   │
//!   │   attach as follower                                   │       │
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
//! ([`sim::Simulator::run_fused`]), and the result cache memoizes
//! finished documents verbatim, so batched and cached results are
//! byte-identical to unbatched ones.
//!
//! Scale-out lives in [`router`]: the `sim_router` binary fronts N of
//! these servers, sharding submissions by canonical source key on a
//! consistent-hash [`ring`] so each shard's caches stay hot for "its"
//! record streams; [`router`]'s module docs carry the fleet diagram.

pub mod client;
pub mod http;
pub mod jobspec;
pub mod metrics;
pub mod queue;
pub mod result_cache;
pub mod ring;
pub mod router;
pub mod server;

pub use client::Connection;
pub use jobspec::{JobError, JobSource, JobSpec};
pub use queue::BoundedQueue;
pub use result_cache::{ResultCache, ResultCacheStats};
pub use ring::HashRing;
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{JobStatus, Server, ServerConfig, ShutdownHandle};
pub use telemetry::json;
