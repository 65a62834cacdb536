//! The complete catalog of metrics the stack can emit.
//!
//! Every registration call takes a `&'static` [`Desc`] from this
//! module, so the reference generated by the `metrics_ref` binary (and
//! committed as `METRICS.md`) is complete by construction. Names with
//! a `{placeholder}` are per-instance; the placeholder's legal values
//! are spelled out in the description.

use crate::metric::{Desc, Kind, Unit};

/// Declares one group of descriptors: each a `pub static`, documented
/// by its description, and `$group`, the group's descriptors in
/// declaration order, which [`all`] concatenates.
macro_rules! group {
    ($group:ident: $($ident:ident, $name:literal, $kind:ident, $unit:ident, $doc:literal;)*) => {
        $(
            #[doc = $doc]
            pub static $ident: Desc = Desc {
                name: $name,
                kind: Kind::$kind,
                unit: Unit::$unit,
                description: $doc,
            };
        )*
        static $group: &[&Desc] = &[$(&$ident),*];
    };
}

// ------------------------------------------------------------------ sim
group!(SIM:
    SIM_INSTRUCTIONS, "sim.instructions", Counter, Instructions,
        "Retired trace records in the measured (post-warm-up) window";
    SIM_CYCLES, "sim.cycles", Counter, Cycles,
        "Elapsed core cycles in the measured window";
    SIM_IPC, "sim.ipc", Gauge, Ratio,
        "Instructions per cycle over the measured window";
    SIM_BRANCH_EXECUTED, "sim.branch.executed", Counter, Count,
        "Branches executed (all types)";
    SIM_BRANCH_MISPREDICTED, "sim.branch.mispredicted", Counter, Count,
        "Branches mispredicted in direction or target";
    SIM_BRANCH_DIRECTION_MISPREDICTS, "sim.branch.direction_mispredicts", Counter, Count,
        "Conditional branches whose predicted direction was wrong";
    SIM_BRANCH_TARGET_MISPREDICTS, "sim.branch.target_mispredicts", Counter, Count,
        "Taken branches whose predicted target was wrong (BTB/RAS/ITTAGE misses)";
    SIM_BRANCH_MISPREDICT_RESOLVE_CYCLES, "sim.branch.mispredict_resolve_cycles",
        Counter, Cycles,
        "Dispatch-to-resolve cycles summed over mispredicted branches — the exposed \
         misprediction penalty that flag-reg and branch-regs inflate (Figure 1)";
    SIM_BRANCH_MPKI, "sim.branch.mpki", Gauge, PerKiloInstructions,
        "Overall branch mispredictions per kilo-instruction";
    SIM_BRANCH_DIRECTION_MPKI, "sim.branch.direction_mpki", Gauge, PerKiloInstructions,
        "Direction-only branch MPKI";
    SIM_BRANCH_TARGET_MPKI, "sim.branch.target_mpki", Gauge, PerKiloInstructions,
        "Target-only branch MPKI";
    SIM_BRANCH_RETURN_MPKI, "sim.branch.return_mpki", Gauge, PerKiloInstructions,
        "Return (RAS) misprediction MPKI — the paper's Figure 5 metric";
    SIM_BRANCH_TYPE_EXECUTED, "sim.branch.type.{type}.executed", Counter, Count,
        "Executed branches of one type; {type} is one of direct-jump, indirect-jump, \
         conditional, direct-call, indirect-call, return";
    SIM_BRANCH_TYPE_MISPREDICTED, "sim.branch.type.{type}.mispredicted", Counter, Count,
        "Mispredicted branches of one type; {type} as in sim.branch.type.{type}.executed";
    SIM_FETCH_STARVE_CYCLES, "sim.frontend.fetch_starve_cycles", Counter, Cycles,
        "Cycles the fetch stage stalled waiting for instruction supply \
         (uncovered L1I miss latency and late instruction prefetches)";
    SIM_ROB_STALLS, "sim.rob.stalls", Counter, Count,
        "Dispatches delayed because the reorder buffer was full";
    SIM_ROB_STALL_CYCLES, "sim.rob.stall_cycles", Counter, Cycles,
        "Total cycles dispatch waited on the ROB head to retire";
    SIM_ROB_OCCUPANCY, "sim.rob.occupancy", Histogram, Count,
        "Log2 histogram of ROB occupancy sampled at every dispatch";
    SIM_LSQ_STALLS, "sim.lsq.stalls", Counter, Count,
        "Loads delayed because the load queue was full";
    SIM_MSHR_STALLS, "sim.mshr.stalls", Counter, Count,
        "L1D misses delayed because every MSHR was occupied";
    SIM_IPREFETCH_ISSUED, "sim.iprefetch.issued", Counter, Count,
        "Prefetch requests issued by the configured instruction prefetcher";
    SIM_CACHE_MPKI, "sim.cache.{level}.mpki", Gauge, PerKiloInstructions,
        "Demand misses per kilo-instruction at one cache level; {level} is one of \
         l1i, l1d, l2, llc";
    SIM_THROUGHPUT_MIPS, "sim.throughput.mips", Gauge, Mips,
        "Millions of trace records retired per wall-clock second of host time, \
         aggregated over the benchmark suite — simulator speed, not a \
         microarchitectural result; emitted by `sim_bench`";
    SIM_THROUGHPUT_FAMILY_MIPS, "sim.throughput.{family}.mips", Gauge, Mips,
        "Host simulation throughput on one synthetic workload family; {family} is \
         one of pointer-chase, streaming, crypto, branchy-int, server, fp-kernel. \
         Emitted by `sim_bench`";
);

// --------------------------------------------------------------- memsys
group!(MEMSYS:
    MEMSYS_DEMAND_ACCESSES, "memsys.{level}.demand_accesses", Counter, Count,
        "Demand (non-prefetch) accesses at one cache level; {level} is one of \
         l1i, l1d, l2, llc";
    MEMSYS_DEMAND_MISSES, "memsys.{level}.demand_misses", Counter, Count,
        "Demand misses at one cache level; {level} as in memsys.{level}.demand_accesses";
    MEMSYS_MISS_RATIO, "memsys.{level}.miss_ratio", Gauge, Percent,
        "Demand miss ratio at one cache level, percent";
    MEMSYS_PREFETCH_FILLS, "memsys.{level}.prefetch_fills", Counter, Count,
        "Lines filled by prefetch at one cache level";
    MEMSYS_USEFUL_PREFETCHES, "memsys.{level}.useful_prefetches", Counter, Count,
        "Demand hits on prefetched lines (first touch) at one cache level";
    MEMSYS_PREFETCH_ACCURACY, "memsys.{level}.prefetch_accuracy", Gauge, Percent,
        "Useful prefetches as a percentage of prefetch fills at one cache level";
);

// ---------------------------------------------------------------- bpred
group!(BPRED:
    BPRED_DIRECTION_PREDICTIONS, "bpred.direction.predictions", Counter, Count,
        "Conditional-direction predictions made by the direction predictor";
    BPRED_DIRECTION_UPDATES, "bpred.direction.updates", Counter, Count,
        "Training updates applied to the direction predictor";
    BPRED_INDIRECT_PREDICTIONS, "bpred.indirect.predictions", Counter, Count,
        "Indirect-target predictions attempted by the indirect predictor";
    BPRED_INDIRECT_NO_PREDICTION, "bpred.indirect.no_prediction", Counter, Count,
        "Indirect lookups where the indirect predictor had no prediction";
    BPRED_BTB_LOOKUPS, "bpred.btb.lookups", Counter, Count,
        "Branch target buffer lookups";
    BPRED_BTB_MISSES, "bpred.btb.misses", Counter, Count,
        "Branch target buffer lookups that found no entry";
    BPRED_BTB_HIT_RATIO, "bpred.btb.hit_ratio", Gauge, Percent,
        "BTB hit ratio, percent";
    BPRED_RAS_PUSHES, "bpred.ras.pushes", Counter, Count,
        "Return addresses pushed on the return address stack (calls)";
    BPRED_RAS_POPS, "bpred.ras.pops", Counter, Count,
        "Return addresses popped from the return address stack (returns)";
    BPRED_RAS_UNDERFLOWS, "bpred.ras.underflows", Counter, Count,
        "Return-address pops that found the stack empty (the desync signature \
         of the paper's call-stack bug)";
);

// ------------------------------------------------------------ iprefetch
group!(IPREFETCH:
    IPREFETCH_FETCHES_SEEN, "iprefetch.fetches_seen", Counter, Count,
        "Fetch events observed by the instrumented instruction prefetcher";
    IPREFETCH_MISSES_SEEN, "iprefetch.misses_seen", Counter, Count,
        "Fetch events that missed in the L1I, as observed by the prefetcher";
    IPREFETCH_ISSUED, "iprefetch.issued", Counter, Count,
        "Prefetch block requests the prefetcher proposed";
    IPREFETCH_BRANCHES_SEEN, "iprefetch.branches_seen", Counter, Count,
        "Retired branches reported to the prefetcher";
);

// ------------------------------------------------------------ converter
group!(CONVERTER:
    CONVERTER_INPUT_INSTRUCTIONS, "converter.input_instructions", Counter, Instructions,
        "CVP-1 instructions consumed by the converter";
    CONVERTER_OUTPUT_RECORDS, "converter.output_records", Counter, Count,
        "ChampSim records emitted (exceeds the input when base-update splits)";
    CONVERTER_EXPANSION_RATIO, "converter.expansion_ratio", Gauge, Ratio,
        "Output records per input instruction";
    CONVERTER_MEMORY_NO_DESTINATION, "converter.memory_no_destination", Counter, Count,
        "Memory instructions with no CVP-1 destination register (paper: 9.4%)";
    CONVERTER_LOADS_MULTI_DEST, "converter.loads_multiple_destinations", Counter, Count,
        "Loads with more than one CVP-1 destination register (paper: 5.2%)";
    CONVERTER_BASE_UPDATE_LOADS, "converter.base_update_loads", Counter, Count,
        "Loads inferred to perform a base-register update";
    CONVERTER_BASE_UPDATE_STORES, "converter.base_update_stores", Counter, Count,
        "Stores inferred to perform a base-register update";
    CONVERTER_PRE_INDEX, "converter.pre_index", Counter, Count,
        "Base updates classified as pre-indexing";
    CONVERTER_POST_INDEX, "converter.post_index", Counter, Count,
        "Base updates classified as post-indexing";
    CONVERTER_TWO_CACHELINE, "converter.two_cacheline_accesses", Counter, Count,
        "Memory accesses whose footprint spans two cachelines (paper: 0.3%)";
    CONVERTER_DC_ZVA_STORES, "converter.dc_zva_stores", Counter, Count,
        "64-byte stores treated as DC ZVA cacheline zeroing";
    CONVERTER_X30_READ_WRITE, "converter.x30_read_write_branches", Counter, Count,
        "Unconditional branches reading and writing X30 (calls the original \
         converter misclassified as returns)";
    CONVERTER_RETURNS_EMITTED, "converter.returns_emitted", Counter, Count,
        "Branches emitted as returns";
    CONVERTER_CALLS_EMITTED, "converter.calls_emitted", Counter, Count,
        "Branches emitted as calls (direct or indirect)";
    CONVERTER_COND_WITH_SOURCES, "converter.conditional_with_sources", Counter, Count,
        "Conditional branches carrying a real source register (branch-regs targets)";
    CONVERTER_FLAG_DESTS_ADDED, "converter.flag_destinations_added", Counter, Count,
        "ALU/FP instructions given the flags register as destination (flag-reg)";
    CONVERTER_X30_DESTS_DROPPED, "converter.x30_destinations_dropped", Counter, Count,
        "Calls whose X30 destination could not be conveyed (ChampSim's \
         two-destination limit, paper §3.2.2)";
    CONVERTER_SRC_REGS_DROPPED, "converter.source_registers_dropped", Counter, Count,
        "Source registers dropped because a record ran out of slots";
    CONVERTER_IMPROVEMENT_REWRITES, "converter.improvement.{name}.rewrites", Counter, Count,
        "Input instructions one improvement rewrites; {name} is one of mem-regs, \
         base-update, mem-footprint, call-stack, branch-regs, flag-reg";
);

// ------------------------------------------------------------ cvp-trace
group!(CVP_TRACE:
    CVP_INSTRUCTIONS, "cvp.instructions", Counter, Instructions,
        "CVP-1 instructions characterized";
    CVP_TAKEN_BRANCHES, "cvp.taken_branches", Counter, Count,
        "Taken branches (unconditional branches are always taken)";
    CVP_BRANCHES, "cvp.branches", Counter, Count,
        "All branch-class instructions";
    CVP_MEMORY_NO_DEST, "cvp.memory_no_dest", Counter, Count,
        "Loads/stores with no destination register (prefetch loads, plain stores)";
    CVP_LOADS_MULTI_DEST, "cvp.loads_multi_dest", Counter, Count,
        "Loads with more than one destination register";
    CVP_ALU_FP_NO_DEST, "cvp.alu_fp_no_dest", Counter, Count,
        "ALU/FP instructions with no destination (implicit flag setters)";
    CVP_MEAN_SOURCES, "cvp.mean_sources", Gauge, Ratio,
        "Mean source registers per instruction";
    CVP_MEAN_DESTINATIONS, "cvp.mean_destinations", Gauge, Ratio,
        "Mean destination registers per instruction";
    CVP_CLASS_COUNT, "cvp.class.{class}.count", Counter, Count,
        "Instructions of one CVP-1 class; {class} is one of alu, load, store, \
         cond-branch, uncond-direct-branch, uncond-indirect-branch, fp, slow-alu, \
         undef";
);

// ---------------------------------------------------------- experiments
group!(EXPERIMENTS:
    EXP_GRID_TRACES, "experiments.grid.traces", Counter, Count,
        "Traces in the improvement grid (the CVP-1 public suite)";
    EXP_GRID_CONFIGS, "experiments.grid.configs", Counter, Count,
        "Improvement configurations in the grid, including the No_imp baseline";
    EXP_GRID_GEOMEAN_IPC, "experiments.grid.{config}.geomean_ipc", Gauge, Ratio,
        "Geometric-mean IPC across the suite under one improvement configuration; \
         {config} is No_imp, an improvement name, Memory_imps, Branch_imps or All_imps";
    EXP_GRID_IPC_DELTA, "experiments.grid.{config}.ipc_delta_pct", Gauge, Percent,
        "Geomean-IPC variation of one configuration versus No_imp, percent \
         (the paper's Figure 1 bars)";
    EXP_GRID_INSTRUCTIONS, "experiments.grid.{config}.instructions", Counter, Instructions,
        "Retired records summed across the suite under one configuration";
    EXP_GRID_CYCLES, "experiments.grid.{config}.cycles", Counter, Cycles,
        "Core cycles summed across the suite under one configuration";
    EXP_GRID_BRANCH_MISPREDICTS, "experiments.grid.{config}.branch_mispredicts",
        Counter, Count,
        "Branch mispredictions (direction or target) summed across the suite";
    EXP_GRID_DIRECTION_MISPREDICTS, "experiments.grid.{config}.direction_mispredicts",
        Counter, Count,
        "Direction-only mispredictions summed across the suite";
    EXP_GRID_TARGET_MISPREDICTS, "experiments.grid.{config}.target_mispredicts",
        Counter, Count,
        "Target-only mispredictions summed across the suite";
    EXP_GRID_L1I_MISSES, "experiments.grid.{config}.l1i_misses", Counter, Count,
        "L1I demand misses summed across the suite under one configuration";
    EXP_GRID_L1D_MISSES, "experiments.grid.{config}.l1d_misses", Counter, Count,
        "L1D demand misses summed across the suite under one configuration";
    EXP_GRID_L2_MISSES, "experiments.grid.{config}.l2_misses", Counter, Count,
        "L2 demand misses summed across the suite under one configuration";
    EXP_GRID_LLC_MISSES, "experiments.grid.{config}.llc_misses", Counter, Count,
        "LLC demand misses summed across the suite under one configuration";
    EXP_GRID_SPLIT_RECORDS, "experiments.grid.{config}.split_records", Counter, Count,
        "Extra records emitted by base-update splitting, summed across the suite";
    EXP_GRID_MISPREDICT_RESOLVE_CYCLES,
        "experiments.grid.{config}.mispredict_resolve_cycles", Counter, Cycles,
        "Dispatch-to-resolve cycles of mispredicted branches summed across the suite \
         (the attribution table's branch-penalty column)";
    EXP_TABLE3_SPEEDUP_COMPETITION,
        "experiments.table3.{prefetcher}.speedup_competition", Gauge, Ratio,
        "Geomean speedup of one IPC-1 prefetcher on competition-style traces; \
         {prefetcher} is one of djolt, jip, mana, fnl+mma, pips, epi, barca, tap";
    EXP_TABLE3_SPEEDUP_FIXED, "experiments.table3.{prefetcher}.speedup_fixed", Gauge, Ratio,
        "Geomean speedup of one IPC-1 prefetcher on fixed traces (all \
         improvements except mem-footprint)";
    EXP_TABLE4_SPEEDUP_COMPETITION,
        "experiments.table4.{prefetcher}.speedup_competition", Gauge, Ratio,
        "Table 4 (decoupled front-end) speedup on competition-style traces";
    EXP_TABLE4_SPEEDUP_FIXED, "experiments.table4.{prefetcher}.speedup_fixed", Gauge, Ratio,
        "Table 4 (decoupled front-end) speedup on fixed traces";
    EXP_PHASE_SECONDS, "experiments.phase_seconds.{phase}", Gauge, Seconds,
        "CPU seconds one pipeline phase consumed, summed across worker threads; \
         {phase} is one of generate, convert, simulate. Host timing — emitted by \
         `sim_bench`, never by the deterministic `--metrics` documents";
);

// ------------------------------------------------------------ workloads
group!(WORKLOADS:
    WORKLOADS_GENERATED_INSTRUCTIONS, "workloads.generated_instructions",
        Counter, Instructions,
        "Synthetic CVP-1 instructions generated by tracegen";
);

// ---------------------------------------------------------- trace-store
group!(TRACE_STORE:
    STORE_BLOCKS_WRITTEN, "store.blocks_written", Counter, Count,
        "Compressed blocks written to a `.cvpz`/`.champsimz` store";
    STORE_BYTES_RAW, "store.bytes_raw", Counter, Bytes,
        "Uncompressed record bytes fed into a store writer";
    STORE_BYTES_COMPRESSED, "store.bytes_compressed", Counter, Bytes,
        "Block payload bytes after delta filtering and LZ compression \
         (excludes the fixed header/index framing)";
    STORE_COMPRESSION_RATIO, "store.compression_ratio", Gauge, Ratio,
        "Raw over compressed payload bytes for one written store";
);

// --------------------------------------------------------------- etrace
group!(ETRACE:
    ETRACE_INSTRUCTIONS, "etrace.instructions", Counter, Instructions,
        "Instructions reconstructed from an E-Trace packet stream";
    ETRACE_PACKETS, "etrace.packets", Counter, Count,
        "Control-stream packets decoded (SYNC + BRANCH-MAP + ADDR + CTX)";
    ETRACE_SYNC_RECOVERIES, "etrace.sync_recoveries", Counter, Count,
        "SYNC packets whose pc disagreed with the decoder's program-image \
         walker, forcing a rebase (always 0 for streams this tree encoded)";
    ETRACE_BYTES_PER_INSTRUCTION, "etrace.bytes_per_instruction", Gauge,
        Bytes,
        "Encoded `.etrace` file bytes per reconstructed instruction";
    ETRACE_COMPRESSION_RATIO, "etrace.compression_ratio", Gauge, Ratio,
        "Flat per-instruction record bytes over encoded `.etrace` file \
         bytes for the same execution";
);

// ------------------------------------------------------------ sim-server
group!(SIM_SERVER:
    SERVER_JOBS_ACCEPTED, "server.jobs.accepted", Counter, Count,
        "Job submissions admitted to the queue since the server started";
    SERVER_JOBS_REJECTED, "server.jobs.rejected", Counter, Count,
        "Job submissions rejected with `429` because the bounded queue was \
         full (the backpressure signal)";
    SERVER_JOBS_COMPLETED, "server.jobs.completed", Counter, Count,
        "Jobs that ran to completion and have a result document";
    SERVER_JOBS_FAILED, "server.jobs.failed", Counter, Count,
        "Jobs that ended in an error (unreadable trace, bad spec)";
    SERVER_JOBS_CANCELLED, "server.jobs.cancelled", Counter, Count,
        "Jobs cancelled before completion — deadline (`--job-timeout`) \
         expiry or shutdown abort; partial statistics are discarded";
    SERVER_QUEUE_DEPTH, "server.queue.depth", Gauge, Count,
        "Jobs waiting in the bounded queue at sampling time (bounded by \
         `--queue-depth` by construction)";
    SERVER_LATENCY_QUEUE, "server.latency.queue_ms", Histogram, Milliseconds,
        "Log2 histogram of milliseconds jobs spent queued before a worker \
         picked them up";
    SERVER_LATENCY_RUN, "server.latency.run_ms", Histogram, Milliseconds,
        "Log2 histogram of milliseconds workers spent executing jobs \
         (generate/convert/simulate, including cache hits)";
    SERVER_LATENCY_TOTAL, "server.latency.total_ms", Histogram, Milliseconds,
        "Log2 histogram of submission-to-completion milliseconds per job \
         (queue wait plus execution)";
    SERVER_JOBS_COALESCED, "server.jobs.coalesced", Counter, Count,
        "Accepted submissions that duplicated a job already in flight \
         (same canonical spec key) and attached to its execution instead of \
         queueing their own";
    SERVER_BATCH_PASSES, "server.batch.passes", Counter, Count,
        "Fused streaming passes dispatched by workers; each pass decodes \
         its source once and drives every job in the batch in lockstep";
    SERVER_BATCH_FUSED_JOBS, "server.batch.fused_jobs", Counter, Count,
        "Jobs that shared their streaming pass with at least one co-queued \
         job (batch size ≥ 2) — the decode-amortization win";
    SERVER_BATCH_SIZE, "server.batch.size", Histogram, Count,
        "Log2 histogram of jobs per fused pass (1 = nothing co-queued \
         shared the source; bounded by `--max-batch`)";
    SERVER_RESULT_CACHE_HITS, "server.result_cache.hits", Counter, Count,
        "Submissions answered from the result cache (a done execution \
         that a kept job holds) — the completed document returned without \
         simulating";
    SERVER_RESULT_CACHE_MISSES, "server.result_cache.misses", Counter, Count,
        "Result-cache lookups that found no cached document for the \
         canonical spec key";
    SERVER_RESULT_CACHE_EVICTIONS, "server.result_cache.evictions", Counter, Count,
        "Done executions dropped with their cached document when the \
         last job holding them was forgotten (the server keeps the newest \
         16384 settled jobs)";
    SERVER_ARTIFACTS_RESIDENT_BYTES, "server.artifacts.resident_bytes", Gauge, Bytes,
        "Bytes of generated traces and converted records the artifact \
         cache holds at sampling time; idle ones are evicted above its \
         budget (32 MiB, or three times the largest artifact computed if \
         that is more)";
    SERVER_ARTIFACTS_EVICTIONS, "server.artifacts.evictions", Counter, Count,
        "Idle traces and conversions the artifact cache dropped to get \
         back within its budget (least recently used first); an evicted \
         artifact is recomputed on its next use";
);

// ------------------------------------------------------------ sim-router
group!(SIM_ROUTER:
    ROUTER_JOBS_ROUTED, "router.jobs.routed", Counter, Count,
        "Submissions the router placed on a shard (the backend answered \
         `202`), counted once per job regardless of failover attempts";
    ROUTER_JOBS_RETRIED, "router.jobs.retried", Counter, Count,
        "Failover hops: times a submission moved past a shard that was \
         busy (`429`/`503`) or unreachable to the next ring replica";
    ROUTER_JOBS_REJECTED, "router.jobs.rejected", Counter, Count,
        "Submissions refused with `429` because every reachable shard \
         answered busy — fleet-wide backpressure, propagated with the \
         largest Retry-After hint any shard offered";
    ROUTER_JOBS_UNROUTABLE, "router.jobs.unroutable", Counter, Count,
        "Submissions refused with `503` because no shard was reachable at \
         all (distinct from `router.jobs.rejected`, where shards answered \
         but were saturated)";
    ROUTER_BACKENDS_HEALTHY, "router.backends.healthy", Gauge, Count,
        "Backends the health checker currently admits for new submissions \
         (a draining backend reports `/healthz` status `draining` and \
         counts as unhealthy here)";
    ROUTER_BACKENDS_EJECTED, "router.backends.ejected", Counter, Count,
        "Healthy-to-unhealthy transitions observed by the health checker \
         since the router started";
    ROUTER_BACKENDS_READMITTED, "router.backends.readmitted", Counter, Count,
        "Unhealthy-to-healthy transitions — backends that recovered and \
         rejoined the submission rotation";
    ROUTER_BACKEND_CONNECTS, "router.backend.connects", Counter, Count,
        "Fresh backend connections the router opened to forward a request \
         (health probes excluded): an empty keep-alive pool, or a retry \
         after a pooled connection the backend had closed";
    ROUTER_BACKEND_REUSED, "router.backend.reused", Counter, Count,
        "Forwards served on a pooled keep-alive backend connection, without \
         a new TCP handshake";
    ROUTER_FLEET_JOBS_ACCEPTED, "router.fleet.jobs_accepted", Counter, Count,
        "`server.jobs.accepted` summed across every shard reachable at \
         scrape time (an unreachable shard contributes nothing)";
    ROUTER_FLEET_JOBS_COMPLETED, "router.fleet.jobs_completed", Counter, Count,
        "`server.jobs.completed` summed across every reachable shard at \
         scrape time";
    ROUTER_FLEET_JOBS_REJECTED, "router.fleet.jobs_rejected", Counter, Count,
        "`server.jobs.rejected` summed across every reachable shard at \
         scrape time — per-shard backpressure the router's failover may \
         have absorbed before it reached a client";
    ROUTER_FLEET_QUEUE_DEPTH, "router.fleet.queue_depth", Gauge, Count,
        "`server.queue.depth` summed across every reachable shard at \
         scrape time — total jobs waiting fleet-wide";
);

/// Every descriptor in the catalog, in `METRICS.md` order: the groups
/// as declared above, each group's descriptors in declaration order.
pub fn all() -> Vec<&'static Desc> {
    [
        SIM,
        MEMSYS,
        BPRED,
        IPREFETCH,
        CONVERTER,
        CVP_TRACE,
        EXPERIMENTS,
        WORKLOADS,
        TRACE_STORE,
        ETRACE,
        SIM_SERVER,
        SIM_ROUTER,
    ]
    .concat()
}

/// Renders the `METRICS.md` reference document (the `metrics_ref`
/// binary prints exactly this).
pub fn reference_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Metrics reference\n\n");
    out.push_str(&format!(
        "Generated by `cargo run -p telemetry --bin metrics_ref`; do not edit by \
         hand (CI checks this file matches the self-dump). Every metric any \
         binary can emit through `--metrics <path>` is listed here. Documents \
         are JSON with schema `{}`: a `labels` object of free-form context \
         strings, a `metrics` array (name-sorted) of self-describing entries, \
         and optional `epochs` / `attribution` sections. Names with a \
         `{{placeholder}}` are emitted once per instance; legal instances are \
         in the description.\n\n",
        crate::SCHEMA_VERSION
    ));
    out.push_str("| metric | kind | unit | description |\n");
    out.push_str("|---|---|---|---|\n");
    for d in all() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            d.name,
            d.kind.as_str(),
            d.unit.as_str(),
            d.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = BTreeSet::new();
        for d in all() {
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(d.name.contains('.'), "{} is not dotted", d.name);
            assert!(!d.description.is_empty());
        }
    }

    #[test]
    fn reference_lists_every_descriptor() {
        let text = reference_markdown();
        for d in all() {
            assert!(text.contains(d.name), "missing {}", d.name);
        }
    }

    #[test]
    fn placeholders_are_well_formed() {
        for d in all() {
            if d.is_templated() {
                let open = d.name.matches('{').count();
                let close = d.name.matches('}').count();
                assert_eq!(open, 1, "{} must have exactly one placeholder", d.name);
                assert_eq!(close, 1, "{}", d.name);
                // instance() must not panic.
                assert!(d.instance("x").contains('x'));
            }
        }
    }
}
