//! Shared plumbing for the command-line tools.
//!
//! The four binaries cover the paper's workflow end to end:
//!
//! ```text
//!  tracegen ──► trace.cvp ──► cvp2champsim ──► trace.champsimtrace
//!                  │                                  │
//!                  ▼                                  ▼
//!             trace-stats                        champsim-run
//!          (mix + conversion)                 (IPC, MPKI, stalls)
//! ```
//!
//! Every binary accepts `--metrics <path>` and writes one
//! [`telemetry`] JSON document (see `METRICS.md`); this library holds
//! the exporters the binaries share — most notably the `cvp.*` metrics
//! for [`CvpTraceStats`], which live here because `cvp-trace` itself is
//! dependency-free.
//!
//! It also holds the one trace-file reader: [`TraceSource`] streams any
//! of the five accepted encodings as ChampSim records, converting
//! CVP-family inputs on the fly. `champsim-run`, `cvp2champsim` and
//! `sim-server`'s file jobs all read through it, and
//! [`champsim_run_registry`] renders every file-backed document.

mod source;

use std::str::FromStr;

use converter::ImprovementSet;
use cvp_trace::{CvpClass, CvpTraceStats};
use etrace::EtraceStats;
use telemetry::{catalog, Registry};
use trace_store::StoreStats;

pub use source::{TraceFormat, TraceSource};

/// Registers a CVP-1 trace characterization under `cvp.*`, including
/// one `cvp.class.{class}.count` instance per instruction class that
/// occurs in the trace.
pub fn export_cvp_stats(stats: &CvpTraceStats, registry: &mut Registry) {
    registry.counter(&catalog::CVP_INSTRUCTIONS, stats.total());
    registry.counter(&catalog::CVP_TAKEN_BRANCHES, stats.taken_branches());
    registry.counter(&catalog::CVP_BRANCHES, stats.branches());
    registry.counter(&catalog::CVP_MEMORY_NO_DEST, stats.memory_no_dest());
    registry.counter(&catalog::CVP_LOADS_MULTI_DEST, stats.loads_multi_dest());
    registry.counter(&catalog::CVP_ALU_FP_NO_DEST, stats.alu_fp_no_dest());
    registry.gauge(&catalog::CVP_MEAN_SOURCES, stats.mean_sources());
    registry.gauge(&catalog::CVP_MEAN_DESTINATIONS, stats.mean_destinations());
    for class in CvpClass::ALL {
        let n = stats.count(class);
        if n > 0 {
            registry.counter_at(&catalog::CVP_CLASS_COUNT, &class.to_string(), n);
        }
    }
}

/// Registers a written store's volume counters under `store.*`.
pub fn export_store_stats(stats: &StoreStats, registry: &mut Registry) {
    registry.counter(&catalog::STORE_BLOCKS_WRITTEN, stats.blocks_written);
    registry.counter(&catalog::STORE_BYTES_RAW, stats.bytes_raw);
    registry.counter(&catalog::STORE_BYTES_COMPRESSED, stats.bytes_compressed);
    registry.gauge(&catalog::STORE_COMPRESSION_RATIO, stats.compression_ratio());
}

/// Registers an E-Trace decode's packet and volume counters under
/// `etrace.*`.
pub fn export_etrace_stats(stats: &EtraceStats, registry: &mut Registry) {
    registry.counter(&catalog::ETRACE_INSTRUCTIONS, stats.items);
    registry.counter(&catalog::ETRACE_PACKETS, stats.packets);
    registry.counter(&catalog::ETRACE_SYNC_RECOVERIES, stats.sync_recoveries);
    registry.gauge(&catalog::ETRACE_BYTES_PER_INSTRUCTION, stats.bytes_per_instruction());
    registry.gauge(&catalog::ETRACE_COMPRESSION_RATIO, stats.compression_ratio());
}

/// One-line human summary of a written `.etrace` file (the binaries
/// print this to standard error after encoding one).
pub fn etrace_summary(stats: &EtraceStats) -> String {
    format!(
        "etrace: {} instructions, {} packets, {} -> {} bytes ({:.2}x, {:.3} B/insn)",
        stats.items,
        stats.packets,
        stats.flat_bytes,
        stats.file_bytes,
        stats.compression_ratio(),
        stats.bytes_per_instruction()
    )
}

/// One-line human summary of a written store (the binaries print this
/// to standard error after finishing a `.cvpz`/`.champsimz` file).
pub fn store_summary(stats: &StoreStats) -> String {
    format!(
        "store: {} blocks, {} -> {} bytes ({:.2}x)",
        stats.blocks_written,
        stats.bytes_raw,
        stats.bytes_compressed,
        stats.compression_ratio()
    )
}

/// Builds the deterministic `champsim-run --metrics` document for one
/// simulation: the tool/core/trace labels, an `improvements` label when
/// the trace was converted (`Some` for CVP-family inputs), then the
/// report's `sim.*`/`memsys.*`/`bpred.*` export. The `champsim-run`
/// binary and `sim-server` build every file-backed document through
/// this function, which is what makes a server-fetched result for a
/// trace job byte-identical to a local `champsim-run --metrics` of the
/// same configuration.
pub fn champsim_run_registry(
    report: &sim::SimReport,
    core_name: &str,
    trace: &str,
    improvements: Option<ImprovementSet>,
) -> Registry {
    let mut registry = Registry::new();
    registry.label("tool", "champsim-run");
    registry.label("core", core_name);
    registry.label("trace", trace);
    if let Some(improvements) = improvements {
        registry.label("improvements", &improvements.to_string());
    }
    report.export(&mut registry);
    registry
}

/// Parses the value that follows `flag` on a command line, naming the
/// flag on failure: `--warmup needs a count` when the value is missing,
/// `--warmup needs a count, got "abc"` when it does not parse.
pub fn flag_value<T: FromStr>(flag: &str, what: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs {what}"))?;
    raw.parse().map_err(|_| format!("{flag} needs {what}, got {raw:?}"))
}

/// [`flag_value`] for a count or duration that must not be zero:
/// `--workers 0` fails with `--workers must be positive`.
pub fn positive_flag_value<T>(flag: &str, what: &str, value: Option<String>) -> Result<T, String>
where
    T: FromStr + Default + PartialEq,
{
    let n: T = flag_value(flag, what, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// Writes the registry's JSON document to `path` and prints a
/// confirmation to standard error (the binaries' `--metrics` epilogue).
pub fn write_metrics(path: &str, registry: &Registry) -> std::io::Result<()> {
    std::fs::write(path, registry.to_json())?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvp_trace::CvpInstruction;

    #[test]
    fn store_export_covers_volume_and_ratio() {
        let stats = StoreStats { blocks_written: 2, bytes_raw: 1000, bytes_compressed: 250 };
        let mut registry = Registry::new();
        export_store_stats(&stats, &mut registry);
        assert_eq!(registry.counter_value("store.blocks_written"), 2);
        assert_eq!(registry.counter_value("store.bytes_raw"), 1000);
        assert_eq!(registry.counter_value("store.bytes_compressed"), 250);
        assert!(registry.get("store.compression_ratio").is_some());
        assert_eq!(store_summary(&stats), "store: 2 blocks, 1000 -> 250 bytes (4.00x)");
    }

    #[test]
    fn etrace_export_covers_packets_and_ratios() {
        let stats = EtraceStats {
            items: 1000,
            packets: 40,
            flat_bytes: 9000,
            file_bytes: 1500,
            ..EtraceStats::default()
        };
        let mut registry = Registry::new();
        export_etrace_stats(&stats, &mut registry);
        assert_eq!(registry.counter_value("etrace.instructions"), 1000);
        assert_eq!(registry.counter_value("etrace.packets"), 40);
        assert_eq!(registry.counter_value("etrace.sync_recoveries"), 0);
        assert!(registry.get("etrace.bytes_per_instruction").is_some());
        assert!(registry.get("etrace.compression_ratio").is_some());
        assert_eq!(
            etrace_summary(&stats),
            "etrace: 1000 instructions, 40 packets, 9000 -> 1500 bytes (6.00x, 1.500 B/insn)"
        );
    }

    #[test]
    fn cvp_export_covers_mix_and_classes() {
        let mut stats = CvpTraceStats::new();
        stats.record(&CvpInstruction::alu(0).with_destination(1, 0u64));
        stats.record(&CvpInstruction::load(4, 0x100, 8).with_destination(2, 0u64));
        stats.record(&CvpInstruction::cond_branch(8, true, 0x40));
        let mut registry = Registry::new();
        export_cvp_stats(&stats, &mut registry);
        assert_eq!(registry.counter_value("cvp.instructions"), 3);
        assert_eq!(registry.counter_value("cvp.class.load.count"), 1);
        assert_eq!(registry.counter_value("cvp.class.cond-branch.count"), 1);
        assert!(registry.get("cvp.class.store.count").is_none(), "empty classes are skipped");
        assert!(registry.get("cvp.mean_sources").is_some());
    }
}
