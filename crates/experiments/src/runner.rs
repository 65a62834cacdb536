//! Shared conversion + simulation plumbing for all experiments.
//!
//! Two execution paths exist:
//!
//! * the **uncached serial path** ([`simulate_conversion`] /
//!   [`simulate_with_options`]) regenerates and reconverts its trace on
//!   every call — the reference semantics, kept for spot checks, the
//!   determinism tests and the benchmark's grid probe;
//! * the **scheduled path** ([`SharedRunner::simulate`], used by
//!   [`Grid::compute_on_specs`](crate::figures::Grid::compute_on_specs)
//!   and [`table3_with_report`](crate::tables::table3_with_report))
//!   fetches traces from an [`ArtifactCache`] and flattens all
//!   (trace × config) cells into one work-stealing job queue, so trace
//!   generation runs exactly once per `(spec, length)` and threads never
//!   idle at per-config barriers. Each job streams its conversion, which
//!   nothing else uses, in chunks into one fused simulation pass with a
//!   lane per prefetcher.
//!
//! Both paths simulate through [`Simulator::run_fused`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use champsim_trace::ChampsimRecord;
use converter::{ConversionStats, Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use sim::{CoreConfig, RunOptions, SimReport, Simulator};
use telemetry::json;
use workloads::TraceSpec;

use crate::cache::{ArtifactCache, CacheCounters};

/// How large each experiment runs. The paper uses the full traces (tens
/// of millions of instructions); the scales here trade fidelity for
/// wall-clock so the whole paper regenerates in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// CVP-1 instructions generated per trace.
    pub trace_length: usize,
    /// Records to warm up before measuring (Table 3 methodology).
    pub warmup: u64,
}

impl ExperimentScale {
    /// Minimal scale for CI smoke runs (`--scale smoke`): small enough
    /// for `experiments --all` to finish in well under a minute.
    pub fn smoke() -> ExperimentScale {
        ExperimentScale { trace_length: 5_000, warmup: 1_000 }
    }

    /// Quick scale for tests (~seconds for a handful of traces).
    pub fn test() -> ExperimentScale {
        ExperimentScale { trace_length: 20_000, warmup: 5_000 }
    }

    /// Default scale for regenerating the paper (~minutes for all
    /// experiments).
    pub fn paper() -> ExperimentScale {
        ExperimentScale { trace_length: 120_000, warmup: 30_000 }
    }

    /// The scale a `--scale` flag names: `smoke`, `test` or `paper`.
    pub fn from_name(name: &str) -> Option<ExperimentScale> {
        match name {
            "smoke" => Some(ExperimentScale::smoke()),
            "test" => Some(ExperimentScale::test()),
            "paper" => Some(ExperimentScale::paper()),
            _ => None,
        }
    }
}

/// The result of converting one trace one way and simulating it.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Trace name (from the [`TraceSpec`]).
    pub trace: String,
    /// Improvement set used for conversion.
    pub improvements: ImprovementSet,
    /// Simulation report.
    pub report: SimReport,
    /// Converter statistics for this trace.
    pub conversion: ConversionStats,
}

/// Converts `spec`'s trace with `improvements` and simulates it on
/// `core` (no warm-up, run to the end — the Figure 1–5 methodology).
pub fn simulate_conversion(
    spec: &TraceSpec,
    improvements: ImprovementSet,
    core: &CoreConfig,
    scale: ExperimentScale,
) -> TraceOutcome {
    simulate_with_options(spec, improvements, core, scale, 0, None)
}

/// Full-control variant: explicit warm-up and optional instruction
/// prefetcher (the Table 3 methodology).
pub fn simulate_with_options(
    spec: &TraceSpec,
    improvements: ImprovementSet,
    core: &CoreConfig,
    scale: ExperimentScale,
    warmup: u64,
    prefetcher: Option<&str>,
) -> TraceOutcome {
    let cvp = spec.clone().with_length(scale.trace_length).generate();
    let mut converter = Converter::new(improvements);
    // Stream conversion straight into the simulator: the record buffer
    // is never materialized, so this path allocates nothing per record.
    let report = Simulator::new(core.clone())
        .run_iter(converter.stream(cvp.iter()), run_options(warmup, prefetcher));
    TraceOutcome {
        trace: spec.name().to_owned(),
        improvements,
        report,
        conversion: *converter.stats(),
    }
}

fn run_options(warmup: u64, prefetcher: Option<&str>) -> RunOptions {
    let mut options = RunOptions::default().with_warmup(warmup);
    if let Some(name) = prefetcher {
        let pf = iprefetch::by_name(name)
            .unwrap_or_else(|| panic!("unknown instruction prefetcher {name:?}"));
        options = options.with_prefetcher(pf);
    }
    options
}

// ---------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------

/// `0` means "no override": fall back to the environment / hardware.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all subsequent parallel runs
/// (`0` restores automatic selection). The `experiments --threads` flag
/// feeds this.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The worker-thread count: the [`set_threads`] override if set, else
/// `EXPERIMENTS_THREADS` from the environment, else the machine's
/// available parallelism.
pub fn thread_count() -> usize {
    let n = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Some(n) = std::env::var("EXPERIMENTS_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

fn planned_threads(jobs: usize) -> usize {
    thread_count().min(jobs.max(1))
}

/// Serializes tests that mutate the global thread override (shared with
/// the metrics determinism tests).
#[cfg(test)]
pub(crate) static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// Work-stealing execution
// ---------------------------------------------------------------------

/// Runs `job(0..jobs)` across the worker threads, all stealing from one
/// atomic counter, and returns the results in index order.
///
/// Each result lands in its own slot (no shared-vector lock, so result
/// stores never contend), and a panicking job poisons only its own slot:
/// the other workers keep draining the queue, and the panic resurfaces
/// once every thread has finished.
pub fn parallel_cells<T, F>(jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = planned_threads(jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let value = job(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every slot filled")
        })
        .collect()
}

/// Runs `job` for every item in parallel (scoped threads, one queue),
/// preserving input order in the output.
pub fn parallel_map<I, T, F>(items: &[I], job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_cells(items.len(), |i| job(&items[i]))
}

// ---------------------------------------------------------------------
// Cache-backed execution
// ---------------------------------------------------------------------

/// Cache-backed executor: one per scheduled experiment, shared by
/// reference across the worker threads.
pub struct SharedRunner<'a> {
    /// The artifact cache all jobs fetch their traces from.
    pub cache: &'a ArtifactCache,
    /// Core configuration every job simulates on.
    pub core: &'a CoreConfig,
    /// Trace length and warm-up defaults.
    pub scale: ExperimentScale,
}

impl SharedRunner<'_> {
    /// Like [`simulate_with_options`], but fetching the trace through
    /// the cache. The conversion streams in chunks into one pass
    /// ([`Simulator::run_fused`]) that drives a lane per prefetcher,
    /// returning one outcome per lane in input order. A lane's report
    /// does not depend on the other lanes; pass `&[None]` for a single
    /// plain run.
    pub fn simulate(
        &self,
        spec: &TraceSpec,
        improvements: ImprovementSet,
        warmup: u64,
        prefetchers: &[Option<&str>],
    ) -> Vec<TraceOutcome> {
        let cvp = self.cache.trace(spec, self.scale.trace_length);
        let mut records = ChunkedConversion::new(&cvp, improvements);
        let start = Instant::now();
        let lanes =
            prefetchers.iter().map(|prefetcher| (self.core, run_options(warmup, *prefetcher)));
        let reports = Simulator::run_fused(lanes, &mut records);
        let pass_ns = start.elapsed().as_nanos() as u64;
        self.cache.add_conversion(records.convert_ns);
        self.cache.add_simulate_ns(pass_ns.saturating_sub(records.convert_ns));
        let conversion = *records.converter.stats();
        reports
            .into_iter()
            .map(|report| TraceOutcome {
                trace: spec.name().to_owned(),
                improvements,
                report,
                conversion,
            })
            .collect()
    }
}

/// Instructions converted per refill of a streamed conversion.
const CONVERT_CHUNK: usize = 4096;

/// A conversion streamed in [`CONVERT_CHUNK`]-instruction chunks
/// through one reused record buffer. Each refill is timed, so
/// conversion CPU stays separable from the simulation consuming the
/// records.
struct ChunkedConversion<'a> {
    chunks: std::slice::Chunks<'a, CvpInstruction>,
    converter: Converter,
    buffer: Vec<ChampsimRecord>,
    next: usize,
    convert_ns: u64,
}

impl ChunkedConversion<'_> {
    fn new(cvp: &[CvpInstruction], improvements: ImprovementSet) -> ChunkedConversion<'_> {
        ChunkedConversion {
            chunks: cvp.chunks(CONVERT_CHUNK),
            converter: Converter::new(improvements),
            buffer: Vec::with_capacity(2 * CONVERT_CHUNK),
            next: 0,
            convert_ns: 0,
        }
    }
}

impl Iterator for ChunkedConversion<'_> {
    type Item = ChampsimRecord;

    fn next(&mut self) -> Option<ChampsimRecord> {
        while self.next == self.buffer.len() {
            let chunk = self.chunks.next()?;
            let start = Instant::now();
            self.buffer.clear();
            self.converter.convert_into(chunk, &mut self.buffer);
            self.convert_ns += start.elapsed().as_nanos() as u64;
            self.next = 0;
        }
        self.next += 1;
        Some(self.buffer[self.next - 1])
    }
}

// ---------------------------------------------------------------------
// Scheduler reporting
// ---------------------------------------------------------------------

/// Timing and cache-effectiveness summary of one scheduled experiment.
#[derive(Debug, Clone)]
pub struct SchedulerReport {
    /// Which experiment ran (`grid`, `table3`, ...).
    pub label: String,
    /// Worker threads used.
    pub threads: usize,
    /// (trace × config) cells executed.
    pub jobs: usize,
    /// End-to-end wall-clock of the scheduled run.
    pub wall: Duration,
    /// Cache hit/miss counts and per-phase CPU time.
    pub counters: CacheCounters,
}

impl SchedulerReport {
    /// Human-readable form, printed by `experiments --stats`.
    pub fn render(&self) -> String {
        let c = &self.counters;
        format!(
            "scheduler [{label}]: {jobs} jobs on {threads} threads, wall {wall:.3} s\n\
             \x20 generate: {gen:.3} s CPU, {tm} misses / {th} hits ({tr:.1}% hit rate)\n\
             \x20 convert:  {conv:.3} s CPU, {cm} misses / {ch} hits ({cr:.1}% hit rate)\n\
             \x20 simulate: {sim:.3} s CPU\n\
             \x20 cache:    {peak:.1} MB peak resident, {ev} evictions\n",
            label = self.label,
            jobs = self.jobs,
            threads = self.threads,
            wall = self.wall.as_secs_f64(),
            gen = c.generate_ns as f64 / 1e9,
            tm = c.trace_misses,
            th = c.trace_hits,
            tr = 100.0 * c.trace_hit_rate(),
            conv = c.convert_ns as f64 / 1e9,
            cm = c.convert_misses,
            ch = c.convert_hits,
            cr = 100.0 * c.convert_hit_rate(),
            sim = c.simulate_ns as f64 / 1e9,
            peak = c.peak_resident_bytes as f64 / 1e6,
            ev = c.evictions,
        )
    }

    /// Writes this report as one `BENCH_experiments.json` row.
    fn write_row(&self, row: &mut json::Object<'_>) {
        let c = &self.counters;
        row.str("label", &self.label)
            .u64("threads", self.threads as u64)
            .u64("jobs", self.jobs as u64)
            .f64("wall_seconds", self.wall.as_secs_f64())
            .f64("generate_seconds", c.generate_ns as f64 / 1e9)
            .f64("convert_seconds", c.convert_ns as f64 / 1e9)
            .f64("simulate_seconds", c.simulate_ns as f64 / 1e9)
            .u64("trace_hits", c.trace_hits)
            .u64("trace_misses", c.trace_misses)
            .f64("trace_hit_rate", c.trace_hit_rate())
            .u64("convert_hits", c.convert_hits)
            .u64("convert_misses", c.convert_misses)
            .f64("convert_hit_rate", c.convert_hit_rate())
            .u64("evictions", c.evictions)
            .u64("peak_resident_bytes", c.peak_resident_bytes);
    }
}

/// The `BENCH_experiments.json` document for a set of scheduled runs.
pub fn reports_to_json(reports: &[SchedulerReport]) -> String {
    let mut doc = json::object(|o| {
        o.objects("reports", reports, |row, report| report.write_row(row));
    });
    doc.push('\n');
    doc
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty set");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use workloads::WorkloadKind;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let specs: Vec<TraceSpec> =
            (0..10).map(|i| TraceSpec::new(format!("t{i}"), WorkloadKind::Crypto, i)).collect();
        let names = parallel_map(&specs, |s| s.name().to_owned());
        for (i, n) in names.iter().enumerate() {
            assert_eq!(n, &format!("t{i}"));
        }
    }

    #[test]
    fn parallel_cells_handles_empty_and_single() {
        let empty: Vec<usize> = parallel_cells(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_cells(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn panicking_job_propagates_without_poisoning_others() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Force several workers even on a single-core machine so the
        // survivors can drain the queue past the panicking job.
        set_threads(4);
        let items: Vec<usize> = (0..32).collect();
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |&i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                i * 2
            })
        }));
        set_threads(0);
        assert!(result.is_err(), "the panic propagates to the caller");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            items.len() - 1,
            "every unrelated job still ran to completion"
        );
    }

    #[test]
    fn thread_count_respects_override() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(3);
        assert_eq!(thread_count(), 3);
        set_threads(0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn thread_count_defaults_to_available_parallelism() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(0);
        if std::env::var("EXPERIMENTS_THREADS").is_ok() {
            // The environment override outranks the hardware default;
            // nothing to pin in that configuration.
            return;
        }
        let expected = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(thread_count(), expected);
    }

    #[test]
    fn simulate_conversion_produces_consistent_outcome() {
        let spec = TraceSpec::new("t", WorkloadKind::Crypto, 3).with_length(5_000);
        let out = simulate_conversion(
            &spec,
            ImprovementSet::all(),
            &CoreConfig::test_small(),
            ExperimentScale { trace_length: 5_000, warmup: 0 },
        );
        assert_eq!(out.trace, "t");
        assert_eq!(out.conversion.input_instructions, 5_000);
        assert_eq!(out.report.instructions, out.conversion.output_records);
        assert!(out.report.ipc() > 0.0);
    }

    #[test]
    fn shared_runner_matches_uncached_path() {
        let spec = TraceSpec::new("t", WorkloadKind::Server, 7).with_length(4_000);
        let core = CoreConfig::test_small();
        let scale = ExperimentScale { trace_length: 4_000, warmup: 0 };
        let serial = simulate_conversion(&spec, ImprovementSet::all(), &core, scale);
        let cache = ArtifactCache::new();
        let runner = SharedRunner { cache: &cache, core: &core, scale };
        let shared = runner.simulate(&spec, ImprovementSet::all(), 0, &[None]).remove(0);
        assert_eq!(shared.report.ipc().to_bits(), serial.report.ipc().to_bits());
        assert_eq!(shared.conversion, serial.conversion);
    }

    #[test]
    fn fused_runner_matches_solo_lanes_across_families() {
        // Every workload family, through the same cache, must produce
        // bit-identical reports whether a lane runs with others or alone.
        for (kind, seed) in [
            (WorkloadKind::Crypto, 3u64),
            (WorkloadKind::Streaming, 7),
            (WorkloadKind::PointerChase, 11),
            (WorkloadKind::BranchyInt, 13),
        ] {
            let spec = TraceSpec::new("t", kind, seed).with_length(4_000);
            let core = CoreConfig::test_small();
            let scale = ExperimentScale { trace_length: 4_000, warmup: 0 };
            let cache = ArtifactCache::new();
            let runner = SharedRunner { cache: &cache, core: &core, scale };
            let lanes = [None, Some("next-line")];
            let fused = runner.simulate(&spec, ImprovementSet::all(), 500, &lanes);
            assert_eq!(fused.len(), lanes.len());
            for (outcome, prefetcher) in fused.iter().zip(lanes) {
                let solo =
                    runner.simulate(&spec, ImprovementSet::all(), 500, &[prefetcher]).remove(0);
                assert_eq!(
                    outcome.report.ipc().to_bits(),
                    solo.report.ipc().to_bits(),
                    "{kind:?} lane {prefetcher:?} diverges from the solo run"
                );
                assert_eq!(outcome.report.instructions, solo.report.instructions);
                assert_eq!(outcome.conversion, solo.conversion);
            }
        }
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = SchedulerReport {
            label: "grid".into(),
            threads: 4,
            jobs: 40,
            wall: Duration::from_millis(1500),
            counters: CacheCounters {
                trace_hits: 36,
                trace_misses: 4,
                convert_hits: 0,
                convert_misses: 40,
                evictions: 3,
                peak_resident_bytes: 12_500_000,
                generate_ns: 2_000_000_000,
                convert_ns: 1_000_000_000,
                simulate_ns: 3_000_000_000,
            },
        };
        let text = report.render();
        assert!(text.contains("[grid]"), "{text}");
        assert!(text.contains("40 jobs on 4 threads"), "{text}");
        assert!(text.contains("90.0% hit rate"), "{text}");
        let json = reports_to_json(&[report]);
        assert!(json.starts_with("{\"reports\":[{"), "{json}");
        assert!(json.contains("\"label\":\"grid\""), "{json}");
        assert!(json.contains("\"wall_seconds\":1.500000"), "{json}");
        assert!(json.contains("\"trace_hit_rate\":0.900000"), "{json}");
        assert!(json.contains("\"peak_resident_bytes\":12500000"), "{json}");
        assert!(text.contains("cache:    12.5 MB peak resident, 3 evictions"), "{text}");
        assert!(json.contains("\"evictions\":3,"), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }
}
