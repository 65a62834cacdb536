//! The `grid` workload: the paper's figure grid over the CVP-1 public
//! suite at a short fixed trace length, on 2 scheduler threads.
//!
//! One operation is `Grid::compute_on_specs` over a chunk of
//! [`CHUNK`] traces: their 10 cells each (`No_imp` plus the 9
//! improvement configurations) go into one work-stealing queue, share
//! each generated trace through the artifact cache, and each convert
//! and simulate cold. Chunk `j` takes every 27th trace from `j`, so
//! every chunk mixes the suite's categories alike and operations cost
//! about the same. A pass walks the whole suite chunk by chunk.

use std::time::Instant;

use experiments::cache::CacheCounters;
use experiments::figures::Grid;
use experiments::runner::{self, ExperimentScale};
use sim::CoreConfig;
use workloads::{cvp1_public_suite, TraceSpec};

use crate::phase::{Metrics, Phase};
use crate::span::Tracer;
use crate::stats::{median, Digest};
use crate::{mix, render};

/// Instructions per generated trace: short, so per-cell fixed costs
/// (engine and predictor construction, cache lookups, scheduling) weigh.
const TRACE_LENGTH: usize = 5_000;
/// Scheduler threads.
pub const THREADS: usize = 2;
/// Traces per operation: 50 cells, enough that the two threads finish
/// a chunk together.
const CHUNK: usize = 5;
/// Chunks computed during set-up, as warm-up; their traces' digests
/// become the first references.
const WARM_CHUNKS: usize = 9;
/// Traces checked against the uncached serial path during set-up.
const SPOT_TRACES: [usize; 3] = [0, 31, 62];

/// Set-up state: the reseeded suite in chunks, and each trace's
/// reference digest.
pub struct GridWorkload {
    /// Each chunk's suite indices and specs.
    chunks: Vec<(Vec<usize>, Vec<TraceSpec>)>,
    core: CoreConfig,
    scale: ExperimentScale,
    /// A row's digest from its first computation in this process; every
    /// later computation must match it.
    row_digests: Vec<Option<u64>>,
}

/// The public suite with every trace's seed mixed with `seed`; knobs
/// and names are kept.
fn reseeded_suite(seed: u64) -> Vec<TraceSpec> {
    cvp1_public_suite()
        .into_iter()
        .map(|s| {
            let mut spec = TraceSpec::new(s.name(), s.kind(), mix(seed, s.seed()));
            spec.base_update_fraction = s.base_update_fraction;
            spec.x30_call_fraction = s.x30_call_fraction;
            spec.hard_branch_fraction = s.hard_branch_fraction;
            spec.register_branch_fraction = s.register_branch_fraction;
            spec.data_footprint_log2 = s.data_footprint_log2;
            spec.code_functions = s.code_functions;
            spec.load_pair_fraction = s.load_pair_fraction;
            spec.crossing_fraction = s.crossing_fraction;
            spec.prefetch_load_fraction = s.prefetch_load_fraction;
            spec.serial_chase_fraction = s.serial_chase_fraction;
            spec
        })
        .collect()
}

/// Digest of the 10 cell reports of trace `i` of a grid, in cell order.
fn row_digest(grid: &Grid, i: usize) -> u64 {
    let mut d = Digest::default();
    d.update(render(&grid.baseline[i].report).as_bytes());
    for (_, _, outcomes) in &grid.runs {
        d.update(render(&outcomes[i].report).as_bytes());
    }
    d.value()
}

fn instructions(grid: &Grid) -> u64 {
    grid.baseline
        .iter()
        .chain(grid.runs.iter().flat_map(|(_, _, o)| o))
        .map(|o| o.report.instructions)
        .sum()
}

impl GridWorkload {
    /// Reseeds the suite, computes the first [`WARM_CHUNKS`] chunks as
    /// warm-up, and checks the spot traces among them against the
    /// uncached serial path.
    pub fn setup(seed: u64) -> Result<GridWorkload, String> {
        runner::set_threads(THREADS);
        let specs = reseeded_suite(seed);
        let stride = specs.len().div_ceil(CHUNK);
        let chunks: Vec<(Vec<usize>, Vec<TraceSpec>)> = (0..stride)
            .map(|j| {
                let rows: Vec<usize> = (j..specs.len()).step_by(stride).collect();
                let chunk = rows.iter().map(|&r| specs[r].clone()).collect();
                (rows, chunk)
            })
            .collect();
        let core = CoreConfig::iiswc_main();
        let scale = ExperimentScale { trace_length: TRACE_LENGTH, warmup: 0 };
        let mut row_digests = vec![None; specs.len()];
        for (rows, chunk) in &chunks[..WARM_CHUNKS] {
            let (grid, _) = Grid::compute_on_specs(chunk, &core, scale);
            for (i, (&row, spec)) in rows.iter().zip(chunk).enumerate() {
                if SPOT_TRACES.contains(&row) {
                    let (label, imps, outcomes) = &grid.runs[grid.runs.len() - 1];
                    let serial = runner::simulate_conversion(spec, *imps, &core, scale);
                    if render(&serial.report) != render(&outcomes[i].report) {
                        return Err(format!(
                            "grid trace {row} ({label}) differs from the serial path"
                        ));
                    }
                }
                row_digests[row] = Some(row_digest(&grid, i));
            }
        }
        Ok(GridWorkload { chunks, core, scale, row_digests })
    }

    /// Runs chunks in order, wrapping into further passes, until
    /// `seconds` of chunk time have passed and at least `min_ops` chunks
    /// ran. Digests are taken between chunks, outside the timed calls.
    pub fn measure(
        &mut self,
        seconds: f64,
        min_ops: usize,
        traced: bool,
    ) -> (Phase, Option<Metrics>) {
        let mut tracer = Tracer::new(traced);
        let mut phase = Phase::default();
        let mut counters = CacheCounters::default();
        let mut digest = Digest::default();
        let mut op = 0usize;
        while phase.wall_s < seconds || phase.latencies_ms.len() < min_ops {
            let (rows, chunk) = &self.chunks[op % self.chunks.len()];
            let began = Instant::now();
            let (grid, report) = tracer.span("experiments.grid", |_| {
                Grid::compute_on_specs(chunk, &self.core, self.scale)
            });
            let elapsed = began.elapsed().as_secs_f64();
            phase.wall_s += elapsed;
            phase.attempted += 1;
            add_counters(&mut counters, &report.counters);
            let mut ok = true;
            for (i, &row) in rows.iter().enumerate() {
                let d = row_digest(&grid, i);
                let reference = *self.row_digests[row].get_or_insert(d);
                if d != reference {
                    eprintln!("grid: trace {row} digest {d:016x} != {reference:016x}");
                    ok = false;
                }
                if op < self.chunks.len() {
                    digest.update_u64(d);
                }
            }
            if ok {
                phase.instructions += instructions(&grid);
                phase.latencies_ms.push(elapsed * 1e3);
            } else {
                phase.failed += 1;
                phase.latencies_ms.push(f64::INFINITY);
            }
            op += 1;
        }
        phase.groups = phase.latencies_ms.len();
        phase.digest = digest.value();
        let layers = traced.then(|| self.layer_metrics(&counters, phase.wall_s));
        (phase, layers)
    }

    fn layer_metrics(&self, c: &CacheCounters, wall_s: f64) -> Metrics {
        let mut m = Metrics::default();
        let (generate, convert, simulate) =
            (c.generate_ns as f64 / 1e9, c.convert_ns as f64 / 1e9, c.simulate_ns as f64 / 1e9);
        m.push("workloads.generate_s", generate, "s");
        m.push("experiments.cache.trace_hit_rate", c.trace_hit_rate(), "ratio");
        m.push("experiments.cache.convert_hit_rate", c.convert_hit_rate(), "ratio");
        m.push("experiments.phase_s.generate", generate, "s");
        m.push("experiments.phase_s.convert", convert, "s");
        m.push("experiments.phase_s.simulate", simulate, "s");
        let busy = (generate + convert + simulate) / (wall_s * THREADS as f64);
        m.push("experiments.scheduler.busy_fraction", busy, "ratio");
        m.push("trace.accounted_pct", 100.0 * busy, "%");
        // A cold engine: `run_on` of an empty stream.
        let mut setups = Vec::new();
        for _ in 0..7 {
            let start = Instant::now();
            for _ in 0..20 {
                std::hint::black_box(sim::Simulator::run_on(
                    &self.core,
                    &[],
                    sim::RunOptions::default(),
                ));
            }
            setups.push(start.elapsed().as_secs_f64() * 1e6 / 20.0);
        }
        m.push("sim.cell_setup_us", median(&setups), "us");
        m
    }
}

fn add_counters(total: &mut CacheCounters, c: &CacheCounters) {
    total.trace_hits += c.trace_hits;
    total.trace_misses += c.trace_misses;
    total.convert_hits += c.convert_hits;
    total.convert_misses += c.convert_misses;
    total.generate_ns += c.generate_ns;
    total.convert_ns += c.convert_ns;
    total.simulate_ns += c.simulate_ns;
}
