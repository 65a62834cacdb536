//! Thread-safe artifact cache for the experiment scheduler and the job
//! server.
//!
//! Every `(trace, config)` cell of an experiment needs the trace's CVP
//! instruction stream; without sharing, the grid would regenerate each
//! trace once per improvement set (10×) and Table 3 once per conversion.
//! The cache generates each trace exactly once per `(TraceSpec, length)`
//! key and hands out `Arc` clones.
//!
//! At paper scale the whole suite would not fit in memory (135 traces ×
//! 120k instructions ≈ 1.8 GB of instructions), so trace fetches use
//! **budgeted eviction**: each fetch declares the total number of uses
//! planned for its key, and the entry leaves the cache after the last
//! planned fetch. With the scheduler's trace-major job order the live
//! window stays a handful of traces wide regardless of suite size. All
//! fetchers of one key must declare the same total; a fetch beyond the
//! declared budget recomputes (and recounts as a miss).
//!
//! Conversions have two rules. An experiment cell uses its conversion
//! exactly once, so [`SharedRunner::simulate`] streams it straight into
//! the simulator and only reports its count and CPU time here
//! ([`ArtifactCache::add_conversion`]). The job server cannot know its
//! future requests, so [`ArtifactCache::converted_shared`] keeps each
//! `(TraceSpec, length, ImprovementSet)` conversion, and the trace it
//! came from, for the cache's lifetime.
//!
//! The cache also aggregates per-phase CPU time (generate / convert /
//! simulate), hit/miss counts and the high-water mark of resident
//! artifact bytes, snapshot via [`ArtifactCache::counters`].
//!
//! [`SharedRunner::simulate`]: crate::runner::SharedRunner::simulate

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use champsim_trace::{ChampsimRecord, RECORD_BYTES};
use converter::{ConversionStats, Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use workloads::TraceSpec;

/// A converted trace: the immutable shared record buffer plus the
/// conversion statistics that produced it. Cloning is cheap.
#[derive(Debug, Clone)]
pub struct ConvertedTrace {
    /// ChampSim records, shared by every simulation of this conversion.
    pub records: Arc<[ChampsimRecord]>,
    /// Converter statistics for this trace and improvement set.
    pub stats: ConversionStats,
}

/// Counter snapshot: cache effectiveness and per-phase CPU time.
///
/// The `*_ns` fields are summed across worker threads, so they measure
/// CPU time, not wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Trace fetches served from the cache.
    pub trace_hits: u64,
    /// Trace fetches that ran the generator.
    pub trace_misses: u64,
    /// Shared conversion fetches served from the cache.
    pub convert_hits: u64,
    /// Conversions run: each streamed experiment conversion, and each
    /// shared conversion computed on its first fetch.
    pub convert_misses: u64,
    /// High-water mark of resident artifact bytes: artifacts held
    /// between their computation and their last planned fetch (the
    /// run's cache working set).
    pub peak_resident_bytes: u64,
    /// Nanoseconds spent generating CVP traces.
    pub generate_ns: u64,
    /// Nanoseconds spent converting to ChampSim records.
    pub convert_ns: u64,
    /// Nanoseconds spent simulating.
    pub simulate_ns: u64,
}

impl CacheCounters {
    /// Hit rate of the trace cache in `0..=1` (0 when never queried).
    pub fn trace_hit_rate(&self) -> f64 {
        hit_rate(self.trace_hits, self.trace_misses)
    }

    /// Hit rate of the conversion cache in `0..=1`.
    pub fn convert_hit_rate(&self) -> f64 {
        hit_rate(self.convert_hits, self.convert_misses)
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// An artifact the cache holds, with its resident size.
trait Artifact: Clone {
    /// Approximate payload size, charged to the resident total.
    fn mem_bytes(&self) -> u64;
}

impl Artifact for Arc<[CvpInstruction]> {
    fn mem_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<CvpInstruction>()) as u64
    }
}

impl Artifact for ConvertedTrace {
    fn mem_bytes(&self) -> u64 {
        (self.records.len() * RECORD_BYTES) as u64
    }
}

/// One cached artifact: the compute-once cell plus its remaining budget.
struct Entry<T> {
    /// Filled by the first fetcher. Later fetchers of *this* key wait
    /// for it; fetchers of other keys never do.
    cell: Arc<OnceLock<T>>,
    /// Planned fetches left before the entry leaves the map.
    remaining: u64,
}

type Map<K, T> = Mutex<HashMap<K, Entry<T>>>;

/// Recovers a lock from a panicked holder: a map is valid at any
/// observable point.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared artifact cache. One instance per scheduled experiment or
/// server; share it by reference across worker threads.
#[derive(Default)]
pub struct ArtifactCache {
    traces: Map<TraceSpec, Arc<[CvpInstruction]>>,
    conversions: Map<(TraceSpec, ImprovementSet), ConvertedTrace>,
    /// Bytes of artifacts between computation and last planned fetch.
    resident: AtomicU64,
    /// High-water mark of `resident`.
    peak_bytes: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    convert_hits: AtomicU64,
    convert_misses: AtomicU64,
    generate_ns: AtomicU64,
    convert_ns: AtomicU64,
    simulate_ns: AtomicU64,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Fetches (generating on first use) the CVP instruction stream for
    /// `spec` truncated/extended to `length` instructions. `uses` is the
    /// total number of fetches planned for this `(spec, length)` key
    /// across the whole run; after the last one the buffer leaves the
    /// cache (callers' `Arc` clones stay valid). `u64::MAX` keeps it for
    /// the cache's lifetime.
    pub fn trace(&self, spec: &TraceSpec, length: usize, uses: u64) -> Arc<[CvpInstruction]> {
        let key = spec.clone().with_length(length);
        self.fetch(&self.traces, &key, uses, (&self.trace_hits, &self.trace_misses), || {
            let start = Instant::now();
            let trace: Arc<[CvpInstruction]> = Arc::from(key.generate());
            self.generate_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            trace
        })
    }

    /// Fetches (converting on first use) the ChampSim record buffer for
    /// `spec` at `length` under `improvements`. The conversion and its
    /// trace stay cached for every later fetch: a serving workload
    /// cannot declare its fetch count up front, since jobs arrive over
    /// the process lifetime.
    pub fn converted_shared(
        &self,
        spec: &TraceSpec,
        length: usize,
        improvements: ImprovementSet,
    ) -> ConvertedTrace {
        let key = (spec.clone().with_length(length), improvements);
        let counters = (&self.convert_hits, &self.convert_misses);
        self.fetch(&self.conversions, &key, u64::MAX, counters, || {
            let cvp = self.trace(spec, length, u64::MAX);
            // The trace fetch times itself into `generate_ns`; only the
            // converter run below counts as conversion time.
            let start = Instant::now();
            let mut converter = Converter::new(improvements);
            let records = converter.convert_all(cvp.iter());
            self.convert_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            ConvertedTrace { records: Arc::from(records), stats: *converter.stats() }
        })
    }

    /// Counts one conversion run outside the cache (an experiment
    /// cell's streamed conversion) and adds its CPU time.
    pub fn add_conversion(&self, ns: u64) {
        self.convert_misses.fetch_add(1, Ordering::Relaxed);
        self.convert_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds simulation CPU time to the phase accounting.
    pub fn add_simulate_ns(&self, ns: u64) {
        self.simulate_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot of the hit/miss, residency, and per-phase timing
    /// counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            convert_hits: self.convert_hits.load(Ordering::Relaxed),
            convert_misses: self.convert_misses.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_bytes.load(Ordering::Relaxed),
            generate_ns: self.generate_ns.load(Ordering::Relaxed),
            convert_ns: self.convert_ns.load(Ordering::Relaxed),
            simulate_ns: self.simulate_ns.load(Ordering::Relaxed),
        }
    }

    /// Number of trace buffers currently held (0 once every budget is
    /// spent — the memory-bound guarantee).
    pub fn live_traces(&self) -> usize {
        lock(&self.traces).len()
    }

    /// Number of shared conversion buffers currently held.
    pub fn live_conversions(&self) -> usize {
        lock(&self.conversions).len()
    }

    /// Resident artifact bytes: artifacts between their computation and
    /// their last planned fetch.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Compute-once fetch with budgeted eviction.
    ///
    /// Under the map lock the entry is found or created and its budget
    /// decremented, removing it at zero; the value is then computed or
    /// read through the entry's own cell, so distinct keys never
    /// serialize each other and concurrent fetchers of one key compute
    /// it exactly once. The fetch that computes counts the miss.
    ///
    /// An artifact counts as resident from its computation until its
    /// last planned fetch; when one fetch is both, it never does.
    fn fetch<K, T>(
        &self,
        map: &Map<K, T>,
        key: &K,
        uses: u64,
        (hits, misses): (&AtomicU64, &AtomicU64),
        compute: impl FnOnce() -> T,
    ) -> T
    where
        K: Eq + Hash + Clone,
        T: Artifact,
    {
        let (cell, last) = {
            let mut map = lock(map);
            let entry = map
                .entry(key.clone())
                .or_insert_with(|| Entry { cell: Arc::default(), remaining: uses.max(1) });
            entry.remaining -= 1;
            let cell = Arc::clone(&entry.cell);
            let last = entry.remaining == 0;
            if last {
                map.remove(key);
            }
            (cell, last)
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                misses.fetch_add(1, Ordering::Relaxed);
                let value = compute();
                if !last {
                    let bytes = value.mem_bytes();
                    let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
                    self.peak_bytes.fetch_max(now, Ordering::Relaxed);
                }
                value
            })
            .clone();
        if !computed {
            hits.fetch_add(1, Ordering::Relaxed);
            if last {
                self.resident.fetch_sub(value.mem_bytes(), Ordering::Relaxed);
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{parallel_cells, ExperimentScale, SharedRunner};
    use sim::CoreConfig;
    use workloads::WorkloadKind;

    fn spec(seed: u64) -> TraceSpec {
        TraceSpec::new(format!("cache_t{seed}"), WorkloadKind::Crypto, seed)
    }

    #[test]
    fn trace_generates_exactly_once_under_concurrency() {
        let cache = ArtifactCache::new();
        let s = spec(1);
        let uses = 16u64;
        let traces = parallel_cells(uses as usize, |_| cache.trace(&s, 2_000, uses));
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1);
        assert_eq!(c.trace_hits, uses - 1);
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]), "all fetches share one buffer");
        }
        assert_eq!(cache.live_traces(), 0, "budget spent, buffer evicted");
        assert_eq!(cache.resident_bytes(), 0, "nothing left charged");
    }

    #[test]
    fn distinct_lengths_are_distinct_keys() {
        let cache = ArtifactCache::new();
        let s = spec(2);
        let a = cache.trace(&s, 1_000, 1);
        let b = cache.trace(&s, 2_000, 1);
        assert_eq!(a.len(), 1_000);
        assert_eq!(b.len(), 2_000);
        assert_eq!(cache.counters().trace_misses, 2);
    }

    #[test]
    fn conversions_share_the_underlying_trace() {
        let cache = ArtifactCache::new();
        let core = CoreConfig::test_small();
        let scale = ExperimentScale { trace_length: 2_000, warmup: 0 };
        let runner = SharedRunner { cache: &cache, core: &core, scale };
        let s = spec(3);
        let a = runner.simulate(&s, ImprovementSet::none(), 0, &[None], 2).remove(0);
        let b = runner.simulate(&s, ImprovementSet::all(), 0, &[None], 2).remove(0);
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "one generation feeds both conversions");
        assert_eq!(c.trace_hits, 1);
        assert_eq!(c.convert_misses, 2, "each streamed conversion counts once");
        assert_eq!(c.convert_hits, 0);
        assert_eq!(a.conversion.input_instructions, 2_000);
        assert_eq!(b.conversion.input_instructions, 2_000);
        assert_eq!(cache.live_traces(), 0);
        assert_eq!(cache.live_conversions(), 0, "streamed conversions are never cached");
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn conversion_fetches_hit_and_match() {
        let cache = ArtifactCache::new();
        let s = spec(4);
        let fetches = 8;
        let all =
            parallel_cells(fetches, |_| cache.converted_shared(&s, 2_000, ImprovementSet::all()));
        let c = cache.counters();
        assert_eq!(c.convert_misses, 1);
        assert_eq!(c.convert_hits, fetches as u64 - 1);
        for conv in &all {
            assert!(Arc::ptr_eq(&conv.records, &all[0].records));
            assert_eq!(conv.stats, all[0].stats);
        }
        assert_eq!(cache.live_conversions(), 1);
    }

    #[test]
    fn fetch_beyond_budget_recomputes() {
        let cache = ArtifactCache::new();
        let s = spec(5);
        let a = cache.trace(&s, 1_000, 1);
        let b = cache.trace(&s, 1_000, 1);
        assert_eq!(cache.counters().trace_misses, 2, "budget of 1 spent twice");
        assert_eq!(a, b, "recomputation is deterministic");
    }

    #[test]
    fn resident_bytes_span_computation_to_last_planned_fetch() {
        let cache = ArtifactCache::new();
        let bytes = (2_000 * std::mem::size_of::<CvpInstruction>()) as u64;
        cache.trace(&spec(6), 2_000, 1);
        assert_eq!(cache.counters().peak_resident_bytes, 0, "a single-use trace is never held");
        cache.trace(&spec(7), 2_000, 2);
        assert_eq!(cache.resident_bytes(), bytes, "held until its second fetch");
        cache.trace(&spec(7), 2_000, 2);
        assert_eq!(cache.resident_bytes(), 0, "released by the last planned fetch");
        assert_eq!(cache.counters().peak_resident_bytes, bytes);
    }

    #[test]
    fn timing_counters_accumulate() {
        let cache = ArtifactCache::new();
        let s = spec(6);
        cache.converted_shared(&s, 4_000, ImprovementSet::all());
        cache.add_simulate_ns(123);
        let c = cache.counters();
        assert!(c.generate_ns > 0, "generation was timed");
        assert!(c.convert_ns > 0, "conversion was timed");
        assert_eq!(c.simulate_ns, 123);
    }

    #[test]
    fn hit_rates_handle_empty_and_full() {
        let mut c = CacheCounters::default();
        assert_eq!(c.trace_hit_rate(), 0.0);
        c.trace_hits = 9;
        c.trace_misses = 1;
        assert!((c.trace_hit_rate() - 0.9).abs() < 1e-12);
        c.convert_misses = 4;
        assert_eq!(c.convert_hit_rate(), 0.0);
    }

    #[test]
    fn shared_fetches_stay_cached_across_requests() {
        let cache = ArtifactCache::new();
        let s = spec(30);
        let first = cache.trace(&s, 2_000, u64::MAX);
        for _ in 0..5 {
            let again = cache.trace(&s, 2_000, u64::MAX);
            assert!(Arc::ptr_eq(&first, &again), "every request shares one buffer");
        }
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "generated once for the whole sequence");
        assert_eq!(c.trace_hits, 5);
        assert_eq!(cache.live_traces(), 1, "open-ended budget keeps the entry live");
    }

    #[test]
    fn shared_conversions_reuse_trace_and_records() {
        let cache = ArtifactCache::new();
        let s = spec(31);
        let a = cache.converted_shared(&s, 2_000, ImprovementSet::all());
        let b = cache.converted_shared(&s, 2_000, ImprovementSet::all());
        let other = cache.converted_shared(&s, 2_000, ImprovementSet::none());
        assert!(Arc::ptr_eq(&a.records, &b.records));
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "both improvement sets convert one generation");
        assert_eq!(c.convert_misses, 2);
        assert_eq!(c.convert_hits, 1);
        assert_eq!(other.stats.input_instructions, 2_000);
        assert_eq!(cache.live_conversions(), 2);
    }
}
