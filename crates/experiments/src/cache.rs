//! Thread-safe artifact cache for the experiment scheduler and the job
//! server.
//!
//! Every `(trace, config)` cell of an experiment needs the trace's CVP
//! instruction stream; without sharing, the grid would regenerate each
//! trace once per improvement set (10×) and Table 3 once per conversion.
//! The cache computes each artifact once per key and hands out `Arc`
//! clones.
//!
//! One rule bounds its memory: **idle entries are evicted, least
//! recently used first, while the resident bytes exceed the budget**
//! ([`ArtifactCache::budget_bytes`]). Each fetch stamps its entry as the
//! most recent once the artifact is ready, so a conversion is always
//! more recent than the trace it was converted from. After the fetch,
//! while the resident total is over the budget, idle entries (computed,
//! and held by no caller) leave the cache, least recently fetched first.
//! An entry still computing or still held is never evicted, so the
//! total exceeds the budget only while callers hold more than it. An
//! evicted artifact is recomputed, and counted as a miss, on its next
//! fetch; artifacts are deterministic, so that changes no result.
//!
//! The budget is [`BUDGET_BYTES`], or [`BUDGET_ARTIFACTS`] times the
//! largest artifact the cache has computed if that is more: the floor
//! holds working sets of many small sources, the multiple working sets
//! of a few large ones.
//!
//! The scheduler orders experiment cells trace-major, so the traces in
//! use at once are the few in flight, and the budget holds them: each
//! trace still generates once. Each experiment cell uses its conversion
//! exactly once, so [`SharedRunner::simulate`] streams it straight into
//! the simulator and only reports its count and CPU time here
//! ([`ArtifactCache::add_conversion`]). The job server cannot know its
//! future requests; [`ArtifactCache::converted_shared`] caches each
//! `(TraceSpec, length, ImprovementSet)` conversion, and the trace it
//! came from, under the same rule.
//!
//! The cache also aggregates per-phase CPU time (generate / convert /
//! simulate), hit, miss and eviction counts, and the high-water mark of
//! resident artifact bytes, snapshot via [`ArtifactCache::counters`].
//!
//! [`SharedRunner::simulate`]: crate::runner::SharedRunner::simulate

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use champsim_trace::{ChampsimRecord, RECORD_BYTES};
use converter::{ConversionStats, Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use workloads::TraceSpec;

/// The budget's floor in resident artifact bytes. The largest in-tree
/// working set of small sources is the paper-scale grid at two threads:
/// two 13.44 MB traces in flight.
pub const BUDGET_BYTES: u64 = 32 << 20;

/// The budget in multiples of the largest artifact computed, where that
/// exceeds [`BUDGET_BYTES`]. A single-worker server alternating between
/// two sources keeps both conversions and the newer trace, about 2.2 of
/// the largest artifact (a trace); server_bench's sharding phase does
/// that with 200k- and 400k-instruction sources.
pub const BUDGET_ARTIFACTS: u64 = 3;

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
    /// shared conversion computed on a fetch that missed.
    pub convert_misses: u64,
    /// Idle artifacts evicted to bring the resident bytes back within
    /// the budget.
    pub evictions: u64,
    /// High-water mark of resident artifact bytes: artifacts held from
    /// their computation until their eviction.
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

/// What an artifact is computed from: a trace spec at its length, and
/// for a conversion the improvement set.
type Key = (TraceSpec, Option<ImprovementSet>);

/// An artifact the cache holds.
#[derive(Clone)]
enum Artifact {
    Trace(Arc<[CvpInstruction]>),
    Converted(ConvertedTrace),
}

impl Artifact {
    /// The payload's resident bytes, and whether a clone outside the
    /// cache still holds it.
    fn footprint(&self) -> (u64, bool) {
        let (len, size, holders) = match self {
            Artifact::Trace(t) => (t.len(), size_of::<CvpInstruction>(), Arc::strong_count(t)),
            Artifact::Converted(c) => {
                (c.records.len(), RECORD_BYTES, Arc::strong_count(&c.records))
            }
        };
        ((len * size) as u64, holders > 1)
    }
}

/// An artifact's compute-once cell. The first fetcher fills it; later
/// fetchers of *this* key wait for it, fetchers of other keys never do.
type Cell = Arc<OnceLock<Artifact>>;

/// The resident bytes of an idle artifact: computed, with no fetcher
/// holding its cell and no caller holding its payload. `None` for one
/// in use. Fetchers clone a cell only under the entries lock, so an
/// artifact idle under that lock stays idle until it is released.
fn idle_bytes(cell: &Cell) -> Option<u64> {
    let (bytes, shared) = cell.get()?.footprint();
    (!shared && Arc::strong_count(cell) == 1).then_some(bytes)
}

/// Recovers a lock from a panicked holder: the entries are valid at any
/// observable point.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cached artifacts, found by key and ordered by recency.
#[derive(Default)]
struct Entries {
    /// Each artifact's cell and recency stamp.
    cells: HashMap<Key, (Cell, u64)>,
    /// The same keys by stamp, least recently fetched first.
    recency: BTreeMap<u64, Key>,
    /// The last stamp issued.
    clock: u64,
}

impl Entries {
    /// Stamps `key`'s entry, created if absent, as the most recently
    /// fetched, and returns its cell.
    fn touch(&mut self, key: &Key) -> Cell {
        self.clock += 1;
        // A new entry's stamp is 0, which no entry holds in `recency`.
        let (cell, stamp) = self.cells.entry(key.clone()).or_default();
        self.recency.remove(stamp);
        *stamp = self.clock;
        self.recency.insert(self.clock, key.clone());
        Arc::clone(cell)
    }
}

/// The shared artifact cache. One instance per scheduled experiment or
/// server; share it by reference across worker threads.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Mutex<Entries>,
    /// Bytes of artifacts computed and not yet evicted.
    resident: AtomicU64,
    /// High-water mark of `resident`.
    peak_bytes: AtomicU64,
    /// Bytes of the largest artifact computed.
    largest: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    convert_hits: AtomicU64,
    convert_misses: AtomicU64,
    evictions: AtomicU64,
    generate_ns: AtomicU64,
    convert_ns: AtomicU64,
    simulate_ns: AtomicU64,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Fetches (generating on a miss) the CVP instruction stream for
    /// `spec` truncated/extended to `length` instructions.
    pub fn trace(&self, spec: &TraceSpec, length: usize) -> Arc<[CvpInstruction]> {
        let spec = spec.clone().with_length(length);
        match self.fetch((spec.clone(), None), (&self.trace_hits, &self.trace_misses), || {
            let start = Instant::now();
            let trace = Arc::from(spec.generate());
            self.generate_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Artifact::Trace(trace)
        }) {
            Artifact::Trace(trace) => trace,
            Artifact::Converted(_) => unreachable!("a trace key holds a trace"),
        }
    }

    /// Fetches (converting on a miss) the ChampSim record buffer for
    /// `spec` at `length` under `improvements`, through the trace cache.
    pub fn converted_shared(
        &self,
        spec: &TraceSpec,
        length: usize,
        improvements: ImprovementSet,
    ) -> ConvertedTrace {
        let key = (spec.clone().with_length(length), Some(improvements));
        match self.fetch(key, (&self.convert_hits, &self.convert_misses), || {
            let cvp = self.trace(spec, length);
            // The trace fetch times itself into `generate_ns`; only the
            // converter run below counts as conversion time.
            let start = Instant::now();
            let mut converter = Converter::new(improvements);
            let records = converter.convert_all(cvp.iter());
            self.convert_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let converted = ConvertedTrace { records: records.into(), stats: *converter.stats() };
            Artifact::Converted(converted)
        }) {
            Artifact::Converted(converted) => converted,
            Artifact::Trace(_) => unreachable!("a conversion key holds a conversion"),
        }
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

    /// Snapshot of the hit/miss, eviction, residency, and per-phase
    /// timing counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            convert_hits: self.convert_hits.load(Ordering::Relaxed),
            convert_misses: self.convert_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_bytes.load(Ordering::Relaxed),
            generate_ns: self.generate_ns.load(Ordering::Relaxed),
            convert_ns: self.convert_ns.load(Ordering::Relaxed),
            simulate_ns: self.simulate_ns.load(Ordering::Relaxed),
        }
    }

    /// Resident artifact bytes: artifacts computed and not yet evicted.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The resident bytes above which idle artifacts are evicted:
    /// [`BUDGET_BYTES`], or [`BUDGET_ARTIFACTS`] times the largest
    /// artifact computed if that is more.
    pub fn budget_bytes(&self) -> u64 {
        BUDGET_BYTES.max(BUDGET_ARTIFACTS * self.largest.load(Ordering::Relaxed))
    }

    /// Compute-once fetch, then eviction down to the budget.
    ///
    /// Under the entries lock the entry is found or created; the value
    /// is then computed or read through the entry's own cell, so
    /// distinct keys never serialize each other and concurrent fetchers
    /// of one key compute it exactly once. The fetch that computes
    /// counts the miss and charges the artifact as resident.
    fn fetch(
        &self,
        key: Key,
        (hits, misses): (&AtomicU64, &AtomicU64),
        compute: impl FnOnce() -> Artifact,
    ) -> Artifact {
        let cell = lock(&self.entries).touch(&key);
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                misses.fetch_add(1, Ordering::Relaxed);
                let value = compute();
                let bytes = value.footprint().0;
                self.largest.fetch_max(bytes, Ordering::Relaxed);
                let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.peak_bytes.fetch_max(now, Ordering::Relaxed);
                value
            })
            .clone();
        if !computed {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        self.settle(&key);
        value
    }

    /// Stamps `key`'s ready entry as the most recently fetched, then
    /// evicts idle entries, least recently fetched first, while the
    /// resident bytes exceed the budget. The total is read under the
    /// entries lock, so concurrent evictions each see the others'.
    fn settle(&self, key: &Key) {
        let mut entries = lock(&self.entries);
        entries.touch(key);
        let budget = self.budget_bytes();
        let mut resident = self.resident.load(Ordering::Relaxed);
        let mut evicted = Vec::new();
        for (&stamp, key) in &entries.recency {
            if resident <= budget {
                break;
            }
            if let Some(bytes) = idle_bytes(&entries.cells[key].0) {
                resident -= bytes;
                self.resident.fetch_sub(bytes, Ordering::Relaxed);
                evicted.push(stamp);
            }
        }
        self.evictions.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        for stamp in evicted {
            let key = entries.recency.remove(&stamp).expect("a stamp just seen");
            entries.cells.remove(&key);
        }
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

    impl ArtifactCache {
        /// Held entries of one kind: conversions, or else traces.
        fn live(&self, conversions: bool) -> usize {
            let entries = lock(&self.entries);
            entries.cells.keys().filter(|(_, imps)| imps.is_some() == conversions).count()
        }

        fn live_traces(&self) -> usize {
            self.live(false)
        }

        fn live_conversions(&self) -> usize {
            self.live(true)
        }

        /// Bytes of every computed artifact the cache still holds.
        fn held_bytes(&self) -> u64 {
            let entries = lock(&self.entries);
            entries.cells.values().filter_map(|(cell, _)| cell.get()).map(|a| a.footprint().0).sum()
        }
    }

    /// Resident bytes of a `length`-instruction trace.
    fn trace_bytes(length: usize) -> u64 {
        (length * size_of::<CvpInstruction>()) as u64
    }

    #[test]
    fn trace_generates_exactly_once_under_concurrency() {
        let cache = ArtifactCache::new();
        let s = spec(1);
        let fetches = 16;
        let traces = parallel_cells(fetches, |_| cache.trace(&s, 2_000));
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1);
        assert_eq!(c.trace_hits, fetches as u64 - 1);
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]), "all fetches share one buffer");
        }
        assert_eq!(cache.live_traces(), 1, "within budget, the buffer stays");
        assert_eq!(cache.resident_bytes(), trace_bytes(2_000));
    }

    #[test]
    fn distinct_lengths_are_distinct_keys() {
        let cache = ArtifactCache::new();
        let s = spec(2);
        let a = cache.trace(&s, 1_000);
        let b = cache.trace(&s, 2_000);
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
        let a = runner.simulate(&s, ImprovementSet::none(), 0, &[None]).remove(0);
        let b = runner.simulate(&s, ImprovementSet::all(), 0, &[None]).remove(0);
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "one generation feeds both conversions");
        assert_eq!(c.trace_hits, 1);
        assert_eq!(c.convert_misses, 2, "each streamed conversion counts once");
        assert_eq!(c.convert_hits, 0);
        assert_eq!(a.conversion.input_instructions, 2_000);
        assert_eq!(b.conversion.input_instructions, 2_000);
        assert_eq!(cache.live_traces(), 1);
        assert_eq!(cache.live_conversions(), 0, "streamed conversions are never cached");
        assert_eq!(cache.resident_bytes(), trace_bytes(2_000));
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

    /// Sources for the budget tests: 40k instructions each, about
    /// 4.5 MB of trace plus 2.6 MB of records, so eight overrun the
    /// budget.
    const BIG: usize = 40_000;
    const SOURCES: u64 = 8;

    fn big(cache: &ArtifactCache, seed: u64) -> ConvertedTrace {
        cache.converted_shared(&spec(100 + seed), BIG, ImprovementSet::all())
    }

    #[test]
    fn resident_bytes_stay_within_budget_plus_one_entry() {
        let cache = ArtifactCache::new();
        let trace_bytes = trace_bytes(BIG);
        assert!(SOURCES * trace_bytes > BUDGET_BYTES, "the sources overrun");
        let budget = BUDGET_BYTES.max(BUDGET_ARTIFACTS * trace_bytes);
        let mut largest_records = 0;
        for seed in 0..SOURCES {
            let records = big(&cache, seed).records.len() * RECORD_BYTES;
            largest_records = largest_records.max(records as u64);
            let resident = cache.resident_bytes();
            assert_eq!(cache.budget_bytes(), budget);
            assert!(resident <= budget + trace_bytes.max(largest_records), "{resident}");
            // Every computed artifact is either still held or evicted,
            // and the resident total is exactly what is held.
            let live = cache.live_traces() + cache.live_conversions();
            assert_eq!(live as u64 + cache.counters().evictions, 2 * (seed + 1));
            assert_eq!(resident, cache.held_bytes());
        }
        let c = cache.counters();
        assert!(c.evictions > 0, "the sources overran the budget");
        assert!(c.peak_resident_bytes <= budget + trace_bytes + largest_records);
    }

    /// A single-worker server alternating between two sources, as the
    /// sharding phase of server_bench does: once both are converted
    /// every fetch hits, although their conversions and one trace
    /// outgrow [`BUDGET_BYTES`].
    #[test]
    fn alternating_large_sources_stay_converted() {
        const LENGTH: usize = 150_000;
        let cache = ArtifactCache::new();
        let fetch =
            |seed: u64| cache.converted_shared(&spec(200 + seed), LENGTH, ImprovementSet::all());
        // One at a time, as one worker runs them: no caller holds the first.
        let first = fetch(0).records.len();
        let records = first + fetch(1).records.len();
        let working_set = (records * RECORD_BYTES) as u64 + trace_bytes(LENGTH);
        assert!(working_set > BUDGET_BYTES, "{working_set} bytes fit the floor");
        for _ in 0..3 {
            fetch(0);
            fetch(1);
        }
        let c = cache.counters();
        assert_eq!((c.convert_misses, c.convert_hits), (2, 6), "no conversion left");
        assert_eq!(c.trace_misses, 2);
        assert_eq!(cache.live_conversions(), 2);
        assert!(cache.resident_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn held_artifacts_are_never_evicted() {
        let cache = ArtifactCache::new();
        let first = big(&cache, 0);
        let first_trace = cache.trace(&spec(100), BIG);
        for seed in 1..SOURCES {
            big(&cache, seed);
        }
        assert!(cache.counters().evictions > 0, "the sources overran the budget");
        let again = big(&cache, 0);
        assert!(Arc::ptr_eq(&first.records, &again.records), "the held conversion stayed");
        assert!(Arc::ptr_eq(&first_trace, &cache.trace(&spec(100), BIG)));
        let c = cache.counters();
        assert_eq!(c.convert_misses, SOURCES, "the refetch hit");
        assert_eq!(c.trace_misses, SOURCES);
    }

    #[test]
    fn evicted_artifacts_recompute_to_equal_bytes() {
        let cache = ArtifactCache::new();
        let first = big(&cache, 0);
        let records = first.records.to_vec();
        let stats = first.stats;
        drop(first);
        for seed in 1..SOURCES {
            big(&cache, seed);
        }
        let evicted = cache.counters().evictions;
        assert!(evicted >= 2, "the least recently used source left first");
        let again = big(&cache, 0);
        assert_eq!(*again.records, records[..], "recomputed to the same bytes");
        assert_eq!(again.stats, stats);
        let c = cache.counters();
        assert_eq!(c.convert_misses, SOURCES + 1, "the refetch counted a miss");
        assert_eq!(c.trace_misses, SOURCES + 1, "and regenerated its trace");
        assert_eq!(c.convert_hits + c.trace_hits, 0);
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
        let first = cache.trace(&s, 2_000);
        for _ in 0..5 {
            let again = cache.trace(&s, 2_000);
            assert!(Arc::ptr_eq(&first, &again), "every request shares one buffer");
        }
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "generated once for the whole sequence");
        assert_eq!(c.trace_hits, 5);
        drop(first);
        assert!(Arc::ptr_eq(&cache.trace(&s, 2_000), &cache.trace(&s, 2_000)));
        assert_eq!(cache.live_traces(), 1, "an idle entry within budget stays");
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
