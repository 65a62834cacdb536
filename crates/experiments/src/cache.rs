//! Thread-safe artifact cache for the experiment scheduler.
//!
//! Every `(trace, config)` cell of an experiment needs the trace's CVP
//! instruction stream and a conversion of it; without sharing, the grid
//! regenerates each trace ~10× and Table 3 regenerates+reconverts each
//! trace ~19×. The cache computes each artifact exactly once and hands
//! out `Arc` clones:
//!
//! * CVP traces are keyed on `(TraceSpec, length)`,
//! * converted ChampSim buffers on `(TraceSpec, length, ImprovementSet)`.
//!
//! At paper scale the full artifact set would not fit in memory
//! (135 traces × 120k instructions ≈ GBs of records), so the cache uses
//! **budgeted eviction**: each fetch declares the total number of uses
//! planned for its key, and the entry is dropped from the cache after
//! the last planned fetch. With the scheduler's trace-major job order
//! the live window stays a handful of traces wide regardless of suite
//! size. All fetchers of one key must declare the same total; a fetch
//! beyond the declared budget recomputes (and recounts as a miss).
//!
//! # Spill-to-disk
//!
//! When a [`SpillConfig`] is active (the `experiments --cache-dir` /
//! `--cache-mem-budget` flags, via [`set_spill`]), the cache also
//! enforces a **byte budget on resident artifacts**: whenever the
//! resident total exceeds the budget, least-recently-used *idle*
//! entries are compressed into block stores (`.cvpz` / `.champsimz`
//! via [`trace_store`]) under the spill directory and their buffers
//! are freed. Artifacts a fetcher still holds are never spilled —
//! the caller's `Arc` keeps the buffer alive regardless, so spilling
//! one frees nothing and costs two codec passes; the budget therefore
//! bounds the bytes the cache holds *beyond* what the running jobs
//! use. A later fetch of a spilled entry decompresses it back instead
//! of recomputing (counted in [`CacheCounters::disk_hits`]), and a
//! reloaded entry keeps its file so spilling it again is free. Spill
//! files are deleted as budgets are spent and on drop.
//!
//! The cache also aggregates per-phase CPU time (generate / convert /
//! simulate) and hit/miss counts, snapshot via [`ArtifactCache::counters`].

use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use champsim_trace::{ChampsimRecord, RECORD_BYTES};
use converter::{ConversionStats, Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use trace_store::{ChampsimzReader, ChampsimzWriter, CvpzReader, CvpzWriter};
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
    /// Conversion fetches served from the cache.
    pub convert_hits: u64,
    /// Conversion fetches that ran the converter.
    pub convert_misses: u64,
    /// Artifacts compressed out to the spill directory.
    pub spills: u64,
    /// Fetches served by decompressing a spilled artifact (a subset of
    /// the hits).
    pub disk_hits: u64,
    /// High-water mark of budget-tracked resident artifact bytes (the
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

// ---------------------------------------------------------------------
// Spill configuration
// ---------------------------------------------------------------------

/// Where and when the cache spills artifacts to disk.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for spill files (created on first use).
    pub dir: PathBuf,
    /// Resident artifact bytes allowed before eviction starts (idle
    /// entries only; artifacts in use by fetchers are never spilled).
    pub mem_budget: u64,
}

/// Process-wide spill configuration consumed by [`ArtifactCache::new`]
/// (the experiment entry points construct their caches internally, so
/// the CLI sets this once up front, like `--threads` / `set_threads`).
static SPILL_OVERRIDE: Mutex<Option<SpillConfig>> = Mutex::new(None);

/// Sets (or with `None` clears) the spill configuration for caches
/// created after this call.
pub fn set_spill(config: Option<SpillConfig>) {
    *lock(&SPILL_OVERRIDE) = config;
}

fn spill_config() -> Option<SpillConfig> {
    lock(&SPILL_OVERRIDE).clone()
}

// ---------------------------------------------------------------------
// Spillable artifacts
// ---------------------------------------------------------------------

/// An artifact the cache can serialize into a compressed spill file.
trait Artifact: Clone {
    /// Spill-file extension (also selects the store's stream kind).
    const EXT: &'static str;

    /// Approximate resident payload size, charged against the budget.
    fn mem_bytes(&self) -> u64;

    /// Whether a fetcher still holds this artifact. Spilling an in-use
    /// artifact frees nothing (the caller's `Arc` keeps the buffer
    /// alive) and costs a compress + a reload, so the evictor skips it;
    /// the budget therefore bounds *idle* cache bytes.
    fn in_use(&self) -> bool;

    /// Writes the artifact to `path` as a block store.
    fn write_spill(&self, path: &Path) -> io::Result<()>;

    /// Reads an artifact back from `path`.
    fn read_spill(path: &Path) -> io::Result<Self>;
}

impl Artifact for Arc<[CvpInstruction]> {
    const EXT: &'static str = "cvpz";

    fn mem_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<CvpInstruction>()) as u64
    }

    fn in_use(&self) -> bool {
        // One reference is the cache's own cell copy.
        Arc::strong_count(self) > 1
    }

    fn write_spill(&self, path: &Path) -> io::Result<()> {
        let mut w = CvpzWriter::new(std::fs::File::create(path)?).map_err(io::Error::from)?;
        for insn in self.iter() {
            w.write(insn).map_err(io::Error::from)?;
        }
        w.finish().map_err(io::Error::from)?;
        Ok(())
    }

    fn read_spill(path: &Path) -> io::Result<Self> {
        let reader = CvpzReader::new(std::fs::File::open(path)?).map_err(io::Error::from)?;
        let insns: Vec<CvpInstruction> =
            reader.collect::<Result<_, _>>().map_err(io::Error::other)?;
        Ok(Arc::from(insns))
    }
}

impl Artifact for ConvertedTrace {
    const EXT: &'static str = "champsimz";

    fn mem_bytes(&self) -> u64 {
        (self.records.len() * RECORD_BYTES) as u64
    }

    fn in_use(&self) -> bool {
        Arc::strong_count(&self.records) > 1
    }

    fn write_spill(&self, path: &Path) -> io::Result<()> {
        // Layout: fixed-size conversion stats, then the record store
        // (readable because store readers start at the current offset).
        use std::io::Write;
        let mut file = std::fs::File::create(path)?;
        file.write_all(&self.stats.to_bytes())?;
        let mut w = ChampsimzWriter::new(file).map_err(io::Error::from)?;
        for rec in self.records.iter() {
            w.write(rec).map_err(io::Error::from)?;
        }
        w.finish().map_err(io::Error::from)?;
        Ok(())
    }

    fn read_spill(path: &Path) -> io::Result<Self> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut stats_bytes = [0u8; ConversionStats::ENCODED_BYTES];
        file.read_exact(&mut stats_bytes)?;
        let reader = ChampsimzReader::new(file).map_err(io::Error::from)?;
        let records: Vec<ChampsimRecord> =
            reader.collect::<Result<_, _>>().map_err(io::Error::other)?;
        Ok(ConvertedTrace {
            records: Arc::from(records),
            stats: ConversionStats::from_bytes(&stats_bytes),
        })
    }
}

// ---------------------------------------------------------------------
// Cache internals
// ---------------------------------------------------------------------

/// Where one artifact currently lives.
enum Slot<T> {
    /// Not computed yet (first fetcher will compute).
    Empty,
    /// In memory and charged against the byte budget.
    Resident(T),
    /// In memory (charged) with a still-valid spill file: a reloaded
    /// artifact keeps its file so spilling it again is free — the
    /// buffer is dropped, nothing is rewritten.
    Cached(T, PathBuf),
    /// Compressed out to a spill file.
    Spilled(PathBuf),
    /// In memory but no longer budget-tracked: the entry has left the
    /// map (budget spent) and this copy only serves stragglers already
    /// holding the cell. Never spilled.
    Retired(T),
}

/// One cached artifact: the compute-once cell plus its remaining budget.
struct Entry<T> {
    /// Compute-once cell. The per-entry lock serializes only fetchers of
    /// *this* key; the first one computes, the rest read.
    value: Arc<Mutex<Slot<T>>>,
    /// Planned fetches left before the entry is evicted.
    remaining: u64,
    /// Recency tick of the latest fetch (LRU order for spilling).
    last_use: u64,
}

/// Recovers a lock from a panicked holder: every value guarded here is a
/// plain artifact map or an idempotent compute-once cell, both valid at
/// any observable point.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type TraceKey = TraceSpec;
type ConvertKey = (TraceSpec, ImprovementSet);

/// The shared artifact cache. One instance per scheduled experiment;
/// share it by reference across worker threads.
pub struct ArtifactCache {
    traces: Mutex<HashMap<TraceKey, Entry<Arc<[CvpInstruction]>>>>,
    conversions: Mutex<HashMap<ConvertKey, Entry<ConvertedTrace>>>,
    spill: Option<SpillConfig>,
    /// Bytes of budget-tracked resident artifacts.
    mem_bytes: AtomicU64,
    /// Monotonic recency clock for LRU spilling.
    clock: AtomicU64,
    /// Unique suffix for spill file names.
    next_spill_id: AtomicU64,
    /// High-water mark of `mem_bytes`.
    peak_bytes: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    convert_hits: AtomicU64,
    convert_misses: AtomicU64,
    spills: AtomicU64,
    disk_hits: AtomicU64,
    generate_ns: AtomicU64,
    convert_ns: AtomicU64,
    simulate_ns: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::with_spill(spill_config())
    }
}

impl ArtifactCache {
    /// Creates a cache, picking up the process-wide [`set_spill`]
    /// configuration if one is active.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Creates a cache with an explicit spill configuration (`None`
    /// disables spilling regardless of the global setting).
    pub fn with_spill(spill: Option<SpillConfig>) -> ArtifactCache {
        ArtifactCache {
            traces: Mutex::new(HashMap::new()),
            conversions: Mutex::new(HashMap::new()),
            spill,
            mem_bytes: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            next_spill_id: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            convert_hits: AtomicU64::new(0),
            convert_misses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            generate_ns: AtomicU64::new(0),
            convert_ns: AtomicU64::new(0),
            simulate_ns: AtomicU64::new(0),
        }
    }

    /// Whether this cache spills to disk when over its memory budget.
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
    }

    /// Fetches (generating on first use) the CVP instruction stream for
    /// `spec` truncated/extended to `length` instructions. `uses` is the
    /// total number of fetches planned for this `(spec, length)` key
    /// across the whole run; after the last one the buffer leaves the
    /// cache (callers' `Arc` clones stay valid).
    pub fn trace(&self, spec: &TraceSpec, length: usize, uses: u64) -> Arc<[CvpInstruction]> {
        let keyed = spec.clone().with_length(length);
        let value =
            self.fetch(&self.traces, &keyed, uses, (&self.trace_hits, &self.trace_misses), || {
                let start = Instant::now();
                let trace: Arc<[CvpInstruction]> = Arc::from(keyed.generate());
                self.generate_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                trace
            });
        self.enforce_budget();
        value
    }

    /// Fetches (converting on first use) the ChampSim record buffer for
    /// `spec` at `length` under `improvements`. `trace_uses` is the
    /// *trace* budget passed through to [`ArtifactCache::trace`] — i.e.
    /// the number of distinct improvement sets that will convert this
    /// trace — and `uses` the number of fetches of this conversion.
    pub fn converted(
        &self,
        spec: &TraceSpec,
        length: usize,
        improvements: ImprovementSet,
        trace_uses: u64,
        uses: u64,
    ) -> ConvertedTrace {
        let key = (spec.clone().with_length(length), improvements);
        let value = self.fetch(
            &self.conversions,
            &key,
            uses,
            (&self.convert_hits, &self.convert_misses),
            || {
                let cvp = self.trace(spec, length, trace_uses);
                // The trace fetch times itself into `generate_ns`; only the
                // converter run below counts as conversion time.
                let start = Instant::now();
                let mut converter = Converter::new(improvements);
                let records = converter.convert_all(cvp.iter());
                self.convert_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                ConvertedTrace { records: Arc::from(records), stats: *converter.stats() }
            },
        );
        self.enforce_budget();
        value
    }

    /// Fetches the converted record buffer for `spec` with an
    /// **open-ended budget**: the entry stays cached for future fetches
    /// instead of being evicted after a declared number of uses. A
    /// serving workload cannot declare its fetch count up front — jobs
    /// arrive over the process lifetime — so memory is bounded by the
    /// spill byte budget (idle entries compress out under pressure)
    /// rather than by use counts. Do not mix shared and budgeted fetches
    /// of one key: the first fetch fixes the entry's budget.
    pub fn converted_shared(
        &self,
        spec: &TraceSpec,
        length: usize,
        improvements: ImprovementSet,
    ) -> ConvertedTrace {
        self.converted(spec, length, improvements, u64::MAX, u64::MAX)
    }

    /// Adds simulation CPU time to the phase accounting.
    pub fn add_simulate_ns(&self, ns: u64) {
        self.simulate_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot of the hit/miss, spill, and per-phase timing counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            convert_hits: self.convert_hits.load(Ordering::Relaxed),
            convert_misses: self.convert_misses.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
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

    /// Number of conversion buffers currently held.
    pub fn live_conversions(&self) -> usize {
        lock(&self.conversions).len()
    }

    /// Budget-tracked resident artifact bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.mem_bytes.load(Ordering::Relaxed)
    }

    /// Compute-once fetch with budgeted eviction and spill awareness.
    ///
    /// Under the map lock the entry is found or created, its recency is
    /// bumped, and its budget decremented (removing it at zero); the
    /// value itself is computed, read, or reloaded from its spill file
    /// under the per-entry lock, so distinct keys never serialize each
    /// other and concurrent fetchers of one key compute it exactly once.
    fn fetch<K, T>(
        &self,
        map: &Mutex<HashMap<K, Entry<T>>>,
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
            let tick = self.clock.fetch_add(1, Ordering::Relaxed);
            let entry = map.entry(key.clone()).or_insert_with(|| Entry {
                value: Arc::new(Mutex::new(Slot::Empty)),
                remaining: uses.max(1),
                last_use: tick,
            });
            entry.last_use = tick;
            entry.remaining -= 1;
            let cell = Arc::clone(&entry.value);
            let last = entry.remaining == 0;
            if last {
                map.remove(key);
            }
            (cell, last)
        };
        let mut slot = lock(&cell);
        match std::mem::replace(&mut *slot, Slot::Empty) {
            Slot::Resident(value) => {
                hits.fetch_add(1, Ordering::Relaxed);
                if last {
                    // Leaving the budgeted map: stop charging for it but
                    // keep a copy for stragglers still holding the cell.
                    self.mem_bytes.fetch_sub(value.mem_bytes(), Ordering::Relaxed);
                    *slot = Slot::Retired(value.clone());
                } else {
                    *slot = Slot::Resident(value.clone());
                }
                value
            }
            Slot::Cached(value, path) => {
                hits.fetch_add(1, Ordering::Relaxed);
                if last {
                    let _ = std::fs::remove_file(&path);
                    self.mem_bytes.fetch_sub(value.mem_bytes(), Ordering::Relaxed);
                    *slot = Slot::Retired(value.clone());
                } else {
                    *slot = Slot::Cached(value.clone(), path);
                }
                value
            }
            Slot::Retired(value) => {
                hits.fetch_add(1, Ordering::Relaxed);
                *slot = Slot::Retired(value.clone());
                value
            }
            Slot::Spilled(path) => match T::read_spill(&path) {
                Ok(value) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    if last {
                        let _ = std::fs::remove_file(&path);
                        *slot = Slot::Retired(value.clone());
                    } else {
                        // Keep the file: spilling this entry again is
                        // then free (drop the buffer, rewrite nothing).
                        self.charge(value.mem_bytes());
                        *slot = Slot::Cached(value.clone(), path);
                    }
                    value
                }
                Err(_) => {
                    // Unreadable spill file (deleted, disk error):
                    // recompute, counted as a miss.
                    let _ = std::fs::remove_file(&path);
                    misses.fetch_add(1, Ordering::Relaxed);
                    let value = compute();
                    self.store_computed(&mut slot, last, &value);
                    value
                }
            },
            Slot::Empty => {
                misses.fetch_add(1, Ordering::Relaxed);
                let value = compute();
                self.store_computed(&mut slot, last, &value);
                value
            }
        }
    }

    /// Places a freshly computed value into its cell, charging the
    /// budget only while the entry is still map-reachable.
    fn store_computed<T: Artifact>(&self, slot: &mut Slot<T>, last: bool, value: &T) {
        if last {
            *slot = Slot::Retired(value.clone());
        } else {
            self.charge(value.mem_bytes());
            *slot = Slot::Resident(value.clone());
        }
    }

    /// Adds `bytes` to the resident total, maintaining the high-water
    /// mark.
    fn charge(&self, bytes: u64) {
        let now = self.mem_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Spills least-recently-used resident artifacts until the resident
    /// total is back under the configured budget. Runs lock-light:
    /// candidates are snapshotted under the map locks, then each cell is
    /// `try_lock`ed individually (busy cells are skipped this round).
    fn enforce_budget(&self) {
        let Some(config) = &self.spill else { return };
        if self.mem_bytes.load(Ordering::Relaxed) <= config.mem_budget {
            return;
        }
        if std::fs::create_dir_all(&config.dir).is_err() {
            return;
        }
        let mut candidates: Vec<(u64, SpillFn)> = Vec::new();
        self.collect_candidates(&self.traces, config, &mut candidates);
        self.collect_candidates(&self.conversions, config, &mut candidates);
        candidates.sort_by_key(|(last_use, _)| *last_use);
        for (_, spill) in candidates {
            if self.mem_bytes.load(Ordering::Relaxed) <= config.mem_budget {
                break;
            }
            let freed = spill();
            if freed > 0 {
                self.mem_bytes.fetch_sub(freed, Ordering::Relaxed);
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn collect_candidates<K, T>(
        &self,
        map: &Mutex<HashMap<K, Entry<T>>>,
        config: &SpillConfig,
        out: &mut Vec<(u64, SpillFn)>,
    ) where
        K: Eq + Hash,
        T: Artifact + Send + 'static,
    {
        let map = lock(map);
        for entry in map.values() {
            let cell = Arc::clone(&entry.value);
            let id = self.next_spill_id.fetch_add(1, Ordering::Relaxed);
            let path = config.dir.join(format!("spill-{id}.{}", T::EXT));
            out.push((entry.last_use, Box::new(move || spill_one(&cell, path))));
        }
    }
}

type SpillFn = Box<dyn FnOnce() -> u64>;

/// Compresses one idle resident cell out to `path`, returning the bytes
/// freed (0 if the cell was busy, in use, not resident, or the write
/// failed). A `Cached` cell spills for free by reusing its existing
/// file; `path` is then unused.
fn spill_one<T: Artifact>(cell: &Mutex<Slot<T>>, path: PathBuf) -> u64 {
    let Ok(mut slot) = cell.try_lock() else { return 0 };
    match std::mem::replace(&mut *slot, Slot::Empty) {
        Slot::Resident(value) => {
            if value.in_use() {
                *slot = Slot::Resident(value);
                return 0;
            }
            let bytes = value.mem_bytes();
            match value.write_spill(&path) {
                Ok(()) => {
                    *slot = Slot::Spilled(path);
                    bytes
                }
                Err(_) => {
                    // Could not spill (disk full?): keep it resident.
                    let _ = std::fs::remove_file(&path);
                    *slot = Slot::Resident(value);
                    0
                }
            }
        }
        Slot::Cached(value, existing) => {
            if value.in_use() {
                *slot = Slot::Cached(value, existing);
                return 0;
            }
            let bytes = value.mem_bytes();
            *slot = Slot::Spilled(existing);
            bytes
        }
        other => {
            *slot = other;
            0
        }
    }
}

impl Drop for ArtifactCache {
    fn drop(&mut self) {
        // Remove spill files for budgets that were never fully spent.
        fn clean<K, T>(map: &Mutex<HashMap<K, Entry<T>>>) {
            for entry in lock(map).values() {
                match &*lock(&entry.value) {
                    Slot::Spilled(path) | Slot::Cached(_, path) => {
                        let _ = std::fs::remove_file(path);
                    }
                    _ => {}
                }
            }
        }
        clean(&self.traces);
        clean(&self.conversions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::parallel_cells;
    use workloads::WorkloadKind;

    fn spec(seed: u64) -> TraceSpec {
        TraceSpec::new(format!("cache_t{seed}"), WorkloadKind::Crypto, seed)
    }

    fn temp_spill(tag: &str, budget: u64) -> SpillConfig {
        let dir = std::env::temp_dir().join(format!("artifact-spill-{tag}-{}", std::process::id()));
        SpillConfig { dir, mem_budget: budget }
    }

    fn spill_files(dir: &Path) -> usize {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    }

    #[test]
    fn trace_generates_exactly_once_under_concurrency() {
        let cache = ArtifactCache::with_spill(None);
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
        let cache = ArtifactCache::with_spill(None);
        let s = spec(2);
        let a = cache.trace(&s, 1_000, 1);
        let b = cache.trace(&s, 2_000, 1);
        assert_eq!(a.len(), 1_000);
        assert_eq!(b.len(), 2_000);
        assert_eq!(cache.counters().trace_misses, 2);
    }

    #[test]
    fn conversions_share_the_underlying_trace() {
        let cache = ArtifactCache::with_spill(None);
        let s = spec(3);
        let a = cache.converted(&s, 2_000, ImprovementSet::none(), 2, 1);
        let b = cache.converted(&s, 2_000, ImprovementSet::all(), 2, 1);
        let c = cache.counters();
        assert_eq!(c.trace_misses, 1, "one generation feeds both conversions");
        assert_eq!(c.trace_hits, 1);
        assert_eq!(c.convert_misses, 2);
        assert_eq!(c.convert_hits, 0);
        assert_eq!(a.stats.input_instructions, 2_000);
        assert_eq!(b.stats.input_instructions, 2_000);
        assert_eq!(cache.live_traces(), 0);
        assert_eq!(cache.live_conversions(), 0);
    }

    #[test]
    fn conversion_fetches_hit_and_match() {
        let cache = ArtifactCache::with_spill(None);
        let s = spec(4);
        let uses = 8u64;
        let all = parallel_cells(uses as usize, |_| {
            cache.converted(&s, 2_000, ImprovementSet::all(), 1, uses)
        });
        let c = cache.counters();
        assert_eq!(c.convert_misses, 1);
        assert_eq!(c.convert_hits, uses - 1);
        for conv in &all {
            assert!(Arc::ptr_eq(&conv.records, &all[0].records));
            assert_eq!(conv.stats, all[0].stats);
        }
        assert_eq!(cache.live_conversions(), 0);
    }

    #[test]
    fn fetch_beyond_budget_recomputes() {
        let cache = ArtifactCache::with_spill(None);
        let s = spec(5);
        let a = cache.trace(&s, 1_000, 1);
        let b = cache.trace(&s, 1_000, 1);
        assert_eq!(cache.counters().trace_misses, 2, "budget of 1 spent twice");
        assert_eq!(a, b, "recomputation is deterministic");
    }

    #[test]
    fn timing_counters_accumulate() {
        let cache = ArtifactCache::with_spill(None);
        let s = spec(6);
        cache.converted(&s, 4_000, ImprovementSet::all(), 1, 1);
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
    fn zero_budget_spills_idle_traces_and_reloads_them() {
        let config = temp_spill("trace", 0);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        let (sa, sb) = (spec(7), spec(70));
        // Copy the data and drop the Arc: in-use artifacts never spill.
        let a: Vec<CvpInstruction> = cache.trace(&sa, 2_000, 2).to_vec();
        assert_eq!(spill_files(&dir), 0, "artifact in use during its own fetch");
        // A fetch of another key finds the first one idle and spills it.
        cache.trace(&sb, 2_000, 1);
        assert!(spill_files(&dir) > 0, "zero budget spills the idle trace");
        let b = cache.trace(&sa, 2_000, 2);
        assert_eq!(a, b[..].to_vec(), "disk reload returns identical instructions");
        let c = cache.counters();
        assert_eq!(c.trace_misses, 2, "the reload is not a recompute");
        assert_eq!(c.trace_hits, 1);
        assert_eq!(c.disk_hits, 1);
        assert!(c.spills >= 1);
        assert_eq!(cache.live_traces(), 0);
        assert_eq!(spill_files(&dir), 0, "last fetch removed the spill file");
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_budget_spills_and_reloads_conversions_with_stats() {
        let config = temp_spill("conv", 0);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        let (sa, sb) = (spec(8), spec(80));
        let first = cache.converted(&sa, 3_000, ImprovementSet::all(), 1, 2);
        let (records, stats) = (first.records.to_vec(), first.stats);
        drop(first);
        // Fetching another key finds the first conversion idle and
        // spills it; the fetch after that reloads it from disk.
        cache.converted(&sb, 3_000, ImprovementSet::all(), 1, 1);
        let back = cache.converted(&sa, 3_000, ImprovementSet::all(), 1, 2);
        assert_eq!(back.records.to_vec(), records, "records survive the disk round trip");
        assert_eq!(back.stats, stats, "conversion stats survive the disk round trip");
        let c = cache.counters();
        assert_eq!(c.convert_misses, 2);
        assert!(c.spills >= 1, "idle conversion was spilled");
        assert!(c.disk_hits >= 1, "and reloaded from disk");
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_budget_never_spills() {
        let config = temp_spill("big", u64::MAX);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        let s = spec(9);
        for _ in 0..2 {
            cache.trace(&s, 2_000, 2);
        }
        let c = cache.counters();
        assert_eq!(c.spills, 0);
        assert_eq!(c.disk_hits, 0);
        assert_eq!(c.trace_hits, 1);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_cache_removes_leftover_spill_files() {
        let config = temp_spill("drop", 0);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        // Fetch one trace with uses left over, drop the Arc so it goes
        // idle, then fetch another key: its budget pass spills the first.
        cache.trace(&spec(10), 2_000, 3);
        cache.trace(&spec(11), 2_000, 1);
        assert!(spill_files(&dir) > 0, "idle entry was spilled");
        drop(cache);
        assert_eq!(spill_files(&dir), 0, "drop cleaned the spill directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilling_under_concurrency_stays_consistent() {
        let config = temp_spill("par", 0);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        let uses = 6u64;
        let specs: Vec<TraceSpec> = (20..24).map(spec).collect();
        let results = parallel_cells(specs.len() * uses as usize, |i| {
            let s = &specs[i % specs.len()];
            cache.trace(s, 1_500, uses)
        });
        for (i, t) in results.iter().enumerate() {
            assert_eq!(t.len(), 1_500, "result {i}");
            assert_eq!(t[..], results[i % specs.len()][..], "all fetches of a spec agree");
        }
        let c = cache.counters();
        assert_eq!(c.trace_misses, specs.len() as u64, "each spec generated once");
        assert_eq!(cache.live_traces(), 0);
        assert_eq!(spill_files(&dir), 0);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_fetches_stay_cached_across_requests() {
        let cache = ArtifactCache::with_spill(None);
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
        let cache = ArtifactCache::with_spill(None);
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

    #[test]
    fn idle_shared_entries_spill_and_reload() {
        let config = temp_spill("shared", 0);
        let dir = config.dir.clone();
        let cache = ArtifactCache::with_spill(Some(config));
        let (sa, sb) = (spec(32), spec(33));
        let a: Vec<CvpInstruction> = cache.trace(&sa, 2_000, u64::MAX).to_vec();
        // The next key's budget pass finds the first entry idle and
        // spills it despite its open-ended budget.
        cache.trace(&sb, 2_000, u64::MAX);
        assert!(spill_files(&dir) > 0, "shared entries still honor the byte budget");
        let back = cache.trace(&sa, 2_000, u64::MAX);
        assert_eq!(a, back[..].to_vec(), "disk reload returns identical instructions");
        let c = cache.counters();
        assert_eq!(c.trace_misses, 2, "the reload is not a recompute");
        assert!(c.disk_hits >= 1);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_spill_override_feeds_new_caches() {
        let _guard = lock(&crate::runner::OVERRIDE_LOCK);
        let config = temp_spill("global", 1 << 30);
        let dir = config.dir.clone();
        set_spill(Some(config));
        let cache = ArtifactCache::new();
        set_spill(None);
        assert!(cache.spill_enabled());
        let plain = ArtifactCache::new();
        assert!(!plain.spill_enabled());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
