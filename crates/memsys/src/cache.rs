use std::fmt;

/// Cacheline size in bytes, fixed at 64 as in ChampSim and the paper.
pub const CACHELINE_BYTES: u64 = 64;

/// What kind of access is probing a cache (affects statistics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1I demand).
    InstructionFetch,
    /// Data load.
    Load,
    /// Data store (write-allocate).
    Store,
    /// Prefetch (does not count as a demand access).
    Prefetch,
}

impl AccessKind {
    /// `true` for demand (non-prefetch) accesses.
    pub fn is_demand(self) -> bool {
        !matches!(self, AccessKind::Prefetch)
    }
}

/// Replacement policy of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV).
    Srrip,
    /// Pseudo-random victim (deterministic xorshift).
    Random,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles (charged on every probe of this level).
    pub latency: u64,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Convenience constructor from total size in KiB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into power-of-two sets.
    pub fn with_size_kib(size_kib: usize, ways: usize, latency: u64) -> CacheConfig {
        let lines = size_kib * 1024 / CACHELINE_BYTES as usize;
        assert!(lines.is_multiple_of(ways), "size must divide into ways");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig { sets, ways, latency, replacement: ReplacementPolicy::Lru }
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (fetch/load/store).
    pub demand_accesses: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Lines filled by prefetch.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by prefetch (first touch).
    pub useful_prefetches: u64,
}

impl CacheStats {
    /// Demand miss ratio in `0..=1`.
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Prefetch accuracy in `0..=1`: useful prefetches over prefetch
    /// fills (0 when nothing was prefetched).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_fills == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / self.prefetch_fills as f64
        }
    }

    /// Registers this level's counters and ratios under
    /// `memsys.<level>.*`, where `level` is one of `l1i`, `l1d`, `l2`,
    /// `llc`.
    pub fn export(&self, level: &str, registry: &mut telemetry::Registry) {
        use telemetry::catalog;
        registry.counter_at(&catalog::MEMSYS_DEMAND_ACCESSES, level, self.demand_accesses);
        registry.counter_at(&catalog::MEMSYS_DEMAND_MISSES, level, self.demand_misses);
        registry.gauge_at(&catalog::MEMSYS_MISS_RATIO, level, 100.0 * self.miss_ratio());
        registry.counter_at(&catalog::MEMSYS_PREFETCH_FILLS, level, self.prefetch_fills);
        registry.counter_at(&catalog::MEMSYS_USEFUL_PREFETCHES, level, self.useful_prefetches);
        registry.gauge_at(
            &catalog::MEMSYS_PREFETCH_ACCURACY,
            level,
            100.0 * self.prefetch_accuracy(),
        );
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses {} misses {} ({}) pf-fills {} pf-useful {}",
            self.demand_accesses,
            self.demand_misses,
            telemetry::format::percent(self.miss_ratio()),
            self.prefetch_fills,
            self.useful_prefetches
        )
    }
}

/// RRPV value of an empty way (SRRIP's "distant" re-reference).
const META_INVALID: u8 = 3;
/// RRPV mask within a [`Cache::meta`] byte.
const META_RRPV: u8 = 0b011;
/// Prefetched-and-not-yet-demand-touched flag within a meta byte.
const META_PREFETCHED: u8 = 0b100;

/// A set-associative cache with pluggable replacement.
///
/// Addresses are byte addresses; the cache works on 64-byte lines.
///
/// Way state is kept struct-of-arrays so the hot probe path scans a
/// dense `u64` slice: each way packs `(tag << 1) | valid` into one word
/// (a 12-way set is 96 contiguous bytes), with LRU stamps and RRPV bits
/// in cold side arrays touched only on hits and fills.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets - 1`; the set index is `(line & set_mask) * ways`.
    set_mask: u64,
    /// Per way: `(tag << 1) | valid`.
    tags: Box<[u64]>,
    /// Per way: last-touch tick (LRU).
    stamps: Box<[u64]>,
    /// Per way: RRPV in bits 0-1, prefetched flag in bit 2.
    meta: Box<[u8]>,
    tick: u64,
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or any dimension is
    /// zero.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.sets.is_power_of_two() && config.sets > 0, "sets must be a power of two");
        assert!(config.ways > 0, "ways must be positive");
        let lines = config.sets * config.ways;
        Cache {
            config,
            set_mask: config.sets as u64 - 1,
            tags: vec![0u64; lines].into_boxed_slice(),
            stamps: vec![0u64; lines].into_boxed_slice(),
            meta: vec![META_INVALID; lines].into_boxed_slice(),
            tick: 0,
            rng: 0x853c_49e6_748f_ea9b,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_start(&self, tag: u64) -> usize {
        (tag & self.set_mask) as usize * self.config.ways
    }

    /// Branch-free scan for `packed` in the set at `start`; returns the
    /// matching way's line index. At most one way can match, so keeping
    /// the last match seen is equivalent to keeping the first.
    #[inline]
    fn find_way(&self, start: usize, packed: u64) -> Option<usize> {
        let mut found = usize::MAX;
        for (i, &w) in self.tags[start..start + self.config.ways].iter().enumerate() {
            if w == packed {
                found = start + i;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Probes for `address`; on a hit refreshes replacement state.
    /// Statistics are charged according to `kind`.
    pub fn probe(&mut self, address: u64, kind: AccessKind) -> bool {
        self.tick += 1;
        if kind.is_demand() {
            self.stats.demand_accesses += 1;
        }
        let tag = address / CACHELINE_BYTES;
        let start = self.set_start(tag);
        if let Some(i) = self.find_way(start, (tag << 1) | 1) {
            self.stamps[i] = self.tick;
            let meta = self.meta[i] & !META_RRPV;
            if kind.is_demand() && meta & META_PREFETCHED != 0 {
                self.meta[i] = 0;
                self.stats.useful_prefetches += 1;
            } else {
                self.meta[i] = meta;
            }
            return true;
        }
        if kind.is_demand() {
            self.stats.demand_misses += 1;
        }
        false
    }

    /// Installs the line containing `address`, evicting a victim if the
    /// set is full. Returns the evicted line's base address, if any.
    pub fn fill(&mut self, address: u64, kind: AccessKind) -> Option<u64> {
        self.tick += 1;
        if kind == AccessKind::Prefetch {
            self.stats.prefetch_fills += 1;
        }
        let tag = address / CACHELINE_BYTES;
        let start = self.set_start(tag);
        let end = start + self.config.ways;
        let tick = self.tick;

        // Already present (e.g. racing prefetch): refresh only.
        if let Some(i) = self.find_way(start, (tag << 1) | 1) {
            self.stamps[i] = tick;
            self.meta[i] &= !META_RRPV;
            return None;
        }
        // SRRIP long re-reference insertion; prefetch fills get no
        // distant-insertion bias (they share the demand RRPV).
        let fill_meta = 2 | if kind == AccessKind::Prefetch { META_PREFETCHED } else { 0 };
        // Invalid way available.
        if let Some(i) = (start..end).find(|&i| self.tags[i] & 1 == 0) {
            self.tags[i] = (tag << 1) | 1;
            self.stamps[i] = tick;
            self.meta[i] = fill_meta;
            return None;
        }
        // Pick a victim.
        let victim = match self.config.replacement {
            ReplacementPolicy::Lru => {
                let mut best = start;
                for i in start..end {
                    if self.stamps[i] < self.stamps[best] {
                        best = i;
                    }
                }
                best
            }
            ReplacementPolicy::Srrip => loop {
                if let Some(i) = (start..end).find(|&i| self.meta[i] & META_RRPV >= 3) {
                    break i;
                }
                for m in &mut self.meta[start..end] {
                    let aged = (*m & META_RRPV) + 1;
                    *m = (*m & !META_RRPV) | aged.min(3);
                }
            },
            ReplacementPolicy::Random => {
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                start + (x as usize) % (end - start)
            }
        };
        let evicted = (self.tags[victim] >> 1) * CACHELINE_BYTES;
        self.tags[victim] = (tag << 1) | 1;
        self.stamps[victim] = tick;
        self.meta[victim] = fill_meta;
        Some(evicted)
    }

    /// `true` if the line containing `address` is resident (no state
    /// changes, no statistics).
    pub fn contains(&self, address: u64) -> bool {
        let tag = address / CACHELINE_BYTES;
        self.find_way(self.set_start(tag), (tag << 1) | 1).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig { sets: 4, ways: 2, latency: 1, replacement: policy })
    }

    #[test]
    fn size_constructor_math() {
        let c = CacheConfig::with_size_kib(32, 8, 4);
        assert_eq!(c.sets, 64);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small(ReplacementPolicy::Lru);
        assert!(!c.probe(0x1000, AccessKind::Load));
        c.fill(0x1000, AccessKind::Load);
        assert!(c.probe(0x1000, AccessKind::Load));
        assert!(c.probe(0x1038, AccessKind::Load), "same line");
        assert!(!c.probe(0x1040, AccessKind::Load), "next line");
        assert_eq!(c.stats().demand_accesses, 4);
        assert_eq!(c.stats().demand_misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(ReplacementPolicy::Lru);
        // Set stride: 4 sets × 64B = 256B. These three collide in set 0.
        c.fill(0x0000, AccessKind::Load);
        c.fill(0x0100, AccessKind::Load);
        assert!(c.probe(0x0000, AccessKind::Load)); // refresh 0x0000
        let evicted = c.fill(0x0200, AccessKind::Load);
        assert_eq!(evicted, Some(0x0100));
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0100));
    }

    #[test]
    fn prefetch_usefulness_is_tracked() {
        let mut c = small(ReplacementPolicy::Lru);
        c.fill(0x1000, AccessKind::Prefetch);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.probe(0x1000, AccessKind::Load));
        assert_eq!(c.stats().useful_prefetches, 1);
        // Second demand hit does not double-count usefulness.
        assert!(c.probe(0x1000, AccessKind::Load));
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn prefetch_probe_is_not_demand() {
        let mut c = small(ReplacementPolicy::Lru);
        c.probe(0x1000, AccessKind::Prefetch);
        assert_eq!(c.stats().demand_accesses, 0);
        assert_eq!(c.stats().demand_misses, 0);
    }

    #[test]
    fn prefetch_probe_keeps_usefulness_pending() {
        // A prefetch probe touching a prefetched line must not consume
        // the first-demand-touch credit.
        let mut c = small(ReplacementPolicy::Lru);
        c.fill(0x1000, AccessKind::Prefetch);
        assert!(c.probe(0x1000, AccessKind::Prefetch));
        assert_eq!(c.stats().useful_prefetches, 0);
        assert!(c.probe(0x1000, AccessKind::Load));
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn srrip_and_random_fill_without_panic() {
        for policy in [ReplacementPolicy::Srrip, ReplacementPolicy::Random] {
            let mut c = small(policy);
            for i in 0..64u64 {
                c.fill(i * 0x100, AccessKind::Load);
                c.probe(i * 0x100, AccessKind::Load);
            }
            // Working set exceeds capacity; at most 8 lines survive.
            let live = (0..64u64).filter(|i| c.contains(i * 0x100)).count();
            assert!(live <= 8, "{policy:?}: {live}");
        }
    }

    #[test]
    fn duplicate_fill_does_not_duplicate() {
        let mut c = small(ReplacementPolicy::Lru);
        c.fill(0x1000, AccessKind::Load);
        assert_eq!(c.fill(0x1000, AccessKind::Load), None);
        // The other way must still be free.
        c.fill(0x1100, AccessKind::Load);
        assert!(c.contains(0x1000) && c.contains(0x1100));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small(ReplacementPolicy::Lru);
        c.fill(0x1000, AccessKind::Load);
        c.probe(0x1000, AccessKind::Load);
        c.reset_stats();
        assert_eq!(c.stats().demand_accesses, 0);
        assert!(c.contains(0x1000));
    }
}
