//! Server-side operational telemetry.
//!
//! Counters are plain atomics so connection and worker threads can
//! bump them without a lock; latency histograms sit behind a mutex
//! (recording is a handful of nanoseconds, far off the hot path). The
//! `/metrics` endpoint snapshots everything into a fresh
//! [`telemetry::Registry`] on demand, emitting the `server.*`
//! descriptors from the metric catalog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use experiments::ArtifactCache;
use telemetry::{catalog, Log2Histogram, Registry};

/// Aggregated lifetime metrics for one server instance.
#[derive(Default)]
pub struct ServerMetrics {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    batch_passes: AtomicU64,
    batch_fused_jobs: AtomicU64,
    queue_ms: Mutex<Log2Histogram>,
    run_ms: Mutex<Log2Histogram>,
    total_ms: Mutex<Log2Histogram>,
    batch_size: Mutex<Log2Histogram>,
}

impl ServerMetrics {
    /// A job was admitted to the queue.
    pub fn note_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// An accepted submission duplicated an in-flight job and attached
    /// to its execution instead of queueing.
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission found its spec's document memoized.
    pub fn note_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission found no memoized document for its spec.
    pub fn note_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `count` memoized documents were dropped to stay within capacity.
    pub fn note_evicted(&self, count: u64) {
        self.cache_evictions.fetch_add(count, Ordering::Relaxed);
    }

    /// A worker dispatched one fused streaming pass over `size` jobs.
    pub fn note_batch(&self, size: usize) {
        self.batch_passes.fetch_add(1, Ordering::Relaxed);
        if size >= 2 {
            self.batch_fused_jobs.fetch_add(size as u64, Ordering::Relaxed);
        }
        lock(&self.batch_size).record(size as u64);
    }

    /// A job was refused with `429` because the queue was full.
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished; `queued`/`ran` are its queue-wait and execution
    /// times.
    pub fn note_completed(&self, queued: Duration, ran: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.record_latency(queued, ran);
    }

    /// A job failed with a diagnostic.
    pub fn note_failed(&self, queued: Duration, ran: Duration) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.record_latency(queued, ran);
    }

    /// A job was cancelled (deadline or shutdown abort).
    pub fn note_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    fn record_latency(&self, queued: Duration, ran: Duration) {
        lock(&self.queue_ms).record(queued.as_millis() as u64);
        lock(&self.run_ms).record(ran.as_millis() as u64);
        lock(&self.total_ms).record((queued + ran).as_millis() as u64);
    }

    /// Snapshots everything into a registry; `queue_depth` and the
    /// artifact figures are sampled by the caller (the queue and the
    /// artifact cache live next to, not inside, the metrics).
    pub fn export(&self, queue_depth: usize, artifacts: &ArtifactCache) -> Registry {
        let mut registry = Registry::new();
        registry.label("tool", "sim-server");
        registry.counter(&catalog::SERVER_JOBS_ACCEPTED, self.accepted.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_JOBS_REJECTED, self.rejected.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_JOBS_COMPLETED, self.completed.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_JOBS_FAILED, self.failed.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_JOBS_CANCELLED, self.cancelled.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_JOBS_COALESCED, self.coalesced.load(Ordering::Relaxed));
        registry.counter(&catalog::SERVER_BATCH_PASSES, self.batch_passes.load(Ordering::Relaxed));
        registry.counter(
            &catalog::SERVER_BATCH_FUSED_JOBS,
            self.batch_fused_jobs.load(Ordering::Relaxed),
        );
        registry
            .counter(&catalog::SERVER_RESULT_CACHE_HITS, self.cache_hits.load(Ordering::Relaxed));
        registry.counter(
            &catalog::SERVER_RESULT_CACHE_MISSES,
            self.cache_misses.load(Ordering::Relaxed),
        );
        registry.counter(
            &catalog::SERVER_RESULT_CACHE_EVICTIONS,
            self.cache_evictions.load(Ordering::Relaxed),
        );
        registry
            .gauge(&catalog::SERVER_ARTIFACTS_RESIDENT_BYTES, artifacts.resident_bytes() as f64);
        registry.counter(&catalog::SERVER_ARTIFACTS_EVICTIONS, artifacts.counters().evictions);
        registry.gauge(&catalog::SERVER_QUEUE_DEPTH, queue_depth as f64);
        registry.histogram(&catalog::SERVER_LATENCY_QUEUE, lock(&self.queue_ms).clone());
        registry.histogram(&catalog::SERVER_LATENCY_RUN, lock(&self.run_ms).clone());
        registry.histogram(&catalog::SERVER_LATENCY_TOTAL, lock(&self.total_ms).clone());
        registry.histogram(&catalog::SERVER_BATCH_SIZE, lock(&self.batch_size).clone());
        registry
    }
}

fn lock(histogram: &Mutex<Log2Histogram>) -> std::sync::MutexGuard<'_, Log2Histogram> {
    histogram.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_reflects_noted_events() {
        let m = ServerMetrics::default();
        m.note_accepted();
        m.note_accepted();
        m.note_rejected();
        m.note_completed(Duration::from_millis(5), Duration::from_millis(40));
        m.note_failed(Duration::from_millis(1), Duration::from_millis(2));
        m.note_cancelled();
        m.note_coalesced();
        m.note_batch(1);
        m.note_batch(3);
        for _ in 0..4 {
            m.note_cache_hit();
        }
        for _ in 0..6 {
            m.note_cache_miss();
        }
        m.note_evicted(2);
        let registry = m.export(3, &ArtifactCache::new());
        assert_eq!(registry.counter_value("server.jobs.accepted"), 2);
        assert_eq!(registry.counter_value("server.jobs.rejected"), 1);
        assert_eq!(registry.counter_value("server.jobs.completed"), 1);
        assert_eq!(registry.counter_value("server.jobs.failed"), 1);
        assert_eq!(registry.counter_value("server.jobs.cancelled"), 1);
        assert_eq!(registry.counter_value("server.jobs.coalesced"), 1);
        assert_eq!(registry.counter_value("server.batch.passes"), 2);
        assert_eq!(registry.counter_value("server.batch.fused_jobs"), 3, "solo passes not fused");
        assert_eq!(registry.counter_value("server.result_cache.hits"), 4);
        assert_eq!(registry.counter_value("server.result_cache.misses"), 6);
        assert_eq!(registry.counter_value("server.result_cache.evictions"), 2);
        let doc = registry.to_json();
        assert!(doc.contains("server.queue.depth"));
        assert!(doc.contains("server.latency.total_ms"));
        assert!(doc.contains("server.batch.size"));
        assert!(doc.contains("server.artifacts.resident_bytes"));
        assert!(doc.contains("server.artifacts.evictions"));
    }
}
