//! What a measured phase produced, and the metrics derived from it.

use std::fmt::Write as _;

use crate::stats::{self, samples_needed};

/// The outcome of one measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds of the measured operations.
    pub wall_s: f64,
    /// Simulated instructions the phase's operations ran.
    pub instructions: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was missing or wrong (refusals included).
    pub failed: u64,
    /// Operations the service refused with `429` or `503`.
    pub refused: u64,
    /// One latency per attempted operation; failed and refused ones are
    /// infinite.
    pub latencies_ms: Vec<f64>,
    /// Independent latency samples: operations, or sweeps where the
    /// jobs of a sweep finish together.
    pub groups: usize,
    /// Digest over every checked output, in a timing-independent order.
    pub digest: u64,
    /// Peak live heap over a fixed amount of work, for workloads whose
    /// heap grows with the work done; others use the whole phase's peak.
    pub peak_heap_bytes: Option<usize>,
}

impl Phase {
    /// Operations completed with checked output, per wall second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// Simulated instructions per wall second, in millions.
    pub fn sim_mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6
    }

    /// The `pct` latency percentile under the ten-beyond rule.
    pub fn latency_ms(&self, pct: u32) -> Result<f64, String> {
        stats::percentile(&self.latencies_ms, pct, self.groups).ok_or_else(|| {
            format!(
                "p{pct} unsupported: {} independent samples, {} needed",
                self.groups,
                samples_needed(pct)
            )
        })
    }

    /// Adds another phase's counts (used for the traced run's totals).
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
    }
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// A non-finite value (an infinite latency from a failed operation)
    /// is printed as `1e300` so the line stays valid JSON.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 1e300 };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        m.push("latency_p90_ms", f64::INFINITY, "ms");
        let line = m.result_line(true, 10, 1);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p90_ms\": {\"value\": 1e300, \"unit\": \"ms\"}}}"
        );
        let parsed = sim_server::json::Value::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(sim_server::json::Value::as_u64), Some(10));
    }

    #[test]
    fn unsupported_p90_is_refused() {
        let phase = Phase {
            wall_s: 1.0,
            latencies_ms: vec![1.0; 50],
            groups: 50,
            attempted: 50,
            ..Phase::default()
        };
        assert!(phase.latency_ms(50).is_ok());
        let err = phase.latency_ms(90).expect_err("50 samples cannot support p90");
        assert!(err.contains("100 needed"), "{err}");
    }
}
