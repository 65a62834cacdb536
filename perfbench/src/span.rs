//! In-memory spans around calls into each layer.
//!
//! A span records its name, its parent and its start and end. A layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. With tracing off, [`Tracer::span`] calls straight through and
//! reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Span recorder for one thread.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise only calls
    /// through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span { name, parent: self.open.last().copied(), start: now, end: now });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = Instant::now();
        out
    }

    /// Seconds of self time per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += seconds(span);
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child) {
            *out.entry(span.name).or_insert(0.0) += seconds(span) - covered;
        }
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| seconds(s) * 1e3).collect()
    }
}

fn seconds(span: &Span) -> f64 {
    span.end.duration_since(span.start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let s = t.self_seconds();
        assert!(s["inner"] >= 0.020);
        assert!(s["outer"] >= 0.005 && s["outer"] < 0.020, "{s:?}");
        assert_eq!(t.durations_ms("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.self_seconds().is_empty());
    }
}
