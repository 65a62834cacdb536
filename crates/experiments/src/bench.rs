//! Minimal micro-benchmark harness for the `benches/` targets, and the
//! baseline gate of the bench binaries.
//!
//! The workspace builds offline, so Criterion is not available; this
//! std-only harness keeps the bench targets runnable under
//! `cargo bench`. Each measurement warms up once, then repeats the
//! closure until a time budget is spent and reports the mean wall-clock
//! per iteration.
//!
//! [`gate`] is the one rule behind every `--check` flag (`sim_bench`,
//! `convert_bench`, `server_bench`): both the committed `BENCH_*.json`
//! baseline and the document this run wrote go through the
//! [`telemetry::json`] parser, and each gated higher-is-better field
//! must reach `base × (1 − tolerance/100)`.

use std::time::{Duration, Instant};

use telemetry::json::Value;

/// Per-measurement time budget once warmed up.
const BUDGET: Duration = Duration::from_millis(300);
/// Minimum number of timed iterations, budget notwithstanding.
const MIN_ITERS: u32 = 3;

/// A named group of measurements, mirroring Criterion's group API
/// closely enough that benches read the same.
pub struct BenchGroup {
    group: String,
    filter: Option<String>,
}

impl BenchGroup {
    pub fn new(group: &str) -> BenchGroup {
        // `cargo bench` forwards trailing args; any non-flag arg acts as
        // a substring filter on `group/name`, like Criterion's.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        BenchGroup { group: group.to_string(), filter }
    }

    /// Times `f`, printing `group/name: <mean per iteration>`.
    pub fn bench_function<T>(&mut self, name: impl AsRef<str>, f: impl FnMut() -> T) {
        let id = format!("{}/{}", self.group, name.as_ref());
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let (mean, iters) = measure(f);
        println!("{id}: {} ({iters} iterations)", format_secs(mean));
    }

    pub fn finish(self) {}
}

/// Warms `f` up once, then repeats it until the time budget is spent,
/// returning the mean wall-clock seconds per iteration and the number of
/// timed iterations. The measurement primitive behind both the bench
/// targets and the `sim_bench` throughput suite.
pub fn measure<T>(mut f: impl FnMut() -> T) -> (f64, u32) {
    std::hint::black_box(f()); // warmup
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < MIN_ITERS || start.elapsed() < BUDGET {
        std::hint::black_box(f());
        iters += 1;
    }
    (start.elapsed().as_secs_f64() / f64::from(iters), iters)
}

/// Gates a bench run against its baseline: `current` is the document
/// this run wrote, `baseline` the committed one.
///
/// Every number in `current` stored under a key listed in `fields` is
/// compared with the baseline value at the same place and must be at
/// least `base × (1 − tolerance_pct/100)`. Array rows are matched by
/// their `"family"` member, so row order does not matter. Returns one
/// line per failure, naming the field (such as `results[crypto].mips`)
/// and its change in percent; a gated field the baseline lacks fails
/// too, as does a document that does not parse.
pub fn gate(baseline: &str, current: &str, fields: &[&str], tolerance_pct: f64) -> Vec<String> {
    let (base, now) = match (Value::parse(baseline), Value::parse(current)) {
        (Ok(base), Ok(now)) => (base, now),
        (Err(e), _) => return vec![format!("baseline: {e}")],
        (_, Err(e)) => return vec![format!("this run: {e}")],
    };
    let mut gate = Gate { fields, floor: 1.0 - tolerance_pct / 100.0, failures: Vec::new() };
    gate.walk(&now, Some(&base), "");
    gate.failures
}

/// The `--check` step of a bench binary: reads the baseline at
/// `baseline_path`, [`gate`]s `current` against it, and exits with
/// status 1 after listing any failures (2 if the baseline is
/// unreadable).
pub fn check_baseline(
    tool: &str,
    baseline_path: &str,
    current: &str,
    fields: &[&str],
    tolerance_pct: f64,
) {
    let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("error: could not read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let failures = gate(&baseline, current, fields, tolerance_pct);
    if failures.is_empty() {
        eprintln!("[{tool}] within {tolerance_pct}% of baseline {baseline_path}");
        return;
    }
    eprintln!("error: regression beyond {tolerance_pct}% tolerance against {baseline_path}:");
    for failure in &failures {
        eprintln!("  {failure}");
    }
    std::process::exit(1);
}

struct Gate<'a> {
    fields: &'a [&'a str],
    floor: f64,
    failures: Vec<String>,
}

impl Gate<'_> {
    fn walk(&mut self, now: &Value, base: Option<&Value>, path: &str) {
        match now {
            Value::Object(members) => {
                for (key, value) in members {
                    let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    let base = base.and_then(|b| b.get(key));
                    match value {
                        Value::Number(now) if self.fields.contains(&key.as_str()) => {
                            self.check(&path, *now, base.and_then(Value::as_f64));
                        }
                        _ => self.walk(value, base, &path),
                    }
                }
            }
            Value::Array(rows) => {
                for row in rows {
                    let family = row.get("family");
                    let base_row = match base {
                        Some(Value::Array(base_rows)) => {
                            base_rows.iter().find(|b| b.get("family") == family)
                        }
                        _ => None,
                    };
                    let label = family.and_then(Value::as_str).unwrap_or("?");
                    self.walk(row, base_row, &format!("{path}[{label}]"));
                }
            }
            _ => {}
        }
    }

    fn check(&mut self, path: &str, now: f64, base: Option<f64>) {
        match base {
            None => self.failures.push(format!("{path}: missing from baseline")),
            Some(base) if now < base * self.floor => self.failures.push(format!(
                "{path}: {now:.2} vs baseline {base:.2} ({:+.1}%)",
                (now / base - 1.0) * 100.0
            )),
            Some(_) => {}
        }
    }
}

fn format_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut group = BenchGroup { group: "t".into(), filter: None };
        let mut calls = 0u32;
        group.bench_function("count", || calls += 1);
        // One warmup plus at least MIN_ITERS timed iterations.
        assert!(calls > MIN_ITERS, "{calls}");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut group = BenchGroup { group: "t".into(), filter: Some("nomatch".into()) };
        let mut calls = 0u32;
        group.bench_function("count", || calls += 1);
        assert_eq!(calls, 0);
    }

    const BASELINE: &str = r#"{"scale":"smoke","results":[
        {"family":"crypto","mips":10.0,"cvpz":{"ratio":3.0}},
        {"family":"server","mips":20.0,"cvpz":{"ratio":8.0}}],"aggregate_mips":15.0}"#;

    #[test]
    fn gate_passes_within_tolerance() {
        let run = r#"{"scale":"smoke","results":[
            {"family":"crypto","mips":8.5,"cvpz":{"ratio":2.6}},
            {"family":"server","mips":25.0,"cvpz":{"ratio":8.0}}],"aggregate_mips":13.0}"#;
        assert_eq!(
            gate(BASELINE, run, &["mips", "ratio", "aggregate_mips"], 20.0),
            Vec::<String>::new()
        );
    }

    #[test]
    fn gate_names_the_regressed_field_and_its_percentage() {
        let run = r#"{"results":[{"family":"crypto","mips":10.0,"cvpz":{"ratio":1.5}},
            {"family":"server","mips":20.0,"cvpz":{"ratio":8.0}}],"aggregate_mips":15.0}"#;
        assert_eq!(
            gate(BASELINE, run, &["mips", "ratio", "aggregate_mips"], 20.0),
            ["results[crypto].cvpz.ratio: 1.50 vs baseline 3.00 (-50.0%)"]
        );
        // Ungated fields never fail.
        assert!(gate(BASELINE, run, &["mips"], 20.0).is_empty());
    }

    #[test]
    fn gate_matches_rows_by_family_not_position() {
        let run = r#"{"results":[{"family":"server","mips":19.0},
            {"family":"crypto","mips":9.0}],"aggregate_mips":15.0}"#;
        assert!(gate(BASELINE, run, &["mips", "aggregate_mips"], 20.0).is_empty());
    }

    #[test]
    fn gate_fails_on_a_field_the_baseline_lacks() {
        let run = r#"{"results":[{"family":"rv-int","mips":9.0}],"jobs_per_sec":4.0}"#;
        assert_eq!(
            gate(BASELINE, run, &["mips", "jobs_per_sec"], 20.0),
            ["results[rv-int].mips: missing from baseline", "jobs_per_sec: missing from baseline"]
        );
        assert!(gate("{\"mips\": }", run, &["mips"], 20.0)[0].starts_with("baseline: "));
    }

    #[test]
    fn format_covers_magnitudes() {
        assert_eq!(format_secs(2.5), "2.500 s");
        assert_eq!(format_secs(0.0025), "2.500 ms");
        assert_eq!(format_secs(0.0000025), "2.500 µs");
        assert_eq!(format_secs(0.0000000025), "2.5 ns");
    }
}
