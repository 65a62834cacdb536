//! Minimal micro-benchmark harness for the `benches/` targets, and the
//! one front door of the `BENCH_*.json` producers.
//!
//! The workspace builds offline, so Criterion is not available; this
//! std-only harness keeps the bench targets runnable under
//! `cargo bench`. Each measurement warms up once, then repeats the
//! closure until a time budget is spent and reports the mean wall-clock
//! per iteration.
//!
//! The bench binaries (`sim_bench`, `convert_bench`, `server_bench`)
//! keep only their own measurements; everything around them lives here:
//!
//! * [`Bench::args`] parses the five shared flags, `--scale
//!   smoke|test|paper` (default `paper`), `--out <path>`, `--metrics
//!   <path>` (not `server_bench`), `--check <baseline.json>` and
//!   `--tolerance <pct>`, with each tool's default `--out` and
//!   `--tolerance`; a tool-supplied closure takes its own extra flags
//!   (`server_bench --shards`).
//! * Each tool writes its document with the [`telemetry::json::object`]
//!   writer; [`Bench::finish`] writes it to `--out`, writes the
//!   telemetry registry to `--metrics`, then runs the `--check` gate.
//! * [`gate`] is the one `--check` rule: both the committed
//!   `BENCH_*.json` baseline and the document this run wrote go through
//!   the [`telemetry::json`] parser, and each gated higher-is-better
//!   field (the tool's [`Bench::gated`] list) must reach
//!   `base × (1 − tolerance/100)`.
//! * [`Cli::fail`] is the one exit rule, shared with the `experiments`
//!   binary: status **1** when a check fails (a `--check` regression or
//!   a tool's hard threshold, such as the `.etrace` 3x compression
//!   floor or `server_bench`'s 2x fan-out), status **2** for a usage
//!   error (the usage line follows the message) or an I/O error (a file
//!   that cannot be read or written, a server that cannot be started or
//!   reached). The message starts with the tool's name.

use std::path::Path;
use std::time::{Duration, Instant};

use cvp_trace::CvpInstruction;
use etrace::{Program, TraceItem};
use telemetry::json::Value;
use telemetry::Registry;
use trace_store::rv_items_to_cvp;
use workloads::{RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind};

use crate::runner::ExperimentScale;

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
/// this run wrote, `baseline` the committed one, `fields` the tool's
/// [`Bench::gated`] list.
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

/// How a front door exits on failure (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// A check failed: a `--check` regression or a hard threshold
    /// (status 1).
    Check,
    /// Bad arguments (status 2); the usage line follows the message.
    Usage,
    /// A file, directory or service could not be used (status 2).
    Io,
}

/// A command-line tool's name and usage line.
#[derive(Debug)]
pub struct Cli {
    /// Binary name; it starts every diagnostic.
    pub name: &'static str,
    /// Usage line, printed after a usage error.
    pub usage: &'static str,
}

impl Cli {
    /// Prints `<name>: <message>` (plus the usage line for
    /// [`Exit::Usage`]) and exits: 1 for [`Exit::Check`], 2 otherwise.
    pub fn fail(&self, exit: Exit, message: &str) -> ! {
        eprintln!("{}: {message}", self.name);
        if exit == Exit::Usage {
            eprintln!("usage: {}", self.usage);
        }
        std::process::exit(if exit == Exit::Check { 1 } else { 2 })
    }

    /// Writes `contents` to `path`, or fails with [`Exit::Io`] naming
    /// the path.
    pub fn write(&self, path: impl AsRef<Path>, contents: &str) {
        let path = path.as_ref();
        match std::fs::write(path, contents) {
            Ok(()) => eprintln!("[{}] wrote {}", self.name, path.display()),
            Err(e) => self.fail(Exit::Io, &format!("could not write {}: {e}", path.display())),
        }
    }
}

/// One `BENCH_*.json` producer: its command line and the defaults and
/// gated fields of the shared flags.
#[derive(Debug)]
pub struct Bench {
    /// Name and usage line.
    pub cli: Cli,
    /// Default `--out` path.
    pub out: &'static str,
    /// Default `--tolerance`, in percent.
    pub tolerance_pct: f64,
    /// The higher-is-better fields `--check` gates.
    pub gated: &'static [&'static str],
    /// Whether the tool takes `--metrics`.
    pub metrics: bool,
}

/// `sim_bench`: simulator MIPS per workload family.
pub const SIM_BENCH: Bench = Bench {
    cli: Cli {
        name: "sim_bench",
        usage: "sim_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>] \
                [--check <baseline.json>] [--tolerance <pct>]",
    },
    out: "BENCH_sim.json",
    tolerance_pct: 20.0,
    gated: &["mips", "aggregate_mips"],
    metrics: true,
};

/// `convert_bench`: trace-store encode/decode MB/s and compression.
pub const CONVERT_BENCH: Bench = Bench {
    cli: Cli {
        name: "convert_bench",
        usage: "convert_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>] \
                [--check <baseline.json>] [--tolerance <pct>]",
    },
    out: "BENCH_io.json",
    tolerance_pct: 25.0,
    gated: &["encode_mbps", "decode_mbps", "ratio"],
    metrics: true,
};

/// `server_bench`: job-service, fan-out and router throughput.
pub const SERVER_BENCH: Bench = Bench {
    cli: Cli {
        name: "server_bench",
        usage: "server_bench [--scale smoke|test|paper] [--shards N] [--out <path>] \
                [--check <baseline.json>] [--tolerance <pct>]",
    },
    out: "BENCH_server.json",
    tolerance_pct: 30.0,
    gated: &["jobs_per_sec", "fanout_jobs_per_sec", "router_jobs_per_sec"],
    metrics: false,
};

/// The shared flags of one bench run, as [`Bench::parse`] read them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// `--scale` name: `smoke`, `test` or `paper`.
    pub scale_name: String,
    /// The scale `scale_name` names.
    pub scale: ExperimentScale,
    /// `--out` path.
    pub out: String,
    /// `--metrics` path, if given.
    pub metrics: Option<String>,
    /// `--check` baseline path, if given.
    pub check: Option<String>,
    /// `--tolerance` percentage, in (0, 100).
    pub tolerance_pct: f64,
}

impl Bench {
    /// Parses `args` (without the program name). `extra` sees every
    /// flag that is not a shared one, with the remaining arguments to
    /// take its value from, and returns whether it was the tool's own;
    /// a flag neither knows is an error. Every error names the flag.
    pub fn parse(
        &self,
        args: impl IntoIterator<Item = String>,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<BenchArgs, String> {
        let mut args = args.into_iter();
        let mut parsed = BenchArgs {
            scale_name: "paper".to_owned(),
            scale: ExperimentScale::paper(),
            out: self.out.to_owned(),
            metrics: None,
            check: None,
            tolerance_pct: self.tolerance_pct,
        };
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--scale" => {
                    let name = value("a value")?;
                    parsed.scale = ExperimentScale::from_name(&name)
                        .ok_or_else(|| format!("--scale must be smoke|test|paper, got {name:?}"))?;
                    parsed.scale_name = name;
                }
                "--out" => parsed.out = value("a path")?,
                "--metrics" if self.metrics => parsed.metrics = Some(value("a path")?),
                "--check" => parsed.check = Some(value("a path")?),
                "--tolerance" => {
                    let raw = value("a percentage")?;
                    parsed.tolerance_pct =
                        raw.parse().ok().filter(|t: &f64| *t > 0.0 && *t < 100.0).ok_or_else(
                            || format!("--tolerance needs a percentage in (0, 100), got {raw:?}"),
                        )?;
                }
                other => {
                    if !extra(other, &mut args)? {
                        return Err(format!("unknown argument {other:?}"));
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// [`Bench::parse`] over the process arguments; an error exits with
    /// [`Exit::Usage`].
    pub fn args(
        &self,
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> BenchArgs {
        self.parse(std::env::args().skip(1), extra)
            .unwrap_or_else(|e| self.cli.fail(Exit::Usage, &e))
    }

    /// The tail of every bench run: writes `document` (plus a newline)
    /// to `--out` and `metrics` to `--metrics`, then, with `--check`,
    /// [`gate`]s `document` against the baseline and fails with
    /// [`Exit::Check`] listing every regressed field.
    pub fn finish(&self, args: &BenchArgs, document: &str, metrics: Option<&Registry>) {
        self.cli.write(&args.out, &format!("{document}\n"));
        if let (Some(path), Some(registry)) = (&args.metrics, metrics) {
            self.cli.write(path, &registry.to_json());
        }
        let Some(path) = &args.check else { return };
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            self.cli.fail(Exit::Io, &format!("could not read baseline {path}: {e}"))
        });
        let tolerance = args.tolerance_pct;
        let failures = gate(&baseline, document, self.gated, tolerance);
        if !failures.is_empty() {
            let list = failures.join("\n  ");
            let message =
                format!("regression beyond {tolerance}% tolerance against {path}:\n  {list}");
            self.cli.fail(Exit::Check, &message);
        }
        eprintln!("[{}] within {tolerance}% of baseline {path}", self.cli.name);
    }
}

/// One benched workload family: a synthetic ARM workload kind, or a
/// RISC-V kind that goes through the E-Trace packet frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A synthetic CVP-1 workload, named as in `WorkloadKind::to_string`.
    Arm(WorkloadKind),
    /// A RISC-V E-Trace workload, named as in `RvWorkloadKind::to_string`.
    RiscV(RvWorkloadKind),
}

/// The families `sim_bench` and `convert_bench` measure: every
/// synthetic workload kind, then the RISC-V kinds.
pub const FAMILIES: [Family; 9] = [
    Family::Arm(WorkloadKind::PointerChase),
    Family::Arm(WorkloadKind::Streaming),
    Family::Arm(WorkloadKind::Crypto),
    Family::Arm(WorkloadKind::BranchyInt),
    Family::Arm(WorkloadKind::Server),
    Family::Arm(WorkloadKind::FpKernel),
    Family::RiscV(RvWorkloadKind::IntLoop),
    Family::RiscV(RvWorkloadKind::StreamKernel),
    Family::RiscV(RvWorkloadKind::Dispatch),
];

/// One family's generated bench trace.
pub struct FamilyTrace {
    /// The family name (`crypto`, `rv-int`, ...).
    pub name: String,
    /// The trace as CVP-1 records; for a RISC-V family, the packet
    /// stream's reconstruction.
    pub cvp: Vec<CvpInstruction>,
    /// A RISC-V family's program and packet items.
    pub etrace: Option<(Program, Vec<TraceItem>)>,
}

impl Family {
    /// Generates this family's `length`-instruction trace, named
    /// `bench_<family>` with seed `0xb1a5`.
    pub fn generate(self, length: usize) -> FamilyTrace {
        match self {
            Family::Arm(kind) => {
                let name = kind.to_string();
                let spec = TraceSpec::new(format!("bench_{name}"), kind, 0xb1a5);
                FamilyTrace { cvp: spec.with_length(length).generate(), name, etrace: None }
            }
            Family::RiscV(kind) => {
                let name = kind.to_string();
                let spec = RvTraceSpec::new(format!("bench_{name}"), kind, 0xb1a5);
                let (program, items) = spec.with_length(length).generate();
                let cvp = rv_items_to_cvp(&program, &items);
                FamilyTrace { name, cvp, etrace: Some((program, items)) }
            }
        }
    }
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

    fn parse(bench: &Bench, args: &[&str]) -> Result<BenchArgs, String> {
        bench.parse(args.iter().map(|a| a.to_string()), |flag, rest| match flag {
            "--shards" if bench.cli.name == "server_bench" => {
                rest.next().map(|_| true).ok_or_else(|| "--shards needs a count".to_owned())
            }
            _ => Ok(false),
        })
    }

    #[test]
    fn parser_applies_each_tools_defaults_and_reads_the_shared_flags() {
        let defaults = parse(&CONVERT_BENCH, &[]).unwrap();
        assert_eq!(
            (defaults.scale_name.as_str(), defaults.out.as_str()),
            ("paper", "BENCH_io.json")
        );
        assert_eq!((defaults.tolerance_pct, defaults.metrics, defaults.check), (25.0, None, None));
        let args = [
            "--scale",
            "smoke",
            "--out",
            "o.json",
            "--metrics",
            "m.json",
            "--check",
            "b.json",
            "--tolerance",
            "40",
        ];
        let parsed = parse(&SIM_BENCH, &args).unwrap();
        assert_eq!(parsed.scale, ExperimentScale::smoke());
        assert_eq!(parsed.out, "o.json");
        assert_eq!(parsed.metrics.as_deref(), Some("m.json"));
        assert_eq!(parsed.check.as_deref(), Some("b.json"));
        assert_eq!(parsed.tolerance_pct, 40.0);
        assert_eq!(parse(&SERVER_BENCH, &["--shards", "3"]).unwrap().tolerance_pct, 30.0);
    }

    #[test]
    fn parser_errors_name_the_flag() {
        let cases: [(&Bench, &[&str], &str); 10] = [
            (&SIM_BENCH, &["--bogus"], "unknown argument \"--bogus\""),
            (&SIM_BENCH, &["--out"], "--out needs a path"),
            (&SIM_BENCH, &["--scale"], "--scale needs a value"),
            (
                &SIM_BENCH,
                &["--tolerance", "0"],
                "--tolerance needs a percentage in (0, 100), got \"0\"",
            ),
            (
                &CONVERT_BENCH,
                &["--tolerance", "100"],
                "--tolerance needs a percentage in (0, 100), got \"100\"",
            ),
            (
                &SERVER_BENCH,
                &["--tolerance", "abc"],
                "--tolerance needs a percentage in (0, 100), got \"abc\"",
            ),
            (
                &CONVERT_BENCH,
                &["--scale", "huge"],
                "--scale must be smoke|test|paper, got \"huge\"",
            ),
            (&SIM_BENCH, &["--shards", "2"], "unknown argument \"--shards\""),
            (&SERVER_BENCH, &["--metrics", "m.json"], "unknown argument \"--metrics\""),
            (&SERVER_BENCH, &["--shards"], "--shards needs a count"),
        ];
        for (bench, args, message) in cases {
            assert_eq!(parse(bench, args), Err(message.to_owned()), "{} {args:?}", bench.cli.name);
        }
    }

    /// Each committed baseline passes its own gate and holds every
    /// field its tool gates, so `--check` against it can pass.
    #[test]
    fn committed_baselines_gate_against_themselves() {
        let baselines = [
            (&SIM_BENCH, include_str!("../../../BENCH_sim.json")),
            (&CONVERT_BENCH, include_str!("../../../BENCH_io.json")),
            (&SERVER_BENCH, include_str!("../../../BENCH_server.json")),
        ];
        for (bench, baseline) in baselines {
            assert_eq!(gate(baseline, baseline, bench.gated, 1.0), Vec::<String>::new());
            for field in bench.gated {
                let key = format!("\"{field}\":");
                assert!(baseline.contains(&key), "{} baseline lacks {field}", bench.cli.name);
            }
        }
    }

    #[test]
    fn families_cover_both_frontends_under_their_display_names() {
        let names: Vec<String> = FAMILIES.iter().map(|f| f.generate(50).name).collect();
        assert_eq!(names[..3], ["pointer-chase", "streaming", "crypto"]);
        assert_eq!(names[6..], ["rv-int", "rv-stream", "rv-dispatch"]);
        let rv = Family::RiscV(RvWorkloadKind::IntLoop).generate(200);
        assert!(rv.etrace.is_some() && !rv.cvp.is_empty());
        assert!(FAMILIES[0].generate(200).etrace.is_none());
    }

    #[test]
    fn format_covers_magnitudes() {
        assert_eq!(format_secs(2.5), "2.500 s");
        assert_eq!(format_secs(0.0025), "2.500 ms");
        assert_eq!(format_secs(0.0000025), "2.500 µs");
        assert_eq!(format_secs(0.0000000025), "2.5 ns");
    }
}
