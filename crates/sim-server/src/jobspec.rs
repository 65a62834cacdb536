//! Job specifications: the request schema and its execution.
//!
//! A job body is one small JSON object:
//!
//! ```json
//! {
//!   "trace": "traces/server.champsimz",          // XOR "workload"
//!   "workload": {"kind": "crypto", "seed": 7, "length": 20000},
//!   "improvements": "All_imps",                  // cvp/workload jobs
//!   "core": "iiswc",                             // or "ipc1"
//!   "warmup": 0,
//!   "epochs": 1000,                              // optional
//!   "prefetcher": "next-line"                    // optional
//! }
//! ```
//!
//! `trace` dispatches on extension exactly like the CLI binaries:
//! `.champsimtrace`/`.champsimz` run directly, `.cvp`/`.cvpz` convert
//! first under `improvements`, and `.etrace` RISC-V branch traces
//! decode to CVP records and then convert the same way. A `workload`
//! object is a [`TraceSpec`]
//! (kind, seed, length, plus any of the generator knob fields) resolved
//! through the shared artifact cache, so concurrent jobs over the same
//! spec generate and convert it once.
//!
//! The result of a ChampSim-trace or `.etrace` job is built by
//! [`cli::champsim_run_registry`] — the same function the
//! `champsim-run` binary uses — so the fetched document is
//! byte-identical to a local `champsim-run --metrics` of the same
//! configuration.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use experiments::cache::ArtifactCache;
use sim::{CancelToken, CoreConfig, RunOptions, SimReport, Simulator};
use trace_store::{
    is_cvp_family_path, is_etrace_path, ChampsimTraceReader, CvpTraceReader, CHAMPSIMZ_EXT,
};
use workloads::{TraceSpec, WorkloadKind};

use crate::json::Value;

/// Where a job's records come from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// An on-disk ChampSim trace (`.champsimtrace` / `.champsimz`).
    ChampsimTrace(String),
    /// An on-disk CVP-1 trace (`.cvp` / `.cvpz`), converted before
    /// simulation.
    CvpTrace(String),
    /// An on-disk RISC-V E-Trace branch trace (`.etrace`), decoded to
    /// CVP records and converted before simulation.
    Etrace(String),
    /// A synthetic workload generated (and cached) on the server.
    Workload(TraceSpec),
}

/// A validated job specification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Record source.
    pub source: JobSource,
    /// Converter improvement set for CVP/workload sources.
    pub improvements: ImprovementSet,
    /// Core preset name (`iiswc` or `ipc1`).
    pub core_name: String,
    /// Warm-up records excluded from statistics.
    pub warmup: u64,
    /// Optional epoch sampling interval.
    pub epochs: Option<u64>,
    /// Optional instruction prefetcher name.
    pub prefetcher: Option<String>,
}

/// Why a job did not produce a result document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Cancelled cooperatively (deadline or shutdown abort); partial
    /// statistics were discarded.
    Cancelled,
    /// Failed with a diagnostic.
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("cancelled"),
            JobError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl JobSpec {
    /// Parses and validates a request body.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let value = Value::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let source = match (value.get("trace"), value.get("workload")) {
            (Some(_), Some(_)) => {
                return Err("specify either \"trace\" or \"workload\", not both".to_owned())
            }
            (None, None) => return Err("missing \"trace\" or \"workload\"".to_owned()),
            (Some(trace), None) => {
                let path = trace.as_str().ok_or_else(|| "\"trace\" must be a string".to_owned())?;
                let file = Path::new(path);
                let ext = file.extension().and_then(|e| e.to_str()).unwrap_or("");
                if is_etrace_path(file) {
                    JobSource::Etrace(path.to_owned())
                } else if is_cvp_family_path(file) {
                    JobSource::CvpTrace(path.to_owned())
                } else if ext.eq_ignore_ascii_case("champsimtrace")
                    || ext.eq_ignore_ascii_case(CHAMPSIMZ_EXT)
                {
                    JobSource::ChampsimTrace(path.to_owned())
                } else {
                    return Err(format!(
                        "unrecognized trace extension in {path:?} (want .cvp, .cvpz, \
                         .etrace, .champsimtrace or .champsimz)"
                    ));
                }
            }
            (None, Some(workload)) => JobSource::Workload(parse_workload(workload)?),
        };
        let improvements = match value.get("improvements") {
            None => ImprovementSet::none(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| "\"improvements\" must be a string".to_owned())?
                .parse()
                .map_err(|e| format!("invalid improvements: {e}"))?,
        };
        let core_name = match value.get("core") {
            None => "iiswc".to_owned(),
            Some(v) => match v.as_str() {
                Some(name) if CoreConfig::by_name(name).is_some() => name.to_owned(),
                _ => return Err("\"core\" must be \"iiswc\" or \"ipc1\"".to_owned()),
            },
        };
        let warmup = match value.get("warmup") {
            None => 0,
            Some(v) => {
                v.as_u64().ok_or_else(|| "\"warmup\" must be a non-negative integer".to_owned())?
            }
        };
        let epochs = match value.get("epochs") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(n) if n > 0 => Some(n),
                _ => return Err("\"epochs\" must be a positive integer".to_owned()),
            },
        };
        let prefetcher = match value.get("prefetcher") {
            None => None,
            Some(v) => {
                let name =
                    v.as_str().ok_or_else(|| "\"prefetcher\" must be a string".to_owned())?;
                if iprefetch::by_name(name).is_none() {
                    return Err(format!("unknown prefetcher {name:?}"));
                }
                Some(name.to_owned())
            }
        };
        Ok(JobSpec { source, improvements, core_name, warmup, epochs, prefetcher })
    }

    /// Runs the job, returning the result metrics document.
    ///
    /// Cancellation (the token tripping mid-run) discards the partial
    /// statistics and reports [`JobError::Cancelled`].
    pub fn execute(&self, cache: &ArtifactCache, token: &CancelToken) -> Result<String, JobError> {
        Self::execute_batch(&[(self, token)], cache).pop().expect("batch of one yields one outcome")
    }

    /// Runs a batch of jobs sharing one [`source key`](JobSpec::source_key)
    /// as a single fused streaming pass: the records are loaded (or
    /// converted) once and pushed through one lane per job in lockstep
    /// ([`sim::Simulator::run_fused`]), producing one independent
    /// outcome per job.
    ///
    /// This is the only execution path — a batch of one is how
    /// [`execute`](JobSpec::execute) runs — so fused results are
    /// structurally byte-identical to unbatched ones. Per-job options
    /// (core, warm-up, epochs, prefetcher) and cancel tokens stay fully
    /// independent: a lane whose token trips reports
    /// [`JobError::Cancelled`] while its batchmates run to completion.
    pub fn execute_batch(
        batch: &[(&JobSpec, &CancelToken)],
        cache: &ArtifactCache,
    ) -> Vec<Result<String, JobError>> {
        let Some((first, _)) = batch.first() else { return Vec::new() };
        debug_assert!(
            batch.iter().all(|(spec, _)| spec.source_key() == first.source_key()),
            "batched jobs must share a source key"
        );

        // Live lanes: jobs not already cancelled at dispatch.
        let mut outcomes: Vec<Result<String, JobError>> =
            batch.iter().map(|_| Err(JobError::Cancelled)).collect();
        let live: Vec<usize> = (0..batch.len()).filter(|&i| !batch[i].1.is_cancelled()).collect();
        if live.is_empty() {
            return outcomes;
        }

        // One source load for the whole batch; a load failure fails
        // every live job with the same diagnostic.
        let loaded = match &first.source {
            JobSource::ChampsimTrace(path) => read_champsim(path).map(LoadedRecords::Owned),
            JobSource::CvpTrace(path) | JobSource::Etrace(path) => read_cvp(path).map(|cvp| {
                LoadedRecords::Owned(Converter::new(first.improvements).convert_all(cvp.iter()))
            }),
            JobSource::Workload(spec) => Ok(LoadedRecords::Shared(cache.converted_shared(
                spec,
                spec.length(),
                first.improvements,
            ))),
        };
        let records = match loaded {
            Ok(records) => records,
            Err(e) => {
                for &i in &live {
                    outcomes[i] = Err(e.clone());
                }
                return outcomes;
            }
        };

        // The lane configs must outlive the sinks, hence the owned Vec.
        let cores: Vec<CoreConfig> = live.iter().map(|&i| batch[i].0.core()).collect();
        let lanes: Vec<(&CoreConfig, RunOptions)> = live
            .iter()
            .zip(&cores)
            .map(|(&i, core)| {
                let (spec, token) = batch[i];
                let mut options =
                    RunOptions::default().with_warmup(spec.warmup).with_cancel((*token).clone());
                if let Some(n) = spec.epochs {
                    options = options.with_epochs(n);
                }
                if let Some(name) = &spec.prefetcher {
                    // Parsing validated the name; an unknown one here is
                    // a registry change mid-flight, surfaced per job.
                    if let Some(pf) = iprefetch::by_name(name) {
                        options = options.with_prefetcher(pf);
                    }
                }
                (core, options)
            })
            .collect();

        let start = Instant::now();
        let reports = Simulator::run_fused(lanes, records.as_slice().iter().copied());
        cache.add_simulate_ns(start.elapsed().as_nanos() as u64);

        for (&i, report) in live.iter().zip(reports) {
            let (spec, token) = batch[i];
            outcomes[i] = if token.is_cancelled() {
                Err(JobError::Cancelled)
            } else {
                Ok(spec.render_document(&report))
            };
        }
        outcomes
    }

    /// Renders a finished report into the job's result document.
    fn render_document(&self, report: &SimReport) -> String {
        match &self.source {
            JobSource::ChampsimTrace(path) | JobSource::Etrace(path) => {
                // The byte-identity anchor: same exporter as champsim-run.
                cli::champsim_run_registry(report, &self.core_name, path).to_json()
            }
            JobSource::CvpTrace(path) => {
                let mut registry = self.server_labels(&[("trace", path)]);
                report.export(&mut registry);
                registry.to_json()
            }
            JobSource::Workload(spec) => {
                let mut registry = self.server_labels(&[
                    ("workload", spec.name()),
                    ("kind", &spec.kind().to_string()),
                    ("seed", &spec.seed().to_string()),
                    ("length", &spec.length().to_string()),
                ]);
                report.export(&mut registry);
                registry.to_json()
            }
        }
    }

    /// The canonical identity of this job's *record stream*: source
    /// plus the conversion improvements, nothing else. Jobs sharing a
    /// source key can be fused into one streaming pass (core, warm-up,
    /// epochs and prefetcher are per-lane run options).
    pub fn source_key(&self) -> String {
        let mut key = String::new();
        write_source_key(&mut key, &self.source, self.improvements);
        key
    }

    /// The canonical identity of the *complete* job: source key plus
    /// every knob that shapes the result document. Two request bodies
    /// that parse to the same spec — regardless of field order,
    /// whitespace, or spelled-out defaults — get the same key, which is
    /// what makes the server's execution table (coalescing and result
    /// cache) sound.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        write_source_key(&mut key, &self.source, self.improvements);
        key.push_str(&format!(
            "|core={}|warmup={}|epochs={:?}|prefetcher={:?}",
            self.core_name, self.warmup, self.epochs, self.prefetcher
        ));
        key
    }

    /// The resolved core configuration.
    pub fn core(&self) -> CoreConfig {
        CoreConfig::by_name(&self.core_name).unwrap_or_else(CoreConfig::iiswc_main)
    }

    fn server_labels(&self, extra: &[(&str, &str)]) -> telemetry::Registry {
        let mut registry = telemetry::Registry::new();
        registry.label("tool", "sim-server");
        registry.label("core", &self.core_name);
        registry.label("improvements", &self.improvements.to_string());
        for (key, value) in extra {
            registry.label(key, value);
        }
        registry
    }
}

/// A batch's record stream: owned when read from disk, shared when
/// fetched from the artifact cache.
enum LoadedRecords {
    Owned(Vec<ChampsimRecord>),
    Shared(experiments::cache::ConvertedTrace),
}

impl LoadedRecords {
    fn as_slice(&self) -> &[ChampsimRecord] {
        match self {
            LoadedRecords::Owned(records) => records,
            LoadedRecords::Shared(converted) => &converted.records,
        }
    }
}

/// Writes the canonical stream identity: the source (with every
/// generator knob — `f64` fractions by bit pattern, so any two JSON
/// spellings that parse to the same number agree) plus, for sources
/// that convert, the improvement set. On-disk ChampSim traces skip the
/// improvements: they are simulated as-is, so specs differing only
/// there still share a stream (and a result).
fn write_source_key(out: &mut String, source: &JobSource, improvements: ImprovementSet) {
    use std::fmt::Write;
    match source {
        JobSource::ChampsimTrace(path) => {
            let _ = write!(out, "champsim:{path}");
        }
        JobSource::CvpTrace(path) => {
            let _ = write!(out, "cvp:{path}|improvements={improvements}");
        }
        JobSource::Etrace(path) => {
            let _ = write!(out, "etrace:{path}|improvements={improvements}");
        }
        JobSource::Workload(spec) => {
            let _ = write!(
                out,
                "workload:{}:seed={}:len={}:name={}:bu={:016x}:x30={:016x}:hb={:016x}:\
                 rb={:016x}:lp={:016x}:cx={:016x}:pl={:016x}:sc={:016x}:df={}:cf={}\
                 |improvements={improvements}",
                spec.kind(),
                spec.seed(),
                spec.length(),
                spec.name(),
                spec.base_update_fraction.to_bits(),
                spec.x30_call_fraction.to_bits(),
                spec.hard_branch_fraction.to_bits(),
                spec.register_branch_fraction.to_bits(),
                spec.load_pair_fraction.to_bits(),
                spec.crossing_fraction.to_bits(),
                spec.prefetch_load_fraction.to_bits(),
                spec.serial_chase_fraction.to_bits(),
                spec.data_footprint_log2,
                spec.code_functions,
            );
        }
    }
}

fn read_champsim(path: &str) -> Result<Vec<ChampsimRecord>, JobError> {
    let diag = |e: champsim_trace::ChampsimTraceError| JobError::Failed(format!("{path}: {e}"));
    let reader = ChampsimTraceReader::open(Path::new(path)).map_err(diag)?;
    let records: Vec<ChampsimRecord> = reader.collect::<Result<_, _>>().map_err(diag)?;
    if records.is_empty() {
        return Err(JobError::Failed(format!("{path}: trace contains no records")));
    }
    Ok(records)
}

fn read_cvp(path: &str) -> Result<Vec<CvpInstruction>, JobError> {
    let diag = |e: cvp_trace::TraceError| JobError::Failed(format!("{path}: {e}"));
    let reader = CvpTraceReader::open(Path::new(path)).map_err(diag)?;
    let insns: Vec<CvpInstruction> = reader.collect::<Result<_, _>>().map_err(diag)?;
    if insns.is_empty() {
        return Err(JobError::Failed(format!("{path}: trace contains no instructions")));
    }
    Ok(insns)
}

fn parse_workload(value: &Value) -> Result<TraceSpec, String> {
    let kind: WorkloadKind = match value.get("kind").and_then(Value::as_str) {
        Some(name) => name.parse()?,
        None => return Err("workload needs a \"kind\" string".to_owned()),
    };
    let seed = match value.get("seed") {
        None => 0,
        Some(v) => {
            v.as_u64().ok_or_else(|| "\"seed\" must be a non-negative integer".to_owned())?
        }
    };
    let name = match value.get("name") {
        None => format!("{kind}-{seed}"),
        Some(v) => v.as_str().ok_or_else(|| "\"name\" must be a string".to_owned())?.to_owned(),
    };
    let mut spec = TraceSpec::new(name, kind, seed);
    if let Some(v) = value.get("length") {
        let n = v.as_u64().ok_or_else(|| "\"length\" must be a non-negative integer".to_owned())?;
        if n == 0 {
            return Err("\"length\" must be positive".to_owned());
        }
        spec = spec.with_length(n as usize);
    }
    // Generator knobs, all optional; unknown keys in the workload object
    // are rejected so typos fail loudly instead of silently defaulting.
    let fraction = |v: &Value, key: &str| -> Result<f64, String> {
        v.as_f64()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| format!("{key:?} must be a number in [0, 1]"))
    };
    if let Value::Object(members) = value {
        for (key, v) in members {
            match key.as_str() {
                "kind" | "seed" | "name" | "length" => {}
                "base_update_fraction" => spec.base_update_fraction = fraction(v, key)?,
                "x30_call_fraction" => spec.x30_call_fraction = fraction(v, key)?,
                "hard_branch_fraction" => spec.hard_branch_fraction = fraction(v, key)?,
                "register_branch_fraction" => spec.register_branch_fraction = fraction(v, key)?,
                "load_pair_fraction" => spec.load_pair_fraction = fraction(v, key)?,
                "crossing_fraction" => spec.crossing_fraction = fraction(v, key)?,
                "prefetch_load_fraction" => spec.prefetch_load_fraction = fraction(v, key)?,
                "serial_chase_fraction" => spec.serial_chase_fraction = fraction(v, key)?,
                "data_footprint_log2" => {
                    spec.data_footprint_log2 = v.as_u64().filter(|&l| l <= 40).ok_or_else(|| {
                        "\"data_footprint_log2\" must be an integer <= 40".to_owned()
                    })? as u8;
                }
                "code_functions" => {
                    let n = v.as_u64().filter(|&n| n > 0).ok_or_else(|| {
                        "\"code_functions\" must be a positive integer".to_owned()
                    })?;
                    spec.code_functions = n as usize;
                }
                other => return Err(format!("unknown workload field {other:?}")),
            }
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_workload_spec_with_knobs() {
        let spec = JobSpec::parse(
            r#"{"workload": {"kind": "branchy-int", "seed": 9, "length": 5000,
                 "hard_branch_fraction": 0.2, "code_functions": 32},
                "improvements": "All_imps", "core": "ipc1", "warmup": 100, "epochs": 500}"#,
        )
        .unwrap();
        let JobSource::Workload(w) = &spec.source else { panic!("workload source") };
        assert_eq!(w.kind(), WorkloadKind::BranchyInt);
        assert_eq!(w.seed(), 9);
        assert_eq!(w.length(), 5000);
        assert_eq!(w.hard_branch_fraction, 0.2);
        assert_eq!(w.code_functions, 32);
        assert_eq!(spec.improvements, ImprovementSet::all());
        assert_eq!(spec.core_name, "ipc1");
        assert_eq!(spec.warmup, 100);
        assert_eq!(spec.epochs, Some(500));
    }

    #[test]
    fn parses_trace_paths_by_extension() {
        let champ = JobSpec::parse(r#"{"trace": "t.champsimz"}"#).unwrap();
        assert!(matches!(champ.source, JobSource::ChampsimTrace(_)));
        let cvp = JobSpec::parse(r#"{"trace": "t.cvp"}"#).unwrap();
        assert!(matches!(cvp.source, JobSource::CvpTrace(_)));
        let et = JobSpec::parse(r#"{"trace": "t.etrace"}"#).unwrap();
        assert!(matches!(et.source, JobSource::Etrace(_)));
        assert!(JobSpec::parse(r#"{"trace": "t.bin"}"#).unwrap_err().contains("extension"));
    }

    #[test]
    fn rejects_invalid_specs_with_diagnostics() {
        assert!(JobSpec::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(JobSpec::parse("{}").unwrap_err().contains("missing"));
        assert!(JobSpec::parse(r#"{"trace": "a.cvp", "workload": {"kind": "crypto"}}"#)
            .unwrap_err()
            .contains("not both"));
        assert!(JobSpec::parse(r#"{"workload": {"kind": "quantum"}}"#)
            .unwrap_err()
            .contains("unknown workload kind"));
        assert!(JobSpec::parse(r#"{"workload": {"kind": "crypto", "bogus": 1}}"#)
            .unwrap_err()
            .contains("unknown workload field"));
        assert!(JobSpec::parse(r#"{"trace": "a.cvp", "core": "zen5"}"#)
            .unwrap_err()
            .contains("core"));
        assert!(JobSpec::parse(r#"{"trace": "a.cvp", "epochs": 0}"#)
            .unwrap_err()
            .contains("epochs"));
        assert!(JobSpec::parse(r#"{"trace": "a.cvp", "prefetcher": "psychic"}"#)
            .unwrap_err()
            .contains("unknown prefetcher"));
        assert!(JobSpec::parse(r#"{"workload": {"kind": "crypto", "hard_branch_fraction": 1.5}}"#)
            .unwrap_err()
            .contains("[0, 1]"));
    }

    /// An `.etrace` job's document is byte-identical to the local
    /// `champsim-run` path for the same file: decode, convert under the
    /// same improvements, simulate, and export through
    /// [`cli::champsim_run_registry`].
    #[test]
    fn etrace_job_matches_local_champsim_run_bytewise() {
        let dir = std::env::temp_dir().join(format!("sim-server-etrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rv.etrace");
        let (program, items) =
            workloads::RvTraceSpec::new("rv", workloads::RvWorkloadKind::IntLoop, 11)
                .with_length(4000)
                .generate();
        let mut writer = etrace::EtraceWriter::new(Vec::new(), &program).unwrap();
        for item in &items {
            writer.write(item).unwrap();
        }
        let (bytes, _) = writer.finish().unwrap();
        std::fs::write(&path, bytes).unwrap();

        let spec = JobSpec::parse(&format!("{{\"trace\": {:?}}}", path.to_str().unwrap())).unwrap();
        let served = spec.execute(&ArtifactCache::with_spill(None), &CancelToken::new()).unwrap();

        // The local champsim-run path for the same trace and options.
        let cvp = read_cvp(path.to_str().unwrap()).unwrap();
        let records = Converter::new(ImprovementSet::none()).convert_all(cvp.iter());
        let report = Simulator::run_on(&CoreConfig::iiswc_main(), &records, RunOptions::default());
        let local = cli::champsim_run_registry(&report, "iiswc", path.to_str().unwrap()).to_json();

        assert_eq!(served, local, "served .etrace document must match local champsim-run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_trace_file_fails_with_path_in_diagnostic() {
        let spec = JobSpec::parse(r#"{"trace": "does/not/exist.champsimz"}"#).unwrap();
        let cache = ArtifactCache::with_spill(None);
        let err = spec.execute(&cache, &CancelToken::new()).unwrap_err();
        let JobError::Failed(msg) = err else { panic!("expected failure") };
        assert!(msg.contains("does/not/exist.champsimz"), "{msg}");
    }

    #[test]
    fn workload_job_executes_deterministically_through_the_cache() {
        let spec = JobSpec::parse(
            r#"{"workload": {"kind": "crypto", "seed": 3, "length": 4000},
                "improvements": "All_imps"}"#,
        )
        .unwrap();
        let cache = ArtifactCache::with_spill(None);
        let a = spec.execute(&cache, &CancelToken::new()).unwrap();
        let b = spec.execute(&cache, &CancelToken::new()).unwrap();
        assert_eq!(a, b, "same spec, same document");
        assert!(a.contains("\"tool\":\"sim-server\""));
        assert!(a.contains("sim.ipc"));
        assert_eq!(cache.counters().convert_misses, 1, "second run hit the cache");
    }

    /// Field order, whitespace, and spelled-out defaults don't change
    /// the canonical key; any knob that shapes the result does.
    #[test]
    fn canonical_key_ignores_spelling_but_not_knobs() {
        let a = JobSpec::parse(
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000},
                "improvements": "All_imps", "core": "iiswc", "warmup": 100}"#,
        )
        .unwrap();
        let b = JobSpec::parse(
            "{\"warmup\":100,\"improvements\":\"All_imps\",\n  \"workload\":{\"length\":4000,\
             \"seed\":7,\"kind\":\"crypto\"},\"core\":\"iiswc\"}",
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key(), "equivalent spellings must agree");

        // Defaults spelled out explicitly still match the implicit form.
        let implicit = JobSpec::parse(r#"{"workload": {"kind": "crypto", "seed": 7}}"#).unwrap();
        let explicit = JobSpec::parse(
            r#"{"workload": {"kind": "crypto", "seed": 7, "name": "crypto-7"},
                "core": "iiswc", "warmup": 0}"#,
        )
        .unwrap();
        assert_eq!(implicit.canonical_key(), explicit.canonical_key());

        // Every result-shaping knob must move the key.
        let base = r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000}}"#;
        let variants = [
            r#"{"workload": {"kind": "crypto", "seed": 8, "length": 4000}}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4001}}"#,
            r#"{"workload": {"kind": "streaming", "seed": 7, "length": 4000}}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000,
                "hard_branch_fraction": 0.25}}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000},
                "improvements": "All_imps"}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000}, "core": "ipc1"}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000}, "warmup": 1}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000}, "epochs": 100}"#,
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 4000},
                "prefetcher": "next-line"}"#,
        ];
        let base_key = JobSpec::parse(base).unwrap().canonical_key();
        for variant in variants {
            let key = JobSpec::parse(variant).unwrap().canonical_key();
            assert_ne!(base_key, key, "variant must differ: {variant}");
        }
    }

    /// The source key tracks the record stream only: per-lane run
    /// options don't split a batch, conversion-shaping fields do.
    #[test]
    fn source_key_groups_by_stream_not_run_options() {
        let parse = |body: &str| JobSpec::parse(body).unwrap();
        let a = parse(r#"{"workload": {"kind": "crypto", "seed": 7}, "warmup": 100}"#);
        let b = parse(
            r#"{"workload": {"kind": "crypto", "seed": 7}, "core": "ipc1",
                "epochs": 50, "prefetcher": "next-line"}"#,
        );
        assert_eq!(a.source_key(), b.source_key(), "run options must not split the stream");
        assert_ne!(a.canonical_key(), b.canonical_key());

        let c =
            parse(r#"{"workload": {"kind": "crypto", "seed": 7}, "improvements": "base-update"}"#);
        assert_ne!(a.source_key(), c.source_key(), "improvements shape the converted stream");

        // On-disk ChampSim traces simulate as-is: improvements are
        // irrelevant to both stream and result.
        let d = parse(r#"{"trace": "t.champsimz"}"#);
        let e = parse(r#"{"trace": "t.champsimz", "improvements": "All_imps"}"#);
        assert_eq!(d.source_key(), e.source_key());
        assert_eq!(d.canonical_key(), e.canonical_key());
    }

    /// The fused batch path yields byte-identical documents to separate
    /// single-job executions, across heterogeneous per-lane options.
    #[test]
    fn batched_execution_matches_single_jobs_bytewise() {
        let bodies = [
            r#"{"workload": {"kind": "branchy-int", "seed": 5, "length": 4000},
                "improvements": "All_imps"}"#,
            r#"{"workload": {"kind": "branchy-int", "seed": 5, "length": 4000},
                "improvements": "All_imps", "warmup": 500, "core": "ipc1"}"#,
            r#"{"workload": {"kind": "branchy-int", "seed": 5, "length": 4000},
                "improvements": "All_imps", "epochs": 1000, "prefetcher": "next-line"}"#,
        ];
        let specs: Vec<JobSpec> = bodies.iter().map(|b| JobSpec::parse(b).unwrap()).collect();
        let tokens: Vec<CancelToken> = specs.iter().map(|_| CancelToken::new()).collect();
        let batch: Vec<(&JobSpec, &CancelToken)> = specs.iter().zip(&tokens).collect();

        let cache = ArtifactCache::with_spill(None);
        let fused = JobSpec::execute_batch(&batch, &cache);
        for (i, spec) in specs.iter().enumerate() {
            let solo = spec.execute(&ArtifactCache::with_spill(None), &CancelToken::new());
            assert_eq!(fused[i].as_ref().unwrap(), solo.as_ref().unwrap(), "lane {i}");
        }
        assert_eq!(
            cache.counters().convert_misses,
            1,
            "the whole batch shares one conversion fetch"
        );
    }

    /// One cancelled lane doesn't poison its batchmates.
    #[test]
    fn batch_isolates_a_cancelled_lane() {
        let spec = JobSpec::parse(r#"{"workload": {"kind": "crypto", "seed": 6, "length": 3000}}"#)
            .unwrap();
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        let cache = ArtifactCache::with_spill(None);
        let outcomes = JobSpec::execute_batch(&[(&spec, &dead), (&spec, &live)], &cache);
        assert_eq!(outcomes[0], Err(JobError::Cancelled));
        let solo = spec.execute(&ArtifactCache::with_spill(None), &CancelToken::new()).unwrap();
        assert_eq!(outcomes[1].as_ref().unwrap(), &solo);
    }

    #[test]
    fn pre_cancelled_job_reports_cancelled() {
        let spec = JobSpec::parse(r#"{"workload": {"kind": "crypto", "length": 2000}}"#).unwrap();
        let cache = ArtifactCache::with_spill(None);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(spec.execute(&cache, &token), Err(JobError::Cancelled));
    }
}
