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
//! `trace` dispatches on extension through [`cli::TraceFormat::of`],
//! the function `champsim-run` uses: `.champsimtrace`/`.champsimz` run
//! directly, `.cvp`/`.cvpz` convert first under `improvements`, and
//! `.etrace` RISC-V branch traces decode to CVP records and then
//! convert the same way. The file streams through [`cli::TraceSource`]
//! into the batch's lanes, so a file job's memory does not grow with
//! the trace. A `workload` object is a [`TraceSpec`]
//! (kind, seed, length, plus any of the generator knob fields) resolved
//! through the shared artifact cache, so concurrent jobs over the same
//! spec generate and convert it once.
//!
//! The result of every file job is built by
//! [`cli::champsim_run_registry`] — the same function the
//! `champsim-run` binary uses — so the fetched document is
//! byte-identical to a local `champsim-run --metrics` of the same
//! configuration.

use std::fmt;
use std::time::Instant;

use cli::{TraceFormat, TraceSource};
use converter::ImprovementSet;
use experiments::cache::ArtifactCache;
use sim::{CancelToken, CoreConfig, RunOptions, SimReport, Simulator};
use workloads::{TraceSpec, WorkloadKind};

use crate::json::Value;

/// Where a job's records come from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// An on-disk trace in any accepted encoding: the path as the
    /// request spelled it and the format its extension names. It streams
    /// through [`cli::TraceSource`]; CVP-family formats convert before
    /// simulation.
    File(String, TraceFormat),
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
                JobSource::File(path.to_owned(), TraceFormat::of(path)?)
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
    /// as a single fused streaming pass: the records are streamed from
    /// the file (or fetched from the artifact cache) once and pushed
    /// through one lane per job in lockstep
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

        // One pass over the source for the whole batch. A file that
        // fails to open or decode fails every live job with the same
        // one-line diagnostic, whatever the lanes computed before it.
        let reports = match &first.source {
            JobSource::File(path, format) => TraceSource::open(path, *format, first.improvements)
                .and_then(|mut source| {
                    let start = Instant::now();
                    let reports = Simulator::run_fused(lanes, &mut source);
                    cache.add_simulate_ns(start.elapsed().as_nanos() as u64);
                    source.finish().map(|_| reports)
                }),
            JobSource::Workload(spec) => {
                let converted = cache.converted_shared(spec, spec.length(), first.improvements);
                let start = Instant::now();
                let reports = Simulator::run_fused(lanes, converted.records.iter().copied());
                cache.add_simulate_ns(start.elapsed().as_nanos() as u64);
                Ok(reports)
            }
        };

        for (lane, &i) in live.iter().enumerate() {
            let (spec, token) = batch[i];
            outcomes[i] = match &reports {
                Err(e) => Err(JobError::Failed(e.clone())),
                Ok(_) if token.is_cancelled() => Err(JobError::Cancelled),
                Ok(reports) => Ok(spec.render_document(&reports[lane])),
            };
        }
        outcomes
    }

    /// Renders a finished report into the job's result document.
    fn render_document(&self, report: &SimReport) -> String {
        match &self.source {
            JobSource::File(path, format) => {
                // The byte-identity anchor: same exporter as champsim-run.
                let improvements = format.converts().then_some(self.improvements);
                cli::champsim_run_registry(report, &self.core_name, path, improvements).to_json()
            }
            JobSource::Workload(spec) => {
                let mut registry = telemetry::Registry::new();
                registry.label("tool", "sim-server");
                registry.label("core", &self.core_name);
                registry.label("improvements", &self.improvements.to_string());
                registry.label("workload", spec.name());
                registry.label("kind", &spec.kind().to_string());
                registry.label("seed", &spec.seed().to_string());
                registry.label("length", &spec.length().to_string());
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
        JobSource::File(path, TraceFormat::Champsim) => {
            let _ = write!(out, "champsim:{path}");
        }
        JobSource::File(path, TraceFormat::Cvp) => {
            let _ = write!(out, "cvp:{path}|improvements={improvements}");
        }
        JobSource::File(path, TraceFormat::Etrace) => {
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
        for (path, want) in [
            ("t.champsimz", TraceFormat::Champsim),
            ("t.champsimtrace", TraceFormat::Champsim),
            ("t.cvp", TraceFormat::Cvp),
            ("t.cvpz", TraceFormat::Cvp),
            ("t.etrace", TraceFormat::Etrace),
        ] {
            let spec = JobSpec::parse(&format!("{{\"trace\": {path:?}}}")).unwrap();
            assert!(matches!(spec.source, JobSource::File(_, format) if format == want));
        }
        let err = JobSpec::parse(r#"{"trace": "t.bin"}"#).unwrap_err();
        assert_eq!(err, TraceFormat::of("t.bin").unwrap_err(), "one dispatch, one wording");
        assert!(err.contains("extension"));
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

        // The local champsim-run result for the same trace and options,
        // computed from a materialized decode and conversion.
        let cvp: Vec<cvp_trace::CvpInstruction> =
            trace_store::CvpTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
        let records = converter::Converter::new(ImprovementSet::none()).convert_all(cvp.iter());
        let report = Simulator::run_on(&CoreConfig::iiswc_main(), &records, RunOptions::default());
        let none = Some(ImprovementSet::none());
        let local = cli::champsim_run_registry(&report, "iiswc", path.to_str().unwrap(), none);
        let local = local.to_json();

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

    /// A store cut mid-payload fails every lane of a fused batch with
    /// the same one-line diagnostic naming the path and the block, even
    /// though the lanes simulated the blocks before the cut.
    #[test]
    fn truncated_store_fails_every_lane_of_a_batch_alike() {
        let dir = std::env::temp_dir().join(format!("sim-server-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.champsimz");
        let spec = workloads::TraceSpec::new("cut", WorkloadKind::Crypto, 4).with_length(3000);
        let records =
            converter::Converter::new(ImprovementSet::all()).convert_all(spec.generate().iter());
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = trace_store::ChampsimzWriter::with_block_records(file, 256).unwrap();
        for rec in &records {
            writer.write(rec).unwrap();
        }
        writer.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let path = path.to_str().unwrap();
        let specs: Vec<JobSpec> = [
            format!("{{\"trace\": {path:?}}}"),
            format!("{{\"trace\": {path:?}, \"warmup\": 200, \"core\": \"ipc1\"}}"),
            format!("{{\"trace\": {path:?}, \"epochs\": 100, \"prefetcher\": \"next-line\"}}"),
        ]
        .iter()
        .map(|body| JobSpec::parse(body).unwrap())
        .collect();
        let tokens: Vec<CancelToken> = specs.iter().map(|_| CancelToken::new()).collect();
        let batch: Vec<(&JobSpec, &CancelToken)> = specs.iter().zip(&tokens).collect();
        let outcomes = JobSpec::execute_batch(&batch, &ArtifactCache::with_spill(None));

        let Err(JobError::Failed(first)) = &outcomes[0] else { panic!("{:?}", outcomes[0]) };
        assert!(first.contains(path) && first.contains("block"), "{first}");
        assert_eq!(first.lines().count(), 1, "{first}");
        for outcome in &outcomes {
            assert_eq!(outcome, &Err(JobError::Failed(first.clone())));
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
