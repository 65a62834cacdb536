//! The `replay` workload: the paper's tool chain over on-disk traces on
//! one thread.
//!
//! Each round runs every leg once, in a fixed order, and is one
//! operation:
//!
//! * cvp2champsim: `.cvpz` → `Converter` (All_imps) → `.champsimz`;
//! * champsim-run: `.champsimz` → `Simulator::run_iter` → stats document;
//! * etrace: `.etrace` → `Converter::stream` → `Simulator::run_iter` →
//!   stats document.
//!
//! Every stats document must match the document of the same records
//! simulated in memory during set-up. With tracing on, each leg runs as
//! separate passes (decode to a `Vec`, `convert_all`, encode, `run_on`)
//! so every layer's span has a clean self time.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use etrace::EtraceWriter;
use sim::{CoreConfig, RunOptions, SimReport, Simulator};
use trace_store::{ChampsimTraceReader, ChampsimTraceWriter, CvpTraceReader, CvpTraceWriter};
use workloads::{RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind};

use crate::components;
use crate::phase::{Metrics, Phase};
use crate::span::Tracer;
use crate::stats::{median, Digest};
use crate::{mix, render};

/// Instructions per CVP-1 trace: long enough that per-record work
/// dominates each leg, short enough for 100 rounds in a 20 s run.
const CVP_LENGTH: usize = 40_000;
/// Instructions per RISC-V trace.
const RV_LENGTH: usize = 40_000;
/// The CVP-1 families: server, pointer chasing, floating point.
const CVP_KINDS: [WorkloadKind; 3] =
    [WorkloadKind::Server, WorkloadKind::PointerChase, WorkloadKind::FpKernel];
/// The RISC-V families.
const RV_KINDS: [RvWorkloadKind; 1] = [RvWorkloadKind::Dispatch];

struct CvpFamily {
    cvpz: PathBuf,
    champsimz: PathBuf,
    cvpz_bytes: u64,
    records: u64,
    reference: u64,
}

struct RvFamily {
    etrace: PathBuf,
    etrace_bytes: u64,
    reference: u64,
}

/// Set-up state: trace files on disk and the in-memory references.
pub struct Replay {
    core: CoreConfig,
    cvp: Vec<CvpFamily>,
    rv: Vec<RvFamily>,
}

/// One leg of a round.
#[derive(Clone, Copy)]
enum Leg {
    Convert(usize),
    Simulate(usize),
    Etrace(usize),
}

impl Replay {
    /// Generates the traces from `seed`, writes them under `dir`, and
    /// simulates each in memory for the reference documents.
    pub fn setup(seed: u64, dir: &Path) -> Result<Replay, String> {
        let core = CoreConfig::iiswc_main();
        let mut cvp = Vec::new();
        for (i, kind) in CVP_KINDS.into_iter().enumerate() {
            let spec = TraceSpec::new(format!("replay_{kind}"), kind, mix(seed, 0x7e00 + i as u64))
                .with_length(CVP_LENGTH);
            let insns = spec.generate();
            let cvpz = dir.join(format!("replay_{i}.cvpz"));
            let mut writer = CvpTraceWriter::create(&cvpz).map_err(|e| e.to_string())?;
            for insn in &insns {
                writer.write(insn).map_err(|e| e.to_string())?;
            }
            writer.finish().map_err(|e| e.to_string())?;
            let records = Converter::new(ImprovementSet::all()).convert_all(insns.iter());
            let report = Simulator::run_on(&core, &records, RunOptions::default());
            cvp.push(CvpFamily {
                cvpz_bytes: file_len(&cvpz)?,
                cvpz,
                champsimz: dir.join(format!("replay_{i}.champsimz")),
                records: records.len() as u64,
                reference: Digest::of(render(&report).as_bytes()),
            });
        }
        let mut rv = Vec::new();
        for (i, kind) in RV_KINDS.into_iter().enumerate() {
            let spec =
                RvTraceSpec::new(format!("replay_{kind}"), kind, mix(seed, 0x7f00 + i as u64))
                    .with_length(RV_LENGTH);
            let (program, items) = spec.generate();
            let etrace = dir.join(format!("replay_{i}.etrace"));
            let file = File::create(&etrace).map_err(|e| format!("{}: {e}", etrace.display()))?;
            let mut writer =
                EtraceWriter::new(BufWriter::new(file), &program).map_err(|e| e.to_string())?;
            for item in &items {
                writer.write(item).map_err(|e| e.to_string())?;
            }
            let (sink, _) = writer.finish().map_err(|e| e.to_string())?;
            sink.into_inner().map_err(|e| e.to_string())?;
            let insns = trace_store::rv_items_to_cvp(&program, &items);
            let records = Converter::new(ImprovementSet::all()).convert_all(insns.iter());
            let report = Simulator::run_on(&core, &records, RunOptions::default());
            rv.push(RvFamily {
                etrace_bytes: file_len(&etrace)?,
                etrace,
                reference: Digest::of(render(&report).as_bytes()),
            });
        }
        let replay = Replay { core, cvp, rv };
        // Warm-up: one untraced round, which also writes the
        // `.champsimz` files the champsim-run legs read.
        let mut tracer = Tracer::new(false);
        for leg in replay.round() {
            replay.run_leg(leg, &mut tracer, &mut LegTotals::default())?;
        }
        Ok(replay)
    }

    fn round(&self) -> Vec<Leg> {
        let mut legs = Vec::new();
        for i in 0..self.cvp.len() {
            legs.push(Leg::Convert(i));
            legs.push(Leg::Simulate(i));
        }
        legs.extend((0..self.rv.len()).map(Leg::Etrace));
        legs
    }

    /// Runs rounds until `seconds` have passed and at least `min_ops`
    /// rounds have run. One round, every family through its legs once,
    /// is one operation: legs differ in kind and length, so a
    /// percentile over legs would jump between kinds.
    pub fn measure(&self, seconds: f64, min_ops: usize, traced: bool) -> (Phase, Option<Metrics>) {
        let mut tracer = Tracer::new(traced);
        let mut totals = LegTotals::default();
        let mut phase = Phase::default();
        let mut digest = Digest::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || phase.latencies_ms.len() < min_ops {
            let began = Instant::now();
            let mut ok = true;
            for leg in self.round() {
                match self.run_leg(leg, &mut tracer, &mut totals) {
                    Ok(LegOutput { instructions, digest: d }) => {
                        phase.instructions += instructions;
                        if phase.attempted == 0 {
                            digest.update_u64(d);
                        }
                    }
                    Err(e) => {
                        eprintln!("replay: {e}");
                        ok = false;
                    }
                }
            }
            phase.attempted += 1;
            if ok {
                phase.latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
            } else {
                phase.failed += 1;
                phase.latencies_ms.push(f64::INFINITY);
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.groups = phase.latencies_ms.len();
        phase.digest = digest.value();
        let layers = traced.then(|| self.layer_metrics(&tracer, &totals, phase.wall_s));
        (phase, layers)
    }

    /// Runs one leg. Errors cover I/O, decode failures and documents
    /// that differ from the reference.
    fn run_leg(
        &self,
        leg: Leg,
        tracer: &mut Tracer,
        totals: &mut LegTotals,
    ) -> Result<LegOutput, String> {
        tracer.span("replay.leg", |t| match leg {
            Leg::Convert(i) => self.convert_leg(&self.cvp[i], t, totals),
            Leg::Simulate(i) => {
                let family = &self.cvp[i];
                let report = if t.enabled() {
                    let records =
                        t.span("store.champsimz.decode", |_| read_champsim(&family.champsimz))?;
                    totals.champsimz_decoded += file_len(&family.champsimz)?;
                    t.span("sim", |_| {
                        Simulator::run_on(&self.core, &records, RunOptions::default())
                    })
                } else {
                    let mut reader = ChampsimTraceReader::open(&family.champsimz)
                        .map_err(|e| format!("{}: {e}", family.champsimz.display()))?;
                    let mut error = None;
                    let records = std::iter::from_fn(|| {
                        reader.read().unwrap_or_else(|e| {
                            error = Some(e);
                            None
                        })
                    });
                    let report =
                        Simulator::new(self.core.clone()).run_iter(records, RunOptions::default());
                    if let Some(e) = error {
                        return Err(format!("{}: {e}", family.champsimz.display()));
                    }
                    report
                };
                check(&report, family.reference, t, totals)
            }
            Leg::Etrace(i) => {
                let family = &self.rv[i];
                let insns = t.span("etrace.decode", |_| read_cvp(&family.etrace))?;
                totals.etrace_decoded += family.etrace_bytes;
                let mut converter = Converter::new(ImprovementSet::all());
                let report = if t.enabled() {
                    let records = t.span("converter", |_| converter.convert_all(insns.iter()));
                    totals.converted += insns.len() as u64;
                    t.span("sim", |_| {
                        Simulator::run_on(&self.core, &records, RunOptions::default())
                    })
                } else {
                    Simulator::new(self.core.clone())
                        .run_iter(converter.stream(insns.iter()), RunOptions::default())
                };
                check(&report, family.reference, t, totals)
            }
        })
    }

    fn convert_leg(
        &self,
        family: &CvpFamily,
        t: &mut Tracer,
        totals: &mut LegTotals,
    ) -> Result<LegOutput, String> {
        let mut converter = Converter::new(ImprovementSet::all());
        let out = &family.champsimz;
        let written = if t.enabled() {
            let insns = t.span("store.cvpz.decode", |_| read_cvp(&family.cvpz))?;
            totals.cvpz_decoded += family.cvpz_bytes;
            let records = t.span("converter", |_| converter.convert_all(insns.iter()));
            totals.converted += insns.len() as u64;
            let written = t.span("store.champsimz.encode", |_| write_champsim(out, &records))?;
            totals.champsimz_encoded += file_len(out)?;
            written
        } else {
            let mut reader = CvpTraceReader::open(&family.cvpz)
                .map_err(|e| format!("{}: {e}", family.cvpz.display()))?;
            let mut writer =
                ChampsimTraceWriter::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
            while let Some(insn) =
                reader.read().map_err(|e| format!("{}: {e}", family.cvpz.display()))?
            {
                for rec in converter.convert(&insn) {
                    writer.write(&rec).map_err(|e| format!("{}: {e}", out.display()))?;
                }
            }
            let written = writer.records_written();
            writer.finish().map_err(|e| format!("{}: {e}", out.display()))?;
            written
        };
        if written != family.records {
            return Err(format!(
                "{}: wrote {written} records, expected {}",
                out.display(),
                family.records
            ));
        }
        Ok(LegOutput { instructions: 0, digest: written })
    }

    /// Per-layer metrics of a traced phase, plus the component costs
    /// measured on this workload's own branch and memory streams.
    fn layer_metrics(&self, tracer: &Tracer, totals: &LegTotals, wall_s: f64) -> Metrics {
        let selfs = tracer.self_seconds();
        let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let mut m = Metrics::default();
        let mb_per_s = |bytes: u64, secs: f64| bytes as f64 / 1e6 / secs;
        m.push(
            "store.cvpz.decode_mb_per_s",
            mb_per_s(totals.cvpz_decoded, s("store.cvpz.decode")),
            "MB/s",
        );
        m.push(
            "store.champsimz.decode_mb_per_s",
            mb_per_s(totals.champsimz_decoded, s("store.champsimz.decode")),
            "MB/s",
        );
        m.push(
            "store.champsimz.encode_mb_per_s",
            mb_per_s(totals.champsimz_encoded, s("store.champsimz.encode")),
            "MB/s",
        );
        m.push(
            "etrace.decode_mb_per_s",
            mb_per_s(totals.etrace_decoded, s("etrace.decode")),
            "MB/s",
        );
        m.push(
            "replay.decode_s",
            s("store.cvpz.decode") + s("store.champsimz.decode") + s("etrace.decode"),
            "s",
        );
        m.push("replay.encode_s", s("store.champsimz.encode"), "s");
        m.push("converter.records_per_s", totals.converted as f64 / s("converter"), "1/s");
        m.push("converter.self_s", s("converter"), "s");
        m.push("sim.mips", totals.simulated as f64 / s("sim") / 1e6, "MIPS");
        m.push("telemetry.render_ms", median(&tracer.durations_ms("telemetry.render")), "ms");
        let layered: f64 = selfs.iter().filter(|(k, _)| **k != "replay.leg").map(|(_, v)| v).sum();
        m.push("trace.accounted_pct", 100.0 * layered / wall_s, "%");
        // The components replay the first family's converted stream.
        if let Ok(records) = read_champsim(&self.cvp[0].champsimz) {
            m.extend(components::measure(&self.core, &records));
        }
        m
    }
}

#[derive(Default)]
struct LegTotals {
    cvpz_decoded: u64,
    champsimz_decoded: u64,
    champsimz_encoded: u64,
    etrace_decoded: u64,
    converted: u64,
    simulated: u64,
}

struct LegOutput {
    instructions: u64,
    digest: u64,
}

/// Renders the stats document and compares it with the reference.
fn check(
    report: &SimReport,
    reference: u64,
    t: &mut Tracer,
    totals: &mut LegTotals,
) -> Result<LegOutput, String> {
    totals.simulated += report.instructions;
    let digest = t.span("telemetry.render", |_| Digest::of(render(report).as_bytes()));
    if digest != reference {
        return Err(format!("stats digest {digest:016x} differs from reference {reference:016x}"));
    }
    Ok(LegOutput { instructions: report.instructions, digest })
}

fn read_cvp(path: &Path) -> Result<Vec<CvpInstruction>, String> {
    let mut reader = CvpTraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut insns = Vec::new();
    while let Some(insn) = reader.read().map_err(|e| format!("{}: {e}", path.display()))? {
        insns.push(insn);
    }
    Ok(insns)
}

fn read_champsim(path: &Path) -> Result<Vec<ChampsimRecord>, String> {
    let mut reader =
        ChampsimTraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    while let Some(rec) = reader.read().map_err(|e| format!("{}: {e}", path.display()))? {
        records.push(rec);
    }
    Ok(records)
}

fn write_champsim(path: &Path, records: &[ChampsimRecord]) -> Result<u64, String> {
    let mut writer =
        ChampsimTraceWriter::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for rec in records {
        writer.write(rec).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let written = writer.records_written();
    writer.finish().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(written)
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("{}: {e}", path.display()))
}
