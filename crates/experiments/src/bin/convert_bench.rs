//! Trace-store I/O benchmark: encode/decode throughput and compression
//! ratio per workload family.
//!
//! ```text
//! convert_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>]
//!               [--check <baseline.json>] [--tolerance <pct>]
//! ```
//!
//! For each synthetic workload family the harness generates one CVP-1
//! trace and its All_imps ChampSim conversion, then measures the block
//! store's in-memory encode and decode speed for both stream kinds
//! (`.cvpz` and `.champsimz`), in raw megabytes per second, along with
//! the achieved compression ratio. The RISC-V families (`rv-int`,
//! `rv-stream`, `rv-dispatch`) bench the `.etrace` packet stream the
//! same way — raw volume is the flat per-instruction record size the
//! packets replace, and the compression ratio must clear the format's
//! 3x floor — plus the `.champsimz` store of their converted records.
//! Results land in `BENCH_io.json` (`--out` to redirect).
//!
//! `--check <baseline>` gates the run against a committed
//! `BENCH_io.json` with [`experiments::bench::gate`] — the CI
//! perf-smoke gate for the I/O layer. Each family's per-stream
//! `encode_mbps`, `decode_mbps` and compression `ratio` must reach the
//! baseline value less `--tolerance` percent (default 25); a
//! regression, or a gated field the baseline lacks, fails the run
//! (exit 1) and names the field. `--metrics`
//! writes the aggregate `store.*` volume counters of the benched
//! encodes as one telemetry document.

use std::io::Cursor;
use std::time::Instant;

use champsim_trace::{ChampsimRecord, RECORD_BYTES};
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use etrace::{EtraceReader, EtraceWriter, Program, TraceItem};
use experiments::bench::{check_baseline, measure};
use experiments::runner::ExperimentScale;
use telemetry::catalog;
use trace_store::{
    rv_items_to_cvp, ChampsimzReader, ChampsimzWriter, CvpzReader, CvpzWriter, StoreStats,
};
use workloads::{RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind};

/// The benched families, named as in `WorkloadKind::to_string`.
const FAMILIES: [WorkloadKind; 6] = [
    WorkloadKind::PointerChase,
    WorkloadKind::Streaming,
    WorkloadKind::Crypto,
    WorkloadKind::BranchyInt,
    WorkloadKind::Server,
    WorkloadKind::FpKernel,
];

/// The benched RISC-V families, named as in `RvWorkloadKind::to_string`.
const RV_FAMILIES: [RvWorkloadKind; 3] =
    [RvWorkloadKind::IntLoop, RvWorkloadKind::StreamKernel, RvWorkloadKind::Dispatch];

/// The `.etrace` format's advertised compression floor over flat
/// per-instruction records; a bench run under it is a hard failure.
const ETRACE_RATIO_FLOOR: f64 = 3.0;

/// One stream kind's measurements on one family.
struct StreamResult {
    raw_bytes: u64,
    encode_mbps: f64,
    decode_mbps: f64,
    ratio: f64,
}

/// One family's two benched streams, each tagged with its JSON key
/// (`cvpz`/`champsimz` for the ARM families, `etrace`/`champsimz` for
/// the RISC-V ones).
struct FamilyResult {
    family: String,
    streams: [(&'static str, StreamResult); 2],
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale_name = "paper".to_string();
    let mut scale = ExperimentScale::paper();
    let mut out_path = "BENCH_io.json".to_string();
    let mut metrics_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = args.next().unwrap_or_else(|| fail("--scale needs a value"));
                scale = match scale_name.as_str() {
                    "smoke" => ExperimentScale::smoke(),
                    "test" => ExperimentScale::test(),
                    "paper" => ExperimentScale::paper(),
                    other => fail(&format!("--scale must be smoke|test|paper, got {other:?}")),
                };
            }
            "--out" => out_path = args.next().unwrap_or_else(|| fail("--out needs a path")),
            "--metrics" => {
                metrics_path = Some(args.next().unwrap_or_else(|| fail("--metrics needs a path")));
            }
            "--check" => {
                baseline_path = Some(args.next().unwrap_or_else(|| fail("--check needs a path")));
            }
            "--tolerance" => {
                tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| *t > 0.0 && *t < 100.0)
                    .unwrap_or_else(|| fail("--tolerance needs a percentage in (0, 100)"));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let mut results = Vec::new();
    let mut totals = StoreStats::default();
    for kind in FAMILIES {
        let family = kind.to_string();
        let spec =
            TraceSpec::new(format!("bench_{family}"), kind, 0xb1a5).with_length(scale.trace_length);
        let start = Instant::now();
        let cvp = spec.generate();
        let records = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
        let prep = start.elapsed().as_secs_f64();

        let cvpz = bench_cvpz(&cvp, &mut totals);
        let champsimz = bench_champsimz(&records, &mut totals);
        report_family(&family, &[("cvpz", &cvpz), ("champsimz", &champsimz)], prep);
        results.push(FamilyResult { family, streams: [("cvpz", cvpz), ("champsimz", champsimz)] });
    }
    for kind in RV_FAMILIES {
        let family = kind.to_string();
        let spec = RvTraceSpec::new(format!("bench_{family}"), kind, 0xb1a5)
            .with_length(scale.trace_length);
        let start = Instant::now();
        let (program, items) = spec.generate();
        let records = Converter::new(ImprovementSet::all())
            .convert_all(rv_items_to_cvp(&program, &items).iter());
        let prep = start.elapsed().as_secs_f64();

        let etrace = bench_etrace(&program, &items);
        if etrace.ratio <= ETRACE_RATIO_FLOOR {
            eprintln!(
                "error: {family} .etrace compression {:.2}x is under the {ETRACE_RATIO_FLOOR}x floor",
                etrace.ratio
            );
            std::process::exit(1);
        }
        let champsimz = bench_champsimz(&records, &mut totals);
        report_family(&family, &[("etrace", &etrace), ("champsimz", &champsimz)], prep);
        results
            .push(FamilyResult { family, streams: [("etrace", etrace), ("champsimz", champsimz)] });
    }

    let json = to_json(&scale_name, &results);
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("[convert_bench] wrote {out_path}"),
        Err(e) => fail(&format!("could not write {out_path}: {e}")),
    }
    if let Some(path) = &metrics_path {
        let mut registry = telemetry::Registry::new();
        registry.label("scale", &scale_name);
        registry.counter(&catalog::STORE_BLOCKS_WRITTEN, totals.blocks_written);
        registry.counter(&catalog::STORE_BYTES_RAW, totals.bytes_raw);
        registry.counter(&catalog::STORE_BYTES_COMPRESSED, totals.bytes_compressed);
        registry.gauge(&catalog::STORE_COMPRESSION_RATIO, totals.compression_ratio());
        match std::fs::write(path, registry.to_json()) {
            Ok(()) => eprintln!("[convert_bench] wrote {path}"),
            Err(e) => fail(&format!("could not write {path}: {e}")),
        }
    }
    if let Some(path) = &baseline_path {
        let fields = ["encode_mbps", "decode_mbps", "ratio"];
        check_baseline("convert_bench", path, &json, &fields, tolerance_pct);
    }
}

/// Measures the `.cvpz` store on one trace: in-memory encode, decode of
/// the produced bytes, raw-volume throughput for both.
fn bench_cvpz(cvp: &[CvpInstruction], totals: &mut StoreStats) -> StreamResult {
    let encode = || {
        let mut w = CvpzWriter::new(Vec::with_capacity(1 << 20)).expect("vec write");
        for insn in cvp {
            w.write(insn).expect("vec write");
        }
        w.finish().expect("vec write")
    };
    let (encode_seconds, _) = measure(&encode);
    let (encoded, stats) = encode();
    totals.blocks_written += stats.blocks_written;
    totals.bytes_raw += stats.bytes_raw;
    totals.bytes_compressed += stats.bytes_compressed;

    let decode = || {
        let mut n = 0u64;
        let mut r = CvpzReader::new(Cursor::new(&encoded)).expect("valid store");
        while r.read().expect("valid store").is_some() {
            n += 1;
        }
        n
    };
    let (decode_seconds, _) = measure(decode);
    StreamResult {
        raw_bytes: stats.bytes_raw,
        encode_mbps: mbps(stats.bytes_raw, encode_seconds),
        decode_mbps: mbps(stats.bytes_raw, decode_seconds),
        ratio: stats.compression_ratio(),
    }
}

/// Measures the `.champsimz` store on one record buffer.
fn bench_champsimz(records: &[ChampsimRecord], totals: &mut StoreStats) -> StreamResult {
    let encode = || {
        let mut w = ChampsimzWriter::new(Vec::with_capacity(1 << 20)).expect("vec write");
        for rec in records {
            w.write(rec).expect("vec write");
        }
        w.finish().expect("vec write")
    };
    let (encode_seconds, _) = measure(&encode);
    let (encoded, stats) = encode();
    totals.blocks_written += stats.blocks_written;
    totals.bytes_raw += stats.bytes_raw;
    totals.bytes_compressed += stats.bytes_compressed;

    let raw_bytes = (records.len() * RECORD_BYTES) as u64;
    let decode = || {
        let mut n = 0u64;
        let mut r = ChampsimzReader::new(Cursor::new(&encoded)).expect("valid store");
        while r.read().expect("valid store").is_some() {
            n += 1;
        }
        n
    };
    let (decode_seconds, _) = measure(decode);
    StreamResult {
        raw_bytes,
        encode_mbps: mbps(raw_bytes, encode_seconds),
        decode_mbps: mbps(raw_bytes, decode_seconds),
        ratio: stats.compression_ratio(),
    }
}

/// Measures the `.etrace` packet stream on one generated pair: encode
/// against the flat per-instruction volume the packets replace, decode
/// (reconstruction) of the produced bytes.
fn bench_etrace(program: &Program, items: &[TraceItem]) -> StreamResult {
    let encode = || {
        let mut w = EtraceWriter::new(Vec::with_capacity(1 << 20), program).expect("vec write");
        for item in items {
            w.write(item).expect("vec write");
        }
        w.finish().expect("vec write")
    };
    let (encode_seconds, _) = measure(&encode);
    let (encoded, stats) = encode();

    let decode = || {
        let mut n = 0u64;
        let mut r = EtraceReader::new(Cursor::new(&encoded)).expect("valid stream");
        while r.read().expect("valid stream").is_some() {
            n += 1;
        }
        n
    };
    let (decode_seconds, _) = measure(decode);
    StreamResult {
        raw_bytes: stats.flat_bytes,
        encode_mbps: mbps(stats.flat_bytes, encode_seconds),
        decode_mbps: mbps(stats.flat_bytes, decode_seconds),
        ratio: stats.compression_ratio(),
    }
}

fn report_family(family: &str, streams: &[(&str, &StreamResult)], prep: f64) {
    let mut line = format!("[convert_bench] {family}:");
    for (i, (kind, s)) in streams.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            " {kind} {:.1}/{:.1} MB/s enc/dec ({:.2}x)",
            s.encode_mbps, s.decode_mbps, s.ratio
        ));
    }
    eprintln!("{line} [prep {prep:.2} s]");
}

fn mbps(raw_bytes: u64, seconds: f64) -> f64 {
    raw_bytes as f64 / 1e6 / seconds
}

fn stream_json(s: &StreamResult) -> String {
    format!(
        "{{\"raw_bytes\":{},\"encode_mbps\":{:.3},\"decode_mbps\":{:.3},\"ratio\":{:.3}}}",
        s.raw_bytes, s.encode_mbps, s.decode_mbps, s.ratio
    )
}

fn to_json(scale: &str, results: &[FamilyResult]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"scale\":\"{scale}\",\"results\":["));
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"family\":\"{}\",\"{}\":{},\"{}\":{}}}",
            r.family,
            r.streams[0].0,
            stream_json(&r.streams[0].1),
            r.streams[1].0,
            stream_json(&r.streams[1].1)
        ));
    }
    out.push_str("]}\n");
    out
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: convert_bench [--scale smoke|test|paper] [--out <path>] [--metrics <path>] \
         [--check <baseline.json>] [--tolerance <pct>]"
    );
    std::process::exit(2);
}
