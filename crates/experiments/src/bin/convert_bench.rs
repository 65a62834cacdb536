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
//! (exit 1) and names the field, as does an `.etrace` ratio under the
//! floor; usage and I/O errors exit 2. `--metrics` writes the
//! aggregate `store.*` volume counters of the benched encodes as one
//! telemetry document.

use std::io::Cursor;
use std::time::Instant;

use champsim_trace::{ChampsimRecord, RECORD_BYTES};
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use etrace::{EtraceReader, EtraceWriter, Program, TraceItem};
use experiments::bench::{measure, Exit, CONVERT_BENCH, FAMILIES};
use telemetry::{catalog, json};
use trace_store::{ChampsimzReader, ChampsimzWriter, CvpzReader, CvpzWriter, StoreStats};

/// The `.etrace` format's advertised compression floor over flat
/// per-instruction records; a bench run under it is a failed check.
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
    let args = CONVERT_BENCH.args(|_, _| Ok(false));
    let mut results = Vec::new();
    let mut totals = StoreStats::default();
    for family in FAMILIES {
        let start = Instant::now();
        let trace = family.generate(args.scale.trace_length);
        let records = Converter::new(ImprovementSet::all()).convert_all(trace.cvp.iter());
        let prep = start.elapsed().as_secs_f64();

        let source = match &trace.etrace {
            None => ("cvpz", bench_cvpz(&trace.cvp, &mut totals)),
            Some((program, items)) => {
                let etrace = bench_etrace(program, items);
                if etrace.ratio <= ETRACE_RATIO_FLOOR {
                    let message = format!(
                        "{} .etrace compression {:.2}x is under the {ETRACE_RATIO_FLOOR}x floor",
                        trace.name, etrace.ratio
                    );
                    CONVERT_BENCH.cli.fail(Exit::Check, &message);
                }
                ("etrace", etrace)
            }
        };
        let streams = [source, ("champsimz", bench_champsimz(&records, &mut totals))];
        report_family(&trace.name, &streams, prep);
        results.push(FamilyResult { family: trace.name, streams });
    }

    let mut registry = telemetry::Registry::new();
    registry.label("scale", &args.scale_name);
    registry.counter(&catalog::STORE_BLOCKS_WRITTEN, totals.blocks_written);
    registry.counter(&catalog::STORE_BYTES_RAW, totals.bytes_raw);
    registry.counter(&catalog::STORE_BYTES_COMPRESSED, totals.bytes_compressed);
    registry.gauge(&catalog::STORE_COMPRESSION_RATIO, totals.compression_ratio());
    CONVERT_BENCH.finish(&args, &document(&args.scale_name, &results), Some(&registry));
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
    let encode_seconds = measure(&encode).median;
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
    let decode_seconds = measure(decode).median;
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
    let encode_seconds = measure(&encode).median;
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
    let decode_seconds = measure(decode).median;
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
    let encode_seconds = measure(&encode).median;
    let (encoded, stats) = encode();

    let decode = || {
        let mut n = 0u64;
        let mut r = EtraceReader::new(Cursor::new(&encoded)).expect("valid stream");
        while r.read().expect("valid stream").is_some() {
            n += 1;
        }
        n
    };
    let decode_seconds = measure(decode).median;
    StreamResult {
        raw_bytes: stats.flat_bytes,
        encode_mbps: mbps(stats.flat_bytes, encode_seconds),
        decode_mbps: mbps(stats.flat_bytes, decode_seconds),
        ratio: stats.compression_ratio(),
    }
}

fn report_family(family: &str, streams: &[(&str, StreamResult)], prep: f64) {
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

fn document(scale: &str, results: &[FamilyResult]) -> String {
    json::object(|o| {
        o.str("scale", scale).objects("results", results, |row, r| {
            row.str("family", &r.family);
            for (key, s) in &r.streams {
                row.object(key, |o| {
                    o.u64("raw_bytes", s.raw_bytes)
                        .f64("encode_mbps", s.encode_mbps)
                        .f64("decode_mbps", s.decode_mbps)
                        .f64("ratio", s.ratio);
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Value;

    /// Rows read back from the committed baseline, ARM (`cvpz`) and
    /// RISC-V (`etrace`) alike, write a document equal to it.
    #[test]
    fn document_reproduces_the_committed_baseline() {
        let committed = Value::parse(include_str!("../../../../BENCH_io.json")).unwrap();
        let Some(Value::Array(rows)) = committed.get("results") else { panic!("results") };
        let stream = |row: &Value, key: &'static str| {
            let s = row.get(key).unwrap();
            let number = |field: &str| s.get(field).and_then(Value::as_f64).unwrap();
            let result = StreamResult {
                raw_bytes: number("raw_bytes") as u64,
                encode_mbps: number("encode_mbps"),
                decode_mbps: number("decode_mbps"),
                ratio: number("ratio"),
            };
            (key, result)
        };
        let results: Vec<FamilyResult> = rows
            .iter()
            .map(|row| FamilyResult {
                family: row.get("family").and_then(Value::as_str).unwrap().to_owned(),
                streams: [
                    stream(row, if row.get("etrace").is_some() { "etrace" } else { "cvpz" }),
                    stream(row, "champsimz"),
                ],
            })
            .collect();
        assert!(results.iter().any(|r| r.streams[0].0 == "etrace"));
        let scale = committed.get("scale").and_then(Value::as_str).unwrap();
        assert_eq!(Value::parse(&document(scale, &results)).unwrap(), committed);
    }
}
