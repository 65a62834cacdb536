//! One streaming record source for every trace file.
//!
//! `champsim-run`, `cvp2champsim` and `sim-server`'s file jobs all read
//! a trace through [`TraceSource`]: [`TraceFormat::of`] names the
//! decoder from the path's extension, CVP-family inputs convert on the
//! fly under an [`ImprovementSet`], and the records stream straight into
//! the consumer, so memory stays flat however long the trace is.

use std::path::Path;

use champsim_trace::ChampsimRecord;
use converter::{ConversionStats, Converted, Converter, ImprovementSet};
use trace_store::{ChampsimTraceReader, CvpTraceReader, Encoding};

/// The encoding a trace path names, by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `.champsimtrace` / `.champsimz`: ChampSim records, simulated as
    /// they are.
    Champsim,
    /// `.cvp` / `.cvpz`: CVP-1 instructions, converted before
    /// simulation.
    Cvp,
    /// `.etrace`: RISC-V branch-trace packets, decoded to CVP-1
    /// instructions and converted before simulation.
    Etrace,
}

impl TraceFormat {
    /// Dispatches `path` on its extension through `trace_store`'s one
    /// extension table (case-insensitively).
    ///
    /// # Errors
    ///
    /// Any extension other than the five accepted ones, with a
    /// diagnostic naming the path and the accepted set.
    pub fn of(path: &str) -> Result<TraceFormat, String> {
        match Encoding::of(Path::new(path)) {
            Some(Encoding::Cvp | Encoding::Cvpz) => Ok(TraceFormat::Cvp),
            Some(Encoding::Etrace) => Ok(TraceFormat::Etrace),
            Some(Encoding::Champsim | Encoding::Champsimz) => Ok(TraceFormat::Champsim),
            None => Err(format!(
                "unrecognized trace extension in {path:?} (want .cvp, .cvpz, .etrace, \
                 .champsimtrace or .champsimz)"
            )),
        }
    }

    /// Whether records of this format pass through the converter, so an
    /// improvement set shapes them.
    pub fn converts(self) -> bool {
        self != TraceFormat::Champsim
    }
}

/// A trace file streamed as ChampSim records.
///
/// The source is an `Iterator<Item = ChampsimRecord>`, so it feeds
/// `sim::Simulator::run_fused` (or a writer) directly. A decode error
/// ends the stream and is kept; [`finish`](TraceSource::finish) then
/// reports it as one line naming the path and the byte offset or block.
pub struct TraceSource {
    path: String,
    reader: Reader,
    converter: Converter,
    /// The converted records of the last CVP instruction not yet yielded.
    pending: Option<<Converted as IntoIterator>::IntoIter>,
    records: u64,
    error: Option<String>,
}

enum Reader {
    Champsim(ChampsimTraceReader),
    Cvp(CvpTraceReader),
}

impl TraceSource {
    /// Opens `path` as `format` (the caller's [`TraceFormat::of`]
    /// result). CVP-family records convert under `improvements`;
    /// ChampSim records ignore them. A converting format opens through
    /// `CvpTraceReader::open`, which itself tells `.cvpz`, `.etrace` and
    /// flat CVP-1 apart, so `cvp2champsim` passes [`TraceFormat::Cvp`]
    /// for any path and reads an unrecognized name as flat CVP-1.
    ///
    /// # Errors
    ///
    /// A file that cannot be opened or whose header is invalid, with the
    /// path in the diagnostic.
    pub fn open(
        path: &str,
        format: TraceFormat,
        improvements: ImprovementSet,
    ) -> Result<TraceSource, String> {
        let file = Path::new(path);
        let reader = if format.converts() {
            CvpTraceReader::open(file).map(Reader::Cvp).map_err(|e| e.to_string())
        } else {
            ChampsimTraceReader::open(file).map(Reader::Champsim).map_err(|e| e.to_string())
        }
        .map_err(|e| format!("{path}: {e}"))?;
        Ok(TraceSource {
            path: path.to_owned(),
            reader,
            converter: Converter::new(improvements),
            pending: None,
            records: 0,
            error: None,
        })
    }

    /// Ends the stream: the kept decode error, a diagnostic if the trace
    /// held no records (instructions, for CVP-family inputs), or the
    /// conversion statistics (all zero for ChampSim inputs).
    ///
    /// # Errors
    ///
    /// One line naming the path, as the binaries and the server print it.
    pub fn finish(self) -> Result<ConversionStats, String> {
        let stats = *self.converter.stats();
        match (self.error, self.reader) {
            (Some(error), _) => Err(error),
            (None, Reader::Champsim(_)) if self.records == 0 => {
                Err(format!("{}: trace contains no records", self.path))
            }
            (None, Reader::Cvp(_)) if stats.input_instructions == 0 => {
                Err(format!("{}: trace contains no instructions", self.path))
            }
            _ => Ok(stats),
        }
    }

    fn decode(&mut self) -> Result<Option<ChampsimRecord>, String> {
        loop {
            if let Some(rec) = self.pending.as_mut().and_then(Iterator::next) {
                return Ok(Some(rec));
            }
            let insn = match &mut self.reader {
                Reader::Champsim(reader) => return reader.read().map_err(|e| e.to_string()),
                Reader::Cvp(reader) => reader.read().map_err(|e| e.to_string())?,
            };
            let Some(insn) = insn else { return Ok(None) };
            self.pending = Some(self.converter.convert(&insn).into_iter());
        }
    }
}

impl Iterator for TraceSource {
    type Item = ChampsimRecord;

    fn next(&mut self) -> Option<ChampsimRecord> {
        if self.error.is_some() {
            return None;
        }
        let rec = self.decode().unwrap_or_else(|e| {
            self.error = Some(format!("{}: {e}", self.path));
            None
        });
        self.records += u64::from(rec.is_some());
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_store::CvpTraceWriter;
    use workloads::{TraceSpec, WorkloadKind};

    /// Streaming a `.cvp` file yields exactly the records and statistics
    /// of converting it whole; a cut file ends the stream and `finish`
    /// names the path and the byte offset.
    #[test]
    fn cvp_stream_matches_whole_conversion_and_keeps_the_error() {
        let dir = std::env::temp_dir().join(format!("cli-source-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cvp");
        let insns = TraceSpec::new("t", WorkloadKind::Crypto, 3).with_length(500).generate();
        let mut writer = CvpTraceWriter::create(&path).unwrap();
        for insn in &insns {
            writer.write(insn).unwrap();
        }
        writer.finish().unwrap();
        let text = path.to_str().unwrap();

        let mut source = TraceSource::open(text, TraceFormat::Cvp, ImprovementSet::all()).unwrap();
        let streamed: Vec<ChampsimRecord> = source.by_ref().collect();
        let stats = source.finish().unwrap();
        let mut converter = Converter::new(ImprovementSet::all());
        assert_eq!(streamed, converter.convert_all(insns.iter()));
        assert_eq!(stats, *converter.stats());

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut source = TraceSource::open(text, TraceFormat::Cvp, ImprovementSet::all()).unwrap();
        assert!(source.by_ref().count() > 0, "records before the cut still stream");
        assert_eq!(source.next(), None, "the stream stays ended after an error");
        let err = source.finish().unwrap_err();
        assert!(err.starts_with(text) && err.contains("byte"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
