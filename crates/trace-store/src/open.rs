//! Path dispatch: one extension table names every trace encoding, and
//! the reader/writer enums open a path as the encoding it names.
//!
//! The command-line tools accept both flat record files and `.cvpz` /
//! `.champsimz` stores on every trace argument; these enums give them
//! one reader/writer type per stream kind, chosen by
//! [`Encoding::of`]. Readers iterate identically in both modes;
//! writers report [`StoreStats`] from [`finish`](CvpTraceWriter::finish)
//! when the store path was taken.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use champsim_trace::{ChampsimReader, ChampsimRecord, ChampsimTraceError, ChampsimWriter};
use cvp_trace::{CvpInstruction, CvpReader, CvpWriter, TraceError};

use crate::block::StoreStats;
use crate::champsimz::{ChampsimzReader, ChampsimzWriter};
use crate::cvpz::{CvpzReader, CvpzWriter};
use crate::etrace_cvp::EtraceCvpReader;

/// A trace file encoding, as its extension names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// `.cvp`: flat CVP-1 records.
    Cvp,
    /// `.cvpz`: a block-compressed CVP-1 store.
    Cvpz,
    /// `.etrace`: a RISC-V E-Trace branch trace.
    Etrace,
    /// `.champsimtrace`: flat ChampSim 64-byte records.
    Champsim,
    /// `.champsimz`: a block-compressed ChampSim store.
    Champsimz,
}

/// The one extension table: every trace extension the workspace reads
/// or writes, with the encoding it names.
const EXTENSIONS: [(&str, Encoding); 5] = [
    ("cvp", Encoding::Cvp),
    ("cvpz", Encoding::Cvpz),
    (etrace::ETRACE_EXT, Encoding::Etrace),
    ("champsimtrace", Encoding::Champsim),
    ("champsimz", Encoding::Champsimz),
];

impl Encoding {
    /// The encoding `path`'s extension names in the extension table
    /// (case-insensitively), if any.
    pub fn of(path: &Path) -> Option<Encoding> {
        let ext = path.extension()?.to_str()?;
        EXTENSIONS.iter().find(|(name, _)| ext.eq_ignore_ascii_case(name)).map(|&(_, e)| e)
    }

    /// Whether `path` names a block-compressed store of either kind.
    fn is_store(path: &Path) -> bool {
        matches!(Encoding::of(path), Some(Encoding::Cvpz | Encoding::Champsimz))
    }
}

/// A CVP-1 trace file opened for reading, plain or compressed.
#[derive(Debug)]
pub enum CvpTraceReader {
    /// Flat `.cvp` record stream.
    Plain(CvpReader<BufReader<File>>),
    /// Block-compressed `.cvpz` store.
    Store(CvpzReader<File>),
    /// RISC-V `.etrace` branch trace, mapped to CVP records on decode.
    Etrace(Box<EtraceCvpReader>),
}

impl CvpTraceReader {
    /// Opens `path`, choosing the decoder from its extension.
    ///
    /// # Errors
    ///
    /// I/O errors opening the file; store or E-Trace header errors (as
    /// [`TraceError::Container`]) if the file is not valid for its
    /// extension. A name the table does not know opens as flat CVP-1.
    pub fn open(path: &Path) -> Result<CvpTraceReader, TraceError> {
        let file = File::open(path)?;
        if Encoding::is_store(path) {
            Ok(CvpTraceReader::Store(CvpzReader::new(file)?))
        } else if Encoding::of(path) == Some(Encoding::Etrace) {
            Ok(CvpTraceReader::Etrace(Box::new(EtraceCvpReader::new(BufReader::new(file))?)))
        } else {
            Ok(CvpTraceReader::Plain(CvpReader::new(BufReader::new(file))))
        }
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// The underlying decoder's errors; store corruption surfaces as
    /// [`TraceError::CorruptedBlock`].
    pub fn read(&mut self) -> Result<Option<CvpInstruction>, TraceError> {
        match self {
            CvpTraceReader::Plain(r) => r.read(),
            CvpTraceReader::Store(r) => r.read(),
            CvpTraceReader::Etrace(r) => r.read(),
        }
    }

    /// The E-Trace decoder's packet and volume counters, when the
    /// `.etrace` path was taken (`None` for flat and store inputs).
    pub fn etrace_stats(&self) -> Option<etrace::EtraceStats> {
        match self {
            CvpTraceReader::Etrace(r) => Some(r.stats()),
            _ => None,
        }
    }
}

impl Iterator for CvpTraceReader {
    type Item = Result<CvpInstruction, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

/// A CVP-1 trace file opened for writing, plain or compressed.
#[derive(Debug)]
pub enum CvpTraceWriter {
    /// Flat `.cvp` record stream.
    Plain(CvpWriter<BufWriter<File>>),
    /// Block-compressed `.cvpz` store.
    Store(CvpzWriter<File>),
}

impl CvpTraceWriter {
    /// Creates `path`, choosing the encoder from its extension.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file or writing the store header.
    /// `.etrace` output needs a program image that flat CVP records do
    /// not carry, so it is rejected here with
    /// [`TraceError::Container`]; use `etrace::EtraceWriter` with a
    /// generated program instead.
    pub fn create(path: &Path) -> Result<CvpTraceWriter, TraceError> {
        if Encoding::of(path) == Some(Encoding::Etrace) {
            return Err(TraceError::Container(
                "cannot write .etrace from flat cvp records (no program image); \
                 use the etrace writer"
                    .into(),
            ));
        }
        let file = File::create(path)?;
        if Encoding::is_store(path) {
            Ok(CvpTraceWriter::Store(CvpzWriter::new(file)?))
        } else {
            Ok(CvpTraceWriter::Plain(CvpWriter::new(BufWriter::new(file))))
        }
    }

    /// Encodes one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the file.
    pub fn write(&mut self, insn: &CvpInstruction) -> Result<(), TraceError> {
        match self {
            CvpTraceWriter::Plain(w) => w.write(insn),
            CvpTraceWriter::Store(w) => Ok(w.write(insn)?),
        }
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        match self {
            CvpTraceWriter::Plain(w) => w.records_written(),
            CvpTraceWriter::Store(w) => w.records_written(),
        }
    }

    /// Flushes (and, for stores, finalizes) the file. Returns the
    /// store's volume counters when the compressed path was taken.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the file.
    pub fn finish(self) -> Result<Option<StoreStats>, TraceError> {
        match self {
            CvpTraceWriter::Plain(mut w) => {
                w.flush()?;
                Ok(None)
            }
            CvpTraceWriter::Store(w) => {
                let (_, stats) = w.finish()?;
                Ok(Some(stats))
            }
        }
    }
}

/// A ChampSim trace file opened for reading, plain or compressed.
#[derive(Debug)]
pub enum ChampsimTraceReader {
    /// Flat 64-byte record stream.
    Plain(ChampsimReader<BufReader<File>>),
    /// Block-compressed `.champsimz` store.
    Store(ChampsimzReader<File>),
}

impl ChampsimTraceReader {
    /// Opens `path`, choosing the decoder from its extension.
    ///
    /// # Errors
    ///
    /// I/O errors opening the file; store header errors (as
    /// [`ChampsimTraceError::Container`]) if a `.champsimz` file is not
    /// a valid store.
    pub fn open(path: &Path) -> Result<ChampsimTraceReader, ChampsimTraceError> {
        let file = File::open(path)?;
        if Encoding::is_store(path) {
            Ok(ChampsimTraceReader::Store(ChampsimzReader::new(file)?))
        } else {
            Ok(ChampsimTraceReader::Plain(ChampsimReader::new(BufReader::new(file))))
        }
    }

    /// Decodes the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// The underlying decoder's errors; store corruption surfaces as
    /// [`ChampsimTraceError::CorruptedBlock`].
    pub fn read(&mut self) -> Result<Option<ChampsimRecord>, ChampsimTraceError> {
        match self {
            ChampsimTraceReader::Plain(r) => r.read(),
            ChampsimTraceReader::Store(r) => r.read(),
        }
    }
}

impl Iterator for ChampsimTraceReader {
    type Item = Result<ChampsimRecord, ChampsimTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

/// A ChampSim trace file opened for writing, plain or compressed.
#[derive(Debug)]
pub enum ChampsimTraceWriter {
    /// Flat 64-byte record stream.
    Plain(ChampsimWriter<BufWriter<File>>),
    /// Block-compressed `.champsimz` store.
    Store(ChampsimzWriter<File>),
}

impl ChampsimTraceWriter {
    /// Creates `path`, choosing the encoder from its extension.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file or writing the store header.
    pub fn create(path: &Path) -> Result<ChampsimTraceWriter, ChampsimTraceError> {
        let file = File::create(path)?;
        if Encoding::is_store(path) {
            Ok(ChampsimTraceWriter::Store(ChampsimzWriter::new(file)?))
        } else {
            Ok(ChampsimTraceWriter::Plain(ChampsimWriter::new(BufWriter::new(file))))
        }
    }

    /// Encodes one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the file.
    pub fn write(&mut self, rec: &ChampsimRecord) -> Result<(), ChampsimTraceError> {
        match self {
            ChampsimTraceWriter::Plain(w) => w.write(rec),
            ChampsimTraceWriter::Store(w) => Ok(w.write(rec)?),
        }
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        match self {
            ChampsimTraceWriter::Plain(w) => w.records_written(),
            ChampsimTraceWriter::Store(w) => w.records_written(),
        }
    }

    /// Flushes (and, for stores, finalizes) the file. Returns the
    /// store's volume counters when the compressed path was taken.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the file.
    pub fn finish(self) -> Result<Option<StoreStats>, ChampsimTraceError> {
        match self {
            ChampsimTraceWriter::Plain(mut w) => {
                w.flush()?;
                Ok(None)
            }
            ChampsimTraceWriter::Store(w) => {
                let (_, stats) = w.finish()?;
                Ok(Some(stats))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_paths_are_detected_by_extension() {
        assert!(Encoding::is_store(Path::new("a/b/trace.cvpz")));
        assert!(Encoding::is_store(Path::new("trace.CVPZ")));
        assert!(Encoding::is_store(Path::new("t.champsimz")));
        assert!(!Encoding::is_store(Path::new("trace.cvp")));
        assert!(!Encoding::is_store(Path::new("trace.champsimtrace")));
        assert!(!Encoding::is_store(Path::new("cvpz")));
    }

    #[test]
    fn cvp_family_paths_are_detected_by_extension() {
        let cases = [
            ("t.cvp", Some(Encoding::Cvp)),
            ("a/t.CVP", Some(Encoding::Cvp)),
            ("t.cvpz", Some(Encoding::Cvpz)),
            ("t.etrace", Some(Encoding::Etrace)),
            ("t.champsimtrace", Some(Encoding::Champsim)),
            ("t.champsimz", Some(Encoding::Champsimz)),
            ("t.bin", None),
            ("cvp", None),
        ];
        for (path, want) in cases {
            assert_eq!(Encoding::of(Path::new(path)), want, "{path}");
        }
    }

    #[test]
    fn cvp_round_trip_through_files_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("trace-store-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let insns: Vec<CvpInstruction> = (0..200u64)
            .map(|i| CvpInstruction::alu(0x1000 + 4 * i).with_destination(1, i))
            .collect();
        for name in ["t.cvp", "t.cvpz"] {
            let path = dir.join(name);
            let mut w = CvpTraceWriter::create(&path).unwrap();
            for i in &insns {
                w.write(i).unwrap();
            }
            assert_eq!(w.records_written(), insns.len() as u64);
            let stats = w.finish().unwrap();
            assert_eq!(stats.is_some(), name.ends_with("cvpz"));
            let back: Vec<CvpInstruction> =
                CvpTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(back, insns, "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn champsim_round_trip_through_files_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("trace-store-openc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recs: Vec<ChampsimRecord> =
            (0..200u64).map(|i| ChampsimRecord::new(0x1000 + 4 * i)).collect();
        for name in ["t.champsimtrace", "t.champsimz"] {
            let path = dir.join(name);
            let mut w = ChampsimTraceWriter::create(&path).unwrap();
            for r in &recs {
                w.write(r).unwrap();
            }
            let stats = w.finish().unwrap();
            assert_eq!(stats.is_some(), name.ends_with("champsimz"));
            let back: Vec<ChampsimRecord> =
                ChampsimTraceReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(back, recs, "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
