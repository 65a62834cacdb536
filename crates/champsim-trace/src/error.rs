use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced while reading or writing ChampSim traces.
#[derive(Debug)]
pub enum ChampsimTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream length is not a multiple of the 64-byte record size.
    TruncatedRecord {
        /// Byte offset of the incomplete record.
        offset: u64,
    },
    /// A block of a compressed trace store failed its checksum or could
    /// not be decoded. Raised only when reading `.champsimz` stores.
    CorruptedBlock {
        /// Zero-based index of the corrupted block.
        block: u64,
    },
    /// A `.champsimz` store refused its header (bad magic, unsupported
    /// version, wrong stream kind, unknown filter); carries the store's
    /// own one-line message.
    Container(String),
}

impl fmt::Display for ChampsimTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChampsimTraceError::Io(e) => write!(f, "i/o error: {e}"),
            ChampsimTraceError::TruncatedRecord { offset } => {
                write!(f, "trace truncated inside record starting at byte {offset}")
            }
            ChampsimTraceError::CorruptedBlock { block } => {
                write!(f, "corrupted store block {block} (checksum or payload mismatch)")
            }
            ChampsimTraceError::Container(message) => f.write_str(message),
        }
    }
}

impl Error for ChampsimTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChampsimTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ChampsimTraceError {
    fn from(e: io::Error) -> Self {
        ChampsimTraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        assert!(!ChampsimTraceError::TruncatedRecord { offset: 64 }.to_string().is_empty());
        let e = ChampsimTraceError::from(io::Error::other("x"));
        assert!(e.source().is_some());
    }
}
