use std::error::Error;
use std::fmt;
use std::io;

use champsim_trace::ChampsimTraceError;
use cvp_trace::TraceError;

use crate::block::VERSION;

/// Errors produced while reading or writing block stores.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the store magic.
    BadMagic,
    /// The container version byte is not [`VERSION`], the one version
    /// this build reads (an older store must be regenerated).
    UnsupportedVersion {
        /// The version byte found in the header.
        version: u8,
    },
    /// The header names a delta filter this build does not know.
    UnknownFilter {
        /// The filter byte found in the header.
        filter: u8,
    },
    /// The header names a stream kind other than the one requested
    /// (e.g. opening a `.champsimz` file as a CVP store).
    WrongStreamKind {
        /// The stream-kind byte found in the header.
        found: u8,
        /// The stream-kind byte the caller expected.
        expected: u8,
    },
    /// The stream ended inside a block header or payload.
    TruncatedBlock {
        /// Zero-based index of the truncated block.
        block: u64,
    },
    /// A decompressed block failed its checksum — the payload was
    /// corrupted on disk or in transit.
    ChecksumMismatch {
        /// Zero-based index of the corrupted block.
        block: u64,
    },
    /// A block is malformed: its header is inconsistent, its payload
    /// could not be decompressed or un-filtered, or its checked bytes do
    /// not parse to exactly the records its header counts.
    CorruptBlock {
        /// Zero-based index of the corrupted block.
        block: u64,
    },
    /// The footer index is missing or self-inconsistent (seekable
    /// readers only; streaming readers never consult it).
    BadIndex,
}

impl StoreError {
    /// The zero-based block index the error refers to, when it refers
    /// to one specific block.
    pub fn block(&self) -> Option<u64> {
        match self {
            StoreError::TruncatedBlock { block }
            | StoreError::ChecksumMismatch { block }
            | StoreError::CorruptBlock { block } => Some(*block),
            _ => None,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => f.write_str("not a trace store (bad magic)"),
            StoreError::UnsupportedVersion { version } => write!(
                f,
                "unsupported trace-store version {version} (this build reads version \
                 {VERSION}; regenerate this store)"
            ),
            StoreError::UnknownFilter { filter } => {
                write!(f, "unknown trace-store filter {filter}")
            }
            StoreError::WrongStreamKind { found, expected } => {
                write!(f, "wrong stream kind {found} (expected {expected})")
            }
            StoreError::TruncatedBlock { block } => {
                write!(f, "store truncated inside block {block}")
            }
            StoreError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in block {block}")
            }
            StoreError::CorruptBlock { block } => {
                write!(f, "corrupt compressed payload in block {block}")
            }
            StoreError::BadIndex => f.write_str("missing or inconsistent footer index"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Lifts a store failure into the CVP-1 error channel: a failure of one
/// block is [`TraceError::CorruptedBlock`], a refused header or index
/// is [`TraceError::Container`] with the store's own message.
impl From<StoreError> for TraceError {
    fn from(e: StoreError) -> Self {
        match (e.block(), e) {
            (Some(block), _) => TraceError::CorruptedBlock { block },
            (None, StoreError::Io(io)) => TraceError::Io(io),
            (None, other) => TraceError::Container(other.to_string()),
        }
    }
}

/// The ChampSim twin of `From<StoreError> for TraceError`.
impl From<StoreError> for ChampsimTraceError {
    fn from(e: StoreError) -> Self {
        match (e.block(), e) {
            (Some(block), _) => ChampsimTraceError::CorruptedBlock { block },
            (None, StoreError::Io(io)) => ChampsimTraceError::Io(io),
            (None, other) => ChampsimTraceError::Container(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<StoreError> = vec![
            StoreError::Io(io::Error::other("boom")),
            StoreError::BadMagic,
            StoreError::UnsupportedVersion { version: 9 },
            StoreError::UnknownFilter { filter: 7 },
            StoreError::WrongStreamKind { found: 1, expected: 0 },
            StoreError::TruncatedBlock { block: 3 },
            StoreError::ChecksumMismatch { block: 4 },
            StoreError::CorruptBlock { block: 5 },
            StoreError::BadIndex,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn block_index_is_reported_where_meaningful() {
        assert_eq!(StoreError::ChecksumMismatch { block: 7 }.block(), Some(7));
        assert_eq!(StoreError::TruncatedBlock { block: 2 }.block(), Some(2));
        assert_eq!(StoreError::CorruptBlock { block: 1 }.block(), Some(1));
        assert_eq!(StoreError::BadMagic.block(), None);
    }

    #[test]
    fn header_errors_keep_their_message_and_block_errors_their_block() {
        let header = StoreError::UnsupportedVersion { version: 1 };
        let message = header.to_string();
        match TraceError::from(header) {
            TraceError::Container(m) => assert_eq!(m, message),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            TraceError::from(StoreError::BadMagic).to_string(),
            "not a trace store (bad magic)"
        );
        match ChampsimTraceError::from(StoreError::WrongStreamKind { found: 1, expected: 2 }) {
            ChampsimTraceError::Container(m) => assert!(!m.contains("i/o error"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
        match TraceError::from(StoreError::ChecksumMismatch { block: 11 }) {
            TraceError::CorruptedBlock { block: 11 } => {}
            other => panic!("unexpected {other:?}"),
        }
        match ChampsimTraceError::from(StoreError::TruncatedBlock { block: 3 }) {
            ChampsimTraceError::CorruptedBlock { block: 3 } => {}
            other => panic!("unexpected {other:?}"),
        }
        match TraceError::from(StoreError::Io(io::Error::other("plain"))) {
            TraceError::Io(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
