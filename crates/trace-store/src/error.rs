use std::error::Error;
use std::fmt;
use std::io;

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
    /// A block payload could not be decompressed or un-filtered (the
    /// compressed byte stream itself is malformed).
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
        // Unwrap store errors that were funneled through `io::Error` by
        // the `Read` adapter, so callers see the typed variant again.
        if e.get_ref().is_some_and(|inner| inner.is::<StoreError>()) {
            match e.into_inner().expect("checked above").downcast::<StoreError>() {
                Ok(store) => *store,
                Err(_) => unreachable!("downcast checked by is::<StoreError>()"),
            }
        } else {
            StoreError::Io(e)
        }
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
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
    fn round_trips_through_io_error() {
        let io_err: io::Error = StoreError::ChecksumMismatch { block: 11 }.into();
        match StoreError::from(io_err) {
            StoreError::ChecksumMismatch { block: 11 } => {}
            other => panic!("lost the typed error: {other:?}"),
        }
        // A plain I/O error stays a plain I/O error.
        match StoreError::from(io::Error::other("plain")) {
            StoreError::Io(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
