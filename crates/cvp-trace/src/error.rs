use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced while reading or writing CVP-1 traces.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream ended in the middle of a record.
    TruncatedRecord {
        /// Byte offset of the start of the truncated record.
        offset: u64,
    },
    /// An instruction-class byte that is not a valid [`CvpClass`].
    ///
    /// [`CvpClass`]: crate::CvpClass
    InvalidClass {
        /// The offending class byte.
        value: u8,
        /// Byte offset of the field in the stream.
        offset: u64,
    },
    /// A register count exceeded the format limit.
    TooManyRegisters {
        /// Which register list overflowed.
        kind: RegKind,
        /// The count read from the stream.
        count: u8,
        /// Byte offset of the field in the stream.
        offset: u64,
    },
    /// A register name outside the architectural namespace.
    InvalidRegister {
        /// The offending register number.
        reg: u8,
        /// Byte offset of the field in the stream.
        offset: u64,
    },
    /// A branch-taken byte that is neither 0 nor 1.
    InvalidTakenFlag {
        /// The offending flag byte.
        value: u8,
        /// Byte offset of the field in the stream.
        offset: u64,
    },
    /// A memory access size that is not a power of two in `1..=64`.
    InvalidAccessSize {
        /// The offending size byte.
        size: u8,
        /// Byte offset of the field in the stream.
        offset: u64,
    },
    /// A block of a compressed trace store failed its checksum or could
    /// not be decoded. Raised only when reading `.cvpz` stores.
    CorruptedBlock {
        /// Zero-based index of the corrupted block.
        block: u64,
    },
    /// A `.cvpz` store or `.etrace` stream refused its header or
    /// framing (bad magic, unsupported version, wrong stream kind, a
    /// malformed packet), or a path names a container flat records
    /// cannot be written to; carries that layer's own one-line message.
    Container(String),
}

/// Which register list a [`TraceError::TooManyRegisters`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegKind {
    /// Source (input) registers.
    Source,
    /// Destination (output) registers.
    Destination,
}

impl fmt::Display for RegKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegKind::Source => f.write_str("source"),
            RegKind::Destination => f.write_str("destination"),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::TruncatedRecord { offset } => {
                write!(f, "trace truncated inside record starting at byte {offset}")
            }
            TraceError::InvalidClass { value, offset } => {
                write!(f, "invalid instruction class {value:#x} at byte {offset}")
            }
            TraceError::TooManyRegisters { kind, count, offset } => {
                write!(f, "too many {kind} registers ({count}) at byte {offset}")
            }
            TraceError::InvalidRegister { reg, offset } => {
                write!(f, "register {reg} out of range at byte {offset}")
            }
            TraceError::InvalidTakenFlag { value, offset } => {
                write!(f, "invalid branch-taken flag {value:#x} at byte {offset}")
            }
            TraceError::InvalidAccessSize { size, offset } => {
                write!(f, "invalid memory access size {size} at byte {offset}")
            }
            TraceError::CorruptedBlock { block } => {
                write!(f, "corrupted store block {block} (checksum or payload mismatch)")
            }
            TraceError::Container(message) => f.write_str(message),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<TraceError> = vec![
            TraceError::Io(io::Error::other("boom")),
            TraceError::TruncatedRecord { offset: 12 },
            TraceError::InvalidClass { value: 0xff, offset: 3 },
            TraceError::TooManyRegisters { kind: RegKind::Source, count: 99, offset: 0 },
            TraceError::InvalidRegister { reg: 200, offset: 8 },
            TraceError::InvalidTakenFlag { value: 7, offset: 1 },
            TraceError::InvalidAccessSize { size: 3, offset: 2 },
            TraceError::CorruptedBlock { block: 6 },
            TraceError::Container("not a trace store (bad magic)".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn io_error_round_trips_through_source() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
