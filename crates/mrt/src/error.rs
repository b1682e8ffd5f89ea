//! Errors produced while encoding or decoding MRT and BGP wire data.

use std::fmt;
use std::io;

/// An error from the MRT/BGP codec.
#[derive(Debug)]
pub enum MrtError {
    /// Underlying I/O failure while reading or writing a stream.
    Io(io::Error),
    /// The input ended before a complete record/field was read.
    ///
    /// `needed` is how many more bytes the decoder wanted; `context` names
    /// the field being decoded.
    Truncated {
        /// Field being decoded when the data ran out.
        context: &'static str,
        /// Additional bytes the decoder needed.
        needed: usize,
    },
    /// The bytes were well-framed but semantically invalid.
    Malformed {
        /// Field being decoded.
        context: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A record/message/attribute type this implementation does not handle.
    Unsupported {
        /// What kind of discriminator was unknown (e.g. "MRT type").
        context: &'static str,
        /// The unknown numeric value.
        value: u32,
    },
    /// A value too large to encode in its wire field (e.g. an attribute body
    /// over 65535 bytes).
    TooLong {
        /// Field being encoded.
        context: &'static str,
        /// The offending length.
        len: usize,
    },
    /// A lenient reader hit its configured error budget and stopped early.
    BudgetExceeded {
        /// The budget that was exhausted.
        limit: u64,
    },
}

/// The coarse kind of an [`MrtError`], used for error accounting: ingest
/// reports count decode failures per kind so operators can tell a rotten
/// archive (truncation, garbage) from a merely exotic one (unsupported
/// record types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrtErrorKind {
    /// [`MrtError::Io`].
    Io,
    /// [`MrtError::Truncated`].
    Truncated,
    /// [`MrtError::Malformed`].
    Malformed,
    /// [`MrtError::Unsupported`].
    Unsupported,
    /// [`MrtError::TooLong`].
    TooLong,
    /// [`MrtError::BudgetExceeded`].
    BudgetExceeded,
}

impl MrtError {
    /// Shorthand for [`MrtError::Malformed`].
    pub fn malformed(context: &'static str, reason: impl Into<String>) -> Self {
        MrtError::Malformed {
            context,
            reason: reason.into(),
        }
    }

    /// A RIB entry whose peer index falls outside the current peer table.
    pub(crate) fn unknown_peer(index: u16) -> Self {
        MrtError::malformed("RIB entry", format!("peer index {index} out of range"))
    }

    /// The coarse kind of this error, for counting.
    pub fn kind(&self) -> MrtErrorKind {
        match self {
            MrtError::Io(_) => MrtErrorKind::Io,
            MrtError::Truncated { .. } => MrtErrorKind::Truncated,
            MrtError::Malformed { .. } => MrtErrorKind::Malformed,
            MrtError::Unsupported { .. } => MrtErrorKind::Unsupported,
            MrtError::TooLong { .. } => MrtErrorKind::TooLong,
            MrtError::BudgetExceeded { .. } => MrtErrorKind::BudgetExceeded,
        }
    }

    /// Whether the stream position after this error is still trustworthy: the
    /// record was well-framed and fully consumed, so a reader can continue.
    /// Framing-level errors (I/O, truncation, budget) are not recoverable
    /// in-place — a plain reader must stop, a recovering reader must resync.
    pub fn is_record_local(&self) -> bool {
        matches!(
            self.kind(),
            MrtErrorKind::Malformed | MrtErrorKind::Unsupported | MrtErrorKind::TooLong
        )
    }
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "I/O error: {e}"),
            MrtError::Truncated { context, needed } => {
                write!(f, "truncated {context}: {needed} more byte(s) needed")
            }
            MrtError::Malformed { context, reason } => {
                write!(f, "malformed {context}: {reason}")
            }
            MrtError::Unsupported { context, value } => {
                write!(f, "unsupported {context} {value}")
            }
            MrtError::TooLong { context, len } => {
                write!(f, "{context} too long to encode: {len} bytes")
            }
            MrtError::BudgetExceeded { limit } => {
                write!(
                    f,
                    "error budget exceeded: more than {limit} decode error(s)"
                )
            }
        }
    }
}

impl std::error::Error for MrtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MrtError {
    fn from(e: io::Error) -> Self {
        MrtError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MrtError::Truncated {
            context: "MRT header",
            needed: 4,
        };
        assert!(e.to_string().contains("MRT header"));
        let e = MrtError::malformed("AS_PATH", "segment overruns attribute");
        assert!(e.to_string().contains("AS_PATH"));
        let e = MrtError::Unsupported {
            context: "MRT type",
            value: 99,
        };
        assert!(e.to_string().contains("99"));
        let e = MrtError::TooLong {
            context: "view name",
            len: 70000,
        };
        assert!(e.to_string().contains("70000"));
        let e = MrtError::BudgetExceeded { limit: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn kinds_and_recoverability() {
        assert_eq!(
            MrtError::malformed("x", "y").kind(),
            MrtErrorKind::Malformed
        );
        assert!(MrtError::malformed("x", "y").is_record_local());
        assert!(MrtError::Unsupported {
            context: "MRT type",
            value: 99
        }
        .is_record_local());
        assert!(!MrtError::Truncated {
            context: "h",
            needed: 1
        }
        .is_record_local());
        assert!(!MrtError::BudgetExceeded { limit: 0 }.is_record_local());
    }

    #[test]
    fn io_error_source_is_preserved() {
        let inner = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        let e = MrtError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
    }
}
