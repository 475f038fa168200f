//! Error types for the sequence substrate.

/// Errors produced while parsing, validating or storing DNA sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// A byte that is not one of `{A,C,G,T}` (either case).
    InvalidBase(u8),
    /// An invalid byte together with its offset within the sequence.
    InvalidBaseAt {
        /// The offending byte.
        byte: u8,
        /// 0-based offset of the byte within the sequence.
        offset: usize,
    },
    /// An IUPAC ambiguity code (or other non-ACGT byte) in a FASTA
    /// record parsed under [`crate::fasta::AmbiguityPolicy::Reject`].
    /// Unlike [`SeqError::InvalidBaseAt`] — which surfaces much later,
    /// deep inside packing or storage — this is raised at parse time
    /// and names the offending record.
    AmbiguousBase {
        /// Identifier from the record's header line.
        id: String,
        /// The offending byte (upper-cased).
        byte: u8,
        /// 0-based offset of the byte within the record's sequence.
        offset: usize,
    },
    /// A FASTA stream that does not start with a `>` header line.
    MissingFastaHeader,
    /// A FASTA record whose sequence body is empty.
    EmptyFastaRecord {
        /// Identifier from the record's header line.
        id: String,
    },
    /// An empty EST handed to the [`crate::SequenceStore`].
    EmptySequence {
        /// 0-based index of the EST in the input batch.
        index: usize,
    },
    /// A slice range `[start, end)` that is inverted or exceeds the
    /// sequence length (from [`crate::codec::PackedDna::slice_ascii`] and
    /// friends).
    SliceOutOfBounds {
        /// Inclusive start of the requested range.
        start: usize,
        /// Exclusive end of the requested range.
        end: usize,
        /// Length of the sequence being sliced.
        len: usize,
    },
    /// A serialized store whose structure is inconsistent — offset-table
    /// shape, monotonicity, or mismatched strand lengths (from
    /// [`crate::SequenceStore::from_raw_parts`]).
    CorruptStore {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// An EST longer than [`crate::MAX_EST_LEN`]: the suffix tree could
    /// not address its suffixes' offsets.
    EstTooLong {
        /// 0-based index of the EST in the input batch.
        index: usize,
        /// Its length in bases.
        len: usize,
    },
    /// An EST that would take the store past [`crate::MAX_STORED_CHARS`]
    /// bases over both strands, beyond what `u32` offsets address.
    StoreTooLarge {
        /// 0-based index of the EST in the input batch.
        index: usize,
        /// Bases the store would hold with it, both strands.
        stored: usize,
    },
    /// An ingest batch whose id list and sequence list disagree in length.
    BatchShape {
        /// Number of identifiers supplied.
        ids: usize,
        /// Number of sequences supplied.
        seqs: usize,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone + Eq`).
    Io(String),
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::InvalidBase(b) => {
                write!(f, "invalid DNA base: 0x{b:02x} ({:?})", *b as char)
            }
            SeqError::InvalidBaseAt { byte, offset } => write!(
                f,
                "invalid DNA base 0x{byte:02x} ({:?}) at offset {offset}",
                *byte as char
            ),
            SeqError::AmbiguousBase { id, byte, offset } => write!(
                f,
                "FASTA record {id:?} contains ambiguity code {:?} (0x{byte:02x}) at \
                 sequence offset {offset}; re-run with the normalize policy to map \
                 such bytes to 'A'",
                *byte as char
            ),
            SeqError::MissingFastaHeader => {
                write!(f, "FASTA input does not begin with a '>' header line")
            }
            SeqError::EmptyFastaRecord { id } => {
                write!(f, "FASTA record {id:?} has an empty sequence")
            }
            SeqError::EmptySequence { index } => {
                write!(f, "EST #{index} is empty")
            }
            SeqError::SliceOutOfBounds { start, end, len } => write!(
                f,
                "slice range {start}..{end} out of bounds for sequence of length {len}"
            ),
            SeqError::CorruptStore { detail } => {
                write!(f, "corrupt sequence store: {detail}")
            }
            SeqError::EstTooLong { index, len } => write!(
                f,
                "EST #{index} has {len} bases; at most {} are supported",
                crate::MAX_EST_LEN
            ),
            SeqError::StoreTooLarge { index, stored } => write!(
                f,
                "EST #{index} would bring the store to {stored} bases over both strands; \
                 at most {} are supported",
                crate::MAX_STORED_CHARS
            ),
            SeqError::BatchShape { ids, seqs } => {
                write!(f, "batch has {ids} ids but {seqs} sequences")
            }
            SeqError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SeqError {}

impl From<std::io::Error> for SeqError {
    fn from(err: std::io::Error) -> Self {
        SeqError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msg = SeqError::InvalidBaseAt {
            byte: b'N',
            offset: 7,
        }
        .to_string();
        assert!(msg.contains("'N'"));
        assert!(msg.contains("offset 7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: SeqError = io.into();
        assert!(matches!(err, SeqError::Io(_)));
        assert!(err.to_string().contains("gone"));
    }
}
