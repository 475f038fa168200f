//! Typed persistence errors.
//!
//! Every failure mode of the snapshot layer maps to a distinct variant,
//! so corruption is diagnosable and *never* a panic: a truncated file, a
//! flipped byte and a stale schema all surface as different
//! [`SnapshotError`]s the caller can match on.

use std::fmt;

/// Errors produced by the snapshot reader/writer and the codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Underlying I/O failure (message keeps the error comparable).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's schema version is not the one this build writes.
    UnsupportedVersion(u32),
    /// The file ended before the declared layout was complete.
    Truncated {
        /// What the reader was in the middle of when bytes ran out.
        context: &'static str,
    },
    /// A section's stored CRC does not match its payload.
    ChecksumMismatch {
        /// The corrupted section's name.
        section: String,
    },
    /// A required section is absent from the snapshot.
    MissingSection(String),
    /// A section decoded structurally but its content is inconsistent
    /// (bad offsets, length mismatches, out-of-range ids …).
    Corrupt(String),
    /// The checkpoint directory holds this file of an older layout,
    /// whose progress lived in a JSON manifest beside the snapshots.
    OlderLayout(String),
    /// The snapshot belongs to a run under another configuration
    /// fingerprint (different input or parameters).
    ForeignRun {
        /// The fingerprint the snapshot's `progress` section holds.
        found: u32,
        /// The fingerprint of the run reading it.
        expected: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapshotError::BadMagic => write!(f, "not a pace snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot schema version {v} is not supported")
            }
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing required section {name:?}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot content corrupt: {msg}"),
            SnapshotError::OlderLayout(path) => write!(
                f,
                "{path} belongs to the checkpoint layout of an older build, which this \
                 build does not read"
            ),
            SnapshotError::ForeignRun { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:08x} does not match this run's {expected:08x} \
                 (different input or parameters); refusing to mix state"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}
