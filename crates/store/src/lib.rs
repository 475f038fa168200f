//! Out-of-core persistence for PaCE.
//!
//! The paper's clustering promises space linear in the input, but the
//! constant in front of N still has to fit in RAM. This crate removes
//! that ceiling and adds whole-run durability, in three layers:
//!
//! * [`snapshot`] — a versioned, checksummed binary container (magic +
//!   schema version + named sections + per-section CRC-32, the
//!   `pace_wire::crc32` the frame codec uses) with streaming writer and
//!   verifying reader, published atomically via
//!   write-to-temp + fsync + rename. [`codec`] provides the typed
//!   encodings of every pipeline structure (sequence store, packed
//!   text, bucket partition, subtrees, union–find, merge trace, run
//!   stats) on top of it.
//! * [`spill`] — memory-budgeted batch planning over the bucket
//!   partition's suffix counts, plus the [`spill::SpillManager`] that
//!   writes completed subtree batches to a spill directory and streams
//!   them back during pair generation. This is what lets GST
//!   construction run under `--memory-budget` on inputs whose trees
//!   exceed RAM.
//! * [`manifest`] — the small JSON progress record enabling
//!   checkpoint/resume: which phase completed, how many batches were
//!   built/clustered, and where the last heavy union–find checkpoint
//!   sits. The driver in `pace-core` rewrites it atomically at every
//!   phase boundary and after every clustered batch.
//!
//! Corruption anywhere in the stack (truncation, bit flips, stale
//! schema, structural inconsistencies) surfaces as a typed
//! [`SnapshotError`], never a panic.

pub mod codec;
pub mod error;
pub mod manifest;
pub mod snapshot;
pub mod spill;

pub use error::SnapshotError;
pub use manifest::{fingerprint, Manifest, Phase, MANIFEST_VERSION};
pub use snapshot::{atomic_write, Snapshot, SnapshotWriter, MAGIC, SCHEMA_VERSION};
pub use spill::{plan_batches, BatchPlan, IoStats, SpillManager, DEFAULT_BYTES_PER_SUFFIX};
