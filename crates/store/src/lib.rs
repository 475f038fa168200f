//! Out-of-core persistence for PaCE.
//!
//! The paper's clustering promises space linear in the input, but the
//! constant in front of N still has to fit in RAM. This crate bounds
//! that constant and adds whole-run durability, in two layers:
//!
//! * [`snapshot`] — a versioned, checksummed binary container (magic +
//!   schema version + named sections + per-section CRC-32, the
//!   `pace_wire::crc32` the frame codec uses) with streaming writer and
//!   verifying reader, published atomically via
//!   write-to-temp + fsync + rename. [`codec`] provides the typed
//!   encodings of the state a resume cannot recompute (sequence store,
//!   EST ids, union–find, merge trace, run stats) on top of it, all
//!   decoded through the `pace_wire::WireReader` cursor. Every
//!   checkpoint also carries a `progress` section: the run's
//!   configuration [`fingerprint`] and one count of what it covers. The
//!   file the writer publishes atomically is thus its own record of how
//!   far the run got, and a resume reads progress from it alone.
//! * [`plan`] — memory-budgeted batch planning over the bucket
//!   partition's suffix counts. The drivers build and drain one batch
//!   at a time, so GST construction runs under `--memory-budget` on
//!   inputs whose trees exceed RAM. The plan is a pure function of the
//!   partition, so it is recomputed, never persisted.
//!
//! Corruption anywhere in the stack (truncation, bit flips, stale
//! schema, structural inconsistencies) surfaces as a typed
//! [`SnapshotError`], never a panic.

pub mod codec;
pub mod error;
pub mod plan;
pub mod snapshot;

pub use error::SnapshotError;
pub use plan::{plan_batches, BatchPlan, DEFAULT_BYTES_PER_SUFFIX};
pub use snapshot::{fingerprint, Snapshot, SnapshotWriter, MAGIC, SCHEMA_VERSION};
