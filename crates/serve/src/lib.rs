//! paced — the long-lived clustering daemon.
//!
//! Turns the batch pipeline into a service: a Unix-domain-socket server
//! that accepts FASTA ingest batches, folds each into the live index
//! incrementally ([`pace_core::IncrementalClusterer`]), answers
//! membership/cluster/representative/stats queries from many concurrent
//! clients against snapshot-consistent read views, and persists its
//! fold state to one atomically replaced snapshot so a `kill -9` +
//! restart resumes transparently.
//!
//! The wire format reuses the shared `pace-wire` codec: every message is
//! one `[len][crc32][payload]` frame; see [`proto`] for the message
//! grammar and DESIGN.md §13 for the consistency model.

pub mod proto;

mod checkpoint;
mod client;
mod server;
mod view;

pub use checkpoint::{load_state, save_state};
pub use client::Client;
pub use proto::{Request, Response, ServeStats, PROTO_VERSION};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use view::ReadView;
