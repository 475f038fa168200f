//! The PaCE clustering engine (paper §3.3).
//!
//! Every EST starts as its own cluster; clusters merge when a promising
//! pair — one EST from each — shows a strong overlap alignment. The
//! structure is master–slave:
//!
//! * the **master** ([`master`]) owns `WORKBUF` (pairs awaiting alignment)
//!   and `CLUSTERS` (union–find). It discards pairs whose ESTs already
//!   share a cluster — the single most important work-saving rule, which
//!   the decreasing-MCS pair order makes effective — merges clusters on
//!   accepted alignments, and regulates pair flow with the paper's
//!   `E = min(α·δ·batchsize, nfree/p)` demand formula. The skip and merge
//!   bookkeeping lives in one [`cluster_core::ClusterCore`], shared with
//!   the sequential, persistent and incremental drivers;
//! * **slaves** ([`slave`]) generate promising pairs from their local
//!   portion of the suffix-tree forest and run anchored banded alignments,
//!   overlapping communication with computation (three-portion startup,
//!   `NEXTWORK` double buffering, generation while waiting).
//!
//! Two drivers expose the engine: [`driver_seq`] runs master logic inline
//! with one in-process generator (the reference implementation), and
//! [`driver_par`] runs the full message protocol over `p` ranks, in the
//! paper's layout: the master at rank 0 and slaves at ranks `1..p`, each
//! slave speaking one protocol session with one `PAIRBUF`.
//! [`cluster_master_transport`] and [`cluster_worker_transport`] drive
//! one rank each over a `Rank<Msg>` on any [`pace_mpisim::Transport`]:
//! threads of the in-process channel world, or processes over Unix
//! sockets, with [`wire_msg`] providing the `Msg` wire codec.

pub mod align_task;
pub mod cluster_core;
pub mod config;
pub mod driver_par;
pub mod driver_seq;
pub mod master;
pub mod messages;
pub mod slave;
pub mod stats;
pub mod trace;
pub mod wire_msg;

pub use align_task::{align_pair, AlignContext, PairOutcome};
pub use cluster_core::ClusterCore;
pub use config::ClusterConfig;
pub use driver_par::{
    cluster_master_transport, cluster_parallel, cluster_parallel_faults, cluster_parallel_obs,
    cluster_worker_transport,
};
pub use driver_seq::{
    cluster_bucket_batch, cluster_sequential, cluster_sequential_obs, cluster_sequential_traced,
    record_cluster_counters, record_forest_shape, record_pair_counters,
};
pub use master::FaultNote;
pub use messages::{Msg, WorkerSummary};
pub use stats::{ClusterResult, ClusterStats, FaultStats};
pub use trace::{MergeRecord, MergeTrace};
