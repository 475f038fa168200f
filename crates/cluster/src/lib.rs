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
//! [`driver_par`] runs the full message protocol over `p` ranks of the
//! thread-backed MPI substitute, in the rank layout `cfg.shards` selects
//! ([`Topology`]): the paper's single master at rank 0, or `K`
//! id-range sub-masters under a reconciler ([`driver_sharded`]). Either
//! way every master runs one protocol loop and every slave one slave
//! loop; a single-master slave is the one-session case of the loop that
//! serves `K` sub-masters. The same protocol also runs over any
//! [`pace_mpisim::Transport`]: [`cluster_master_transport`] and
//! [`cluster_worker_transport`] drive one rank each over a
//! caller-supplied `Rank<Msg>` (the multi-process socket path), with
//! [`wire_msg`] providing the `Msg` wire codec.

pub mod align_task;
pub mod cluster_core;
pub mod config;
pub mod driver_par;
pub mod driver_seq;
pub mod driver_sharded;
pub mod master;
pub mod messages;
pub mod slave;
pub mod stats;
pub mod trace;
pub mod wire_msg;

pub use align_task::{align_pair, AlignContext, PairOutcome};
pub use cluster_core::{ClusterCore, ClusterSets};
pub use config::{ClusterConfig, Role, Topology};
pub use driver_par::{
    cluster_master_transport, cluster_parallel, cluster_parallel_faults, cluster_parallel_obs,
    cluster_parallel_traced, cluster_worker_transport,
};
pub use driver_seq::{
    cluster_sequential, cluster_sequential_obs, cluster_sequential_traced, record_cluster_counters,
    record_gst_stats, record_pair_counters,
};
pub use master::FaultNote;
pub use messages::{Msg, ShardReport, WorkerSummary};
pub use stats::{ClusterResult, ClusterStats, FaultStats};
pub use trace::{MergeRecord, MergeTrace};
