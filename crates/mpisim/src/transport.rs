//! The transport seam: what a [`Rank`](crate::Rank) needs from the
//! world underneath it.
//!
//! `Rank` owns everything protocol-visible — fault injection, trace
//! spans, crash semantics — and delegates raw delivery and collectives
//! to a boxed [`Transport`]. Two backends implement it:
//!
//! - [`ChannelTransport`]: the original in-process world, one thread
//!   per rank connected by unbounded crossbeam channels;
//! - [`UdsHub`](crate::uds::UdsHub) / [`UdsEndpoint`](crate::uds::UdsEndpoint):
//!   one OS process per rank, star-routed over Unix-domain sockets with
//!   the length-prefixed checksummed codec in [`crate::wire`].
//!
//! The trait is deliberately the *narrow* slice of MPI the paper's
//! software uses (buffered sends, blocking/bounded receives, barrier,
//! one allreduce) so a backend stays small enough to verify.

use crate::collectives::CollectiveState;
use crate::rank::RecvError;
use crate::stats::{CommStats, WorldStats};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one wait on an inbox lasts before a receive re-checks
/// whether any peer can still send and whether its deadline has passed.
const POLL: Duration = Duration::from_millis(1);

/// Raw message delivery and collectives for one rank.
///
/// Semantics every backend must honor (they are what the clustering
/// protocol's recovery logic is proven against):
///
/// - `send` never blocks and never fails: sending to a finished or dead
///   peer silently discards, like a buffered `MPI_Send` at shutdown;
/// - messages between a fixed `(sender, receiver)` pair arrive in order;
/// - `recv` errors only when no message can ever arrive again, and
///   returns `Ok(None)` once `deadline` passes, measured against the
///   deadline captured by the *caller* — a backend must not extend the
///   episode on its own;
/// - collectives must be entered by every live rank (standard MPI
///   contract).
pub trait Transport<M: Send>: Send {
    /// This rank's id in `0..size`.
    fn rank(&self) -> usize;
    /// World size (the paper's `p`).
    fn size(&self) -> usize;
    /// Deliver `msg` to `to`. Infallible; discards when the peer is gone.
    fn send(&self, to: usize, msg: M);
    /// Receive against an absolute deadline (`None`: wait until a
    /// message arrives or none can). A deadline already past makes this
    /// a non-blocking poll. Every backend runs the crate's one polling
    /// loop over its inbox and supplies only its "no peer can send
    /// again" test.
    fn recv(&self, deadline: Option<Instant>) -> Result<Option<(usize, M)>, RecvError>;
    /// Synchronize all ranks.
    fn barrier(&self);
    /// Element-wise sum across ranks; all ranks receive the result.
    fn allreduce_sum(&self, local: &[u64]) -> Vec<u64>;
    /// Snapshot of this transport's communication counters. For the
    /// in-process backend these are world-global; for the socket
    /// backend each process counts the traffic it can see (the hub,
    /// which routes everything, sees it all).
    fn stats(&self) -> WorldStats;
    /// Called once when an injected crash kills this rank, *before* the
    /// rank stops servicing its inbox. The in-process backend needs no
    /// action (peers detect silence by timeout); the socket backend
    /// severs its connection so peers observe a real transport-level
    /// death (EOF) in addition to silence.
    fn on_crash(&self) {}
}

/// The one receive loop every backend runs over its inbox: wait in
/// [`POLL`] slices until a message arrives, `deadline` passes
/// (`Ok(None)`), or `peers_gone` — the backend's "no peer can send
/// again" test — holds and one last drain finds nothing (`Err`). A
/// peer's final send happens before the backend counts it gone, so
/// that drain cannot miss a message.
pub(crate) fn poll_inbox<M>(
    inbox: &Receiver<(usize, M)>,
    deadline: Option<Instant>,
    peers_gone: impl Fn() -> bool,
) -> Result<Option<(usize, M)>, RecvError> {
    loop {
        let wait = deadline.map_or(POLL, |d| {
            d.saturating_duration_since(Instant::now()).min(POLL)
        });
        match inbox.recv_timeout(wait) {
            Ok(envelope) => return Ok(Some(envelope)),
            Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
            Err(RecvTimeoutError::Timeout) if peers_gone() => {
                return inbox.try_recv().map(Some).map_err(|_| RecvError);
            }
            Err(RecvTimeoutError::Timeout) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(None);
                }
            }
        }
    }
}

/// The in-process backend: one thread per rank, unbounded channels,
/// shared-memory collectives. Behavior (and cost) is identical to the
/// pre-trait runtime — `Rank` compiles to the same send/recv paths.
pub struct ChannelTransport<M: Send> {
    rank: usize,
    size: usize,
    /// `senders[r]` feeds rank `r`'s inbox.
    senders: Vec<Sender<(usize, M)>>,
    inbox: Receiver<(usize, M)>,
    collectives: Arc<CollectiveState>,
    stats: Arc<CommStats>,
}

impl<M: Send> ChannelTransport<M> {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<(usize, M)>>,
        inbox: Receiver<(usize, M)>,
        collectives: Arc<CollectiveState>,
        stats: Arc<CommStats>,
    ) -> Self {
        ChannelTransport {
            rank,
            size,
            senders,
            inbox,
            collectives,
            stats,
        }
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, msg: M) {
        self.stats.record_message();
        // An Err means the receiver's inbox was dropped (rank finished);
        // MPI semantics at shutdown are undefined, we choose "discard".
        let _ = self.senders[to].send((self.rank, msg));
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<Option<(usize, M)>, RecvError> {
        // Only this rank is left once every other closure has returned.
        poll_inbox(&self.inbox, deadline, || self.collectives.alive() <= 1)
    }

    fn barrier(&self) {
        self.collectives.barrier(self.rank);
        if self.rank == 0 {
            self.stats.record_barrier();
        }
    }

    fn allreduce_sum(&self, local: &[u64]) -> Vec<u64> {
        if self.rank == 0 {
            self.stats.record_reduction();
        }
        self.collectives.allreduce_sum(self.rank, local)
    }

    fn stats(&self) -> WorldStats {
        self.stats.snapshot()
    }
}
