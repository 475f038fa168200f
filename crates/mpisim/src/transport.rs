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
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw message delivery and collectives for one rank.
///
/// Semantics every backend must honor (they are what the clustering
/// protocol's recovery logic is proven against):
///
/// - `send` never blocks and never fails: sending to a finished or dead
///   peer silently discards, like a buffered `MPI_Send` at shutdown;
/// - messages between a fixed `(sender, receiver)` pair arrive in order;
/// - `recv` errors only when no message can ever arrive again;
/// - `recv_deadline` returns `Ok(None)` on timeout, measured against
///   the deadline captured by the *caller* — a backend must not extend
///   the episode on its own;
/// - collectives must be entered by every live rank (standard MPI
///   contract).
pub trait Transport<M: Send>: Send {
    /// This rank's id in `0..size`.
    fn rank(&self) -> usize;
    /// World size (the paper's `p`).
    fn size(&self) -> usize;
    /// Deliver `msg` to `to`. Infallible; discards when the peer is gone.
    fn send(&self, to: usize, msg: M);
    /// Block until a message arrives or no message can ever arrive.
    fn recv(&self) -> Result<(usize, M), RecvError>;
    /// Non-blocking receive.
    fn try_recv(&self) -> Result<Option<(usize, M)>, RecvError>;
    /// Bounded-wait receive against an absolute deadline.
    fn recv_deadline(&self, deadline: Instant) -> Result<Option<(usize, M)>, RecvError>;
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

    fn recv(&self) -> Result<(usize, M), RecvError> {
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok(envelope) => return Ok(envelope),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
                Err(RecvTimeoutError::Timeout) => {
                    if self.collectives.alive() <= 1 {
                        // Only this rank is left. A peer's final send
                        // happens-before its `rank_done`, so one last
                        // drain cannot miss anything.
                        return match self.inbox.try_recv() {
                            Ok(envelope) => Ok(envelope),
                            Err(_) => Err(RecvError),
                        };
                    }
                }
            }
        }
    }

    fn try_recv(&self) -> Result<Option<(usize, M)>, RecvError> {
        match self.inbox.try_recv() {
            Ok(envelope) => Ok(Some(envelope)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RecvError),
        }
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Option<(usize, M)>, RecvError> {
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok(envelope) => return Ok(Some(envelope)),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
                Err(RecvTimeoutError::Timeout) => {
                    if self.collectives.alive() <= 1 {
                        return match self.inbox.try_recv() {
                            Ok(envelope) => Ok(Some(envelope)),
                            Err(_) => Err(RecvError),
                        };
                    }
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
            }
        }
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
