//! The per-rank communicator handle.

use crate::fault::{FaultPlan, FaultSnapshot, Injected, InjectedKind, RankFaults, SendFate};
use crate::transport::Transport;
use pace_obs::trace::{T_FAULT_CRASH, T_FAULT_DELAY, T_FAULT_DROP, T_RECV_WAIT, T_SEND, T_STALL};
use pace_obs::Obs;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Error returned by [`Rank::recv`] when no message can ever arrive
/// (every other rank has finished and dropped its senders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all peer ranks have terminated; no message can arrive")
    }
}

impl std::error::Error for RecvError {}

/// A rank's endpoint into the world: identity, point-to-point messaging,
/// and collectives. Mirrors the slice of MPI the paper's software uses.
///
/// `Rank` owns everything the protocol can observe — fault injection,
/// trace spans, crash semantics — and delegates raw delivery to a
/// [`Transport`] backend. Fault plans therefore behave identically over
/// in-process channels and Unix sockets: the per-channel transport
/// sequence numbers that key a [`FaultPlan`] are counted here, above
/// the backend.
pub struct Rank<M: Send + 'static> {
    transport: Box<dyn Transport<M> + Send>,
    /// Injection state, with this rank's own fault counters, when the
    /// world runs under a non-empty [`FaultPlan`]; `None` on the default
    /// path. A rank handle lives on exactly one thread, so a `RefCell`
    /// suffices.
    faults: Option<RefCell<RankFaults<M>>>,
    /// Shared observability handle. [`crate::run_world`] and
    /// [`crate::run_world_with_faults`] pass a noop; only
    /// [`crate::run_world_obs`] threads a live one through, so the
    /// default paths keep their original cost.
    obs: Obs,
}

impl<M: Send + 'static> Rank<M> {
    /// Wrap a transport backend in a full rank handle, compiling `plan`
    /// for the backend's rank. Every rank is built this way, thread or
    /// process: each compiles the same plan independently (the plan is
    /// pure data), so injection decisions line up across processes
    /// exactly as they do across threads.
    pub fn over(transport: Box<dyn Transport<M> + Send>, plan: &FaultPlan, obs: Obs) -> Self {
        let faults = plan.compile_for(transport.rank(), transport.size());
        Rank {
            transport,
            faults: faults.map(RefCell::new),
            obs,
        }
    }

    /// Whether an injected crash has killed this rank. A crashed rank's
    /// sends are discarded and its receives error out.
    pub fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.borrow().crashed())
    }

    /// Run one scheduled stall, if this rank has any left; records it as
    /// a trace span when a tracer is attached.
    fn maybe_stall(&self) {
        if let Some(f) = &self.faults {
            let t0_us = self.obs.trace_enabled().then(|| self.obs.now_us());
            if let Some(millis) = f.borrow_mut().maybe_stall() {
                self.obs.trace_with(|tracer| {
                    let t0 = t0_us.unwrap_or(0);
                    tracer.span(
                        self.rank(),
                        T_STALL,
                        t0,
                        self.obs.now_us().saturating_sub(t0),
                        0,
                        millis,
                    );
                });
            }
        }
    }

    /// Record one injected send-side fault as a trace instant,
    /// attributed to this rank's channel (`arg` = destination rank) and
    /// transport sequence number (`id`).
    fn note_injected(&self, injected: Injected) {
        let name = match injected.kind {
            InjectedKind::Drop | InjectedKind::CrashDrop => T_FAULT_DROP,
            InjectedKind::Delay => T_FAULT_DELAY,
            InjectedKind::Crash => T_FAULT_CRASH,
        };
        self.obs.trace_with(|tracer| {
            tracer.instant(
                self.rank(),
                name,
                self.obs.now_us(),
                injected.seq,
                injected.to as u64,
            );
        });
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the world (the paper's `p`).
    #[inline]
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Send `msg` to rank `to`. Asynchronous and unbounded, like a buffered
    /// `MPI_Send`; never blocks. Messages from a given sender to a given
    /// receiver arrive in order. Sending to a rank that has already
    /// finished silently discards the message.
    pub fn send(&self, to: usize, msg: M) {
        assert!(
            to < self.size(),
            "rank {to} out of range (size {})",
            self.size()
        );
        self.obs.trace_with(|tracer| {
            tracer.instant(self.rank(), T_SEND, self.obs.now_us(), 0, to as u64);
        });
        match &self.faults {
            None => self.transport.send(to, msg),
            Some(f) => {
                let fate = f.borrow_mut().on_send(to, msg);
                match fate {
                    SendFate::Deliver(m, matured) => {
                        self.transport.send(to, m);
                        for m in matured {
                            self.transport.send(to, m);
                        }
                    }
                    SendFate::Swallowed(matured, injected) => {
                        let crashed_now = injected.kind == InjectedKind::Crash;
                        self.note_injected(injected);
                        for m in matured {
                            self.transport.send(to, m);
                        }
                        if crashed_now {
                            // Let the backend make the death real (the
                            // socket transport severs its connection so
                            // peers observe EOF, like a killed process).
                            self.transport.on_crash();
                        }
                    }
                }
            }
        }
    }

    /// Block until a message arrives; returns `(source_rank, message)`.
    ///
    /// Errors once no message can ever arrive — every other rank has
    /// terminated — the deadlock-free analogue of a hung `MPI_Recv`.
    pub fn recv(&self) -> Result<(usize, M), RecvError> {
        let got = self.wait(None)?;
        Ok(got.expect("a receive without a deadline never times out"))
    }

    /// Non-blocking receive: `Ok(Some(..))` when a message was waiting,
    /// `Ok(None)` when the inbox is currently empty, `Err` on termination.
    ///
    /// This is the primitive the slave loop uses to *generate pairs while
    /// waiting* for the master's next batch.
    pub fn try_recv(&self) -> Result<Option<(usize, M)>, RecvError> {
        if self.crashed() {
            return Err(RecvError);
        }
        self.transport.recv(Some(Instant::now()))
    }

    /// Bounded-wait receive: `Ok(Some(..))` when a message arrived within
    /// `timeout`, `Ok(None)` on timeout, `Err` once no message can ever
    /// arrive (same termination rule as [`Rank::recv`]).
    ///
    /// This is the primitive a recovering master uses: it must wake up on
    /// its own to notice a silent slave, which a plain blocking `recv`
    /// can never do.
    ///
    /// The deadline is captured on entry, *before* any injected stall
    /// runs, so one call never waits longer than `timeout` plus the
    /// stall itself — an episode of `max_retries` polls is bounded by
    /// `max_retries * timeout` regardless of injected timing faults.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, M)>, RecvError> {
        self.wait(Some(Instant::now() + timeout))
    }

    /// The blocking receives: run one scheduled stall, then wait on the
    /// transport until `deadline`, recording the wait as a `recv_wait`
    /// span (an *idle* span: the analyzer excludes it from busy time).
    fn wait(&self, deadline: Option<Instant>) -> Result<Option<(usize, M)>, RecvError> {
        if self.crashed() {
            return Err(RecvError);
        }
        self.maybe_stall();
        let t0_us = self.obs.trace_enabled().then(|| self.obs.now_us());
        let out = self.transport.recv(deadline);
        if let Some(t0) = t0_us {
            self.obs.trace_with(|tracer| {
                tracer.span(
                    self.rank(),
                    T_RECV_WAIT,
                    t0,
                    self.obs.now_us().saturating_sub(t0),
                    0,
                    0,
                );
            });
        }
        out
    }

    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&self) {
        self.maybe_stall();
        self.transport.barrier();
    }

    /// Element-wise sum of `local` across every rank; all ranks receive the
    /// full result (`MPI_Allreduce` with `MPI_SUM`). All ranks must pass
    /// slices of identical length. This is the "parallel summation
    /// algorithm" the paper uses to count bucket sizes globally.
    pub fn allreduce_sum(&self, local: &[u64]) -> Vec<u64> {
        self.maybe_stall();
        self.transport.allreduce_sum(local)
    }

    /// Snapshot of the communication statistics this rank's transport
    /// can see (world-wide for the in-process backend; for the socket
    /// backend the hub sees all routed traffic).
    pub fn stats(&self) -> crate::stats::WorldStats {
        self.transport.stats()
    }

    /// This rank's own injected-fault counters (all zero when the world
    /// runs without a [`FaultPlan`]). A world's totals are the sum over
    /// its ranks; a worker ships its counts home in its end-of-run
    /// summary.
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.faults
            .as_ref()
            .map_or_else(FaultSnapshot::default, |f| f.borrow().counts())
    }
}

impl<M: Send + 'static> Drop for Rank<M> {
    /// Flush delayed messages a finishing sender still holds — delay
    /// must reorder, never lose. Runs before the world's done-guard
    /// decrements the alive count (the closure drops its `Rank` first),
    /// so a peer's final drain observes these messages.
    fn drop(&mut self) {
        if let Some(f) = &self.faults {
            for (to, msg) in f.borrow_mut().drain_all() {
                self.transport.send(to, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_world, run_world_with_faults, FaultPlan, Rank};
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_roundtrip() {
        let out = run_world(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 42u32);
                0
            } else {
                let (from, v) = rank.recv().unwrap();
                assert_eq!(from, 0);
                v
            }
        });
        assert_eq!(out, vec![0, 42]);
    }

    #[test]
    fn messages_from_one_sender_arrive_in_order() {
        let out = run_world(2, |rank| {
            if rank.rank() == 0 {
                for i in 0..100u32 {
                    rank.send(1, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| rank.recv().unwrap().1).collect()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn try_recv_reports_empty_then_message() {
        let out = run_world(2, |rank| {
            if rank.rank() == 0 {
                rank.barrier(); // let rank 1 observe the empty inbox first
                rank.send(1, 7u8);
                true
            } else {
                let empty = matches!(rank.try_recv(), Ok(None));
                rank.barrier();
                let (_, v) = rank.recv().unwrap();
                empty && v == 7
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn recv_errors_after_all_peers_exit() {
        let out = run_world(3, |rank: crate::Rank<u8>| {
            if rank.rank() == 2 {
                // Ranks 0 and 1 exit immediately; recv must not hang.
                rank.recv().is_err()
            } else {
                true
            }
        });
        assert!(out[2]);
    }

    #[test]
    fn self_send_is_delivered() {
        let out = run_world(1, |rank| {
            rank.send(0, 99u8);
            rank.recv().unwrap().1
        });
        assert_eq!(out, vec![99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        run_world(2, |rank| {
            if rank.rank() == 0 {
                rank.send(5, 0u8);
            }
        });
    }

    #[test]
    fn stats_count_messages() {
        let out = run_world(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1u8);
                rank.send(1, 2u8);
            } else {
                rank.recv().unwrap();
                rank.recv().unwrap();
            }
            rank.barrier();
            rank.stats()
        });
        assert_eq!(out[0].messages, 2);
        assert_eq!(out[0].barriers, 1);
    }

    /// Pins the per-episode deadline rule: an injected stall consumes
    /// the caller's timeout budget instead of extending it. With a
    /// 300 ms stall and a 400 ms timeout, the call must return around
    /// the 400 ms mark — the old per-retry accounting (deadline taken
    /// *after* the stall) would wait ~700 ms.
    #[test]
    fn recv_timeout_deadline_includes_injected_stalls() {
        let plan = FaultPlan::none().stall(1, 300, 1);
        let out = run_world_with_faults(2, &plan, |rank: Rank<u8>| {
            if rank.rank() == 1 {
                let t0 = Instant::now();
                let got = rank.recv_timeout(Duration::from_millis(400)).unwrap();
                assert!(got.is_none(), "nothing was sent");
                Some(t0.elapsed())
            } else {
                // Keep the world alive past rank 1's deadline so the
                // timeout path (not peer-termination) is what returns.
                std::thread::sleep(Duration::from_millis(500));
                None
            }
        });
        let elapsed = out[1].unwrap();
        assert!(
            elapsed < Duration::from_millis(600),
            "stall extended the episode: recv_timeout(400ms) took {elapsed:?}"
        );
        assert!(
            elapsed >= Duration::from_millis(300),
            "stall must still have run: {elapsed:?}"
        );
    }
}
