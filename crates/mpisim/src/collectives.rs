//! Barrier and reduction collectives.
//!
//! Every collective must be called by *all* ranks of the world (standard
//! MPI contract). Internally a cyclic [`std::sync::Barrier`] sequences the
//! phases; the accumulate buffer is reset by the barrier leader after the
//! final phase, before any rank can enter the next collective.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

pub(crate) struct CollectiveState {
    barrier: Barrier,
    sum_buf: Mutex<Vec<u64>>,
    /// Ranks whose closure has not yet returned. Lets a blocked `recv`
    /// detect that no peer can ever send again (the channel alone cannot
    /// disconnect, because every rank holds a sender to its own inbox
    /// for self-sends).
    alive: AtomicUsize,
}

impl CollectiveState {
    pub(crate) fn new(size: usize) -> Self {
        CollectiveState {
            barrier: Barrier::new(size),
            sum_buf: Mutex::new(Vec::new()),
            alive: AtomicUsize::new(size),
        }
    }

    /// Called by the world once a rank's closure has returned (and its
    /// Rank handle — including all its senders — has been dropped).
    pub(crate) fn rank_done(&self) {
        self.alive.fetch_sub(1, Ordering::SeqCst);
    }

    /// Ranks still running.
    pub(crate) fn alive(&self) -> usize {
        self.alive.load(Ordering::SeqCst)
    }

    pub(crate) fn barrier(&self, _rank: usize) {
        self.barrier.wait();
    }

    pub(crate) fn allreduce_sum(&self, _rank: usize, local: &[u64]) -> Vec<u64> {
        // Phase 1: make sure the buffer from any previous collective has
        // been reset before anyone contributes.
        self.barrier.wait();
        {
            let mut buf = self.sum_buf.lock();
            if buf.is_empty() {
                buf.resize(local.len(), 0);
            }
            assert_eq!(
                buf.len(),
                local.len(),
                "allreduce_sum called with mismatched lengths across ranks"
            );
            for (acc, &x) in buf.iter_mut().zip(local) {
                *acc = acc.checked_add(x).expect("allreduce_sum overflow");
            }
        }
        // Phase 2: all contributions are in; read the total.
        self.barrier.wait();
        let result = self.sum_buf.lock().clone();
        // Phase 3: everyone has a copy; the leader resets for the next call.
        if self.barrier.wait().is_leader() {
            self.sum_buf.lock().clear();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use crate::run_world;

    #[test]
    fn allreduce_sum_sums_elementwise() {
        let out = run_world(4, |rank: crate::Rank<()>| {
            let local = vec![rank.rank() as u64, 1, 10 * rank.rank() as u64];
            rank.allreduce_sum(&local)
        });
        for r in &out {
            assert_eq!(r, &vec![6, 4, 60]);
        }
        // All ranks see the identical result (allreduce, not reduce).
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn consecutive_reductions_do_not_bleed() {
        let out = run_world(3, |rank: crate::Rank<()>| {
            let a = rank.allreduce_sum(&[1]);
            let b = rank.allreduce_sum(&[10]);
            let c = rank.allreduce_sum(&[rank.rank() as u64]);
            (a[0], b[0], c[0])
        });
        for r in out {
            assert_eq!(r, (3, 30, 3));
        }
    }

    #[test]
    fn allreduce_on_empty_slice() {
        let out = run_world(2, |rank: crate::Rank<()>| rank.allreduce_sum(&[]));
        assert!(out[0].is_empty() && out[1].is_empty());
    }

    #[test]
    fn single_rank_world_collectives() {
        let out = run_world(1, |rank: crate::Rank<()>| {
            rank.barrier();
            rank.allreduce_sum(&[5, 6])
        });
        assert_eq!(out[0], vec![5, 6]);
    }

    #[test]
    fn barrier_orders_phases() {
        // Without the barrier, rank 1 could observe `flag` unset. With it,
        // the write happens-before the read on every run.
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = AtomicBool::new(false);
        let out = run_world(2, |rank: crate::Rank<()>| {
            if rank.rank() == 0 {
                flag.store(true, Ordering::SeqCst);
                rank.barrier();
                true
            } else {
                rank.barrier();
                flag.load(Ordering::SeqCst)
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn many_repeated_collectives_stress() {
        let out = run_world(4, |rank: crate::Rank<()>| {
            let mut acc = 0u64;
            for i in 0..200 {
                acc += rank.allreduce_sum(&[i])[0];
            }
            acc
        });
        let expected: u64 = (0..200u64).map(|i| i * 4).sum();
        assert!(out.iter().all(|&v| v == expected));
    }
}
