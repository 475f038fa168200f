//! World construction: spawn one thread per rank and run a closure on each.

use crate::collectives::CollectiveState;
use crate::fault::FaultPlan;
use crate::rank::Rank;
use crate::stats::CommStats;
use crate::transport::ChannelTransport;
use crossbeam::channel::unbounded;
use std::sync::Arc;

/// Run `f` on `p` ranks (threads) and collect each rank's return value,
/// indexed by rank. Blocks until every rank finishes.
///
/// The closure receives an owned [`Rank`] handle providing point-to-point
/// messaging and collectives. A panic on any rank propagates after all
/// threads are joined (via the scope), so tests fail loudly instead of
/// deadlocking.
pub fn run_world<M, R, F>(p: usize, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Rank<M>) -> R + Sync,
{
    run_world_with_faults(p, &FaultPlan::none(), f)
}

/// [`run_world`] under a deterministic [`FaultPlan`]. An empty plan adds
/// no per-rank state and leaves every messaging path byte-identical to
/// the plain world.
pub fn run_world_with_faults<M, R, F>(p: usize, plan: &FaultPlan, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Rank<M>) -> R + Sync,
{
    run_world_obs(p, plan, &pace_obs::Obs::noop(), f)
}

/// [`run_world_with_faults`] with a shared observability handle: every
/// rank's send/recv/stall activity is recorded through `obs` (trace
/// spans and fault instants when a tracer is attached; nothing extra
/// when `obs` is a noop).
pub fn run_world_obs<M, R, F>(p: usize, plan: &FaultPlan, obs: &pace_obs::Obs, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Rank<M>) -> R + Sync,
{
    assert!(p > 0, "world size must be at least 1");
    let stats = Arc::new(CommStats::new());
    let collectives = Arc::new(CollectiveState::new(p));

    let mut senders = Vec::with_capacity(p);
    let mut inboxes = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded();
        senders.push(tx);
        inboxes.push(rx);
    }

    let mut ranks: Vec<Rank<M>> = inboxes
        .into_iter()
        .enumerate()
        .map(|(id, inbox)| {
            let transport = ChannelTransport::new(
                id,
                p,
                senders.clone(),
                inbox,
                Arc::clone(&collectives),
                Arc::clone(&stats),
            );
            Rank::over(Box::new(transport), plan, obs.clone())
        })
        .collect();
    // Drop the original senders so that once every rank finishes, all
    // channel endpoints are gone and a lingering `recv` errors out instead
    // of hanging forever.
    drop(senders);

    /// Decrements the alive count even when the rank's closure panics, so
    /// peers blocked in `recv` wake up instead of deadlocking the scope.
    struct DoneGuard(Arc<CollectiveState>);
    impl Drop for DoneGuard {
        fn drop(&mut self) {
            self.0.rank_done();
        }
    }

    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranks
            .drain(..)
            .map(|rank| {
                let guard = DoneGuard(Arc::clone(&collectives));
                scope.spawn(move || {
                    let _guard = guard;
                    f(rank) // `rank` (and its senders) dropped before _guard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise a rank's panic with its original payload so
                // tests and callers see the real message.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_rank() {
        let out: Vec<usize> = run_world(6, |rank: Rank<()>| rank.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn size_is_visible_to_all_ranks() {
        let out = run_world(3, |rank: Rank<()>| rank.size());
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "world size")]
    fn zero_ranks_rejected() {
        run_world(0, |_rank: Rank<()>| ());
    }

    #[test]
    fn ring_pass_around() {
        // Each rank sends to its successor; total hops == p.
        let p = 5;
        let out = run_world(p, |rank| {
            let next = (rank.rank() + 1) % p;
            rank.send(next, rank.rank() as u64);
            let (_, v) = rank.recv().unwrap();
            v
        });
        // Rank r receives from its predecessor.
        for (r, &v) in out.iter().enumerate() {
            assert_eq!(v, ((r + p - 1) % p) as u64);
        }
    }

    #[test]
    fn two_level_scatter_gather() {
        // A two-tier topology: rank 0 is the root, ranks 1..=k are
        // mid-tier coordinators, the rest are leaves that report to
        // *every* coordinator. Each coordinator folds its leaves'
        // values and forwards one total to the root; the root's grand
        // total must see every leaf contribution exactly once per
        // coordinator, proving point-to-point delivery holds across
        // both tiers at once.
        let (k, leaves) = (3usize, 4usize);
        let p = 1 + k + leaves;
        let out = run_world(p, |rank| {
            let r = rank.rank();
            if r == 0 {
                (0..k).map(|_| rank.recv().unwrap().1).sum::<u64>()
            } else if r <= k {
                let total: u64 = (0..leaves).map(|_| rank.recv().unwrap().1).sum();
                rank.send(0, total);
                0
            } else {
                let leaf = (r - k - 1) as u64;
                for mid in 1..=k {
                    rank.send(mid, 1 << leaf);
                }
                0
            }
        });
        let per_coordinator: u64 = (0..leaves as u64).map(|l| 1 << l).sum();
        assert_eq!(out[0], per_coordinator * k as u64);
    }

    #[test]
    fn master_slave_scatter_gather() {
        // The communication skeleton of the clustering engine in miniature:
        // master scatters work, slaves square it and send it back.
        let p = 4;
        let out = run_world(p, |rank| {
            if rank.rank() == 0 {
                for slave in 1..p {
                    rank.send(slave, slave as u64);
                }
                let mut total = 0;
                for _ in 1..p {
                    total += rank.recv().unwrap().1;
                }
                total
            } else {
                let (_, w) = rank.recv().unwrap();
                rank.send(0, w * w);
                0
            }
        });
        assert_eq!(out[0], 1 + 4 + 9);
    }
}
