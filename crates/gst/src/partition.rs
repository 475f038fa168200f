//! Load-balanced assignment of buckets to processors.
//!
//! After counting how many suffixes fall in each of the `4^w` buckets
//! (a parallel summation across ranks in the paper, `O(log p)`
//! communication), the buckets are distributed such that (1) all suffixes
//! of a bucket go to the same processor and (2) each processor receives as
//! close to `N·2/p` suffixes as possible. We use the classic
//! longest-processing-time greedy rule: sort buckets by size descending,
//! repeatedly give the largest remaining bucket to the least-loaded
//! processor — within 4/3 of optimal makespan, deterministic, and cheap.

use crate::bucket::{for_each_suffix, num_buckets};
use pace_seq::SequenceStore;

/// The global bucket → processor assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketPartition {
    /// Window size used for bucketing.
    pub w: usize,
    /// Number of processors.
    pub num_ranks: usize,
    /// `owner[b]` is the rank that owns bucket `b` (buckets with zero
    /// suffixes are still assigned, but carry no work).
    pub owner: Vec<u16>,
    /// Global suffix count per bucket.
    pub counts: Vec<u64>,
}

impl BucketPartition {
    /// Total suffixes each rank will receive.
    pub fn load_per_rank(&self) -> Vec<u64> {
        let mut load = vec![0u64; self.num_ranks];
        for (b, &o) in self.owner.iter().enumerate() {
            load[o as usize] += self.counts[b];
        }
        load
    }

    /// The bucket keys owned by `rank`, in increasing key order.
    pub fn buckets_of(&self, rank: usize) -> Vec<u32> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(b, &o)| o as usize == rank && self.counts[b] > 0)
            .map(|(b, _)| b as u32)
            .collect()
    }

    /// Ratio of maximum to average rank load (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let load = self.load_per_rank();
        let max = *load.iter().max().unwrap_or(&0) as f64;
        let total: u64 = load.iter().sum();
        if total == 0 {
            1.0
        } else {
            max * self.num_ranks as f64 / total as f64
        }
    }
}

/// Count suffixes per bucket over all strings of `store`.
///
/// In the distributed setting each rank counts its local share and the
/// results are combined with `Rank::allreduce_sum`; this helper is the
/// single-node equivalent and the per-rank building block.
pub fn count_buckets(store: &SequenceStore, w: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_buckets(w)];
    for_each_suffix(store, w, |bucket, _| counts[bucket as usize] += 1);
    counts
}

/// Count suffixes per bucket over this rank's share of the input: the
/// ESTs whose index is ≡ `rank` (mod `num_ranks`). Summing the results of
/// all ranks (e.g. with `allreduce_sum`) yields [`count_buckets`] — this
/// is the per-rank counting step of the paper's parallel partitioning.
pub fn count_buckets_stride(
    store: &SequenceStore,
    w: usize,
    rank: usize,
    num_ranks: usize,
) -> Vec<u64> {
    assert!(rank < num_ranks, "rank {rank} out of {num_ranks}");
    let mut counts = vec![0u64; num_buckets(w)];
    for_each_suffix(store, w, |bucket, suf| {
        let est = (suf.sid / 2) as usize;
        if est % num_ranks == rank {
            counts[bucket as usize] += 1;
        }
    });
    counts
}

/// Assign buckets to `num_ranks` processors with the LPT greedy rule.
/// One rank owns every bucket, so it gets the all-zero owner table
/// without the sort.
pub fn assign_buckets(counts: &[u64], num_ranks: usize) -> BucketPartition {
    assert!(num_ranks > 0 && num_ranks <= u16::MAX as usize);
    let w = (counts.len().trailing_zeros() / 2) as usize;
    assert_eq!(num_buckets(w), counts.len(), "counts length is not 4^w");
    let mut owner = vec![0u16; counts.len()];
    if num_ranks == 1 {
        // One rank owns every bucket: there is no load to balance.
        return BucketPartition {
            w,
            num_ranks,
            owner,
            counts: counts.to_vec(),
        };
    }

    // Sort non-empty buckets by size descending (stable by key for
    // determinism across runs).
    let mut order: Vec<u32> = (0..counts.len() as u32)
        .filter(|&b| counts[b as usize] > 0)
        .collect();
    order.sort_by_key(|&b| (std::cmp::Reverse(counts[b as usize]), b));

    // Binary-heap-free min-load tracking: ranks are few, scan is fine and
    // deterministic.
    let mut load = vec![0u64; num_ranks];
    for b in order {
        let (rank, _) = load
            .iter()
            .enumerate()
            .min_by_key(|&(r, &l)| (l, r))
            .expect("num_ranks > 0");
        owner[b as usize] = rank as u16;
        load[rank] += counts[b as usize];
    }

    BucketPartition {
        w,
        num_ranks,
        owner,
        counts: counts.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    #[test]
    fn counts_match_manual_enumeration() {
        let s = store(&[b"ACGT"]);
        let counts = count_buckets(&s, 2);
        // Forward ACGT suffixes: AC, CG, GT; reverse is also ACGT.
        let key = |p: &[u8]| crate::bucket::bucket_key(p, 2).unwrap() as usize;
        assert_eq!(counts[key(b"AC")], 2);
        assert_eq!(counts[key(b"CG")], 2);
        assert_eq!(counts[key(b"GT")], 2);
        assert_eq!(counts.iter().sum::<u64>(), 6);
    }

    #[test]
    fn assignment_covers_all_buckets_once() {
        let s = store(&[b"ACGTACGTGGCA", b"TTGACCAGT"]);
        let counts = count_buckets(&s, 2);
        let part = assign_buckets(&counts, 3);
        assert_eq!(part.num_ranks, 3);
        // Every non-empty bucket appears in exactly one rank's list.
        let mut all: Vec<u32> = (0..3).flat_map(|r| part.buckets_of(r)).collect();
        all.sort_unstable();
        let nonempty: Vec<u32> = (0..counts.len() as u32)
            .filter(|&b| counts[b as usize] > 0)
            .collect();
        assert_eq!(all, nonempty);
    }

    #[test]
    fn loads_sum_to_total() {
        let s = store(&[b"ACGTACGTGGCAATT", b"TTGACCAGTAAC"]);
        let counts = count_buckets(&s, 2);
        let total: u64 = counts.iter().sum();
        for p in [1, 2, 4, 7] {
            let part = assign_buckets(&counts, p);
            assert_eq!(part.load_per_rank().iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn single_rank_gets_everything() {
        let s = store(&[b"GATTACA"]);
        let counts = count_buckets(&s, 1);
        let part = assign_buckets(&counts, 1);
        assert_eq!(part.load_per_rank(), vec![counts.iter().sum::<u64>()]);
        assert!((part.imbalance() - 1.0).abs() < 1e-12);
        assert!(part.owner.iter().all(|&o| o == 0));
        let nonempty: Vec<u32> = (0..counts.len() as u32)
            .filter(|&b| counts[b as usize] > 0)
            .collect();
        assert_eq!(part.buckets_of(0), nonempty);
    }

    #[test]
    fn lpt_balances_skewed_buckets() {
        // One huge bucket and many small ones: LPT puts the huge bucket
        // alone and spreads the rest.
        let mut counts = vec![0u64; num_buckets(2)];
        counts[0] = 1000;
        counts[1..=10].fill(100);
        let part = assign_buckets(&counts, 2);
        let load = part.load_per_rank();
        assert_eq!(load.iter().sum::<u64>(), 2000);
        assert_eq!(*load.iter().max().unwrap(), 1000);
        assert!(part.imbalance() <= 1.01);
    }

    #[test]
    fn deterministic_assignment() {
        let s = store(&[b"ACGTACGAGGTTCCAA", b"CCATGGTACGTATTGG"]);
        let counts = count_buckets(&s, 3);
        let a = assign_buckets(&counts, 4);
        let b = assign_buckets(&counts, 4);
        assert_eq!(a, b);
    }

    proptest! {
        /// The makespan bound of LPT: max load ≤ total/p + largest bucket.
        #[test]
        fn lpt_makespan_bound(
            sizes in proptest::collection::vec(0u64..500, 16),
            p in 1usize..6,
        ) {
            let mut counts = vec![0u64; num_buckets(2)];
            counts[..16].copy_from_slice(&sizes);
            let part = assign_buckets(&counts, p);
            let load = part.load_per_rank();
            let total: u64 = sizes.iter().sum();
            let largest = *sizes.iter().max().unwrap();
            let max = *load.iter().max().unwrap();
            prop_assert!(max <= total / p as u64 + largest);
        }
    }
}
