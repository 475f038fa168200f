//! Memory-budgeted batch planning.
//!
//! Building every owned subtree at once holds O(N) subtree memory with a
//! hefty constant. Under a `--memory-budget`, the owned buckets are
//! instead split into batches whose *estimated* in-memory subtree
//! footprint fits the budget (the load model is suffix-count ×
//! [`DEFAULT_BYTES_PER_SUFFIX`], the same per-suffix cost the in-memory
//! representation pays: DFS nodes, the suffix arena, and pair-generation
//! lset scratch). The drivers build one batch, drain its pairs and drop
//! it before building the next, so a batch's subtrees exist only while
//! its pairs are generated. The cost is one extra O(N) counting scan per
//! batch; the win is peak subtree memory bounded by the budget instead
//! of the dataset.

use pace_gst::BucketPartition;

/// Node-array bytes per suffix occurrence: a bucket subtree has at most
/// one leaf plus one internal node per suffix, 2 nodes × 8 bytes each
/// (a rightmost pointer plus a depth or an arena boundary). Subtrees are
/// allocated at their final size, and an in-scope subtree is smaller
/// than the full one, so this bounds what a batch holds.
pub const NODE_PREALLOC_BYTES_PER_SUFFIX: u64 = 16;

/// Suffix-arena bytes per occurrence: one 8-byte `SuffixRef` slot.
pub const ARENA_BYTES_PER_SUFFIX: u64 = 8;

/// Pair-generation lset scratch per occurrence: one arena entry of three
/// parallel `u32` columns (string id, offset, next-link) plus slack for
/// the per-node class heads.
pub const LSET_BYTES_PER_SUFFIX: u64 = 16;

/// Estimated in-memory bytes per suffix occurrence of a built subtree —
/// the sum of the component costs above. Kept as an explicit sum so the
/// load model visibly tracks the representation it budgets for; the
/// `plan_never_underestimates_built_batches` test pins the bound.
pub const DEFAULT_BYTES_PER_SUFFIX: u64 =
    NODE_PREALLOC_BYTES_PER_SUFFIX + ARENA_BYTES_PER_SUFFIX + LSET_BYTES_PER_SUFFIX;

/// The batching decision for one rank's buckets under a memory budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Bucket keys per batch, in increasing key order within and across
    /// batches (so concatenating batches reproduces the unbatched
    /// bucket order exactly).
    pub batches: Vec<Vec<u32>>,
    /// Estimated in-memory bytes of each batch under the load model.
    pub est_bytes: Vec<u64>,
    /// Buckets whose *individual* estimate exceeds the budget and were
    /// given a batch of their own (a bucket is the indivisible work
    /// unit; the plan degrades gracefully rather than failing).
    pub oversized_buckets: usize,
}

impl BatchPlan {
    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the plan is empty (rank owns no non-empty buckets).
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Largest estimated batch footprint.
    pub fn peak_est_bytes(&self) -> u64 {
        self.est_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// Split `rank`'s owned buckets into batches whose estimated footprint
/// (suffix count × `bytes_per_suffix`) stays within `budget_bytes`.
///
/// Deterministic and a pure function of the partition — resuming a run
/// recomputes the partition from the checkpointed store and the plan
/// from the partition instead of persisting either. A `budget_bytes` of 0 means
/// "unlimited" and yields a single batch.
pub fn plan_batches(
    partition: &BucketPartition,
    rank: usize,
    budget_bytes: u64,
    bytes_per_suffix: u64,
) -> BatchPlan {
    assert!(bytes_per_suffix > 0, "load model needs a positive constant");
    let buckets = partition.buckets_of(rank);
    if buckets.is_empty() {
        return BatchPlan {
            batches: Vec::new(),
            est_bytes: Vec::new(),
            oversized_buckets: 0,
        };
    }
    if budget_bytes == 0 {
        let est = buckets
            .iter()
            .map(|&b| partition.counts[b as usize] * bytes_per_suffix)
            .sum();
        return BatchPlan {
            batches: vec![buckets],
            est_bytes: vec![est],
            oversized_buckets: 0,
        };
    }

    let mut batches = Vec::new();
    let mut est_bytes = Vec::new();
    let mut cur: Vec<u32> = Vec::new();
    let mut cur_bytes = 0u64;
    let mut oversized = 0usize;
    for b in buckets {
        let cost = partition.counts[b as usize] * bytes_per_suffix;
        if cost > budget_bytes && cur.is_empty() {
            // Indivisible bucket alone already busts the budget: give it
            // its own batch and account for the overshoot honestly.
            oversized += 1;
            batches.push(vec![b]);
            est_bytes.push(cost);
            continue;
        }
        if !cur.is_empty() && cur_bytes + cost > budget_bytes {
            batches.push(std::mem::take(&mut cur));
            est_bytes.push(cur_bytes);
            cur_bytes = 0;
        }
        if cost > budget_bytes {
            oversized += 1;
            batches.push(vec![b]);
            est_bytes.push(cost);
        } else {
            cur.push(b);
            cur_bytes += cost;
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
        est_bytes.push(cur_bytes);
    }
    BatchPlan {
        batches,
        est_bytes,
        oversized_buckets: oversized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_gst::{assign_buckets, count_buckets};
    use pace_seq::SequenceStore;

    fn store() -> SequenceStore {
        SequenceStore::from_ests(&[
            b"ACGTACGAGGTTCCAA".as_slice(),
            b"CCATGGTACGTATTGG",
            b"GATTACAGATTACA",
        ])
        .unwrap()
    }

    fn partition(s: &SequenceStore) -> BucketPartition {
        assign_buckets(&count_buckets(s, 2), 1)
    }

    #[test]
    fn plan_covers_all_buckets_in_order() {
        let s = store();
        let part = partition(&s);
        let all = part.buckets_of(0);
        for budget in [1, 64, 1024, 100_000, 0] {
            let plan = plan_batches(&part, 0, budget, DEFAULT_BYTES_PER_SUFFIX);
            let flat: Vec<u32> = plan.batches.iter().flatten().copied().collect();
            assert_eq!(flat, all, "budget {budget}");
            assert_eq!(plan.est_bytes.len(), plan.batches.len());
        }
    }

    #[test]
    fn batches_respect_budget_except_oversized() {
        let s = store();
        let part = partition(&s);
        let budget = 4 * DEFAULT_BYTES_PER_SUFFIX; // room for ~4 suffixes
        let plan = plan_batches(&part, 0, budget, DEFAULT_BYTES_PER_SUFFIX);
        assert!(plan.len() > 1);
        let mut seen_oversized = 0;
        for (batch, &est) in plan.batches.iter().zip(&plan.est_bytes) {
            if est > budget {
                assert_eq!(batch.len(), 1, "oversized batch must be a single bucket");
                seen_oversized += 1;
            }
        }
        assert_eq!(seen_oversized, plan.oversized_buckets);
    }

    #[test]
    fn unlimited_budget_is_one_batch() {
        let s = store();
        let part = partition(&s);
        let plan = plan_batches(&part, 0, 0, DEFAULT_BYTES_PER_SUFFIX);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.peak_est_bytes(), plan.est_bytes[0]);
    }

    /// The load model must never *under*-estimate: for every planned
    /// batch, the estimate has to cover the actual built footprint —
    /// subtree node/arena capacity plus the lset arena pair generation
    /// will allocate (12 bytes per suffix occurrence). Otherwise a
    /// "within budget" batch could blow the budget once built. The full
    /// forest's subtrees bound the in-scope batches at every ψ.
    #[test]
    fn plan_never_underestimates_built_batches() {
        let s = store();
        let part = partition(&s);
        let full = pace_gst::build_forest_for_rank(&s, &part, 0);
        for budget in [1, 4 * DEFAULT_BYTES_PER_SUFFIX, 1024, 0] {
            let plan = plan_batches(&part, 0, budget, DEFAULT_BYTES_PER_SUFFIX);
            for (batch, &est) in plan.batches.iter().zip(&plan.est_bytes) {
                let trees: Vec<_> = full
                    .subtrees
                    .iter()
                    .filter(|t| batch.contains(&t.bucket))
                    .collect();
                assert_eq!(trees.len(), batch.len());
                let built: u64 = trees.iter().map(|t| t.memory_bytes() as u64).sum();
                let lset: u64 = trees.iter().map(|t| t.num_suffixes() as u64 * 12).sum();
                assert!(
                    est >= built + lset,
                    "budget {budget}: estimated {est} B < built {built} B + lset {lset} B"
                );
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let s = store();
        let part = partition(&s);
        let a = plan_batches(&part, 0, 500, DEFAULT_BYTES_PER_SUFFIX);
        let b = plan_batches(&part, 0, 500, DEFAULT_BYTES_PER_SUFFIX);
        assert_eq!(a, b);
    }
}
