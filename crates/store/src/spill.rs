//! Memory-budgeted batch planning and subtree spilling.
//!
//! The GST construction phase normally holds every owned subtree in
//! memory at once — O(N) space with a hefty constant. Under a
//! `--memory-budget`, the owned buckets are instead split into batches
//! whose *estimated* in-memory subtree footprint fits the budget (the
//! load model is suffix-count × [`DEFAULT_BYTES_PER_SUFFIX`], the same
//! per-suffix cost the in-memory representation pays: DFS nodes, the
//! suffix arena, and pair-generation lset scratch). Each batch is
//! built, spilled to disk as a checksummed snapshot, and dropped; pair
//! generation later streams the batches back one at a time. The cost is
//! one extra O(N) counting scan per batch; the win is peak subtree
//! memory bounded by the budget instead of the dataset.

use crate::codec::{decode_subtrees, encode_subtrees};
use crate::error::SnapshotError;
use crate::snapshot::{Snapshot, SnapshotWriter};
use pace_gst::{BucketPartition, Subtree};
use std::path::{Path, PathBuf};

/// Node-array bytes per suffix occurrence: a bucket subtree has at most
/// one leaf plus one internal node per suffix, 2 nodes × 16 bytes each.
/// Subtrees are allocated at their final size, and an in-scope subtree
/// is smaller than the full one, so this bounds what a batch holds.
pub const NODE_PREALLOC_BYTES_PER_SUFFIX: u64 = 32;

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
/// recomputes the identical plan from the checkpointed partition
/// instead of persisting the plan itself. A `budget_bytes` of 0 means
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

/// I/O counters the spill layer accumulates; the driver publishes them
/// as the `io.*` metric family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Spill files written.
    pub spill_files: u64,
    /// Bytes read back from spill files.
    pub read_back_bytes: u64,
    /// Spill files read back.
    pub read_back_files: u64,
}

/// Writes and reads per-batch subtree snapshots in a spill directory.
///
/// Files are named `batch-NNNNN.spill`; each is a one-section snapshot,
/// so spilled batches inherit the format's checksums and its atomic
/// write-to-temp + rename publication (a crash mid-spill leaves only a
/// `*.tmp` which readers never look at).
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    stats: IoStats,
}

impl SpillManager {
    /// Open (creating if needed) a spill directory.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(SpillManager {
            dir,
            stats: IoStats::default(),
        })
    }

    /// The on-disk path of batch `index`.
    pub fn batch_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("batch-{index:05}.spill"))
    }

    /// Whether batch `index` has been spilled (and published).
    pub fn has_batch(&self, index: usize) -> bool {
        self.batch_path(index).exists()
    }

    /// Spill one built batch; returns the bytes written.
    pub fn spill_batch(&mut self, index: usize, trees: &[Subtree]) -> Result<u64, SnapshotError> {
        let mut w = SnapshotWriter::create(self.batch_path(index))?;
        w.add_section("subtrees", &encode_subtrees(trees))?;
        let bytes = w.finish()?;
        self.stats.spill_bytes += bytes;
        self.stats.spill_files += 1;
        Ok(bytes)
    }

    /// Stream one spilled batch back into memory.
    pub fn read_batch(&mut self, index: usize) -> Result<Vec<Subtree>, SnapshotError> {
        let path = self.batch_path(index);
        let snap = Snapshot::read_file(&path)?;
        let trees = decode_subtrees(snap.section("subtrees")?)?;
        self.stats.read_back_bytes += std::fs::metadata(&path)?.len();
        self.stats.read_back_files += 1;
        Ok(trees)
    }

    /// Delete all spill files of this run (terminal cleanup).
    pub fn remove_all(&mut self) -> Result<(), SnapshotError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("batch-") && name.ends_with(".spill") {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Accumulated I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_gst::{assign_buckets, build_sequential, count_buckets};
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

    #[test]
    fn spill_and_read_back_roundtrip() {
        let s = store();
        let forest = build_sequential(&s, 2);
        let dir = std::env::temp_dir().join(format!("pace-spill-test-{}", std::process::id()));
        let mut mgr = SpillManager::new(&dir).unwrap();

        let mid = forest.subtrees.len() / 2;
        mgr.spill_batch(0, &forest.subtrees[..mid]).unwrap();
        mgr.spill_batch(1, &forest.subtrees[mid..]).unwrap();
        assert!(mgr.has_batch(0) && mgr.has_batch(1) && !mgr.has_batch(2));

        let mut back = mgr.read_batch(0).unwrap();
        back.extend(mgr.read_batch(1).unwrap());
        assert_eq!(back, forest.subtrees);

        let io = mgr.stats();
        assert_eq!(io.spill_files, 2);
        assert_eq!(io.read_back_files, 2);
        assert_eq!(io.spill_bytes, io.read_back_bytes);
        assert!(io.spill_bytes > 0);

        mgr.remove_all().unwrap();
        assert!(!mgr.has_batch(0) && !mgr.has_batch(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
