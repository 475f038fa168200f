//! Per-rank forests and whole-GST builders.
//!
//! Each rank owns a set of buckets and holds their subtrees; together the
//! per-rank [`LocalForest`]s form the distributed representation of the
//! generalized suffix tree. Two builders share one scatter and one
//! subdivision recursion:
//!
//! * the **in-scope** builder ([`build_in_scope_forest`],
//!   [`build_in_scope_batch`]) keeps only what pair generation at a
//!   threshold ψ reads: the nodes of string depth ≥ ψ, minus the
//!   single-suffix leaves whose parent is shallower than ψ. Every driver
//!   builds this forest. A daemon fold builds only the part of it that
//!   can emit a pair with a new string (a new-string floor, `fresh`);
//! * the **full** builder ([`build_forest_for_rank`], [`build_distributed`],
//!   [`build_sequential`]) keeps every node at depth ≥ `w`: the GST minus
//!   its top `< w` levels. It is the reference the in-scope forest is
//!   tested against.

use crate::bucket::{scatter, touched_buckets, TAG_BASES};
use crate::build::BuildScratch;
use crate::partition::{assign_buckets, count_buckets, BucketPartition};
use crate::tree::Subtree;
use pace_seq::SequenceStore;
use rayon::prelude::*;

/// The subtrees owned by one rank.
#[derive(Debug, Clone)]
pub struct LocalForest {
    /// The owning rank.
    pub rank: usize,
    /// Bucket window size the forest was built with.
    pub w: usize,
    /// The ψ the forest was gated at: it holds every node a pair
    /// generator at this ψ or above reads, and no node shallower than
    /// it. The full builders record `w`.
    pub psi: u32,
    /// The subtrees of the owned buckets, in bucket-key order: one per
    /// non-empty bucket for a full forest, one per bucket with a
    /// surviving ψ-group for an in-scope forest.
    pub subtrees: Vec<Subtree>,
}

impl LocalForest {
    /// Total nodes across the forest.
    pub fn num_nodes(&self) -> usize {
        self.subtrees.iter().map(|t| t.len()).sum()
    }

    /// Total suffix occurrences across the forest.
    pub fn num_suffixes(&self) -> usize {
        self.subtrees.iter().map(|t| t.num_suffixes()).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.subtrees.iter().map(|t| t.memory_bytes()).sum()
    }

    /// Deepest node (string depth, in bases) across the forest.
    pub fn max_depth(&self, store: &SequenceStore) -> u32 {
        self.subtrees
            .iter()
            .flat_map(|t| t.node_depths(store).map(|(_, d)| d))
            .max()
            .unwrap_or(0)
    }

    /// Validate every subtree (test helper).
    pub fn validate(&self, store: &SequenceStore) -> Result<(), String> {
        for t in &self.subtrees {
            t.validate(store)
                .map_err(|e| format!("rank {} bucket {}: {e}", self.rank, t.bucket))?;
        }
        Ok(())
    }
}

/// Build the full forest for one rank of an existing partition.
///
/// This is the code each rank runs after the bucket redistribution; it
/// only touches the suffixes of buckets the rank owns.
pub fn build_forest_for_rank(
    store: &SequenceStore,
    partition: &BucketPartition,
    rank: usize,
) -> LocalForest {
    let w = partition.w;
    let buckets = partition.buckets_of(rank);
    let scattered = scatter(store, w, &partition.counts, &buckets, w);
    // One scratch for the whole rank: the subdivision allocates only the
    // finished subtrees after the largest bucket has sized it.
    let mut scratch = BuildScratch::new();
    let subtrees = buckets
        .iter()
        .zip(&scattered.ranges)
        .map(|(&b, r)| {
            let suffixes = scattered.entries[r.clone()].iter().map(|e| e.suf);
            scratch.build_full(store, b, suffixes, w)
        })
        .collect();
    LocalForest {
        rank,
        w,
        psi: w as u32,
        subtrees,
    }
}

/// Build the in-scope forest of one rank for pair generation at `psi`:
/// [`build_in_scope_batch`] over every bucket the rank owns, with no
/// new-string floor.
pub fn build_in_scope_forest(
    store: &SequenceStore,
    partition: &BucketPartition,
    rank: usize,
    psi: u32,
) -> LocalForest {
    let buckets = partition.buckets_of(rank);
    LocalForest {
        rank,
        w: partition.w,
        psi,
        subtrees: build_in_scope_batch(store, partition, &buckets, psi, 0),
    }
}

/// Build the in-scope subtrees of an explicit list of buckets, in the
/// given order.
///
/// Lemma 1 puts every promising pair at a node of string depth ≥ ψ, so
/// only the suffixes at least ψ long that share their ψ-prefix with
/// another suffix can reach one. Since ψ ≥ w, such suffixes share a
/// bucket too, and the gate is local to each bucket: one pass scatters
/// the suffixes at least ψ long, tagged with their first `min(ψ, 32)`
/// bases; each bucket's slice is sorted by tag, tags that occur once are
/// dropped, and each remaining group is subdivided from the tag's depth
/// as one DFS range. A bucket with no surviving group yields no subtree.
/// This is ERA's vertical partitioning by variable-length prefix, cut at
/// ψ instead of at a memory size.
///
/// `fresh` is a new-string floor: strings with id `≥ fresh` are new, and
/// only the DFS ranges holding a suffix of one are built. By Lemma 1 a
/// pair with a new side is emitted only at a node whose subtree holds that
/// new suffix, so such a pair's node survives; a node's products depend on
/// its subtree alone, so the surviving nodes emit exactly what they would
/// in the whole forest. An incremental fold passes its first new forward
/// strand and builds only the ψ-groups its batch touches: one rolling pass
/// over the new strings marks the buckets they fall in, the scatter lists
/// only those, and a group is kept only if it holds a new suffix (checked
/// at each tag run and, for ψ > 32, wherever the subdivision hands a child
/// group on as a range of its own). `fresh = 0` builds every range and
/// does no marking and no per-group scan.
///
/// Batching by bucket is the building block of memory-budgeted
/// (out-of-core) construction: the caller splits a rank's buckets into
/// batches sized by the suffix-count load model and builds one batch at
/// a time, draining its pairs before building the next. Each call
/// rescans the store once — the classic time-for-space trade of
/// out-of-core suffix-tree construction.
pub fn build_in_scope_batch(
    store: &SequenceStore,
    partition: &BucketPartition,
    buckets: &[u32],
    psi: u32,
    fresh: u32,
) -> Vec<Subtree> {
    let psi = psi as usize;
    let touched: Vec<u32>;
    let buckets = if fresh == 0 {
        buckets
    } else {
        let marked = touched_buckets(store, partition.w, fresh, psi);
        touched = buckets
            .iter()
            .copied()
            .filter(|&b| marked[b as usize])
            .collect();
        &touched
    };
    let mut scattered = scatter(store, partition.w, &partition.counts, buckets, psi);
    let mut scratch = BuildScratch::new();
    let tag_len = psi.min(TAG_BASES);
    buckets
        .iter()
        .zip(&scattered.ranges)
        .filter_map(|(&b, r)| {
            let entries = &mut scattered.entries[r.clone()];
            scratch.build_in_scope(store, b, entries, tag_len, psi, fresh)
        })
        .collect()
}

/// Build the full distributed GST: count, partition, and build all ranks'
/// forests in parallel (rayon). The result is indexed by rank.
pub fn build_distributed(
    store: &SequenceStore,
    w: usize,
    num_ranks: usize,
) -> (BucketPartition, Vec<LocalForest>) {
    let counts = count_buckets(store, w);
    let partition = assign_buckets(&counts, num_ranks);
    let forests = (0..num_ranks)
        .into_par_iter()
        .map(|rank| build_forest_for_rank(store, &partition, rank))
        .collect();
    (partition, forests)
}

/// Convenience: the whole GST as a single-rank forest.
pub fn build_sequential(store: &SequenceStore, w: usize) -> LocalForest {
    let (_, mut forests) = build_distributed(store, w, 1);
    forests.pop().expect("one rank was requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::SuffixRef;
    use crate::tree::Node;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    fn census(store: &SequenceStore, forests: &[LocalForest]) -> BTreeMap<Vec<u8>, usize> {
        let mut map = BTreeMap::new();
        for f in forests {
            for t in &f.subtrees {
                for v in 0..t.len() as u32 {
                    for suf in t.leaf_suffixes(v) {
                        *map.entry(suf.bytes(store).to_vec()).or_insert(0) += 1;
                    }
                }
            }
        }
        map
    }

    #[test]
    fn distributed_equals_sequential_census() {
        let s = store(&[b"ACGTACGAGGTTCCAA", b"CCATGGTACGTATTGG", b"GATTACAGATTACA"]);
        let w = 2;
        let solo = build_sequential(&s, w);
        solo.validate(&s).unwrap();
        let solo_census = census(&s, std::slice::from_ref(&solo));
        for p in [2, 3, 5] {
            let (partition, forests) = build_distributed(&s, w, p);
            assert_eq!(partition.num_ranks, p);
            for f in &forests {
                f.validate(&s).unwrap();
            }
            assert_eq!(census(&s, &forests), solo_census, "p = {p}");
        }
    }

    #[test]
    fn forest_counts_are_consistent_with_partition() {
        let s = store(&[b"ACGTACGAGGTTCCAA", b"CCATGGTACGTATTGG"]);
        let (partition, forests) = build_distributed(&s, 2, 3);
        let loads = partition.load_per_rank();
        for f in &forests {
            assert_eq!(f.num_suffixes() as u64, loads[f.rank]);
        }
    }

    #[test]
    fn more_ranks_than_buckets_leaves_ranks_idle() {
        let s = store(&[b"AAAA"]); // only buckets AA and TT are non-empty
        let (partition, forests) = build_distributed(&s, 2, 8);
        let busy = forests.iter().filter(|f| !f.subtrees.is_empty()).count();
        assert!(busy <= 2);
        assert_eq!(
            partition.load_per_rank().iter().sum::<u64>(),
            forests.iter().map(|f| f.num_suffixes() as u64).sum::<u64>()
        );
    }

    #[test]
    fn in_scope_batches_union_to_the_rank_forest() {
        let s = store(&[b"ACGTACGAGGTTCCAA", b"CCATGGTACGTATTGG", b"GATTACAGATTACA"]);
        let part = assign_buckets(&count_buckets(&s, 2), 1);
        let buckets = part.buckets_of(0);
        assert!(buckets.len() > 3, "test wants several batches");
        for psi in [2, 3, 5] {
            let whole = build_in_scope_forest(&s, &part, 0, psi);
            assert_eq!(whole.psi, psi);
            whole.validate(&s).unwrap();
            for batch_size in [1, 3, buckets.len()] {
                let mut got = Vec::new();
                for chunk in buckets.chunks(batch_size) {
                    got.extend(build_in_scope_batch(&s, &part, chunk, psi, 0));
                }
                assert_eq!(got, whole.subtrees, "psi {psi} batch_size {batch_size}");
            }
        }
    }

    #[test]
    fn subtrees_are_allocated_at_their_final_size() {
        let s = store(&[b"ACGTACGAGGTTCCAA", b"CCATGGTACGTATTGG", b"GATTACAGATTACA"]);
        let part = assign_buckets(&count_buckets(&s, 2), 1);
        for (f, scope) in [
            (build_forest_for_rank(&s, &part, 0), 2),
            (build_in_scope_forest(&s, &part, 0, 4), 4),
        ] {
            assert_eq!(f.psi, scope, "full builders record w as their scope");
            for t in &f.subtrees {
                assert_eq!(t.memory_bytes(), t.len() * 8 + t.num_suffixes() * 8);
            }
        }
    }

    #[test]
    fn memory_reporting_is_positive() {
        let s = store(&[b"ACGTACGT"]);
        let f = build_sequential(&s, 2);
        assert!(f.memory_bytes() > 0);
        assert!(f.num_nodes() > 0);
        // The whole string is a repeated suffix path; the deepest node
        // must be at least w deep and no deeper than the longest string.
        assert!(f.max_depth(&s) >= 2);
        assert!(f.max_depth(&s) <= 8);
    }

    /// Append node `v` of `t` to `nodes` with rightmost pointer
    /// `rightmost`, copying a leaf's suffixes to the end of `sufs`.
    fn push_node(
        store: &SequenceStore,
        t: &Subtree,
        v: u32,
        rightmost: u32,
        nodes: &mut Vec<Node>,
        sufs: &mut Vec<SuffixRef>,
    ) {
        if t.is_leaf(v) {
            let start = sufs.len() as u32;
            sufs.extend_from_slice(t.leaf_suffixes(v));
            nodes.push(Node::leaf(rightmost, start..sufs.len() as u32));
        } else {
            nodes.push(Node::internal(rightmost, t.depth(store, v)));
        }
    }

    /// The part of a full subtree an in-scope build at `psi` keeps: its
    /// nodes of depth ≥ ψ in DFS order, minus the single-suffix leaves
    /// whose parent is shallower than ψ (a bucket's root has no parent
    /// inside the subtree, so it counts as shallower).
    fn in_scope_part(store: &SequenceStore, t: &Subtree, psi: u32) -> Option<Subtree> {
        let mut parent_depth = vec![0u32; t.len()];
        for v in 0..t.len() as u32 {
            for c in t.children(v) {
                parent_depth[c as usize] = t.depth(store, v);
            }
        }
        let kept: Vec<u32> = (0..t.len() as u32)
            .filter(|&v| {
                let lone = t.is_leaf(v) && t.leaf_suffixes(v).len() == 1;
                t.depth(store, v) >= psi && !(lone && parent_depth[v as usize] < psi)
            })
            .collect();
        let mut new_idx = vec![u32::MAX; t.len()];
        for (i, &v) in kept.iter().enumerate() {
            new_idx[v as usize] = i as u32;
        }
        let (mut nodes, mut sufs) = (Vec::new(), Vec::new());
        for &v in &kept {
            let rightmost = new_idx[t.rightmost(v) as usize];
            push_node(store, t, v, rightmost, &mut nodes, &mut sufs);
        }
        (!nodes.is_empty()).then(|| Subtree::from_parts(t.bucket, nodes, sufs))
    }

    /// Check the in-scope forest at (w, ψ) against the full forest's
    /// in-scope part, and that it validates.
    fn check_in_scope(ests: &[Vec<u8>], w: usize, psi: u32) -> Result<(), TestCaseError> {
        let s = SequenceStore::from_ests(ests).unwrap();
        let full = build_sequential(&s, w);
        let part = assign_buckets(&count_buckets(&s, w), 1);
        let scoped = build_in_scope_forest(&s, &part, 0, psi);
        let expect: Vec<Subtree> = full
            .subtrees
            .iter()
            .filter_map(|t| in_scope_part(&s, t, psi))
            .collect();
        prop_assert_eq!(&scoped.subtrees, &expect, "w {} psi {}", w, psi);
        prop_assert!(scoped.validate(&s).is_ok(), "{:?}", scoped.validate(&s));
        Ok(())
    }

    /// An in-scope subtree minus its DFS ranges that hold no suffix of a
    /// string with id `≥ fresh`, or `None` when none is left.
    fn ranges_holding_new(store: &SequenceStore, t: &Subtree, fresh: u32) -> Option<Subtree> {
        let (mut nodes, mut sufs) = (Vec::new(), Vec::new());
        let mut top = 0u32;
        while (top as usize) < t.len() {
            let end = t.rightmost(top);
            let holds_new =
                (top..=end).any(|v| t.leaf_suffixes(v).iter().any(|suf| suf.sid >= fresh));
            if holds_new {
                let shift = top - nodes.len() as u32;
                for v in top..=end {
                    let rightmost = t.rightmost(v) - shift;
                    push_node(store, t, v, rightmost, &mut nodes, &mut sufs);
                }
            }
            top = end + 1;
        }
        (!nodes.is_empty()).then(|| Subtree::from_parts(t.bucket, nodes, sufs))
    }

    /// At every split point `k`, the build with new-string floor `2k`
    /// equals the unfloored forest minus its ranges with no new suffix.
    fn check_fresh(ests: &[Vec<u8>], w: usize, psi: u32) -> Result<(), TestCaseError> {
        let s = SequenceStore::from_ests(ests).unwrap();
        let part = assign_buckets(&count_buckets(&s, w), 1);
        let buckets = part.buckets_of(0);
        let whole = build_in_scope_batch(&s, &part, &buckets, psi, 0);
        for k in 0..=ests.len() as u32 {
            let fresh = 2 * k;
            let gated = build_in_scope_batch(&s, &part, &buckets, psi, fresh);
            let expect: Vec<Subtree> = whole
                .iter()
                .filter_map(|t| ranges_holding_new(&s, t, fresh))
                .collect();
            prop_assert_eq!(&gated, &expect, "w {} psi {} fresh {}", w, psi, fresh);
            for t in &gated {
                prop_assert!(t.validate(&s).is_ok(), "{:?}", t.validate(&s));
            }
        }
        Ok(())
    }

    fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(proptest::sample::select(vec![b'A', b'C', b'G', b'T']), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-scope forest is exactly the full forest's in-scope part:
        /// same DFS order, same depths, same leaf suffix order.
        #[test]
        fn in_scope_forest_is_the_full_forests_in_scope_part(
            ests in proptest::collection::vec(dna(1..40), 1..8),
            w in 1usize..4,
            psi_extra in 0u32..=8,
        ) {
            check_in_scope(&ests, w, w as u32 + psi_extra)?;
        }

        /// ψ above the 32-base tag: reads cut from one template share
        /// long prefixes, and the recursion, not the tag, gates the
        /// depths between 32 and ψ.
        #[test]
        fn in_scope_forest_holds_for_psi_above_the_tag(
            template in dna(90..140),
            cuts in proptest::collection::vec((0usize..60, 30usize..80), 2..6),
            w in 1usize..4,
            psi in 33u32..45,
        ) {
            let ests: Vec<Vec<u8>> = cuts
                .iter()
                .map(|&(at, len)| template[at..(at + len).min(template.len())].to_vec())
                .collect();
            check_in_scope(&ests, w, psi)?;
        }

        /// A new-string floor drops exactly the DFS ranges with no new
        /// suffix: same DFS order, depths and leaf suffix order for the
        /// rest, and no subtree left empty.
        #[test]
        fn fresh_floor_keeps_exactly_the_ranges_holding_a_new_suffix(
            ests in proptest::collection::vec(dna(1..40), 1..8),
            w in 1usize..4,
            psi_extra in 0u32..=8,
        ) {
            check_fresh(&ests, w, w as u32 + psi_extra)?;
        }

        /// The floor above the 32-base tag, where the subdivision, not the
        /// tag run, hands the ψ-groups on. Each read cut from the template
        /// carries one substitution, so suffixes sharing their first 32
        /// bases part between 32 and ψ where one of them meets it.
        #[test]
        fn fresh_floor_holds_for_psi_above_the_tag(
            template in dna(90..140),
            cuts in proptest::collection::vec((0usize..60, 30usize..80, 0usize..80, 0usize..4), 2..8),
            w in 1usize..4,
            psi in 33u32..45,
        ) {
            let ests: Vec<Vec<u8>> = cuts
                .iter()
                .map(|&(at, len, snp, base)| {
                    let mut read = template[at..(at + len).min(template.len())].to_vec();
                    let snp = snp % read.len();
                    read[snp] = b"ACGT"[base];
                    read
                })
                .collect();
            check_fresh(&ests, w, psi)?;
        }
    }
}
