//! Distributed generalized suffix tree (GST) construction.
//!
//! The pair-generation phase of PaCE runs over a *generalized suffix tree*
//! of all `2n` strings (ESTs and reverse complements). Building one
//! sequentially is linear-time but inherently serial and memory-hungry;
//! the paper instead:
//!
//! 1. **buckets** every suffix by its first `w` characters
//!    ([`bucket`]) — `4^w` buckets, far more than processors, so they can
//!    be distributed in a load-balanced way ([`partition`]);
//! 2. builds the subtree for each bucket *independently* by scanning the
//!    bucket's suffixes one character at a time ([`build`]) — `O(N·l/p)`
//!    per processor, acceptable because the average EST length `l` is a
//!    constant (~500–600) independent of `n`;
//! 3. stores each subtree as a **DFS-ordered node array** in which every
//!    node carries only a pointer to the rightmost leaf of its subtree
//!    ([`tree`]): the first child of a node is the next array entry, the
//!    next sibling of a node is the entry after its rightmost leaf, and a
//!    node is a leaf iff it is its own rightmost leaf. Space stays linear
//!    in the input.
//!
//! Pair generation only looks at nodes of string depth `≥ ψ ≥ w`
//! (Lemma 1), so the drivers build only that part
//! ([`build_in_scope_forest`]): each bucket's suffixes are grouped by
//! their ψ-prefix, groups of one are dropped, and each remaining group
//! becomes one DFS range of the bucket's subtree. Given a new-string
//! floor ([`build_in_scope_batch`]'s `fresh`), only the groups holding a
//! suffix of a string with id `≥ fresh` are built: an incremental fold
//! builds just the ψ-groups its batch touches. The full builders
//! ([`build_forest_for_rank`], [`build_sequential`]) keep the GST minus
//! its top `< w` levels and serve as the reference.
//!
//! ```
//! use pace_seq::SequenceStore;
//!
//! let store = SequenceStore::from_ests(&[b"ACGTACGT", b"CGTACGTT"]).unwrap();
//! let forest = pace_gst::build_sequential(&store, 2);
//! assert!(forest.num_nodes() > 0);
//! // Every suffix of length ≥ w of every strand is in exactly one leaf.
//! assert_eq!(
//!     forest.num_suffixes(),
//!     store.str_ids().map(|s| store.len_of(s) - 1).sum::<usize>()
//! );
//! forest.validate(&store).unwrap();
//!
//! // The in-scope forest for ψ = 4 holds no node shallower than 4.
//! let partition = pace_gst::assign_buckets(&pace_gst::count_buckets(&store, 2), 1);
//! let scoped = pace_gst::build_in_scope_forest(&store, &partition, 0, 4);
//! assert!(scoped.num_nodes() < forest.num_nodes());
//! assert!(scoped.subtrees.iter().all(|t| t.node_depths(&store).all(|(_, d)| d >= 4)));
//! scoped.validate(&store).unwrap();
//!
//! // With the second EST's strands (ids 2 and 3) new, only the ψ-groups
//! // holding one of their suffixes are built.
//! let buckets = partition.buckets_of(0);
//! let touched = pace_gst::build_in_scope_batch(&store, &partition, &buckets, 4, 2);
//! assert!(touched.iter().map(|t| t.len()).sum::<usize>() <= scoped.num_nodes());
//! assert!(touched
//!     .iter()
//!     .all(|t| t.suffixes().iter().any(|s| s.sid >= 2)));
//! ```

pub mod bucket;
pub mod build;
pub mod forest;
pub mod partition;
pub mod tree;

pub use bucket::{bucket_key, num_buckets, scatter, Scattered, SuffixRef, Tagged};
pub use build::{build_subtree, build_subtree_comparison_sort, build_subtree_with, BuildScratch};
pub use forest::{
    build_distributed, build_forest_for_rank, build_in_scope_batch, build_in_scope_forest,
    build_sequential, LocalForest,
};
pub use partition::{assign_buckets, count_buckets, count_buckets_stride, BucketPartition};
pub use tree::{Node, NodeIdx, Subtree};
