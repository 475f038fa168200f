//! Union–find (disjoint set union) for EST cluster bookkeeping.
//!
//! The paper maintains `CLUSTERS` with Tarjan's union–find structure
//! \[Tarjan 1975\]: `find` locates the cluster of an EST and `union` merges
//! two clusters, with amortized cost given by the inverse Ackermann
//! function — effectively constant. [`DisjointSets`] is that structure,
//! owned by the master processor.

//! ```
//! use pace_dsu::DisjointSets;
//!
//! let mut clusters = DisjointSets::new(4);
//! assert!(clusters.union(0, 1));
//! assert!(!clusters.union(1, 0), "already merged");
//! assert!(clusters.same(0, 1));
//! assert_eq!(clusters.num_sets(), 3);
//! ```

mod dsu;

pub use dsu::DisjointSets;
