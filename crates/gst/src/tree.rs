//! The space-efficient DFS-array subtree representation.
//!
//! As in the paper (§3.1): "The nodes are generated and stored in the
//! order of the depth-first search traversal of the tree. Each node
//! contains a single pointer to the rightmost leaf node in its subtree.
//! All the children of a node can be retrieved using the following
//! procedure — the first child of a node is stored next to it in the
//! array. The next sibling of a node can be obtained by following the
//! pointer to its rightmost leaf and taking the node in the next entry of
//! the array. If a node and its parent have identical rightmost leaf
//! pointers, the node has no next sibling. A leaf is one whose rightmost
//! leaf pointer points to itself."
//!
//! Beside that pointer each node keeps one more 32-bit word, so a node
//! takes 8 bytes. An internal node's word is its string depth (the
//! decreasing-depth processing order and the maximal-common-substring
//! length need it). A leaf's word is the end of its run of suffix
//! occurrences in a per-subtree arena. Leaves own consecutive runs in DFS
//! order, so a run starts where the previous leaf's ends. All identical
//! suffixes share one leaf, exactly as in a generalized suffix tree with
//! a shared terminator, so a leaf's depth is the length of any of its
//! suffixes. [`Subtree`]'s accessors rebuild both.

use crate::bucket::SuffixRef;
use pace_seq::{SequenceStore, StrId};
use std::ops::Range;

/// Index of a node within its subtree's array.
pub type NodeIdx = u32;

/// One GST node: 8 bytes, DFS-ordered storage. Read it through
/// [`Subtree`], whose accessors know what the second word means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Index of the rightmost leaf in this node's subtree (self for leaves).
    rightmost: u32,
    /// An internal node's string depth; a leaf's arena end (exclusive).
    word: u32,
}

impl Node {
    /// An internal node of string depth `depth`.
    #[inline]
    pub(crate) fn internal(rightmost: NodeIdx, depth: u32) -> Node {
        Node {
            rightmost,
            word: depth,
        }
    }

    /// Leaf `idx`, owning `run` of its subtree's arena. `run` must start
    /// where the previous leaf's run ends (at 0 for the first leaf).
    #[inline]
    pub(crate) fn leaf(idx: NodeIdx, run: Range<u32>) -> Node {
        debug_assert!(run.start < run.end, "a leaf holds at least one suffix");
        Node {
            rightmost: idx,
            word: run.end,
        }
    }

    /// Set the rightmost pointer of an internal node once its subtree is
    /// built.
    #[inline]
    pub(crate) fn set_rightmost(&mut self, rightmost: NodeIdx) {
        self.rightmost = rightmost;
    }
}

/// One bucket's subtree of the generalized suffix tree.
///
/// The node array is a sequence of consecutive DFS ranges, each a tree
/// in the representation above whose top node's rightmost leaf ends the
/// range. A full subtree is one range rooted at index 0. An in-scope
/// subtree has one range per surviving ψ-prefix group, in path-label
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subtree {
    /// The bucket key this subtree was built from (diagnostics only).
    pub bucket: u32,
    pub(crate) nodes: Vec<Node>,
    /// Arena of suffix occurrences referenced by leaves.
    pub(crate) suffixes: Vec<SuffixRef>,
}

impl Subtree {
    /// Assemble a subtree from its raw arrays. No structural validation
    /// happens here; [`Self::validate`] checks the result.
    pub(crate) fn from_parts(bucket: u32, nodes: Vec<Node>, suffixes: Vec<SuffixRef>) -> Self {
        Subtree {
            bucket,
            nodes,
            suffixes,
        }
    }

    /// The suffix-occurrence arena: each leaf's run, in DFS order.
    #[inline]
    pub fn suffixes(&self) -> &[SuffixRef] {
        &self.suffixes
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the subtree has no nodes (empty bucket).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total suffix occurrences stored at the leaves.
    #[inline]
    pub fn num_suffixes(&self) -> usize {
        self.suffixes.len()
    }

    /// The top of the first DFS range (index 0) — the root of a full
    /// subtree. Panics on an empty subtree.
    #[inline]
    pub fn root(&self) -> NodeIdx {
        assert!(!self.is_empty(), "empty subtree has no root");
        0
    }

    /// String-depth of node `v`: an internal node's is stored, and a
    /// leaf's is the length of its suffixes, read from `store`.
    #[inline]
    pub fn depth(&self, store: &SequenceStore, v: NodeIdx) -> u32 {
        let n = self.nodes[v as usize];
        if n.rightmost == v {
            let suf = self.last_suffix(n);
            store.len_of(StrId(suf.sid())) as u32 - suf.off()
        } else {
            n.word
        }
    }

    /// The last suffix of `leaf`'s run. Every suffix at a leaf is the
    /// same string, so this one stands for all of them.
    #[inline]
    fn last_suffix(&self, leaf: Node) -> SuffixRef {
        self.suffixes[leaf.word as usize - 1]
    }

    /// Whether `v` is a leaf (its rightmost pointer is itself).
    #[inline]
    pub fn is_leaf(&self, v: NodeIdx) -> bool {
        self.nodes[v as usize].rightmost == v
    }

    /// The rightmost leaf of `v`'s subtree.
    #[inline]
    pub fn rightmost(&self, v: NodeIdx) -> NodeIdx {
        self.nodes[v as usize].rightmost
    }

    /// The run of the arena ([`Self::suffixes`]) that leaf `v` owns, or
    /// `0..0` for an internal node. The run starts at the previous leaf's
    /// end: the node before `v`, unless `v` is a first child, whose
    /// parent (and the ancestors it is the first child of) come between.
    #[inline]
    pub fn leaf_range(&self, v: NodeIdx) -> Range<usize> {
        let n = self.nodes[v as usize];
        if n.rightmost != v {
            return 0..0;
        }
        let mut u = v as usize;
        let start = loop {
            if u == 0 {
                break 0;
            }
            u -= 1;
            let prev = self.nodes[u];
            if prev.rightmost == u as u32 {
                break prev.word as usize;
            }
        };
        start..n.word as usize
    }

    /// The suffix occurrences at leaf `v` (empty slice for internal nodes).
    #[inline]
    pub fn leaf_suffixes(&self, v: NodeIdx) -> &[SuffixRef] {
        &self.suffixes[self.leaf_range(v)]
    }

    /// First child of `v`: the next array entry (paper's rule).
    #[inline]
    pub fn first_child(&self, v: NodeIdx) -> Option<NodeIdx> {
        if self.is_leaf(v) {
            None
        } else {
            Some(v + 1)
        }
    }

    /// Next sibling of child `u` under parent `v`: the entry after `u`'s
    /// rightmost leaf, unless `u` and `v` share their rightmost leaf.
    #[inline]
    pub fn next_sibling(&self, u: NodeIdx, v: NodeIdx) -> Option<NodeIdx> {
        let ru = self.nodes[u as usize].rightmost;
        if ru == self.nodes[v as usize].rightmost {
            None
        } else {
            Some(ru + 1)
        }
    }

    /// Iterate over the children of `v` in DFS (left-to-right) order.
    pub fn children(&self, v: NodeIdx) -> Children<'_> {
        Children {
            tree: self,
            parent: v,
            cur: self.first_child(v),
        }
    }

    /// The first (leftmost) leaf in `v`'s subtree: the first leaf at or
    /// after `v` in DFS order.
    pub fn first_leaf(&self, v: NodeIdx) -> NodeIdx {
        let mut i = v;
        while !self.is_leaf(i) {
            i += 1;
        }
        i
    }

    /// The path label of `v`: the first `depth(v)` characters of any
    /// suffix stored below it (here, the last suffix of its rightmost
    /// leaf).
    pub fn path_label<'s>(&self, store: &'s SequenceStore, v: NodeIdx) -> &'s [u8] {
        let suf = self.last_suffix(self.nodes[self.rightmost(v) as usize]);
        &suf.bytes(store)[..self.depth(store, v) as usize]
    }

    /// All node indices in DFS order paired with their depth.
    pub fn node_depths<'a>(
        &'a self,
        store: &'a SequenceStore,
    ) -> impl Iterator<Item = (NodeIdx, u32)> + 'a {
        (0..self.len() as NodeIdx).map(move |v| (v, self.depth(store, v)))
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.suffixes.capacity() * std::mem::size_of::<SuffixRef>()
    }

    /// Exhaustively check the structural invariants of the representation.
    /// Intended for tests; cost is O(nodes + suffixes).
    pub fn validate(&self, store: &SequenceStore) -> Result<(), String> {
        if self.is_empty() {
            return Ok(());
        }
        let n = self.nodes.len() as u32;
        // The DFS ranges tile the array: each top's rightmost leaf ends
        // its range, and the next range starts right after it. A full
        // subtree is the one-range case.
        let mut top = 0u32;
        while top < n {
            let end = self.nodes[top as usize].rightmost;
            if end < top || end >= n {
                return Err(format!(
                    "range top {top}: rightmost {end} outside {top}..{n}"
                ));
            }
            top = end + 1;
        }
        // The leaves' runs tile the arena in DFS order, none empty.
        let mut covered = 0usize;
        for v in 0..n {
            let node = &self.nodes[v as usize];
            if node.rightmost < v || node.rightmost >= n {
                return Err(format!(
                    "node {v}: rightmost {} out of range",
                    node.rightmost
                ));
            }
            if !self.is_leaf(node.rightmost) {
                return Err(format!(
                    "node {v}: rightmost {} is not a leaf",
                    node.rightmost
                ));
            }
            if self.is_leaf(v) {
                let end = node.word as usize;
                if end <= covered || end > self.suffixes.len() {
                    return Err(format!(
                        "leaf {v}: run {covered}..{end} is empty or outside the arena of {}",
                        self.suffixes.len()
                    ));
                }
                covered = end;
            }
        }
        if covered != self.suffixes.len() {
            return Err(format!(
                "leaves cover {covered} suffixes, arena has {}",
                self.suffixes.len()
            ));
        }
        for v in 0..n {
            let depth = self.depth(store, v);
            if self.is_leaf(v) {
                // All suffixes at a leaf must be identical strings, so
                // they share the leaf's depth.
                let sufs = self.leaf_suffixes(v);
                let first = sufs[0].bytes(store);
                for suf in &sufs[1..] {
                    if suf.bytes(store) != first {
                        return Err(format!("leaf {v}: non-identical suffixes share a leaf"));
                    }
                }
            } else {
                // Internal: at least two children, children sorted by
                // branching character, each child strictly inside.
                let rightmost = self.rightmost(v);
                let mut count = 0;
                let mut prev_char: Option<Option<u8>> = None;
                for c in self.children(v) {
                    count += 1;
                    if c <= v || c > rightmost {
                        return Err(format!("node {v}: child {c} outside subtree"));
                    }
                    let child_depth = self.depth(store, c);
                    if child_depth < depth || (child_depth == depth && !self.is_leaf(c)) {
                        return Err(format!(
                            "node {v} depth {depth}: child {c} depth {child_depth} violates ordering"
                        ));
                    }
                    // Branching character: the char of the child's label at
                    // position depth(v); None = end-of-string child.
                    let label = self.path_label(store, c);
                    let ch = label.get(depth as usize).copied();
                    if let Some(prev) = prev_char {
                        let ord_ok = match (prev, ch) {
                            (None, Some(_)) => true, // $ sorts first
                            (Some(a), Some(b)) => a < b,
                            _ => false,
                        };
                        if !ord_ok {
                            return Err(format!(
                                "node {v}: children branch chars not strictly increasing"
                            ));
                        }
                    }
                    prev_char = Some(ch);
                    // The child's label must extend the parent's label.
                    let plabel = self.path_label(store, v);
                    if label[..depth as usize] != plabel[..] {
                        return Err(format!("node {v}: child {c} label does not extend parent"));
                    }
                }
                if count < 2 {
                    return Err(format!("internal node {v} has {count} children"));
                }
            }
        }
        Ok(())
    }
}

/// Iterator over a node's children (see [`Subtree::children`]).
pub struct Children<'t> {
    tree: &'t Subtree,
    parent: NodeIdx,
    cur: Option<NodeIdx>,
}

impl Iterator for Children<'_> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        let cur = self.cur?;
        self.cur = self.tree.next_sibling(cur, self.parent);
        Some(cur)
    }
}

// Tests for the navigation methods live in `build.rs`, which can
// construct real trees.

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(idx: u32, suf: u32) -> Node {
        Node::leaf(idx, suf..suf + 1)
    }

    #[test]
    fn validate_accepts_consecutive_ranges_and_rejects_a_torn_one() {
        // "ACGT" and "ACGA": one range under the "ACG" node, then a lone
        // "CGT" leaf as a range of its own.
        let store = SequenceStore::from_ests(&[b"ACGT", b"ACGA"]).unwrap();
        let suffixes = vec![
            SuffixRef::at(&store, 2, 0),
            SuffixRef::at(&store, 0, 0),
            SuffixRef::at(&store, 0, 1),
        ];
        let ranges = vec![Node::internal(2, 3), leaf(1, 0), leaf(2, 1), leaf(3, 2)];
        let t = Subtree::from_parts(0, ranges.clone(), suffixes.clone());
        t.validate(&store).unwrap();
        assert_eq!(
            t.node_depths(&store).collect::<Vec<_>>(),
            [(0, 3), (1, 4), (2, 4), (3, 3)]
        );
        assert_eq!(t.leaf_range(0), 0..0);
        assert_eq!(t.leaf_range(1), 0..1);
        assert_eq!(t.leaf_range(3), 2..3);
        // The first range's top claims a rightmost past the array.
        let mut torn = ranges.clone();
        torn[0].rightmost = 7;
        let t = Subtree::from_parts(0, torn, suffixes.clone());
        assert!(t.validate(&store).unwrap_err().contains("outside"));
        // A leaf whose run ends where the previous one's does holds nothing.
        let mut empty = ranges;
        empty[2].word = 1;
        let t = Subtree::from_parts(0, empty, suffixes);
        assert!(t.validate(&store).unwrap_err().contains("empty"));
    }
}
