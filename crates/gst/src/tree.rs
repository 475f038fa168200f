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
//! On top of that pointer each node stores its string-depth (needed for
//! the decreasing-depth processing order and as the maximal-common-
//! substring length) and, for leaves, the range of its suffix occurrences
//! in a per-subtree arena. All identical suffixes share one leaf, exactly
//! as in a generalized suffix tree with a shared terminator.

use crate::bucket::SuffixRef;
use pace_seq::{SequenceStore, StrId};

/// Index of a node within its subtree's array.
pub type NodeIdx = u32;

/// One GST node: 16 bytes, DFS-ordered storage.
///
/// Public so the persistence layer can serialize subtrees field-by-field;
/// everything else should go through [`Subtree`]'s navigation methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Index of the rightmost leaf in this node's subtree (self for leaves).
    pub rightmost: u32,
    /// String-depth: length of the path label from the (conceptual) GST
    /// root down to this node.
    pub depth: u32,
    /// For leaves: start of this leaf's suffix occurrences in the arena.
    /// For internal nodes: unused (set to the subtree's arena start).
    pub suf_start: u32,
    /// For leaves: end (exclusive) of the suffix occurrences.
    pub suf_end: u32,
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
    /// Reassemble a subtree from its raw arrays (the persistence layer's
    /// decode path). No structural validation happens here — callers that
    /// read untrusted bytes should follow up with [`Self::validate`];
    /// the snapshot layer's checksums make post-decode corruption
    /// unreachable in practice.
    pub fn from_parts(bucket: u32, nodes: Vec<Node>, suffixes: Vec<SuffixRef>) -> Self {
        Subtree {
            bucket,
            nodes,
            suffixes,
        }
    }

    /// The DFS-ordered node array (for serialization).
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The suffix-occurrence arena (for serialization).
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

    /// String-depth of node `v`.
    #[inline]
    pub fn depth(&self, v: NodeIdx) -> u32 {
        self.nodes[v as usize].depth
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

    /// The suffix occurrences at leaf `v` (empty slice for internal nodes).
    pub fn leaf_suffixes(&self, v: NodeIdx) -> &[SuffixRef] {
        let n = &self.nodes[v as usize];
        if n.rightmost == v {
            &self.suffixes[n.suf_start as usize..n.suf_end as usize]
        } else {
            &[]
        }
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
    /// suffix stored below it.
    pub fn path_label<'s>(&self, store: &'s SequenceStore, v: NodeIdx) -> &'s [u8] {
        let leaf = self.first_leaf(v);
        let suf = self.leaf_suffixes(leaf)[0];
        let full = store.suffix(StrId(suf.sid), suf.off as usize);
        &full[..self.depth(v) as usize]
    }

    /// All node indices in DFS order paired with their depth.
    pub fn node_depths(&self) -> impl Iterator<Item = (NodeIdx, u32)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i as NodeIdx, n.depth))
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
        let mut covered = 0usize;
        for v in 0..n {
            let node = &self.nodes[v as usize];
            if node.rightmost < v || node.rightmost >= n {
                return Err(format!(
                    "node {v}: rightmost {} out of range",
                    node.rightmost
                ));
            }
            if !self.nodes[node.rightmost as usize].is_leaf_raw(node.rightmost) {
                return Err(format!(
                    "node {v}: rightmost {} is not a leaf",
                    node.rightmost
                ));
            }
            if self.is_leaf(v) {
                let sufs = self.leaf_suffixes(v);
                if sufs.is_empty() {
                    return Err(format!("leaf {v} holds no suffixes"));
                }
                covered += sufs.len();
                for suf in sufs {
                    let bytes = suf.bytes(store);
                    if bytes.len() != node.depth as usize {
                        return Err(format!(
                            "leaf {v}: suffix {suf:?} length {} != depth {}",
                            bytes.len(),
                            node.depth
                        ));
                    }
                }
                // All suffixes at a leaf must be identical strings.
                let first = sufs[0].bytes(store);
                for suf in &sufs[1..] {
                    if suf.bytes(store) != first {
                        return Err(format!("leaf {v}: non-identical suffixes share a leaf"));
                    }
                }
            } else {
                // Internal: at least two children, children sorted by
                // branching character, each child strictly inside.
                let mut count = 0;
                let mut prev_char: Option<Option<u8>> = None;
                for c in self.children(v) {
                    count += 1;
                    if c <= v || c > node.rightmost {
                        return Err(format!("node {v}: child {c} outside subtree"));
                    }
                    if self.depth(c) < node.depth
                        || (self.depth(c) == node.depth && !self.is_leaf(c))
                    {
                        return Err(format!(
                            "node {v} depth {}: child {c} depth {} violates ordering",
                            node.depth,
                            self.depth(c)
                        ));
                    }
                    // Branching character: the char of the child's label at
                    // position depth(v); None = end-of-string child.
                    let label = self.path_label(store, c);
                    let ch = label.get(node.depth as usize).copied();
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
                    if label[..node.depth as usize] != plabel[..] {
                        return Err(format!("node {v}: child {c} label does not extend parent"));
                    }
                }
                if count < 2 {
                    return Err(format!("internal node {v} has {count} children"));
                }
            }
        }
        if covered != self.suffixes.len() {
            return Err(format!(
                "leaves cover {covered} suffixes, arena has {}",
                self.suffixes.len()
            ));
        }
        Ok(())
    }
}

impl Node {
    #[inline]
    fn is_leaf_raw(&self, own_idx: u32) -> bool {
        self.rightmost == own_idx
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

    fn leaf(idx: u32, depth: u32, suf: u32) -> Node {
        Node {
            rightmost: idx,
            depth,
            suf_start: suf,
            suf_end: suf + 1,
        }
    }

    #[test]
    fn validate_accepts_consecutive_ranges_and_rejects_a_torn_one() {
        // "ACGT" and "ACGA": one range under the "ACG" node, then a lone
        // "CGT" leaf as a range of its own.
        let store = SequenceStore::from_ests(&[b"ACGT", b"ACGA"]).unwrap();
        let suffixes = vec![
            SuffixRef::new(2, 0),
            SuffixRef::new(0, 0),
            SuffixRef::new(0, 1),
        ];
        let internal = Node {
            rightmost: 2,
            depth: 3,
            suf_start: 0,
            suf_end: 0,
        };
        let ranges = vec![internal, leaf(1, 4, 0), leaf(2, 4, 1), leaf(3, 3, 2)];
        let t = Subtree::from_parts(0, ranges.clone(), suffixes.clone());
        t.validate(&store).unwrap();
        // The first range's top claims a rightmost past the array.
        let mut torn = ranges;
        torn[0].rightmost = 7;
        let t = Subtree::from_parts(0, torn, suffixes);
        assert!(t.validate(&store).unwrap_err().contains("outside"));
    }
}
